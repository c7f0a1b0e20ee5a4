#include "dram/channel.h"

#include <algorithm>

#include "common/log.h"
#include "common/tracer.h"

namespace mempod {

Channel::Channel(EventQueue &eq, const DramSpec &spec, std::string name,
                 TimePs extra_latency_ps, ControllerPolicy policy,
                 DomainId domain, std::uint64_t *in_flight)
    : MemoryModel(in_flight),
      eq_(eq),
      spec_(spec),
      tbl_(CommandTimingTable::build(spec.timing)),
      clock_(spec.timing.clockPeriodPs),
      name_(std::move(name)),
      extraLatencyPs_(extra_latency_ps),
      policy_(policy),
      domain_(domain),
      banks_(tbl_, spec_.org.totalBanks(), spec_.org.banksPerRank),
      autoPrePending_(spec_.org.totalBanks(), false)
{
    const std::uint32_t nbanks = spec_.org.totalBanks();
    const std::size_t words = (nbanks + 63) / 64;
    for (Queue *q : {&readQ_, &writeQ_}) {
        q->banks.assign(nbanks, BankList{});
        q->workWords.assign(words, 0);
    }
    // tREFI == 0 turns refresh off (as in resumeAt).
    nextRefreshAt_ =
        spec_.timing.tREFI == 0 ? kTimeNever : spec_.timing.tREFI;
    const DramTiming &t = spec_.timing;
    for (const TimePs v : {t.tCL, t.tCWL, t.tRCD, t.tRP, t.tRAS, t.tBL,
                           t.tCCD, t.tWR, t.tWTR, t.tRTP, t.tRTW, t.tRRD,
                           t.tFAW, t.tREFI, t.tRFC})
        onClock_ = onClock_ && v % t.clockPeriodPs == 0;
}

void
Channel::pushEntry(Queue &q, std::uint32_t idx)
{
    Entry &e = entries_[idx];
    e.prevG = q.tail;
    e.nextG = kNil;
    if (q.tail != kNil)
        entries_[q.tail].nextG = idx;
    else
        q.head = idx;
    q.tail = idx;

    const std::uint32_t b = e.at.bank;
    BankList &bl = q.banks[b];
    e.prevB = bl.tail;
    e.nextB = kNil;
    if (bl.tail != kNil) {
        entries_[bl.tail].nextB = idx;
    } else {
        bl.head = idx;
        q.workWords[b / 64] |= std::uint64_t{1} << (b % 64);
        ++q.workBanks;
    }
    bl.tail = idx;
    ++q.size;

    // The hit/conflict caches are maintained only while the row is
    // open; a closed bank recomputes them on its next ACT.
    if (banks_.isOpen(b)) {
        if (banks_.openRow(b) == e.at.row) {
            if (bl.oldestHit == kNil)
                bl.oldestHit = idx;
        } else if (bl.oldestMiss == kNil) {
            bl.oldestMiss = idx;
        }
    }
}

void
Channel::removeEntry(Queue &q, std::uint32_t idx)
{
    Entry &e = entries_[idx];
    if (e.prevG != kNil)
        entries_[e.prevG].nextG = e.nextG;
    else
        q.head = e.nextG;
    if (e.nextG != kNil)
        entries_[e.nextG].prevG = e.prevG;
    else
        q.tail = e.prevG;

    const std::uint32_t b = e.at.bank;
    BankList &bl = q.banks[b];
    if (e.prevB != kNil)
        entries_[e.prevB].nextB = e.nextB;
    else
        bl.head = e.nextB;
    if (e.nextB != kNil)
        entries_[e.nextB].prevB = e.prevB;
    else
        bl.tail = e.prevB;
    --q.size;

    if (bl.head == kNil) {
        q.workWords[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        --q.workBanks;
        bl.oldestHit = kNil;
        bl.oldestMiss = kNil;
        return;
    }
    // The bank FIFO is age-ordered, so the next cached entry is the
    // first match at or after the removed entry's successor.
    if (bl.oldestHit == idx) {
        bl.oldestHit = kNil;
        const std::int64_t row = banks_.openRow(b);
        for (std::uint32_t i = e.nextB; i != kNil;
             i = entries_[i].nextB) {
            if (entries_[i].at.row == row) {
                bl.oldestHit = i;
                break;
            }
        }
    }
    if (bl.oldestMiss == idx) {
        bl.oldestMiss = kNil;
        const std::int64_t row = banks_.openRow(b);
        for (std::uint32_t i = e.nextB; i != kNil;
             i = entries_[i].nextB) {
            if (entries_[i].at.row != row) {
                bl.oldestMiss = i;
                break;
            }
        }
    }
}

void
Channel::refreshBankCaches(Queue &q, std::uint32_t b)
{
    BankList &bl = q.banks[b];
    bl.oldestHit = kNil;
    bl.oldestMiss = kNil;
    if (!banks_.isOpen(b))
        return;
    const std::int64_t row = banks_.openRow(b);
    for (std::uint32_t i = bl.head; i != kNil; i = entries_[i].nextB) {
        if (entries_[i].at.row == row) {
            if (bl.oldestHit == kNil)
                bl.oldestHit = i;
        } else if (bl.oldestMiss == kNil) {
            bl.oldestMiss = i;
        }
        if (bl.oldestHit != kNil && bl.oldestMiss != kNil)
            break;
    }
}

void
Channel::enqueue(Request req, ChannelAddr where)
{
    MEMPOD_ASSERT(where.bank < banks_.numBanks(), "bank %u out of range",
                  where.bank);
    MEMPOD_ASSERT(where.row >= 0 &&
                      where.row < static_cast<std::int64_t>(
                                      spec_.org.rowsPerBank),
                  "row out of range");
    const std::uint32_t idx = entries_.acquire(Entry{});
    Entry &e = entries_[idx];
    e.at = where;
    e.enqueuedAt = eq_.now();
    e.seq = nextSeq_++;
    e.traceId = req.traceId;
    e.kind = req.kind;
    if (req.done)
        e.cbSlot = completionSlots_.acquire(req.done);
    pushEntry(req.type == AccessType::kWrite ? writeQ_ : readQ_, idx);
    ++stats_.queuedNow;
    stats_.maxQueueDepth =
        std::max(stats_.maxQueueDepth, stats_.queuedNow);
    scheduleTick(alignUp(eq_.now()));
}

void
Channel::scheduleTick(TimePs when)
{
    if (when == kTimeNever)
        return; // nothing to wake for (refresh off, queues idle)
    const TimePs now = eq_.now();
    if (when < now || !onClock_)
        when = alignUp(std::max(when, now));
    if (scheduledTickAt_ <= when)
        return; // an earlier or equal wakeup is already pending
    scheduledTickAt_ = when;
    eq_.scheduleIn(domain_, when, [this, when] {
        if (scheduledTickAt_ == when)
            scheduledTickAt_ = kTimeNever;
        tick();
    });
}

void
Channel::resumeAt(TimePs now)
{
    const TimePs refi = spec_.timing.tREFI;
    if (refi == 0 || nextRefreshAt_ > now)
        return;
    const std::uint64_t missed = (now - nextRefreshAt_) / refi + 1;
    nextRefreshAt_ += missed * refi;
    stats_.refreshes += missed;
}

void
Channel::performRefresh()
{
    const TimePs now = eq_.now();
    const std::uint32_t nbanks = banks_.numBanks();
    // All banks must be precharged; model the worst pending constraint.
    TimePs start = now;
    for (std::uint32_t b = 0; b < nbanks; ++b)
        if (banks_.isOpen(b))
            start = std::max(start, banks_.readyAt(b, DramCmd::kPre));
    const TimePs end = start + spec_.timing.tRP + spec_.timing.tRFC;
    for (std::uint32_t b = 0; b < nbanks; ++b) {
        if (banks_.isOpen(b)) {
            // Wait out tRAS, then implicit PRE (uncounted: refresh
            // precharges are part of the refresh cycle, not demand).
            banks_.blockUntil(b, start);
            banks_.precharge(
                std::max(now, banks_.readyAt(b, DramCmd::kPre)), b);
        }
        // Block through the refresh cycle.
        banks_.blockUntil(b, end);
        // Every row is closed now; the caches rebuild on the next ACT.
        readQ_.banks[b].oldestHit = kNil;
        readQ_.banks[b].oldestMiss = kNil;
        writeQ_.banks[b].oldestHit = kNil;
        writeQ_.banks[b].oldestMiss = kNil;
    }
    nextRefreshAt_ += spec_.timing.tREFI;
    ++stats_.refreshes;
    if (Tracer *tr = eq_.tracer()) {
        const std::uint32_t tid = tr->track(name_);
        tr->durBegin(tid, start, "refresh");
        tr->durEnd(tid, end);
    }
}

void
Channel::tick()
{
    const TimePs now = eq_.now();

    if (now >= nextRefreshAt_) {
        performRefresh();
        if (readQ_.size != 0 || writeQ_.size != 0)
            scheduleTick(wakeUpAt(std::min(scan(readQ_, false).wake,
                                           scan(writeQ_, true).wake)));
        else
            scheduleTick(nextRefreshAt_);
        return;
    }

    // Closed-page policy: retire auto-precharges that became legal
    // (even while the request queues are empty).
    if (policy_.closedPage) {
        for (std::uint32_t b = 0; b < banks_.numBanks(); ++b) {
            if (!autoPrePending_[b] || !banks_.isOpen(b)) {
                autoPrePending_[b] = false;
                continue;
            }
            if (openRowHasPendingHit(b))
                continue; // a new hit arrived; keep the row open
            if (now >= banks_.readyAt(b, DramCmd::kPre)) {
                issuePre(b);
                autoPrePending_[b] = false;
            }
        }
    }

    if (readQ_.size == 0 && writeQ_.size == 0) {
        // Idle: stay armed only to finish pending auto-precharges;
        // closed banks refresh lazily when work next arrives.
        if (policy_.closedPage) {
            for (std::uint32_t b = 0; b < banks_.numBanks(); ++b) {
                if (autoPrePending_[b] && banks_.isOpen(b)) {
                    scheduleTick(
                        std::max(now + spec_.timing.clockPeriodPs,
                                 banks_.readyAt(b, DramCmd::kPre)));
                    break;
                }
            }
        }
        return;
    }

    TimePs wake = kTimeNever;
    const bool issued = tryIssue(wake);
    ++hostStats_.ticks;
    if (issued)
        ++hostStats_.issued;

    // Reschedule: after issuing, try again next cycle; otherwise sleep
    // until the earliest timing constraint expires.
    if (issued)
        scheduleTick(now + spec_.timing.clockPeriodPs);
    else
        scheduleTick(std::min(wakeUpAt(wake), nextRefreshAt_));
}

TimePs
Channel::wakeUpAt(TimePs wake) const
{
    if (wake == kTimeNever)
        return nextRefreshAt_;
    // Never "now" exactly: the caller already failed to issue at now,
    // so wait at least one cycle to avoid a zero-progress respin.
    return std::max(wake, eq_.now() + spec_.timing.clockPeriodPs);
}

bool
Channel::tryIssue(TimePs &wake)
{
    // Write-drain hysteresis.
    if (writeQ_.size >= kDrainHigh)
        draining_ = true;
    else if (writeQ_.size <= kDrainLow)
        draining_ = false;

    const bool writes_first = draining_ || readQ_.size == 0;
    if (writes_first) {
        if (tryIssueFrom(writeQ_, true, wake))
            return true;
        return tryIssueFrom(readQ_, false, wake);
    }
    if (tryIssueFrom(readQ_, false, wake))
        return true;
    return tryIssueFrom(writeQ_, true, wake);
}

bool
Channel::tryIssueFrom(Queue &q, bool is_write_queue, TimePs &wake)
{
    if (q.size == 0)
        return false;

    ++hostStats_.arbPasses;
    hostStats_.workBanks += q.workBanks;

    // Anti-starvation: if the oldest entry has waited too long, only
    // consider it. Plain FCFS always considers only the oldest.
    if (policy_.fcfs ||
        eq_.now() - entries_[q.head].enqueuedAt > kStarvationAgePs) {
        if (tryIssueFront(q, is_write_queue))
            return true;
        wake = std::min(wake, scan(q, is_write_queue).wake);
        return false;
    }

    // FR-FCFS: oldest ready row hit, then oldest ready ACT, then
    // oldest ready conflict PRE.
    const Scan s = scan(q, is_write_queue);
    if (s.hit != kNil) {
        issueCas(q, s.hit, is_write_queue);
    } else if (s.act != kNil) {
        issueAct(s.act);
    } else if (s.pre != kNil) {
        issuePre(entries_[s.pre].at.bank);
    } else {
        wake = std::min(wake, s.wake);
        return false;
    }
    return true;
}

bool
Channel::tryIssueFront(Queue &q, bool is_write_queue)
{
    // Same CAS/ACT/PRE precedence as the scan, on one candidate.
    const TimePs now = eq_.now();
    const Entry &front = entries_[q.head];
    const std::uint32_t b = front.at.bank;
    if (banks_.openRow(b) == front.at.row) {
        const TimePs cas_gate =
            is_write_queue ? nextWrCasAt_ : nextRdCasAt_;
        const DramCmd cas = is_write_queue ? DramCmd::kWr : DramCmd::kRd;
        const TimePs cas_to_data =
            is_write_queue ? spec_.timing.tCWL : spec_.timing.tCL;
        if (now >= banks_.readyAt(b, cas) && now >= cas_gate &&
            now + cas_to_data >= busFreeAt_) {
            issueCas(q, q.head, is_write_queue);
            return true;
        }
    } else if (!banks_.isOpen(b)) {
        if (now >= banks_.actReadyAt(b)) {
            issueAct(q.head);
            return true;
        }
    } else if (now >= banks_.readyAt(b, DramCmd::kPre)) {
        // Starving: close the conflicting row even if other queued
        // requests still hit it.
        issuePre(b);
        return true;
    }
    return false;
}

Channel::Scan
Channel::scan(const Queue &q, bool is_write_queue) const
{
    const TimePs now = eq_.now();
    const DramCmd cas = is_write_queue ? DramCmd::kWr : DramCmd::kRd;
    // A CAS also waits for the channel's CAS gate and for its data to
    // start no earlier than the bus frees; both are bank-independent.
    const TimePs cas_to_data =
        is_write_queue ? spec_.timing.tCWL : spec_.timing.tCL;
    TimePs cas_floor = is_write_queue ? nextWrCasAt_ : nextRdCasAt_;
    if (busFreeAt_ > cas_to_data)
        cas_floor = std::max(cas_floor, busFreeAt_ - cas_to_data);

    Scan s;
    std::uint64_t hit_seq = 0, act_seq = 0, pre_seq = 0;
    // Keep `idx` in `best` if it is the oldest ready candidate so far.
    const auto oldest = [&](std::uint32_t &best, std::uint64_t &best_seq,
                            std::uint32_t idx) {
        const std::uint64_t seq = entries_[idx].seq;
        if (best == kNil || seq < best_seq) {
            best = idx;
            best_seq = seq;
        }
    };
    forEachWorkBank(q, [&](std::uint32_t b) {
        const BankList &bl = q.banks[b];
        if (!banks_.isOpen(b)) {
            const TimePs at = banks_.actReadyAt(b);
            s.wake = std::min(s.wake, at);
            if (at <= now)
                oldest(s.act, act_seq, bl.head);
            return;
        }
        if (bl.oldestHit != kNil) {
            const TimePs at = std::max(banks_.readyAt(b, cas), cas_floor);
            s.wake = std::min(s.wake, at);
            if (at <= now)
                oldest(s.hit, hit_seq, bl.oldestHit);
        }
        if (bl.oldestMiss != kNil) {
            const TimePs at = banks_.readyAt(b, DramCmd::kPre);
            s.wake = std::min(s.wake, at);
            if (at <= now && !openRowHasPendingHit(b))
                oldest(s.pre, pre_seq, bl.oldestMiss);
        }
    });
    return s;
}

void
Channel::issueAct(std::uint32_t idx)
{
    Entry &e = entries_[idx];
    const std::uint32_t b = e.at.bank;
    banks_.activate(eq_.now(), b, e.at.row);
    refreshBankCaches(readQ_, b);
    refreshBankCaches(writeQ_, b);
    e.causedAct = true;
    ++stats_.activates;
}

void
Channel::issuePre(std::uint32_t b)
{
    banks_.precharge(eq_.now(), b);
    refreshBankCaches(readQ_, b);
    refreshBankCaches(writeQ_, b);
    ++stats_.precharges;
}

void
Channel::issueCas(Queue &q, std::uint32_t idx, bool is_write_queue)
{
    const TimePs now = eq_.now();
    Entry &e = entries_[idx];
    removeEntry(q, idx);
    --stats_.queuedNow;

    const std::uint32_t b = e.at.bank;
    const auto rd = cmdIndex(DramCmd::kRd);
    const auto wr = cmdIndex(DramCmd::kWr);
    TimePs data_end;
    if (is_write_queue) {
        data_end = banks_.write(now, b);
        ++stats_.writes;
        nextWrCasAt_ =
            std::max(nextWrCasAt_, now + tbl_.channel[wr][wr]);
        nextRdCasAt_ =
            std::max(nextRdCasAt_, now + tbl_.channel[wr][rd]);
    } else {
        data_end = banks_.read(now, b);
        ++stats_.reads;
        nextRdCasAt_ =
            std::max(nextRdCasAt_, now + tbl_.channel[rd][rd]);
        nextWrCasAt_ =
            std::max(nextWrCasAt_, now + tbl_.channel[rd][wr]);
    }
    busFreeAt_ = std::max(busFreeAt_, data_end);
    stats_.busBusyPs += tbl_.burstPs;

    if (e.causedAct)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    // Closed-page: close the row once nothing queued still wants it.
    if (policy_.closedPage)
        autoPrePending_[b] = true;

    const TimePs finish = data_end + extraLatencyPs_;

    if (e.kind == Request::Kind::kDemand) {
        stats_.demandQueueWaitPs += now - e.enqueuedAt;
        stats_.demandServicePs += finish - now;
    }

    if (e.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(name_);
            const std::uint64_t id = e.traceId;
            tr->asyncBegin(tid, e.enqueuedAt, "req", id, "queue");
            tr->asyncEnd(tid, now, "req", id, "queue");
            TraceArgs a;
            a.add("bank", e.at.bank)
                .add("row_hit", e.causedAct ? 0u : 1u)
                .add("write", is_write_queue ? 1u : 0u);
            tr->asyncBegin(tid, now, "req", id, "service", a.str());
            tr->asyncEnd(tid, finish, "req", id, "service");
        }
    }

    if (counted() || e.cbSlot != kNil) {
        // Completions cross back to the coordinator domain: their
        // delta (CAS latency + burst + interconnect) lower-bounds the
        // executor's lookahead horizon.
        eq_.scheduleIn(EventQueue::kCoordinatorDomain, finish,
                       [this, slot = e.cbSlot, finish] {
            Completion done;
            if (slot != kNil) {
                done = completionSlots_[slot];
                // Release before completing: the owner may enqueue a
                // new request that reuses (or grows past) this slot.
                completionSlots_.release(slot);
            }
            complete(done, finish);
        });
    }

    entries_.release(idx);
}

ChannelTelemetry
Channel::telemetry() const
{
    ChannelTelemetry t;
    t.name = name_;
    t.stats = &stats_;
    t.bankActivates = banks_.activateCounts();
    t.bankReads = banks_.readCounts();
    t.bankWrites = banks_.writeCounts();
    t.numBanks = banks_.numBanks();
    return t;
}

} // namespace mempod
