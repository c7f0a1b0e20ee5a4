#include "sim/parallel.h"

#include <algorithm>

#include "common/log.h"
#include "mem/memory_system.h"

namespace mempod {

ParallelExecutor::ParallelExecutor(EventQueue &coordinator,
                                   std::size_t num_channels,
                                   unsigned shards, TimePs lookahead_ps,
                                   TimePs sample_period_ps)
    : coord_(coordinator),
      shards_(std::min<unsigned>(std::max(shards, 1u),
                                 static_cast<unsigned>(num_channels))),
      lookahead_(lookahead_ps),
      samplePeriod_(sample_period_ps),
      pm_(coordinator.perf())
{
    MEMPOD_ASSERT(num_channels > 0, "executor needs at least one channel");
    MEMPOD_ASSERT(lookahead_ > 0,
                  "conservative execution needs positive lookahead");
    // Sharded tracing: records stage per domain, stamped with their
    // event's canonical key, and absorbTraces() merges them into the
    // master in serial emission order (byte-identical JSON).
    const Tracer *const master = coord_.tracer();
    const auto staging = [master] {
        return master ? std::make_unique<Tracer>(master->config(),
                                                 /*staging=*/true)
                      : nullptr;
    };
    coordStaging_ = staging();
    coord_.attach({.tracer = coordStaging_.get(),
                   .decisions = coord_.decisions(),
                   .perf = pm_});
    lanes_.reserve(num_channels);
    for (std::size_t i = 0; i < num_channels; ++i) {
        auto lane = std::make_unique<Lane>();
        lane->q.setHomeDomain(static_cast<DomainId>(1 + i));
        lane->q.routeCrossDomain(true);
        // Lanes run on the workers: they carry their staging tracer
        // only; the ledger and the profiler are coordinator-side.
        lane->staging = staging();
        lane->q.attach({.tracer = lane->staging.get()});
        lanes_.push_back(std::move(lane));
    }
    if (pm_) {
        pm_->resizeShards(shards_);
        slackHist_ = &pm_->histogram("exec.lookahead_slack_ps");
    }
    // Every probe is fixed before the first worker starts, so workers
    // read pm_ without synchronization beyond the thread start.
    workers_.reserve(shards_);
    for (unsigned s = 0; s < shards_; ++s)
        workers_.emplace_back(&ParallelExecutor::workerLoop, this, s);
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        shutdown_ = true;
    }
    cvWork_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

std::vector<EventQueue *>
ParallelExecutor::channelQueues()
{
    std::vector<EventQueue *> qs;
    qs.reserve(lanes_.size());
    for (auto &lane : lanes_)
        qs.push_back(&lane->q);
    return qs;
}

const EventQueue &
ParallelExecutor::channelQueue(std::size_t ch) const
{
    return lanes_[ch]->q;
}

void
ParallelExecutor::bindChannels(MemorySystem &mem)
{
    MEMPOD_ASSERT(mem.numChannels() == lanes_.size(),
                  "executor lanes (%zu) != memory channels (%zu)",
                  lanes_.size(), mem.numChannels());
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        lanes_[i]->chan = &mem.channel(i);
}

void
ParallelExecutor::absorbTraces(Tracer &master)
{
    std::vector<Tracer *> staged;
    if (coordStaging_)
        staged.push_back(coordStaging_.get());
    for (auto &lane : lanes_)
        if (lane->staging)
            staged.push_back(lane->staging.get());
    master.absorb(staged);
}

void
ParallelExecutor::dispatch(std::size_t ch, Request req, ChannelAddr where)
{
    // Called from MemorySystem::access inside a coordinator event (the
    // workers are parked, so the inbox append is single-threaded). The
    // calling event's key positions the enqueue in the lane's merged
    // order; the reserved key replays the counter the serial kernel's
    // inline scheduleTick would have consumed at this very call.
    Lane &lane = *lanes_[ch];
    lane.inbox.push_back(Delivery{coord_.currentKey(), coord_.reserveKey(),
                                  req, where});
}

void
ParallelExecutor::applyDelivery(Lane &lane, Delivery &d)
{
    lane.q.beginApply(d.pos.when, d.reserved);
    lane.chan->enqueue(d.req, d.where);
    lane.q.endApply();
}

void
ParallelExecutor::runLane(Lane &lane, const EventKey &bound)
{
    // Merge the lane's own wheel with its inbox in canonical key
    // order. Inbox entries are already pos-sorted (appended while the
    // coordinator executed in key order), and every pos precedes the
    // window bound by construction.
    for (;;) {
        EventKey qk;
        const bool have_ev = lane.q.peekNextKey(qk);
        if (lane.inboxPos < lane.inbox.size()) {
            const Delivery &d = lane.inbox[lane.inboxPos];
            MEMPOD_ASSERT(d.pos < bound,
                          "inbox delivery beyond the window bound");
            if (!have_ev || d.pos < qk) {
                applyDelivery(lane, lane.inbox[lane.inboxPos]);
                ++lane.inboxPos;
                continue;
            }
        }
        if (!have_ev || !(qk < bound))
            break;
        lane.q.runOne();
    }
    if (lane.inboxPos == lane.inbox.size()) {
        lane.inbox.clear();
        lane.inboxPos = 0;
    }
}

void
ParallelExecutor::workerLoop(unsigned shard)
{
    // Generation-counted barrier: every hand-off of lane state between
    // the coordinator and this worker goes through mu_, so phase
    // transitions are happens-before edges and the lanes themselves
    // need no synchronization. The same applies to the perf lanes:
    // pm_ is fixed before this thread starts and this shard's
    // accumulators are written only with mu_ held, so host profiling
    // adds no new synchronization — and a disabled run pays one
    // pointer test per window.
    std::unique_lock<std::mutex> lk(mu_);
    std::uint64_t seen = 0;
    for (;;) {
        // The first park (seen == 0) waits out the rest of setup, not
        // a window barrier, so it is never counted as stall.
        const bool timed = pm_ && seen != 0;
        const std::uint64_t stall0 = timed ? perfNowNs() : 0;
        cvWork_.wait(lk, [&] { return shutdown_ || gen_ != seen; });
        if (timed)
            pm_->shard(shard).stallNs += perfNowNs() - stall0;
        if (shutdown_)
            return;
        seen = gen_;
        const EventKey bound = bound_;
        lk.unlock();
        const std::uint64_t busy0 = pm_ ? perfNowNs() : 0;
        for (std::size_t i = shard; i < lanes_.size(); i += shards_)
            runLane(*lanes_[i], bound);
        const std::uint64_t busy_ns = pm_ ? perfNowNs() - busy0 : 0;
        lk.lock();
        if (pm_)
            pm_->shard(shard).busyNs += busy_ns;
        if (--pending_ == 0)
            cvDone_.notify_one();
    }
}

void
ParallelExecutor::runPhaseB(const EventKey &bound)
{
    std::unique_lock<std::mutex> lk(mu_);
    bound_ = bound;
    pending_ = shards_;
    ++gen_;
    cvWork_.notify_all();
    cvDone_.wait(lk, [&] { return pending_ == 0; });
    for (auto &lane : lanes_)
        MEMPOD_ASSERT(lane->inboxPos == 0 && lane->inbox.empty(),
                      "inbox not fully consumed by phase B");
}

void
ParallelExecutor::mergeOutboxes(TimePs window_end)
{
    for (auto &lane : lanes_) {
        for (EventQueue::CrossEvent &e : lane->q.outbox()) {
            MEMPOD_ASSERT(e.target == EventQueue::kCoordinatorDomain,
                          "outbox event targets a non-coordinator domain");
            // The horizon invariant: everything a channel sends back is
            // at least one lookahead past the window start, i.e. at or
            // beyond the bound every phase-A event executed under. A
            // violation means the lookahead overstates the true minimum
            // cross-domain latency — panic rather than reorder.
            MEMPOD_ASSERT(
                e.key.when >= window_end,
                "horizon violation: completion at %llu inside window "
                "ending %llu (lookahead %llu ps overstates the minimum "
                "channel->coordinator latency)",
                static_cast<unsigned long long>(e.key.when),
                static_cast<unsigned long long>(window_end),
                static_cast<unsigned long long>(lookahead_));
            if (pm_) {
                // How close the completion came to piercing the
                // horizon; min over the run is the near-miss gauge.
                const std::uint64_t slack = e.key.when - window_end;
                slackHist_->sample(slack);
                if (slack < minSlack_)
                    minSlack_ = slack;
            }
            coord_.admitForeign(EventQueue::kCoordinatorDomain, e.key,
                                std::move(e.cb));
        }
        lane->q.outbox().clear();
    }
}

ParallelExecutor::Step
ParallelExecutor::boundaryStep(TimePs t)
{
    // Sampler instant: the interval sampler reads channel counters
    // from a coordinator event, so every event at exactly `t` must
    // execute in global canonical order on one thread. Deliveries
    // created mid-step (a coordinator event at `t` enqueueing on a
    // channel) are merged at their position like any other event.
    ++samplerSyncs_;
    const EventKey bound{t + 1, 0, 0};
    for (;;) {
        enum class What
        {
            kNone,
            kCoord,
            kLaneEvent,
            kLaneDelivery,
        };
        What what = What::kNone;
        EventKey best{};
        std::size_t bi = 0;
        EventKey k;
        if (coord_.peekNextKey(k) && k < bound) {
            what = What::kCoord;
            best = k;
        }
        for (std::size_t i = 0; i < lanes_.size(); ++i) {
            Lane &lane = *lanes_[i];
            if (lane.inboxPos < lane.inbox.size()) {
                const EventKey &dk = lane.inbox[lane.inboxPos].pos;
                if (dk < bound &&
                    (what == What::kNone || dk < best)) {
                    what = What::kLaneDelivery;
                    best = dk;
                    bi = i;
                }
            }
            if (lane.q.peekNextKey(k) && k < bound &&
                (what == What::kNone || k < best)) {
                what = What::kLaneEvent;
                best = k;
                bi = i;
            }
        }
        if (what == What::kNone)
            break;
        switch (what) {
          case What::kCoord:
            coord_.runOne();
            if (drained_ && drained_()) {
                finished_ = true;
                return Step::kFinished;
            }
            break;
          case What::kLaneEvent:
            lanes_[bi]->q.runOne();
            break;
          case What::kLaneDelivery:
            applyDelivery(*lanes_[bi], lanes_[bi]->inbox[lanes_[bi]->inboxPos]);
            ++lanes_[bi]->inboxPos;
            break;
          case What::kNone:
            break;
        }
    }
    for (auto &lane : lanes_) {
        MEMPOD_ASSERT(lane->inboxPos == lane->inbox.size(),
                      "boundary step left an unapplied delivery");
        lane->inbox.clear();
        lane->inboxPos = 0;
    }
    mergeOutboxes(t + 1);
    ++windows_;
    return Step::kWindow;
}

ParallelExecutor::Step
ParallelExecutor::runWindow()
{
    if (finished_)
        return Step::kFinished;
    if (drained_ && drained_()) {
        finished_ = true;
        return Step::kFinished;
    }

    // Window start: the earliest pending instant anywhere. Inboxes and
    // outboxes are empty between windows, so the queues are the whole
    // picture; idle stretches are skipped in one hop.
    TimePs w = coord_.nextTime();
    for (auto &lane : lanes_)
        w = std::min(w, lane->q.nextTime());
    if (w == kTimeNever)
        return Step::kIdle;

    if (samplePeriod_ > 0 && w > 0 && w % samplePeriod_ == 0) {
        lastWindowStart_ = w;
        lastWindowEnd_ = w + 1;
        return boundaryStep(w);
    }

    // Horizon: one lookahead past the start, clipped so no window ever
    // straddles a sampler instant (those become boundary steps).
    TimePs e = w + lookahead_;
    if (samplePeriod_ > 0)
        e = std::min(e, (w / samplePeriod_ + 1) * samplePeriod_);
    lastWindowStart_ = w;
    lastWindowEnd_ = e;
    const EventKey bound{e, 0, 0};

    // Phase A: coordinator events below the horizon. Every enqueue they
    // issue is deferred into a lane inbox at the calling event's key.
    EventKey k;
    while (coord_.peekNextKey(k) && k < bound) {
        coord_.runOne();
        if (drained_ && drained_()) {
            // The terminating event is always a coordinator event (the
            // predicate can only flip there). Channels still owe the
            // events the serial kernel executed before it: one final
            // pass bounded just past the terminating key settles them.
            // No completion can emerge (drained => nothing in flight)
            // and no delivery can be pending (a pending delivery means
            // in-flight work), so the ledger closes exactly here.
            const EventKey kt = coord_.currentKey();
            runPhaseB(EventKey{kt.when, kt.schedTime, kt.ord + 1});
            finished_ = true;
            ++windows_;
            return Step::kFinished;
        }
    }

    // Phase B: every lane runs its wheel merged with its inbox up to
    // the same bound, on the worker threads.
    runPhaseB(bound);

    // Barrier: completions the lanes produced are all at or beyond the
    // horizon (asserted) and merge into the coordinator's wheel under
    // the canonical comparator.
    mergeOutboxes(e);
    ++windows_;
    return Step::kWindow;
}

std::uint64_t
ParallelExecutor::totalExecuted() const
{
    std::uint64_t n = coord_.executed();
    for (const auto &lane : lanes_)
        n += lane->q.executed();
    return n;
}

std::vector<std::uint64_t>
ParallelExecutor::perDomainExecuted() const
{
    std::vector<std::uint64_t> out;
    out.reserve(1 + lanes_.size());
    out.push_back(coord_.executed());
    for (const auto &lane : lanes_)
        out.push_back(lane->q.executed());
    return out;
}

std::uint64_t
ParallelExecutor::perShardExecuted(unsigned s) const
{
    std::uint64_t n = 0;
    for (std::size_t i = s; i < lanes_.size(); i += shards_)
        n += lanes_[i]->q.executed();
    return n;
}

} // namespace mempod
