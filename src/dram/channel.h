/**
 * @file
 * A cycle-level DRAM channel controller: per-bank open-page state,
 * FR-FCFS scheduling with read priority and write-drain watermarks,
 * rank activation windows (tRRD/tFAW), data-bus contention, bus
 * turnaround penalties and periodic refresh.
 *
 * The controller is event-driven: it schedules itself on the global
 * EventQueue only while it has work, and when blocked purely on timing
 * it sleeps until the earliest constraint expires, so simulated idle
 * memory is free.
 *
 * Requests live in per-bank intrusive FIFO lists (plus one global age
 * list per read/write queue), with cached oldest-hit/oldest-conflict
 * entries per bank. Arbitration is one scan per queue over the
 * banks with work (a ready-bank bitmask): it reads each such bank
 * once and yields both the FR-FCFS candidates (oldest ready row hit,
 * then oldest ready activate, then oldest conflicting precharge) and
 * the earliest time any of the queue's commands could issue, which
 * is where the controller sleeps when it issues nothing.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/divisor.h"
#include "common/event_queue.h"
#include "common/slab.h"
#include "common/types.h"
#include "dram/bank.h"
#include "dram/memory_model.h"
#include "dram/spec.h"
#include "dram/telemetry.h"
#include "mem/request.h"

namespace mempod {

/** Controller policy knobs (defaults match the paper's setup). */
struct ControllerPolicy
{
    /**
     * Row-buffer management: open-page leaves rows latched for
     * spatial locality; closed-page auto-precharges once no queued
     * request still targets the open row.
     */
    bool closedPage = false;
    /**
     * Scheduling: FR-FCFS (default) reorders for row hits; plain FCFS
     * serves strictly oldest-first within each queue.
     */
    bool fcfs = false;
};

/** One memory channel and its controller (the detailed model). */
class Channel final : public MemoryModel
{
  public:
    using Stats = ChannelStats;

    /**
     * @param eq Global event queue.
     * @param spec Device description (timing + organization).
     * @param name For diagnostics ("hbm0", "ddr2", ...).
     * @param extra_latency_ps Fixed interconnect latency added to every
     *        completion (LLC-to-MC traversal both ways).
     * @param domain Execution domain of this controller's tick events.
     *        Completion events always target the coordinator domain;
     *        everything else the controller schedules stays local. The
     *        default keeps standalone (single-queue) use unchanged.
     * @param in_flight The memory system's in-flight line count. A
     *        standalone channel (nullptr) schedules no completion for
     *        a request nobody waits on.
     */
    Channel(EventQueue &eq, const DramSpec &spec, std::string name,
            TimePs extra_latency_ps = 5000,
            ControllerPolicy policy = {},
            DomainId domain = EventQueue::kCoordinatorDomain,
            std::uint64_t *in_flight = nullptr);

    /** Queue one line transfer. The controller wakes itself up. */
    void enqueue(Request req, ChannelAddr where) override;

    /**
     * Fidelity switch-in: re-phase the refresh clock past `now`,
     * forgiving intervals that elapsed while another model carried
     * the traffic (the real device refreshed on schedule meanwhile).
     * Skipped cycles still count as refreshes so the rate stays
     * physical. Without this, every measurement window would open
     * with ~window/tREFI back-to-back catch-up refreshes.
     */
    void resumeAt(TimePs now) override;

    /** True when no request is queued (in-flight data may remain). */
    bool idle() const { return stats_.queuedNow == 0; }

    const Stats &stats() const override { return stats_; }
    const DramSpec &spec() const override { return spec_; }
    const std::string &name() const override { return name_; }

    /** Fraction of CAS commands that were row-buffer hits. */
    double rowHitRate() const { return channelRowHitRate(stats_); }

    /** Fraction of simulated time the data bus carried a burst. */
    double
    busUtilization() const
    {
        return channelBusUtilization(stats_, eq_.now());
    }

    /**
     * The read-only observer view of this controller: stable pointers
     * to the aggregate counters and the per-bank SoA counter arrays.
     * The MemorySystem registers this once; src/common observers
     * never touch Channel internals.
     */
    ChannelTelemetry telemetry() const override;

    /** FR-FCFS arbiter mechanics for the host profiler. */
    using HostStats = ChannelHostStats;

    const HostStats &hostStats() const override { return hostStats_; }

  private:
    /** Sentinel index for intrusive lists and completion slots. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * One queued line transfer. Deliberately NOT the whole Request:
     * only the fields the arbiter reads live here; the completion
     * handle is parked in the slab under cbSlot. Entries are slab
     * slots threaded onto two intrusive lists: the per-queue age list
     * (prevG/nextG, FIFO by seq) and the per-bank FIFO (prevB/nextB).
     * Padded to one cache line so neighbouring slots never share one.
     */
    struct alignas(64) Entry
    {
        ChannelAddr at;
        TimePs enqueuedAt = 0;
        std::uint64_t seq = 0;     //!< global arrival order
        std::uint64_t traceId = 0; //!< sampled-demand span id
        std::uint32_t prevG = kNil, nextG = kNil; //!< age list
        std::uint32_t prevB = kNil, nextB = kNil; //!< bank FIFO
        std::uint32_t cbSlot = kNil; //!< completionSlots_ index
        Request::Kind kind = Request::Kind::kDemand;
        bool causedAct = false; //!< an ACT was issued on its behalf
    };

    /** Per-bank FIFO plus cached oldest hit/conflict entries. */
    struct BankList
    {
        std::uint32_t head = kNil, tail = kNil;
        /** Oldest entry targeting the bank's open row (open only). */
        std::uint32_t oldestHit = kNil;
        /** Oldest entry conflicting with the open row (open only). */
        std::uint32_t oldestMiss = kNil;
    };

    /** One scheduling queue (reads or writes). */
    struct Queue
    {
        std::uint32_t head = kNil, tail = kNil; //!< global age list
        std::size_t size = 0;
        std::vector<BankList> banks;
        /** Ready-bank index: bit b set iff banks[b] is non-empty. */
        std::vector<std::uint64_t> workWords;
        /** Set bits in workWords: banks with queued work. */
        std::uint64_t workBanks = 0;
    };

    /** What one pass over a queue's work banks found at `now`. */
    struct Scan
    {
        std::uint32_t hit = kNil; //!< oldest ready row hit (CAS)
        std::uint32_t act = kNil; //!< oldest ready entry at a closed bank
        /** Oldest ready conflict whose open row has no pending hit. */
        std::uint32_t pre = kNil;
        /**
         * Earliest time any entry's next command could issue, ignoring
         * the pending-hit filter on precharges; kTimeNever when empty.
         */
        TimePs wake = kTimeNever;
    };

    void tick();
    /**
     * Arm a tick at `when`, a clock edge. A time in the past, or any
     * time under off-clock timings, rounds up to the next edge.
     */
    void scheduleTick(TimePs when);
    void performRefresh();

    /**
     * Issue one command if possible; returns true if one was issued.
     * Otherwise lowers `wake` to the queues' earliest wake-up term.
     */
    bool tryIssue(TimePs &wake);

    /** Attempt to issue for queue `q`; CAS/ACT/PRE per FR-FCFS. */
    bool tryIssueFrom(Queue &q, bool is_write_queue, TimePs &wake);

    /** Anti-starvation and FCFS: arbitrate `q`'s oldest entry only. */
    bool tryIssueFront(Queue &q, bool is_write_queue);

    /** Read each bank with work in `q` once; see Scan. */
    Scan scan(const Queue &q, bool is_write_queue) const;

    /**
     * When to tick after issuing nothing: `wake` (a min of Scan::wake
     * terms) at least one cycle out, or the next refresh when no
     * queued entry has a command to wait for.
     */
    TimePs wakeUpAt(TimePs wake) const;

    /** ACT for entry `idx` at its bank, at the current time. */
    void issueAct(std::uint32_t idx);

    /** PRE at bank `b` at the current time (a counted precharge). */
    void issuePre(std::uint32_t b);

    /** Complete entry `idx` of `q` with a CAS at the current time. */
    void issueCas(Queue &q, std::uint32_t idx, bool is_write_queue);

    /** True if some queued entry targets bank `b`'s open row. */
    bool
    openRowHasPendingHit(std::uint32_t b) const
    {
        return readQ_.banks[b].oldestHit != kNil ||
               writeQ_.banks[b].oldestHit != kNil;
    }

    /** Append slab entry `idx` to `q`'s age and bank lists. */
    void pushEntry(Queue &q, std::uint32_t idx);

    /** Unlink slab entry `idx` from `q`, fixing the bank caches. */
    void removeEntry(Queue &q, std::uint32_t idx);

    /** Recompute one bank's hit/conflict caches after a row change. */
    void refreshBankCaches(Queue &q, std::uint32_t b);

    /** Invoke `f(bank)` for each bank with queued work, ascending. */
    template <typename F>
    void
    forEachWorkBank(const Queue &q, F &&f) const
    {
        for (std::size_t w = 0; w < q.workWords.size(); ++w) {
            std::uint64_t bits = q.workWords[w];
            while (bits != 0) {
                const int bit = std::countr_zero(bits);
                bits &= bits - 1;
                f(static_cast<std::uint32_t>(w * 64 + bit));
            }
        }
    }

    /** The first clock edge at or after `t`. */
    TimePs
    alignUp(TimePs t) const
    {
        return clock_.div(t + clock_.value() - 1) * clock_.value();
    }

    EventQueue &eq_;
    DramSpec spec_;
    CommandTimingTable tbl_; //!< precomputed from spec_.timing
    Divisor clock_;          //!< spec_.timing.clockPeriodPs
    std::string name_;
    TimePs extraLatencyPs_;
    ControllerPolicy policy_;
    DomainId domain_;

    /**
     * Parking slab for completion handles from enqueue until the data
     * burst completes: queue Entries and the scheduled completion
     * event carry only a slot index, which keeps the Entry in one
     * cache line and the event capture within the queue's inline
     * buffer.
     */
    Slab<Completion> completionSlots_;

    Slab<Entry> entries_; //!< indices are the intrusive-list links

    BankStateArray banks_;
    std::vector<bool> autoPrePending_; //!< closed-page policy state
    Queue readQ_;
    Queue writeQ_;
    std::uint64_t nextSeq_ = 0;

    TimePs busFreeAt_ = 0;
    TimePs nextRdCasAt_ = 0;
    TimePs nextWrCasAt_ = 0;
    TimePs nextRefreshAt_ = 0;
    TimePs scheduledTickAt_ = kTimeNever;
    bool draining_ = false;
    /**
     * Every timing is a whole number of clocks (true of every preset),
     * so each time the controller derives from a tick is a clock
     * edge. A config with off-clock picosecond timings rounds each
     * wake-up up to the next edge instead.
     */
    bool onClock_ = true;

    /** Write-drain watermarks. */
    static constexpr std::size_t kDrainHigh = 16;
    static constexpr std::size_t kDrainLow = 4;
    /** Anti-starvation: oldest-first overrides row hits past this age. */
    static constexpr TimePs kStarvationAgePs = 2'000'000; // 2 us

    Stats stats_;
    HostStats hostStats_;
};

} // namespace mempod
