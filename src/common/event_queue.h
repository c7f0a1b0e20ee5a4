/**
 * @file
 * Discrete-event scheduler driving the whole simulation.
 *
 * Every active component (channel controllers, interval timers, the
 * trace frontend, migration engines) schedules callbacks on a single
 * global queue; components that are idle schedule nothing, so
 * simulated idle time costs no host time.
 *
 * For sharded runs (sim.shards > 0) the same class doubles as a
 * per-domain queue: each DRAM channel owns one EventQueue and the
 * coordinator (frontend + managers) owns another, and the conservative
 * PDES executor in sim/parallel.{h,cc} stitches them together. The
 * canonical event order below is what makes the sharded run
 * byte-identical to the serial one.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/callback.h"
#include "common/types.h"

namespace mempod {

class DecisionLog;
class PerfMonitor;
class Tracer;

/**
 * The run's observation probes, non-owning and all null by default.
 * Simulation's constructor attaches one bundle to its queue before it
 * builds any component; the sharded executor's constructor swaps in
 * per-domain staging tracers for the coordinator and each lane.
 * Nothing else attaches. Components read a probe through the queue
 * they already hold, so a disabled probe costs one pointer test.
 */
struct Probes
{
    Tracer *tracer = nullptr;
    DecisionLog *decisions = nullptr;
    PerfMonitor *perf = nullptr;
};

/** Execution domain: 0 is the coordinator, 1+i is DRAM channel i. */
using DomainId = std::uint32_t;

/**
 * Canonical total order over events, shared by the serial kernel and
 * the sharded executor:
 *
 *   (when, schedTime, schedDomain, schedCounter)
 *
 * `when` is the event's due time; `schedTime` is the simulated time of
 * the schedule() call; `schedDomain` is the domain whose code made the
 * call and `schedCounter` is that domain's monotone call counter. The
 * last two are packed into `ord` (domain in the high bits), so the
 * comparison is (when, schedTime, ord). The key is a deterministic
 * function of the simulated history alone — it does not depend on how
 * domains are partitioned across threads — which is what lets any
 * shard count reproduce the serial event order exactly. Including
 * schedTime makes the order coincide with the legacy global-sequence
 * FIFO tie-break whenever the scheduling calls happened at different
 * instants, i.e. almost always.
 */
struct EventKey
{
    TimePs when = 0;
    TimePs schedTime = 0;
    std::uint64_t ord = 0; //!< schedDomain << kCounterBits | counter

    friend bool
    operator<(const EventKey &a, const EventKey &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.schedTime != b.schedTime)
            return a.schedTime < b.schedTime;
        return a.ord < b.ord;
    }
    friend bool
    operator==(const EventKey &a, const EventKey &b)
    {
        return a.when == b.when && a.schedTime == b.schedTime &&
               a.ord == b.ord;
    }
};

/**
 * Timing-wheel discrete-event queue: one wheel plus a far-event heap.
 *
 * Events are bucketed by arrival tick (kTickPs = 256 ps, finer than
 * any DRAM clock in the model) into a wheel of kSlots slots that spans
 * kSlots ticks (~65 ns) from the cursor. Almost every event the model
 * schedules is due inside that horizon; the rest (interval timers,
 * HMA epochs, long migrations) wait in one min-heap ordered by the
 * canonical key. One invariant ties the two together: every far event
 * is due at least kSlots ticks past the cursor, so any occupied slot
 * precedes the whole heap. Peeks (nextTime(), peekNextKey()) never
 * move the cursor; only claiming the next slot does, and a claim first
 * pulls every far event that is now inside the horizon into its slot.
 * Slot vectors keep their capacity, so steady-state scheduling
 * performs no allocation.
 *
 * Ordering guarantee: events execute in ascending EventKey order (see
 * above). For a single scheduling domain this is exactly the legacy
 * (when, global seq) order; across domains the key is partition-
 * independent, so the sharded executor reproduces it bit for bit.
 */
class EventQueue
{
  public:
    /**
     * A buffer sized for the largest hot-path capture (a channel
     * completion: this + slab slot + timestamp = 24 bytes); a bigger
     * or non-trivially-copyable capture does not compile. Kept tight
     * on purpose: slot sorts, drains and far-heap moves copy whole
     * Events, so with the three 8-byte key fields the Event is exactly
     * one cache line.
     */
    using Callback = MoveFunction<void(), 24>;

    /** Wheel geometry: kSlots (a power of two) ticks of 256 ps. */
    static constexpr unsigned kTickShift = 8;
    static constexpr TimePs kTickPs = TimePs{1} << kTickShift;
    static constexpr std::size_t kSlots = 256;

    /** Key packing: 40-bit per-domain counter, 12-bit domain ids. */
    static constexpr unsigned kCounterBits = 40;
    static constexpr unsigned kDomainBits = 12;
    static constexpr std::uint64_t kOrderMask =
        (std::uint64_t{1} << (kCounterBits + kDomainBits)) - 1;
    static constexpr DomainId kCoordinatorDomain = 0;

    EventQueue() = default;
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (time of the event being executed). */
    TimePs now() const { return now_; }

    /**
     * Schedule `cb` at absolute time `when` in this queue's home
     * domain. Scheduling in the past is a simulator bug (panics).
     * Events at the same timestamp run in canonical key order, which
     * for one domain is stable FIFO scheduling order.
     */
    void
    schedule(TimePs when, Callback cb)
    {
        scheduleIn(homeDomain_, when, std::move(cb));
    }

    /** Schedule `cb` `delta` picoseconds from now. */
    void scheduleAfter(TimePs delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /**
     * Schedule `cb` to execute in domain `target`. On the serial
     * single-queue kernel every domain is local; on a sharded
     * per-domain queue a non-home target (only the coordinator is
     * legal) is staged in the cross-domain outbox for the executor to
     * merge at the next horizon barrier.
     */
    void scheduleIn(DomainId target, TimePs when, Callback cb);

    /** Whether any events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event, or kTimeNever. */
    TimePs nextTime() const;

    /** Execute the earliest event. Returns false if the queue is empty. */
    bool runOne();

    /** Run until the queue is empty or `limit` events have executed. */
    std::uint64_t runAll(std::uint64_t limit = ~std::uint64_t{0});

    /** Run all events with time <= `until`. */
    void runUntil(TimePs until);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * High-water mark of pending events, for the host profiler. A pure
     * function of the simulated schedule, so enabling perf cannot
     * change it.
     */
    std::size_t peakPending() const { return peakPending_; }

    /** Attach the run's probes; see Probes for who calls this. */
    void attach(const Probes &probes) { probes_ = probes; }

    /**
     * The event tracer, or nullptr when tracing is off. On a sharded
     * run each domain's queue carries its own staging tracer.
     */
    Tracer *tracer() const { return probes_.tracer; }

    /**
     * The migration decision ledger, or nullptr when it is disabled,
     * so the pointer doubles as the enable flag on the hot path.
     * Mechanisms record every candidate selection, its tracker state
     * and outcome, plus per-demand near-tier touches for
     * realized-benefit accounting. Coordinator-only: lane queues of a
     * sharded run never carry it.
     */
    DecisionLog *decisions() const { return probes_.decisions; }

    /**
     * The host profiler, or nullptr when profiling is off. Host time
     * flows out only, so reading it can never perturb event order.
     * Coordinator-only, like the ledger.
     */
    PerfMonitor *perf() const { return probes_.perf; }

    // ------------------------------------------------------------------
    // Sharded-executor surface (sim/parallel.{h,cc}). The serial
    // simulation never calls anything below; the methods exist so the
    // executor can reproduce the canonical order across queues.
    // ------------------------------------------------------------------

    /**
     * The domain this queue's events belong to by default. The serial
     * kernel keeps the default 0 and hosts every domain; a sharded
     * per-channel queue is set to its channel's domain.
     */
    void
    setHomeDomain(DomainId d)
    {
        homeDomain_ = d;
        ctxDomain_ = d;
    }
    DomainId homeDomain() const { return homeDomain_; }

    /** Cross-domain event staged by scheduleIn on a sharded queue. */
    struct CrossEvent
    {
        DomainId target;
        EventKey key; //!< key.when is the event's due time
        Callback cb;
    };

    /**
     * When enabled, scheduleIn to a non-home domain appends to the
     * outbox instead of placing locally. Only per-domain queues under
     * the executor enable this.
     */
    void routeCrossDomain(bool on) { routeCross_ = on; }
    std::vector<CrossEvent> &outbox() { return outbox_; }

    /**
     * Insert an event carried over from another queue's outbox,
     * preserving the key it was assigned at its original schedule
     * call. The canonical comparator makes insertion order irrelevant.
     */
    void admitForeign(DomainId exec, EventKey key, Callback cb);

    /**
     * Consume the next scheduling key for the current context without
     * scheduling anything. The executor reserves the key a deferred
     * cross-domain enqueue *would* have consumed, so per-domain
     * counters stay order-isomorphic with the serial run (gaps from
     * reservations that end up unused are harmless: only the relative
     * order of assigned keys matters).
     */
    EventKey reserveKey();

    /** Key of the event currently executing (valid inside runOne). */
    const EventKey &currentKey() const { return currentKey_; }

    /**
     * Bracket a deferred cross-domain hand-off (an inbox delivery):
     * advances now_ to key.when and primes `key` as the override for
     * the hand-off's first schedule call, so that call lands on the
     * exact key the serial run assigned it. Not an executed event.
     */
    void beginApply(TimePs when, EventKey key);
    void endApply();

    /**
     * Canonical key of the earliest pending event. Returns false when
     * empty.
     */
    bool peekNextKey(EventKey &out) const;

  private:
    struct Event
    {
        TimePs when;
        TimePs schedTime; //!< simulated time of the schedule call
        /** execDomain << 52 | schedDomain << 40 | counter. */
        std::uint64_t ord;
        Callback cb;
    };
    // Slot pushes, sorts, heap moves and pops relocate plain bytes.
    static_assert(std::is_trivially_copyable_v<Event>);
    using EventList = std::vector<Event>;

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.schedTime != b.schedTime)
            return a.schedTime < b.schedTime;
        return (a.ord & kOrderMask) < (b.ord & kOrderMask);
    }

    static std::uint64_t
    packOrd(DomainId exec, std::uint64_t masked_ord)
    {
        return (static_cast<std::uint64_t>(exec)
                << (kCounterBits + kDomainBits)) |
               masked_ord;
    }

    /** Next (schedDomain, counter) word for the executing context. */
    std::uint64_t nextOrd();
    void dispatch(Event &ev);

    void place(Event &&ev);
    void appendToSlot(Event &&ev);
    const Event *peek() const;
    bool nextTick(std::uint64_t &out_tick) const;
    void claim(std::uint64_t tick);
    bool popNext(Event &out);

    /**
     * Slot (tick mod kSlots) holds the events due in that tick; every
     * slot event is due within kSlots ticks of the cursor.
     */
    EventList slots_[kSlots];
    /** One bit per slot; scanned circularly from the cursor. */
    std::uint64_t occupied_[kSlots / 64] = {};
    /** Min-heap by canonical key; due >= kSlots ticks past the cursor. */
    EventList far_;
    /**
     * The claimed slot being executed, key-sorted from drainPos_ on;
     * its tick is the cursor. Null between claims.
     */
    EventList *drain_ = nullptr;
    std::size_t drainPos_ = 0;
    /** Tick of the last claimed slot; never past now_'s tick. */
    std::uint64_t cursorTick_ = 0;

    Probes probes_;
    TimePs now_ = 0;
    /** Per-domain schedule-call counters, indexed by DomainId. */
    std::vector<std::uint64_t> counters_;
    DomainId homeDomain_ = kCoordinatorDomain;
    DomainId ctxDomain_ = kCoordinatorDomain;
    EventKey currentKey_{};
    EventKey overrideKey_{};
    bool haveOverride_ = false;
    bool routeCross_ = false;
    std::vector<CrossEvent> outbox_;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;
    std::size_t peakPending_ = 0;
};

/**
 * Fixed-period repeating timer for interval mechanisms (MemPod/HMA
 * epochs, the stats sampler). Fires `fn` every `period` after
 * start(), re-arming *after* the callback returns — the same
 * callback-then-re-arm order the mechanisms used to hand-roll with
 * recursive lambdas, so event keys (and therefore golden output) are
 * unchanged.
 */
class PeriodicTimer
{
  public:
    PeriodicTimer(EventQueue &eq, TimePs period, std::function<void()> fn)
        : eq_(eq), period_(period), fn_(std::move(fn))
    {
    }

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Arm the timer: first fire at now + period, then every period. */
    void start() { arm(); }

    TimePs period() const { return period_; }

  private:
    void
    arm()
    {
        eq_.scheduleAfter(period_, [this] {
            fn_();
            arm();
        });
    }

    EventQueue &eq_;
    TimePs period_;
    std::function<void()> fn_;
};

} // namespace mempod
