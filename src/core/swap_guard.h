/**
 * @file
 * The swap lifecycle every migration mechanism shares (Section 4.3):
 * a demand that touches a page, segment or line group whose swap has
 * started waits until the remap commits, then continues in arrival
 * order. One SwapGuard per mechanism instance (a MemPod Pod, HMA, THM,
 * CAMEO) owns the whole protocol:
 *
 *  - reserve a swap's keys when it is scheduled (candidate exclusion);
 *  - lock them when the engine starts moving data;
 *  - park demands that reach a locked key ("blocked" trace span,
 *    blocked_requests / blocked_ps accounting);
 *  - at commit or abort, close the decision-ledger entry and the
 *    migration trace flow, charge migrations / bytes_moved, release
 *    the keys and resume the parked demands.
 *
 * A mechanism supplies only its policy: which keys a swap covers, what
 * a commit does to its remap state (Swap::apply), and how a released
 * demand continues (the ResumeFn).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/callback.h"
#include "common/decision_log.h"
#include "common/event_queue.h"
#include "common/flat_map.h"
#include "core/migration_engine.h"
#include "mem/manager.h"
#include "mem/request.h"

namespace mempod {

/** Reserve/lock/park/commit bookkeeping for one mechanism instance. */
class SwapGuard final : private SwapOwner
{
  public:
    /**
     * Continues a demand released from `key` after its swap committed
     * (or aborted). It may re-enter the guard: a released demand can
     * schedule, start and re-park behind a new swap on the same key.
     */
    using ResumeFn = MoveFunction<void(std::uint64_t key, Demand d), 16>;

    /** The remap-state update a commit performs. */
    using ApplyFn = MoveFunction<void(), 32>;

    /** Marks a single-key swap (THM segments, CAMEO groups). */
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    /** One swap as the mechanism's policy describes it. */
    struct Swap
    {
        std::uint64_t keyA;          //!< first reserved/locked key
        std::uint64_t keyB = kNoKey; //!< second key, if the swap has one
        /** Decision-ledger record: the promoted page and its victim. */
        std::uint64_t page = 0;
        std::uint64_t victim = 0;
        std::uint32_t count = 0; //!< tracker count at decision time
        /** Trace trigger instant and its two numeric args. */
        const char *trigger = "";
        const char *argA = "";
        std::uint64_t valA = 0;
        const char *argB = "";
        std::uint64_t valB = 0;
        /** The data movement: physical bases and lines per side. */
        Addr locA = 0;
        Addr locB = 0;
        std::uint32_t lines = 0;
        ApplyFn apply;
    };

    /**
     * @param track Tracer track of the mechanism ("pod3", "hma", ...),
     *        interned on first use.
     * @param key_arg Arg name of the key on "blocked" spans.
     * @param pod Ledger pod id (DecisionLog::kNoPod when unclustered).
     */
    SwapGuard(EventQueue &eq, MigrationEngine &engine,
              MigrationStats &stats, std::string track,
              const char *key_arg, std::uint32_t pod, ResumeFn resume);

    /**
     * Reserve the swap's keys, record the decision, open its trace
     * flow and submit it to the engine. Each key must be free.
     */
    void schedule(Swap s);

    /** Whether `key` belongs to a scheduled or active swap. */
    bool reserved(std::uint64_t key) const { return keys_.contains(key); }

    /**
     * If `key`'s swap has started, park a copy of `d` until the swap
     * ends and return true; otherwise do nothing.
     * A key that is only reserved does not park: a queued swap's data
     * is still serviceable at its old location.
     */
    bool
    park(std::uint64_t key, const Demand &d)
    {
        Entry *e = keys_.find(key);
        if (!e || !e->locked)
            return false;
        parkOn(*e, key, d);
        return true;
    }

    /** Demands currently parked behind a swap. */
    std::uint64_t parkedCount() const { return parked_; }

  private:
    /** State of one reserved key; the swap's own data on its keyA. */
    struct Entry
    {
        bool locked = false;
        std::vector<Demand> parked;
        std::uint64_t partner = kNoKey; //!< keyB of the swap (on keyA)
        std::uint64_t flow = 0;         //!< trace flow id, 0 = untraced
        std::uint64_t decision = DecisionLog::kNoId;
        std::uint32_t lines = 0;
        ApplyFn apply;
    };

    /** Claim a free key. Moves other entries (see flat_map.h). */
    void reserve(std::uint64_t key);
    void parkOn(Entry &e, std::uint64_t key, const Demand &d);
    /** Lock the keys of the swap whose first key is `key`. */
    void start(std::uint64_t key) override;
    /** Commit (`committed`) or abort the swap whose first key is `key`. */
    void finish(std::uint64_t key, bool committed) override;
    /** Free `key` and resume its parked demands in arrival order. */
    void release(std::uint64_t key);

    EventQueue &eq_;
    MigrationEngine &engine_;
    MigrationStats &stats_;
    std::string track_;
    const char *keyArg_;
    std::uint32_t pod_;
    ResumeFn resume_;
    FlatMap<Entry> keys_;
    std::uint64_t parked_ = 0;
};

} // namespace mempod
