#include "core/migration_engine.h"

#include "common/log.h"
#include "common/tracer.h"

namespace mempod {

MigrationEngine::MigrationEngine(EventQueue &eq, MemorySystem &mem,
                                 std::uint32_t max_in_flight_ops,
                                 std::string trace_track)
    : eq_(eq),
      mem_(mem),
      maxInFlight_(max_in_flight_ops),
      traceTrack_(std::move(trace_track))
{
    MEMPOD_ASSERT(max_in_flight_ops >= 1, "engine needs one op slot");
}

void
MigrationEngine::registerMetrics(MetricRegistry &reg,
                                 const std::string &prefix) const
{
    reg.attachCounter(prefix + ".ops_committed",
                      "swap operations fully committed",
                      &stats_.opsCommitted);
    reg.attachCounter(prefix + ".ops_dropped",
                      "queued swaps dropped before starting",
                      &stats_.opsDropped);
    reg.attachCounter(prefix + ".lines_moved",
                      "line transfers issued for migrations",
                      &stats_.linesMoved);
    reg.attachCounter(prefix + ".bytes_moved",
                      "migration bytes moved by this engine",
                      &stats_.bytesMoved);
    reg.addGauge(prefix + ".queued_ops",
                 "swaps waiting for an engine slot",
                 [this] { return static_cast<double>(queue_.size()); });
    reg.addGauge(prefix + ".active_ops", "swaps currently moving data",
                 [this] { return static_cast<double>(active_); });
}

void
MigrationEngine::submit(SwapOp op)
{
    MEMPOD_ASSERT(op.lines > 0, "empty swap");
    MEMPOD_ASSERT(op.owner != nullptr, "swap without an owner");
    queue_.push_back(op);
    tryStart();
}

void
MigrationEngine::clearQueued()
{
    stats_.opsDropped += queue_.size();
    // Dropped candidates must release any blocked state *without*
    // committing the remap update (no data actually moved).
    for (const SwapOp &op : queue_)
        op.owner->finish(op.key, false);
    queue_.clear();
}

void
MigrationEngine::tryStart()
{
    while (active_ < maxInFlight_ && !queue_.empty()) {
        const SwapOp op = queue_.front();
        queue_.pop_front();
        ++active_;
        run(op);
    }
}

void
MigrationEngine::run(SwapOp op)
{
    op.owner->start(op.key);
    // Swap spans are async (b/e): engines with parallelism > 1 (CAMEO)
    // interleave ops on one track, which B/E nesting cannot express.
    if (op.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(traceTrack_);
            TraceArgs a;
            a.add("lines", op.lines * 2);
            tr->flowStep(tid, eq_.now(), "mig", op.traceId, "migration");
            tr->asyncBegin(tid, eq_.now(), "mig", op.traceId, "swap",
                           a.str());
            tr->asyncBegin(tid, eq_.now(), "mig", op.traceId,
                           "read_phase");
        }
    }
    // Phase 1: read both candidates into the swap buffer; phase 2:
    // write both back to their exchanged locations; then commit.
    issuePhase(ops_.acquire(OpState{op, 2 * op.lines}));
}

void
MigrationEngine::issuePhase(std::uint32_t ref)
{
    // Copy what the loop reads: over a synchronous memory model the
    // last line completes inside access() and may finish the op (and
    // start another that grows ops_) before the loop exits.
    const OpState &st = ops_[ref];
    const Addr bases[2] = {st.op.locA, st.op.locB};
    const std::uint32_t lines = st.op.lines;
    const AccessType type =
        st.writing ? AccessType::kWrite : AccessType::kRead;
    for (std::uint32_t i = 0; i < lines; ++i) {
        for (const Addr base : bases) {
            Request r;
            r.addr = base + i * kLineBytes;
            r.type = type;
            r.kind = Request::Kind::kMigration;
            r.arrival = eq_.now();
            r.done = {this, ref};
            mem_.access(r);
        }
    }
}

void
MigrationEngine::complete(std::uint32_t ref, TimePs)
{
    OpState &st = ops_[ref];
    MEMPOD_ASSERT(st.linesLeft > 0, "migration line underflow");
    if (--st.linesLeft != 0)
        return;
    if (st.writing) {
        finish(ref);
        return;
    }
    if (st.op.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(traceTrack_);
            tr->asyncEnd(tid, eq_.now(), "mig", st.op.traceId,
                         "read_phase");
            tr->asyncBegin(tid, eq_.now(), "mig", st.op.traceId,
                           "write_phase");
        }
    }
    st.writing = true;
    st.linesLeft = 2 * st.op.lines;
    issuePhase(ref);
}

void
MigrationEngine::finish(std::uint32_t ref)
{
    OpState &st = ops_[ref];
    stats_.linesMoved += 2ull * st.op.lines;
    stats_.bytesMoved += 2ull * st.op.lines * kLineBytes;
    ++stats_.opsCommitted;
    if (st.op.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(traceTrack_);
            tr->asyncEnd(tid, eq_.now(), "mig", st.op.traceId,
                         "write_phase");
            tr->asyncEnd(tid, eq_.now(), "mig", st.op.traceId, "swap");
        }
    }
    // Free the slot before committing: the commit may start new ops,
    // which can reuse it or grow ops_ under `st`.
    const SwapOp op = st.op;
    ops_.release(ref);
    op.owner->finish(op.key, true);
    MEMPOD_ASSERT(active_ > 0, "engine slot underflow");
    --active_;
    tryStart();
}

} // namespace mempod
