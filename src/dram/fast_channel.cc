#include "dram/fast_channel.h"

#include <algorithm>

#include "common/tracer.h"

namespace mempod {

FastChannel::FastChannel(EventQueue &eq, const DramSpec &spec,
                         std::string name, TimePs extra_latency_ps,
                         std::uint64_t *in_flight)
    : MemoryModel(in_flight),
      eq_(eq),
      spec_(spec),
      name_(std::move(name)),
      servicePs_(spec.timing.tRCD + spec.timing.tCL + spec.timing.tBL +
                 extra_latency_ps),
      burstPs_(spec.timing.tBL)
{
}

void
FastChannel::enqueue(Request req, ChannelAddr)
{
    const TimePs now = eq_.now();

    if (req.type == AccessType::kWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    const TimePs issue = std::max(now, busFreeAt_);
    busFreeAt_ = issue + burstPs_;
    const TimePs finish = issue + servicePs_;
    stats_.busBusyPs += burstPs_;

    if (req.kind == Request::Kind::kDemand) {
        stats_.demandQueueWaitPs +=
            static_cast<std::uint64_t>(issue - now);
        stats_.demandServicePs +=
            static_cast<std::uint64_t>(finish - issue);
    }

    ++stats_.queuedNow;
    stats_.maxQueueDepth =
        std::max(stats_.maxQueueDepth, stats_.queuedNow);

    if (req.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(name_);
            const std::uint64_t id = req.traceId;
            tr->asyncBegin(tid, now, "req", id, "queue");
            tr->asyncEnd(tid, issue, "req", id, "queue");
            TraceArgs a;
            a.add("write",
                  req.type == AccessType::kWrite ? 1u : 0u);
            tr->asyncBegin(tid, issue, "req", id, "service", a.str());
            tr->asyncEnd(tid, finish, "req", id, "service");
        }
    }

    const std::uint32_t slot = slots_.acquire(req.done);

    // Completions cross back to the coordinator domain; the delta is
    // at least servicePs_, which dominates the executor's lookahead.
    eq_.scheduleIn(EventQueue::kCoordinatorDomain, finish,
                   [this, slot, finish] {
        const Completion done = slots_[slot];
        // Release before completing: the owner may enqueue a new
        // request that reuses (or grows past) this slot.
        slots_.release(slot);
        --stats_.queuedNow;
        complete(done, finish);
    });
}

ChannelTelemetry
FastChannel::telemetry() const
{
    ChannelTelemetry v;
    v.name = name_;
    v.stats = &stats_;
    v.numBanks = 0; // no bank state, no per-bank counters
    return v;
}

} // namespace mempod
