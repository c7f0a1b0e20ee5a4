#include "dram/memory_model.h"

#include "common/tracer.h"
#include "dram/functional_model.h"

namespace mempod {

const char *
dramModelName(DramModel m)
{
    switch (m) {
      case DramModel::kDetailed:
        return "detailed";
      case DramModel::kFast:
        return "fast";
    }
    return "detailed";
}

bool
dramModelFromName(const std::string &name, DramModel &out)
{
    if (name == "detailed") {
        out = DramModel::kDetailed;
        return true;
    }
    if (name == "fast") {
        out = DramModel::kFast;
        return true;
    }
    return false;
}

void
FunctionalModel::enqueue(Request req, ChannelAddr)
{
    const TimePs now = eq_.now();

    if (req.type == AccessType::kWrite)
        ++stats_.writes;
    else
        ++stats_.reads;

    if (req.traceId != 0) {
        // Zero-length service span: the sampled request keeps its
        // per-channel trace presence across fidelity modes.
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(name_);
            tr->asyncBegin(tid, now, "req", req.traceId, "service");
            tr->asyncEnd(tid, now, "req", req.traceId, "service");
        }
    }

    // Synchronous completion at the current time.
    complete(req.done, now);
}

ChannelTelemetry
FunctionalModel::telemetry() const
{
    ChannelTelemetry v;
    v.name = name_;
    v.stats = &stats_;
    v.numBanks = 0;
    return v;
}

} // namespace mempod
