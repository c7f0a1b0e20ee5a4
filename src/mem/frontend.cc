#include "mem/frontend.h"

#include <algorithm>

#include "common/log.h"

namespace mempod {

TraceFrontend::TraceFrontend(EventQueue &eq, MemoryManager &manager,
                             const LogicalToPhysical &placement,
                             std::uint32_t max_outstanding)
    : eq_(eq),
      manager_(manager),
      placement_(placement),
      maxOutstanding_(max_outstanding)
{
    MEMPOD_ASSERT(max_outstanding > 0, "need at least one MSHR");
}

void
TraceFrontend::setSource(TraceSource &source)
{
    source_ = &source;
    source_->reset();
    totalRecords_ = source_->size();
    headValid_ = source_->next(head_);
}

void
TraceFrontend::start()
{
    MEMPOD_ASSERT(source_ != nullptr, "no trace source set");
    if (!headValid_)
        return;
    schedulePump(std::max(eq_.now(), head_.time));
}

void
TraceFrontend::stallUntil(TimePs until)
{
    if (until <= stalledUntil_)
        return;
    stalledUntil_ = until;
    schedulePump(until);
}

void
TraceFrontend::suspendCores(TimePs duration)
{
    timeShift_ += duration;
    stallUntil(eq_.now() + duration);
}

bool
TraceFrontend::done() const
{
    return source_ != nullptr && !headValid_ && outstanding_ == 0;
}

double
TraceFrontend::ammatPs() const
{
    if (source_ == nullptr || totalRecords_ == 0)
        return 0.0;
    return totalStallPs_ / static_cast<double>(totalRecords_);
}

void
TraceFrontend::registerMetrics(MetricRegistry &reg,
                               std::uint32_t num_cores) const
{
    reg.addCounterFn("frontend.issued",
                     "trace records admitted into the memory system",
                     [this] { return issued_; });
    reg.attachCounter("frontend.completed",
                      "demand requests completed", &completed_);
    reg.addGauge("frontend.outstanding",
                 "demand requests in flight (MSHR occupancy)",
                 [this] { return static_cast<double>(outstanding_); });
    reg.addGauge("frontend.total_stall_ps",
                 "summed memory stall time over completed demands",
                 [this] { return totalStallPs_; });
    reg.addGauge("frontend.ammat_ps",
                 "average main-memory access time (total stall / "
                 "trace length)",
                 [this] { return ammatPs(); });
    reg.addGauge("frontend.cores_seen",
                 "cores that issued at least one request",
                 [this] { return static_cast<double>(perCore_.size()); });
    reg.attachCounter("frontend.mshr_wait_ps",
                      "summed admission delay behind the MSHR cap",
                      &mshrWaitPs_);
    reg.attachHistogram("frontend.latency_ns",
                        "per-request latency distribution (ns)",
                        &latencyNs_);
    reg.addGauge("frontend.latency_p50_ns",
                 "median per-request latency (ns)", [this] {
                     return static_cast<double>(latencyNs_.percentile(0.50));
                 });
    reg.addGauge("frontend.latency_p95_ns",
                 "95th-percentile per-request latency (ns)", [this] {
                     return static_cast<double>(latencyNs_.percentile(0.95));
                 });
    reg.addGauge("frontend.latency_p99_ns",
                 "99th-percentile per-request latency (ns)", [this] {
                     return static_cast<double>(latencyNs_.percentile(0.99));
                 });
    // Per-core series: the perCore_ vector grows on first touch, so
    // read through bounds-checked closures rather than raw pointers.
    for (std::uint32_t c = 0; c < num_cores; ++c) {
        const std::string cp = "core" + std::to_string(c);
        reg.addCounterFn(cp + ".issued", "requests issued by this core",
                         [this, c] {
                             return c < perCore_.size()
                                        ? perCore_[c].requests
                                        : 0;
                         });
        reg.addCounterFn(cp + ".completed",
                         "requests completed for this core", [this, c] {
                             return c < perCore_.size()
                                        ? perCore_[c].completed
                                        : 0;
                         });
        reg.addGauge(cp + ".stall_ps",
                     "summed memory stall time for this core",
                     [this, c] {
                         return c < perCore_.size()
                                    ? perCore_[c].stallPs
                                    : 0.0;
                     });
        reg.addGauge(cp + ".ammat_ps",
                     "per-core AMMAT (stall / requests)", [this, c] {
                         if (c >= perCore_.size() ||
                             perCore_[c].requests == 0)
                             return 0.0;
                         return perCore_[c].stallPs /
                                perCore_[c].requests;
                     });
        // Percentiles, like everything per-core, read through
        // bounds-checked closures: perCore_ reallocates on growth.
        const double qs[] = {0.50, 0.95, 0.99};
        const char *names[] = {".latency_p50_ns", ".latency_p95_ns",
                               ".latency_p99_ns"};
        for (int i = 0; i < 3; ++i) {
            reg.addGauge(cp + names[i],
                         "per-core request-latency percentile (ns)",
                         [this, c, q = qs[i]] {
                             return c < perCore_.size()
                                        ? static_cast<double>(
                                              perCore_[c]
                                                  .latencyNs.percentile(q))
                                        : 0.0;
                         });
        }
    }
}

std::vector<double>
TraceFrontend::perCoreAmmatPs() const
{
    std::vector<double> out;
    out.reserve(perCore_.size());
    for (const auto &pc : perCore_)
        out.push_back(pc.requests ? pc.stallPs / pc.requests : 0.0);
    return out;
}

void
TraceFrontend::schedulePump(TimePs when)
{
    when = std::max(when, eq_.now());
    if (pumpScheduledAt_ <= when)
        return;
    pumpScheduledAt_ = when;
    eq_.schedule(when, [this, when] {
        if (pumpScheduledAt_ == when)
            pumpScheduledAt_ = kTimeNever;
        pump();
    });
}

void
TraceFrontend::pump()
{
    const TimePs now = eq_.now();
    if (now < stalledUntil_) {
        schedulePump(stalledUntil_);
        return;
    }
    inPump_ = true;
    while (headValid_ && outstanding_ < maxOutstanding_) {
        const TraceRecord rec = head_;
        const TimePs due = rec.time + timeShift_;
        if (due > now) {
            // Fast-forward batch admission: with an instant-completion
            // warm model, future records may be admitted early — but
            // never past the next scheduled event (window boundary,
            // migration timer), which must observe the record stream
            // at its own instant.
            if (!fastForward_ || due >= eq_.nextTime()) {
                schedulePump(due);
                inPump_ = false;
                return;
            }
        }
        const bool ff = fastForward_;
        const std::uint64_t record = issued_;
        ++issued_;
        headValid_ = source_->next(head_);
        ++outstanding_;
        const Addr phys = placement_.physicalAddr(rec.core, rec.coreLocal);
        const TimePs arrival = due;
        const std::uint8_t core = rec.core;
        if (core >= perCore_.size())
            perCore_.resize(core + 1);
        ++perCore_[core].requests;
        if (!ff)
            mshrWaitPs_ += now - arrival;
        std::uint64_t trace_id = 0;
        if (Tracer *tr = eq_.tracer();
            tr != nullptr && tr->sampleDemand(record)) {
            trace_id = record + 1;
            const std::uint32_t tid = coreTrack(*tr, core);
            TraceArgs a;
            a.add("core", core)
                .add("write",
                     rec.type == AccessType::kWrite ? 1u : 0u)
                .add("record", record);
            tr->asyncBegin(tid, arrival, "req", trace_id, "demand",
                           a.str());
            if (!ff && now > arrival) {
                tr->asyncBegin(tid, arrival, "req", trace_id,
                               "mshr_wait");
                tr->asyncEnd(tid, now, "req", trace_id, "mshr_wait");
            }
        }
        const std::uint32_t ref =
            inFlight_.acquire({arrival, trace_id, core, ff});
        manager_.handleDemand({.homeAddr = phys,
                               .type = rec.type,
                               .core = core,
                               .arrival = arrival,
                               .traceId = trace_id,
                               .done = {this, ref}});
    }
    inPump_ = false;
}

void
TraceFrontend::complete(std::uint32_t ref, TimePs fin)
{
    const auto [arrival, trace_id, core, ff] = inFlight_[ref];
    inFlight_.release(ref);
    if (!ff) {
        MEMPOD_ASSERT(fin >= arrival, "completion precedes arrival");
        totalStallPs_ += static_cast<double>(fin - arrival);
        perCore_[core].stallPs += static_cast<double>(fin - arrival);
        latencyNs_.sample((fin - arrival) / 1000);
        perCore_[core].latencyNs.sample((fin - arrival) / 1000);
    }
    ++perCore_[core].completed;
    if (trace_id != 0) {
        if (Tracer *tr = eq_.tracer()) {
            TraceArgs a;
            if (!ff)
                a.add("latency_ns", (fin - arrival) / 1000);
            // Batch-admitted records can complete "before" their
            // arrival timestamp; clamp so the span stays well-formed
            // (zero-length).
            tr->asyncEnd(coreTrack(*tr, core), std::max(fin, arrival),
                         "req", trace_id, "demand", a.str());
        }
    }
    ++completed_;
    MEMPOD_ASSERT(outstanding_ > 0, "completion underflow");
    --outstanding_;
    // Instant (functional) completions land while the pump loop is
    // still running; it will admit the next record itself, so
    // re-entering here would recurse unboundedly.
    if (!inPump_)
        pump();
}

std::uint32_t
TraceFrontend::coreTrack(Tracer &tr, std::uint8_t core)
{
    return tr.track("core" + std::to_string(core));
}

} // namespace mempod
