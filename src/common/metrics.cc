#include "common/metrics.h"

#include "common/log.h"

namespace mempod {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::kCounter:
        return "counter";
      case MetricKind::kGauge:
        return "gauge";
      case MetricKind::kHistogram:
        return "histogram";
    }
    return "unknown";
}

bool
MetricSnapshot::has(const std::string &name) const
{
    return values.find(name) != values.end();
}

const MetricValue &
MetricSnapshot::at(const std::string &name) const
{
    auto it = values.find(name);
    if (it == values.end())
        MEMPOD_PANIC("snapshot has no metric '%s'", name.c_str());
    return it->second;
}

std::uint64_t
MetricSnapshot::u64(const std::string &name) const
{
    return at(name).count;
}

double
MetricSnapshot::real(const std::string &name) const
{
    return at(name).real;
}

MetricSnapshot
metricDelta(const MetricSnapshot &earlier, const MetricSnapshot &later)
{
    MEMPOD_ASSERT(earlier.values.size() == later.values.size(),
                  "snapshot shapes differ: %zu vs %zu metrics",
                  earlier.values.size(), later.values.size());
    MetricSnapshot out;
    out.simTimePs = later.simTimePs;
    for (const auto &[name, after] : later.values) {
        auto it = earlier.values.find(name);
        if (it == earlier.values.end())
            MEMPOD_PANIC("metric '%s' missing from earlier snapshot",
                         name.c_str());
        const MetricValue &before = it->second;
        MetricValue d = after;
        switch (after.kind) {
          case MetricKind::kCounter:
            MEMPOD_ASSERT(after.count >= before.count,
                          "metric '%s' went backwards", name.c_str());
            d.count = after.count - before.count;
            break;
          case MetricKind::kHistogram:
            d.count = after.count - before.count;
            for (std::size_t b = 0; b < d.buckets.size(); ++b) {
                const std::uint64_t prev =
                    b < before.buckets.size() ? before.buckets[b] : 0;
                d.buckets[b] -= prev;
            }
            break;
          case MetricKind::kGauge:
            break; // level metric: keep the later value
        }
        out.values.emplace(name, std::move(d));
    }
    return out;
}

MetricRegistry::Instrument &
MetricRegistry::emplace(const std::string &name, MetricKind kind,
                        const std::string &desc)
{
    MEMPOD_ASSERT(!name.empty(), "metric name must not be empty");
    auto [it, inserted] = instruments_.try_emplace(name);
    if (!inserted)
        MEMPOD_PANIC("metric name collision: '%s' already registered "
                     "as %s",
                     name.c_str(), metricKindName(it->second.kind));
    it->second.kind = kind;
    it->second.desc = desc;
    return it->second;
}

void
MetricRegistry::attachCounter(const std::string &name,
                              const std::string &desc,
                              const std::uint64_t *source)
{
    MEMPOD_ASSERT(source != nullptr, "null source for '%s'", name.c_str());
    emplace(name, MetricKind::kCounter, desc).u64Source = source;
}

void
MetricRegistry::addCounterFn(const std::string &name,
                             const std::string &desc,
                             std::function<std::uint64_t()> fn)
{
    MEMPOD_ASSERT(fn != nullptr, "null fn for '%s'", name.c_str());
    emplace(name, MetricKind::kCounter, desc).u64Fn = std::move(fn);
}

void
MetricRegistry::addGauge(const std::string &name, const std::string &desc,
                         std::function<double()> fn)
{
    MEMPOD_ASSERT(fn != nullptr, "null fn for '%s'", name.c_str());
    emplace(name, MetricKind::kGauge, desc).gaugeFn = std::move(fn);
}

void
MetricRegistry::attachHistogram(const std::string &name,
                                const std::string &desc,
                                const Log2Histogram *source)
{
    MEMPOD_ASSERT(source != nullptr, "null source for '%s'", name.c_str());
    emplace(name, MetricKind::kHistogram, desc).histogram = source;
}

bool
MetricRegistry::contains(const std::string &name) const
{
    return instruments_.find(name) != instruments_.end();
}

const std::string &
MetricRegistry::description(const std::string &name) const
{
    auto it = instruments_.find(name);
    if (it == instruments_.end())
        MEMPOD_PANIC("no metric '%s' registered", name.c_str());
    return it->second.desc;
}

MetricKind
MetricRegistry::kind(const std::string &name) const
{
    auto it = instruments_.find(name);
    if (it == instruments_.end())
        MEMPOD_PANIC("no metric '%s' registered", name.c_str());
    return it->second.kind;
}

std::vector<std::string>
MetricRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(instruments_.size());
    for (const auto &[name, inst] : instruments_)
        out.push_back(name);
    return out;
}

MetricSnapshot
MetricRegistry::snapshot(TimePs now) const
{
    MetricSnapshot snap;
    snap.simTimePs = now;
    for (const auto &[name, inst] : instruments_) {
        MetricValue v;
        v.kind = inst.kind;
        switch (inst.kind) {
          case MetricKind::kCounter:
            v.count = inst.u64Source ? *inst.u64Source : inst.u64Fn();
            break;
          case MetricKind::kGauge:
            v.real = inst.gaugeFn();
            break;
          case MetricKind::kHistogram:
            v.count = inst.histogram->count();
            v.buckets = inst.histogram->buckets();
            break;
        }
        snap.values.emplace(name, std::move(v));
    }
    return snap;
}

IntervalSampler::IntervalSampler(EventQueue &eq, MetricRegistry &registry,
                                 TimePs period)
    : eq_(eq), registry_(registry), period_(period),
      timer_(eq, period, [this] { onTick(); })
{
    MEMPOD_ASSERT(period > 0, "sampling period must be positive");
}

void
IntervalSampler::start()
{
    MEMPOD_ASSERT(!started_, "sampler already started");
    started_ = true;
    last_ = registry_.snapshot(eq_.now());
    timer_.start();
}

void
IntervalSampler::onTick()
{
    const TimePs now = eq_.now();
    MetricSnapshot cur = registry_.snapshot(now);
    IntervalRecord rec;
    rec.index = records_.size();
    rec.startPs = last_.simTimePs;
    rec.endPs = now;
    rec.delta = metricDelta(last_, cur);
    records_.push_back(std::move(rec));
    last_ = std::move(cur);
}

void
IntervalSampler::finalize(TimePs now)
{
    if (!started_ || now <= last_.simTimePs)
        return;
    MetricSnapshot cur = registry_.snapshot(now);
    IntervalRecord rec;
    rec.index = records_.size();
    rec.startPs = last_.simTimePs;
    rec.endPs = now;
    rec.delta = metricDelta(last_, cur);
    records_.push_back(std::move(rec));
    last_ = std::move(cur);
}

} // namespace mempod
