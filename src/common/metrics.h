/**
 * @file
 * Unified metrics registry (Ramulator Stat.h / gem5 stats idiom): every
 * component registers its typed instruments — counters, gauges and
 * Log2Histograms — under a hierarchical dot-separated name
 * ("pod3.migration.bytes_moved", "mem.fast0.row_hits") with a one-line
 * description. The registry can be snapshotted at any simulated time;
 * snapshots support delta arithmetic, which the EventQueue-driven
 * IntervalSampler uses to record a per-run time-series of every
 * monotonic metric.
 *
 * Instruments stay owned by their component and are *attached* by
 * pointer/callback; attached sources must outlive every snapshot()
 * call. Registration order does not matter: snapshots are
 * name-ordered, so any export derived from them is deterministic.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"

namespace mempod {

/** Instrument categories a registry entry can hold. */
enum class MetricKind : std::uint8_t
{
    kCounter,   //!< monotonic uint64
    kGauge,     //!< point-in-time double (derived / level metric)
    kHistogram, //!< Log2Histogram buckets
};

const char *metricKindName(MetricKind kind);

/** One metric's value as captured by a snapshot. */
struct MetricValue
{
    MetricKind kind = MetricKind::kCounter;

    std::uint64_t count = 0; //!< counter value / histogram samples
    double real = 0.0;       //!< gauge value
    std::vector<std::uint64_t> buckets; //!< histogram buckets
};

/** Name-ordered capture of every registered metric at one time. */
struct MetricSnapshot
{
    TimePs simTimePs = 0;
    std::map<std::string, MetricValue> values;

    bool has(const std::string &name) const;

    /** Counter/count field of `name`; panics if unregistered. */
    std::uint64_t u64(const std::string &name) const;

    /** Gauge/real field of `name`; panics if unregistered. */
    double real(const std::string &name) const;

    const MetricValue &at(const std::string &name) const;
};

/**
 * Difference `later - earlier` for the monotonic fields (counter
 * values, histogram counts and buckets); gauges keep their `later`
 * value. Both snapshots must cover the same metric set.
 */
MetricSnapshot metricDelta(const MetricSnapshot &earlier,
                           const MetricSnapshot &later);

/** The per-simulation instrument registry. */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * Attach an external monotonic uint64 (e.g. a stats field). Every
     * attach panics on a duplicate name.
     */
    void attachCounter(const std::string &name, const std::string &desc,
                       const std::uint64_t *source);

    /** Attach a computed monotonic count (e.g. a sum over channels). */
    void addCounterFn(const std::string &name, const std::string &desc,
                      std::function<std::uint64_t()> fn);

    /** Attach a point-in-time derived value. */
    void addGauge(const std::string &name, const std::string &desc,
                  std::function<double()> fn);

    void attachHistogram(const std::string &name, const std::string &desc,
                         const Log2Histogram *source);

    std::size_t size() const { return instruments_.size(); }
    bool contains(const std::string &name) const;

    /** Registered description; panics if unregistered. */
    const std::string &description(const std::string &name) const;

    MetricKind kind(const std::string &name) const;

    /** Names in lexicographic order (the export order). */
    std::vector<std::string> names() const;

    /** Capture every instrument's current value at time `now`. */
    MetricSnapshot snapshot(TimePs now) const;

  private:
    struct Instrument
    {
        MetricKind kind;
        std::string desc;
        const std::uint64_t *u64Source = nullptr; //!< kCounter (attached)
        std::function<std::uint64_t()> u64Fn;     //!< kCounter (computed)
        std::function<double()> gaugeFn;          //!< kGauge
        const Log2Histogram *histogram = nullptr;
    };

    Instrument &emplace(const std::string &name, MetricKind kind,
                        const std::string &desc);

    std::map<std::string, Instrument> instruments_;
};

/** One sampled interval: deltas over [startPs, endPs). */
struct IntervalRecord
{
    std::uint64_t index = 0;
    TimePs startPs = 0;
    TimePs endPs = 0;
    MetricSnapshot delta;
};

/**
 * Snapshots the registry every `period` of *simulated* time off the
 * EventQueue and records per-interval deltas. Sampling events read
 * state only, so arming a sampler never changes simulation behavior —
 * only the event count.
 */
class IntervalSampler
{
  public:
    IntervalSampler(EventQueue &eq, MetricRegistry &registry,
                    TimePs period);

    /** Arm the recurring timer; first tick at now + period. */
    void start();

    TimePs period() const { return period_; }

    /** Completed intervals so far. */
    const std::vector<IntervalRecord> &records() const { return records_; }

    /**
     * Capture the trailing partial interval [last tick, now), if any
     * time elapsed since the last tick. Call once after the run drains.
     */
    void finalize(TimePs now);

  private:
    void onTick();

    EventQueue &eq_;
    MetricRegistry &registry_;
    TimePs period_;
    PeriodicTimer timer_;
    bool started_ = false;
    MetricSnapshot last_;
    std::vector<IntervalRecord> records_;
};

} // namespace mempod
