#include "mem/memory_system.h"

#include "common/log.h"
#include "dram/fast_channel.h"

namespace mempod {

MemorySystem::MemorySystem(EventQueue &eq, const SystemGeometry &geom,
                           const DramSpec &fast, const DramSpec &slow,
                           TimePs extra_latency_ps,
                           ControllerPolicy policy, const ShardPlan *plan,
                           DramModel measured, bool sampled)
    : eq_(eq),
      map_(geom,
           fast.withChannelBytes(geom.fastBytes / geom.fastChannels).org,
           geom.slowChannels
               ? slow.withChannelBytes(geom.slowBytes / geom.slowChannels)
                     .org
               : slow.org),
      dispatch_(plan ? plan->dispatch : nullptr)
{
    const auto add_view = [&](const MemoryModel &m, MemTier tier) {
        ChannelTelemetry v = m.telemetry();
        v.tier = tier;
        views_.push_back(std::move(v));
    };
    const auto add_channel = [&](const DramSpec &spec,
                                 const std::string &base, MemTier tier) {
        const std::size_t i = measured_.size();
        // Channel i always owns execution domain 1 + i — also in the
        // serial single-queue run, so the canonical event order (and
        // thus every output byte) is identical at any shard count.
        const DomainId domain = static_cast<DomainId>(1 + i);
        EventQueue &q = plan ? *plan->channelQueues[i] : eq_;
        if (measured == DramModel::kFast)
            measured_.push_back(std::make_unique<FastChannel>(
                q, spec, base, extra_latency_ps, &inFlight_));
        else
            measured_.push_back(std::make_unique<Channel>(
                q, spec, base, extra_latency_ps, policy, domain,
                &inFlight_));
        add_view(*measured_.back(), tier);
        if (sampled) {
            warmModels_.push_back(std::make_unique<FunctionalModel>(
                q, spec, base + ".warm", &inFlight_));
            add_view(*warmModels_.back(), tier);
        }
    };

    const DramSpec fast_sized =
        fast.withChannelBytes(geom.fastBytes / geom.fastChannels);
    for (std::uint32_t c = 0; c < geom.fastChannels; ++c)
        add_channel(fast_sized, "fast" + std::to_string(c),
                    MemTier::kFast);
    if (geom.slowChannels > 0) {
        const DramSpec slow_sized =
            slow.withChannelBytes(geom.slowBytes / geom.slowChannels);
        for (std::uint32_t c = 0; c < geom.slowChannels; ++c)
            add_channel(slow_sized, "slow" + std::to_string(c),
                        MemTier::kSlow);
    }
}

void
MemorySystem::setWarm(bool on)
{
    MEMPOD_ASSERT(!on || !warmModels_.empty(),
                  "warm models were not built for this run");
    if (on == warm_)
        return;
    warm_ = on;
    if (on)
        return;
    // The measured models sat idle while the warm ones served traffic;
    // let them forgive time-based obligations (refresh debt) before
    // the first enqueue lands.
    for (auto &m : measured_)
        m->resumeAt(eq_.now());
}

void
MemorySystem::access(Request req)
{
    const DecodedAddr d = map_.decode(req.addr);

    const bool fast = d.tier == MemTier::kFast;
    switch (req.kind) {
      case Request::Kind::kDemand:
        ++(fast ? stats_.demandFast : stats_.demandSlow);
        break;
      case Request::Kind::kMigration:
        ++(fast ? stats_.migrationFast : stats_.migrationSlow);
        break;
      case Request::Kind::kBookkeeping:
        ++(fast ? stats_.bookkeepingFast : stats_.bookkeepingSlow);
        break;
    }

    ++inFlight_;
    const ChannelAddr where{d.bank, d.row};
    if (warm_) {
        warmModels_[d.channel]->enqueue(req, where);
    } else if (dispatch_) {
        // Sharded run: the executor applies the enqueue on the owning
        // channel's queue at this call's canonical key position.
        dispatch_(d.channel, req, where);
    } else {
        measured_[d.channel]->enqueue(req, where);
    }
}

std::uint64_t
MemorySystem::Stats::linesByKindTier(Request::Kind kind,
                                     MemTier tier) const
{
    const bool fast = tier == MemTier::kFast;
    switch (kind) {
      case Request::Kind::kDemand:
        return fast ? demandFast : demandSlow;
      case Request::Kind::kMigration:
        return fast ? migrationFast : migrationSlow;
      case Request::Kind::kBookkeeping:
        return fast ? bookkeepingFast : bookkeepingSlow;
    }
    return 0;
}

double
MemorySystem::rowHitRate(MemTier tier) const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const ChannelTelemetry &v : views_) {
        if (v.tier != tier)
            continue;
        hits += v.stats->rowHits;
        total += v.stats->rowHits + v.stats->rowMisses;
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
MemorySystem::rowHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const ChannelTelemetry &v : views_) {
        hits += v.stats->rowHits;
        total += v.stats->rowHits + v.stats->rowMisses;
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

std::uint64_t
MemorySystem::rowHits(MemTier tier) const
{
    std::uint64_t hits = 0;
    for (const ChannelTelemetry &v : views_)
        if (v.tier == tier)
            hits += v.stats->rowHits;
    return hits;
}

std::uint64_t
MemorySystem::rowMisses(MemTier tier) const
{
    std::uint64_t misses = 0;
    for (const ChannelTelemetry &v : views_)
        if (v.tier == tier)
            misses += v.stats->rowMisses;
    return misses;
}

void
MemorySystem::registerMetrics(MetricRegistry &reg) const
{
    reg.attachCounter("mem.demand_fast",
                      "demand lines served by the fast tier",
                      &stats_.demandFast);
    reg.attachCounter("mem.demand_slow",
                      "demand lines served by the slow tier",
                      &stats_.demandSlow);
    reg.attachCounter("mem.migration_fast",
                      "migration lines on fast-tier channels",
                      &stats_.migrationFast);
    reg.attachCounter("mem.migration_slow",
                      "migration lines on slow-tier channels",
                      &stats_.migrationSlow);
    reg.attachCounter("mem.bookkeeping_fast",
                      "bookkeeping lines on fast-tier channels",
                      &stats_.bookkeepingFast);
    reg.attachCounter("mem.bookkeeping_slow",
                      "bookkeeping lines on slow-tier channels",
                      &stats_.bookkeepingSlow);
    reg.addCounterFn("mem.fast.row_hits",
                     "CAS row hits summed over fast channels",
                     [this] { return rowHits(MemTier::kFast); });
    reg.addCounterFn("mem.fast.row_misses",
                     "CAS row misses summed over fast channels",
                     [this] { return rowMisses(MemTier::kFast); });
    reg.addCounterFn("mem.slow.row_hits",
                     "CAS row hits summed over slow channels",
                     [this] { return rowHits(MemTier::kSlow); });
    reg.addCounterFn("mem.slow.row_misses",
                     "CAS row misses summed over slow channels",
                     [this] { return rowMisses(MemTier::kSlow); });
    reg.addGauge("mem.row_hit_rate",
                 "aggregate row-buffer hit rate, all channels",
                 [this] { return rowHitRate(); });
    reg.addGauge("mem.fast.row_hit_rate",
                 "row-buffer hit rate over fast channels",
                 [this] { return rowHitRate(MemTier::kFast); });
    reg.addGauge("mem.slow.row_hit_rate",
                 "row-buffer hit rate over slow channels",
                 [this] { return rowHitRate(MemTier::kSlow); });
    reg.addGauge("mem.in_flight",
                 "line transfers dispatched but not completed",
                 [this] { return static_cast<double>(inFlight_); });
    reg.addCounterFn("mem.demand_queue_wait_ps",
                     "summed demand enqueue-to-CAS wait, all channels",
                     [this] {
                         std::uint64_t sum = 0;
                         for (const ChannelTelemetry &v : views_)
                             sum += v.stats->demandQueueWaitPs;
                         return sum;
                     });
    reg.addCounterFn("mem.demand_service_ps",
                     "summed demand CAS-to-completion time, all channels",
                     [this] {
                         std::uint64_t sum = 0;
                         for (const ChannelTelemetry &v : views_)
                             sum += v.stats->demandServicePs;
                         return sum;
                     });
    for (const ChannelTelemetry &v : views_)
        registerChannelMetrics(reg, "mem." + v.name, v);
}

void
MemorySystem::registerChannelMetrics(MetricRegistry &reg,
                                     const std::string &prefix,
                                     const ChannelTelemetry &v) const
{
    const ChannelStats *s = v.stats;
    reg.attachCounter(prefix + ".reads", "read CAS commands issued",
                      &s->reads);
    reg.attachCounter(prefix + ".writes", "write CAS commands issued",
                      &s->writes);
    reg.attachCounter(prefix + ".row_hits",
                      "CAS commands that required no ACT",
                      &s->rowHits);
    reg.attachCounter(prefix + ".row_misses",
                      "CAS commands preceded by their own ACT",
                      &s->rowMisses);
    reg.attachCounter(prefix + ".activates", "ACT commands issued",
                      &s->activates);
    reg.attachCounter(prefix + ".precharges", "PRE commands issued",
                      &s->precharges);
    reg.attachCounter(prefix + ".refreshes", "refresh cycles performed",
                      &s->refreshes);
    reg.attachCounter(prefix + ".bus_busy_ps",
                      "picoseconds the data bus carried a burst",
                      &s->busBusyPs);
    reg.attachCounter(prefix + ".demand_queue_wait_ps",
                      "summed demand wait from enqueue to CAS",
                      &s->demandQueueWaitPs);
    reg.attachCounter(prefix + ".demand_service_ps",
                      "summed demand CAS-to-completion time",
                      &s->demandServicePs);
    reg.addGauge(prefix + ".queue_depth",
                 "requests queued at the controller right now",
                 [s] { return static_cast<double>(s->queuedNow); });
    reg.addGauge(prefix + ".max_queue_depth",
                 "high-water mark of the controller queues", [s] {
                     return static_cast<double>(s->maxQueueDepth);
                 });
    reg.addGauge(prefix + ".row_hit_rate",
                 "fraction of CAS commands hitting the open row",
                 [s] { return channelRowHitRate(*s); });
    reg.addGauge(prefix + ".bus_utilization",
                 "fraction of simulated time the data bus was busy",
                 [s, this] {
                     return channelBusUtilization(*s, eq_.now());
                 });
    for (std::uint32_t b = 0; b < v.numBanks; ++b) {
        const std::string bp = prefix + ".bank" + std::to_string(b);
        reg.attachCounter(bp + ".activates", "per-bank ACT commands",
                          &v.bankActivates[b]);
        reg.attachCounter(bp + ".reads", "per-bank read CAS commands",
                          &v.bankReads[b]);
        reg.attachCounter(bp + ".writes", "per-bank write CAS commands",
                          &v.bankWrites[b]);
    }
}

} // namespace mempod
