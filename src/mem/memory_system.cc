#include "mem/memory_system.h"

#include "common/log.h"
#include "dram/fast_channel.h"
#include "dram/functional_model.h"

namespace mempod {

void
MemorySystem::Slot::add(DramModel kind,
                        std::unique_ptr<MemoryModel> m)
{
    models_.emplace_back(kind, std::move(m));
    if (!primary_) {
        primary_ = models_.back().second.get();
        active_ = primary_;
    }
}

void
MemorySystem::Slot::select(DramModel kind)
{
    MemoryModel *m = find(kind);
    MEMPOD_ASSERT(m != nullptr,
                  "memory model '%s' was not built for this run",
                  dramModelName(kind));
    active_ = m;
}

MemoryModel *
MemorySystem::Slot::find(DramModel kind) const
{
    for (const auto &[k, m] : models_)
        if (k == kind)
            return m.get();
    return nullptr;
}

namespace {

std::unique_ptr<MemoryModel>
makeModel(DramModel kind, EventQueue &eq, const DramSpec &spec,
          std::string name, TimePs extra_latency_ps,
          ControllerPolicy policy, DomainId domain)
{
    switch (kind) {
      case DramModel::kDetailed:
        return std::make_unique<Channel>(eq, spec, std::move(name),
                                         extra_latency_ps, policy,
                                         domain);
      case DramModel::kFast:
        return std::make_unique<FastChannel>(
            eq, spec, std::move(name), extra_latency_ps);
      case DramModel::kFunctional:
        return std::make_unique<FunctionalModel>(eq, spec,
                                                 std::move(name));
    }
    MEMPOD_FATAL("unknown memory model %d", static_cast<int>(kind));
}

} // namespace

MemorySystem::MemorySystem(EventQueue &eq, const SystemGeometry &geom,
                           const DramSpec &fast, const DramSpec &slow,
                           TimePs extra_latency_ps,
                           ControllerPolicy policy, const ShardPlan *plan,
                           const ModelPlan &models)
    : eq_(eq),
      map_(geom,
           fast.withChannelBytes(geom.fastBytes / geom.fastChannels).org,
           geom.slowChannels
               ? slow.withChannelBytes(geom.slowBytes / geom.slowChannels)
                     .org
               : slow.org),
      dispatch_(plan ? plan->dispatch : nullptr),
      activeModel_(models.primary)
{
    // Channel i always owns execution domain 1 + i — also in the
    // serial single-queue run, so the canonical event order (and thus
    // every output byte) is identical at any shard count.
    const auto queue_for = [&](std::size_t i) -> EventQueue & {
        return plan ? *plan->channelQueues[i] : eq_;
    };
    const auto add_channel = [&](const DramSpec &spec,
                                 const std::string &base) {
        const std::size_t i = slots_.size();
        const DomainId domain = static_cast<DomainId>(1 + i);
        auto slot = std::make_unique<Slot>();
        // Primary first: it owns the base name and the observer API.
        slot->add(models.primary,
                  makeModel(models.primary, queue_for(i), spec, base,
                            extra_latency_ps, policy, domain));
        if (models.warm)
            slot->add(DramModel::kFunctional,
                      makeModel(DramModel::kFunctional, queue_for(i),
                                spec, base + ".warm", extra_latency_ps,
                                policy, domain));
        slots_.push_back(std::move(slot));
    };

    const DramSpec fast_sized =
        fast.withChannelBytes(geom.fastBytes / geom.fastChannels);
    slots_.reserve(geom.fastChannels + geom.slowChannels);
    for (std::uint32_t c = 0; c < geom.fastChannels; ++c)
        add_channel(fast_sized, "fast" + std::to_string(c));
    if (geom.slowChannels > 0) {
        const DramSpec slow_sized =
            slow.withChannelBytes(geom.slowBytes / geom.slowChannels);
        for (std::uint32_t c = 0; c < geom.slowChannels; ++c)
            add_channel(slow_sized, "slow" + std::to_string(c));
    }
    // One shared hook per channel keeps in-flight tracking off the
    // per-request path: requests carry only their completion handle.
    for (auto &slot : slots_)
        slot->setCompletionHook([this](TimePs) { --inFlight_; });

    views_.reserve(slots_.size() * (models.warm ? 2 : 1));
    for (std::size_t c = 0; c < slots_.size(); ++c) {
        const MemTier tier =
            c < geom.fastChannels ? MemTier::kFast : MemTier::kSlow;
        ChannelTelemetry v = slots_[c]->telemetry();
        v.tier = tier;
        views_.push_back(std::move(v));
        if (models.warm) {
            ChannelTelemetry w =
                slots_[c]->find(DramModel::kFunctional)->telemetry();
            w.tier = tier;
            views_.push_back(std::move(w));
        }
    }
}

void
MemorySystem::setModel(DramModel m)
{
    if (m == activeModel_)
        return;
    for (auto &slot : slots_) {
        slot->select(m);
        // The incoming model sat idle while the outgoing one served
        // traffic; let it forgive time-based obligations (refresh
        // debt) before the first enqueue lands.
        slot->find(m)->resumeAt(eq_.now());
    }
    activeModel_ = m;
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
    if (dispatch_) {
        // Sharded run: the executor applies the enqueue on the owning
        // channel's queue at this call's canonical key position.
        dispatch_(d.channel, req, ChannelAddr{d.bank, d.row});
        return;
    }
    slots_[d.channel]->enqueue(req, ChannelAddr{d.bank, d.row});
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
