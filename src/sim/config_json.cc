/**
 * @file
 * SimConfig JSON round-trip and dotted-key overrides, built on one
 * field table so toJson(), fromJson() and set() can never disagree
 * about which knobs exist. The schema is the table below verbatim;
 * EXPERIMENTS.md documents it for experiment authors.
 */
#include "sim/config.h"

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/number.h"

namespace mempod {

namespace {

/** An unsigned knob; panics telling a malformed value from overflow. */
template <typename T>
void
parseValue(T &dst, const std::string &v, const char *key)
{
    const std::errc ec = parseDecimal(v, dst);
    if (ec == std::errc::result_out_of_range) {
        MEMPOD_PANIC("config key '%s': value %s out of range", key,
                     v.c_str());
    } else if (ec != std::errc()) {
        MEMPOD_PANIC("config key '%s': '%s' is not a non-negative "
                     "integer",
                     key, v.c_str());
    }
}

void
parseValue(bool &dst, const std::string &v, const char *key)
{
    if (v == "true" || v == "1") {
        dst = true;
    } else if (v == "false" || v == "0") {
        dst = false;
    } else {
        MEMPOD_PANIC("config key '%s': '%s' is not a boolean", key,
                     v.c_str());
    }
}

void
parseValue(std::string &dst, const std::string &v, const char *)
{
    dst = v;
}

void
parseValue(Mechanism &dst, const std::string &v, const char *key)
{
    if (!mechanismFromName(v, dst)) {
        MEMPOD_PANIC("config key '%s': unknown mechanism '%s'", key,
                     v.c_str());
    }
}

void
parseValue(DramModel &dst, const std::string &v, const char *key)
{
    if (!dramModelFromName(v, dst)) {
        MEMPOD_PANIC("config key '%s': unknown memory model '%s' "
                     "(detailed, fast or functional)",
                     key, v.c_str());
    }
}

json::Value
leaf(json::Value::Kind kind, std::string text, bool boolean = false)
{
    json::Value v;
    v.kind = kind;
    v.text = std::move(text);
    v.boolean = boolean;
    return v;
}

json::Value
printValue(bool v)
{
    return leaf(json::Value::Kind::kBool, "", v);
}

json::Value
printValue(const std::string &v)
{
    return leaf(json::Value::Kind::kString, v);
}

json::Value
printValue(Mechanism m)
{
    return leaf(json::Value::Kind::kString, mechanismName(m));
}

json::Value
printValue(DramModel m)
{
    return leaf(json::Value::Kind::kString, dramModelName(m));
}

template <typename T>
json::Value
printValue(T v)
{
    static_assert(std::is_unsigned_v<T>);
    return leaf(json::Value::Kind::kNumber, std::to_string(v));
}

/** One leaf knob: a dotted key plus its accessors. */
struct Field
{
    const char *key;
    std::function<json::Value(const SimConfig &)> get;
    std::function<void(SimConfig &, const std::string &)> set;
};

/** One table entry for the member reached by expression `expr`. */
#define MEMPOD_CONFIG_FIELD(key, expr)                                 \
    Field                                                              \
    {                                                                  \
        key, [](const SimConfig &c) { return printValue(c.expr); },    \
            [](SimConfig &c, const std::string &v) {                   \
                parseValue(c.expr, v, key);                            \
            }                                                          \
    }

/**
 * The 22 per-device leaves, shared between `dram.near` (the fast,
 * on-package device) and `dram.far` (the slow, off-chip device).
 * Timing leaves are picoseconds, matching the ps-native DramTiming,
 * so sweeps can dial any constraint without knowing the device clock.
 */
#define MEMPOD_CONFIG_DRAM_FIELDS(tier, member)                        \
    MEMPOD_CONFIG_FIELD("dram." tier ".name", member.name),            \
        MEMPOD_CONFIG_FIELD("dram." tier ".clock_ps",                  \
                            member.timing.clockPeriodPs),              \
        MEMPOD_CONFIG_FIELD("dram." tier ".tCL_ps", member.timing.tCL),\
        MEMPOD_CONFIG_FIELD("dram." tier ".tCWL_ps",                   \
                            member.timing.tCWL),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRCD_ps",                   \
                            member.timing.tRCD),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRP_ps", member.timing.tRP),\
        MEMPOD_CONFIG_FIELD("dram." tier ".tRAS_ps",                   \
                            member.timing.tRAS),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tBL_ps", member.timing.tBL),\
        MEMPOD_CONFIG_FIELD("dram." tier ".tCCD_ps",                   \
                            member.timing.tCCD),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tWR_ps", member.timing.tWR),\
        MEMPOD_CONFIG_FIELD("dram." tier ".tWTR_ps",                   \
                            member.timing.tWTR),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRTP_ps",                   \
                            member.timing.tRTP),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRTW_ps",                   \
                            member.timing.tRTW),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRRD_ps",                   \
                            member.timing.tRRD),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tFAW_ps",                   \
                            member.timing.tFAW),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".tREFI_ps",                  \
                            member.timing.tREFI),                      \
        MEMPOD_CONFIG_FIELD("dram." tier ".tRFC_ps",                   \
                            member.timing.tRFC),                       \
        MEMPOD_CONFIG_FIELD("dram." tier ".ranks", member.org.ranks),  \
        MEMPOD_CONFIG_FIELD("dram." tier ".banksPerRank",              \
                            member.org.banksPerRank),                  \
        MEMPOD_CONFIG_FIELD("dram." tier ".rowsPerBank",               \
                            member.org.rowsPerBank),                   \
        MEMPOD_CONFIG_FIELD("dram." tier ".rowBufferBytes",            \
                            member.org.rowBufferBytes),                \
        MEMPOD_CONFIG_FIELD("dram." tier ".busBits",                   \
                            member.org.busBits)

/**
 * Every serialized knob, in schema order. toJson() emits exactly this
 * sequence; fromJson()/set() accept exactly these keys.
 */
const std::vector<Field> &
fieldTable()
{
    static const std::vector<Field> table = {
        MEMPOD_CONFIG_FIELD("mechanism", mechanism),
        MEMPOD_CONFIG_FIELD("geom.fastBytes", geom.fastBytes),
        MEMPOD_CONFIG_FIELD("geom.slowBytes", geom.slowBytes),
        MEMPOD_CONFIG_FIELD("geom.fastChannels", geom.fastChannels),
        MEMPOD_CONFIG_FIELD("geom.slowChannels", geom.slowChannels),
        MEMPOD_CONFIG_FIELD("geom.numPods", geom.numPods),
        MEMPOD_CONFIG_FIELD("dram.model", dramModel),
        MEMPOD_CONFIG_DRAM_FIELDS("near", near),
        MEMPOD_CONFIG_DRAM_FIELDS("far", far),
        MEMPOD_CONFIG_FIELD("mempod.interval", mempod.interval),
        MEMPOD_CONFIG_FIELD("mempod.pod.meaEntries",
                            mempod.pod.meaEntries),
        MEMPOD_CONFIG_FIELD("mempod.pod.meaCounterBits",
                            mempod.pod.meaCounterBits),
        MEMPOD_CONFIG_FIELD("mempod.pod.maxMigrationsPerInterval",
                            mempod.pod.maxMigrationsPerInterval),
        MEMPOD_CONFIG_FIELD("mempod.pod.minHotCount",
                            mempod.pod.minHotCount),
        MEMPOD_CONFIG_FIELD("mempod.pod.metaCacheEnabled",
                            mempod.pod.metaCacheEnabled),
        MEMPOD_CONFIG_FIELD("mempod.pod.metaCacheBytes",
                            mempod.pod.metaCacheBytes),
        MEMPOD_CONFIG_FIELD("mempod.pod.metaCacheAssoc",
                            mempod.pod.metaCacheAssoc),
        MEMPOD_CONFIG_FIELD("mempod.pod.remapEntryBytes",
                            mempod.pod.remapEntryBytes),
        MEMPOD_CONFIG_FIELD("hma.interval", hma.interval),
        MEMPOD_CONFIG_FIELD("hma.sortStall", hma.sortStall),
        MEMPOD_CONFIG_FIELD("hma.counterBits", hma.counterBits),
        MEMPOD_CONFIG_FIELD("hma.threshold", hma.threshold),
        MEMPOD_CONFIG_FIELD("hma.maxMigrationsPerInterval",
                            hma.maxMigrationsPerInterval),
        MEMPOD_CONFIG_FIELD("hma.metaCacheEnabled",
                            hma.metaCacheEnabled),
        MEMPOD_CONFIG_FIELD("hma.metaCacheBytes", hma.metaCacheBytes),
        MEMPOD_CONFIG_FIELD("hma.metaCacheAssoc", hma.metaCacheAssoc),
        MEMPOD_CONFIG_FIELD("hma.counterEntryBytes",
                            hma.counterEntryBytes),
        MEMPOD_CONFIG_FIELD("thm.threshold", thm.threshold),
        MEMPOD_CONFIG_FIELD("thm.counterBits", thm.counterBits),
        MEMPOD_CONFIG_FIELD("thm.metaCacheEnabled",
                            thm.metaCacheEnabled),
        MEMPOD_CONFIG_FIELD("thm.metaCacheBytes", thm.metaCacheBytes),
        MEMPOD_CONFIG_FIELD("thm.metaCacheAssoc", thm.metaCacheAssoc),
        MEMPOD_CONFIG_FIELD("thm.segEntryBytes", thm.segEntryBytes),
        MEMPOD_CONFIG_FIELD("cameo.engineParallelism",
                            cameo.engineParallelism),
        MEMPOD_CONFIG_FIELD("cameo.maxQueuedSwaps",
                            cameo.maxQueuedSwaps),
        MEMPOD_CONFIG_FIELD("maxOutstanding", maxOutstanding),
        MEMPOD_CONFIG_FIELD("placementSeed", placementSeed),
        MEMPOD_CONFIG_FIELD("extraLatencyPs", extraLatencyPs),
        MEMPOD_CONFIG_FIELD("numCores", numCores),
        MEMPOD_CONFIG_FIELD("controller.closedPage",
                            controller.closedPage),
        MEMPOD_CONFIG_FIELD("controller.fcfs", controller.fcfs),
        MEMPOD_CONFIG_FIELD("statsIntervalPs", statsIntervalPs),
        MEMPOD_CONFIG_FIELD("sim.shards", shards),
        MEMPOD_CONFIG_FIELD("sim.sampling.enabled", sampling.enabled),
        MEMPOD_CONFIG_FIELD("sim.sampling.measure_ps",
                            sampling.measurePs),
        MEMPOD_CONFIG_FIELD("sim.sampling.fastfwd_ps",
                            sampling.fastfwdPs),
        MEMPOD_CONFIG_FIELD("sim.sampling.warmup_pct",
                            sampling.warmupPct),
        MEMPOD_CONFIG_FIELD("sim.sampling.min_windows",
                            sampling.minWindows),
        MEMPOD_CONFIG_FIELD("tracer.enabled", tracer.enabled),
        MEMPOD_CONFIG_FIELD("tracer.sampleEvery", tracer.sampleEvery),
        MEMPOD_CONFIG_FIELD("tracer.seed", tracer.seed),
        MEMPOD_CONFIG_FIELD("perf.enabled", perfEnabled),
        MEMPOD_CONFIG_FIELD("decisions.enabled", decisionsEnabled),
        MEMPOD_CONFIG_FIELD("validate.enabled", validateEnabled),
        MEMPOD_CONFIG_FIELD("validate.paranoid", validateParanoid),
    };
    return table;
}

#undef MEMPOD_CONFIG_DRAM_FIELDS
#undef MEMPOD_CONFIG_FIELD

std::vector<std::string>
splitKey(const std::string &key)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= key.size(); ++i) {
        if (i == key.size() || key[i] == '.') {
            segs.push_back(key.substr(start, i - start));
            start = i + 1;
        }
    }
    return segs;
}

/** Member `key` of `node` (made an object), appended when absent. */
json::Value &
child(json::Value &node, const std::string &key)
{
    node.kind = json::Value::Kind::kObject;
    for (auto &[k, v] : node.members)
        if (k == key)
            return v;
    return node.members.emplace_back(key, json::Value{}).second;
}

/** Apply every leaf under `obj` as a set() on its dotted key. */
void
applyObject(SimConfig &cfg, const json::Value &obj,
            const std::string &prefix)
{
    for (const auto &[key, v] : obj.members) {
        if (key.empty() || key.find('.') != std::string::npos) {
            MEMPOD_PANIC("SimConfig::fromJson: invalid object key "
                         "\"%s\"",
                         key.c_str());
        }
        const std::string dotted = prefix.empty() ? key : prefix + "." + key;
        switch (v.kind) {
          case json::Value::Kind::kObject:
            applyObject(cfg, v, dotted);
            break;
          case json::Value::Kind::kBool:
            cfg.set(dotted, v.boolean ? "true" : "false");
            break;
          case json::Value::Kind::kNumber:
          case json::Value::Kind::kString:
            cfg.set(dotted, v.text);
            break;
          default:
            MEMPOD_PANIC("SimConfig::fromJson: key '%s' holds an array "
                         "or null; expected an object, number, string "
                         "or boolean",
                         dotted.c_str());
        }
    }
}

} // namespace

std::string
SimConfig::toJson() const
{
    json::Value root;
    for (const Field &f : fieldTable()) {
        json::Value *node = &root;
        for (const std::string &seg : splitKey(f.key))
            node = &child(*node, seg);
        *node = f.get(*this);
    }
    return json::pretty(root) + "\n";
}

void
SimConfig::set(const std::string &key, const std::string &value)
{
    for (const Field &f : fieldTable()) {
        if (key == f.key) {
            f.set(*this, value);
            return;
        }
    }
    MEMPOD_PANIC("unknown config key '%s' (see EXPERIMENTS.md for the "
                 "schema)",
                 key.c_str());
}

SimConfig
SimConfig::fromJson(const std::string &text)
{
    const json::Parsed doc = json::parse(text);
    if (doc.error) {
        MEMPOD_PANIC("SimConfig::fromJson: %s (at byte %zu)",
                     doc.error->message.c_str(), doc.error->offset);
    }
    if (doc.value.kind != json::Value::Kind::kObject)
        MEMPOD_PANIC("SimConfig::fromJson: top level must be an object");
    SimConfig cfg;
    applyObject(cfg, doc.value, "");
    return cfg;
}

} // namespace mempod
