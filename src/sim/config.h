/**
 * @file
 * Complete simulation configurations: which mechanism manages which
 * memory system. Presets cover the paper's Table 2 system, the
 * Figure 10 future system, and the single-technology baselines
 * (HBM-only, DDR-only).
 */
#pragma once

#include <cstdint>
#include <string>

#include "common/tracer.h"
#include "dram/channel.h"
#include "dram/spec.h"
#include "mem/address_map.h"
#include "sim/mechanism_params.h"

namespace mempod {

/** Which migration mechanism to instantiate. */
enum class Mechanism
{
    kNoMigration,
    kMemPod,
    kHma,
    kThm,
    kCameo,
};

const char *mechanismName(Mechanism m);

/**
 * Parse a mechanism name; accepts the canonical mechanismName()
 * spellings case-insensitively plus the CLI aliases ("none",
 * "nomigration", "tlm"). Returns false on unknown names.
 */
bool mechanismFromName(const std::string &name, Mechanism &out);

/** Everything needed to build one simulation. */
struct SimConfig
{
    Mechanism mechanism = Mechanism::kNoMigration;
    SystemGeometry geom = SystemGeometry::paper();
    /** Near (fast, on-package) memory device; `dram.near.*` keys. */
    DramSpec near = DramSpec::hbm1GHz();
    /** Far (slow, off-chip) memory device; `dram.far.*` keys. */
    DramSpec far = DramSpec::ddr4_1600();

    /**
     * Measurement-fidelity memory model (`dram.model` dotted key):
     * "detailed" is the cycle-faithful bank/row controller the paper's
     * numbers come from; "fast" replaces every channel with a
     * fixed-service-latency, bandwidth-capped queue (dram/fast_channel.h)
     * for quick sweeps. Sampled runs add their functional warm model on
     * top; no spelling selects it for measurement.
     */
    DramModel dramModel = DramModel::kDetailed;

    MemPodParams mempod;
    HmaParams hma;
    ThmParams thm;
    CameoParams cameo;

    std::uint32_t maxOutstanding = 64; //!< MSHR-style demand cap
    std::uint64_t placementSeed = 1;
    TimePs extraLatencyPs = 5000; //!< interconnect latency per access
    std::uint8_t numCores = 8;
    ControllerPolicy controller; //!< page policy + scheduler

    /**
     * Metric-sampling period for the interval time-series (JSONL
     * export); 0 disables the sampler entirely, leaving the event
     * stream untouched (golden runs depend on the executed-event
     * count).
     */
    TimePs statsIntervalPs = 0;

    /**
     * Conservative-PDES sharding (`sim.shards` dotted key): 0 runs the
     * legacy single-threaded kernel; N >= 1 gives every DRAM channel
     * its own timing wheel and spreads the wheels over N worker
     * threads synchronized at a lookahead horizon (see
     * sim/parallel.h). Output is byte-identical at every value —
     * domains, not shards, define the canonical event order — so this
     * is purely a host-parallelism knob. Clamped to the channel count.
     */
    std::uint32_t shards = 0;

    /**
     * SMARTS-style sampled simulation (`sim.sampling.*` dotted keys).
     * When enabled, the FidelityController (sim/fidelity.h) alternates
     * fast-forward warm-up windows — run under the functional model,
     * with MEA trackers, remap tables and the decision ledger live —
     * with detailed measurement windows run under `dram.model`. Each
     * period is `fastfwdPs + measurePs` of simulated time; the first
     * `warmupPct` percent of every measurement window re-warms queue
     * and bank state and is excluded from the AMMAT sample. The run
     * reports the sample mean with a Student-t confidence interval and
     * panics if fewer than `minWindows` windows complete.
     *
     * Pick a period (`fastfwdPs + measurePs`) coprime with the
     * mechanism's migration interval: a period that divides evenly
     * into epochs pins every measurement slice to the same phase of
     * the migration cycle and aliases the estimate (the default
     * 183 + 20 us period deliberately strides the paper's 50 us
     * MemPod interval).
     */
    struct SamplingParams
    {
        bool enabled = false;
        /** Detailed measurement window length, simulated ps. */
        TimePs measurePs = 20'000'000;
        /** Fast-forward window length between measurements, ps. */
        TimePs fastfwdPs = 183'000'000;
        /** Leading fraction of each measurement window (percent,
         *  0..99) treated as detailed warm-up, not measured. */
        std::uint32_t warmupPct = 30;
        /** Minimum completed measurement windows; fewer is an error. */
        std::uint32_t minWindows = 3;
    };
    SamplingParams sampling;

    /**
     * Causal event tracing (Chrome trace-event JSON). Disabled by
     * default; when disabled the only cost is one pointer test per
     * trace point (no events are added or removed from the queue, so
     * golden executed-event counts are unchanged either way).
     */
    TracerConfig tracer;

    /**
     * Host-side self-profiling (`perf.enabled` dotted key): wall-clock
     * phase scopes, PDES shard busy/stall accounting and a perf.json
     * sidecar (common/perf.h). Host time is only ever *read* — it
     * never feeds back into event scheduling — so enabling this
     * cannot change any simulation output byte; when disabled the
     * instrumented sites cost one branch on a null pointer.
     */
    bool perfEnabled = false;

    /**
     * Migration decision ledger (`decisions.enabled` dotted key): the
     * manager records every candidate selection and its outcome in a
     * DecisionLog (common/decision_log.h). Recording happens inside
     * existing manager callbacks — no events are added to the queue —
     * so golden executed-event counts and all timing outputs are
     * unchanged; the JSONL sidecar is only written when the runner is
     * given a decisions directory.
     */
    bool decisionsEnabled = true;

    /**
     * Always-on invariant checker (`validate.enabled` dotted key):
     * per-epoch conservation laws plus an end-of-run audit
     * (sim/validate.h). Checks piggyback on the existing progress
     * probe and only read state, so they cannot perturb any output.
     */
    bool validateEnabled = true;

    /**
     * Deep-scan mode (`validate.paranoid` dotted key): additionally
     * walk every remap/location table each epoch to verify the
     * permutation invariant. Each table stores only its migrated
     * entries, so a scan costs O(migrated state) per epoch — for CI
     * smokes and debugging, not the default.
     */
    bool validateParanoid = false;

    /** Paper Table 2: 1 GB HBM-1GHz + 8 GB DDR4-1600, 4 Pods. */
    static SimConfig paper(Mechanism m);

    /** Figure 10 future system: HBM-4GHz + DDR4-2400. */
    static SimConfig future(Mechanism m);

    /** 9 GB of stacked memory only (the "HBM" bar of Figure 8). */
    static SimConfig fastOnly(bool future = false);

    /** 9 GB of off-chip DDR only (Figure 10 normalization). */
    static SimConfig slowOnly(bool future = false);

    /**
     * Scale HMA's epoch machinery for reduced-length traces: keeps the
     * paper's epoch:stall ratio (100:7) and the 2000x MemPod:HMA epoch
     * ratio relative to `mempod.interval`, so short runs still see
     * several HMA epochs. `epoch_ratio` = HMA epoch / MemPod interval.
     */
    void scaleHmaEpoch(double epoch_ratio);

    std::string describe() const;

    /**
     * Serialize every field as nested JSON (dotted keys become
     * objects), in a fixed field order: fromJson(c.toJson()).toJson()
     * == c.toJson(). The schema is documented in EXPERIMENTS.md.
     */
    std::string toJson() const;

    /**
     * Build a config from JSON text produced by toJson() (or written
     * by hand; missing keys keep their defaults). Panics with a
     * descriptive message on malformed JSON or unknown keys.
     */
    static SimConfig fromJson(const std::string &json);

    /**
     * Apply one dotted-key override, e.g. set("mempod.interval",
     * "50000000") or set("mechanism", "MemPod") — the CLI's
     * `--set key=value`. Panics on unknown keys, unparsable values
     * and a zero where the knob must be positive (see validate()).
     */
    void set(const std::string &key, const std::string &value);

    /**
     * Panics naming the key of any knob that must be positive but is
     * 0 (a core count, device clock or geometry divisor, or a
     * migration interval); set() rejects the same values as they
     * arrive. Also rejects, by key, the relations set() cannot see
     * one key at a time: a refresh interval at or below tRFC (0 is
     * "refresh off") and a zero-capacity tier that has channels. The
     * Simulation checks this at construction.
     */
    void validate() const;
};

} // namespace mempod
