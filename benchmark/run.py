#!/usr/bin/env python3
"""Host-throughput benchmark of the MemPod simulator.

Builds benchmark/runner (CMake, RelWithDebInfo) into benchmark/build/,
runs each workload in its own child process, checks the simulated
outputs, and prints every metric by name and unit.

  python3 benchmark/run.py                  all workloads, end-to-end
  python3 benchmark/run.py --traced         all workloads, per-layer
  python3 benchmark/run.py --smoke          ~3% of the records, 1 rep
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                                            one workload; the last stdout
                                            line is one JSON result object
  python3 benchmark/run.py --compare BASE_DIR CHANGE_DIR
                                            verdict per workload and metric
                                            over two sets of results files

Exit status: 0 when every check passed, 1 when a rep failed or a check
did not hold, 2 when the runner could not be built.
"""

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
RUNNER = BUILD / "runner"
REFERENCES = HERE / "references.json"

# At full length (3M records, ~123 windows) the sampled estimate must
# land this close to the detailed AMMAT of the same trace; measured
# errors on seeds 1-10 stay below 2%. Shorter runs have too few windows
# for this bound (up to 6% at 750k records), so they skip it.
SAMPLED_TOLERANCE_PCT = 5.0
# Smoke runs divide every record count by this; the sampled workload
# still completes the simulator's minimum of 3 measurement windows.
SMOKE_DIVISOR = 30
# A traced cycle runs six or seven variants; shorter reps fit more
# cycles into the run, and the per-layer shares are differences of
# their times.
TRACED_DIVISOR = 4
MIN_REPS = 3
# The runner times a fixed reference workload around every rep; on this
# shared VM the simulator slows in step with it (see runner.cc), so each
# host time below is rescaled by REFERENCE_IDLE_S / that rep's reference
# time. The constant is the reference's time on the 4-vCPU x86_64 VM the
# bounds were set on, in a quiet period; it only fixes the unit.
REFERENCE_IDLE_S = 0.025
# Which statistic of its per-rep values an end-to-end metric reports;
# the rest report the median. The host here also switches, for seconds
# to minutes, into a state where the simulator runs up to 1.8x slower
# while the reference slows by only 1.3x. The better quartile of the
# Simulation::run times reads the normal state whenever a quarter of the
# run had it; over 24 runs per workload it cut the spread across runs
# from 7-14% (median) to 5-10%. Setup times are too short to be hit
# that way, and their median spread less than their quartile.
REPORTED = {"records_per_s": "q3", "cpu_s_per_mrecord": "q1"}


@dataclass(frozen=True)
class Variant:
    name: str
    sets: tuple
    # True when the variant must reproduce the base output byte for
    # byte, so its time difference is exact host cost.
    exact: bool


@dataclass(frozen=True)
class Workload:
    name: str
    mechanism: str
    trace: str
    records: int
    sets: tuple = ()
    native: bool = False  # replay from a native v2 file recorded first
    reference: Variant = None  # untimed comparison run of the same trace
    traced: tuple = ()  # variants the traced run adds for this workload


# The PDES executor's rep, traced on mempod_xalanc only: 3 workers plus
# the coordinator, with the host profiler on for the shard lanes. Its
# wall time is mostly thread wake-ups at the window barriers, and on a
# shared 4-vCPU VM those swing 2-4x with the state of the other vCPUs
# (one busy process beside it can halve it), so it is too unsteady for a
# bounded end-to-end workload and is read as pdes.* per-layer metrics.
SHARDED = Variant("sharded", ("sim.shards=3", "perf.enabled=true"), True)

# Reps are short (0.3-0.7 s serial) so that one run holds 25-60 of
# them; the sampled trace must stay long for its accuracy check.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mempod_xalanc", "mempod", "xalanc", 250_000,
                 traced=(SHARDED,)),
        Workload("tlm_mcf", "none", "mcf", 250_000),
        Workload("cameo_lbm", "cameo", "lbm", 150_000),
        Workload(
            "mempod_xalanc_sampled", "mempod", "xalanc", 3_000_000,
            sets=("sim.sampling.enabled=true",), native=True,
            reference=Variant(
                "detailed", ("sim.sampling.enabled=false",), False)),
    )
}

# The traced run's rep with the host profiler and the trace-source
# timing wrapper on; it must not change any output.
PROBE = Variant("probe", ("perf.enabled=true",), True)
KNOCKOUTS = (
    Variant("ledger_off", ("decisions.enabled=false",), True),
    Variant("validate_off", ("validate.enabled=false",), True),
    Variant("manager_off", ("mechanism=none",), False),
    Variant("dram_fast", ("dram.model=fast",), False),
)

# Metric names and units come from BENCHMARK.json; every one listed
# there must be computed below.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


# ---------------------------------------------------------------- stats

def summary(values):
    """Median and quartiles as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def verdict(base, change, better, bound):
    """Compare two sets of runs of one metric under its bound.

    'regressed' when the change's median is worse than the parent's by
    more than `bound` (a share of the parent median); 'unresolved' when
    the parent's own quartile spread exceeds the bound, unless every
    change run beats every parent run; 'improved' when the change wins
    at least 9 of 10 alternating pairs and its median differs by more
    than the parent's spread; otherwise 'within bound'.
    """
    sb, sc = summary(base), summary(change)
    sign = 1.0 if better == "higher" else -1.0
    mb = sb["median"]
    spread = (sb["q3"] - sb["q1"]) / abs(mb) if mb else float("inf")
    gain = sign * (sc["median"] - mb) / abs(mb) if mb else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if gain > spread and wins >= 0.9 * min(len(base), len(change)):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    return "within bound"


# ---------------------------------------------------------------- build

class BuildError(Exception):
    pass


def build():
    """Configure (once) and build the runner; return its --info."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BuildError(f"simulator sources not found under {ROOT}/src")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "runner",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                raise BuildError("command failed: " + " ".join(cmd))
    out = subprocess.run([str(RUNNER), "--info"], capture_output=True,
                         text=True, check=True).stdout
    info = json.loads(out)
    if info["build_type"] == "Debug":
        raise BuildError("refusing to time a Debug build; delete "
                         f"{BUILD} and rerun")
    return info


def provenance(info, args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        try:
            r = subprocess.run(["git", "-C", str(ROOT), *cmd], env=env,
                               capture_output=True, text=True)
        except OSError:
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "revision": rev,
        "dirty": None if status is None else bool(status),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "flags": info["flags"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "smoke" if args.smoke else
                "traced" if args.trace else "end_to_end",
    }


# ------------------------------------------------------------------ run

def child_command(w, seed, records, seconds, traced, smoke, native):
    cmd = [str(RUNNER), "--mechanism", w.mechanism, "--trace", w.trace,
           "--seed", str(seed), "--records", str(records),
           "--seconds", str(seconds)]
    for s in w.sets:
        cmd += ["--set", s]
    if native:
        cmd += ["--native", str(native)]

    def spec(v):
        return v.name + (":" + ",".join(v.sets) if v.sets else "")

    cmd += ["--min-reps", "1" if smoke else str(MIN_REPS)]
    if w.reference:
        cmd += ["--once", spec(w.reference)]
    if traced:
        cmd += ["--variant", "base"]
        for v in (PROBE,) + KNOCKOUTS + w.traced:
            cmd += ["--variant", spec(v)]
    return cmd


def collect(cmd, timeout):
    """Run one child; return (parsed stdout lines, failure or None)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        died = None if proc.returncode == 0 else \
            f"child exited with status {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        died = f"child timed out after {timeout} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = []
    for text in out.splitlines():
        try:
            lines.append(json.loads(text))
        except ValueError:
            pass
    if died is None and not any(l.get("kind") == "end" for l in lines):
        died = "child ended without its final line"
    return lines, died


def run_workload(w, seed, seconds, traced, smoke, references):
    records = w.records // (SMOKE_DIVISOR if smoke else
                            TRACED_DIVISOR if traced else 1)
    pinned = references["workloads"].get(w.name)
    expect = pinned if (pinned and seed == references["seed"]
                        and records == pinned["records"]) else None
    native = None
    if w.native:
        (BUILD / "traces").mkdir(exist_ok=True)
        native = BUILD / "traces" / f"{w.name}-{seed}-{os.getpid()}.trc"
    cmd = child_command(w, seed, records, seconds, traced, smoke, native)
    try:
        lines, died = collect(cmd, timeout=2 * seconds + 120)
    finally:
        if native:
            native.unlink(missing_ok=True)
    tolerance = SAMPLED_TOLERANCE_PCT if records == w.records else None
    return evaluate(w, lines, died, expect, traced,
                    planned=1 if smoke else MIN_REPS, tolerance=tolerance)


# ------------------------------------------------------------- evaluate

def evaluate(w, lines, died, expect, traced, planned=MIN_REPS,
             tolerance=SAMPLED_TOLERANCE_PCT):
    """Check outputs and derive every metric from the child's lines."""
    by_kind = {}
    for line in lines:
        by_kind.setdefault(line["kind"], []).append(line)
    reps = by_kind.get("rep", [])
    warm = (by_kind.get("warmup") or [None])[0]
    once = {l["variant"]: l for l in by_kind.get("once", [])}
    end = (by_kind.get("end") or [{}])[0]
    prepare = (by_kind.get("prepare") or [{}])[0]

    # Every check below compares against one digest. Its sources must
    # agree with each other first; if they do not, every rep fails.
    errors = []
    sources = []
    if expect:
        sources.append(("pinned reference", expect["digest"]))
    if warm:
        sources.append(("warm-up rep", warm["digest"]))
    want = sources[0][1] if sources else None
    for label, digest in sources[1:]:
        if digest != want:
            errors.append(f"{label} digest {digest} != {sources[0][0]} "
                          f"{want}")

    # The untimed reference run changes the fidelity, so it is compared
    # by its AMMAT, not its digest.
    detailed = None
    if w.reference and w.reference.name in once:
        detailed = once[w.reference.name]["ammat_ns"]
        if expect and detailed != expect["detailed_ammat_ns"]:
            errors.append(f"detailed ammat_ns {detailed!r} != pinned "
                          f"{expect['detailed_ammat_ns']!r}")

    exact = {v.name for v in (PROBE,) + KNOCKOUTS + w.traced
             if v.exact} | {"base"}
    first = {}
    passed = 0 if errors else sum(
        rep_ok(r, want if r["variant"] in exact else
               first.setdefault(r["variant"], r["digest"]),
               expect, detailed, tolerance, errors)
        for r in reps)
    # A dead child fails the rep it was running and any of the
    # `planned` reps it never reached.
    attempted = max(len(reps) + 1, planned) if died else max(len(reps), 1)
    failed = attempted - passed
    if died:
        errors.insert(0, died)

    base = [r for r in reps if r["variant"] == "base"]
    result = {
        "workload": w.name,
        "records": base[0]["records"] if base else 0,
        "reps": len(base),
        # How much slower than REFERENCE_IDLE_S the host ran (`scaled`).
        "host_slowdown": summary(r["ref_s"] / REFERENCE_IDLE_S
                                 for r in base)["median"],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": failed == 0 and not errors,
        "errors": errors,
        "checked": checked_outputs(base, detailed),
    }
    if "record_s" in prepare:
        # One-time native recording: preparation, printed, not gated.
        result["record_s"] = prepare["record_s"]
    if traced:
        result["per_layer"] = layer_metrics(by_kind, once, detailed)
    else:
        result["end_to_end"] = end_to_end_metrics(base, end)
    return result


def rep_ok(r, digest, expect, detailed, tolerance, errors):
    """One rep's output checks; a failure is appended to `errors`."""
    ok = r["digest"] == digest
    if ok and expect and r["variant"] == "base":
        ok = (r["ammat_ns"] == expect["ammat_ns"]
              and r["events"] == expect["events"])
    if ok and r["variant"] == "base" and tolerance is not None \
            and detailed is not None:
        ok = ammat_err_pct(r, detailed) <= tolerance
    if not ok:
        errors.append(f"{r['kind']} {r['variant']}: output check failed "
                      f"(digest {r['digest']}, ammat_ns {r['ammat_ns']!r})")
    return ok


def checked_outputs(base, detailed):
    if not base:
        return {}
    r = base[0]
    out = {"digest": r["digest"], "ammat_ns": r["ammat_ns"],
           "events": r["events"]}
    if detailed is not None and "sampled_ammat_ns" in r:
        out["detailed_ammat_ns"] = detailed
        out["sampled_ammat_ns"] = r["sampled_ammat_ns"]
        out["ammat_err_pct"] = ammat_err_pct(r, detailed)
    return out


def ammat_err_pct(rep, detailed):
    return abs(rep["sampled_ammat_ns"] - detailed) / detailed * 100


def scaled(r, seconds):
    """A host time of rep `r` at the host speed of REFERENCE_IDLE_S."""
    return seconds * REFERENCE_IDLE_S / r["ref_s"]


def end_to_end_metrics(base, end):
    values = {
        "records_per_s": [r["records"] / scaled(r, r["run_s"])
                          for r in base],
        "setup_s": [scaled(r, r["setup_trace_s"] + r["setup_ctor_s"])
                    for r in base],
        "peak_rss_mib": [end["peak_rss_mib"]] if "peak_rss_mib" in end
        else [],
        "cpu_s_per_mrecord": [scaled(r, r["cpu_s"]) / r["records"] * 1e6
                              for r in base],
    }
    out = {}
    for name, unit in END_TO_END:
        s = summary(values[name])
        out[name] = dict(s, value=s[REPORTED.get(name, "median")], unit=unit)
    return out


def layer_metrics(by_kind, once, detailed):
    """Per-layer metrics of a traced run; 0 where a layer is absent."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    runs = {}
    for r in by_kind.get("rep", []):
        runs.setdefault(r["variant"], []).append(r)
    if not runs.get("base") or not runs.get("probe"):
        return m

    def wall(variant):
        return statistics.median(scaled(r, r["run_s"])
                                 for r in runs[variant])

    def saved(variant):
        return 1.0 - wall(variant) / t_base if variant in runs else 0.0

    def per(n, d, scale=1.0):
        return scale * n / d if d else 0.0

    base = runs["base"][0]
    t_base = wall("base")
    n = base["records"]
    # Trace-source self time: the wrapper's interval minus the cost of
    # the clock read it adds to every call.
    trace_ns = statistics.median(
        scaled(r, r["trace_ns"] - r["trace_calls"] * r["clock_ns"])
        for r in runs["probe"])
    perf = runs["probe"][0].get("perf", {})
    counters = perf.get("counters", {})
    gauges = perf.get("gauges", {})
    events = base["events"]
    ticks = counters.get("channel.ticks", 0)
    placed = [v for k, v in counters.items()
              if k.startswith("eq.placed_level")]
    m.update({
        "trace.ns_per_record": per(trace_ns, n),
        "trace.host_frac": per(trace_ns, t_base * 1e9),
        "setup.trace_s": statistics.median(
            scaled(r, r["setup_trace_s"]) for r in runs["base"]),
        "setup.sim_ctor_s": statistics.median(
            scaled(r, r["setup_ctor_s"]) for r in runs["base"]),
        "frontend.mshr_wait_ns": base["mshr_wait_ns"],
        "manager.host_frac": saved("manager_off"),
        "manager.migrations_per_krecord": per(base["migrations"], n, 1e3),
        "manager.blocked_per_krecord": per(base["blocked"], n, 1e3),
        "manager.wasted_frac": per(base["wasted"], base["migrations"]),
        "ledger.host_frac": saved("ledger_off"),
        "ledger.records_per_krecord": per(base["decisions"], n, 1e3),
        "validate.host_frac": saved("validate_off"),
        "dram.host_frac": saved("dram_fast"),
        "dram.ticks_per_record": per(ticks, n),
        "dram.arb_passes_per_tick": per(
            counters.get("channel.arb_passes", 0), ticks),
        "dram.issue_frac": per(counters.get("channel.issued", 0), ticks),
        "dram.work_bank_density": gauges.get(
            "channel.work_bank_density", 0.0),
        "dram.row_hit_rate": base["row_hit_rate"],
        "dram.queue_wait_ns": base["queue_wait_ns"],
        "dram.service_ns": base["service_ns"],
        "kernel.events_per_record": per(events, n),
        "kernel.ns_per_event": per(t_base * 1e9, events),
        "kernel.level0_frac": per(
            counters.get("eq.placed_level0", 0), sum(placed)),
        "kernel.cascades_per_kevent": per(
            counters.get("eq.cascades", 0), events, 1e3),
        "kernel.peak_pending": counters.get("eq.peak_pending", 0),
        "probe.overhead_frac": wall("probe") / t_base - 1.0,
    })
    if runs.get("sharded"):
        # Against the serial probe rep: both carry the profiler and the
        # timing wrapper, so the ratio is the executor's alone.
        pdes = runs["sharded"][0]["perf"]
        shards = pdes["shards"]
        lane_ns = len(shards) * pdes["run_ns"]
        m.update({
            "pdes.speedup_vs_serial": per(wall("probe"), wall("sharded")),
            "pdes.windows_per_krecord": per(pdes["windows"], n, 1e3),
            "pdes.events_per_window": per(events, pdes["windows"]),
            "pdes.busy_frac": per(sum(s["busy_ns"] for s in shards),
                                  lane_ns),
            "pdes.stall_frac": per(sum(s["stall_ns"] for s in shards),
                                   lane_ns),
            "pdes.work_imbalance": pdes["gauges"].get(
                "exec.work_imbalance", 0.0),
        })
    if "sampled_ammat_ns" in base and detailed is not None:
        ref = once["detailed"]
        m.update({
            "fidelity.event_reduction": per(ref["events"], events),
            "fidelity.wall_speedup": per(scaled(ref, ref["run_s"]),
                                         t_base),
            "fidelity.windows": base["sample_windows"],
            "fidelity.ci_ns": base["sampled_ci_ns"],
            "fidelity.ci_covers": float(
                abs(base["sampled_ammat_ns"] - detailed)
                <= base["sampled_ci_ns"]),
            "fidelity.ammat_err_pct": ammat_err_pct(base, detailed),
        })
    m["residual_frac"] = (1.0 - m["trace.host_frac"]
                          - m["manager.host_frac"] - m["dram.host_frac"])
    return m


# --------------------------------------------------------------- output

def print_result(res, traced):
    status = "ok" if res["correct"] else "FAILED"
    print(f"\n== {res['workload']}: {res['records']} records x "
          f"{res['reps']} reps, failed_frac {res['failed_frac']:.3g} "
          f"({res['failed']}/{res['attempted']}) {status}")
    if traced:
        for name, unit in PER_LAYER:
            print(f"  {name:34s} {res['per_layer'][name]:>16.6g} {unit}")
    else:
        for name, unit in END_TO_END:
            s = res["end_to_end"][name]
            print(f"  {name:20s} {s['value']:>14.6g} {unit:10s} "
                  f"median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  n={s['n']}")
    for key, value in res["checked"].items():
        print(f"  checked {key:18s} {value!r}")
    if "record_s" in res:
        print(f"  native recording   {res['record_s']:.3f} s (not gated)")
    for e in res["errors"]:
        print(f"  error: {e}")


def contract_line(res, traced):
    if traced:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": res["end_to_end"][name]["value"],
                          "unit": unit} for name, unit in END_TO_END}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def compare(base_dir, change_dir):
    """Verdict per workload and end-to-end metric over results files."""
    def load(d):
        runs = {}
        for path in sorted(Path(d).glob("*.json")):
            for name, res in json.loads(path.read_text())[
                    "workloads"].items():
                for metric, s in res.get("end_to_end", {}).items():
                    runs.setdefault((name, metric), []).append(s["value"])
        return runs

    base, change = load(base_dir), load(change_dir)
    regressed = False
    for m in SPEC["end_to_end"]:
        for name in WORKLOADS:
            key = (name, m["name"])
            if key not in base or key not in change:
                continue
            v = verdict(base[key], change[key], m["better"], m["bound"])
            regressed |= v == "regressed"
            print(f"{name:24s} {m['name']:20s} "
                  f"{summary(base[key])['median']:>12.6g} -> "
                  f"{summary(change[key])['median']:>12.6g}  {v}")
    return 1 if regressed else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="timed seconds per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 runs the traced per-layer mode")
    p.add_argument("--traced", dest="trace", action="store_const", const=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    try:
        info = build()
    except (BuildError, OSError, subprocess.CalledProcessError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    traced = bool(args.trace)
    seconds = 0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, seconds, traced,
                           args.smoke, references)
        results[name] = res
        print_result(res, traced)
    doc = {"provenance": provenance(info, args), "workloads": results}
    (BUILD / "results.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.workload:
        print(json.dumps(contract_line(results[args.workload], traced)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
