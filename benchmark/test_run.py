"""Self-tests of the benchmark driver: python3 -m unittest discover benchmark"""

import json
import statistics
import sys
import unittest

import run

WORKLOAD = run.WORKLOADS["mempod_xalanc"]
SAMPLED = run.WORKLOADS["mempod_xalanc_sampled"]


def rep(kind="rep", variant="base", digest="d1", ammat=50.0, run_s=1.0,
        **extra):
    line = {"kind": kind, "variant": variant, "setup_trace_s": 0.1,
            "setup_ctor_s": 0.01, "run_s": run_s, "cpu_s": run_s,
            "records": 1000, "events": 8000, "digest": digest,
            "ammat_ns": ammat, "migrations": 8, "blocked": 2, "wasted": 0,
            "row_hit_rate": 0.8, "mshr_wait_ns": 0.0, "queue_wait_ns": 30.0,
            "service_ns": 20.0, "decisions": 8,
            "ref_s": run.REFERENCE_IDLE_S}
    line.update(extra)
    return line


def child_lines(n=3, digest="d1", ammat=50.0):
    return ([rep("warmup", digest=digest, ammat=ammat)]
            + [rep(digest=digest, ammat=ammat, run_s=1.0 + i / 10)
               for i in range(n)]
            + [{"kind": "end", "cycles": n, "peak_rss_mib": 70.0}])


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        s = run.summary([5, 1, 4, 2, 3])
        self.assertEqual(s["median"], 3)
        self.assertEqual((s["q1"], s["q3"]), (1.5, 4.5))
        self.assertEqual(s["n"], 5)

    def test_matches_statistics_quantiles(self):
        values = [0.91, 1.07, 0.99, 1.12, 1.01, 0.95, 1.03, 1.2, 0.88, 1.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        s = run.summary(values)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, med, q3))

    def test_one_and_no_value(self):
        self.assertEqual(run.summary([7.0]),
                         {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1})
        self.assertEqual(run.summary([])["n"], 0)


class VerdictTest(unittest.TestCase):
    BASE = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_higher_is_better_regression(self):
        change = [v * 0.85 for v in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "higher", 0.1),
                         "regressed")

    def test_lower_is_better_regression(self):
        change = [v * 1.15 for v in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "lower", 0.1),
                         "regressed")

    def test_direction_decides_improvement(self):
        faster = [v * 1.15 for v in self.BASE]
        self.assertEqual(run.verdict(self.BASE, faster, "higher", 0.1),
                         "improved")
        self.assertEqual(run.verdict(self.BASE, faster, "lower", 0.1),
                         "regressed")

    def test_within_bound(self):
        change = [v * 0.97 for v in self.BASE]
        self.assertEqual(run.verdict(self.BASE, change, "higher", 0.1),
                         "within bound")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [v * 0.95 for v in noisy]
        self.assertEqual(run.verdict(noisy, change, "higher", 0.1),
                         "unresolved")

    def test_noisy_but_every_change_run_better_is_resolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [200 + i for i in range(10)]
        self.assertEqual(run.verdict(noisy, change, "higher", 0.1),
                         "improved")


class OutputCheckTest(unittest.TestCase):
    def test_clean_run_passes(self):
        expect = {"records": 1000, "digest": "d1", "ammat_ns": 50.0,
                  "events": 8000}
        res = run.evaluate(WORKLOAD, child_lines(), None, expect, False)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (3, 0))
        self.assertEqual(res["end_to_end"]["records_per_s"]["median"],
                         1000 / 1.1)

    def test_run_times_report_the_better_quartile(self):
        res = run.evaluate(WORKLOAD, child_lines(n=8), None, None, False)
        e = res["end_to_end"]
        run_s = [1.0 + i / 10 for i in range(8)]
        self.assertAlmostEqual(
            e["records_per_s"]["value"],
            statistics.quantiles([1000 / t for t in run_s], n=4)[2])
        self.assertAlmostEqual(
            e["cpu_s_per_mrecord"]["value"],
            statistics.quantiles([t * 1e3 for t in run_s], n=4)[0])
        self.assertEqual(e["setup_s"]["value"], e["setup_s"]["median"])
        line = run.contract_line(res, traced=False)
        self.assertEqual(line["metrics"]["records_per_s"]["value"],
                         e["records_per_s"]["value"])

    def test_host_times_scale_with_the_reference(self):
        # A host running the reference 2x slower ran the rep 2x slower.
        lines = child_lines()
        for line in lines[1:-1]:
            line["ref_s"] = 2 * run.REFERENCE_IDLE_S
            line["run_s"] *= 2
        res = run.evaluate(WORKLOAD, lines, None, None, False)
        self.assertAlmostEqual(res["end_to_end"]["records_per_s"]["median"],
                               1000 / 1.1)
        self.assertEqual(res["host_slowdown"], 2.0)

    def test_tampered_reference_digest_fails_every_rep(self):
        expect = {"records": 1000, "digest": "tampered", "ammat_ns": 50.0,
                  "events": 8000}
        res = run.evaluate(WORKLOAD, child_lines(), None, expect, False)
        self.assertEqual(res["failed_frac"], 1.0)
        self.assertFalse(res["correct"])

    def test_tampered_reference_ammat_fails_every_rep(self):
        expect = {"records": 1000, "digest": "d1",
                  "ammat_ns": 50.000000000000007, "events": 8000}
        res = run.evaluate(WORKLOAD, child_lines(), None, expect, False)
        self.assertEqual(res["failed_frac"], 1.0)

    def test_inconsistent_rep_fails(self):
        lines = child_lines()
        lines[2]["digest"] = "d2"
        res = run.evaluate(WORKLOAD, lines, None, None, False)
        self.assertEqual((res["attempted"], res["failed"]), (3, 1))

    def test_sampled_estimate_outside_tolerance_fails(self):
        lines = ([rep("once", "detailed", digest="full", ammat=50.0)]
                 + child_lines())
        for line in lines:
            if line["kind"] in ("warmup", "rep"):
                line["sampled_ammat_ns"] = 54.0  # 8% off
        res = run.evaluate(SAMPLED, lines, None, None, False)
        self.assertEqual(res["failed_frac"], 1.0)
        res = run.evaluate(SAMPLED, lines, None, None, False,
                           tolerance=None)
        self.assertTrue(res["correct"])
        self.assertAlmostEqual(res["checked"]["ammat_err_pct"], 8.0)


class ChildFailureTest(unittest.TestCase):
    def child(self, body):
        """A stand-in runner: a warm-up and one rep, then `body`."""
        out = "\n".join(json.dumps(r) for r in (rep("warmup"), rep()))
        return [sys.executable, "-c",
                f"import os, signal, sys, time\n"
                f"print({out!r}, flush=True)\n{body}"]

    def test_killed_child_counts_as_failed(self):
        lines, died = run.collect(
            self.child("os.kill(os.getpid(), signal.SIGKILL)"), timeout=60)
        self.assertIn("status", died)
        res = run.evaluate(WORKLOAD, lines, died, None, False, planned=3)
        # One rep finished; the one in flight and the one never reached
        # are failures.
        self.assertEqual((res["attempted"], res["failed"]), (3, 2))
        self.assertFalse(res["correct"])
        self.assertTrue(all(isinstance(m["median"], float)
                            for m in res["end_to_end"].values()))

    def test_timed_out_child_is_killed_and_failed(self):
        lines, died = run.collect(self.child("time.sleep(60)"), timeout=1)
        self.assertIn("timed out", died)
        res = run.evaluate(WORKLOAD, lines, died, None, False, planned=1)
        self.assertEqual((res["attempted"], res["failed"]), (2, 1))

    def test_missing_final_line_is_a_failure(self):
        _, died = run.collect(self.child("sys.exit(0)"), timeout=60)
        self.assertIn("final line", died)


class ContractLineTest(unittest.TestCase):
    def test_end_to_end_line_has_every_metric(self):
        res = run.evaluate(WORKLOAD, child_lines(), None, None, False)
        line = run.contract_line(res, traced=False)
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in run.SPEC["end_to_end"]])

    def test_traced_line_has_every_per_layer_metric(self):
        lines = child_lines() + [rep(
            variant="probe", trace_ns=5000, trace_calls=1001, clock_ns=2.0,
            perf={"windows": 0, "run_ns": 10**9, "shards": [],
                  "counters": {"channel.ticks": 4000,
                               "eq.placed_level0": 9},
                  "gauges": {}})]
        res = run.evaluate(WORKLOAD, lines, None, None, True)
        line = run.contract_line(res, traced=True)
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in run.SPEC["per_layer"]])
        self.assertEqual(line["metrics"]["dram.ticks_per_record"]["value"],
                         4.0)
        # 5000 ns in the wrapper, 2 ns of it per call is the clock.
        self.assertEqual(line["metrics"]["trace.ns_per_record"]["value"],
                         (5000 - 1001 * 2.0) / 1000)


class ShardedVariantTest(unittest.TestCase):
    PERF = {"windows": 0, "run_ns": 10**9, "shards": [], "counters": {},
            "gauges": {}}

    def lines(self, sharded_digest="d1"):
        probe = rep(variant="probe", run_s=2.0, trace_ns=0, trace_calls=0,
                    clock_ns=0.0, perf=self.PERF)
        sharded = rep(variant="sharded", run_s=8.0, digest=sharded_digest,
                      trace_ns=0, trace_calls=0, clock_ns=0.0,
                      perf=dict(self.PERF, windows=400, shards=[
                          {"busy_ns": 10**8, "stall_ns": 7 * 10**8,
                           "events": 100}] * 2,
                          gauges={"exec.work_imbalance": 1.5}))
        return child_lines() + [probe, sharded]

    def test_only_mempod_xalanc_traces_the_sharded_rep(self):
        cmd = run.child_command(WORKLOAD, 42, 1000, 1, True, False, None)
        self.assertIn("sharded:sim.shards=3,perf.enabled=true", cmd)
        for w in run.WORKLOADS.values():
            cmd = run.child_command(w, 42, 1000, 1, False, False, None)
            self.assertFalse(any("shards" in a for a in cmd))

    def test_pdes_metrics_come_from_the_sharded_rep(self):
        res = run.evaluate(WORKLOAD, self.lines(), None, None, True)
        self.assertTrue(res["correct"])
        m = res["per_layer"]
        self.assertEqual(m["pdes.speedup_vs_serial"], 2.0 / 8.0)
        self.assertEqual(m["pdes.windows_per_krecord"], 400.0)
        self.assertEqual(m["pdes.events_per_window"], 8000 / 400)
        self.assertEqual(m["pdes.busy_frac"], 0.1)
        self.assertEqual(m["pdes.stall_frac"], 0.7)
        self.assertEqual(m["pdes.work_imbalance"], 1.5)

    def test_sharded_output_must_equal_serial(self):
        res = run.evaluate(WORKLOAD, self.lines("d2"), None, None, True)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)


if __name__ == "__main__":
    unittest.main()
