#!/usr/bin/env python3
"""Tests for check_bench_overhead.py, run as part of CI.

The gate script is itself load-bearing -- a silent mis-dispatch would let a
perf regression through -- so these tests pin its contract: reports are
dispatched by JSON "name", the pool-scaling gates skip (not fail) below
SCALE_MIN_CORES, malformed reports fail loudly, and a run with no gateable
report is an error rather than a green build.

Each test invokes the script as a subprocess on synthetic reports, the same
way CI does.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_overhead.py")


def metric(name, median_ns, **extra):
    m = {"name": name, "median": median_ns, "unit": "ns"}
    m.update(extra)
    return m


def transports_report(cores=8, watchdog_ns=1.0, expose_ns=5e3,
                      pool4_ns=50e3, rdma_sync_ns=27e3):
    """A micro_transports report that passes every gate by default."""
    return {
        "schema": "flexio-bench-v1",
        "name": "micro_transports",
        "counters": {"bench.hw_concurrency": cores},
        "metrics": [
            metric("BM_MetricsCounterEnabled", 10.0),
            metric("BM_MetricsCounterDisabled", 1.0),
            metric("BM_TraceSpanDisabled", 1.0),
            metric("BM_FlightRecorderDisabled", 1.0),
            metric("BM_FlightRecorderIdle", 2.0),
            metric("BM_WatchdogDisabled", watchdog_ns),
            metric("BM_StatsExposeSnapshot", expose_ns),
            metric("BM_RdmaSyncSendRoundTrip", rdma_sync_ns),
            metric("BM_StreamStepParallelPack/0/manual_time", 101e3),
            metric("BM_StreamStepParallelPack/1/manual_time", 100e3),
            metric("BM_StreamStepParallelPack/4/manual_time", pool4_ns),
            metric("BM_StreamStepParallelUnpack/0/manual_time", 101e3),
            metric("BM_StreamStepParallelUnpack/1/manual_time", 100e3),
            metric("BM_StreamStepParallelUnpack/4/manual_time", pool4_ns),
        ],
    }


def pack_report(seed_ns=1000.0, strided_ns=100.0, zion_us=800.0):
    return {
        "schema": "flexio-bench-v1",
        "name": "micro_pack",
        "metrics": [
            metric("BM_PackSeedInterior3D", seed_ns),
            metric("BM_PackStridedInterior3D", strided_ns),
            {"name": "BM_CodZionFilter", "median": zion_us, "unit": "us"},
        ],
    }


class CheckBenchOverheadTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_report(self, report, filename="report.json"):
        path = os.path.join(self.tmp.name, filename)
        with open(path, "w") as f:
            json.dump(report, f)
        return path

    def run_script(self, *paths):
        return subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True)

    def test_passing_transports_report(self):
        proc = self.run_script(self.write_report(transports_report()))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok: BM_WatchdogDisabled", proc.stdout)
        self.assertIn("ok: BM_StatsExposeSnapshot", proc.stdout)
        self.assertIn("ok: BM_RdmaSyncSendRoundTrip", proc.stdout)

    def test_dispatch_by_report_name(self):
        # A micro_pack report must hit the pack gate, not the overhead
        # gate, regardless of argument order or file name.
        path = self.write_report(pack_report(), "BENCH_weird_name.json")
        proc = self.run_script(path)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("pack speedup", proc.stdout)
        self.assertNotIn("BM_WatchdogDisabled", proc.stdout)

    def test_passing_pack_report(self):
        proc = self.run_script(self.write_report(pack_report()))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok: pack speedup", proc.stdout)
        self.assertIn("ok: BM_CodZionFilter", proc.stdout)

    def test_zion_plugin_over_budget_fails(self):
        # 4.8 ms per piece: the stack VM with its payload copies.
        report = pack_report(zion_us=4800.0)
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL: BM_CodZionFilter", proc.stdout)

    def test_zion_plugin_missing_fails(self):
        report = pack_report()
        report["metrics"] = [m for m in report["metrics"]
                             if m["name"] != "BM_CodZionFilter"]
        proc = self.run_script(self.write_report(report))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("BM_CodZionFilter", proc.stderr + proc.stdout)
        self.assertIn("missing from report", proc.stderr + proc.stdout)

    def test_watchdog_over_budget_fails(self):
        report = transports_report(watchdog_ns=50.0)  # > max(5, 0.6 * 10)
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL: BM_WatchdogDisabled", proc.stdout)

    def test_expose_over_budget_fails(self):
        report = transports_report(expose_ns=5e6)  # > 1 ms sanity budget
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL: BM_StatsExposeSnapshot", proc.stdout)

    def test_rdma_sync_over_budget_fails(self):
        # 160 us per message: the cost when empty-queue polls sleep.
        report = transports_report(rdma_sync_ns=160e3)
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL: BM_RdmaSyncSendRoundTrip", proc.stdout)

    def test_scaling_gate_skips_below_min_cores(self):
        # 4 threads no faster than serial would fail the speedup gate, but
        # on a 2-core report the gate must skip instead.
        report = transports_report(cores=2, pool4_ns=100e3)
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("skip:", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)

    def test_scaling_gate_binds_at_min_cores(self):
        report = transports_report(cores=4, pool4_ns=100e3)
        proc = self.run_script(self.write_report(report))
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("speedup", proc.stdout)

    def test_malformed_report_fails(self):
        path = os.path.join(self.tmp.name, "bad.json")
        with open(path, "w") as f:
            f.write("{ not json")
        proc = self.run_script(path)
        self.assertNotEqual(proc.returncode, 0)

    def test_wrong_schema_fails(self):
        report = transports_report()
        report["schema"] = "flexio-bench-v0"
        proc = self.run_script(self.write_report(report))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("unexpected schema", proc.stderr + proc.stdout)

    def test_missing_metric_fails(self):
        for name in ("BM_WatchdogDisabled", "BM_RdmaSyncSendRoundTrip"):
            with self.subTest(name=name):
                report = transports_report()
                report["metrics"] = [m for m in report["metrics"]
                                     if m["name"] != name]
                proc = self.run_script(self.write_report(report))
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn(name, proc.stderr + proc.stdout)
                self.assertIn("missing from report", proc.stderr + proc.stdout)

    def test_no_gateable_report_fails(self):
        report = transports_report()
        report["name"] = "per_stream_latency_table"
        proc = self.run_script(self.write_report(report))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("no gateable report", proc.stderr + proc.stdout)

    def test_multiple_reports_any_order(self):
        pack = self.write_report(pack_report(), "pack.json")
        transports = self.write_report(transports_report(),
                                       "transports.json")
        proc = self.run_script(pack, transports)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("pack speedup", proc.stdout)
        self.assertIn("BM_WatchdogDisabled", proc.stdout)


if __name__ == "__main__":
    unittest.main()
