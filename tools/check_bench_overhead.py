#!/usr/bin/env python3
"""Perf-smoke gate: disabled instrumentation must stay (nearly) free.

Reads a BENCH_micro_transports.json report (schema flexio-bench-v1) and
checks that the disabled-path overhead benchmarks cost at most
max(ABS_BUDGET_NS, REL_BUDGET * enabled-counter cost). A disabled counter
or span is one relaxed atomic load plus a branch; if it ever approaches the
enabled fetch_add cost, someone put work on the wrong side of the gate.

With a second report argument (BENCH_micro_pack.json) it also gates the
strided pack kernel: on the 3-D interior-region workload the iterative
kernel must stay at least PACK_SPEEDUP_MIN times faster than the seed's
recursive kernel (both run the same workload, so the time ratio is the
inverse throughput ratio).

The transports report also carries the two worker-pool scaling benches:
BM_StreamStepParallelPack (1 writer -> 16 readers, the pack + send phase)
and its mirror BM_StreamStepParallelUnpack (16 writers -> 1 reader, the
recv + placement phase). For each, 4 threads must beat serial by at least
SCALE_SPEEDUP_MIN on the phase's wall time, and the pool machinery itself,
run at concurrency 1 (a zero-worker pool, arg 0), must cost within
SCALE_OVERHEAD_REL of the plain serial path. The scaling half only binds
when the report's bench.hw_concurrency counter shows at least
SCALE_MIN_CORES cores -- four threads cannot speed anything up on a
one-core container, so there the gate reports itself skipped instead of
failing the build.

The transports report also gates the RDMA sync path:
BM_RdmaSyncSendRoundTrip (39 KB kSync sends to a reader on another node,
each a full rendezvous round trip) must stay at or under
RDMA_SYNC_BUDGET_NS per message. An empty-queue NNTI poll that sleeps out
the kernel's timer slack instead of returning at once costs ~59 us a
time, and the round trip makes several of them, so this gate catches it.

With a BENCH_micro_many_streams.json report it gates the multiplexing
fairness and fan-in properties: pooled mouse p99 with elephant streams
sharing the link must stay within MOUSE_P99_FACTOR of the mice-only
baseline (skipped below SCALE_MIN_CORES cores, like the pool scaling
gates), and the shared-link registry must have used O(links) connections
-- at least MANY_STREAMS_MIN streams over at most MANY_ENDPOINTS_MAX
shared endpoints (always binding; endpoint counting needs no parallelism).

Reports are matched by their JSON "name" field, so arguments can come in
any order and any subset.

Usage: check_bench_overhead.py <BENCH_*.json> [<BENCH_*.json> ...]
"""
import json
import sys

ABS_BUDGET_NS = 5.0  # a load+branch costs ~1 ns; 5 leaves CI noise room
REL_BUDGET = 0.6     # disabled must be well under the enabled fetch_add

DISABLED = ["BM_MetricsCounterDisabled", "BM_TraceSpanDisabled",
            "BM_FlightRecorderDisabled", "BM_FlightRecorderIdle",
            "BM_WatchdogDisabled"]
ENABLED = "BM_MetricsCounterEnabled"

# Sanity bound on rendering one /metrics scrape (stats-server thread, not
# the data path): generous, it only catches accidental O(huge) regressions.
EXPOSE_BENCH = "BM_StatsExposeSnapshot"
EXPOSE_BUDGET_NS = 1e6

# Per-message median of a 39 KB RDMA sync send (~27 us measured; 160-190 us
# when empty-queue polls sleep).
RDMA_SYNC_BENCH = "BM_RdmaSyncSendRoundTrip"
RDMA_SYNC_BUDGET_NS = 80e3

PACK_SPEEDUP_MIN = 2.0
PACK_SEED = "BM_PackSeedInterior3D"
PACK_STRIDED = "BM_PackStridedInterior3D"

# (benchmark name, phase label) for the worker-pool scaling gates.
SCALE_BENCHES = [
    ("BM_StreamStepParallelPack", "pack+send"),
    ("BM_StreamStepParallelUnpack", "recv+unpack"),
]
SCALE_SPEEDUP_MIN = 1.5   # 4 threads vs serial, 16-way fan-out/fan-in
SCALE_OVERHEAD_REL = 0.02  # zero-worker pool (arg 0) vs plain serial
SCALE_MIN_CORES = 4

# Many-stream multiplexing gates (BENCH_micro_many_streams.json).
MOUSE_P99_FACTOR = 2.0     # mouse p99 with elephants vs mice-only
MANY_STREAMS_MIN = 1000    # streams the bench must have multiplexed
MANY_ENDPOINTS_MAX = 4     # shared endpoints those streams may cost

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def metric_ns(report, name, field):
    for metric in report["metrics"]:
        if metric["name"] == name:
            return metric[field] * UNIT_TO_NS[metric["unit"]]
    sys.exit(f"FAIL: metric {name!r} missing from report "
             f"(have: {[m['name'] for m in report['metrics']]})")


def median_ns(report, name):
    return metric_ns(report, name, "median")


def load_report(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "flexio-bench-v1":
        sys.exit(f"FAIL: unexpected schema {report.get('schema')!r} in {path}")
    return report


def check_overhead(report):
    enabled = median_ns(report, ENABLED)
    budget = max(ABS_BUDGET_NS, REL_BUDGET * enabled)
    failed = False
    for name in DISABLED:
        cost = median_ns(report, name)
        verdict = "ok" if cost <= budget else "FAIL"
        print(f"{verdict}: {name} median {cost:.2f} ns "
              f"(budget {budget:.2f} ns, enabled counter {enabled:.2f} ns)")
        failed |= cost > budget
    expose = median_ns(report, EXPOSE_BENCH)
    ok = expose <= EXPOSE_BUDGET_NS
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: {EXPOSE_BENCH} median {expose / 1e3:.1f} us "
          f"(sanity budget {EXPOSE_BUDGET_NS / 1e3:.0f} us)")
    failed |= not ok
    return failed


def check_rdma_sync(report):
    cost = median_ns(report, RDMA_SYNC_BENCH)
    ok = cost <= RDMA_SYNC_BUDGET_NS
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: {RDMA_SYNC_BENCH} median {cost / 1e3:.1f} us per "
          f"message (budget {RDMA_SYNC_BUDGET_NS / 1e3:.0f} us)")
    return not ok


def check_pack_speedup(report):
    seed = median_ns(report, PACK_SEED)
    strided = median_ns(report, PACK_STRIDED)
    speedup = seed / strided
    ok = speedup >= PACK_SPEEDUP_MIN
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: pack speedup {speedup:.2f}x "
          f"(seed {seed:.0f} ns vs strided {strided:.0f} ns, "
          f"need >= {PACK_SPEEDUP_MIN:.1f}x)")
    return not ok


def scale_medians(report, bench):
    """Median ns per scaling-bench arg (worker-pool thread count).

    Matched by prefix: google-benchmark appends /iterations:N/manual_time
    to the registered name, and pinning those suffixes here would couple
    the gate to bench tuning knobs.
    """
    out = {}
    for metric in report["metrics"]:
        name = metric["name"]
        if not name.startswith(bench + "/"):
            continue
        arg = int(name.split("/")[1])
        out[arg] = metric["median"] * UNIT_TO_NS[metric["unit"]]
    return out


def check_pool_scaling(report, bench, label):
    medians = scale_medians(report, bench)
    missing = [a for a in (0, 1, 4) if a not in medians]
    if missing:
        print(f"FAIL: {bench} args {missing} missing from report")
        return True
    serial, pool1, four = medians[1], medians[0], medians[4]
    failed = False

    overhead = pool1 / serial - 1.0
    ok = overhead <= SCALE_OVERHEAD_REL
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: {label} pool-at-1-thread overhead "
          f"{overhead * 100:+.1f}% "
          f"(pool {pool1 / 1e3:.0f} us vs serial {serial / 1e3:.0f} us, "
          f"budget {SCALE_OVERHEAD_REL * 100:.0f}%)")
    failed |= not ok

    cores = report.get("counters", {}).get("bench.hw_concurrency", 0)
    speedup = serial / four
    if cores < SCALE_MIN_CORES:
        print(f"skip: {label} scaling gate needs >= {SCALE_MIN_CORES} cores, "
              f"report ran on {cores} (measured {speedup:.2f}x at 4 threads)")
        return failed
    ok = speedup >= SCALE_SPEEDUP_MIN
    verdict = "ok" if ok else "FAIL"
    detail = ", ".join(f"{a}t {medians[a] / 1e3:.0f} us"
                       for a in sorted(medians) if a > 0)
    print(f"{verdict}: {label} speedup {speedup:.2f}x at 4 threads "
          f"({detail}; need >= {SCALE_SPEEDUP_MIN:.1f}x)")
    failed |= not ok
    return failed


def check_many_streams(report):
    counters = report.get("counters", {})
    streams = counters.get("bench.many_streams.streams", 0)
    endpoints = counters.get("bench.many_streams.shared_endpoints", 0)
    ok = streams >= MANY_STREAMS_MIN and endpoints <= MANY_ENDPOINTS_MAX
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: shared-link mode multiplexed {streams} streams over "
          f"{endpoints} shared endpoint(s) "
          f"(need >= {MANY_STREAMS_MIN} streams, <= {MANY_ENDPOINTS_MAX} "
          f"endpoints)")
    failed = not ok

    base = metric_ns(report, "many_streams.mouse_ns.mice_only", "p99")
    mixed = metric_ns(report, "many_streams.mouse_ns.with_elephants", "p99")
    factor = mixed / base
    cores = counters.get("bench.hw_concurrency", 0)
    if cores < SCALE_MIN_CORES:
        print(f"skip: mouse-p99 fairness gate needs >= {SCALE_MIN_CORES} "
              f"cores, report ran on {cores} (measured {factor:.2f}x)")
        return failed
    ok = factor <= MOUSE_P99_FACTOR
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict}: mouse p99 {mixed / 1e3:.0f} us with elephants vs "
          f"{base / 1e3:.0f} us mice-only ({factor:.2f}x, "
          f"budget {MOUSE_P99_FACTOR:.1f}x)")
    failed |= not ok
    return failed


def check_transports(report):
    failed = check_overhead(report)
    failed |= check_rdma_sync(report)
    for bench, label in SCALE_BENCHES:
        failed |= check_pool_scaling(report, bench, label)
    return failed


CHECKS = {
    "micro_transports": check_transports,
    "micro_pack": check_pack_speedup,
    "micro_many_streams": check_many_streams,
}


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    failed = False
    checked = 0
    for path in sys.argv[1:]:
        report = load_report(path)
        check = CHECKS.get(report.get("name"))
        if check is None:
            continue  # e.g. the per-stream latency table artifact
        failed |= bool(check(report))
        checked += 1
    if checked == 0:
        sys.exit("FAIL: no gateable report among the arguments")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
