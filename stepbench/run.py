#!/usr/bin/env python3
"""Step benchmark of the FlexIO data plane: build, run one workload, report.

    python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library sources and the driver
in Release mode (into $CARGO_TARGET_DIR, default .bench_build), runs the
workload for S seconds as a closed loop, checks every delivered byte, and
prints one line per metric followed by a JSON object as the last line.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`python3 stepbench/run.py --all` runs every workload both ways.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import ledger  # noqa: E402

ROOT = HERE.parent
WRITERS = READERS = 2
RUN_TIMEOUT_S = 170
# A run measured while the hypervisor took more than this share of the
# machine's CPU time is measured again, at most MAX_ATTEMPTS times and only
# while the whole run stays within RETRY_BUDGET_S; the report flags a share
# above STEAL_WARNING.
STEAL_RETRY = 0.03
STEAL_WARNING = 0.05
MAX_ATTEMPTS = 2
RETRY_BUDGET_S = 140
# Set-ups per run that only open and close the streams. A set-up takes
# 0.04 to 2.5 ms, so setup_s needs many for its median to repeat.
SETUPS = 1000


def fail(msg, code=2):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "stepbench"


def build():
    """Configure once, then build incrementally. Returns the driver path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no FlexIO sources under {ROOT / 'src'}")
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        cmd = [cmake, "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run([cmake, "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "stepbench"


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_times():
    """Aggregate CPU time counters of /proc/stat (None where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor took in between
    (field 8 of /proc/stat). A contended host slows every timing, so runs
    with a high share are flagged rather than trusted."""
    if not before or not after or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_driver(driver, args, tag, options, deadline):
    """Run the driver on the workload and seed of `args` with the extra
    `options`; returns its JSON."""
    raw = build_dir() / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    prefix = raw / f"{args.workload}-{tag}"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(prefix), *options]
    timeout = deadline - time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    if res.returncode != 0:
        fail(f"{args.workload}: driver exited with {res.returncode}", 3)
    return load_json(f"{prefix}.json")


# The sample pool (ledger.end_to_end) behind each tail percentile.
TAIL_SAMPLES = {"step_visible_ms_p99": "visible",
                "step_latency_ms_p99": "latency"}


def report(raw, seed, trace, steal, bench):
    """Print and return the metrics BENCHMARK.json lists for this mode
    (end_to_end untraced, per_layer traced), with its units."""
    names = raw["span_names"]
    untraced = [s for s in raw["sessions"] if not s["traced"]]
    attempted = sum(s["steps"] for s in raw["sessions"])
    failed = sum(s["failed_steps"] for s in raw["sessions"])
    e2e, samples = ledger.end_to_end(
        [(s, ledger.load_spans(s["spans_file"], names))
         for s in untraced if s["timed"]],
        [s["setup_s"] for s in untraced], WRITERS, READERS)
    computed = dict(e2e)
    if trace:
        (traced,) = [s for s in raw["sessions"] if s["traced"]]
        computed.update(ledger.per_layer(
            traced, ledger.load_spans(traced["spans_file"], names),
            e2e["throughput_MBps"], WRITERS, READERS))
    listed = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in computed]
    if missing:
        raise ValueError(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: computed[m["name"]] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    release = raw["build_type"] == "Release" and raw["ndebug"]
    facts = {
        "workload": raw["workload"], "seed": seed, "trace": trace,
        "seconds": raw["seconds"], "nproc": os.cpu_count(),
        "hw_threads": raw["hw_threads"], "build_type": raw["build_type"],
        "release": release, "compiler": raw["compiler"],
        "git_commit": git_commit(), "steal_share": steal,
        "samples": samples,
        "attempted": attempted, "failed": failed,
        "error_rate": ledger.ratio(failed, attempted),
        "end_to_end": e2e, "metrics": metrics,
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{raw['workload']}-seed{seed}-trace{trace}.json",
              "w") as f:
        json.dump(facts, f, indent=1, sort_keys=True)

    if not release:
        print(f"WARNING: {raw['build_type']} build (ndebug={raw['ndebug']}); "
              "numbers are not comparable to Release runs")
    print(f"# {raw['workload']} seed={seed} trace={trace} "
          f"build={raw['build_type']} compiler={raw['compiler']} "
          f"nproc={os.cpu_count()} commit={facts['git_commit']} "
          f"steal={steal}")
    if steal is not None and steal > STEAL_WARNING:
        print(f"WARNING: the hypervisor took {steal:.1%} of the CPU time "
              "during the run; timings are not comparable")
    print(f"# samples: visible={samples['visible']} "
          f"latency={samples['latency']} timed_steps={samples['steps']}")
    for name, kind in TAIL_SAMPLES.items():
        if name in metrics and not ledger.tail_ok(samples[kind], 0.99):
            print(f"WARNING: {name} has "
                  f"{ledger.samples_beyond(samples[kind], 0.99)} samples "
                  f"beyond it (want {ledger.MIN_TAIL_SAMPLES}); run longer")
    share = metrics.get("ledger.unattributed_share")
    if share is not None and share > ledger.UNATTRIBUTED_TOLERANCE:
        print(f"WARNING: ledger.unattributed_share {share:.4f} exceeds its "
              f"tolerance {ledger.UNATTRIBUTED_TOLERANCE}")
    for name, value in metrics.items():
        print(f"{raw['workload']}.{name} {value:.6g} {units[name]}")
    print(f"{raw['workload']}.error_rate {facts['error_rate']:.6g} ratio "
          f"({failed} of {attempted} steps)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


def measure(driver, args):
    """Run the driver: the timed sessions, then the set-ups in a fresh
    process (see driver/main.cpp). When the hypervisor took more than
    STEAL_RETRY of the CPU meanwhile, measure again (time permitting) and
    keep the least disturbed attempt. Returns (raw results, steal share)."""
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    best = None
    for attempt in range(MAX_ATTEMPTS):
        t0 = time.monotonic()
        before = cpu_times()
        raw = run_driver(driver, args, f"trace{args.trace}-attempt{attempt}",
                         ["--seconds", str(args.seconds),
                          "--trace", str(args.trace)], deadline)
        setups = run_driver(driver, args, f"setups-attempt{attempt}",
                            ["--setups", str(SETUPS)], deadline)
        raw["sessions"] += setups["sessions"]
        steal = steal_share(before, cpu_times())
        if any(s["failed_steps"] for s in raw["sessions"]):
            return raw, steal  # wrong outputs are reported, never retried
        if best is None or (steal or 0) < (best[1] or 0):
            best = (raw, steal)
        now = time.monotonic()
        if (steal is None or steal <= STEAL_RETRY
                or attempt + 1 == MAX_ATTEMPTS
                or now - start + (now - t0) > RETRY_BUDGET_S):
            break
        print(f"stepbench: the hypervisor took {steal:.1%} of the CPU "
              "time; measuring again", file=sys.stderr)
    return best


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload of BENCHMARK.json, untraced "
                        "and traced")
    args = p.parse_args()
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.all:
        code = 0
        for w in bench["workloads"]:
            for trace in (0, 1):
                res = subprocess.run(
                    [sys.executable, __file__, "--workload", w["name"],
                     "--seed", str(args.seed), "--seconds",
                     str(args.seconds), "--trace", str(trace)])
                code = code or res.returncode
        sys.exit(code)
    if not args.workload:
        fail("--workload or --all is required")
    driver = build()
    raw, steal = measure(driver, args)
    try:
        result = report(raw, args.seed, args.trace, steal, bench)
    except ValueError as e:
        fail(f"{args.workload}: {e}", 3)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
