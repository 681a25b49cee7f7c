"""Metric arithmetic of the step benchmark.

The C++ driver (stepbench/driver) only records: span records per rank,
per-session totals and metrics-registry deltas. Everything reported is
computed here from those raw facts, so the arithmetic can be unit-tested
(test_ledger.py) without running the data plane.
"""

import math
import struct
import statistics

# One driver span record (driver/harness.h SpanRecord): t0_ns, t1_ns, step,
# stream, name index, role (0 writer, 1 reader), rank.
SPAN_FORMAT = "<qqiHHBB6x"
WRITER, READER = 0, 1

# Fewest samples that must lie beyond a reported tail percentile.
MIN_TAIL_SAMPLES = 10

# Largest share of a writer rank's step wall time that may go unattributed
# to a span in the traced run (see README "Closure").
UNATTRIBUTED_TOLERANCE = 0.05


class Span:
    __slots__ = ("t0", "t1", "step", "stream", "name", "role", "rank")

    def __init__(self, t0, t1, step, stream, name, role, rank):
        self.t0, self.t1, self.step, self.stream = t0, t1, step, stream
        self.name, self.role, self.rank = name, role, rank

    @property
    def dur(self):
        return self.t1 - self.t0


def load_spans(path, names):
    """Spans of one session, with the name index resolved to its string."""
    with open(path, "rb") as f:
        data = f.read()
    return [Span(t0, t1, step, stream, names[n], role, rank)
            for t0, t1, step, stream, n, role, rank
            in struct.iter_unpack(SPAN_FORMAT, data)]


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-percentile of n samples."""
    return n - max(1, math.ceil(q * n - 1e-9))


def tail_ok(n, q):
    """True when the q-percentile of n samples has at least
    MIN_TAIL_SAMPLES samples beyond it; a thinner tail is a few outliers,
    and is reported with a warning."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def per_step(delta, steps):
    """A registry delta over the timed window, normalised per timed step."""
    if steps <= 0:
        raise ValueError("no timed steps")
    return delta / steps


def ratio(num, den):
    """num/den, 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def timed(spans):
    """Spans of the timed steps (step 0 is the cold step; open and close
    spans carry step -1)."""
    return [s for s in spans if s.step >= 1]


def visible_samples_ms(spans):
    """Per (writer rank, step): total time blocked in end_step calls."""
    per = {}
    for s in spans:
        if s.role == WRITER and s.name == "core.writer.end_step":
            key = (s.rank, s.step)
            per[key] = per.get(key, 0) + s.dur
    return [v / 1e6 for v in per.values()]


def pair_latencies_ms(spans, streams, writers, readers):
    """Delivery latency of step s of each stream: from the first writer's
    end_step entry to the last reader's perform_reads return. Only steps
    that every writer and every reader completed are paired."""
    entry, done = {}, {}
    for s in spans:
        if s.stream not in streams:
            continue
        key = (s.stream, s.step)
        if s.role == WRITER and s.name == "core.writer.end_step":
            entry.setdefault(key, {})[s.rank] = s.t0
        elif s.role == READER and s.name == "core.reader.perform_reads":
            done.setdefault(key, {})[s.rank] = s.t1
    out = []
    for key, w in entry.items():
        r = done.get(key)
        if len(w) == writers and r is not None and len(r) == readers:
            out.append((max(r.values()) - min(w.values())) / 1e6)
    return out


# Spans that account for a writer rank's step wall time.
CLOSURE_PARTS = ("apps.advance", "core.writer.begin_step",
                 "core.writer.write", "core.writer.end_step")


def closure(spans, rank):
    """(wall_ns, attributed_ns) of one writer rank over its timed steps.

    Wall runs from the start of the first timed step to the end of the last
    one; attributed is the summed duration of the CLOSURE_PARTS spans in
    those steps. They never nest, so the sum cannot double count."""
    steps = [s for s in spans
             if s.role == WRITER and s.rank == rank and s.name == "step"]
    if not steps:
        raise ValueError(f"writer rank {rank} recorded no steps")
    wall = max(s.t1 for s in steps) - min(s.t0 for s in steps)
    attributed = sum(s.dur for s in spans
                     if s.role == WRITER and s.rank == rank
                     and s.name in CLOSURE_PARTS)
    return wall, attributed


def unattributed_share(spans, writers):
    """Largest unattributed share of wall time over the writer ranks."""
    shares = []
    for rank in range(writers):
        wall, attributed = closure(spans, rank)
        shares.append((wall - attributed) / wall)
    return max(shares)


def span_ms_per_step(spans, name, role, ranks, steps):
    """Mean time one rank spends per step in spans called `name`."""
    total = sum(s.dur for s in spans if s.name == name and s.role == role)
    return total / 1e6 / (ranks * steps)


def span_ms_per_call(spans, name):
    durs = [s.dur for s in spans if s.name == name]
    return statistics.fmean(durs) / 1e6 if durs else 0.0


def session_metrics(session, spans, writers, readers):
    """Medians and rates of one untraced timed session, plus its raw
    visible-time and latency samples (for tails pooled over sessions)."""
    steps = session["steps"] - 1
    spans = timed(spans)
    visible = visible_samples_ms(spans)
    latency = pair_latencies_ms(spans, set(session["latency_streams"]),
                                writers, readers)
    metrics = {
        "step_visible_ms_p50": percentile(visible, 0.5),
        "step_latency_ms_p50": percentile(latency, 0.5),
        "throughput_MBps": session["payload_bytes"] / session["wall_s"] / 1e6,
        "cpu_ms_per_step": session["cpu_s"] * 1e3 / steps,
    }
    return metrics, visible, latency


def end_to_end(timed_sessions, setups, writers, readers):
    """End-to-end metrics of a run.

    timed_sessions: (session, spans) of each untraced timed session. Each
    per-session value is the median over the sessions; tails pool the
    samples of all sessions. setups: set-up times of every untraced session.
    Returns (metrics, samples): samples holds the timed step count and the
    sample counts of the visible-time and latency percentiles."""
    per, visible, latency = [], [], []
    for session, spans in timed_sessions:
        m, v, lat = session_metrics(session, spans, writers, readers)
        per.append(m)
        visible += v
        latency += lat
    metrics = {k: statistics.median(m[k] for m in per) for k in per[0]}
    metrics.update({
        "step_visible_ms_p99": percentile(visible, 0.99),
        "step_latency_ms_p99": percentile(latency, 0.99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            s["peak_rss_kb"] for s, _ in timed_sessions) / 1024.0,
    })
    samples = {"steps": sum(s["steps"] - 1 for s, _ in timed_sessions),
               "visible": len(visible), "latency": len(latency)}
    return metrics, samples


def registry_sum(reg, prefix):
    return sum(v for k, v in reg.items() if k.startswith(prefix))


def per_layer(traced, spans, untraced_MBps, writers, readers):
    """Per-layer metrics of one traced session; untraced_MBps is the
    untraced throughput of the same run (the tracing-overhead baseline)."""
    steps = traced["steps"] - 1
    reg = traced["registry"]
    step_spans = timed(spans)

    def r(name):
        return reg.get(name, 0.0)

    def hist_ms(name):
        return per_step(r(name + ".sum"), steps) / 1e6

    # evpath.{inproc,shm,rdma}.send.ns: one histogram per transport.
    send_ns = sum(v for k, v in reg.items()
                  if k.startswith("evpath.") and k.endswith(".send.ns.sum"))
    send_n = sum(v for k, v in reg.items()
                 if k.startswith("evpath.") and k.endswith(".send.ns.count"))
    w_ms = lambda n: span_ms_per_step(step_spans, n, WRITER, writers, steps)
    r_ms = lambda n: span_ms_per_step(step_spans, n, READER, readers, steps)
    m = {
        "apps.advance_ms": w_ms("apps.advance"),
        "apps.analytics_ms": r_ms("apps.analytics"),
        "core.writer.begin_step_ms": w_ms("core.writer.begin_step"),
        "core.writer.write_ms": w_ms("core.writer.write"),
        "core.writer.end_step_ms": w_ms("core.writer.end_step"),
        "core.reader.begin_step_wait_ms": r_ms("core.reader.begin_step_wait"),
        "core.reader.perform_reads_ms": r_ms("core.reader.perform_reads"),
        "core.reader.end_step_ms": r_ms("core.reader.end_step"),
        "core.runtime.open_writer_ms":
            span_ms_per_call(spans, "core.runtime.open_writer"),
        "core.runtime.open_reader_ms":
            span_ms_per_call(spans, "core.runtime.open_reader"),
        "core.writer.close_ms": span_ms_per_call(spans, "core.writer.close"),
        "core.handshake.performed_per_step":
            per_step(r("flexio.handshake.performed"), steps),
        "core.plan.cache_hit_ratio":
            ratio(r("flexio.plan.cache_hits"),
                  r("flexio.plan.cache_hits") + r("flexio.plan.cache_misses")),
        "core.redistribution.pieces_per_step":
            per_step(r("flexio.redistribution.pieces"), steps),
        "core.step.pack_ms": hist_ms("flexio.step.pack.ns"),
        "core.step.pack_critical_ms": hist_ms("flexio.step.pack.critical.ns"),
        "core.step.unpack_ms": hist_ms("flexio.step.unpack.ns"),
        "core.step.unpack_critical_ms":
            hist_ms("flexio.step.unpack.critical.ns"),
        "core.step.enqueue_ms": hist_ms("flexio.step.enqueue.ns"),
        "core.step.transfer_ms": hist_ms("flexio.step.transfer.ns"),
        "adios.pack.bytes_per_step": per_step(r("flexio.pack.bytes"), steps),
        "adios.pack.memcpy_runs_per_step":
            per_step(r("flexio.pack.memcpy_runs"), steps),
        "util.pool.tasks_per_step": per_step(r("flexio.pool.tasks"), steps),
        "util.pool.queue_us_per_task":
            ratio(r("flexio.pool.queue_ns.sum"),
                  r("flexio.pool.queue_ns.count")) / 1e3,
        "util.pool.exec_us_per_task":
            ratio(r("flexio.pool.exec_ns.sum"),
                  r("flexio.pool.exec_ns.count")) / 1e3,
        "evpath.send.msgs_per_step": per_step(r("evpath.send.msgs"), steps),
        "evpath.send.bytes_per_step": per_step(r("evpath.send.bytes"), steps),
        "evpath.send.us_per_msg": ratio(send_ns, send_n) / 1e3,
        "evpath.send.retries_per_step":
            per_step(r("evpath.send.retries"), steps),
        "evpath.recv.msgs_per_step": per_step(r("evpath.recv.msgs"), steps),
        "wire.copies_avoided_per_step":
            per_step(r("flexio.wire.copies_avoided"), steps),
        "shm.queue.full_spins_per_msg":
            ratio(r("shm.queue.full_spins"), r("shm.queue.enqueued")),
        "shm.queue.empty_spins_per_msg":
            ratio(r("shm.queue.empty_spins"), r("shm.queue.enqueued")),
        "shm.pool.reuse_ratio":
            ratio(r("shm.pool.reuses"), r("shm.pool.acquisitions")),
        "nnti.get.bytes_per_step": per_step(r("nnti.get.bytes"), steps),
        "nnti.regcache.hit_ratio":
            ratio(r("nnti.regcache.hits"),
                  r("nnti.regcache.hits") + r("nnti.regcache.misses")),
        "nnti.registrations_per_step":
            per_step(r("nnti.registrations"), steps),
        "core.registry.stalls_per_step":
            per_step(registry_sum(reg, "flexio.stream.stalls."), steps),
        "core.registry.orphan_frames_per_step":
            per_step(r("flexio.stream.orphan_frames"), steps),
        "cod.kept_row_ratio":
            ratio(traced["rows_delivered"], traced["rows_written"])
            if traced["rows_written"] else 1.0,
        "ledger.unattributed_share": unattributed_share(step_spans, writers),
        "trace.overhead_ratio":
            traced["payload_bytes"] / traced["wall_s"] / 1e6 / untraced_MBps,
    }
    return m
