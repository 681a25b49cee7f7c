"""Self-tests of the step benchmark's arithmetic (stepbench/ledger.py).

    python3 -m unittest discover -s stepbench -p 'test_*.py'
"""

import os
import struct
import tempfile
import unittest

import ledger
from ledger import READER, WRITER, Span

MS = 1_000_000  # ns


def span(name, role, rank, step, t0, t1, stream=0):
    return Span(t0, t1, step, stream, name, role, rank)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(ledger.percentile(values, 0.5), 50)
        self.assertEqual(ledger.percentile(values, 0.99), 99)
        self.assertEqual(ledger.percentile(values, 1.0), 100)
        self.assertEqual(ledger.percentile([7], 0.99), 7)

    def test_rank_rounds_up(self):
        # 0.5 * 5 = 2.5 -> 3rd smallest.
        self.assertEqual(ledger.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_rejects_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            ledger.percentile([], 0.5)
        with self.assertRaises(ValueError):
            ledger.percentile([1], 0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(ledger.samples_beyond(1000, 0.99), 10)
        self.assertTrue(ledger.tail_ok(1000, 0.99))
        self.assertEqual(ledger.samples_beyond(999, 0.99), 9)
        self.assertFalse(ledger.tail_ok(999, 0.99))
        self.assertEqual(ledger.samples_beyond(100, 0.99), 1)
        self.assertTrue(ledger.tail_ok(20, 0.5))


class NormalisationTest(unittest.TestCase):
    def test_per_step(self):
        self.assertEqual(ledger.per_step(300, 100), 3)
        with self.assertRaises(ValueError):
            ledger.per_step(1, 0)

    def test_ratio_of_idle_layer_is_zero(self):
        self.assertEqual(ledger.ratio(0, 0), 0.0)
        self.assertEqual(ledger.ratio(3, 4), 0.75)

    def test_registry_deltas_per_step(self):
        steps = 10  # session of 11 steps: step 0 is not timed
        traced = {
            "steps": steps + 1, "payload_bytes": 2000, "wall_s": 1.0,
            "rows_written": 0, "rows_delivered": 0,
            "registry": {
                "flexio.handshake.performed": 40,
                "flexio.plan.cache_hits": 30, "flexio.plan.cache_misses": 10,
                "flexio.step.pack.ns.sum": 50 * MS,
                "flexio.pool.queue_ns.sum": 6000,
                "flexio.pool.queue_ns.count": 3,
                "evpath.shm.send.ns.sum": 3000, "evpath.shm.send.ns.count": 1,
                "evpath.rdma.send.ns.sum": 5000,
                "evpath.rdma.send.ns.count": 3,
                "flexio.stream.stalls.mouse0": 4,
                "flexio.stream.stalls.mouse1": 6,
                "shm.pool.reuses": 9, "shm.pool.acquisitions": 10,
                "evpath.send.retries": 20,
                "flexio.stream.orphan_frames": 5,
            },
        }
        spans = []
        for rank in range(2):
            for step in range(1, steps + 1):
                t = step * 10 * MS
                spans.append(span("step", WRITER, rank, step, t, t + 4 * MS))
                spans.append(span("apps.advance", WRITER, rank, step, t,
                                  t + 4 * MS))
        m = ledger.per_layer(traced, spans, 0.004, 2, 2)
        self.assertEqual(m["core.handshake.performed_per_step"], 4)
        self.assertEqual(m["core.plan.cache_hit_ratio"], 0.75)
        self.assertEqual(m["core.step.pack_ms"], 5)
        self.assertEqual(m["util.pool.queue_us_per_task"], 2)
        self.assertEqual(m["util.pool.tasks_per_step"], 0)
        self.assertEqual(m["evpath.send.us_per_msg"], 2)
        self.assertEqual(m["core.registry.stalls_per_step"], 1)
        self.assertEqual(m["evpath.send.retries_per_step"], 2)
        self.assertEqual(m["core.registry.orphan_frames_per_step"], 0.5)
        self.assertEqual(m["shm.pool.reuse_ratio"], 0.9)
        self.assertEqual(m["nnti.regcache.hit_ratio"], 0)
        self.assertEqual(m["cod.kept_row_ratio"], 1.0)
        self.assertEqual(m["apps.advance_ms"], 4)
        self.assertEqual(m["trace.overhead_ratio"], 0.5)


class SessionCombinationTest(unittest.TestCase):
    def session(self, ms_per_step, steps=30):
        """A session whose every end_step takes ms_per_step."""
        spans = []
        for step in range(steps + 1):
            t = step * 100 * MS
            for rank in range(2):
                spans.append(span("core.writer.end_step", WRITER, rank, step,
                                  t, t + ms_per_step * MS))
                spans.append(span("core.reader.perform_reads", READER, rank,
                                  step, t, t + 2 * ms_per_step * MS))
        return ({"steps": steps + 1, "latency_streams": [0],
                 "payload_bytes": 10**6 * ms_per_step, "wall_s": 1.0,
                 "cpu_s": 0.03 * ms_per_step,
                 "peak_rss_kb": 1024 * ms_per_step},
                spans)

    def test_median_over_sessions_and_pooled_tails(self):
        sessions = [self.session(v) for v in (1, 9, 2, 3, 100)]
        m, samples = ledger.end_to_end(sessions, [0.5, 0.1, 0.2], 2, 2)
        self.assertEqual(m["step_visible_ms_p50"], 3)  # 100 is voted out
        self.assertEqual(m["step_latency_ms_p50"], 6)
        self.assertEqual(m["throughput_MBps"], 3)
        self.assertAlmostEqual(m["cpu_ms_per_step"], 3)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 3)  # the median session peak
        # Tails pool every session: 300 visible samples, 60 of them at 100.
        self.assertEqual(samples["visible"], 5 * 2 * 30)
        self.assertEqual(samples["latency"], 5 * 30)
        self.assertEqual(m["step_visible_ms_p99"], 100)
        self.assertEqual(samples["steps"], 150)


class LatencyPairingTest(unittest.TestCase):
    def test_first_writer_entry_to_last_reader_return(self):
        spans = [
            span("core.writer.end_step", WRITER, 0, 5, 100, 150),
            span("core.writer.end_step", WRITER, 1, 5, 120, 130),
            span("core.reader.perform_reads", READER, 0, 5, 140, 160),
            span("core.reader.perform_reads", READER, 1, 5, 110, 170),
        ]
        got = ledger.pair_latencies_ms(spans, {0}, 2, 2)
        self.assertEqual(got, [(170 - 100) / 1e6])

    def test_steps_and_streams_pair_separately(self):
        spans = []
        for stream in (0, 1):
            for step in (1, 2):
                base = step * 1000 + stream * 100
                spans += [
                    span("core.writer.end_step", w, r, step, base, base + 1,
                         stream)
                    for w, r in ((WRITER, 0), (WRITER, 1))
                ]
                spans += [
                    span("core.reader.perform_reads", READER, r, step,
                         base + 2, base + 10 + step, stream)
                    for r in (0, 1)
                ]
        got = ledger.pair_latencies_ms(spans, {1}, 2, 2)
        self.assertEqual(sorted(got), [11 / 1e6, 12 / 1e6])

    def test_incomplete_step_is_not_paired(self):
        spans = [
            span("core.writer.end_step", WRITER, 0, 3, 0, 1),
            span("core.writer.end_step", WRITER, 1, 3, 0, 1),
            span("core.reader.perform_reads", READER, 0, 3, 2, 5),
        ]
        self.assertEqual(ledger.pair_latencies_ms(spans, {0}, 2, 2), [])

    def test_visible_sums_end_step_calls_of_a_rank_step(self):
        spans = [
            span("core.writer.end_step", WRITER, 0, 1, 0, 2 * MS, stream=0),
            span("core.writer.end_step", WRITER, 0, 1, 3 * MS, 4 * MS,
                 stream=1),
            span("core.writer.end_step", WRITER, 1, 1, 0, 5 * MS),
        ]
        self.assertEqual(sorted(ledger.visible_samples_ms(spans)), [3, 5])


class ClosureTest(unittest.TestCase):
    def test_unattributed_share(self):
        spans = []
        for step in (1, 2):
            t = (step - 1) * 10 * MS  # steps run back to back, 10 ms each
            spans += [
                span("step", WRITER, 0, step, t, t + 10 * MS),
                span("apps.advance", WRITER, 0, step, t, t + 3 * MS),
                span("core.writer.begin_step", WRITER, 0, step, t + 3 * MS,
                     t + 4 * MS),
                span("core.writer.write", WRITER, 0, step, t + 4 * MS,
                     t + 5 * MS),
                span("core.writer.end_step", WRITER, 0, step, t + 5 * MS,
                     t + 9 * MS),
                # A reader span never counts toward a writer's closure.
                span("apps.analytics", READER, 0, step, t, t + 10 * MS),
            ]
        wall, attributed = ledger.closure(spans, 0)
        self.assertEqual((wall, attributed), (20 * MS, 18 * MS))
        self.assertAlmostEqual(ledger.unattributed_share(spans, 1), 0.1)

    def test_worst_rank_is_reported(self):
        spans = [
            span("step", WRITER, 0, 1, 0, 100),
            span("apps.advance", WRITER, 0, 1, 0, 99),
            span("step", WRITER, 1, 1, 0, 100),
            span("apps.advance", WRITER, 1, 1, 0, 80),
        ]
        self.assertAlmostEqual(ledger.unattributed_share(spans, 2), 0.2)


class SpanFileTest(unittest.TestCase):
    def test_round_trip_of_driver_layout(self):
        names = ["step", "core.writer.end_step"]
        record = struct.pack(ledger.SPAN_FORMAT, 5, 9, 3, 7, 1, READER, 1)
        self.assertEqual(len(record), 32)  # driver/harness.h SpanRecord
        with tempfile.NamedTemporaryFile(delete=False) as f:
            f.write(record)
        try:
            (s,) = ledger.load_spans(f.name, names)
        finally:
            os.unlink(f.name)
        self.assertEqual((s.t0, s.t1, s.dur, s.step, s.stream, s.name,
                          s.role, s.rank),
                         (5, 9, 4, 3, 7, "core.writer.end_step", READER, 1))


if __name__ == "__main__":
    unittest.main()
