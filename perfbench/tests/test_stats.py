"""Self-tests of the benchmark's statistics, schedule and digest helpers.

    python3 -m unittest discover -s perfbench/tests -p 'test_stats.py'
"""
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank_and_count_beyond(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(samples, 50), (50, 100, 50))
        self.assertEqual(run.percentile(samples, 99), (99, 100, 1))
        self.assertEqual(run.percentile(samples, 100), (100, 100, 0))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 50),
                         run.percentile([1, 2, 3, 4, 5], 50))

    def test_empty_and_single(self):
        self.assertEqual(run.percentile([], 50), (None, 0, 0))
        self.assertEqual(run.percentile([7.0], 99), (7.0, 1, 0))

    def test_p99_needs_a_thousand_samples_for_ten_beyond(self):
        self.assertEqual(run.percentile([0.0] * 999, 99)[2], 9)
        self.assertEqual(run.percentile([0.0] * 1000, 99)[2], 10)

    def test_report_refuses_thin_percentiles(self):
        report = run.Report()
        report.pct("thin_p95", list(range(100)), 95)
        self.assertTrue(report.problems)
        report = run.Report()
        report.pct("thick_p95", list(range(200)), 95)
        self.assertFalse(report.problems)

    def test_histogram_interpolates_inside_the_bucket(self):
        buckets = [(1.0, 0), (4.0, 10), (math.inf, 10)]
        self.assertAlmostEqual(run.hist_percentile(buckets, 50), 2.5)
        self.assertEqual(run.hist_percentile([(1.0, 0), (math.inf, 0)], 50),
                         0.0)
        overflow = [(1.0, 1), (math.inf, 10)]
        self.assertEqual(run.hist_percentile(overflow, 99), 1.0)


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = run.make_schedule(7, 3.0, 100.0, 5000)
        b = run.make_schedule(7, 3.0, 100.0, 5000)
        self.assertEqual(a, b)
        self.assertNotEqual(a, run.make_schedule(8, 3.0, 100.0, 5000))
        self.assertNotEqual(a, run.make_schedule(7, 3.0, 100.0, 5000,
                                                 stream="traced"))

    def test_arrivals_are_poisson_at_the_rate(self):
        sched = run.make_schedule(3, 60.0, 100.0, 0)
        self.assertTrue(5400 < len(sched) < 6600)
        dues = [d for d, _, _, _ in sched]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(all(0 <= d < 60_000_000 for d in dues))

    def test_mix_and_connection_split(self):
        sched = run.make_schedule(4, 60.0, 100.0, 0)
        share = {c: sum(1 for s in sched if s[2] == c) / len(sched)
                 for c, _ in run.MIX}
        for cls, want in run.MIX:
            self.assertAlmostEqual(share[cls], want, delta=0.03)
        for _, conn, cls, _ in sched:
            self.assertEqual(conn, 1 if cls == "miss" else 0)

    def test_misses_are_fresh_and_hits_are_warm(self):
        sched = run.make_schedule(5, 20.0, 100.0, 777_000)
        warm = {run.run_line(c, b, s) for c, b, s in run.warm_specs(5)}
        seeds = []
        for _, _, cls, line in sched:
            body = __import__("json").loads(line)
            if cls == "miss":
                seeds.append(body["seed"])
            elif cls == "hit":
                del body["id"]
                self.assertIn(run.run_line(body["config"], body["benchmark"],
                                           body["seed"]), warm)
        self.assertEqual(len(seeds), len(set(seeds)))
        self.assertTrue(all(s >= 777_000 for s in seeds))


class Digest(unittest.TestCase):
    PRINTS = [{"key": "a", "hash": "01"}, {"key": "b", "hash": "02"}]

    def test_stable_and_order_independent(self):
        d = run.digest(self.PRINTS)
        self.assertEqual(d, run.digest(list(reversed(self.PRINTS))))
        self.assertEqual(len(d), 32)

    def test_sensitive_to_any_result_or_key(self):
        d = run.digest(self.PRINTS)
        changed = [{"key": "a", "hash": "01"}, {"key": "b", "hash": "03"}]
        renamed = [{"key": "a", "hash": "01"}, {"key": "c", "hash": "02"}]
        self.assertNotEqual(d, run.digest(changed))
        self.assertNotEqual(d, run.digest(renamed))
        self.assertNotEqual(d, run.digest(self.PRINTS[:1]))

    def test_pinned_digests_cover_every_workload(self):
        import json
        golden = json.loads(run.GOLDEN.read_text())
        self.assertEqual(sorted(golden), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
