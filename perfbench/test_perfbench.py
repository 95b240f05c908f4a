"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

The arithmetic tests need nothing built. SeedHandling builds the tree
with dune and runs every workload at a reduced size for two seeds.
"""

import json
import os
import unittest

import pbstats
import run


class Percentiles(unittest.TestCase):
    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(pbstats.tail_percentile(10), 50)
        self.assertEqual(pbstats.tail_percentile(99), 50)
        self.assertEqual(pbstats.tail_percentile(100), 90)
        self.assertEqual(pbstats.tail_percentile(999), 90)
        self.assertEqual(pbstats.tail_percentile(1000), 99)
        self.assertEqual(pbstats.tail_percentile(9375), 99)

    def test_nearest_rank(self):
        xs = list(range(1, 1001))
        self.assertEqual(pbstats.percentile(xs, 99), 990)
        self.assertEqual(pbstats.percentile(xs, 50), 500)
        self.assertEqual(pbstats.percentile([7.0], 99), 7.0)
        self.assertEqual(pbstats.percentile([3, 1, 2], 100), 3)

    def test_wait_metrics_use_the_median_below_twenty(self):
        p50, tail, pct = run.wait_metrics([1.0, 2.0, 3.0, 10.0])
        self.assertEqual((p50, tail, pct), (2.5, 2.5, 50))
        waits = [float(i) for i in range(1, 1001)]
        p50, tail, pct = run.wait_metrics(waits)
        self.assertEqual((tail, pct), (990.0, 99))

    def test_spread_matches_statistics_quantiles(self):
        self.assertAlmostEqual(pbstats.spread([1, 2, 3, 4, 5]), (4.5 - 1.5) / 3)


class Lag(unittest.TestCase):
    def test_last_event_by_bin(self):
        # events in bins 0,0,2,2,2,5 -> last index with bin <= b
        self.assertEqual(pbstats.last_event_by_bin([0, 0, 2, 2, 2, 5], 7),
                         [1, 1, 4, 4, 4, 5, 5])

    def test_lag_is_from_the_due_time_of_the_bins_last_event(self):
        # 10 events/s: event j due at 100 + j/10. Bins hold events
        # {0,1}, {2,3,4}, {5}; the estimate at upto=2 needs event 4
        # (due 100.4) and is read at 101.0: lag 600 ms.
        last = pbstats.last_event_by_bin([0, 0, 1, 1, 1, 2], 3)
        lags = pbstats.estimate_lags_ms([(2, 101.0), (3, 100.55)], last, 100.0, 10.0)
        self.assertAlmostEqual(lags[0], 600.0)
        self.assertAlmostEqual(lags[1], 50.0)

    def test_a_stall_counts_against_every_estimate_behind_it(self):
        # Open loop: a program that stalls 2 s delays every later read;
        # the lag keeps counting from the schedule, not from the writes.
        last = list(range(10))
        reads = [(b + 1, 0.1 * b + 2.0) for b in range(10)]
        lags = pbstats.estimate_lags_ms(reads, last, 0.0, 10.0)
        self.assertTrue(all(abs(x - 2000.0) < 1e-6 for x in lags))

    def test_generator_lateness(self):
        # rate 10/s from t0 = 0: lines 0..2 queued at 0.25 s were due at
        # 0, 0.1, 0.2; line 3 queued at 0.3 was on time.
        late = pbstats.lateness_ms([(0.25, 0, 2), (0.3, 3, 3)], 0.0, 10.0)
        for got, want in zip(late, [250.0, 150.0, 50.0, 0.0]):
            self.assertAlmostEqual(got, want)


class Spans(unittest.TestCase):
    # (id, parent, name, start, end)
    SPANS = [
        (0, -1, "gen", 0, 10),
        (1, -1, "bin", 10, 30),
        (2, 1, "pyramid", 12, 18),
        (3, 1, "sketch", 16, 22),   # overlaps pyramid: union is 12..22
        (4, 3, "inner", 17, 19),
        (5, -1, "gen", 40, 45),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        st = pbstats.self_times(self.SPANS)
        self.assertEqual(st["gen"], 15)
        self.assertEqual(st["bin"], 20 - 10)
        self.assertEqual(st["pyramid"], 6)
        self.assertEqual(st["sketch"], 6 - 2)
        self.assertEqual(st["inner"], 2)

    def test_accounted_is_the_sum_of_self_times(self):
        self.assertEqual(pbstats.accounted(self.SPANS), 15 + 10 + 6 + 4 + 2)
        nested = [s for s in self.SPANS if s[2] != "sketch" and s[2] != "inner"]
        self.assertEqual(pbstats.accounted(nested), 10 + 20 + 5)

    def test_unaccounted_share(self):
        # 45 units of wall on one process, 35 inside spans
        self.assertAlmostEqual(pbstats.unaccounted_share(35, 45), 10 / 45)
        # two workers: capacity is 2 x wall
        self.assertAlmostEqual(pbstats.unaccounted_share(80, 2 * 50), 0.2)
        with self.assertRaises(ValueError):
            pbstats.unaccounted_share(1, 0)


class Names(unittest.TestCase):
    def test_pattern(self):
        for ok in ["setup_s", "prng.draw_ns", "poisson-lrd", "wait_p50_ms", "9x"]:
            self.assertTrue(pbstats.valid_metric_name(ok), ok)
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "x" * 65, "lag:p99"]:
            self.assertFalse(pbstats.valid_metric_name(bad), bad)

    def test_every_name_the_benchmark_uses(self):
        names = list(run.WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertTrue(pbstats.valid_metric_name(n), n)

    def test_benchmark_json_matches_the_tables(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            b = json.load(f)
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in b["end_to_end"]},
                         {k: (u, d) for k, (u, d, _) in run.END_TO_END.items()})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in b["per_layer"]},
                         {k: (u, d) for k, (u, d, _, _) in run.PER_LAYER.items()})

    def test_spec_json_is_the_describe_output(self):
        with open(os.path.join(run.ROOT, "perfbench", "spec.json")) as f:
            spec = json.load(f)
        want = json.loads(json.dumps(run.describe()))
        want["host"] = spec["host"]
        self.assertEqual(spec, want)


class SeedHandling(unittest.TestCase):
    """Two seeds must both pass every output check and give different
    outputs, so no check can be comparing against a fixed digest."""

    # netsim keeps its full size: link-0 utilization only settles within
    # 0.02 of the offered load over ~600 s of Pareto ON/OFF traffic.
    def setUp(self):
        self.saved = (dict(run.POISSON), dict(run.SERVE))
        run.POISSON.update(events=1e6)
        run.SERVE.update(events=40000)
        run.build()

    def tearDown(self):
        run.POISSON.clear()
        run.POISSON.update(self.saved[0])
        run.SERVE.clear()
        run.SERVE.update(self.saved[1])

    def test_two_seeds(self):
        for name, runner in run.RUNNERS.items():
            outputs = []
            for seed in (11, 12):
                tally = run.Tally()
                ctx = {"traced": True}
                runner(seed, 0, tally, ctx)
                self.assertGreater(tally.attempted, 0, name)
                self.assertEqual(tally.failed, 0, (name, seed, tally.reasons))
                outputs.append(ctx["outputs"])
            for key in outputs[0]:
                self.assertNotEqual(outputs[0][key], outputs[1][key], (name, key))


if __name__ == "__main__":
    unittest.main()
