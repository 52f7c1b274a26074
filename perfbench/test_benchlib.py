"""Tests of the benchmark's own logic:
python3 perfbench/test_benchlib.py"""

import json
import os
import shutil
import tempfile
import unittest

import benchlib
import run

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "..", "results")
TABLE4 = benchlib.load_table4(os.path.join(RESULTS, "table4_configs.csv"))
TABLE5 = benchlib.load_table5(os.path.join(RESULTS, "table5_matrix.csv"))


def whatif_reply(workloads, config, ipt=lambda w, c: TABLE5[w][c]):
    return json.dumps({"status": "ok", "results": [
        {"workload": w, "ipt": ipt(w, config)} for w in workloads]})


class GeneratorTest(unittest.TestCase):
    def lines(self, seed):
        reqs = benchlib.generate_requests(seed, 400, TABLE4)
        return [benchlib.request_line(i, r, TABLE4)
                for i, r in enumerate(reqs)]

    def test_same_seed_same_requests(self):
        self.assertEqual(self.lines(7), self.lines(7))
        self.assertNotEqual(self.lines(7), self.lines(8))

    def test_prefix_covers_every_own_configuration(self):
        reqs = benchlib.generate_requests(3, 4, TABLE4)
        self.assertTrue(all(r["op"] == "matrix" for r in reqs))
        self.assertEqual(sorted(w for r in reqs for w in r["workloads"]),
                         sorted(TABLE4))

    def test_block_shares_hold_for_every_seed(self):
        for seed in range(5):
            reqs = benchlib.generate_requests(seed, 4 + 12 * 20, TABLE4)
            shares = benchlib.traffic_shares(reqs, TABLE4)
            # 20 blocks of 6 whatifs, 4 matrices and 2 repeats of
            # either kind, after the 4 covering matrices. Fresh
            # requests never collide while their decks last.
            self.assertGreaterEqual(shares["whatif_share"], 120 / 244)
            self.assertGreaterEqual(shares["matrix_share"], 84 / 244)
            self.assertEqual(shares["exact_repeat_share"], 40 / 244)

    def test_traffic_shares(self):
        a = {"op": "whatif", "workloads": ["gzip"], "config_of": "gzip"}
        b = {"op": "whatif", "workloads": ["gzip", "mcf"],
             "config_of": "gzip"}
        # gcc and twolf have the same Table-4 configuration, so the
        # daemon sees the same identity under either name.
        c = {"op": "whatif", "workloads": ["mcf"], "config_of": "gcc"}
        d = {"op": "whatif", "workloads": ["mcf"], "config_of": "twolf"}
        shares = benchlib.traffic_shares([a, dict(a), b, c, d], TABLE4)
        self.assertEqual(shares["exact_repeat_share"], 2 / 5)
        self.assertEqual(shares["whatif_share"], 1.0)
        # Fresh cells: a 1, b 2 (gzip@gzip shared), c 1.
        self.assertEqual(shares["shared_cell_share"], 1 / 4)


class OracleTest(unittest.TestCase):
    def test_table_rejects_one_perturbed_cell(self):
        src = os.path.join(RESULTS, "table5_matrix.csv")
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "t5.csv")
            shutil.copy(src, copy)
            self.assertEqual(benchlib.compare_csv(src, copy), (144, 0))
            with open(copy) as f:
                text = f.read()
            with open(copy, "w") as f:
                f.write(text.replace(TABLE5["mcf"]["mcf"], "0.348453", 1))
            self.assertEqual(benchlib.compare_csv(src, copy), (144, 1))

    def test_missing_output_fails_every_cell(self):
        src = os.path.join(RESULTS, "table4_configs.csv")
        cells, bad = benchlib.compare_csv(src, "/nonexistent/t4.csv")
        self.assertEqual(cells, bad)

    def test_serve_reply_rejects_one_perturbed_cell(self):
        req = {"op": "whatif", "workloads": ["bzip", "mcf"],
               "config_of": "gap"}
        self.assertEqual(benchlib.check_response(
            req, whatif_reply(req["workloads"], "gap"), TABLE5), (2, 0))
        bumped = whatif_reply(
            req["workloads"], "gap",
            lambda w, c: repr(float(TABLE5[w][c]) +
                              (1e-6 if w == "mcf" else 0.0)))
        self.assertEqual(benchlib.check_response(req, bumped, TABLE5), (2, 1))

    def test_serve_reply_full_precision_rounds_to_the_cell(self):
        req = {"op": "whatif", "workloads": ["gzip"], "config_of": "gzip"}
        exact = whatif_reply(["gzip"], "gzip",
                             lambda w, c: TABLE5[w][c] + "4999")
        self.assertEqual(benchlib.check_response(req, exact, TABLE5), (1, 0))

    def test_matrix_reply_needs_every_cell(self):
        req = {"op": "matrix", "workloads": ["gcc", "vpr"],
               "config_of": None}
        rows = [{"workload": w, "config": str(i), "ipt": TABLE5[w][c],
                 "status": "ok"}
                for w in req["workloads"]
                for i, c in enumerate(req["workloads"])]
        full = json.dumps({"status": "ok", "results": rows})
        self.assertEqual(benchlib.check_response(req, full, TABLE5), (4, 0))
        short = json.dumps({"status": "ok", "results": rows[:3]})
        self.assertEqual(benchlib.check_response(req, short, TABLE5), (4, 1))
        shed = json.dumps({"status": "overloaded", "retry_after_s": 1})
        self.assertEqual(benchlib.check_response(req, shed, TABLE5), (4, 4))


class TailRuleTest(unittest.TestCase):
    def test_percentile_for_sample_count(self):
        self.assertEqual(benchlib.tail_percentile(1000), (99, 10))
        self.assertEqual(benchlib.tail_percentile(200), (95, 10))
        self.assertEqual(benchlib.tail_percentile(219), (95, 10))
        self.assertEqual(benchlib.tail_percentile(100), (90, 10))
        self.assertEqual(benchlib.tail_percentile(20), (50, 10))
        # Too few samples for ten beyond any percentile: the median.
        self.assertEqual(benchlib.tail_percentile(19), (50, 9))
        self.assertEqual(benchlib.tail_percentile(1), (50, 0))

    def test_tail_is_never_below_the_p50(self):
        for values in ([3.0, 1.0], [4.0, 1.0, 2.0, 3.0], list(range(30))):
            p, _ = benchlib.tail_percentile(len(values))
            self.assertGreaterEqual(benchlib.percentile(values, p),
                                    benchlib.percentile(values, 50))

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 90), 90)
        self.assertEqual(benchlib.percentile(values[::-1], 50), 50)
        self.assertEqual(benchlib.percentile([5.0], 50), 5.0)


class SetupValueTest(unittest.TestCase):
    def test_median_of_group_minima(self):
        # Groups of 4: minima 1, 2, 9; one slow sample per group is
        # dropped.
        samples = [5, 1, 6, 7, 2, 30, 3, 4, 9, 10, 11, 12]
        self.assertEqual(benchlib.setup_value(samples, 4), 2)
        self.assertEqual(benchlib.setup_value([3.0]), 3.0)


class PartitionTest(unittest.TestCase):
    def test_layers_and_remainder_sum_to_the_unit(self):
        def span(name, ts, dur, tid=1):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                    "tid": tid, "pid": 1}
        events = [
            span("bench.unit", 0, 100),
            span("bench.explore", 0, 60),
            span("trace.generate", 1, 4),
            span("explore.round", 5, 30, tid=2),
            span("explore.round", 6, 31, tid=3),
            span("atomic_file.write", 37, 1),
            span("explore.adopt", 38, 10),
            span("explore.final", 50, 9),
            span("sim.run", 51, 5, tid=4),  # off the unit's thread
            span("bench.matrix", 60, 35),
            span("bench.analyses", 95, 1),
        ]
        layers, wall, uncovered = benchlib.partition_unit(events)
        us = 1e-6
        self.assertAlmostEqual(layers["workload.trace_build_s"], 4 * us)
        self.assertAlmostEqual(layers["explore.anneal_s"], 32 * us)
        self.assertAlmostEqual(layers["util.write_s"], 1 * us)
        self.assertAlmostEqual(layers["explore.adopt_s"], 10 * us)
        self.assertAlmostEqual(layers["explore.final_s"], 9 * us)
        self.assertAlmostEqual(layers["comm.matrix_s"], 35 * us)
        self.assertAlmostEqual(layers["comm.analyses_s"], 1 * us)
        self.assertAlmostEqual(wall, 100 * us)
        # 0-1, 48-50, 59-60, 96-100 are in no layer.
        self.assertAlmostEqual(uncovered, 8 * us)
        self.assertAlmostEqual(sum(layers.values()) + uncovered, wall)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_are_the_declared_ones(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        for key, table in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]},
                             table)


if __name__ == "__main__":
    unittest.main()
