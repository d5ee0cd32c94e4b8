"""Self-tests of the benchmark script:  python3 perfbench/selftest.py

They check that the output checker rejects small closed-form and MC
deviations, that a failing command fails every row, and that the printed
metric names are the ones ``BENCHMARK.json`` declares.  Commands run on a
tiny sweep, so the whole file takes a few seconds.
"""

import copy
import json
import tempfile
import time
import unittest
from pathlib import Path

import check
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = run.Workload(5, ("sweep", "--axis", "N", "--values", "16,32", "--case", "case4_identity"),
                    "sweep_case4.csv")


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.ref = run.load_reference("design_fig3b")
        self.files = copy.deepcopy(self.ref)

    def test_references_pass_themselves(self):
        for name in run.WORKLOADS:
            ref = run.load_reference(name)
            self.assertEqual(check.check_outputs(copy.deepcopy(ref), ref)[0], 0, name)

    def test_closed_form_perturbed_1e9_is_rejected(self):
        for column in ("lower_bound_u3", "floor_u1", "ub_u8"):
            files = copy.deepcopy(self.ref)
            files["fig3b_case2.csv"][1][column] *= 1 + 1e-9
            failed, problems = check.check_outputs(files, self.ref)
            self.assertEqual(failed, 1, column)
            self.assertIn(column, problems[0])

    def test_mc_mean_shifted_10_se_is_rejected(self):
        row = self.files["fig3b_case1.csv"][2]
        row["mc_rate_u5"] += 10 * row["mc_se_u5"]
        failed, problems = check.check_outputs(self.files, self.ref)
        self.assertEqual(failed, 1)
        self.assertIn("user 5", problems[0])

    def test_row_error_and_missing_rows_fail(self):
        self.files["fig3b_case3.csv"][0]["error"] = "numerical_failure"
        del self.files["fig3b_case2.csv"][2]
        self.assertEqual(check.check_outputs(self.files, self.ref)[0], 2)

    def test_optimizer_bounds_are_one_sided(self):
        ref = self.ref
        better = copy.deepcopy(ref)
        better["fig3b_case5.csv"][0]["sum_rate_lb"] *= 1.02
        better["fig3b_case6.csv"][0]["min_rate_lb"] *= 1.02
        self.assertEqual(check.check_outputs(better, ref)[0], 0)
        worse = copy.deepcopy(ref)
        worse["fig3b_case5.csv"][1]["sum_rate_lb"] *= 1 - 2 * check.DESIGN_RTOL
        self.assertEqual(check.check_outputs(worse, ref)[0], 1)
        # case3 (random phases) has no exact closed-form check, so only the
        # heuristic rule can reject the case6 row here
        beaten = copy.deepcopy(ref)
        beaten["fig3b_case3.csv"][2]["min_rate_lb"] = ref["fig3b_case6.csv"][2]["min_rate_lb"] * 1.01
        failed, problems = check.check_outputs(beaten, ref)
        self.assertEqual(failed, 1)
        self.assertIn("best heuristic", problems[0])


class RunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.saved_dir = run.REFERENCE_DIR
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        run.REFERENCE_DIR = Path(cls.tmp.name)
        run.WORKLOADS["selftest_tiny"] = TINY
        run.record_reference("selftest_tiny")

    @classmethod
    def tearDownClass(cls):
        del run.WORKLOADS["selftest_tiny"]
        run.REFERENCE_DIR = cls.saved_dir
        cls.tmp.cleanup()

    def test_nonzero_exit_fails_every_row(self):
        broken = run.Workload(0, TINY.command, TINY.out_file)  # --trials 0: exit code 2
        reference = run.load_reference("selftest_tiny")
        with run.Child() as child:
            sample = run.run_command(child, broken, 1, reference, time.perf_counter() + 60)
            self.assertTrue(child.alive())
        self.assertEqual(sample.returncode, 2)
        self.assertEqual(sample.attempted, 2)
        self.assertEqual(sample.failed, sample.attempted)

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run("selftest_tiny", 1, 0.0, trace)["result"]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, declared, section)

    def test_spans_carry_attributes_and_parents(self):
        run.run("selftest_tiny", 2, 0.0, True)
        spans = json.loads((run.WORK / "spans-selftest_tiny-seed2.json").read_text())["spans"]
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        self.assertEqual([s["name"] for s in roots], ["cli.main"])
        for span in spans:
            if span["name"] == "rate.exact_rate_mc":
                self.assertEqual(span["attrs"]["trials"], TINY.trials)
                self.assertIn(span["attrs"]["N"], (16, 32))
                self.assertEqual(by_id[span["parent"]]["name"], "harness.run_scenario")
        main_thread = roots[0]["thread"]
        self.assertTrue(any(s["thread"] != main_thread for s in spans))


if __name__ == "__main__":
    unittest.main()
