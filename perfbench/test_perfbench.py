"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
    cargo test --offline --manifest-path perfbench/harness/Cargo.toml

The smoke tests build the program, run every workload on small inputs in
both modes, and require the correctness gate to pass and every metric
named in BENCHMARK.json to be present.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class Gate(unittest.TestCase):
    def test_report_must_match_the_ground_truth(self):
        truth = {("<a>", "S"): "conforms", ("<b>", "S"): "fails"}
        rows = [{"node": "<a>", "shape": "S", "verdict": "conforms"},
                {"node": "<b>", "shape": "S", "verdict": "fails"}]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "report.json")
            write(path, json.dumps({"conforms": True, "results": rows}))
            self.assertIsNone(run.check_report(path, truth))
            rows[1]["verdict"] = "conforms"
            write(path, json.dumps({"conforms": True, "results": rows}))
            self.assertIn("differ", run.check_report(path, truth))
            write(path, json.dumps({"conforms": True, "results": rows[:1]}))
            self.assertIsNotNone(run.check_report(path, truth))

    def test_tail_leaves_ten_samples_beyond(self):
        s = run.summary(range(1, 101))
        self.assertEqual((s["tail_pct"], s["tail"], s["beyond_tail"]), (90, 90, 10))
        self.assertEqual(run.summary(range(1, 41))["tail_pct"], 75)

    def test_slo_rate_interpolates_between_rungs(self):
        rung = lambda rate, score: {"rate": rate, "score_ms": score, "failed": 0,
                                    "pass": score <= run.DELTA_LIMIT_MS}
        limit = run.DELTA_LIMIT_MS
        ladder = [rung(20, limit / 2), rung(30, limit / 2), rung(45, limit * 2)]
        self.assertAlmostEqual(run.slo_rate(ladder), 37.5)
        self.assertEqual(run.slo_rate(ladder[:2]), 30)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.shapex, cls.harness = run.build()

    def gen(self, out, seed):
        subprocess.run([self.harness, "gen", "--workload", "xref-recursive", "--seed", str(seed),
                        "--out", out, "--smoke"], check=True, capture_output=True)

    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory() as d:
            a, b, c = (os.path.join(d, x) for x in "abc")
            self.gen(a, 5)
            self.gen(b, 5)
            self.gen(c, 6)
            names = sorted(os.listdir(a))
            _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            _, mismatch, _ = filecmp.cmpfiles(a, c, ["batch.nt", "service.nt"], shallow=False)
            self.assertEqual(mismatch, ["batch.nt", "service.nt"])

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "3", "--trace", str(trace), "--smoke"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check(self, workload):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench(workload, trace)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in SPEC[key]))

    def test_uniprot_1m(self):
        self.check("uniprot-1m")

    def test_xref_recursive(self):
        self.check("xref-recursive")


if __name__ == "__main__":
    unittest.main()
