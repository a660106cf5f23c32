"""Self-test of the comparison: it must flag a seeded slowdown and pass
identical results. Uses the bounds in the repository's BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import tempfile
import unittest
from pathlib import Path

import compare

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec():
    return json.loads(BENCHMARK.read_text())


def runs(spec, scale=None, seeds=range(1, 11)):
    """Ten plausible runs per workload; `scale` multiplies one metric."""
    out = {}
    for w in spec["workloads"]:
        for seed in seeds:
            metrics = {
                m["name"]: {"value": 10.0 + 0.01 * seed, "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            if scale and scale[0] == w["name"]:
                metrics[scale[1]]["value"] *= scale[2]
            out.setdefault(w["name"], []).append({
                "workload": w["name"],
                "seed": seed,
                "trace": 0,
                "valid": True,
                "result": {"correct": True, "attempted": 100, "failed": 0, "metrics": metrics},
            })
    return out


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec()
        self.metrics = self.spec["end_to_end"]
        self.workload = self.spec["workloads"][0]["name"]

    def test_identical_results_pass(self):
        base = runs(self.spec)
        rows, failures = compare.compare(base, copy.deepcopy(base), self.metrics)
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), len(self.spec["workloads"]) * len(self.metrics))

    def test_every_metric_flags_a_seeded_slowdown(self):
        base = runs(self.spec)
        for m in self.metrics:
            # Twice the bound, in the metric's worse direction.
            factor = 1 + 2 * m["bound"] if m["better"] == "lower" else 1 - 2 * m["bound"]
            head = runs(self.spec, (self.workload, m["name"], factor))
            _, failures = compare.compare(base, head, self.metrics)
            self.assertEqual(len(failures), 1, m["name"])
            self.assertIn(m["name"], failures[0])

    def test_change_within_bound_passes(self):
        m = self.metrics[0]
        factor = 1 + m["bound"] / 2 if m["better"] == "lower" else 1 - m["bound"] / 2
        head = runs(self.spec, (self.workload, m["name"], factor))
        _, failures = compare.compare(runs(self.spec), head, self.metrics)
        self.assertEqual(failures, [])

    def test_runs_whose_generator_fell_behind_are_left_out(self):
        head = runs(self.spec, (self.workload, self.metrics[0]["name"], 100.0))
        for r in head[self.workload][:4]:
            r["valid"] = False
        for r in head[self.workload][4:]:
            r["result"]["metrics"] = copy.deepcopy(runs(self.spec)[self.workload][0]["result"]["metrics"])
        _, failures = compare.compare(runs(self.spec), head, self.metrics)
        self.assertEqual(failures, [])

    def test_failed_output_check_fails(self):
        head = runs(self.spec)
        head[self.workload][3]["result"]["correct"] = False
        _, failures = compare.compare(runs(self.spec), head, self.metrics)
        self.assertTrue(any("output check failed" in f for f in failures))

    def test_command_line_exit_codes(self):
        base, slow = runs(self.spec), runs(self.spec, (self.workload, "append_p50_ms", 2.0))
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for name, data in (("base", base), ("same", base), ("slow", slow)):
                p = Path(d) / f"{name}.jsonl"
                p.write_text("".join(json.dumps(r) + "\n" for rs in data.values() for r in rs))
                paths[name] = str(p)
            argv = ["--bounds", str(BENCHMARK)]
            self.assertEqual(compare.main([paths["base"], paths["same"], *argv]), 0)
            self.assertEqual(compare.main([paths["base"], paths["slow"], *argv]), 1)


if __name__ == "__main__":
    unittest.main()
