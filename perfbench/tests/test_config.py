"""BENCHMARK.json agrees with the code and with the file-format limits.

Run from the root of the checkout:

    python3 perfbench/tests/test_config.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bench  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class ConfigTest(unittest.TestCase):
    def test_workloads_match_runners(self):
        self.assertEqual(sorted(w["name"] for w in config()["workloads"]),
                         sorted(bench.RUNNERS))

    def test_end_to_end_names_match_emitted(self):
        r = bench.Result(0, 1.0, 1.0, 10.0, b"")
        emitted = set(bench.process_metrics([r, r], 2.0)) | {"setup_s"}
        self.assertEqual({m["name"] for m in config()["end_to_end"]}, emitted)

    def test_limits(self):
        c = config()
        self.assertEqual(set(c), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= c["run_seconds"] <= 60)
        names = []
        for m in c["end_to_end"] + c["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for m in c["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in c["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in c["end_to_end"]))
        for w in c["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
