"""Tests of the benchmark's input generator.

Run from the root of the checkout:

    python3 perfbench/tests/test_gen.py

The parse test builds the tracer (as the benchmark does) and feeds every
generated manifest to ``Batch.parse_manifest`` through ``tracer.exe parse``.
"""

import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import bench  # noqa: E402
import gen  # noqa: E402

SEEDS = [0, 1, 7, 12345]


def scenarios(seed):
    out = list(gen.serve_warm_pool(seed)) + gen.batch_ref_manifest(seed)
    out += gen.batch_ref_primer(seed) + gen.serve_churn_primer()
    for req in gen.serve_churn_requests(seed, 10):
        out += req
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for seed in SEEDS:
            self.assertEqual(gen.all_manifests(seed), gen.all_manifests(seed))
            self.assertEqual(gen.optimize_args(seed), gen.optimize_args(seed))

    def test_seed_changes_inputs(self):
        self.assertNotEqual(gen.all_manifests(1), gen.all_manifests(2))
        self.assertNotEqual(gen.optimize_args(1), gen.optimize_args(2))

    def test_work_does_not_depend_on_seed(self):
        def shape(seed):
            pool = [(s["n"], s["tier"], s["corr"]) for s in gen.serve_warm_pool(seed)]
            ref = [(s["n"], s["tier"]) for s in gen.batch_ref_manifest(seed)]
            churn = sorted(len(r) for r in gen.serve_churn_requests(seed, 25))
            return pool, ref, churn
        for seed in SEEDS[1:]:
            self.assertEqual(shape(SEEDS[0]), shape(seed))

    def test_fields_the_program_accepts(self):
        for seed in SEEDS:
            for s in scenarios(seed):
                self.assertNotIn("temp", s)
                if s.get("tier") in ("mc", "tail"):
                    self.assertLessEqual(s["n"], 500)
                if s.get("tier") == "polar":
                    # The WID correlation must vanish inside the die.
                    m = re.fullmatch(r"(spherical|linear):(\d+)", s["corr"])
                    self.assertIsNotNone(m, s["corr"])
                    self.assertLess(float(m.group(2)), (16.0 * s["n"]) ** 0.5)

    def test_serve_warm_schedule_is_balanced(self):
        pool = len(gen.serve_warm_pool(3))
        order = gen.serve_warm_schedule(3, 4 * pool)
        self.assertEqual(sorted(order), sorted(list(range(pool)) * 4))

    def test_every_manifest_parses(self):
        ctx = bench.Ctx(os.getcwd(), "test", 0)
        bench.build(ctx)
        with tempfile.TemporaryDirectory(dir=ctx.build) as d:
            files = []
            for seed in SEEDS:
                for name, text in gen.all_manifests(seed).items():
                    if name.endswith(".order"):
                        continue
                    path = os.path.join(d, "%d-%s.jsonl" % (seed, name))
                    with open(path, "w") as f:
                        f.write(text)
                    files.append(path)
            r = subprocess.run([ctx.tracer, "parse"] + files,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            self.assertEqual(r.returncode, 0, r.stderr.decode())
            counts = dict(line.split("\t") for line in r.stdout.decode().splitlines())
            self.assertEqual(len(counts), len(files))
            for path in files:
                with open(path) as f:
                    self.assertEqual(int(counts[path]), len(f.read().splitlines()))


if __name__ == "__main__":
    unittest.main()
