#!/usr/bin/env python3
"""End-to-end benchmark of rgleak: serve, batch and optimize.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

The script builds ``rgleak`` (and the in-process layer tracer) from source
with dune into ``.bench_build/``, generates the workload's inputs from
``--seed``, sets up fresh state several times (the median is ``setup_s``),
runs a fixed number of timed ops derived from ``--seconds``, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see README.md).  Everything the run
writes stays under ``.bench_build/`` in the checkout; the per-run
directory is deleted and every spawned process stopped before exit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
import layers  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    # A SIGTERM unwinds through the finally below, so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    ctx = bench.Ctx(os.getcwd(), a.workload, a.seed)
    try:
        bench.build(ctx)
        shutil.rmtree(ctx.rundir, ignore_errors=True)
        os.makedirs(ctx.rundir)
        if a.trace:
            attempted, failed, metrics = layers.run(ctx, a.workload)
        else:
            attempted, failed, metrics = bench.RUNNERS[a.workload](ctx, a.seconds)
    except (bench.BenchError, OSError, subprocess.SubprocessError) as e:
        bench.log("error: %s" % e)
        return 1
    finally:
        ctx.stop_children()
        shutil.rmtree(ctx.rundir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
