"""Seeded input generator for the rgleak benchmark.

Every function here is a pure function of its arguments: the same seed
gives byte-identical manifests.  The generator only emits inputs the
program accepts:

* polar scenarios use correlation models whose WID part vanishes inside
  the die (the polar tier refuses anything else);
* no scenario carries a ``temp`` field (each new temperature would
  re-characterize the library, 1-2 s);
* Monte-Carlo and tail scenarios stay at n <= 500 (MC preparation is
  O(n^3)).

The seed varies placement seeds, cell-mix weights, signal
probabilities, correlation ranges and request order.  It never varies
the amount of work: gate counts, tiers and scenario counts are fixed
multisets, so runs with different seeds stay comparable.
"""

import json
import random

# Cell sets of the mixes.  The seed picks the weights, not the cells:
# the correlation tables' cost depends on the cells, not the weights.
MIX_CELLS = [
    ["INV_X1", "NAND2_X1", "NOR2_X1", "DFF_X1"],
    ["INV_X1", "AOI21_X1", "NAND3_X1", "DFF_X1"],
    ["BUF_X1", "NAND2_X1", "XOR2_X1", "OR2_X1"],
]

# The optimizer's cell mix (the CLI default, spelled out).
OPTIMIZE_MIX = "INV_X1:20,NAND2_X1:18,NOR2_X1:8,XOR2_X1:4,DFF_X1:9"
OPTIMIZE_N = 20000
OPTIMIZE_BUDGET = 30


def _mix(rng, cells):
    return ",".join("%s:%d" % (c, rng.randint(1, 5)) for c in cells)


def manifest_text(scenarios):
    """JSONL text of a list of scenario dicts (keys in insertion order)."""
    return "".join(json.dumps(s) + "\n" for s in scenarios)


def _balanced(rng, values, count):
    """``count`` items cycling through ``values``, shuffled by ``rng``."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------- serve-warm

WARM_NS = [400, 1200, 2500, 5000]
WARM_TIERS = ["linear", "int2d", "polar", "auto"]
# Both vanish at <= 60 um; the smallest die (n = 400) is 80 um wide, so
# the polar tier accepts every pool entry.
WARM_CORRS = ["spherical:60", "linear:50"]
WARM_EXACT_NS = [600, 1200, 2000]


def serve_warm_pool(seed):
    """The fixed pool of single scenarios: 3 mixes x 2 correlation models
    x 4 analytic tiers (n cycling 400..5000), plus 3 exact scenarios at
    n <= 2000 (1 in 9 of the pool)."""
    rng = random.Random("serve-warm-pool:%d" % seed)
    mixes = [_mix(rng, cells) for cells in MIX_CELLS]
    pool = []
    k = 0
    for mix in mixes:
        for corr in WARM_CORRS:
            for tier in WARM_TIERS:
                pool.append({
                    "id": "w%02d" % len(pool),
                    "n": WARM_NS[k % len(WARM_NS)],
                    "mix": mix,
                    "corr": corr,
                    "tier": tier,
                    "seed": rng.randrange(1000),
                })
                k += 1
    for i, n in enumerate(WARM_EXACT_NS):
        pool.append({
            "id": "w%02d" % len(pool),
            "n": n,
            "mix": mixes[i % len(mixes)],
            "corr": "spherical:120",
            "tier": "exact",
            "seed": rng.randrange(1000),
        })
    return pool


def serve_warm_schedule(seed, ops):
    """Pool indices of the ``ops`` requests: every pool entry equally
    often, in a seeded order."""
    pool_size = len(serve_warm_pool(seed))
    rng = random.Random("serve-warm-order:%d" % seed)
    return _balanced(rng, list(range(pool_size)), ops)


# --------------------------------------------------------------- serve-churn

CHURN_SIZES = [16, 20, 24, 28, 32]
CHURN_TIERS = ["linear", "linear", "auto", "int2d"]
CHURN_NS = [600, 900, 1300, 1800]


def serve_churn_requests(seed, ops):
    """``ops`` multi-scenario manifests.  Every line has a fresh
    (mix weights, p, correlation range, n) tuple, so almost every line
    misses the correlation-table and linear-memo caches."""
    rng = random.Random("serve-churn:%d" % seed)
    sizes = _balanced(rng, CHURN_SIZES, ops)
    total = sum(sizes)
    tiers = _balanced(rng, CHURN_TIERS, total)
    ns = _balanced(rng, CHURN_NS, total)
    cells = _balanced(rng, list(range(len(MIX_CELLS))), total)
    requests = []
    k = 0
    for r, size in enumerate(sizes):
        lines = []
        for _ in range(size):
            lines.append({
                "id": "c%d-%d" % (r, len(lines)),
                "n": ns[k] + rng.randrange(0, 64),
                "mix": _mix(rng, MIX_CELLS[cells[k]]),
                "corr": "spherical:%d" % rng.randrange(60, 180),
                "p": round(rng.uniform(0.15, 0.85), 4),
                "tier": tiers[k],
                "seed": rng.randrange(1000),
            })
            k += 1
        requests.append(lines)
    return requests


def serve_churn_primer():
    """The request that primes a churn daemon: one cheap line, which
    loads (and on a fresh cache computes) the library characterization."""
    return [{"id": "prime", "n": 400, "mix": "INV_X1:1", "corr": "spherical:60",
             "tier": "int2d"}]


# ----------------------------------------------------------------- batch-ref

BATCH_EXACT_NS = [10000, 20000, 30000]
BATCH_MC_N = 500
BATCH_TAIL_N = 400
TAIL_MIX = "INV_X1:1,NOR2_X1:1"
# About mean + 0.9 sigma for TAIL_MIX at n = 400 (p_exceed ~0.15): deeper
# budgets collapse the effective sample size of 400 replicas for some
# placement seeds, and the op would fail.
TAIL_BUDGET_UA = 1.1


def batch_ref_manifest(seed):
    """Reference-tier manifest: exact at 10k/20k/30k gates, one MC
    scenario (n = 500, 400 replicas) and one tail scenario (n = 400)."""
    rng = random.Random("batch-ref:%d" % seed)
    mix = _mix(rng, MIX_CELLS[0])
    out = []
    for n in BATCH_EXACT_NS:
        out.append({"id": "exact-%d" % n, "n": n, "mix": mix,
                    "corr": "spherical:120", "tier": "exact",
                    "seed": rng.randrange(1000)})
    out.append({"id": "mc", "n": BATCH_MC_N, "mix": mix,
                "corr": "spherical:120", "tier": "mc",
                "seed": rng.randrange(1000), "replicas": 400})
    out.append({"id": "tail", "n": BATCH_TAIL_N, "mix": TAIL_MIX,
                "corr": "spherical:120", "tier": "tail",
                "seed": rng.randrange(1000), "replicas": 400,
                "budget": TAIL_BUDGET_UA})
    return out


def batch_ref_primer(seed):
    """Cheap lines that share the batch-ref scenarios' cached tables
    (characterization and correlation structure: same mix, same p)."""
    mixes = sorted({s["mix"] for s in batch_ref_manifest(seed)})
    return [{"id": "prime-%d" % i, "n": 400, "mix": m, "corr": "spherical:120",
             "tier": "int2d"} for i, m in enumerate(mixes)]


# ------------------------------------------------------------ optimize-delta

def optimize_args(seed):
    """Arguments of one ``rgleak optimize`` op (placement seed from the
    benchmark seed; gate count, mix and budget fixed)."""
    rng = random.Random("optimize-delta:%d" % seed)
    return ["-n", str(OPTIMIZE_N), "--mix", OPTIMIZE_MIX,
            "--budget", str(OPTIMIZE_BUDGET),
            "--seed", str(rng.randrange(1, 100000))]


def all_manifests(seed):
    """Every kind of manifest the benchmark sends for ``seed`` (for the
    generator test): name -> JSONL text, plus the serve-warm request
    order under ``serve-warm.order``."""
    out = {
        "serve-warm.pool": manifest_text(serve_warm_pool(seed)),
        "serve-warm.order": " ".join(map(str, serve_warm_schedule(seed, 54))) + "\n",
        "serve-churn.primer": manifest_text(serve_churn_primer()),
        "batch-ref": manifest_text(batch_ref_manifest(seed)),
        "batch-ref.primer": manifest_text(batch_ref_primer(seed)),
    }
    for i, req in enumerate(serve_churn_requests(seed, 10)):
        out["serve-churn.%d" % i] = manifest_text(req)
    return out
