"""The traced run (``--trace 1``): per-layer metrics, taken from outside.

Whatever the workload, a traced run measures every layer, so each
traced run prints the same metric names:

1. The serve layer.  A daemon on a fresh cache is driven as the
   workload drives it (serve-churn traffic for serve-churn, serve-warm
   traffic otherwise) and asked for its ``stats`` before and after:
   server-side p50, the outside time (client p50 minus server p50:
   queue wait, framing, socket) and the cache hit ratio.
2. For batch-ref and optimize-delta, a few untraced ops of the
   workload give its end-to-end p50 for ``trace.coverage``.
3. The in-process tracer (``tracer/tracer.ml``) replays this seed's
   inputs of all four workloads and times calls into each layer's
   public functions.

``trace.coverage`` is the layer time of one op of the selected workload
(plus the outside time, for serve) divided by its end-to-end p50 in
this run; ``trace.untimed_ms`` is what no layer metric accounts for.
"""

import json
import statistics
import subprocess

import bench
import gen

# Serve traffic of the traced run: requests after the primer.
TRACE_WARM_PASSES = 2
TRACE_CHURN_REQUESTS = 20
# Churn manifests the tracer replays in-process.
TRACE_CHURN_REPLAYED = 3
TRACE_PROCESS_OPS = 2

def write_inputs(ctx, tdir):
    seed = ctx.seed

    def put(name, text):
        with open("%s/%s" % (tdir, name), "w") as f:
            f.write(text)

    put("pool.jsonl", gen.manifest_text(gen.serve_warm_pool(seed)))
    churn = gen.serve_churn_requests(seed, bench.CHURN_WARMUP + TRACE_CHURN_REQUESTS)
    for i, req in enumerate(churn[bench.CHURN_WARMUP:][:TRACE_CHURN_REPLAYED]):
        put("churn-%d.jsonl" % i, gen.manifest_text(req))
    put("batch-ref.jsonl", gen.manifest_text(gen.batch_ref_manifest(seed)))
    a = gen.optimize_args(seed)
    put("optimize.args", "\n".join([a[a.index(k) + 1] for k in
                                    ("-n", "--mix", "--budget", "--seed")]) + "\n")
    return churn


def serve_stats(d):
    status, code, payload = d.call("stats")
    if status != "ok" or code != 0:
        raise bench.BenchError("stats request failed")
    return json.loads(payload)


def serve_layer(ctx, workload, churn):
    """Drives a daemon and returns (client latencies in ms, stats before,
    stats after, requests sent, requests failed)."""
    if workload == "serve-churn":
        primer = gen.manifest_text(gen.serve_churn_primer())
        bodies = [gen.manifest_text(r).encode() for r in churn]
        cap = bench.CHURN_CACHE_CAP
    else:
        pool = gen.serve_warm_pool(ctx.seed)
        primer = gen.manifest_text(pool)
        order = gen.serve_warm_schedule(ctx.seed, TRACE_WARM_PASSES * len(pool))
        bodies = [gen.manifest_text([pool[i]]).encode() for i in order]
        cap = None
    d, _, _ = bench.start_serve(ctx, primer, cap)
    try:
        before = serve_stats(d)
        _, res = bench.closed_loop(d.sock_rel, bodies)
        after = serve_stats(d)
    finally:
        d.stop()
    failed, lat = bench.tally(res, lambda k, payload: True)
    return [x * 1000.0 for x in lat], before, after, len(res), failed


def run(ctx, workload):
    tdir = ctx.fresh_dir("trace")
    churn = write_inputs(ctx, tdir)
    metrics = {}
    lat, before, after, sent, failed = serve_layer(ctx, workload, churn)
    # Serve requests, the process ops below, and the tracer run itself.
    attempted = sent + 1
    client_p50 = statistics.median(lat)
    server_p50 = after["latency_p50_s"] * 1000.0
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    looked = hits + after["cache"]["misses"] - before["cache"]["misses"]
    metrics["serve.server_p50_ms"] = (server_p50, "ms")
    metrics["serve.outside_ms"] = (client_p50 - server_p50, "ms")
    metrics["serve.cache_hit_ratio"] = (hits / looked if looked else 0.0, "ratio")
    metrics["serve.requests"] = (len(lat), "count")

    if workload == "batch-ref":
        e2e_p50, a, f = bench.batch_ref_p50(ctx, TRACE_PROCESS_OPS)
    elif workload == "optimize-delta":
        e2e_p50, a, f = bench.optimize_p50(ctx, TRACE_PROCESS_OPS)
    else:
        e2e_p50, a, f = client_p50, 0, 0
    attempted += a
    failed += f

    r = subprocess.run([ctx.tracer, "profile", tdir, str(ctx.jobs),
                        str(bench.CHURN_CACHE_CAP)],
                       cwd=ctx.rundir, env=ctx.env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=bench.OP_TIMEOUT_S * 3)
    if r.returncode != 0:
        bench.log("tracer failed: %s" % r.stderr.decode(errors="replace")[-400:])
        raise bench.BenchError("tracer failed")
    busy = {}
    for line in r.stdout.decode().splitlines():
        name, value, unit = line.split("\t")
        if name.startswith("busy."):
            busy[name[len("busy."):-len("_ms")]] = float(value)
        else:
            metrics[name] = (float(value), unit)

    accounted = busy[workload]
    if workload.startswith("serve"):
        accounted += client_p50 - server_p50
    cov = accounted / e2e_p50
    metrics["trace.coverage"] = (cov, "ratio")
    metrics["trace.untimed_ms"] = (e2e_p50 - accounted, "ms")
    metrics["trace.e2e_p50_ms"] = (e2e_p50, "ms")
    if cov < 0.9:
        gap = ("daemon-side time outside the replayed layers (event loop, "
               "Obs spans, response encoding)" if workload.startswith("serve")
               else "process start, domain-pool start-up, report printing and exit")
        bench.log("trace.coverage %.3f for %s: %.1f ms per op untimed: %s"
                  % (cov, workload, e2e_p50 - accounted, gap))
    return attempted, failed, metrics
