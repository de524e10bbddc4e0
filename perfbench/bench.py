"""Machinery and end-to-end workloads of the rgleak benchmark.

Each ``run_<workload>(ctx, seconds)`` sets up fresh state SETUPS times
(``setup_s`` is the median), runs a fixed number of untimed warm-up ops
and then a fixed number of timed ops, checks every output, and returns
``(attempted, failed, metrics)`` with ``metrics`` mapping a name to
``(value, unit)``.
"""

import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import gen

# Setups per run; setup_s is their median.
SETUPS = 3
# Per-request and per-process deadline: an op slower than this fails.
OP_TIMEOUT_S = 60.0
# Serve daemon: admission cap well above the 2 in-flight requests.
MAX_QUEUE = 64
# serve-churn cache cap: the 2.17 MB characterization entry plus room
# for about one request's worth of correlation tables and linear memos,
# so older tables are evicted on every request but the characterization
# entry (touched at the start of each request) never is.
CHURN_CACHE_CAP = 4 * 1024 * 1024
SERVE_CONNS = 2

MAGIC = b"rgleak-serve/1"


class BenchError(Exception):
    """A failure of the benchmark itself (not of a measured op)."""


# ------------------------------------------------------------------ utilities

def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list, q in [0, 1]."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(values, q):
    """The q-percentile when at least 10 samples lie beyond it, else the
    median (the only percentile a short run supports)."""
    p = percentile(values, q)
    if sum(1 for v in values if v > p) >= 10:
        return p
    return percentile(values, 0.5)


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Ctx:
    """Paths and environment of one run."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.build = os.path.join(root, ".bench_build")
        self.dune_build = os.path.join(self.build, "dune")
        self.exe = os.path.join(self.dune_build, "default", "bin", "rgleak.exe")
        self.tracer = os.path.join(self.dune_build, "default", "perfbench",
                                   "tracer", "tracer.exe")
        self.rundir = os.path.join(self.build, "run-%s-%d" % (workload, os.getpid()))
        self.seed = seed
        # Every spawned binary gets --jobs min(2, nproc).
        self.jobs = max(1, min(2, os.cpu_count() or 1))
        self.env = dict(os.environ)
        self.env["RGLEAK_CACHE_DIR"] = os.path.join(self.rundir, "default-cache")
        self.env["XDG_CACHE_HOME"] = os.path.join(self.rundir, "xdg")
        self.children = []
        self.n = 0

    def path(self, name):
        return os.path.join(self.rundir, name)

    def unique(self, prefix):
        """A path in the run directory no other call has returned."""
        self.n += 1
        return self.path("%s%d" % (prefix, self.n))

    def fresh_dir(self, prefix):
        d = self.unique(prefix + "-")
        os.makedirs(d)
        return d

    def stop_children(self):
        """Kills and reaps every child still running."""
        for p in self.children:
            if p.poll() is None:
                p.kill()
            p.wait()
        self.children = []

    def write(self, name, text):
        p = self.path(name)
        with open(p, "w") as f:
            f.write(text)
        return p


def build(ctx):
    """Builds rgleak and the tracer with dune (a no-op when up to date)."""
    if not os.path.exists(os.path.join(ctx.root, "dune-project")):
        raise BenchError("no dune-project in %s: not an rgleak checkout" % ctx.root)
    if shutil.which("dune") is None:
        raise BenchError("dune not found on PATH")
    os.makedirs(ctx.build, exist_ok=True)
    env = dict(ctx.env)
    env["DUNE_CACHE"] = "disabled"
    cmd = ["dune", "build", "--root", ".", "--build-dir", ctx.dune_build,
           "--profile", "release", "bin/rgleak.exe",
           "perfbench/tracer/tracer.exe"]
    r = subprocess.run(cmd, cwd=ctx.root, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise BenchError("build failed (exit %d)" % r.returncode)


# ------------------------------------------------------------ child processes

class Result:
    def __init__(self, code, wall_s, cpu_s, maxrss_mb, stdout):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout


def run_rgleak(ctx, args, name, timeout=OP_TIMEOUT_S):
    """Runs one rgleak process in the run directory and times it from
    spawn to exit; stdout goes to a file, rusage comes from wait4."""
    out_path = ctx.path(name + ".out")
    err_path = ctx.path(name + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen([ctx.exe] + args, cwd=ctx.rundir, env=ctx.env,
                             stdout=out, stderr=err)
        ctx.children.append(p)
        deadline = t0 + timeout
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                break
            if time.perf_counter() > deadline:
                p.kill()
                os.wait4(p.pid, 0)
                p.returncode = -9
                ctx.children.remove(p)
                return Result(-9, timeout, 0.0, 0.0, b"")
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    ctx.children.remove(p)
    with open(out_path, "rb") as f:
        stdout = f.read()
    if p.returncode != 0:
        with open(err_path, "rb") as f:
            log("%s exited %d: %s" % (name, p.returncode,
                                      f.read().decode(errors="replace")[-400:]))
    return Result(p.returncode, wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024.0, stdout)


def batch_records(stdout):
    """Record lines of an rgleak-batch/1 report (header dropped)."""
    lines = stdout.decode().splitlines()
    if not lines or '"rgleak-batch/1"' not in lines[0]:
        raise BenchError("not an rgleak-batch/1 report")
    return lines[1:]


# ------------------------------------------------------------- serve protocol

def encode_request(op, body=b""):
    return MAGIC + b" " + op.encode() + b" " + str(len(body)).encode() + b"\n" + body


class Conn:
    """One client connection speaking rgleak-serve/1."""

    def __init__(self, sock_path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.buf = b""

    def send(self, op, body=b""):
        self.sock.sendall(encode_request(op, body))

    def try_decode(self):
        """(status, code, payload) once a full response is buffered."""
        nl = self.buf.find(b"\n")
        if nl < 0:
            return None
        head = self.buf[:nl].split(b" ")
        if len(head) != 4 or head[0] != MAGIC:
            raise BenchError("malformed response header %r" % self.buf[:nl])
        length = int(head[3])
        end = nl + 1 + length
        if len(self.buf) < end:
            return None
        payload = self.buf[nl + 1:end]
        self.buf = self.buf[end:]
        return head[1].decode(), int(head[2]), payload

    def recv_into_buf(self):
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("daemon closed the connection")
        self.buf += chunk

    def call(self, op, body=b"", timeout=OP_TIMEOUT_S):
        self.send(op, body)
        self.sock.settimeout(timeout)
        try:
            while True:
                r = self.try_decode()
                if r is not None:
                    return r
                self.recv_into_buf()
        finally:
            self.sock.settimeout(None)

    def close(self):
        self.sock.close()


def closed_loop(sock_path, bodies, conns=SERVE_CONNS):
    """Sends ``bodies`` as estimate requests over ``conns`` connections,
    each sending its next request only after the previous reply.  Returns
    the elapsed seconds and per-request (latency_s, status, code, payload)
    in request order; a request past OP_TIMEOUT_S ends the loop and the
    unanswered ones come back as None."""
    results = [None] * len(bodies)
    sel = selectors.DefaultSelector()
    cs = [Conn(sock_path) for _ in range(min(conns, len(bodies)))]
    nxt = 0
    inflight = {}
    t_start = time.perf_counter()
    try:
        for c in cs:
            sel.register(c.sock, selectors.EVENT_READ, c)
            inflight[c] = (nxt, time.perf_counter())
            c.send("estimate", bodies[nxt])
            nxt += 1
        while inflight:
            events = sel.select(timeout=1.0)
            now = time.perf_counter()
            if any(now - t0 > OP_TIMEOUT_S for _, t0 in inflight.values()):
                log("serve request timed out")
                break
            for key, _ in events:
                c = key.data
                c.recv_into_buf()
                r = c.try_decode()
                if r is None:
                    continue
                i, t0 = inflight.pop(c)
                results[i] = (time.perf_counter() - t0,) + r
                if nxt < len(bodies):
                    inflight[c] = (nxt, time.perf_counter())
                    c.send("estimate", bodies[nxt])
                    nxt += 1
        elapsed = time.perf_counter() - t_start
    finally:
        sel.close()
        for c in cs:
            c.close()
    return elapsed, results


class Daemon:
    def __init__(self, ctx, cache_dir, cap=None):
        self.ctx = ctx
        # Relative socket path: the checkout path may exceed the 108-byte
        # limit of a Unix socket address.
        name = ctx.unique("daemon")
        self.sock_rel = os.path.relpath(name + ".sock", os.getcwd())
        args = ["serve", "--socket", os.path.basename(self.sock_rel),
                "--cache-dir", cache_dir, "--jobs", str(ctx.jobs),
                "--max-queue", str(MAX_QUEUE)]
        if cap is not None:
            args += ["--cache-cap", str(cap)]
        self.err = open(name + ".err", "wb")
        self.proc = subprocess.Popen([ctx.exe] + args, cwd=ctx.rundir, env=ctx.env,
                                     stdout=subprocess.DEVNULL, stderr=self.err)
        ctx.children.append(self.proc)

    def wait_listening(self, timeout=OP_TIMEOUT_S):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited %d before listening" % self.proc.returncode)
            if os.path.exists(self.sock_rel):
                try:
                    c = Conn(self.sock_rel)
                    c.close()
                    return
                except OSError:
                    pass
            time.sleep(0.002)
        raise BenchError("daemon not listening after %gs" % timeout)

    def call(self, op, body=b""):
        c = Conn(self.sock_rel)
        try:
            return c.call(op, body)
        finally:
            c.close()

    def stop(self):
        """SIGTERM (drain), then SIGKILL after 10 s; always reaps the
        process and unlinks the socket."""
        p = self.proc
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p in self.ctx.children:
            self.ctx.children.remove(p)
        self.err.close()
        try:
            os.unlink(self.sock_rel)
        except OSError:
            pass


def start_serve(ctx, primer_text, cap=None):
    """Spawns a daemon on a fresh cache and primes it.  Returns the daemon
    and the seconds from spawn to the primer's reply (one setup)."""
    cache = ctx.fresh_dir("cache")
    t0 = time.perf_counter()
    d = Daemon(ctx, cache, cap)
    try:
        d.wait_listening()
        status, code, payload = d.call("estimate", primer_text.encode())
        setup = time.perf_counter() - t0
        if status != "ok" or code != 0:
            raise BenchError("primer failed: %s %d %r" % (status, code, payload[:200]))
    except BaseException:
        d.stop()
        raise
    return d, cache, setup


def setup_serve(ctx, primer_text, cap=None):
    """SETUPS fresh daemons; all but the last are stopped."""
    times = []
    for i in range(SETUPS):
        d, cache, t = start_serve(ctx, primer_text, cap)
        times.append(t)
        if i < SETUPS - 1:
            d.stop()
    return d, cache, statistics.median(times)


def e2e_metrics(ops, elapsed, lat_ms, cpu_s, rss_mb):
    """The end-to-end metrics of a timed phase (setup_s is added by the
    caller)."""
    return {
        "throughput_per_s": (ops / elapsed, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (tail_percentile(lat_ms, 0.9), "ms"),
        "cpu_ms_per_op": (cpu_s * 1000.0 / ops, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def tally(results, expected):
    """Failed count and latencies (s) of closed-loop results.  A reply
    fails unless it is ``ok`` with code 0 and ``expected(k, payload)``
    holds for its request index ``k``."""
    failed, lat = 0, []
    for k, r in enumerate(results):
        if r is None or r[1] != "ok" or r[2] != 0 or not expected(k, r[3]):
            failed += 1
        if r is not None:
            lat.append(r[0])
    return failed, lat


def serve_metrics(d, elapsed, lat_s, cpu0):
    return e2e_metrics(len(lat_s), elapsed, [x * 1000.0 for x in lat_s],
                       proc_cpu_s(d.proc.pid) - cpu0, proc_peak_rss_mb(d.proc.pid))


# -------------------------------------------------------------- the workloads

def serve_warm_ops(seconds):
    # Whole passes over the 27-entry pool, at least 5 (135 requests, so
    # p90 has >= 10 samples beyond it); about 15 requests per second.
    pool = len(gen.serve_warm_pool(0))
    return pool * max(5, round(seconds * 15 / pool))


def run_serve_warm(ctx, seconds):
    pool = gen.serve_warm_pool(ctx.seed)
    ops = serve_warm_ops(seconds)
    order = gen.serve_warm_schedule(ctx.seed, ops)
    pool_text = gen.manifest_text(pool)
    d, cache, setup = setup_serve(ctx, pool_text)
    try:
        # References: rgleak batch over the pool on the primed cache.
        ref = run_rgleak(ctx, ["batch", "--cache-dir", cache, "--jobs", str(ctx.jobs),
                               ctx.write("pool.jsonl", pool_text)], "pool-ref")
        if ref.code != 0:
            raise BenchError("reference batch failed")
        refs = [(line + "\n").encode() for line in batch_records(ref.stdout)]
        bodies = [gen.manifest_text([pool[i]]).encode() for i in range(len(pool))]
        # Warm-up: one pass over the pool, untimed.
        _, warm = closed_loop(d.sock_rel, bodies)
        cpu0 = proc_cpu_s(d.proc.pid)
        elapsed, res = closed_loop(d.sock_rel, [bodies[i] for i in order])
        failed, lat = tally(res, lambda k, payload: payload == refs[order[k]])
        failed += tally(warm, lambda k, payload: payload == refs[k])[0]
        m = serve_metrics(d, elapsed, lat, cpu0)
    finally:
        d.stop()
    m["setup_s"] = (setup, "s")
    return len(warm) + ops, failed, m


CHURN_WARMUP = 5
CHURN_CHECKED = 6


def serve_churn_ops(seconds):
    # Multiples of the 5 manifest sizes, at least 110 requests (for p90);
    # about 7.5 requests per second.
    return 5 * max(22, round(seconds * 7.5 / 5))


def run_serve_churn(ctx, seconds):
    ops = serve_churn_ops(seconds)
    reqs = gen.serve_churn_requests(ctx.seed, CHURN_WARMUP + ops)
    texts = [gen.manifest_text(r) for r in reqs]
    d, cache, setup = setup_serve(ctx, gen.manifest_text(gen.serve_churn_primer()),
                                  cap=CHURN_CACHE_CAP)
    try:
        bodies = [t.encode() for t in texts]
        _, warm = closed_loop(d.sock_rel, bodies[:CHURN_WARMUP])
        cpu0 = proc_cpu_s(d.proc.pid)
        elapsed, res = closed_loop(d.sock_rel, bodies[CHURN_WARMUP:])
        # One record line per scenario line; bytes are checked below.
        failed, lat = tally(res, lambda k, payload:
                            payload.count(b"\n") == len(reqs[CHURN_WARMUP + k]))
        failed += tally(warm, lambda k, payload: True)[0]
        m = serve_metrics(d, elapsed, lat, cpu0)
        # Re-run a seeded sample of the timed requests through batch.
        rng = random.Random("serve-churn-check:%d" % ctx.seed)
        sample = sorted(rng.sample(range(ops), CHURN_CHECKED))
        text = "".join(texts[CHURN_WARMUP + k] for k in sample)
        ref = run_rgleak(ctx, ["batch", "--cache-dir", cache, "--jobs", str(ctx.jobs),
                               ctx.write("churn-check.jsonl", text)], "churn-ref")
        if ref.code != 0:
            raise BenchError("churn reference batch failed")
        ref_lines = batch_records(ref.stdout)
        pos = 0
        for k in sample:
            n = len(reqs[CHURN_WARMUP + k])
            want = "".join(line + "\n" for line in ref_lines[pos:pos + n]).encode()
            pos += n
            r = res[k]
            # Replies already counted as failed above are not counted twice.
            if r is not None and r[1] == "ok" and r[2] == 0 and r[3] != want:
                failed += 1
    finally:
        d.stop()
    m["setup_s"] = (setup, "s")
    return CHURN_WARMUP + ops, failed, m


# The process workloads time a few ops of 1-3 s each, over about a third
# of --seconds, so that all four workloads fit the benchmark's time
# budget.

def batch_ref_ops(seconds):
    # One op is one ~1.1 s batch process.
    return max(3, round(seconds / 3))


def process_metrics(results, elapsed):
    return e2e_metrics(len(results), elapsed, [r.wall_s * 1000.0 for r in results],
                       sum(r.cpu_s for r in results), max(r.maxrss_mb for r in results))


def batch_ref_setup(ctx, setups):
    """``setups`` fresh caches, each primed by one batch run of the primer;
    returns the last cache, the manifest path and the setup times."""
    manifest = ctx.write("batch-ref.jsonl", gen.manifest_text(gen.batch_ref_manifest(ctx.seed)))
    primer = ctx.write("batch-primer.jsonl", gen.manifest_text(gen.batch_ref_primer(ctx.seed)))
    times = []
    for i in range(setups):
        cache = ctx.fresh_dir("cache")
        r = run_rgleak(ctx, ["batch", "--cache-dir", cache, "--jobs", str(ctx.jobs), primer],
                       "setup%d" % i)
        if r.code != 0:
            raise BenchError("batch-ref setup failed")
        times.append(r.wall_s)
    return cache, manifest, times


def batch_ref_timed(ctx, cache, manifest, ops):
    """A --jobs 1 reference, one warm-up op, then ``ops`` timed ops; all
    1 + ``ops`` are checked byte for byte against the reference."""
    args = ["batch", "--cache-dir", cache, manifest]
    ref = run_rgleak(ctx, args + ["--jobs", "1"], "ref-jobs1")
    if ref.code != 0:
        raise BenchError("batch-ref --jobs 1 reference failed")
    args += ["--jobs", str(ctx.jobs)]
    failed = 0
    if run_rgleak(ctx, args, "warmup").stdout != ref.stdout:
        failed += 1
    results = []
    t0 = time.perf_counter()
    for i in range(ops):
        r = run_rgleak(ctx, args, "op%d" % i)
        results.append(r)
        if r.code != 0 or r.stdout != ref.stdout:
            failed += 1
    return results, time.perf_counter() - t0, failed


def run_batch_ref(ctx, seconds):
    cache, manifest, times = batch_ref_setup(ctx, SETUPS)
    results, elapsed, failed = batch_ref_timed(ctx, cache, manifest, batch_ref_ops(seconds))
    m = process_metrics(results, elapsed)
    m["setup_s"] = (statistics.median(times), "s")
    return 1 + len(results), failed, m


def batch_ref_p50(ctx, ops):
    """End-to-end p50 (ms) of ``ops`` batch-ref ops after one setup, with
    the attempted and failed op counts."""
    cache, manifest, _ = batch_ref_setup(ctx, 1)
    results, _, failed = batch_ref_timed(ctx, cache, manifest, ops)
    return percentile([r.wall_s * 1000.0 for r in results], 0.5), 1 + ops, failed


def optimize_ops(seconds):
    # One op is one ~2.6 s optimize process.
    return max(3, round(seconds / 6))


def optimize_setup(ctx, setups):
    """``setups`` times: characterize the library into a fresh file and
    prime a fresh cache with one optimize run.  Returns the arguments of
    an op on the last setup, its report (the reference) and the setup
    times."""
    base = ["optimize"] + gen.optimize_args(ctx.seed) + ["--jobs", str(ctx.jobs)]
    times = []
    for i in range(setups):
        char = ctx.path("char%d.txt" % i)
        cache = ctx.fresh_dir("cache")
        args = base + ["--char", char, "--cache-dir", cache, "--json", "report.json"]
        t0 = time.perf_counter()
        r = run_rgleak(ctx, ["characterize", "--save", char, "--jobs", str(ctx.jobs)],
                       "char%d" % i)
        if r.code != 0:
            raise BenchError("characterize failed")
        r = run_rgleak(ctx, args, "prime%d" % i)
        if r.code != 0:
            raise BenchError("optimize priming run failed")
        times.append(time.perf_counter() - t0)
    return args, optimize_report(ctx, r), times


def optimize_report(ctx, r):
    """The op's stdout and --json report; the report file is consumed, so
    a later op that writes none cannot pass on a stale copy."""
    path = ctx.path("report.json")
    try:
        with open(path, "rb") as f:
            report = f.read()
        os.remove(path)
    except FileNotFoundError:
        report = None
    return r.stdout, report


def optimize_timed(ctx, args, ref, ops):
    """``ops`` timed ops, each report checked against ``ref``."""
    failed = 0
    results = []
    t0 = time.perf_counter()
    for i in range(ops):
        r = run_rgleak(ctx, args, "op%d" % i)
        results.append(r)
        if r.code != 0 or optimize_report(ctx, r) != ref:
            failed += 1
    return results, time.perf_counter() - t0, failed


def run_optimize(ctx, seconds):
    args, ref, times = optimize_setup(ctx, SETUPS)
    results, elapsed, failed = optimize_timed(ctx, args, ref, optimize_ops(seconds))
    m = process_metrics(results, elapsed)
    m["setup_s"] = (statistics.median(times), "s")
    return len(results), failed, m


def optimize_p50(ctx, ops):
    """End-to-end p50 (ms) of ``ops`` optimize ops after one setup, with
    the attempted and failed op counts."""
    args, ref, _ = optimize_setup(ctx, 1)
    results, _, failed = optimize_timed(ctx, args, ref, ops)
    return percentile([r.wall_s * 1000.0 for r in results], 0.5), ops, failed


RUNNERS = {
    "serve-warm": run_serve_warm,
    "serve-churn": run_serve_churn,
    "batch-ref": run_batch_ref,
    "optimize-delta": run_optimize,
}
