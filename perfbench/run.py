#!/usr/bin/env python3
"""Serving benchmark for mcm-serve: end to end over loopback, and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload point_large --seed 1 \
        --seconds 25 --trace 0

One run:
  1. builds mcm-serve and perfbench-replay from source
     (perfbench/CMakeLists.txt, into .bench_build/perfbench; a no-op once
     built);
  2. generates the workload's EDB, request sequence and writer batches from
     --seed into .bench_work/ (mcm-serve receives only these files and the
     request lines);
  3. starts `mcm-serve --listen 0 --workers 1` SETUP_REPS times before the
     traffic (the last start serves it) and SETUP_REPS_AFTER times after;
     setup_s is the median spawn -> "serving queries on" time;
  4. drives the server from this single thread: two closed-loop query
     connections with one request in flight each, plus one open-loop writer
     connection at WRITER_HZ (see timeline() for when it sends);
  5. checks every answer line's tuple count against CslSolver::RunReference
     on the same data at the answer's @epoch (perfbench-replay --check);
  6. replays the first requests of the same sequence in-process
     (perfbench-replay) for the exact counts (reads_per_query, probes,
     inserts, answers) and, with --trace 1, the per-layer spans.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (the end-to-end ones with --trace 0, the per-layer ones with
--trace 1). README.md records why each workload exists.
"""

import argparse
import collections
import itertools
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

RULES = ("p(X, Y) :- e(X, Y).\n"
         "p(X, Y) :- l(X, X1), p(X1, Y1), r(Y, Y1).\n")

WARMUP_S = 2.0          # excluded from every figure
SLICES = 5              # the timed window is cut into this many slices
BURST_S = 1.0           # writer burst after each slice (workloads without one)
SETUP_REPS = 8          # server starts before the traffic (the last serves)
SETUP_REPS_AFTER = 7    # and after it; setup_s is the median of all
WRITER_HZ = 10.0        # writer schedule, batches per second
DRAIN_S = 20.0          # longest wait for in-flight answers after the window
SERVE_TIMEOUT_S = 60.0  # longest wait for one server start
DELETE_LAG = 20         # a batch deletes the arc inserted this many batches ago
R_OFFSET = 1_000_000    # R-side node ids start here (disjoint from L ids)
DETACHED = 3_000_000    # node ids of the arcs no query reaches

# Workload shapes. README.md records why each exists.
# replay: requests replayed in-process for the exact counts (recursive_heavy
# replays its whole constant pool once); interleave: one writer batch per
# this many replayed requests (the wire run's ratio, ~40 q/s : 10 batches/s).
WORKLOADS = {
    "point_large": dict(kind="layered", writer=False, store=False,
                        replay=120, interleave=0),
    "recursive_heavy": dict(kind="cyclic", writer=False, store=False,
                            replay=128, interleave=0),
    "mixed_update": dict(kind="layered", writer=True, store=True,
                         replay=120, interleave=4),
}
DETAIL = 40  # replayed requests whose layers are also timed in isolation

# Layered acyclic EDB (point_large, mixed_update): L-nodes in L_LAYERS layers
# of L_WIDTH, each with L_OUT arcs into the next layer; one E arc per L-node
# into the R-layer of the same depth; R-nodes in layers of R_WIDTH, each
# with R_IN parents one layer up. Query constants: CONST_POOL nodes of layer
# CONST_LAYER, Zipf(ZIPF_S)-skewed.
L_LAYERS, L_WIDTH, L_OUT = 20, 500, 2
R_WIDTH, R_IN = 400, 2
CONST_LAYER, CONST_POOL, ZIPF_S = 14, 300, 1.0

# Table-1 cyclic shape (recursive_heavy), C_COMPONENTS independent copies of
# it: a source node over C_LAYERS layers of C_WIDTH; every node has
# 1 + C_EXTRA random in-arcs from the layer above (duplicates dropped);
# C_BACK back arcs start in the lower third and jump up at most C_BACK_SPAN
# layers; R mirrors L and E is the identity. Constants: uniform over the
# nodes of layer C_CONST_LAYER of every copy. PAYLOAD untouched tuples ride
# along in the store.
C_LAYERS, C_WIDTH, C_EXTRA, C_BACK, C_BACK_SPAN = 16, 16, 2, 16, 3
C_CONST_LAYER, C_COMPONENTS = 1, 8
PAYLOAD = 40_000

REQUESTS = 30_000  # length of the generated request sequence

ANSWER_RE = re.compile(
    r"^\[(\d+)\] ok: (\d+) tuples (stale)?@epoch (\d+) in ([0-9.]+)ms "
    r"\(queue ([0-9.]+)ms")
UPDATE_RE = re.compile(r"^update: epoch (\d+) \(")
SERVING_RE = re.compile(r"serving queries on 127\.0\.0\.1:(\d+)")

END_TO_END = [
    ("qps", "1/s"), ("query_p50_ms", "ms"), ("query_p90_ms", "ms"),
    ("ok_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("reads_per_query", "tuples"), ("update_p50_ms", "ms"),
]
PER_LAYER = [
    ("service.run_ms", "ms"), ("service.queue_ms", "ms"),
    ("service.frontend_ms", "ms"), ("service.protocol_us", "us"),
    ("datalog.parse_us", "us"), ("analysis.analyze_us", "us"),
    ("analysis.read_prediction_ratio", "ratio"),
    ("graph.magic_graph_us", "us"), ("core.solve_us", "us"),
    ("core.step1_us", "us"), ("core.step1_reads", "tuples"),
    ("core.ladder_attempts", "count"), ("eval.step2_us", "us"),
    ("eval.ns_per_read", "ns"), ("eval.probes_per_query", "count"),
    ("eval.insert_hit_ratio", "ratio"), ("storage.seed_us", "us"),
    ("storage.index_build_us", "us"), ("storage.teardown_us", "us"),
    ("storage.commit_us", "us"), ("storage.bootstrap_s", "s"),
    ("trace.coverage", "ratio"), ("workload.repeat_frac", "ratio"),
    ("workload.writer_late_ms", "ms"),
]


START = time.perf_counter()


def log(msg):
    print("[%6.2fs] %s" % (time.perf_counter() - START, msg), file=sys.stderr,
          flush=True)


class BenchError(Exception):
    """The benchmark could not run; no result line is printed."""


# --------------------------------------------------------------------------
# Build.

def build():
    """Configure and build the two binaries; returns their paths."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = [cmake, "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", BUILD_DIR, "--target", "mcm-serve",
           "perfbench-replay", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return (os.path.join(BUILD_DIR, "mcm-serve"),
            os.path.join(BUILD_DIR, "perfbench-replay"))


# --------------------------------------------------------------------------
# Workload generation (everything derives from the seed).

def zipf_sequence(rng, pool, s, n):
    weights = [1.0 / (rank + 1) ** s for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=n)


def gen_layered(rng):
    def lnode(layer, j):
        return layer * L_WIDTH + j

    def rnode(layer, j):
        return R_OFFSET + layer * R_WIDTH + j

    l_arcs = []
    for layer in range(L_LAYERS - 1):
        for j in range(L_WIDTH):
            for t in rng.sample(range(L_WIDTH), L_OUT):
                l_arcs.append((lnode(layer, j), lnode(layer + 1, t)))
    e_arcs = [(lnode(layer, j), rnode(layer, rng.randrange(R_WIDTH)))
              for layer in range(L_LAYERS) for j in range(L_WIDTH)]
    r_arcs = []
    for layer in range(1, L_LAYERS):
        for j in range(R_WIDTH):
            for t in rng.sample(range(R_WIDTH), R_IN):
                r_arcs.append((rnode(layer - 1, t), rnode(layer, j)))
    pool = [lnode(CONST_LAYER, j) for j in rng.sample(range(L_WIDTH),
                                                        CONST_POOL)]
    requests = zipf_sequence(rng, pool, ZIPF_S, REQUESTS)

    def adjacent_arc():
        layer = rng.randrange(L_LAYERS - 1)
        return (lnode(layer, rng.randrange(L_WIDTH)),
                lnode(layer + 1, rng.randrange(L_WIDTH)))

    return {"l": l_arcs, "e": e_arcs, "r": r_arcs}, requests, adjacent_arc


def gen_cyclic(rng):
    span = 1 + C_LAYERS * C_WIDTH  # node ids per component

    def node(comp, layer, j):
        if layer == 0:
            return comp * span
        return comp * span + 1 + (layer - 1) * C_WIDTH + j

    def width(layer):
        return 1 if layer == 0 else C_WIDTH

    arcs = set()
    l_arcs = []

    def add(u, v):
        if (u, v) not in arcs:
            arcs.add((u, v))
            l_arcs.append((u, v))

    bad_start = (2 * C_LAYERS) // 3
    for comp in range(C_COMPONENTS):
        for layer in range(1, C_LAYERS + 1):
            for j in range(C_WIDTH):
                for _ in range(1 + C_EXTRA):
                    add(node(comp, layer - 1, rng.randrange(width(layer - 1))),
                        node(comp, layer, j))
        placed = 0
        while placed < C_BACK:
            layer = rng.randint(bad_start + 1, C_LAYERS)
            target = max(bad_start, layer - C_BACK_SPAN)
            arc = (node(comp, layer, rng.randrange(C_WIDTH)),
                   node(comp, target, rng.randrange(C_WIDTH)))
            if arc not in arcs:
                add(*arc)
                placed += 1
    n = C_COMPONENTS * span
    r_arcs = [(u + R_OFFSET, v + R_OFFSET) for u, v in l_arcs]
    e_arcs = [(x, x + R_OFFSET) for x in range(n)]
    pool = [node(comp, C_CONST_LAYER, j) for comp in range(C_COMPONENTS)
            for j in range(C_WIDTH)]
    requests = []
    while len(requests) < REQUESTS:  # uniform: seeded rounds over the pool
        requests += rng.sample(pool, len(pool))
    payload = [(2 * R_OFFSET + i, 2 * R_OFFSET + rng.randrange(PAYLOAD))
               for i in range(PAYLOAD)]

    rels = {"l": l_arcs, "e": e_arcs, "r": r_arcs, "payload": payload}
    return rels, requests, None  # no writer workload uses this shape


def writer_batches(l_arcs, new_arc):
    """Batch k inserts one new l arc and deletes the arc batch k - DELETE_LAG
    inserted, so l keeps its size and every op is valid."""
    existing = set(l_arcs)
    inserted = []
    batches = []
    for k in range(int(WRITER_HZ * 120)):
        arc = new_arc()
        while arc in existing:
            arc = new_arc()
        existing.add(arc)
        inserted.append(arc)
        ops = ["+l(%d, %d)" % arc]
        if k >= DELETE_LAG:
            old = inserted[k - DELETE_LAG]
            existing.discard(old)
            ops.append("-l(%d, %d)" % old)
        batches.append("UPDATE " + "; ".join(ops))
    return batches


def generate(workload, seed, work):
    spec = WORKLOADS[workload]
    rng = random.Random("%s/%d" % (workload, seed))
    gen = gen_layered if spec["kind"] == "layered" else gen_cyclic
    rels, requests, adjacent_arc = gen(rng)
    if spec["writer"]:
        # Arcs between adjacent layers: the EDB stays layered (and acyclic
        # where it was) while the answers change with the epoch.
        new_arc = adjacent_arc
    else:
        # The bursts' arcs join fresh nodes no query reaches: every commit
        # still copies all of l, and every answer stays that of epoch 1.
        fresh = itertools.count(DETACHED, 2)

        def new_arc():
            u = next(fresh)
            return (u, u + 1)
    batches = writer_batches(rels["l"], new_arc)
    with open(os.path.join(work, "rules.dl"), "w") as f:
        f.write(RULES)
    with open(os.path.join(work, "facts.txt"), "w") as f:
        for name, tuples in rels.items():
            f.write("%s\t%s.tsv\n" % (name, name))
            with open(os.path.join(work, name + ".tsv"), "w") as t:
                t.write("".join("%d\t%d\n" % tup for tup in tuples))
    with open(os.path.join(work, "requests.txt"), "w") as f:
        f.write("".join("%d\n" % c for c in requests))
    with open(os.path.join(work, "updates.txt"), "w") as f:
        f.write("".join(b + "\n" for b in batches))
    return list(rels), requests, batches


# --------------------------------------------------------------------------
# Server.

class Server:
    """One mcm-serve --listen process; always stopped and reaped."""

    def __init__(self, binary, work, relations, store_dir):
        cmd = [binary, os.path.join(work, "rules.dl")]
        for name in relations:
            tsv = os.path.join(work, name + ".tsv")
            cmd += ["--fact", "%s=%s" % (name, tsv)]
        cmd += ["--listen", "0", "--workers", "1"]
        if store_dir is not None:
            cmd += ["--store", store_dir]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.stderr = []
        self.port = None
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stderr, selectors.EVENT_READ)
        buf = b""
        try:
            while self.port is None:
                left = t0 + SERVE_TIMEOUT_S - time.perf_counter()
                if left <= 0 or not sel.select(left):
                    raise BenchError("mcm-serve did not start in time")
                chunk = os.read(self.proc.stderr.fileno(), 65536)
                if not chunk:
                    raise BenchError("mcm-serve exited at start: " +
                                     buf.decode(errors="replace").strip())
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    text = line.decode(errors="replace")
                    self.stderr.append(text)
                    m = SERVING_RE.search(text)
                    if m:
                        self.port = int(m.group(1))
                        self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.stop()
            raise
        finally:
            sel.close()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for mcm-serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, err = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, err = self.proc.communicate()
        self.stderr += (err or b"").decode(errors="replace").splitlines()
        return self.proc.returncode


# --------------------------------------------------------------------------
# Load generation.

class Conn:
    def __init__(self, port, kind):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.kind = kind
        self.rbuf = b""
        self.wbuf = b""
        self.pending = collections.deque()

    def send(self, line, record):
        self.wbuf += line.encode() + b"\n"
        self.pending.append(record)
        self.flush()

    def flush(self):
        while self.wbuf:
            try:
                n = self.sock.send(self.wbuf)
            except BlockingIOError:
                return
            self.wbuf = self.wbuf[n:]

    def lines(self):
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return []
        if not chunk:
            raise BenchError("mcm-serve closed a %s connection" % self.kind)
        self.rbuf += chunk
        *done, self.rbuf = self.rbuf.split(b"\n")
        return [d.decode(errors="replace") for d in done]


def timeline(t0, seconds, writer):
    """The run's query slices and writer bursts, as (start, end) pairs.

    The timed window follows WARMUP_S of warm-up and is cut into SLICES
    equal slices; every figure is taken per slice and the median over slices
    is reported, so a slow spell of the machine moves one slice, not the
    result. With a writer (mixed_update) it sends through the whole run.
    Without one, each slice is followed by a BURST_S writer burst with the
    query connections idle: update latency is sampled at SLICES points in
    time and the query slices stay read-only.
    """
    warm_end = t0 + WARMUP_S
    step = seconds / SLICES
    gap = 0.0 if writer else BURST_S
    slices = [(warm_end + b * (step + gap), warm_end + b * (step + gap) + step)
              for b in range(SLICES)]
    if writer:
        return slices, [(t0, slices[-1][1])], slices
    bursts = [(end, end + BURST_S) for _, end in slices]
    return slices, bursts, bursts


def drive(port, spec, seconds, requests, batches):
    """Run the traffic; returns the raw records of every operation."""
    sel = selectors.DefaultSelector()
    queries = [Conn(port, "query") for _ in range(2)]
    for c in queries:
        sel.register(c.sock, selectors.EVENT_READ, c)
    # Connected when its first batch is due: the server closes a connection
    # that sends nothing for its first 10 seconds.
    writer = None

    answers = []   # [const, sent, recv, line]
    updates = []   # [batch, sched, sent, recv, line]
    t0 = time.perf_counter()
    slices, bursts, groups = timeline(t0, seconds, spec["writer"])
    # Query connections send during warm-up and the slices.
    phases = [(t0, slices[0][1])] + slices[1:]
    end_all = max(phases[-1][1], bursts[-1][1])
    schedule = collections.deque()
    for start, end in bursts:
        k = 0
        while start + k / WRITER_HZ < end:
            schedule.append(start + k / WRITER_HZ)
            k += 1
    if len(schedule) > len(batches):
        raise BenchError("the run needs more writer batches than generated")

    def in_phase(t):
        return any(start <= t < end for start, end in phases)

    def send_query(c, now):
        const = requests[len(answers) % len(requests)]
        rec = [const, now, None, None]
        answers.append(rec)
        c.send("p(%d, Y)?" % const, rec)

    idle = list(queries)  # query connections waiting for the next phase
    while True:
        now = time.perf_counter()
        while schedule and schedule[0] <= now:
            if writer is None:
                writer = Conn(port, "writer")
                sel.register(writer.sock, selectors.EVENT_READ, writer)
            rec = [len(updates), schedule.popleft(), now, None, None]
            writer.send(batches[rec[0]], rec)
            updates.append(rec)
        if idle and in_phase(now):
            for c in idle:
                send_query(c, now)
            idle = []
        conns = queries + ([writer] if writer else [])
        if now >= end_all and not any(c.pending for c in conns):
            break
        if now >= end_all + DRAIN_S:
            raise BenchError("answers still missing %.0fs after the run"
                             % DRAIN_S)
        wake = [end_all + DRAIN_S]
        if schedule:
            wake.append(schedule[0])
        if idle:
            wake += [start for start, _ in phases if start > now][:1]
        if now < end_all:
            wake.append(end_all)
        for key, _ in sel.select(max(0.0, min(wake) - now)):
            c = key.data
            for line in c.lines():
                recv = time.perf_counter()
                if not c.pending:
                    raise BenchError("unexpected line: " + line)
                rec = c.pending.popleft()
                if c is writer:
                    rec[3], rec[4] = recv, line
                elif in_phase(recv):
                    rec[2], rec[3] = recv, line
                    send_query(c, recv)
                else:
                    rec[2], rec[3] = recv, line
                    idle.append(c)
    for c in conns:
        sel.unregister(c.sock)
        c.sock.close()
    sel.close()
    return answers, updates, slices, groups


# --------------------------------------------------------------------------
# Statistics.

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def pct(xs, q):
    """The q-quantile (0 < q < 1) by the nearest-rank rule."""
    if not xs:
        return float("nan")
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q * len(s) + 0.5)) - 1))]


def mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


def fmt(xs):
    return "/".join("%.4g" % x for x in xs)


# --------------------------------------------------------------------------
# One run.

def run_replay(replay_bin, work, spec, detail, pairs_path, store_dir):
    cmd = [replay_bin, work, "--requests", str(spec["replay"]),
           "--interleave", str(spec["interleave"]),
           "--bootstrap-reps", "3" if detail else "1",
           "--check", pairs_path]
    if detail:
        cmd += ["--detail", str(DETAIL)]
        if spec["interleave"] == 0:
            cmd += ["--commits", "20"]
    if store_dir is not None:
        cmd += ["--store", store_dir]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         timeout=150)
    if out.returncode != 0:
        raise BenchError("perfbench-replay failed")
    return json.loads(out.stdout.decode())


def run(args):
    spec = WORKLOADS[args.workload]
    serve_bin, replay_bin = build()

    work = os.path.join(WORK_ROOT, "%s-s%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, spec, serve_bin, replay_bin, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def slice_of(spans, t):
    for i, (start, end) in enumerate(spans):
        if start <= t < end:
            return i
    return None


def measure(args, spec, serve_bin, replay_bin, work):
    relations, requests, batches = generate(args.workload, args.seed, work)
    log("perfbench: workload %s seed %d: %s"
        % (args.workload, args.seed,
           ", ".join("%s %d" % (n, sum(1 for _ in open(
               os.path.join(work, n + ".tsv")))) for n in relations)))

    # Set-up, each start on a fresh store: SETUP_REPS starts before the
    # traffic (the last one serves it) and SETUP_REPS_AFTER after, so the
    # median samples the machine at two points in time.
    setups = []

    def start(rep):
        store = os.path.join(work, "store%d" % rep) if spec["store"] else None
        server = Server(serve_bin, work, relations, store)
        setups.append(server.setup_s)
        return server

    for rep in range(SETUP_REPS - 1):
        start(rep).stop()
    server = start(SETUP_REPS - 1)
    try:
        answers, updates, slices, groups = drive(
            server.port, spec, args.seconds, requests, batches)
        peak_rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise BenchError("mcm-serve exited with %d: %s"
                         % (code, " | ".join(server.stderr[-3:])))
    for rep in range(SETUP_REPS, SETUP_REPS + SETUP_REPS_AFTER):
        start(rep).stop()

    # Parse every reply; the reference check follows.
    parsed = []  # (const, epoch, count, run_ms, queue_ms, sent, recv)
    for const, sent, recv, line in answers:
        m = ANSWER_RE.match(line or "")
        if m is None:
            log("perfbench: failed query p(%d, Y)?: %s" % (const, line))
            parsed.append(None)
            continue
        parsed.append((const, int(m.group(4)), int(m.group(2)),
                       float(m.group(5)), float(m.group(6)), sent, recv))
    acked = []
    for batch, sched, sent, recv, line in updates:
        m = UPDATE_RE.match(line or "")
        # Bootstrap is epoch 1; batch k commits epoch k + 2.
        ok = m is not None and int(m.group(1)) == batch + 2
        if not ok:
            log("perfbench: failed update %d: %s" % (batch, line))
        acked.append(ok)

    pairs = sorted({(p[1], p[0]) for p in parsed if p is not None})
    pairs_path = os.path.join(work, "pairs.txt")
    with open(pairs_path, "w") as f:
        f.write("".join("%d %d\n" % pr for pr in pairs))
    replay_store = os.path.join(work, "replay_store") if spec["store"] else None
    rep = run_replay(replay_bin, work, spec, args.trace == 1, pairs_path,
                     replay_store)
    reference = {(e, c): n for e, c, n in rep["check"]}
    if len(reference) != len(pairs):
        raise BenchError("reference check covered %d of %d pairs"
                         % (len(reference), len(pairs)))

    # Every answer is checked. An operation is attempted when it was sent
    # inside a slice (a query) or scheduled inside a writer group (an
    # update); figures are taken per slice or group, then their median.
    correct = True
    attempted = failed = 0
    per_slice = [dict(recv=[], lat=[]) for _ in slices]
    run_ms, queue_ms, front_ms = [], [], []
    seen = set()
    repeats = window_queries = 0
    for rec, p in zip(answers, parsed):
        good = p is not None and reference[(p[1], p[0])] == p[2]
        if p is not None and not good:
            log("perfbench: wrong answer for p(%d, Y)? @epoch %d: %d tuples, "
                "reference %d" % (p[0], p[1], p[2], reference[(p[1], p[0])]))
        correct = correct and good
        b = slice_of(slices, rec[1])
        if p is not None:
            repeats += b is not None and (p[1], p[0]) in seen
            seen.add((p[1], p[0]))
        if b is None:
            continue
        attempted += 1
        window_queries += 1
        if not good:
            failed += 1
            continue
        if p[6] < slices[b][1]:
            per_slice[b]["recv"].append(p[6])
        latency_ms = (p[6] - p[5]) * 1e3
        per_slice[b]["lat"].append(latency_ms)
        run_ms.append(p[3])
        queue_ms.append(p[4])
        front_ms.append(latency_ms - p[3] - p[4])
    per_group = [[] for _ in groups]
    late = []
    for (batch, sched, sent, recv, line), ok in zip(updates, acked):
        correct = correct and ok
        g = slice_of(groups, sched)
        if g is None:
            continue
        attempted += 1
        if not ok:
            failed += 1
            continue
        per_group[g].append((recv - sched) * 1e3)
        late.append((sent - sched) * 1e3)
    if any(len(sl["recv"]) < 2 for sl in per_slice) or not all(per_group):
        raise BenchError("a slice of the timed window got no answers")
    # Answers between the first and the last one of a slice, over the time
    # between them.
    qps = [(len(sl["recv"]) - 1) / (max(sl["recv"]) - min(sl["recv"]))
           for sl in per_slice]
    p50 = [median(sl["lat"]) for sl in per_slice]
    p90 = [pct(sl["lat"], 0.9) for sl in per_slice]
    upd = [median(g) for g in per_group]
    beyond = min(len(sl["lat"]) - int(0.9 * len(sl["lat"]))
                 for sl in per_slice)

    counts = rep["series"]
    log("perfbench: %d queries (%d in slices), %d updates, %d checked "
        "(epoch, constant) pairs, method %s"
        % (len(answers), window_queries, len(updates), len(pairs),
           collections.Counter(rep["methods"]).most_common(1)[0][0]))
    log("perfbench: per slice: qps %s; query p50 %s ms; p90 %s ms over %s "
        "samples (>= %d beyond p90); update p50 %s ms over %s samples"
        % (fmt(qps), fmt(p50), fmt(p90),
           "/".join(str(len(sl["lat"])) for sl in per_slice), beyond,
           fmt(upd), "/".join(str(len(g)) for g in per_group)))

    if args.trace == 0:
        metrics = {
            "qps": median(qps),
            "query_p50_ms": median(p50),
            "query_p90_ms": median(p90),
            "ok_frac": (attempted - failed) / attempted,
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss,
            "reads_per_query": mean(counts["reads"]),
            "update_p50_ms": median(upd),
        }
        units = dict(END_TO_END)
    else:
        predicted = [p for p in counts["predicted"] if p > 0]
        measured = [r for r, p in zip(counts["reads"], counts["predicted"])
                    if p > 0]
        # The layer spans of the requests that also ran through the
        # in-process service, against that service's own run time.
        service_us = counts["service_run_us"]
        spans = [sum(v) for v in zip(counts["parse_us"], counts["seed_us"],
                                     counts["analyze_us"], counts["solve_us"],
                                     counts["teardown_us"])][:len(service_us)]
        metrics = {
            "service.run_ms": median(run_ms),
            "service.queue_ms": median(queue_ms),
            "service.frontend_ms": median(front_ms),
            "service.protocol_us": median(counts["protocol_us"]),
            "datalog.parse_us": median(counts["parse_us"]),
            "analysis.analyze_us": median(counts["analyze_us"]),
            "analysis.read_prediction_ratio":
                sum(measured) / sum(predicted) if predicted else float("nan"),
            "graph.magic_graph_us": median(counts["graph_us"]),
            "core.solve_us": median(counts["solve_us"]),
            "core.step1_us": median(counts["step1_us"]),
            "core.step1_reads": mean(counts["step1_reads"]),
            "core.ladder_attempts": mean(counts["attempts"]),
            "eval.step2_us": median(counts["step2_us"]),
            "eval.ns_per_read":
                1e3 * sum(counts["step2_us"]) / sum(counts["step2_reads"]),
            "eval.probes_per_query": mean(counts["probes"]),
            "eval.insert_hit_ratio":
                sum(counts["inserted"]) / sum(counts["insert_attempts"]),
            "storage.seed_us": median(counts["seed_us"]),
            "storage.index_build_us": median(counts["index_us"]),
            "storage.teardown_us": median(counts["teardown_us"]),
            "storage.commit_us": median(rep["commit_us"]),
            "storage.bootstrap_s": median(rep["bootstrap_s"]),
            "trace.coverage": sum(spans) / sum(service_us),
            "workload.repeat_frac": repeats / window_queries,
            "workload.writer_late_ms": pct(late, 0.9),
        }
        units = dict(PER_LAYER)
    bad = [name for name, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise BenchError("no finite value for " + ", ".join(bad))
    exact = {k: counts[k] for k in ("reads", "probes", "inserted",
                                    "insert_attempts", "answers")}
    log("perfbench: exact counts %s" % json.dumps(
        {k: sum(v) for k, v in exact.items()}, sort_keys=True))
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    print("perfbench: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
