#!/usr/bin/env python3
"""The repository benchmark: three workloads through the program's entry
points, every output checked, every metric printed by name and unit.

    python3 perfbench/run.py --workload fd-augment --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds forestd.exe and the
benchmark's own executables from source into .bench_build/. Progress and
tables go to stderr; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer
list. See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import gc
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD = os.path.join(".bench_build", "dune")
WORK = os.path.join(".bench_build", "perfbench")
# the context bench.workspace declares
OUT = os.path.join(BUILD, "perfbench")
FORESTD = os.path.join(OUT, "bin", "forestd.exe")
CALIB = os.path.join(OUT, "perfbench", "calib.exe")
NWBENCH = os.path.join(OUT, "perfbench", "nwbench.exe")
NWTRACE = os.path.join(OUT, "perfbench", "nwtrace.exe")
BATCH = ("fd-augment", "sfd-hpstar")
SERVE = "serve-churn"

# forest-union instances (alpha exact by construction) and the palette
# each algorithm promises: ceil((1+eps)alpha) for Theorem 4.6, 3t with
# t = floor((2+eps)alpha*) for Theorem 2.1
INSTANCE = {"fd-augment": (5000, 8), "sfd-hpstar": (15625, 8)}
FD_EPS = 0.5
SFD_EPS = 1.0
PALETTE = {"fd-augment": math.ceil((1 + FD_EPS) * 8), "sfd-hpstar": 3 * math.floor((2 + SFD_EPS) * 8)}

# a batch run keeps starting ops until --seconds have passed, and makes
# at least this many; the traced run alternates traced and untraced ops
MIN_OPS = 5
OP_TIMEOUT = 170
# serve-churn: one session of forest-union n = 10 000, alpha = 3, then a
# fixed-length script, about --seconds long at HEAD, so that forests and
# fallbacks stay deterministic per seed; p99 needs >= 2 000 churn
# requests to leave 20 samples beyond it
SERVE_N = 10000
SERVE_ALPHA = 3
SERVE_EPS = 0.5
REQUESTS_PER_SECOND = 180
MIN_REQUESTS = 2400
SETUPS = 9
# requests between two calibrations: 2-3 s at HEAD
CHUNK = 400
RPC_TIMEOUT = 60
# Every end-to-end time is reported at the host speed where the
# calibration slab (calib.ml) runs in this many seconds. The slab runs
# before and after every batch op, set-up and chunk of churn requests;
# each of these is scaled by CALIB_REF_S / the mean of the two slab
# times around it, and medians are taken over the scaled values. The
# shared host's speed moved batch ops by 40-70% between quiet and busy
# hours and by 20% between runs minutes apart; the slab moves with it.
CALIB_REF_S = 0.33


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def build(trace):
    for need in ("BENCHMARK.json", "dune-project", "lib", "bin/forestd.ml",
                 "perfbench/dune", "perfbench/bench.workspace"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a checkout of the repository" % need)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    os.makedirs(WORK, exist_ok=True)
    targets = ["./bin/forestd.exe", "./perfbench/calib.exe", "./perfbench/nwbench.exe"]
    if trace:
        targets.append("./perfbench/nwtrace.exe")
    cmd = [dune, "build", "--root", ".", "--workspace", "perfbench/bench.workspace",
           "--build-dir", os.path.abspath(BUILD), "--cache", "disabled", "-j", "2"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed", 1)


class Child:
    """One process in its own process group, its stdout read line by line
    with the time each line arrived. The group is killed once the process
    has ended or on timeout, so nothing it started outlives it."""

    def __init__(self, args, timeout=OP_TIMEOUT):
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                                     start_new_session=True)
        self.timer = threading.Timer(timeout, self.kill)
        self.timer.start()
        self.lines = []

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self):
        """[(arrival, line)], exit code, peak RSS in kB (ru_maxrss)"""
        for raw in self.proc.stdout:
            self.lines.append((time.monotonic(), raw.decode(errors="replace").rstrip("\n")))
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.timer.cancel()
        self.kill()
        return self.lines, self.proc.returncode, usage.ru_maxrss


def run_json(args, timeout=OP_TIMEOUT):
    lines, code, _ = Child(args, timeout).finish()
    if code != 0 or not lines:
        log("perfbench: %s exited %d" % (os.path.basename(args[0]), code))
        return None
    try:
        return json.loads(lines[-1][1])
    except ValueError:
        return None


def calibrate():
    rec = run_json([CALIB])
    if rec is None:
        die("calibration failed", 1)
    return rec["calib_s"]


def scale(calib, i):
    """the factor for what ran between slab runs i and i+1"""
    return CALIB_REF_S * 2 / (calib[i] + calib[i + 1])


def p50(xs):
    return statistics.median(xs)


def nearest_rank(xs, q):
    s = sorted(xs)
    return s[max(0, min(len(s), math.ceil(q * len(s))) - 1)]


# ---------------------------------------------------------------------
# instances and the output check
# ---------------------------------------------------------------------

def read_edges(path):
    with open(path) as f:
        lines = f.read().split("\n")
    n = int(lines[0].split()[1])
    return n, [tuple(map(int, l.split())) for l in lines[1:] if l]


def generate(n, alpha, seed, out, shuffle):
    """forestd generate; with [shuffle] the edges are listed in an order
    shuffled by the seed (in generator order, first-fit coloring just
    rebuilds the planted forests)"""
    _, code, _ = Child([FORESTD, "generate", "--family", "forest-union", "-n", str(n),
                        "--alpha", str(alpha), "--seed", str(seed), "-o", out]).finish()
    if code != 0:
        die("instance generation failed", 1)
    n, edges = read_edges(out)
    if shuffle:
        random.Random(seed * 1000003 + 0x5bf1e).shuffle(edges)
        with open(out, "w") as f:
            f.write("n %d\n" % n)
            f.writelines("%d %d\n" % e for e in edges)
    return n, edges


def check_classes(n, k, colored, star):
    """None if every color class of [(u, v, color)], colors in 0..k-1, is
    a forest (a star forest if [star]), else what is wrong. Vertex v of
    class c is node c*n+v."""
    parent = list(range(k * n))
    deg = [0] * (k * n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, c in colored:
        a, b = find(c * n + u), find(c * n + v)
        if a == b:
            return "color %d closes a cycle at edge %d-%d" % (c, u, v)
        parent[a] = b
        deg[c * n + u] += 1
        deg[c * n + v] += 1
    if star:
        # a forest is a star forest iff every edge has a leaf endpoint
        for u, v, c in colored:
            if deg[c * n + u] > 1 and deg[c * n + v] > 1:
                return "color %d is not a star forest at edge %d-%d" % (c, u, v)
    return None


def check_coloring(path, n, edges, palette, star, corrupt=False):
    """The benchmark's own check of a saved decomposition (coloring_io
    format): every edge colored once, within the palette, every class a
    (star) forest. Returns (problem or None, colors used). [corrupt]
    drops the first edge's line first (the self-test)."""
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except OSError as e:
        return "no coloring: %s" % e, 0
    if corrupt:
        lines = lines[:1] + lines[2:]
    color = [None] * len(edges)
    for l in lines[1:]:
        if not l:
            continue
        e, c = map(int, l.split())
        if not 0 <= e < len(edges) or color[e] is not None:
            return "edge %d listed twice or out of range" % e, 0
        if not 0 <= c < palette:
            return "edge %d has color %d outside the palette of %d" % (e, c, palette), 0
        color[e] = c
    if None in color:
        return "edge %d uncolored" % color.index(None), 0
    problem = check_classes(n, palette, [(u, v, c) for (u, v), c in zip(edges, color)], star)
    return problem, len(set(color))


# ---------------------------------------------------------------------
# batch workloads: one process per op
# ---------------------------------------------------------------------

def stage_times(c, lines, code, maxrss_kb, loaded, piped, checked):
    """An op's stages from the arrival of its report lines: load (spawn
    to instance read), pipeline, check (to the check's last report)."""
    def at(pred):
        return next((t for t, l in lines if pred(l)), None)
    t_load, t_pipe, t_check = at(loaded), at(piped), at(checked)
    if code != 0 or None in (t_load, t_pipe, t_check):
        return None
    return {"load_s": t_load - c.t_spawn, "pipeline_s": t_pipe - t_load,
            "check_s": t_check - t_pipe, "op_s": t_check - c.t_spawn, "maxrss_kb": maxrss_kb}


def report(lines):
    """forestd decompose's "name: value" report lines as a dict"""
    return {l.split(":")[0].strip(): l.split(":", 1)[1].strip() for _, l in lines if ":" in l}


def forestd_op(inst, seed, col):
    """`forestd decompose` with no --backend and no --domains; --save
    writes the coloring after the report"""
    c = Child([FORESTD, "decompose", inst, "--algorithm", "augment", "--epsilon", str(FD_EPS),
               "--alpha", "8", "--seed", str(seed), "--save", col])
    lines, code, rss = c.finish()
    rec = stage_times(c, lines, code, rss, lambda l: l.startswith("graph:"),
                      lambda l: l.startswith("leftover:"),
                      lambda l: l.startswith("max forest diameter:"))
    if rec is None:
        return {"ok": False, "error": "forestd decompose exited %d" % code}
    text = report(lines)
    rec.update(ok=any(l == "verified: valid decomposition" for _, l in lines),
               error=text.get("INVALID"), forests=int(text["colors used"]),
               rounds=int(text["total rounds"]))
    return rec


def json_op(args):
    """an nwbench/nwtrace op: "loaded", "pipeline", the result JSON line,
    then (nwtrace) the trace JSON line"""
    c = Child(args)
    lines, code, rss = c.finish()
    rec = stage_times(c, lines, code, rss, lambda l: l == "loaded", lambda l: l == "pipeline",
                      lambda l: l.startswith('{"ok"'))
    if rec is None:
        return {"ok": False, "error": "%s exited %d" % (os.path.basename(args[0]), code)}
    objs = [json.loads(l) for _, l in lines if l.startswith("{")]
    rec.update(objs[0])
    if len(objs) > 1:
        rec["trace"] = objs[1]
    return rec


def batch_op(workload, inst, seed, traced, n, edges, corrupt=False):
    col = os.path.join(WORK, "%s-%d.col" % (workload, seed))
    span = os.path.join(WORK, "spans", workload, "op.jsonl")
    if workload == "fd-augment":
        rec = (json_op([NWTRACE, "augment", inst, str(seed), col, span]) if traced
               else forestd_op(inst, seed, col))
    else:
        rec = (json_op([NWTRACE, "hpstar", inst, col, span]) if traced
               else json_op([NWBENCH, inst, col]))
    if rec["ok"]:
        problem, used = check_coloring(col, n, edges, PALETTE[workload],
                                       workload == "sfd-hpstar", corrupt)
        if problem is None and used != rec["forests"]:
            problem = "%d colors reported, %d used" % (rec["forests"], used)
        if problem is not None:
            rec.update(ok=False, error=problem)
    if os.path.exists(col):
        os.remove(col)
    if not rec["ok"]:
        log("perfbench: op failed: %s" % rec.get("error"))
    rec["traced"] = traced
    return rec


def batch_ops(workload, seed, seconds, trace, corrupt=False):
    inst = os.path.join(WORK, "%s-%d.txt" % (workload, seed))
    n, edges = generate(*INSTANCE[workload], seed, inst, shuffle=True)
    os.makedirs(os.path.join(WORK, "spans", workload), exist_ok=True)
    ops = []
    calib = [calibrate()]
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(ops) < MIN_OPS:
        traced = trace and len(ops) % 2 == 0
        ops.append(batch_op(workload, inst, seed, traced, n, edges, corrupt and not ops))
        calib.append(calibrate())
        ops[-1]["scale"] = scale(calib, len(ops) - 1)
    os.remove(inst)
    log("calibration slab: median %.4f s over %d runs" % (p50(calib), len(calib)))
    return ops, len(edges), p50(calib)


def scaled(ops, key):
    """median over [ops] of [key] at the slab's reference speed"""
    return p50([o[key] * o["scale"] for o in ops])


def batch_end_to_end(ops, m):
    done = [o for o in ops if o["ok"]] or die("no op produced a result", 1)
    log("samples: %d ops; raw medians: op %.4f s, load %.4f s, pipeline %.4f s, check %.4f s"
        % ((len(done),) + tuple(p50([o[k] for o in done])
                                for k in ("op_s", "load_s", "pipeline_s", "check_s"))))
    return {
        "edges_per_s": m / scaled(done, "op_s"),
        "setup_s": scaled(done, "load_s"),
        "peak_rss_bytes_per_edge": p50([o["maxrss_kb"] * 1024 / m for o in done]),
        "forests": p50([o["forests"] for o in done]),
        "rounds": p50([o["rounds"] for o in done]),
        "heavy_p50_ms": scaled(done, "pipeline_s") * 1000,
        "light_p50_ms": scaled(done, "check_s") * 1000,
        "tail_ms": nearest_rank([o["op_s"] * o["scale"] for o in done], 0.75) * 1000,
    }


# batch span -> per-layer time metric
SPAN_TIMES = {
    "graphs.read_edge_list": "graphs.read_edge_list_s",
    "core.net_decomp": "core.net_decomp_s",
    "core.partial_color": "core.partial_color_s",
    "core.recolor": "core.recolor_s",
    "core.hp_peel": "core.hp_peel_s",
    "core.hp_orient": "core.hp_orient_s",
    "core.hp_star": "core.hp_star_s",
    "core.cole_vishkin": "core.cole_vishkin_s",
    "decomp.verify": "decomp.verify_s",
    "decomp.diameter": "decomp.diameter_s",
}


def batch_per_layer(ops, m, calib_s):
    traced = [o for o in ops if o["traced"] and o["ok"]]
    plain = [o for o in ops if not o["traced"] and o["ok"]]
    if not traced or not plain:
        die("the traced run needs traced and untraced ops", 1)
    out = {}
    first = traced[0]["trace"]
    for span in first["spans"]:
        def med(field):
            return p50([o["trace"]["spans"][span][field] for o in traced])
        if span in SPAN_TIMES:
            out[SPAN_TIMES[span]] = med("wall_s")
        if span == "engine.run":
            out["engine.self_s"] = med("self_s")
        out[span + ".minor_words"] = med("minor_words")
        out[span + ".major_words"] = med("major_words")
    out["gc.top_heap_words_per_edge"] = p50([o["trace"]["top_heap_words"] / m for o in traced])
    for label in first["ledger"]:
        out["localsim.rounds." + label.replace("/", ".")] = p50(
            [o["trace"]["ledger"][label] for o in traced])
    for k in first["stats"]:
        out["core." + k] = p50([o["trace"]["stats"][k] for o in traced])
    traced_s = scaled(traced, "op_s")
    out["trace.edges_per_s"] = m / traced_s
    out["trace.overhead_ratio"] = traced_s / scaled(plain, "op_s")
    out["host.calib_s"] = calib_s
    return out


def layer_table(ops):
    """wall, self and words per span, medians over the traced ops"""
    traced = [o for o in ops if o["traced"] and o["ok"]]
    fields = ("wall_s", "self_s", "minor_words", "major_words")
    rows = ["%-24s %10s %10s %14s %14s" % (("span",) + fields)]
    for span in traced[0]["trace"]["spans"]:
        med = {f: p50([o["trace"]["spans"][span][f] for o in traced]) for f in fields}
        rows.append("%-24s %10.4f %10.4f %14.0f %14.0f" % (
            span, med["wall_s"], med["self_s"], med["minor_words"], med["major_words"]))
    rows.append("op wall (traced ops, median, spawn to check): %.4f s over %d ops" % (
        p50([o["op_s"] for o in traced]), len(traced)))
    return "\n".join(rows)


# ---------------------------------------------------------------------
# serve-churn: forestd serve, one closed-loop client
# ---------------------------------------------------------------------

class DaemonDied(Exception):
    pass


class Conn:
    """`forestd serve` with default flags on a private socket, and one
    connection to it speaking nw-wire/1: a decimal length line, the JSON
    payload, a newline."""

    def __init__(self, path):
        if os.path.exists(path):
            os.remove(path)
        self.path = path
        self.proc = subprocess.Popen([FORESTD, "serve", "--socket", path], stdout=sys.stderr,
                                     stderr=sys.stderr, start_new_session=True)
        self.next_id = 1
        deadline = time.monotonic() + 30
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self.sock.close()
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise DaemonDied("daemon never listened")
                time.sleep(0.005)
        self.sock.settimeout(RPC_TIMEOUT)
        self.rfile = self.sock.makefile("rb")

    def rpc(self, body):
        """one blocking round trip of {"id":..,<body>}: (id, reply, ms);
        the reply is None if it does not parse"""
        rid = self.next_id
        self.next_id += 1
        payload = ('{"id":%d,%s}' % (rid, body)).encode()
        t0 = time.monotonic()
        try:
            self.sock.sendall(b"%d\n%s\n" % (len(payload), payload))
            head = self.rfile.readline()
            if not head:
                raise DaemonDied("connection closed mid-request")
            data = self.rfile.read(int(head))
            if self.rfile.read(1) != b"\n":
                raise DaemonDied("truncated frame")
        except (OSError, ValueError) as e:
            raise DaemonDied(str(e))
        ms = (time.monotonic() - t0) * 1000
        try:
            return rid, json.loads(data), ms
        except ValueError:
            return rid, None, ms

    def status_kb(self, field):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith(field + ":"):
                        return int(line.split()[1])
        except OSError as e:
            raise DaemonDied(str(e))
        raise DaemonDied("no %s for the daemon" % field)

    def stop(self):
        for close in (getattr(self, "rfile", None), getattr(self, "sock", None)):
            if close is not None:
                close.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if os.path.exists(self.path):
            os.remove(self.path)


def script_rng(seed):
    return random.Random(seed * 1000003 + 0xc4a2)


class Mirror:
    """What the session should hold: the append-only slot table, the live
    slots as a swap-remove list for O(1) random deletes, and the epoch."""

    def __init__(self, edges):
        self.slots = list(edges)
        self.live = [True] * len(edges)
        self.live_list = list(range(len(edges)))
        self.epoch = 0

    def next_request(self, rng):
        """1 : 9 stats : churn; churn is insert or delete with equal odds,
        as in bench/loadgen"""
        if rng.randrange(10) == 0:
            return ("s",)
        if len(self.live_list) <= SERVE_N // 4 or rng.random() < 0.5:
            u = rng.randrange(SERVE_N)
            return ("i", u, (u + 1 + rng.randrange(SERVE_N - 1)) % SERVE_N)
        return ("d", rng.randrange(len(self.live_list)))

    def apply(self, req):
        if req[0] == "i":
            self.slots.append((req[1], req[2]))
            self.live.append(True)
            self.live_list.append(len(self.slots) - 1)
        elif req[0] == "d":
            i = req[1]
            self.live[self.live_list[i]] = False
            self.live_list[i] = self.live_list[-1]
            self.live_list.pop()

    def check_epoch(self, j):
        e = j.get("epoch")
        if not isinstance(e, int):
            return "no epoch"
        if e <= self.epoch:
            return "epoch went %d -> %d" % (self.epoch, e)
        self.epoch = e
        return None

    def check_decompose(self, j):
        """a decompose answer: newer epoch, verified server-side, one
        color per slot"""
        problem = self.check_epoch(j)
        if problem:
            return problem
        if j.get("verified") is not True:
            return "served output not verified"
        k, cols = j.get("colors_used"), j.get("colors")
        if not isinstance(k, int) or k < 1 or not isinstance(cols, list) or len(cols) != len(self.slots):
            return "missing colors_used or colors of the wrong length"
        return None

    def client_verify(self, j):
        """the served coloring checked on the live graph rebuilt from the
        mirror alone: catches corruption a daemon-side verified:true
        would mask"""
        k, cols = j["colors_used"], j["colors"]
        live = [(u, v, c) for (u, v), c, alive in zip(self.slots, cols, self.live) if alive]
        bad = next(((u, v, c) for u, v, c in live if not (isinstance(c, int) and 0 <= c < k)), None)
        if bad:
            return "live edge %d-%d with color %r of %d" % bad
        return check_classes(SERVE_N, k, live, False)


def session_body(op, **fields):
    return ",".join(['"op":"%s"' % op, '"session":"churn"'] +
                    ['"%s":%s' % (k, json.dumps(v)) for k, v in fields.items()])


def decompose_body(seed, algorithm="augment"):
    return session_body("decompose", algorithm=algorithm, epsilon=SERVE_EPS, seed=seed,
                        alpha=SERVE_ALPHA)


def wire_request(mi, req, palette, exact):
    """the wire body of a script request and the check of its answer.
    [exact] is cleared by a fallback: it may widen the palette without
    saying so in the churn answer."""
    if req[0] == "s":
        live = len(mi.live_list)

        def check(j):
            st = j.get("session_stats") or {}
            return None if st.get("live_edges") == live else "live_edges disagrees with the mirror"
        return session_body("stats"), check
    if req[0] == "i":
        slot = len(mi.slots)

        def check(j):
            problem = mi.check_epoch(j)
            if problem:
                return problem
            if j.get("edge") != slot:
                return "edge slot disagrees with the mirror"
            if j.get("mode") == "fallback":
                exact[0] = False
                return None
            c = j.get("color")
            if j.get("mode") == "incremental" and isinstance(c, int) and c >= 0 and (
                    c < palette or not exact[0]):
                return None
            return "bad mode, or a color outside the palette"
        return session_body("insert-edge", u=req[1], v=req[2]), check

    def check(j):
        return mi.check_epoch(j) or (
            None if j.get("mode") in ("incremental", "fallback") else "bad mode")
    return session_body("delete-edge", edge=mi.live_list[req[1]]), check


def serve_client(seed, requests, setups, drop=0):
    """[setups] full set-ups (spawn -> hello -> load-graph -> first
    decompose answered), the last of which serves the [requests]-long
    script. [drop] > 0 throws away the answer to that churn request
    before validation (the self-test)."""
    graph = os.path.join(WORK, "serve-%d.txt" % seed)
    script = os.path.join(WORK, "serve-%d.script" % seed)
    n, edges = generate(SERVE_N, SERVE_ALPHA, seed, graph, shuffle=False)
    load = session_body("load-graph", n=n) + ',"edges":' + json.dumps(
        [list(e) for e in edges], separators=(",", ":"))
    # raw times, and (*_ref) the same at the slab's reference speed
    r = {"attempted": 0, "failed": 0, "problems": [], "setup_s": [], "calib_s": [],
         "insert_ms": [], "delete_ms": [], "stats_ms": [], "churn_wall_s": 0.0,
         "setup_ref": [], "insert_ref": [], "delete_ref": [], "churn_wall_ref": 0.0,
         "edges_loaded": len(edges), "graph": graph, "script": script}

    def fail(what, msg):
        r["failed"] += 1
        if len(r["problems"]) < 20:
            r["problems"].append("%s: %s" % (what, msg))

    def call(conn, what, body, check, lose=False):
        r["attempted"] += 1
        rid, j, ms = conn.rpc(body)
        if lose or j is None:
            fail(what, "unparsable or missing response")
        elif j.get("id") != rid:
            fail(what, "id %d echoed as %r" % (rid, j.get("id")))
        elif j.get("ok") is not True:
            fail(what, "ok:false: %s" % j.get("error"))
        else:
            problem = check(j)
            if problem:
                fail(what, problem)
        return j, ms

    # The charged rounds of the set-up decompose. The ledger is not on the
    # wire; the served decompose is byte-identical to the one-shot forestd
    # run on the same graph with the same seed, which this runs, outside
    # every timed window. Its colors_used must match the served one.
    one_shot = Child([FORESTD, "decompose", graph, "--algorithm", "augment", "--epsilon",
                      str(SERVE_EPS), "--alpha", str(SERVE_ALPHA), "--seed", str(seed)])
    lines, code, _ = one_shot.finish()
    text = report(lines)
    r["attempted"] += 1
    if code != 0 or "total rounds" not in text:
        fail("one-shot decompose", "exited %d" % code)
        r["rounds"], one_shot_colors = 0, None
    else:
        r["rounds"], one_shot_colors = int(text["total rounds"]), int(text["colors used"])

    def setup():
        mi = Mirror(edges)
        t0 = time.monotonic()
        conn = Conn(os.path.join(WORK, "serve-%d.sock" % os.getpid()))
        try:
            call(conn, "hello", '"op":"hello","proto":"nw-wire/1"',
                 lambda j: None if j.get("proto") == "nw-wire/1" else "proto mismatch")
            call(conn, "load-graph", load, mi.check_epoch)
            j, _ = call(conn, "decompose", decompose_body(seed), mi.check_decompose)
        except BaseException:
            conn.stop()
            raise
        palette = j.get("colors_used", 0) if j else 0
        return conn, mi, palette, time.monotonic() - t0

    for i in range(setups):
        r["calib_s"].append(calibrate())
        try:
            conn, mi, palette, s = setup()
        except DaemonDied as e:
            fail("set-up", "%s; %d requests lost" % (e, requests))
            r["attempted"] += requests
            r["failed"] += requests - 1
            return r
        r["setup_s"].append(s)
        if i < setups - 1:
            call(conn, "shutdown", '"op":"shutdown"', lambda j: None)
            conn.stop()
    if one_shot_colors is not None and one_shot_colors != palette:
        fail("decompose", "served %d colors, one-shot forestd %d" % (palette, one_shot_colors))
    r["forests"] = palette
    rng = script_rng(seed)
    exact = [True]
    sent = churn = 0
    try:
        r["calib_s"].append(calibrate())
        r["setup_ref"] = [t * scale(r["calib_s"], i) for i, t in enumerate(r["setup_s"])]
        r["vmrss_setup_kb"] = conn.status_kb("VmRSS")
        # no collection of the client's own heap inside a round trip
        gc.disable()
        with open(script, "w") as out:
            while sent < requests:
                t0 = time.monotonic()
                chunk = {"i": [], "d": [], "s": []}
                for _ in range(min(CHUNK, requests - sent)):
                    req = mi.next_request(rng)
                    body, check = wire_request(mi, req, palette, exact)
                    if req[0] != "s":
                        churn += 1
                    sent += 1
                    out.write("d %d\n" % mi.live_list[req[1]] if req[0] == "d"
                              else " ".join(map(str, req)) + "\n")
                    _, ms = call(conn, "request", body, check, lose=req[0] != "s" and churn == drop)
                    chunk[req[0]].append(ms)
                    mi.apply(req)
                wall = time.monotonic() - t0
                r["calib_s"].append(calibrate())
                f = scale(r["calib_s"], len(r["calib_s"]) - 2)
                r["churn_wall_s"] += wall
                r["churn_wall_ref"] += wall * f
                for k, name in (("i", "insert"), ("d", "delete")):
                    r[name + "_ms"] += chunk[k]
                    r[name + "_ref"] += [ms * f for ms in chunk[k]]
                r["stats_ms"] += chunk["s"]
        r["vmrss_end_kb"] = conn.status_kb("VmRSS")
        r["vmhwm_kb"] = conn.status_kb("VmHWM")

        # The final check needs a coloring of the daemon's graph, not a
        # good one: it catches a graph that has drifted from the mirror.
        # greedy, because augment did not finish in 100 s on some churned
        # graphs (README.md, "Costs found").
        def final(j):
            return mi.check_decompose(j) or mi.client_verify(j)
        j, _ = call(conn, "decompose(final)", decompose_body(seed, "greedy"), final)
        j, _ = call(conn, "stats(final)", session_body("stats"),
                    lambda j: None if "session_stats" in j else "no session_stats")
        st = (j or {}).get("session_stats") or {}
        r["fallbacks"] = st.get("fallbacks", 0)
        r["incremental_updates"] = st.get("incremental_updates", 0)
        call(conn, "shutdown", '"op":"shutdown"', lambda j: None)
    except DaemonDied as e:
        # the request in flight and every one the script still had fail
        lost = requests - sent + 1
        r["attempted"] += lost - 1
        r["failed"] += lost - 1
        fail("daemon died", "%s; %d requests lost" % (e, lost))
    finally:
        gc.enable()
        conn.stop()
    for p in r["problems"][:10]:
        log("perfbench: invalid response: " + p)
    return r


def serve_requests(seconds):
    return max(MIN_REQUESTS, REQUESTS_PER_SECOND * seconds)


def serve_end_to_end(c):
    if not c["insert_ms"] or not c["delete_ms"] or "fallbacks" not in c:
        die("serve-churn did not complete its script", 1)
    churn = c["insert_ref"] + c["delete_ref"]
    log("samples: %d insert, %d delete, %d churn, %d stats, %d set-ups; fallbacks %d" % (
        len(c["insert_ms"]), len(c["delete_ms"]), len(churn), len(c["stats_ms"]),
        len(c["setup_s"]), c["fallbacks"]))
    log("calibration slab: median %.4f s over %d runs; raw insert p50 %.3f ms, delete p50 %.3f ms"
        % (p50(c["calib_s"]), len(c["calib_s"]), p50(c["insert_ms"]), p50(c["delete_ms"])))
    return {
        "edges_per_s": len(churn) / c["churn_wall_ref"],
        "setup_s": p50(c["setup_ref"]),
        "peak_rss_bytes_per_edge": c["vmhwm_kb"] * 1024 / c["edges_loaded"],
        "forests": c["forests"],
        "rounds": c["rounds"],
        "heavy_p50_ms": p50(c["insert_ref"]),
        "light_p50_ms": p50(c["delete_ref"]),
        "tail_ms": nearest_rank(churn, 0.99),
    }


def serve_per_layer(c, seed, requests):
    """The client's script replayed in-process twice: untraced for the
    latencies and the wire split, traced for the spans and the tracing
    overhead."""
    if not c["insert_ms"] or "fallbacks" not in c:
        die("serve-churn did not complete its script", 1)
    args = [NWTRACE, "replay", c["graph"], c["script"], str(seed)]
    calib = [calibrate()]
    plain = run_json(args)
    calib.append(calibrate())
    # the wire split and the tracing overhead compare runs made a minute
    # apart, so each replay is taken at the slab's reference speed
    f = scale(calib, 0)
    spans = os.path.join(WORK, "spans", SERVE)
    os.makedirs(spans, exist_ok=True)
    traced = run_json(args + [os.path.join(spans, "replay.jsonl")])
    calib.append(calibrate())
    traced_wall = traced["churn_wall_s"] * scale(calib, 1) if traced else 0
    if plain is None or traced is None:
        die("serve-churn replay failed", 1)
    for p in plain["problems"] + traced["problems"]:
        log("perfbench: replay: " + p)
    log("fallbacks: daemon %s, replay %d" % (c.get("fallbacks"), plain["fallbacks"]))
    churn = len(traced["insert_ms"]) + len(traced["delete_ms"])
    ins = traced["spans"]["service.insert_edge"]
    return traced, {
        "service.create_s": plain["create_s"],
        "service.decompose_s": plain["decompose_s"],
        "service.insert_edge_p50_ms": p50(plain["insert_ms"]),
        "service.delete_edge_p50_ms": p50(plain["delete_ms"]),
        "service.insert_minor_words": ins["minor_words"] / ins["count"],
        "service.insert_wire_ms": p50(c["insert_ref"]) - p50(plain["insert_ms"]) * f,
        "service.delete_wire_ms": p50(c["delete_ref"]) - p50(plain["delete_ms"]) * f,
        "service.fallbacks": plain["fallbacks"],
        "service.incremental_updates": plain["incremental_updates"],
        "service.fallback_ms": plain["fallback_ms"],
        "service.rss_growth_bytes_per_request":
            (c["vmrss_end_kb"] - c["vmrss_setup_kb"]) * 1024 / requests,
        "host.calib_s": p50(c["calib_s"]),
        "trace.edges_per_s": churn / traced_wall,
        "trace.overhead_ratio": traced_wall / (plain["churn_wall_s"] * f),
    }


def serve_table(replay):
    fields = ("count", "wall_s", "self_s", "minor_words", "major_words")
    rows = ["%-24s %6s %10s %10s %14s %14s" % (("span",) + fields)]
    for name, s in replay["spans"].items():
        rows.append("%-24s %6d %10.4f %10.4f %14.0f %14.0f" % ((name,) + tuple(s[f] for f in fields)))
    return "\n".join(rows)


# ---------------------------------------------------------------------

def declared():
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def emit(attempted, failed, values, trace):
    end_to_end, per_layer = declared()
    metrics = {}
    for m in (per_layer if trace else end_to_end):
        # a per-layer metric of a layer this workload never calls reads 0
        v = values.get(m["name"], 0 if trace else None)
        if v is None:
            die("no value for " + m["name"], 1)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        log("%-40s %16.6g %s" % (m["name"], v, m["unit"]))
    log("attempted %d, failed %d, error_rate %.4f" % (attempted, failed, failed / attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run(workload, seed, seconds, trace):
    if workload in BATCH:
        ops, m, calib_s = batch_ops(workload, seed, seconds, trace)
        failed = sum(1 for o in ops if not o["ok"])
        if trace:
            values = batch_per_layer(ops, m, calib_s)
            log(layer_table(ops))
        else:
            values = batch_end_to_end(ops, m)
        emit(len(ops), failed, values, trace)
    else:
        requests = serve_requests(seconds)
        c = serve_client(seed, requests, 1 if trace else SETUPS)
        if trace:
            replay, values = serve_per_layer(c, seed, requests)
            log(serve_table(replay))
        else:
            values = serve_end_to_end(c)
        for f in (c["graph"], c["script"]):
            os.remove(f)
        emit(c["attempted"], c["failed"], values, trace)


def self_test():
    """One corrupted coloring and one dropped response must each raise
    error_rate above 0."""
    ops, _, _ = batch_ops("fd-augment", 1, 0, False, corrupt=True)
    batch_rate = sum(1 for o in ops if not o["ok"]) / len(ops)
    c = serve_client(1, 300, 1, drop=7)
    serve_rate = c["failed"] / c["attempted"]
    log("self-test: fd-augment with one corrupted coloring: error_rate %.3f" % batch_rate)
    log("self-test: serve-churn with one dropped response: error_rate %.4f" % serve_rate)
    if batch_rate > 0 and serve_rate > 0:
        log("self-test: passed")
    else:
        die("self-test: a corrupted output went unnoticed", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=BATCH + (SERVE,))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    build(a.trace == 1)
    if a.self_test:
        self_test()
    else:
        run(a.workload, a.seed, a.seconds, a.trace == 1)


if __name__ == "__main__":
    main()
