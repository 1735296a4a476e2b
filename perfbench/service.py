"""``service``: ``python -m repro serve`` driven over two TCP connections.

The daemon runs at its default 8-session LRU. One thread runs the
``build`` closed loop over 12 graphs with n in [100, 150], so the
working set exceeds the LRU. The script is a seeded sequence of
epochs; every epoch visits every graph once, in the same seeded order,
so each graph is evicted before its next visit and every epoch does the
same work. A visit is estimate, pack cds, pack spanning, simulate and
estimate again under the graph's seed from a small set, so the repeat
hits warm results, then an edge_new/edge_rmv write pair, each followed
by an estimate, which forces invalidation and a rebuild. The loop runs
whole epochs, so every run measures the same request mix. The main
thread runs the ``interactive`` open loop at 50 req/s of ping,
node_nbr, node_path and warm estimate on one pinned hot graph; each
request is timed from its due time. This is the only
workload that crosses the wire, the daemon, ``ServiceCore`` and
``SessionCache``.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import subprocess
import sys
import threading

from common import (
    Context, Outcome, clock, median, percentile, timed_setup, vm_hwm_mb,
)

#: n in [100, 150], so an epoch is short and a run repeats every
#: request several times.
BUILD_GRAPHS = (
    "harary:4,100", "harary:6,120", "harary:5,110", "regular:6,100,{s}",
    "regular:5,120,{s}", "regular:8,150,{s}", "gnp:100,0.08,{s}",
    "gnp:120,0.06,{s}", "torus:10,10", "torus:10,12", "hypercube:7",
    "fat_cycle:3,40",
)
SMOKE_BUILD_GRAPHS = ("harary:4,16", "torus:4,5", "regular:4,20,{s}")
HOT_GRAPH = "harary:8,256"
SMOKE_HOT_GRAPH = "harary:4,24"
RESULT_SEEDS = (0, 1)
#: Build requests per graph visit, the write pair included.
VISIT_REQUESTS = 9
SCRIPT_EPOCHS = 200
INTERACTIVE_RATE = 50.0
SLO_S = 0.050
CONNECT_TIMEOUT_S = 60.0
#: After the run, how long queued interactive requests may take to drain.
DRAIN_TIMEOUT_S = 60.0


class Connection:
    """One client connection speaking newline-delimited JSON frames.

    ``call`` is a blocking round trip (the closed loop); ``send`` plus
    ``replies`` pipeline requests (the open loop: the next request goes
    out when it is due, whether or not earlier ones were answered).
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=CONNECT_TIMEOUT_S)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, body: dict) -> None:
        self.sock.sendall(json.dumps(body).encode("utf-8") + b"\n")

    def replies(self, timeout) -> list:
        """Complete replies that arrive within ``timeout`` seconds
        (``None``: wait for at least one)."""
        while b"\n" not in self._buffer:
            ready, _, _ = select.select([self.sock], [], [], timeout)
            if not ready:
                return []
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        return [json.loads(line) for line in lines]

    def call(self, body: dict) -> dict:
        self.send(body)
        (reply,) = self.replies(None)
        return reply

    def close(self) -> None:
        self.sock.close()


class Daemon:
    """A ``repro serve --port 0`` subprocess, plain or traced."""

    def __init__(self, ctx: Context, spans_out: str = None) -> None:
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, os.path.join("perfbench", "launch.py"),
                   spans_out, "daemon", "--", "serve", "--port", "0"]
        self.proc = subprocess.Popen(cmd, cwd=ctx.root, env=ctx.child_env(),
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                conn = Connection(self.port)
                conn.sock.settimeout(CONNECT_TIMEOUT_S)
                conn.call({"op": "shutdown"})
                conn.close()
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _build_script(graphs, rand: random.Random):
    """Epochs of visits ``(spec, seed, program, a, b)``: every graph
    once per epoch, in one seeded order with one seeded result seed and
    program per graph, and a fresh non-edge ``{a, b}`` per visit for the
    write pair."""
    plan = [(spec, graph, rand.choice(RESULT_SEEDS),
             rand.choice(("flood-min", "bfs")))
            for spec, graph in rand.sample(graphs, len(graphs))]
    epochs = []
    for _ in range(SCRIPT_EPOCHS):
        visits = []
        for spec, graph, seed, program in plan:
            nodes = sorted(graph)
            while True:
                a, b = rand.sample(nodes, 2)
                if not graph.has_edge(a, b):
                    break
            visits.append((spec, seed, program, a, b))
        epochs.append(visits)
    return epochs


def _interactive_script(graph, rand: random.Random, count: int):
    nodes = sorted(graph)
    script = []
    for j in range(count):
        kind = j % 4
        if kind == 0:
            script.append({"op": "ping"})
        elif kind == 1:
            script.append({"op": "node_nbr", "node": rand.choice(nodes)})
        elif kind == 2:
            a, b = rand.sample(nodes, 2)
            script.append({"op": "node_path", "source": a, "target": b})
        else:
            script.append({"op": "estimate", "seed": 0})
    return script


def setup(ctx: Context):
    import networkx as nx
    from repro.api import parse_graph_spec

    rand = random.Random(f"service|{ctx.seed}")
    graph_seed = rand.randrange(1 << 16)
    graphs = [(spec, parse_graph_spec(spec)) for spec in (
        spec.format(s=graph_seed)
        for spec in (SMOKE_BUILD_GRAPHS if ctx.smoke else BUILD_GRAPHS))]
    hot_spec = SMOKE_HOT_GRAPH if ctx.smoke else HOT_GRAPH
    hot = parse_graph_spec(hot_spec)
    state = {
        "epochs": _build_script(graphs, rand),
        "interactive": _interactive_script(hot, rand, 4096),
        "hot_spec": hot_spec,
        "hot": hot,
        "hot_depth": dict(nx.all_pairs_shortest_path_length(hot)),
    }
    daemons = []

    def prepare():
        daemons.append(Daemon(ctx))
        return daemons[-1]

    try:
        daemon, spawn_s = timed_setup(prepare)
    except BaseException:
        for started in daemons:
            started.stop()
        raise
    for stale in daemons[:-1]:
        stale.stop()
    state["daemon"] = daemon
    # What a user waits for before the first request: daemon spawn
    # until its ``listening`` line.
    return state, spawn_s


class _Checker:
    """Envelope checks: no error envelopes, and every estimate equals
    the first payload seen for its (fingerprint, seed) — a warm answer
    must equal its cold one, and a graph restored by edge_rmv must give
    back the estimate of the original graph."""

    def __init__(self, out: Outcome) -> None:
        self.out = out
        self.lock = threading.Lock()
        self.estimates = {}

    def envelope(self, label: str, reply: dict) -> bool:
        if reply.get("task") == "error":
            self.fail(f"{label}: {reply['payload'].get('error')}")
            return False
        return True

    def estimate(self, label: str, reply: dict, seed: int) -> bool:
        if not self.envelope(label, reply):
            return False
        payload = reply["payload"]
        key = (reply["fingerprint"], seed)
        with self.lock:
            first = self.estimates.setdefault(key, payload)
        if payload != first:
            self.fail(f"{label}: estimate differs from its cold payload")
            return False
        if not payload["lower_bound"] <= payload["upper_bound"]:
            self.fail(f"{label}: estimate bounds out of order")
            return False
        return True

    def fail(self, message: str) -> None:
        with self.lock:
            self.out.fail(message)


def _build_loop(conn: Connection, epochs, seconds: float, check: _Checker,
                run: dict, done: threading.Event) -> None:
    """Closed loop over whole epochs until ``seconds`` have passed;
    each request waits for the previous reply. Fills ``run`` with
    ``latency``, ``key``, ``wire``, ``requests`` and ``end``, then
    sets ``done``."""
    ids = iter(range(1 << 40))
    run.update(latency=[], key=[], wire=[], requests=0)

    def call(kind: str, spec: str, body: dict) -> dict:
        body["id"] = f"b{next(ids)}"
        run["requests"] += 1
        start = clock()
        reply = conn.call(body)
        elapsed = clock() - start
        run["latency"].append(elapsed)
        run["key"].append(f"{kind}|{spec}")
        run["wire"].append(
            elapsed - reply.get("timings", {}).get("request_s", 0.0))
        return reply

    start = clock()
    try:
        for epoch in epochs:
            for visit in epoch:
                _visit(call, visit, check)
            if clock() - start >= seconds:
                return
        check.fail("build script ran out before the time was up")
    except Exception as exc:  # noqa: BLE001 — reported as a failed op
        check.fail(f"build loop stopped: {type(exc).__name__}: {exc}")
    finally:
        run["end"] = clock()
        done.set()


def _visit(ask, visit, check: _Checker) -> None:
    """One graph visit: :data:`VISIT_REQUESTS` requests, the write pair
    included."""
    from repro.api.envelope import decode_value

    spec, seed, program, a, b = visit

    def call(kind: str, body: dict) -> dict:
        return ask(kind, spec, body)

    label = f"build {spec} seed={seed}"
    check.estimate(label, call("estimate", {"op": "estimate", "graph": spec,
                                            "seed": seed}), seed)
    for kind, load_key in (("cds", "max_node_load"),
                           ("spanning", "max_edge_load")):
        reply = call(f"pack-{kind}", {"op": "pack", "graph": spec,
                                      "kind": kind, "seed": seed})
        if check.envelope(label, reply):
            payload = reply["payload"]
            if payload["size"] <= 0 or payload[load_key] > 1.0 + 1e-9:
                check.fail(f"{label}: infeasible {kind} packing {payload}")
    reply = call("simulate", {"op": "simulate", "graph": spec,
                              "program": program, "seed": seed})
    if check.envelope(label, reply):
        payload = decode_value(reply["payload"])
        if payload["rounds"] < 1:
            check.fail(f"{label}: {program} ran no rounds")
        if program == "flood-min" and len(
                set(payload["outputs"].values())) != 1:
            check.fail(f"{label}: nodes disagree on the minimum")
    check.estimate(label, call("estimate-warm", {
        "op": "estimate", "graph": spec, "seed": seed}), seed)
    added = call("edge_new", {"op": "edge_new", "graph": spec,
                              "a": a, "b": b})
    if not check.envelope(label, added):
        return
    edited = added["payload"]["fingerprint"]
    check.estimate(label, call("estimate-edited", {
        "op": "estimate", "session": edited, "seed": seed}), seed)
    removed = call("edge_rmv", {"op": "edge_rmv", "session": edited,
                                "a": a, "b": b})
    if check.envelope(label, removed):
        # Restored graph: must give back the visit's first estimate.
        check.estimate(label, call("estimate-restored", {
            "op": "estimate", "session": removed["payload"]["fingerprint"],
            "seed": seed,
        }), seed)


def _check_interactive(check: _Checker, state, request: dict, reply: dict):
    label = f"interactive {request['op']}"
    op = request["op"]
    if op == "estimate":
        return check.estimate(label, reply, 0)
    if not check.envelope(label, reply):
        return False
    payload = reply["payload"]
    hot = state["hot"]
    if op == "ping":
        ok = payload.get("pong") is True
    elif op == "node_nbr":
        ok = sorted(payload["neighbors"]) == sorted(hot[request["node"]])
    else:
        ok = payload["length"] == state["hot_depth"][request["source"]][
            request["target"]]
    if not ok:
        check.fail(f"{label}: wrong answer for {request}")
    return ok


def _interactive_loop(conn: Connection, state, start: float,
                      builds_done: threading.Event, check: _Checker):
    """Open loop at :data:`INTERACTIVE_RATE` while the build loop runs:
    request ``j`` is due at ``start + j / rate`` and is timed from then;
    replies are matched by id while later requests keep going out on
    schedule."""
    period = 1.0 / INTERACTIVE_RATE
    script, hot_spec = state["interactive"], state["hot_spec"]
    pending = {}
    latency, lateness, ok = [], [], 0
    j = 0
    deadline = None
    while True:
        due = start + j * period
        if deadline is None and builds_done.is_set():
            deadline = clock()
        sending = deadline is None
        if not sending and not pending:
            return latency, lateness, ok
        now = clock()
        if sending and now >= due:
            request = dict(script[j % len(script)], id=f"i{j}")
            if request["op"] != "ping":
                request["graph"] = hot_spec
            lateness.append(now - due)
            conn.send(request)
            pending[request["id"]] = (due, request)
            j += 1
            continue
        if not sending and now > deadline + DRAIN_TIMEOUT_S:
            for _, request in pending.values():
                check.fail(f"interactive {request['op']}: no reply")
            return latency, lateness, ok
        wait = due - now if sending else DRAIN_TIMEOUT_S
        for reply in conn.replies(max(0.0, wait)):
            done = clock()
            due_at, request = pending.pop(reply.get("id"), (None, None))
            if request is None:
                check.fail(f"interactive: unexpected reply {reply.get('id')}")
                continue
            latency.append(done - due_at)
            if _check_interactive(check, state, request, reply):
                ok += done - due_at <= SLO_S


def measure(state, ctx: Context, seconds: float, recorder=None) -> Outcome:
    spans_out = None
    if recorder is not None:
        spans_out = os.path.join(ctx.workdir, "daemon-spans.json")
        daemon = Daemon(ctx, spans_out)
    else:
        daemon = state.pop("daemon", None) or Daemon(ctx)
    out = Outcome()
    check = _Checker(out)
    build_conn = inter_conn = None
    try:
        build_conn = Connection(daemon.port)
        inter_conn = Connection(daemon.port)
        hot_spec = state["hot_spec"]
        # Warm the pinned hot graph: its cold estimate is the reference
        # every interactive estimate must equal.
        check.estimate("warm-up", inter_conn.call(
            {"op": "estimate", "graph": hot_spec, "seed": 0}), 0)
        build = {}
        builds_done = threading.Event()
        start = clock()
        worker = threading.Thread(
            target=_build_loop,
            args=(build_conn, state["epochs"], seconds, check, build,
                  builds_done),
            daemon=True,
        )
        worker.start()
        inter_latency, lateness, inter_ok = _interactive_loop(
            inter_conn, state, start, builds_done, check)
        worker.join()
        stats = inter_conn.call({"op": "stats"})["payload"]
        out.peak_rss_mb = vm_hwm_mb(daemon.proc.pid)
    finally:
        for conn in (build_conn, inter_conn):
            if conn is not None:
                conn.close()
        daemon.stop()
    # Every run finishes at least one whole epoch.
    out.tail_basis = VISIT_REQUESTS * len(state["epochs"][0])
    out.op_s = build["latency"]
    out.op_key = build["key"]
    out.busy_s = build["end"] - start
    out.attempted = build["requests"] + len(inter_latency)
    out.extra["interactive_p50_s"] = (median(inter_latency), "s")
    out.extra["interactive_p99_s"] = (percentile(inter_latency, 99.0), "s")
    out.extra["interactive_slo_ratio"] = (
        inter_ok / len(inter_latency) if inter_latency else 0.0, "fraction")
    out.extra["interactive_lateness_p99_s"] = (
        percentile(lateness, 99.0), "s")
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    out.context.update(
        wire_s=sum(build["wire"]) / len(build["wire"]) if build["wire"]
        else 0.0,
        cache_hit_ratio=cache["hits"] / lookups if lookups else 0.0,
        evictions=cache["evictions"],
        spans_files=[spans_out] if spans_out else [],
    )
    return out


def close(state) -> None:
    daemon = state.pop("daemon", None)
    if daemon is not None:
        daemon.stop()
