"""``pipeline``: the centralized packings and tree broadcast, in process.

Closed loop, one client. Each op opens a fresh ``GraphSession`` on a
graph generated during set-up and runs connectivity → pack_cds →
broadcast(vertex, 16 messages) → pack_spanning → broadcast(edge).
Canonicalization, the CDS guess loop with bridging, the λ oracle, MWU
and tree broadcast do nearly all the work; the simulator, the envelope
codec and the wire do none.
"""

from __future__ import annotations

import random

from common import MIN_CYCLES, Context, Outcome, clock, mean, rotations, timed_setup

MESSAGES = 16

#: Rotation: 0.06–0.4 s per op on a 2-core x86 box (Python 3.11).
SPECS = ("harary:8,160", "regular:8,150,{s}", "gnp:150,0.06,{s}",
         "torus:12,12", "hypercube:7", "harary:6,80")
SMOKE_SPECS = ("harary:4,16", "regular:4,20,{s}")
WARMUP_SPEC = "harary:4,16"
#: Draws per entry: a cycle runs every (graph, run seed) draw once, so
#: one run averages over several inputs per graph family.
VARIANTS = 2


def _cycle(ctx: Context):
    """The cycle: :data:`VARIANTS` rounds of every rotation entry, as
    ``(entry, spec, run seed)`` with the graph seed drawn per spec."""
    rand = random.Random(f"pipeline|{ctx.seed}")
    specs = SMOKE_SPECS if ctx.smoke else SPECS
    return [(entry, spec.format(s=rand.randrange(1 << 16)),
             rand.randrange(1 << 30))
            for _ in range(VARIANTS) for entry, spec in enumerate(specs)]


def _run_op(session, seed):
    estimate = session.connectivity(seed=seed)
    cds = session.pack_cds(seed=seed)
    vertex = session.broadcast(messages=MESSAGES, seed=seed)
    spanning = session.pack_spanning(seed=seed)
    edge = session.broadcast(messages=MESSAGES, seed=seed, transport="edge")
    return estimate, cds, vertex, spanning, edge


def setup(ctx: Context):
    start = clock()
    from repro.api import GraphSession, parse_graph_spec
    import_s = clock() - start

    def prepare():
        parsed = {}
        cycle = []
        for entry, spec, seed in _cycle(ctx):
            if spec not in parsed:
                parsed[spec] = parse_graph_spec(spec)
            cycle.append((entry, spec, parsed[spec], seed))
        _run_op(GraphSession(WARMUP_SPEC), 0)
        return cycle

    cycle, prepare_s = timed_setup(prepare)
    return {"cycle": cycle}, import_s + prepare_s


def _check(out: Outcome, spec, results) -> dict:
    from repro.errors import ReproError

    estimate, cds, vertex, spanning, edge = results
    try:
        cds.raw.packing.verify()
        spanning.raw.packing.verify()
    except ReproError as exc:
        out.fail(f"{spec}: packing failed verify(): {exc}")
    if cds.raw.packing.size <= 0 or spanning.raw.packing.size <= 0:
        out.fail(f"{spec}: empty packing")
    for outcome in (vertex.raw, edge.raw):
        if (outcome.n_messages != MESSAGES or outcome.rounds < 1
                or len(outcome.tree_assignment) != MESSAGES):
            out.fail(f"{spec}: broadcast did not deliver {MESSAGES} messages")
    lower, upper = estimate.payload["lower_bound"], estimate.payload["upper_bound"]
    if not lower <= upper:
        out.fail(f"{spec}: estimate bounds out of order ({lower} > {upper})")
    return {
        "cds_size": cds.raw.packing.size,
        # size ÷ max(1, ⌈(λ−1)/2⌉), the Theorem 1.3 target
        "spanning_efficiency": spanning.raw.efficiency,
        "rounds": vertex.raw.rounds,
    }


def measure(state, ctx: Context, seconds: float, recorder=None) -> Outcome:
    from repro.api import GraphSession

    cycle = state["cycle"]
    out = Outcome(tail_basis=MIN_CYCLES * len(cycle))
    rows = []

    def run_op(op: int) -> None:
        entry, spec, graph, seed = cycle[op % len(cycle)]
        if recorder is not None:
            recorder.op = op
        out.attempted += 1
        start = clock()
        try:
            results = _run_op(GraphSession(graph), seed)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            out.fail(f"{spec}: {type(exc).__name__}: {exc}")
            return
        elapsed = clock() - start
        out.op_s.append(elapsed)
        out.op_key.append(f"{spec}|{seed}")
        out.busy_s += elapsed
        rows.append(_check(out, spec, results))

    rotations(seconds, len(cycle), run_op)
    if rows:
        out.extra["cds_packing_size"] = (
            mean([r["cds_size"] for r in rows]), "tree_weight")
        out.extra["spanning_efficiency"] = (
            mean([r["spanning_efficiency"] for r in rows]), "ratio")
        out.extra["broadcast_rounds"] = (
            mean([r["rounds"] for r in rows]), "rounds")
    return out


def close(state) -> None:
    pass
