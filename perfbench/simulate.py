"""``simulate``: the round simulator through ``GraphSession.simulate``.

Closed loop, one client, in process, on sessions opened during set-up,
with the engine left unset as users get it. Dense, sparse and hostile
rounds are separate rotation entries, so a delivery-plane change that
helps one regime and hurts another shows per entry in the trace.
"""

from __future__ import annotations

import random

from common import MIN_CYCLES, Context, Outcome, clock, rotations, timed_setup

#: entry name -> (graph spec, program, hostile). Dense flood moves about
#: 190k messages; gossip runs about 160 rounds of addressed traffic; the
#: cds_packing scenario is Theorem B.1's driver over many inner runs.
#: Each entry takes 0.03–0.3 s on a 2-core x86 box (Python 3.11).
ENTRIES = (
    ("flood-dense", "regular:64,1000,{s}", "flood-min", False),
    ("flood-sparse", "regular:8,1000,{s}", "flood-min", False),
    ("bfs-sparse", "regular:8,1000,{s}", "bfs", False),
    ("mis-sparse", "regular:8,1000,{s}", "mis", False),
    ("flood-hostile", "regular:8,300,{s}", "flood-min", True),
    ("checksum-hostile", "regular:8,300,{s}", "flood-checksum", True),
    ("gossip", "regular:6,40,{s}", "gossip-tokens", False),
    ("cds-scenario", "harary:6,80", "cds_packing", False),
)
SMOKE_SPECS = {"regular:64,1000,{s}": "regular:8,40,{s}",
               "regular:8,1000,{s}": "regular:4,30,{s}",
               "regular:8,300,{s}": "regular:4,24,{s}",
               "regular:6,40,{s}": "regular:4,12,{s}",
               "harary:6,80": "harary:4,16"}
ENTRY_NAMES = tuple(entry[0] for entry in ENTRIES)
#: Run seeds per entry: a cycle runs every (entry, run seed) draw once.
VARIANTS = 2
DROP_PROBABILITY = 0.05
CORRUPTION_PROBABILITY = 0.02


def _hostile_kwargs() -> dict:
    from repro.simulator.adversary import AdversaryPlan
    from repro.simulator.faults import FaultPlan

    return {
        "fault_plan": FaultPlan(drop_probability=DROP_PROBABILITY),
        "adversary_plan": AdversaryPlan(
            corruption_probability=CORRUPTION_PROBABILITY),
    }


def _fingerprint(envelope):
    """What a seeded run must reproduce: outputs, messages and rounds."""
    payload = envelope.payload
    return (envelope.raw.result.outputs, payload["messages"],
            payload["rounds"])


def setup(ctx: Context):
    start = clock()
    from repro.api import GraphSession
    import_s = clock() - start
    rand = random.Random(f"simulate|{ctx.seed}")
    graph_seed = rand.randrange(1 << 16)
    run_seeds = [[rand.randrange(1 << 30) for _ in range(VARIANTS)]
                 for _ in ENTRIES]

    def spec_of(spec: str) -> str:
        return (SMOKE_SPECS[spec] if ctx.smoke else spec).format(s=graph_seed)

    def prepare():
        sessions = {}
        for _, spec, _, _ in ENTRIES:
            spec = spec_of(spec)
            if spec not in sessions:
                sessions[spec] = GraphSession(spec)
                # A warm session: canonicalized, and its first run (which
                # builds the per-graph simulator state) done.
                sessions[spec].simulate(program="flood-min", seed=0)
        return sessions

    sessions, prepare_s = timed_setup(prepare)
    cycle = [(name, sessions[spec_of(spec)], program, hostile, seeds[v])
             for v in range(VARIANTS)
             for (name, spec, program, hostile), seeds
             in zip(ENTRIES, run_seeds)]
    # The oracle, not user set-up: the first draw of each hostile entry,
    # run once. Runs are seeded, so the measured run must reproduce it.
    reference = {}
    for name, session, program, hostile, seed in cycle[:len(ENTRIES)]:
        if hostile:
            reference[name, seed] = _fingerprint(session.simulate(
                program=program, seed=seed, **_hostile_kwargs()))
    return {"cycle": cycle, "reference": reference}, import_s + prepare_s


def _check(out: Outcome, name: str, envelope, expected) -> None:
    """Paper and program invariants, independent of golden bytes."""
    import networkx as nx

    run = envelope.raw
    network = run.network
    graph = network.graph
    outputs = run.result.outputs
    if len(outputs) != graph.number_of_nodes():
        out.fail(f"{name}: {len(outputs)} outputs for {graph.number_of_nodes()} nodes")
        return
    if name in ("flood-hostile", "checksum-hostile"):
        # Under drops and corruption a forged value can survive (the run
        # seed decides), so neither the global minimum nor agreement is
        # an invariant. A node only ever lowers its value from its own
        # id, a node sends at most one message per edge and round, the
        # checksummed flood halts, and a seeded run repeats exactly.
        above = sum(1 for v, value in outputs.items()
                    if not isinstance(value, int) or value > network.node_id(v))
        if above:
            out.fail(f"{name}: {above} nodes hold a value above their own id")
        payload = envelope.payload
        budget = 2 * graph.number_of_edges() * payload["rounds"]
        if payload["messages"] > budget:
            out.fail(f"{name}: {payload['messages']} messages in "
                     f"{payload['rounds']} rounds exceed {budget}")
        if name == "checksum-hostile" and not run.result.halted:
            out.fail(f"{name}: the checksummed flood did not halt")
        if expected is not None and _fingerprint(envelope) != expected:
            out.fail(f"{name}: a repeat of a seeded run differs from the first")
        return
    if name in ("flood-dense", "flood-sparse"):
        smallest = min(network.node_id(v) for v in graph)
        wrong = sum(1 for value in outputs.values() if value != smallest)
        if wrong:
            out.fail(f"{name}: {wrong} nodes missed the global minimum")
    elif name == "bfs-sparse":
        roots = [v for v, o in outputs.items() if o is not None and o[1] == 0]
        if len(roots) != 1:
            out.fail(f"{name}: {len(roots)} roots")
            return
        depth = nx.single_source_shortest_path_length(graph, roots[0])
        for v, output in outputs.items():
            if output is None or output[1] != depth[v] or (
                v != roots[0] and depth.get(output[0]) != depth[v] - 1
            ):
                out.fail(f"{name}: node {v!r} has a wrong BFS label {output!r}")
                return
    elif name == "mis-sparse":
        chosen = {v for v, o in outputs.items() if o == "in-mis"}
        for v in graph:
            inside = sum(1 for u in graph[v] if u in chosen)
            if (v in chosen and inside) or (v not in chosen and not inside):
                out.fail(f"{name}: not a maximal independent set at {v!r}")
                return
    elif name == "gossip":
        tokens = set(outputs.values())
        if len(tokens) != 1 or len(next(iter(tokens)) or ()) != len(outputs):
            out.fail(f"{name}: some node did not collect every token")
    elif name == "cds-scenario":
        classes = set().union(*map(set, outputs.values()))
        if not classes:
            out.fail(f"{name}: no valid dominating class")
        for class_id in classes:
            members = {v for v, o in outputs.items() if class_id in o}
            if not nx.is_dominating_set(graph, members) or not nx.is_connected(
                graph.subgraph(members)
            ):
                out.fail(f"{name}: class {class_id} is not a connected "
                         "dominating set")
                return


def measure(state, ctx: Context, seconds: float, recorder=None) -> Outcome:
    cycle, reference = state["cycle"], state["reference"]
    out = Outcome(tail_basis=MIN_CYCLES * len(cycle))
    entry_of = {}
    messages = 0

    def run_op(op: int) -> None:
        nonlocal messages
        name, session, program, hostile, seed = cycle[op % len(cycle)]
        entry_of[op] = name
        if recorder is not None:
            recorder.op = op
        out.attempted += 1
        kwargs = _hostile_kwargs() if hostile else {}
        start = clock()
        try:
            envelope = session.simulate(program=program, seed=seed, **kwargs)
        except Exception as exc:  # noqa: BLE001 — a failed op is counted
            out.fail(f"{name}: {type(exc).__name__}: {exc}")
            return
        elapsed = clock() - start
        out.op_s.append(elapsed)
        out.op_key.append(f"{name}|{seed}")
        out.busy_s += elapsed
        messages += envelope.payload["messages"]
        _check(out, name, envelope, reference.get((name, seed)))

    rotations(seconds, len(cycle), run_op)
    out.extra["sim_msgs_per_s"] = (
        messages / out.busy_s if out.busy_s else 0.0, "msgs/s")
    out.context["entry_of"] = entry_of
    return out


def close(state) -> None:
    pass
