"""Command-line interface: run the decompositions from a shell.

Installed as the ``repro`` console script. Every subcommand routes
through the :mod:`repro.api` session layer — one
:class:`~repro.api.GraphSession` per invocation, typed
:class:`~repro.api.Result` envelopes underneath — so the CLI, the
library, and the batch executor all compute through the same front
door. ``--json`` on a task subcommand prints the envelope instead of
the human rendering::

    repro connectivity harary:6,24
    repro pack-cds harary:6,24 --seed 3
    repro pack-spanning hypercube:4 --seed 5 --json
    repro broadcast harary:6,24 --messages 24 --seed 7
    repro simulate harary:6,24 --program flood-min --seed 3 --trace
    repro simulate harary:4,16 --program cds_packing --model congested-clique
    repro batch jobs.json --out results.jsonl --backend process --workers 4
    repro batch jobs.json --out results.jsonl --checkpoint ck.jsonl --resume
    repro serve --port 7714
    repro shell --graph harary:6,24
    repro experiments

Graph specifications are ``family:arg1,arg2,…``:

========================  =============================================
``harary:k,n``            Harary graph, vertex connectivity exactly k
``clique_chain:k,len``    chain of cliques (large-diameter regime)
``fat_cycle:w,len``       thickened cycle, k = 2w
``hypercube:d``           d-dimensional hypercube
``torus:r,c``             r × c torus grid
``regular:d,n[,seed]``    connected random d-regular graph
``gnp:n,p[,seed]``        connected Erdős–Rényi
``complete:n``            complete graph K_n
========================  =============================================

(The table is generated from :data:`repro.api.GRAPH_FAMILIES`; run
``repro info`` for the live listing.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.api import GraphSession, parse_graph_spec  # noqa: F401  (re-export)
from repro.api.envelope import Result
from repro.api.tasks import decode
from repro.errors import GraphValidationError, ReproError

# ``parse_graph_spec`` stays importable from here for backward
# compatibility; it now lives in (and is re-exported from) repro.api.


def _emit(args: argparse.Namespace, envelope: Result) -> bool:
    """Print the envelope when ``--json`` was passed; returns True if
    the human rendering should be skipped."""
    if getattr(args, "json", False):
        print(envelope.to_json(indent=2))
        return True
    return False


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.api import family_signatures

    print(f"repro {__version__} — Distributed Connectivity Decomposition")
    print("Censor-Hillel, Ghaffari, Kuhn (PODC 2014; arXiv:1311.5317)")
    print()
    print("subpackages:")
    for name, what in [
        ("repro.api", "GraphSession front door, envelopes, batch executor"),
        ("repro.core", "CDS/spanning tree packings, testers, VC approx"),
        ("repro.simulator", "V-CONGEST / E-CONGEST round simulator"),
        ("repro.graphs", "generators, oracles, sampling, certificates"),
        ("repro.apps", "broadcast, gossip, oblivious routing, RLNC"),
        ("repro.baselines", "Dinic, Even–Tarjan, Stoer–Wagner, Roskind–Tarjan"),
        ("repro.lowerbounds", "Appendix G construction + 2-party simulation"),
    ]:
        print(f"  {name:<20} {what}")
    print()
    print("graph families:")
    for signature, description in family_signatures():
        print(f"  {signature:<22} {description}")
    return 0


def _cmd_connectivity(args: argparse.Namespace) -> int:
    session = GraphSession(args.graph)
    envelope = session.connectivity(seed=args.seed, exact=True)
    if _emit(args, envelope):
        return 0
    payload = envelope.payload
    k, lam = payload["exact_k"], payload["exact_lambda"]
    print(f"graph: {args.graph}  n={envelope.n}  m={envelope.m}")
    print(f"vertex connectivity k = {k}   (exact)")
    print(f"edge connectivity   λ = {lam}   (exact)")
    contains = payload["lower_bound"] <= k <= payload["upper_bound"]
    print(
        f"Corollary 1.7 estimate: k ∈ [{payload['lower_bound']:.2f}, "
        f"{payload['upper_bound']:.2f}]  (contains k: {contains})"
    )
    return 0


def _cmd_pack_cds(args: argparse.Namespace) -> int:
    session = GraphSession(args.graph)
    envelope = session.pack_cds(seed=args.seed)
    if _emit(args, envelope):
        return 0
    payload = envelope.payload
    packing = envelope.raw.packing
    print(f"graph: {args.graph}  n={envelope.n}")
    print(f"classes requested/used/valid: "
          f"{payload['t_requested']}/{payload['t_used']}/"
          f"{payload['n_valid_classes']}")
    print(f"packing size (Σ weights): {payload['size']:.3f}")
    print(f"max node load:            {payload['max_node_load']:.3f}")
    print(f"max tree diameter:        {packing.max_diameter()}")
    if args.verbose:
        for index, wt in enumerate(packing.trees):
            print(
                f"  tree {index:>3}  class={wt.class_id:<4} "
                f"weight={wt.weight:.3f}  nodes={wt.tree.number_of_nodes()}"
            )
    packing.verify()
    print("verification: OK (domination, trees, loads)")
    return 0


def _cmd_pack_spanning(args: argparse.Namespace) -> int:
    session = GraphSession(args.graph)
    envelope = session.pack_spanning(seed=args.seed)
    if _emit(args, envelope):
        return 0
    payload = envelope.payload
    packing = envelope.raw.packing
    print(f"graph: {args.graph}  λ={payload['lam']}  "
          f"Tutte bound ⌈(λ-1)/2⌉={payload['target']}")
    print(f"packing size:   {payload['size']:.3f}")
    print(f"size / bound:   {payload['size'] / payload['target']:.3f}")
    print(f"max edge load:  {payload['max_edge_load']:.3f}")
    print(f"distinct trees: {payload['n_trees']}")
    packing.verify()
    print("verification: OK (spanning, trees, loads)")
    return 0


def _cmd_broadcast(args: argparse.Namespace) -> int:
    session = GraphSession(args.graph)
    envelope = session.broadcast(
        messages=args.messages, seed=args.seed, transport=args.transport
    )
    if _emit(args, envelope):
        return 0
    payload = envelope.payload
    print(f"graph: {args.graph}  messages={args.messages}")
    print(f"rounds:            {payload['rounds']}")
    print(f"throughput:        {payload['throughput']:.3f} msgs/round")
    print(f"max vertex congestion: {payload['max_vertex_congestion']}")
    print(f"max edge congestion:   {payload['max_edge_congestion']}")
    return 0


def _read_rows(path: str, what: str):
    """The JSON rows of a ``--drop-schedule`` / ``--corrupt-targets``
    file."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphValidationError(
            f"cannot read {what} {path!r}: {exc}"
        ) from exc


def _plan_fields(args: argparse.Namespace) -> dict:
    """The fault and adversary flags → the ``fault_plan`` and
    ``adversary_plan`` fields of :mod:`repro.api.tasks`.

    A drop-schedule file holds ``[sender, receiver, [round, …]]`` rows
    (directed: a row silences only ``sender → receiver``); a targets
    file holds ``[sender, receiver]`` pairs.
    """
    fields = {}
    schedule = (
        _read_rows(args.drop_schedule, "drop schedule")
        if args.drop_schedule is not None
        else []
    )
    if args.drop > 0.0 or args.crash or schedule:
        crash_rounds = {}
        for spec in args.crash:
            node, sep, round_no = spec.partition(":")
            if not sep:
                raise GraphValidationError(
                    f"crash spec {spec!r} must look like NODE:ROUND"
                )
            crash_rounds[node] = round_no
        fields["fault_plan"] = {
            "drop_probability": args.drop,
            "crash_rounds": crash_rounds,
            "drop_schedule": schedule,
        }
    if (
        args.corrupt_rate > 0.0
        or args.corrupt_kind
        or args.corrupt_budget is not None
        or args.corrupt_round_budget is not None
        or args.corrupt_targets is not None
        or args.corrupt_seed is not None
    ):
        if args.corrupt_rate <= 0.0:
            raise GraphValidationError(
                "--corrupt-* flags need --corrupt-rate > 0 to take effect"
            )
        fields["adversary_plan"] = {
            "corruption_probability": args.corrupt_rate,
            "kinds": args.corrupt_kind or ["flip"],
            "targets": (
                _read_rows(args.corrupt_targets, "corruption targets")
                if args.corrupt_targets is not None
                else None
            ),
            "budget": args.corrupt_budget,
            "round_budget": args.corrupt_round_budget,
            "seed": args.corrupt_seed,
        }
    return fields


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulator.scenario import available_programs

    if args.list_programs:
        print("registered scenario programs:")
        for program in available_programs():
            print(
                f"  {program.name:<18} [{program.model.value}] "
                f"{program.description}"
            )
        return 0
    if args.graph is None:
        raise GraphValidationError(
            "a graph spec is required (or pass --list-programs)"
        )
    kwargs = decode("simulate", {
        "program": args.program,
        "model": args.model,
        "seed": args.seed,
        "max_rounds": args.max_rounds,
        "trace": args.trace,
        "show_outputs": args.show_outputs,
        **_plan_fields(args),
    })
    plan = kwargs.get("fault_plan")
    adversary = kwargs.get("adversary_plan")
    envelope = GraphSession(args.graph).simulate(**kwargs)
    if _emit(args, envelope):
        return 0
    payload = envelope.payload
    run = envelope.raw
    print(f"graph: {args.graph}  n={envelope.n}  m={envelope.m}")
    print(f"program: {payload['program']} — {payload['description']}")
    print(f"model:   {payload['model']}")
    if plan is not None:
        print(
            f"faults:  drop={plan.drop_probability:g} "
            f"crashes={len(plan.crash_rounds)} "
            f"scheduled_edges={len(plan.drop_schedule)}"
        )
    if adversary is not None:
        print(
            f"adversary: rate={adversary.corruption_probability:g} "
            f"kinds={','.join(adversary.kinds)}"
            + (
                f" budget={adversary.budget}"
                if adversary.budget is not None
                else ""
            )
            + (
                f" round_budget={adversary.round_budget}"
                if adversary.round_budget is not None
                else ""
            )
            + (
                f" targets={len(adversary.targets)}"
                if adversary.targets is not None
                else ""
            )
        )
    print(f"rounds:   {payload['rounds']}  (halted: {payload['halted']})")
    print(f"messages: {payload['messages']}   bits: {payload['bits']}")
    print(f"max message: {payload['max_message_bits']} bits")
    print(f"wall: {run.wall_seconds:.4f}s   "
          f"rounds/sec: {run.rounds_per_sec:.1f}")
    outputs = run.result.outputs
    shown = list(outputs.items())[: args.show_outputs]
    if shown:
        print("outputs (first {}):".format(len(shown)))
        for node, output in shown:
            print(f"  {node!r}: {output!r}")
    if run.trace is not None:
        print()
        print(run.trace.render(limit=args.trace_limit))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.api import batch

    # The path goes straight through: run() loads it itself (once) so a
    # matrix-level base_seed field is honored.
    stats: dict = {}
    common = dict(
        base_seed=args.base_seed,
        include_timings=args.timings,
        backend=args.backend,
        workers=args.workers,
        checkpoint=args.checkpoint,
        resume=args.resume,
        stats=stats,
    )
    if args.out is not None:
        results = batch.run_to_jsonl(args.jobs, args.out, **common)
        errors = sum(1 for r in results if batch.is_error_row(r))
        resumed = stats.get("resumed", 0)
        print(
            f"wrote {len(results)} row(s) to {args.out} "
            f"[backend={stats['backend']} workers={stats['workers']}]"
            + (f"  ({resumed} resumed)" if resumed else "")
            + (f"  ({errors} failed)" if errors else "")
        )
        return 1 if errors else 0
    results = batch.run(args.jobs, jsonl=sys.stdout, **common)
    return 1 if any(batch.is_error_row(r) for r in results) else 0


_EXPERIMENTS = [
    ("E1", "bench_cds_packing", "Thm 1.1/1.2 packing size Ω(k/log n)"),
    ("E2", "bench_cds_runtime", "Thm 1.2 Õ(m) centralized runtime shape"),
    ("E3", "bench_spanning_packing", "Thm 1.3 size ⌈(λ-1)/2⌉(1-ε)"),
    ("E4", "bench_distributed_rounds", "Thm B.1 round complexity shape"),
    ("E5", "bench_broadcast", "Cor 1.4/1.5 + App A throughput/gossip"),
    ("E6", "bench_oblivious_routing", "Cor 1.6 congestion competitiveness"),
    ("E7", "bench_vc_approx", "Cor 1.7 O(log n) VC approximation"),
    ("E8", "bench_fast_merger", "Lemma 4.4 component decay"),
    ("E9", "bench_connector_paths", "Lemma 4.3 / Prop 4.2 connectors"),
    ("E10", "bench_cds_packing", "Lemma 4.6 class sizes"),
    ("E11", "bench_tester", "Appendix E tester"),
    ("E12", "bench_sampling", "§5.2 Karger sampling concentration"),
    ("E13", "bench_lowerbound", "Lemma G.3/G.4 construction"),
    ("E14", "bench_lowerbound", "Lemma G.5/G.6 2-party simulation"),
    ("E15", "bench_integral", "integral packings"),
    ("E16", "bench_independent_trees", "§1.4.1 independent trees"),
    ("E17", "bench_network_coding", "§1 network coding comparison"),
    ("E18", "bench_baselines", "exact baselines cross-checks"),
    ("E19", "bench_pipelined_upcast", "Lemma 5.1 pipelined upcast"),
    ("E20", "bench_workloads", "Cor A.1 workload shapes"),
    ("E21", "bench_shared_mst", "Lemma 5.1 simultaneous MSTs"),
    ("E22", "bench_point_to_point", "§1.3.1 point-to-point √n barrier"),
    ("E23", "bench_simulator", "engine rounds/sec (indexed vs reference)"),
    ("E24", "bench_cds_packing", "CDS kernel speed (indexed vs reference)"),
    ("E25", "bench_api", "session-cached pipeline vs per-call canonicalization"),
    ("E27", "bench_resilience", "adversarial channels: coded vs uncoded flood"),
    ("E28", "bench_simulator", "column step vs the dict plane (dense regime)"),
    ("E31", "bench_batch", "batch scheduler jobs/sec vs backend × workers"),
    ("F1-F3", "bench_figures", "paper figures (text renderings)"),
    ("A1-A5", "bench_ablation", "design-choice ablations"),
]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_size,
    )


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.service import (
        LocalBackend,
        RemoteBackend,
        parse_connect,
        run_shell,
    )

    if args.connect is not None:
        host, port = parse_connect(args.connect)
        backend = RemoteBackend(host, port)
    else:
        backend = LocalBackend()
    return run_shell(
        backend,
        graph=args.graph,
        json_mode=args.json,
        seed=args.seed,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import full_report

    graphs = [(spec, parse_graph_spec(spec)) for spec in args.graphs]
    print(full_report(graphs, rng=args.seed))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    print("experiment index (run: pytest benchmarks/<file>.py --benchmark-only)")
    for exp_id, bench, claim in _EXPERIMENTS:
        print(f"  {exp_id:<6} benchmarks/{bench + '.py':<28} {claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed Connectivity Decomposition (PODC 2014) — "
            "connectivity decompositions from the command line"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(subparser) -> None:
        subparser.add_argument(
            "--json", action="store_true",
            help="print the typed result envelope as JSON",
        )

    commands.add_parser("info", help="library overview").set_defaults(
        handler=_cmd_info
    )

    connectivity = commands.add_parser(
        "connectivity", help="exact + approximate connectivity of a graph"
    )
    connectivity.add_argument("graph", help="graph spec, e.g. harary:6,24")
    connectivity.add_argument("--seed", type=int, default=0)
    add_json_flag(connectivity)
    connectivity.set_defaults(handler=_cmd_connectivity)

    pack_cds = commands.add_parser(
        "pack-cds", help="fractional dominating tree packing (Thm 1.1/1.2)"
    )
    pack_cds.add_argument("graph")
    pack_cds.add_argument("--seed", type=int, default=0)
    pack_cds.add_argument("--verbose", action="store_true")
    add_json_flag(pack_cds)
    pack_cds.set_defaults(handler=_cmd_pack_cds)

    pack_spanning = commands.add_parser(
        "pack-spanning", help="fractional spanning tree packing (Thm 1.3)"
    )
    pack_spanning.add_argument("graph")
    pack_spanning.add_argument("--seed", type=int, default=0)
    add_json_flag(pack_spanning)
    pack_spanning.set_defaults(handler=_cmd_pack_spanning)

    broadcast = commands.add_parser(
        "broadcast", help="tree-routed broadcast throughput (Cor 1.4)"
    )
    broadcast.add_argument("graph")
    broadcast.add_argument("--messages", type=int, default=16)
    broadcast.add_argument("--seed", type=int, default=0)
    broadcast.add_argument(
        "--transport", default="vertex", choices=["vertex", "edge"],
        help="vertex: CDS packing / V-CONGEST; edge: spanning / E-CONGEST",
    )
    add_json_flag(broadcast)
    broadcast.set_defaults(handler=_cmd_broadcast)

    simulate = commands.add_parser(
        "simulate",
        help="run a registered program on the round simulator",
        description=(
            "Run a registered node program on a graph family through "
            "GraphSession.simulate; prints rounds/messages/bits and "
            "optionally the round-by-round trace."
        ),
    )
    simulate.add_argument(
        "graph", nargs="?", default=None, help="graph spec, e.g. harary:6,24"
    )
    simulate.add_argument(
        "--program", default="flood-min",
        help="registry name (see --list-programs)",
    )
    simulate.add_argument(
        "--model", default=None,
        choices=["v-congest", "e-congest", "congested-clique"],
        help="override the program's communication model",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--drop", type=float, default=0.0,
        help="i.i.d. message drop probability",
    )
    simulate.add_argument(
        "--crash", action="append", default=[], metavar="NODE:ROUND",
        help="crash-stop a node at a round (repeatable)",
    )
    simulate.add_argument(
        "--drop-schedule", default=None, metavar="FILE",
        help=(
            "JSON file of [sender, receiver, [rounds…]] rows: destroy "
            "those directed deliveries deterministically (edges are "
            "validated against the graph)"
        ),
    )
    simulate.add_argument(
        "--corrupt-rate", type=float, default=0.0, metavar="P",
        help=(
            "per-delivery corruption probability (adversarial channel; "
            "pure function of seed × edge × round)"
        ),
    )
    simulate.add_argument(
        "--corrupt-kind", action="append", default=[],
        choices=["flip", "forge", "replay"],
        help="corruption kind(s) the adversary draws from (repeatable; "
             "default: flip)",
    )
    simulate.add_argument(
        "--corrupt-budget", type=int, default=None, metavar="N",
        help="cap corrupted edge-round slots over the whole run",
    )
    simulate.add_argument(
        "--corrupt-round-budget", type=int, default=None, metavar="N",
        help="cap corrupted edge-slots per round",
    )
    simulate.add_argument(
        "--corrupt-targets", default=None, metavar="FILE",
        help="JSON list of [sender, receiver] pairs the adversary "
             "controls (others stay honest)",
    )
    simulate.add_argument(
        "--corrupt-seed", type=int, default=None,
        help="explicit adversary seed (default: derived from --seed)",
    )
    simulate.add_argument("--max-rounds", type=int, default=100000)
    simulate.add_argument(
        "--trace", action="store_true", help="record and print the schedule"
    )
    simulate.add_argument("--trace-limit", type=int, default=30)
    simulate.add_argument(
        "--show-outputs", type=int, default=5,
        help="how many node outputs to print",
    )
    simulate.add_argument(
        "--list-programs", action="store_true",
        help="list registered scenario programs and exit",
    )
    add_json_flag(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    batch = commands.add_parser(
        "batch",
        help="run a JobSpec matrix, streaming JSONL result envelopes",
        description=(
            "Execute a JSON job file (a list of JobSpec dicts, or a "
            "graphs × tasks × seeds matrix) through the repro.api batch "
            "scheduler. Rows are canonical result-envelope JSON, one per "
            "job, in job order — byte-identical for the same spec file "
            "across every backend and worker count. --checkpoint "
            "write-ahead-logs completed jobs so a killed run restarts "
            "with --resume, skipping finished work."
        ),
    )
    batch.add_argument("jobs", help="path to the JSON job file")
    batch.add_argument(
        "--out", default=None, help="JSONL output path (default: stdout)"
    )
    batch.add_argument(
        "--backend", default=None, metavar="NAME",
        help=(
            "execution plane: serial (default) or process; an unknown "
            "name fails with the registry listing"
        ),
    )
    batch.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "pool size for the process backend (default: one per "
            "schedulable core, capped at 8)"
        ),
    )
    batch.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help=(
            "write-ahead manifest of completed jobs (sha256 job-key "
            "entries), flushed per chunk; enables --resume"
        ),
    )
    batch.add_argument(
        "--resume", action="store_true",
        help=(
            "reload --checkpoint and skip completed jobs; the final "
            "JSONL stays byte-identical to an uninterrupted run"
        ),
    )
    batch.add_argument(
        "--base-seed", type=int, default=None,
        help="base for deterministic per-job seed derivation "
             "(default: the job file's base_seed field, else 0)",
    )
    batch.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings in rows (breaks byte-identity)",
    )
    batch.set_defaults(handler=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="run the persistent graph service daemon",
        description=(
            "Start a TCP daemon speaking newline-delimited JSON result "
            "envelopes, with an LRU of warm graph sessions keyed by "
            "fingerprint. Stop it with Ctrl-C or a shutdown op "
            "(e.g. from 'repro shell --connect')."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=8,
        help="number of warm graph sessions the daemon keeps (LRU)",
    )
    serve.set_defaults(handler=_cmd_serve)

    shell = commands.add_parser(
        "shell",
        help="interactive graph shell (in-process or against a daemon)",
        description=(
            "A GCLI-style shell over the service surface: graph open, "
            "node list/nbr/p, edge new/rmv, estimate, pack, simulate, "
            "stats. Runs in-process by default; --connect HOST:PORT "
            "drives a running 'repro serve' daemon. Reads commands from "
            "stdin, so it scripts cleanly: "
            "echo 'estimate k' | repro shell --graph harary:6,24"
        ),
    )
    shell.add_argument(
        "--graph", default=None,
        help="open this graph spec (or .csv adjacency matrix) on startup",
    )
    shell.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive a running repro-serve daemon instead of in-process",
    )
    shell.add_argument("--seed", type=int, default=0)
    add_json_flag(shell)
    shell.set_defaults(handler=_cmd_shell)

    commands.add_parser(
        "experiments", help="list the experiment index"
    ).set_defaults(handler=_cmd_experiments)

    report = commands.add_parser(
        "report", help="markdown claim-vs-measured report over graphs"
    )
    report.add_argument("graphs", nargs="+", help="graph specs")
    report.add_argument("--seed", type=int, default=0)
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
