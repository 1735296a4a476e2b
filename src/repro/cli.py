"""Command-line interface: run the decompositions from a shell.

Installed as the ``repro`` console script. Each task of
:data:`repro.api.tasks.TASKS` is a subcommand of the same name: ``repro
<task> GRAPH [name=value …] [--json]``. The trailing fields are the
task's request fields, in the grammar of the daemon's ops, the shell's
commands and batch job ``params``: a value is JSON when it parses, else
the text (:func:`repro.api.tasks.parse_fields`), and
:func:`repro.api.tasks.decode` checks it. One
:class:`~repro.api.GraphSession` runs the task; ``--json`` prints its
:class:`~repro.api.Result` envelope instead of the human rendering::

    repro connectivity harary:6,24 exact=true
    repro pack_cds harary:6,24 seed=3 --verbose
    repro pack_spanning hypercube:4 seed=5 --json
    repro pack_integral harary:6,24 kind=spanning
    repro broadcast harary:6,24 messages=24 seed=7 transport=edge
    repro gossip harary:6,24 n_messages=8
    repro simulate harary:6,24 program=bfs trace=true --trace-limit 10
    repro simulate harary:6,24 program=retransmit-flood seed=3 \
        fault_plan='{"drop_probability": 0.2, "crash_rounds": {"0": 2}}'
    repro batch jobs.json --out results.jsonl --backend process --workers 4
    repro batch jobs.json --out results.jsonl --checkpoint ck.jsonl --resume
    repro serve --port 7714
    repro shell --graph harary:6,24
    repro info
    repro experiments

``repro info`` lists every task's fields and the registered scenario
programs. Graph specifications are ``family:arg1,arg2,…``:

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

(The table is generated from :data:`repro.api.specs.GRAPH_FAMILIES`; run
``repro info`` for the live listing.)
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.api import GraphSession, parse_graph_spec
from repro.api.envelope import Result
from repro.api.tasks import TASKS, decode, parse_fields
from repro.errors import ReproError


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.api.specs import family_signatures
    from repro.simulator.scenario import available_programs

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
        ("repro.lowerbounds", "Appendix G construction + 2-party simulation"),
        ("repro.fastgraph", "indexed graph kernel: union-find, Kruskal, λ/κ"),
        ("repro.service", "repro serve daemon and repro shell"),
        ("repro.analysis", "claim-vs-measured report, workloads, figures"),
        ("repro.utils", "seed plumbing and math helpers"),
    ]:
        print(f"  {name:<20} {what}")
    print()
    print("graph families:")
    for signature, description in family_signatures():
        print(f"  {signature:<22} {description}")
    print()
    print("tasks (repro <task> GRAPH [name=value …] [--json]) and fields:")
    for task, fields in TASKS.items():
        print(f"  {task:<14} {', '.join(fields)}")
    print()
    print("scenario programs (repro simulate GRAPH program=<name>):")
    for program in available_programs():
        print(
            f"  {program.name:<18} [{program.model.value}] "
            f"{program.description}"
        )
    return 0


def _print_connectivity(args: argparse.Namespace, envelope: Result) -> None:
    payload = envelope.payload
    low, high = payload["lower_bound"], payload["upper_bound"]
    print(f"graph: {args.graph}  n={envelope.n}  m={envelope.m}")
    interval = f"Corollary 1.7 estimate: k ∈ [{low:.2f}, {high:.2f}]"
    k = payload.get("exact_k")
    if k is not None:
        print(f"vertex connectivity k = {k}   (exact)")
        print(f"edge connectivity   λ = {payload['exact_lambda']}   (exact)")
        interval += f"  (contains k: {low <= k <= high})"
    print(interval)


def _print_pack_cds(args: argparse.Namespace, envelope: Result) -> None:
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


def _print_pack_spanning(args: argparse.Namespace, envelope: Result) -> None:
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


def _print_broadcast(args: argparse.Namespace, envelope: Result) -> None:
    payload = envelope.payload
    print(f"graph: {args.graph}  messages={payload['n_messages']}")
    print(f"rounds:            {payload['rounds']}")
    print(f"throughput:        {payload['throughput']:.3f} msgs/round")
    print(f"max vertex congestion: {payload['max_vertex_congestion']}")
    print(f"max edge congestion:   {payload['max_edge_congestion']}")


def _print_simulate(args: argparse.Namespace, envelope: Result) -> None:
    payload, params = envelope.payload, envelope.params
    run = envelope.raw
    print(f"graph: {args.graph}  n={envelope.n}  m={envelope.m}")
    print(f"program: {payload['program']} — {payload['description']}")
    print(f"model:   {payload['model']}")
    faults, adversary = params["faults"], params["adversary"]
    if faults is not None:
        print(
            f"faults:  drop={faults['drop_probability']:g} "
            f"crashes={len(faults['crash_rounds'])} "
            f"scheduled_edges={len(faults['drop_schedule'])}"
        )
    if adversary is not None:
        line = (
            f"adversary: rate={adversary['corruption_probability']:g} "
            f"kinds={','.join(adversary['kinds'])}"
        )
        for name in ("budget", "round_budget"):
            if adversary[name] is not None:
                line += f" {name}={adversary[name]}"
        if adversary["targets"] is not None:
            line += f" targets={len(adversary['targets'])}"
        print(line)
    print(f"rounds:   {payload['rounds']}  (halted: {payload['halted']})")
    print(f"messages: {payload['messages']}   bits: {payload['bits']}")
    print(f"max message: {payload['max_message_bits']} bits")
    print(f"wall: {run.wall_seconds:.4f}s   "
          f"rounds/sec: {run.rounds_per_sec:.1f}")
    # The payload holds every output unless a show_outputs field capped it.
    shown = list(run.result.outputs.items())[: len(payload["outputs"])]
    if shown:
        print("outputs (first {}):".format(len(shown)))
        for node, output in shown:
            print(f"  {node!r}: {output!r}")
    if run.trace is not None:
        print()
        print(run.trace.render(limit=args.trace_limit))


def _print_payload(args: argparse.Namespace, envelope: Result) -> None:
    print(f"graph: {args.graph}  n={envelope.n}  m={envelope.m}")
    for name, value in envelope.payload.items():
        print(f"  {name + ':':<20} {value}")


#: task → its human rendering; a task without one prints its payload.
_PRINTERS = {
    "connectivity": _print_connectivity,
    "pack_cds": _print_pack_cds,
    "pack_spanning": _print_pack_spanning,
    "broadcast": _print_broadcast,
    "simulate": _print_simulate,
}


def _cmd_task(args: argparse.Namespace) -> int:
    kwargs = decode(args.task, parse_fields(args.fields))
    envelope = getattr(GraphSession(args.graph), args.task)(**kwargs)
    if args.json:
        print(envelope.to_json(indent=2))
    else:
        _PRINTERS.get(args.task, _print_payload)(args, envelope)
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _cmd_batch(args: argparse.Namespace) -> int:
    import signal

    # SIGTERM ends a batch the way an error does: the backend stops its
    # workers, the checkpoint stays resumable, and the exit code is 143.
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        return _run_batch(args)
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run_batch(args: argparse.Namespace) -> int:
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
    ("E18", "bench_baselines", "Roskind–Tarjan packing, greedy CDS comparator"),
    ("E19", "bench_pipelined_upcast", "Lemma 5.1 pipelined upcast"),
    ("E20", "bench_workloads", "Cor A.1 workload shapes"),
    ("E21", "bench_shared_mst", "Lemma 5.1 simultaneous MSTs"),
    ("E22", "bench_point_to_point", "§1.3.1 point-to-point √n barrier"),
    ("E27", "bench_resilience", "adversarial channels: coded vs uncoded flood"),
    ("E28", "bench_simulator", "column step vs the dict plane (dense regime)"),
    ("E31", "bench_batch", "batch scheduler jobs/sec, serial vs two processes"),
    ("F1-F3", "bench_figures", "paper figures (text renderings)"),
    ("A1-A5", "bench_ablation", "design-choice ablations"),
]


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import serve

    return serve(
        host=args.host,
        port=args.port,
        cache_capacity=args.cache_size,
    )


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.service.shell import (
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


#: One line of help per task subcommand.
_TASK_HELP = {
    "connectivity": "Cor 1.7 connectivity estimate (exact=true adds k, λ)",
    "pack_cds": "fractional dominating tree packing (Thm 1.1/1.2)",
    "pack_spanning": "fractional spanning tree packing (Thm 1.3)",
    "pack_integral": "vertex- or edge-disjoint tree packing (§1.2)",
    "broadcast": "tree-routed broadcast throughput (Cor 1.4/1.5)",
    "gossip": "k-token dissemination on the CDS packing (Cor A.1)",
    "simulate": "run a registered program on the round simulator",
}


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

    commands.add_parser(
        "info", help="library overview, task fields and scenario programs"
    ).set_defaults(handler=_cmd_info)

    for task, fields in TASKS.items():
        subparser = commands.add_parser(task, help=_TASK_HELP[task])
        subparser.add_argument("graph", help="graph spec, e.g. harary:6,24")
        subparser.add_argument(
            "fields", nargs="*", metavar="name=value",
            help="task fields, a value JSON when it parses, else text: "
            + ", ".join(fields),
        )
        subparser.add_argument(
            "--json", action="store_true",
            help="print the typed result envelope as JSON",
        )
        subparser.set_defaults(handler=_cmd_task, task=task)
        if task == "pack_cds":
            subparser.add_argument(
                "--verbose", action="store_true", help="list the trees"
            )
        if task == "simulate":
            subparser.add_argument(
                "--trace-limit", type=int, default=30,
                help="events of a trace=true schedule to print",
            )

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
            "node list/nbr/p, edge new/rmv, stats, and every task by "
            "name (plus estimate and pack) with trailing name=value "
            "fields. Runs in-process by default; --connect HOST:PORT "
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
    shell.add_argument(
        "--json", action="store_true",
        help="print the typed result envelope as JSON",
    )
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
    # parse_known_args: a nargs="*" positional stops at the first
    # option, so fields after --json come back here.
    args, extra = parser.parse_known_args(argv)
    if extra:
        if args.handler is not _cmd_task:
            parser.error("unrecognized arguments: " + " ".join(extra))
        args.fields += extra
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
