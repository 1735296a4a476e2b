"""Per-layer metrics from recorded spans.

Every traced run reports every metric below, with 0 where the workload
does not reach the layer (the "flat on" prediction). Times are *self*
times — a span's duration minus its wrapped children — summed over the
traced phase and divided by the workload's ops (``s/op``), except the
``service.*`` times, which are means per request the daemon handled
(``s/req``). Simulator metrics are means per op of one rotation entry.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from simulate import ENTRY_NAMES
from tracing import Span

_FIXED: List[Tuple[str, str]] = [
    ("specs.parse_s", "s/op"),
    ("fastgraph.canonicalize_s", "s/op"),
    ("fastgraph.canonicalize_calls", "calls/op"),
    ("virtual_graph.cds_index_s", "s/op"),
    ("bridging.jump_start_s", "s/op"),
    ("bridging.assign_layer_s", "s/op"),
    ("bridging.assign_layer_calls", "calls/op"),
    ("bridging.matched_ratio", "fraction"),
    ("bridging.random_type2_ratio", "fraction"),
    ("cds.construct_s", "s/op"),
    ("cds.valid_class_ratio", "fraction"),
    ("cds.constructions_per_call", "ratio"),
    ("connectivity.lambda_oracle_s", "s/op"),
    ("spanning.pack_s", "s/op"),
    ("spanning.mst_calls", "calls/op"),
    ("spanning.mst_s", "s/op"),
    ("broadcast.vertex_s", "s/op"),
    ("broadcast.edge_s", "s/op"),
    ("broadcast.rounds", "rounds"),
    ("session.task_s", "s/op"),
    ("envelope.encode_s", "s/op"),
    ("service.handle_s", "s/req"),
    ("service.lock_wait_s", "s/req"),
    ("service.frame_read_s", "s/req"),
    ("service.frame_write_s", "s/req"),
    ("service.wire_s", "s/req"),
    ("service.cache_hit_ratio", "fraction"),
    ("service.evictions", "count"),
    ("cli.import_s", "s"),
    ("batch.plan_s", "s/op"),
    ("batch.wait_s", "s/op"),
    ("batch.write_s", "s/op"),
    ("batch.chunks", "count/op"),
    ("batch.worker_pids", "count/op"),
    ("trace.overhead_ratio", "ratio"),
]
_SIMULATOR = [("simulator.run_s", "s/op"), ("simulator.rounds", "rounds/op"),
              ("simulator.messages", "msgs/op"),
              ("simulator.setup_s", "s/op")]

#: Every per-layer metric, in report order: ``(name, unit)``.
PER_LAYER: List[Tuple[str, str]] = _FIXED + [
    (f"{name}.{entry}", unit)
    for entry in ENTRY_NAMES for name, unit in _SIMULATOR
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: List[Span], ops: int, context: Dict,
              overhead: float) -> Dict[str, float]:
    """All :data:`PER_LAYER` values from one traced phase."""
    self_s: Dict[str, float] = defaultdict(float)
    dur_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    by_sid = {}
    for span in spans:
        self_s[span.name] += span.self_s
        dur_s[span.name] += span.duration
        calls[span.name] += 1
        by_sid[span.sid] = span
        for key, value in (span.attrs or {}).items():
            attrs[span.name][key] += value

    def per_op(name: str) -> float:
        return _ratio(self_s[name], ops)

    m = {name: 0.0 for name, _ in PER_LAYER}
    m["specs.parse_s"] = per_op("specs.parse")
    m["fastgraph.canonicalize_s"] = per_op("fastgraph.canonicalize")
    m["fastgraph.canonicalize_calls"] = _ratio(
        calls["fastgraph.canonicalize"], ops)
    m["virtual_graph.cds_index_s"] = per_op("virtual_graph.cds_index")
    m["bridging.jump_start_s"] = per_op("bridging.jump_start")
    m["bridging.assign_layer_s"] = per_op("bridging.assign_layer")
    m["bridging.assign_layer_calls"] = _ratio(
        calls["bridging.assign_layer"], ops)
    layer = attrs["bridging.assign_layer"]
    m["bridging.matched_ratio"] = _ratio(layer["matched"], layer["type2"])
    m["bridging.random_type2_ratio"] = _ratio(
        layer["random_type2"], layer["type2"])
    m["cds.construct_s"] = per_op("cds.construct")
    construct = attrs["cds.construct"]
    m["cds.valid_class_ratio"] = _ratio(construct["valid"], construct["t_used"])
    m["cds.constructions_per_call"] = _ratio(
        calls["cds.construct"], calls["cds.fractional"])
    m["connectivity.lambda_oracle_s"] = per_op("connectivity.lambda_oracle")
    m["spanning.pack_s"] = per_op("spanning.pack")
    m["spanning.mst_calls"] = _ratio(calls["spanning.mst"], ops)
    m["spanning.mst_s"] = per_op("spanning.mst")
    m["broadcast.vertex_s"] = per_op("broadcast.vertex")
    m["broadcast.edge_s"] = per_op("broadcast.edge")
    m["broadcast.rounds"] = _ratio(
        attrs["broadcast.vertex"]["rounds"] + attrs["broadcast.edge"]["rounds"],
        calls["broadcast.vertex"] + calls["broadcast.edge"])
    m["session.task_s"] = _ratio(
        sum(v for k, v in self_s.items() if k.startswith("session.")), ops)
    m["envelope.encode_s"] = per_op("envelope.encode")

    requests = calls["service.handle"]
    if requests:
        lock_wait = sum(
            span.start - by_sid[span.parent].start for span in spans
            if span.name == "service.dispatch" and span.parent in by_sid
        )
        m["service.handle_s"] = dur_s["service.handle"] / requests
        m["service.lock_wait_s"] = lock_wait / requests
        m["service.frame_read_s"] = dur_s["service.frame_read"] / requests
        m["service.frame_write_s"] = dur_s["service.frame_write"] / requests
    for key in ("wire_s", "cache_hit_ratio", "evictions"):
        if key in context:
            m[f"service.{key}"] = context[key]

    if context.get("import_s"):
        m["cli.import_s"] = sum(context["import_s"]) / len(context["import_s"])
    runs = calls["batch.run"]
    if runs:
        first_wait = {}
        for span in spans:
            if span.name == "batch.wait":
                first_wait[span.op] = min(first_wait.get(span.op, span.start),
                                          span.start)
        m["batch.plan_s"] = sum(
            first_wait.get(span.op, span.end) - span.start
            for span in spans if span.name == "batch.run") / runs
        m["batch.wait_s"] = dur_s["batch.wait"] / runs
        m["batch.write_s"] = dur_s["batch.write"] / runs
        m["batch.chunks"] = attrs["batch.run"]["chunks"] / runs
        m["batch.worker_pids"] = attrs["batch.run"]["worker_pids"] / runs

    entry_of = context.get("entry_of")
    if entry_of:
        _simulator(m, spans, entry_of)
    m["trace.overhead_ratio"] = overhead
    return m


def _simulator(m, spans, entry_of) -> None:
    """Per rotation entry: run time, rounds and messages of every
    ``SyncRunner.run`` (inner runs of drivers included), and set-up:
    from ``GraphSession.simulate`` entry to the first run."""
    ops_of = defaultdict(int)
    for entry in entry_of.values():
        ops_of[entry] += 1
    task_start = {}
    first_run = {}
    for span in spans:
        if span.op not in entry_of:
            continue
        if span.name == "session.simulate":
            task_start[span.op] = span.start
        elif span.name == "simulator.run":
            entry = entry_of[span.op]
            m[f"simulator.run_s.{entry}"] += span.duration
            attrs = span.attrs or {}
            m[f"simulator.rounds.{entry}"] += attrs.get("rounds", 0)
            m[f"simulator.messages.{entry}"] += attrs.get("messages", 0)
            first_run[span.op] = min(first_run.get(span.op, span.start),
                                     span.start)
    for op, start in first_run.items():
        if op in task_start:
            m[f"simulator.setup_s.{entry_of[op]}"] += start - task_start[op]
    for entry, count in ops_of.items():
        for name, _ in _SIMULATOR:
            m[f"{name}.{entry}"] /= count
