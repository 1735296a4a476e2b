"""Span recorder and per-layer wrappers, installed from outside the program.

The benchmark never edits ``src/``: in a traced run it replaces each
layer's public function at the name its *caller* resolves (a module
attribute or a class attribute) with a wrapper that records a span —
name, start, end, parent span, op id — plus whatever the layer's return
value says (``LayerStats``, packing results, simulation metrics).
Spans stay in memory and are written out when the run ends; a layer's
self time is its duration minus the time its child spans cover.

:data:`LAYERS` is the single table of wrapped names. Each entry lists
the workloads it must fire on, so a traced run fails loudly, naming the
wrapper, when a rename or re-import leaves a layer unwrapped instead of
silently reporting zero for it.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "child_s",
                 "attrs")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.op, self.child_s, self.attrs]

    @classmethod
    def from_row(cls, row) -> "Span":
        span = cls(row[0], row[1], row[2], row[4], row[5])
        span.end, span.child_s, span.attrs = row[3], row[6], row[7]
        return span


class Recorder:
    """In-memory spans; one parent stack per thread.

    ``op`` is the op id stamped on new spans: the workload loop sets it
    per op, the service wrapper per request (thread-local there, since
    the daemon serves two connections at once).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.fired: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.op: Any = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_thread_op(self, op: Any) -> None:
        self._local.op = op

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = getattr(self._local, "op", None)
        span = Span(next(self._ids), name, _clock(),
                    None if parent is None else parent.sid,
                    self.op if op is None else op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start
        with self._lock:
            self.spans.append(span)
            self.fired[span.name] = self.fired.get(span.name, 0) + 1

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        body = {"spans": [s.to_row() for s in self.spans],
                "fired": self.fired}
        body.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, int], Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        body = json.load(handle)
    spans = [Span.from_row(row) for row in body.pop("spans")]
    return spans, body.pop("fired"), body


# -- wrappers -----------------------------------------------------------------


def _plain(recorder: Recorder, name: str, fn: Callable, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if observe is not None:
            span.attrs = observe(args, kwargs, result)
        return result

    return wrapper


def _generator(recorder: Recorder, name: str, fn: Callable, observe=None):
    """A generator function: one span per ``next`` (time blocked on it)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            span = recorder.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.end(span)
            yield item

    return wrapper


def _read_frame(recorder: Recorder, name: str, fn: Callable, observe=None):
    """``read_frame`` minus the idle wait for the client's next request:
    ``peek`` blocks until the first byte arrives, then the span starts."""

    @functools.wraps(fn)
    def wrapper(stream, *args, **kwargs):
        try:
            stream.peek(1)
        except (OSError, ValueError):
            pass
        span = recorder.begin(name)
        try:
            return fn(stream, *args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _handle(recorder: Recorder, name: str, fn: Callable, observe=None):
    """``ServiceCore.handle``: stamps the request id as the op id."""

    @functools.wraps(fn)
    def wrapper(self, request, *args, **kwargs):
        recorder.set_thread_op(request.get("id"))
        span = recorder.begin(name)
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            recorder.end(span)
            recorder.set_thread_op(None)

    return wrapper


class _TimedFile:
    """A file whose ``write``/``flush``/``close`` calls are spans."""

    def __init__(self, recorder: Recorder, name: str, handle) -> None:
        self._recorder = recorder
        self._name = name
        self._handle = handle

    def _timed(self, method: str, *args):
        span = self._recorder.begin(self._name)
        try:
            return getattr(self._handle, method)(*args)
        finally:
            self._recorder.end(span)

    def write(self, text):
        return self._timed("write", text)

    def flush(self):
        return self._timed("flush")

    def close(self):
        return self._timed("close")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, attr):
        return getattr(self._handle, attr)


def _open(recorder: Recorder, name: str, fn: Callable, observe=None):
    """Builtin ``open`` as a module global: files opened for writing are
    timed (the batch manifest and JSONL sink)."""

    def wrapper(path, mode="r", *args, **kwargs):
        handle = fn(path, mode, *args, **kwargs)
        if "w" in mode or "a" in mode:
            return _TimedFile(recorder, name, handle)
        return handle

    return wrapper


# -- observers (attributes read off return values) ----------------------------


def _observe_layer(args, kwargs, stats):
    return {"matched": stats.matched, "random_type2": stats.random_type2,
            "type2": args[0].index.n}


def _observe_construct(args, kwargs, result):
    return {"valid": len(result.valid_classes), "t_used": result.t_used}


def _observe_broadcast(args, kwargs, outcome):
    return {"rounds": outcome.rounds}


def _observe_sim(args, kwargs, result):
    return {"rounds": result.metrics.rounds,
            "messages": result.metrics.messages}


def _observe_batch(args, kwargs, results):
    stats = kwargs.get("stats") or {}
    return {"chunks": stats.get("chunks", 0),
            "worker_pids": len(stats.get("worker_pids", ()))}


#: (span name, module, attribute path, wrapper kind, observer, workloads
#: the wrapper must fire on). The attribute is where the caller resolves
#: the name at call time.
LAYERS: List[Tuple[str, str, str, Callable, Any, Tuple[str, ...]]] = [
    ("specs.parse", "repro.api.session", "parse_graph_spec",
     _plain, None, ("service",)),
    ("fastgraph.canonicalize", "repro.fastgraph.indexed",
     "IndexedGraph.from_networkx", _plain, None, ("pipeline",)),
    ("virtual_graph.cds_index", "repro.core.virtual_graph",
     "CdsIndex.__init__", _plain, None, ("pipeline",)),
    ("bridging.jump_start", "repro.core.bridging", "jump_start",
     _plain, None, ("pipeline", "service")),
    ("bridging.assign_layer", "repro.core.bridging", "assign_layer",
     _plain, _observe_layer, ("pipeline", "service")),
    ("cds.fractional", "repro.core.cds_packing", "fractional_cds_packing",
     _plain, None, ("pipeline", "service")),
    ("cds.construct", "repro.core.cds_packing", "construct_cds_packing",
     _plain, _observe_construct, ("pipeline", "service")),
    ("connectivity.lambda_oracle", "repro.core.spanning_packing",
     "edge_connectivity", _plain, None, ("pipeline",)),
    ("spanning.pack", "repro.core.spanning_packing",
     "fractional_spanning_tree_packing", _plain, None, ("pipeline",)),
    ("spanning.mst", "repro.core.spanning_packing", "kruskal_from_order",
     _plain, None, ("pipeline",)),
    ("broadcast.vertex", "repro.apps.broadcast", "vertex_broadcast",
     _plain, _observe_broadcast, ("pipeline",)),
    ("broadcast.edge", "repro.apps.broadcast", "edge_broadcast",
     _plain, _observe_broadcast, ("pipeline",)),
    ("simulator.run", "repro.simulator.runner", "SyncRunner.run",
     _plain, _observe_sim, ("simulate",)),
    ("envelope.encode", "repro.api.envelope", "Result.to_dict",
     _plain, None, ("service",)),
    ("envelope.encode", "repro.api.envelope", "Result.canonical_json",
     _plain, None, ()),
    ("service.handle", "repro.service.core", "ServiceCore.handle",
     _handle, None, ("service",)),
    ("service.dispatch", "repro.service.core", "ServiceCore._dispatch",
     _plain, None, ("service",)),
    ("service.frame_read", "repro.service.daemon", "read_frame",
     _read_frame, None, ("service",)),
    ("service.frame_write", "repro.service.daemon", "write_frame",
     _plain, None, ("service",)),
    ("batch.run", "repro.api.batch", "run",
     _plain, _observe_batch, ("batch",)),
    ("batch.wait", "repro.api.backends", "ProcessBackend.execute",
     _generator, None, ("batch",)),
    ("batch.write", "repro.api.batch", "open", _open, None, ("batch",)),
]

#: Public GraphSession task methods, each its own ``session.<task>``
#: span, with the workloads that call it.
SESSION_TASKS = (
    ("connectivity", ("pipeline", "service")),
    ("pack_cds", ("pipeline", "service")),
    ("pack_spanning", ("pipeline", "service")),
    ("broadcast", ("pipeline",)),
    ("simulate", ("simulate", "service")),
)
LAYERS += [
    (f"session.{task}", "repro.api.session", f"GraphSession.{task}",
     _plain, None, workloads)
    for task, workloads in SESSION_TASKS
]


def _resolve(module_name: str, attr_path: str):
    """``(namespace owner, attribute)`` for ``module.Class.attr`` paths."""
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Installation:
    """The wrappers in place; :meth:`remove` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        for name, module, path, kind, observe, _ in LAYERS:
            owner, attr = _resolve(module, path)
            namespace = vars(owner)
            present = attr in namespace
            if present:
                original = namespace[attr]
            elif attr == "open":  # the builtin, shadowed by a module global
                original = builtins.open
            else:
                raise RuntimeError(
                    f"wrapper {name}: {module}.{path} is not defined there"
                )
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    kind(recorder, name, original.__func__, observe)
                )
            else:
                wrapped = kind(recorder, name, original, observe)
            self._saved.append((owner, attr, original, present))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original, present in reversed(self._saved):
            if present:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def missing_wrappers(workload: str, fired: Dict[str, int]) -> List[str]:
    """Wrappers assigned to ``workload`` that recorded no span."""
    missing = []
    for name, module, path, _, _, workloads in LAYERS:
        if workload in workloads and not fired.get(name):
            missing.append(f"{name} ({module}.{path})")
    return missing
