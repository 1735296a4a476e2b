"""The service core: request dispatch over an LRU of graph sessions.

:class:`ServiceCore` is the daemon's brain, factored out of the socket
layer so the interactive shell can run the *same* request/response
surface in-process (no daemon required) and tests can drive it without
networking. One :meth:`ServiceCore.handle` call maps a request dict to
a :class:`~repro.api.envelope.Result` envelope dict — the codec is
shared with the batch executor and the CLI ``--json`` mode.

Sessions are cached in :class:`SessionCache`, an LRU **keyed by graph
fingerprint**: two spec strings that canonicalize to the same graph
share one warm :class:`~repro.api.GraphSession` (a spec → fingerprint
memo makes the repeat lookup cheap). Mutations (``edge_new`` /
``edge_rmv``) edit the session's graph — the session drops everything
derived from it and re-canonicalizes on the next read — and the cache
re-keys the session under its new fingerprint.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.api import tasks
from repro.api.envelope import Result
from repro.api.session import GraphSession
from repro.api.specs import coerce_node_id
from repro.errors import BadRequestError, GraphValidationError, ServiceError
from repro.service.protocol import SERVICE_GRAPH, error_envelope

#: Default number of warm sessions the daemon keeps.
DEFAULT_SESSIONS = 8

#: Request fields that route a task op rather than feed its task
#: (``pack`` also routes on ``kind``).
ROUTING_FIELDS = ("op", "id", "graph", "session")

#: The task ops: every :data:`repro.api.tasks.TASKS` task by name, and
#: two wire names older than those that existing clients send:
#: ``estimate`` runs ``connectivity``, and ``pack`` runs ``pack_<kind>``.
TASK_OPS = ("estimate", "pack", *tasks.SESSION_TASKS)

#: The fields a ``batch`` op takes besides ``op`` and ``id``.
_BATCH_FIELDS = ("jobs", "base_seed")

#: Spec → fingerprint memo entries kept per cached session before the
#: memo is cleared wholesale (the policy of the payload-size memo in
#: :mod:`repro.simulator.message`): a client sending endless spellings
#: of one graph cannot grow it without bound, and a miss only costs one
#: canonicalization.
_SPEC_MEMO_PER_SESSION = 4


class SessionCache:
    """Bounded LRU of :class:`GraphSession`s keyed by graph fingerprint.

    ``stats`` counts ``hits`` (fingerprint already warm — including a
    new spec string canonicalizing to a cached graph), ``misses``
    (session built and inserted), and ``evictions`` (LRU overflow).
    """

    def __init__(self, capacity: int = DEFAULT_SESSIONS) -> None:
        if capacity < 1:
            raise ServiceError(
                f"session cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._sessions: "OrderedDict[str, GraphSession]" = OrderedDict()
        self._spec_memo: Dict[str, str] = {}  # spec → fingerprint
        self.stats = {"hits": 0, "misses": 0, "evictions": 0}

    def __len__(self) -> int:
        return len(self._sessions)

    def fingerprints(self) -> List[str]:
        """Cached fingerprints, least- to most-recently used."""
        return list(self._sessions)

    def open(self, spec: str) -> Tuple[GraphSession, str, bool]:
        """The warm session for a graph spec; ``(session, fp, created)``.

        The spec → fingerprint memo short-circuits re-canonicalization
        for specs seen before; an unmemoized spec pays one
        canonicalization, after which a fingerprint collision with a
        cached session (same graph under another spec) still counts as
        a hit and reuses the warm session.
        """
        memoized = self._spec_memo.get(spec)
        if memoized is not None and memoized in self._sessions:
            self.stats["hits"] += 1
            self._sessions.move_to_end(memoized)
            return self._sessions[memoized], memoized, False
        session = GraphSession(spec)
        fingerprint = session.fingerprint
        if len(self._spec_memo) >= _SPEC_MEMO_PER_SESSION * self.capacity:
            self._spec_memo.clear()
        self._spec_memo[spec] = fingerprint
        if fingerprint in self._sessions:
            self.stats["hits"] += 1
            self._sessions.move_to_end(fingerprint)
            return self._sessions[fingerprint], fingerprint, False
        self.stats["misses"] += 1
        self._sessions[fingerprint] = session
        self._evict_overflow()
        return session, fingerprint, True

    def get(self, fingerprint: str) -> GraphSession:
        """The session behind a fingerprint handle (LRU-touched)."""
        session = self._sessions.get(fingerprint)
        if session is None:
            known = ", ".join(self._sessions) or "(none)"
            raise ServiceError(
                f"no open session with fingerprint {fingerprint!r}; "
                f"open sessions: {known}"
            )
        self._sessions.move_to_end(fingerprint)
        return session

    def rekey(self, old_fingerprint: str, new_fingerprint: str) -> None:
        """Move a mutated session under its new fingerprint.

        Spec memo entries pointing at the old fingerprint are purged —
        the spec no longer describes the mutated graph.
        """
        session = self._sessions.pop(old_fingerprint, None)
        if session is None:
            return
        self._spec_memo = {
            spec: fp
            for spec, fp in self._spec_memo.items()
            if fp != old_fingerprint
        }
        self._sessions[new_fingerprint] = session
        self._sessions.move_to_end(new_fingerprint)

    def _evict_overflow(self) -> None:
        while len(self._sessions) > self.capacity:
            evicted_fp, _ = self._sessions.popitem(last=False)
            self._spec_memo = {
                spec: fp
                for spec, fp in self._spec_memo.items()
                if fp != evicted_fp
            }
            self.stats["evictions"] += 1


class ServiceCore:
    """Dispatch request dicts to envelope dicts over cached sessions.

    Thread-safe: one coarse lock serializes dispatch (sessions and
    their caches are not internally synchronized), which is the right
    trade for a cache whose wins come from reuse, not parallelism.
    """

    #: op → handler name. A handler reads its request fields before it
    #: opens a session, so a malformed request leaves the cache alone.
    OPS = {
        "ping": "_op_ping",
        "open": "_op_open",
        **dict.fromkeys(TASK_OPS, "_op_task"),
        "node_list": "_op_node_list",
        "node_nbr": "_op_node_nbr",
        "node_path": "_op_node_path",
        "edge_new": "_op_edge_mutate",
        "edge_rmv": "_op_edge_mutate",
        "batch": "_op_batch",
        "stats": "_op_stats",
        "shutdown": "_op_shutdown",
    }

    def __init__(self, cache_capacity: int = DEFAULT_SESSIONS) -> None:
        self.cache = SessionCache(capacity=cache_capacity)
        self._lock = threading.RLock()
        self._started = time.monotonic()
        self._requests = 0
        self._errors = 0
        self._op_counts: Dict[str, int] = {}

    # -- public entry point --------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request dict → one envelope dict (never raises).

        Every failure becomes a typed error envelope whose
        ``payload["error_type"]`` is :func:`repro.api.tasks.error_type`'s
        category (``"bad-request"``, ``"graph"``, ``"service"``,
        ``"library"``, ``"internal"``); the per-request wall time lands
        in ``timings["request_s"]``.
        """
        start = time.perf_counter()
        op = request.get("op")
        with self._lock:
            self._requests += 1
            # Only known ops get a counter: unknown names would grow the
            # stats payload with every distinct string a client sends.
            if isinstance(op, str) and op in self.OPS:
                self._op_counts[op] = self._op_counts.get(op, 0) + 1
            try:
                envelope = self._dispatch(request)
            except Exception as exc:  # noqa: BLE001 — daemon must survive
                kind = tasks.error_type(exc)
                message = (
                    f"{type(exc).__name__}: {exc}"
                    if kind == "internal" else str(exc)
                )
                envelope = error_envelope(message, kind, op=op)
            if envelope.task == "error":
                self._errors += 1
        envelope.timings["request_s"] = time.perf_counter() - start
        body = envelope.to_dict()
        if "id" in request:
            body["id"] = request["id"]
        return body

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    # -- dispatch ------------------------------------------------------

    def _dispatch(self, request: Dict[str, Any]) -> Result:
        op = request.get("op")
        if not isinstance(op, str) or not op:
            raise ServiceError(
                "request needs an 'op' field; valid ops: "
                + ", ".join(sorted(self.OPS))
            )
        handler_name = self.OPS.get(op)
        if handler_name is None:
            raise ServiceError(
                f"unknown op {op!r}; valid ops: "
                + ", ".join(sorted(self.OPS))
            )
        return getattr(self, handler_name)(request)

    def _resolve_session(
        self, request: Dict[str, Any]
    ) -> Tuple[GraphSession, str, bool]:
        handle = request.get("session")
        if handle is not None:
            if not isinstance(handle, str):
                raise ServiceError(
                    f"'session' must be a fingerprint string, "
                    f"got {type(handle).__name__}"
                )
            return self.cache.get(handle), handle, False
        spec = request.get("graph")
        if spec is None:
            raise ServiceError(
                f"op {request.get('op')!r} needs a 'graph' spec or a "
                "'session' fingerprint handle"
            )
        if not isinstance(spec, str):
            raise ServiceError(
                f"'graph' must be a spec string, got {type(spec).__name__}"
            )
        return self.cache.open(spec)

    # -- envelope helpers ----------------------------------------------

    def _service_envelope(
        self, task: str, payload: Dict[str, Any],
        params: Optional[Dict[str, Any]] = None,
    ) -> Result:
        return Result(
            task=task,
            graph=SERVICE_GRAPH,
            fingerprint="",
            n=0,
            m=0,
            seed=None,
            params=params or {},
            payload=payload,
        )

    def _session_envelope(
        self, task: str, session: GraphSession, payload: Dict[str, Any],
        params: Optional[Dict[str, Any]] = None,
    ) -> Result:
        return Result(
            task=task,
            graph=session.label,
            fingerprint=session.fingerprint,
            n=session.n,
            m=session.m,
            seed=None,
            params=params or {},
            payload=payload,
        )

    @staticmethod
    def _resolve_node(
        session: GraphSession, node: Hashable, new: bool = False
    ) -> Hashable:
        """A wire node label → the graph's label. Shell tokens arrive as
        text, so a string falls back to :func:`coerce_node_id`'s int;
        with ``new`` a label not in the graph names a new node."""
        graph = session.graph
        if node in graph:
            return node
        label = coerce_node_id(node) if isinstance(node, str) else node
        if new or label in graph:
            return label
        sample = ", ".join(repr(n) for n in list(graph.nodes())[:8])
        raise GraphValidationError(
            f"node {node!r} is not in the graph; nodes include: {sample}"
        )

    # -- ops -----------------------------------------------------------

    def _op_ping(self, request: Dict[str, Any]) -> Result:
        return self._service_envelope(
            "ping", {"pong": True, "uptime_s": self.uptime_s}
        )

    def _op_open(self, request: Dict[str, Any]) -> Result:
        session, fingerprint, created = self._resolve_session(request)
        return self._session_envelope(
            "graph_open", session,
            {
                "fingerprint": fingerprint,
                "label": session.label,
                "n": session.n,
                "m": session.m,
                "created": created,
                "generation": session.generation,
            },
        )

    def _op_task(self, request: Dict[str, Any]) -> Result:
        """One of :data:`TASK_OPS`: every field but the routing ones is
        the task's, decoded through :mod:`repro.api.tasks`. ``pack``
        takes ``kind`` (``cds`` by default) as its routing field."""
        task = request["op"]
        fields = {
            name: value for name, value in request.items()
            if name not in ROUTING_FIELDS
        }
        if task == "estimate":
            task = "connectivity"
        elif task == "pack":
            task = "pack_" + tasks.packing_kind(
                "kind", fields.pop("kind", "cds")
            )
        kwargs = tasks.decode(task, fields)
        session, _, _ = self._resolve_session(request)
        return getattr(session, task)(**kwargs)

    def _op_node_list(self, request: Dict[str, Any]) -> Result:
        session, _, _ = self._resolve_session(request)
        nodes = list(session.graph.nodes())
        return self._session_envelope(
            "node_list", session, {"nodes": nodes, "n": len(nodes)}
        )

    def _op_node_nbr(self, request: Dict[str, Any]) -> Result:
        if "node" not in request:
            raise ServiceError("op 'node_nbr' needs a 'node' field")
        session, _, _ = self._resolve_session(request)
        node = self._resolve_node(session, request["node"])
        neighbors = list(session.graph.neighbors(node))
        return self._session_envelope(
            "node_nbr", session,
            {"node": node, "neighbors": neighbors, "degree": len(neighbors)},
            params={"node": node},
        )

    def _op_node_path(self, request: Dict[str, Any]) -> Result:
        import networkx as nx

        for field in ("source", "target"):
            if field not in request:
                raise ServiceError(f"op 'node_path' needs a {field!r} field")
        session, _, _ = self._resolve_session(request)
        source = self._resolve_node(session, request["source"])
        target = self._resolve_node(session, request["target"])
        try:
            path = nx.shortest_path(session.graph, source, target)
        except nx.NetworkXNoPath:
            payload = {
                "source": source, "target": target,
                "path": None, "length": None, "reachable": False,
            }
        else:
            payload = {
                "source": source, "target": target,
                "path": list(path), "length": len(path) - 1,
                "reachable": True,
            }
        return self._session_envelope(
            "node_path", session, payload,
            params={"source": source, "target": target},
        )

    def _op_edge_mutate(self, request: Dict[str, Any]) -> Result:
        op = request["op"]
        for field in ("a", "b"):
            if field not in request:
                raise ServiceError(f"op {op!r} needs {field!r} (endpoint)")
        session, fingerprint, _ = self._resolve_session(request)
        new = op == "edge_new"  # new labels become new nodes
        a = self._resolve_node(session, request["a"], new=new)
        b = self._resolve_node(session, request["b"], new=new)
        if new:
            session.add_edge(a, b)
        else:
            session.remove_edge(a, b)
        new_fingerprint = session.fingerprint
        if new_fingerprint != fingerprint:
            self.cache.rekey(fingerprint, new_fingerprint)
        return self._session_envelope(
            op, session,
            {
                "edge": [a, b],
                "action": "added" if new else "removed",
                "fingerprint": new_fingerprint,
                "n": session.n,
                "m": session.m,
                "generation": session.generation,
            },
            params={"a": a, "b": b},
        )

    def _op_batch(self, request: Dict[str, Any]) -> Result:
        """Run an inline job list/matrix through the batch scheduler.

        The same :func:`repro.api.batch.run` the CLI uses, on its serial
        plane: the request takes ``jobs`` and ``base_seed`` only, so a
        client cannot size a process pool inside the daemon. Jobs must
        be inline (a list or matrix mapping); a server-side file path is
        refused so a remote client cannot read the daemon's filesystem.
        Rows come back canonical (timing-free), so the payload is as
        deterministic as a ``repro batch`` JSONL file.
        """
        from repro.api import batch as api_batch

        unknown = [
            name for name in request if name not in ("op", "id", *_BATCH_FIELDS)
        ]
        if unknown:
            raise BadRequestError(
                f"unknown field(s) {unknown}; valid fields: "
                + ", ".join(_BATCH_FIELDS)
            )
        jobs = request.get("jobs")
        if jobs is None:
            raise ServiceError(
                "op 'batch' needs a 'jobs' field (a job list or a "
                "graphs × tasks × seeds matrix mapping)"
            )
        if isinstance(jobs, str):
            raise ServiceError(
                "op 'batch' takes inline jobs (a list or matrix "
                "mapping), not a server-side file path"
            )
        stats: Dict[str, Any] = {}
        results = api_batch.run(
            jobs,
            base_seed=tasks.optional_integer(
                "base_seed", request.get("base_seed")
            ),
            stats=stats,
        )
        rows = [result.to_dict(include_timings=False) for result in results]
        errors = sum(1 for result in results if api_batch.is_error_row(result))
        return self._service_envelope(
            "batch",
            {
                "rows": rows,
                "jobs": len(rows),
                "errors": errors,
                "backend": stats["backend"],
                "workers": stats["workers"],
                "chunks": stats["chunks"],
            },
            params={"backend": stats["backend"], "workers": stats["workers"]},
        )

    def _op_stats(self, request: Dict[str, Any]) -> Result:
        sessions = []
        for fingerprint in self.cache.fingerprints():
            session = self.cache._sessions[fingerprint]
            sessions.append(
                {
                    "fingerprint": fingerprint,
                    "graph": session.label,
                    "n": session.n,
                    "m": session.m,
                    "generation": session.generation,
                    "stats": dict(session.stats),
                }
            )
        payload = {
            "uptime_s": self.uptime_s,
            "requests": self._requests,
            "errors": self._errors,
            "ops": dict(sorted(self._op_counts.items())),
            "cache": {
                "hits": self.cache.stats["hits"],
                "misses": self.cache.stats["misses"],
                "evictions": self.cache.stats["evictions"],
                "capacity": self.cache.capacity,
                "sessions": len(self.cache),
            },
            "sessions": sessions,
        }
        return self._service_envelope("stats", payload)

    def _op_shutdown(self, request: Dict[str, Any]) -> Result:
        return self._service_envelope(
            "shutdown", {"stopping": True, "uptime_s": self.uptime_s}
        )
