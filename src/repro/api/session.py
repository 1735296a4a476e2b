"""The one front door: a per-graph session with cached canonicalization.

The paper's pipeline — estimate vertex connectivity, build a CDS or
spanning packing, run broadcast/gossip/routing on top — is one coherent
object, but the free functions each re-canonicalize their ``nx.Graph``
argument through :class:`~repro.fastgraph.IndexedGraph` /
:class:`~repro.core.virtual_graph.CdsIndex`. A :class:`GraphSession`
canonicalizes **once** (from a graph, a ``family:args`` spec string, or
an edge list) and dispatches every task against the cached view:

>>> from repro.api import GraphSession
>>> session = GraphSession("harary:6,24")
>>> estimate = session.connectivity(seed=3)      # builds the index
>>> packing = session.pack_cds(seed=3)           # reuses it (and the
...                                              # estimate's packing)
>>> outcome = session.broadcast(messages=24, seed=3)  # still one index

Every method returns a typed :class:`~repro.api.envelope.Result`
envelope (graph fingerprint, seed, parameters, timings, JSON-clean
payload, plus the rich object in ``.raw``). Under a fixed seed each
method is bit-identical to the corresponding free function — the
session only *shares* the canonical index; it never changes an RNG
stream (``tests/test_api_session.py`` pins this).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

import networkx as nx

from repro.api.envelope import Result, encode_value
from repro.api.specs import parse_graph_spec
from repro.errors import GraphValidationError
from repro.utils.rng import RngLike

TopologyLike = Union[str, nx.Graph, Iterable[Tuple[Hashable, Hashable]]]


def _coerce_topology(topology: TopologyLike) -> Tuple[nx.Graph, str]:
    """(graph, descriptor) from a spec string, graph, or edge list."""
    if isinstance(topology, str):
        return parse_graph_spec(topology), topology
    if isinstance(topology, nx.Graph):
        graph = topology
        return graph, (
            f"<graph n={graph.number_of_nodes()} m={graph.number_of_edges()}>"
        )
    if isinstance(topology, Iterable):
        graph = nx.Graph()
        graph.add_edges_from(topology)
        if graph.number_of_nodes() == 0:
            raise GraphValidationError("edge list produced an empty graph")
        return graph, (
            f"<edges n={graph.number_of_nodes()} m={graph.number_of_edges()}>"
        )
    raise GraphValidationError(
        f"cannot interpret topology {topology!r}; expected a graph spec "
        "string, an nx.Graph, or an iterable of edges"
    )


#: Bound on a session's per-task result cache. Long-lived processes
#: (the ``repro serve`` daemon) hold sessions indefinitely, so an
#: unbounded cache is a leak; 256 entries comfortably cover any
#: interactive working set while keeping the worst case small.
RESULT_CACHE_LIMIT = 256


class GraphSession:
    """Canonicalize a graph once; run the whole pipeline against it.

    Cached across calls: the :class:`~repro.fastgraph.IndexedGraph`
    canonicalization, the CDS-pipeline :class:`CdsIndex`, the structural
    fingerprint, and every task result (keyed by task + seed + params),
    so ``connectivity → pack_cds → broadcast`` under one seed performs a
    single canonicalization and a single packing construction.
    ``session.stats`` reports the cache behavior.

    The result cache is an LRU bounded by :data:`RESULT_CACHE_LIMIT`
    entries (evictions are counted in ``stats["evictions"]``), so a
    session can serve an unbounded query stream — the ``repro serve``
    daemon holds sessions for its whole lifetime — without leaking.

    Sessions are also *mutable*: :meth:`add_edge` / :meth:`remove_edge`
    edit the graph, bump :attr:`generation` and drop everything derived
    from it (index, ``CdsIndex``, fingerprint, result cache); the next
    read re-canonicalizes. So after any edit sequence the session is
    bit-identical to a fresh session built from the final graph.
    """

    def __init__(self, topology: TopologyLike, label: Optional[str] = None):
        graph, descriptor = _coerce_topology(topology)
        self._graph = graph
        self._label = label or descriptor
        self._indexed = None
        self._cds_index = None
        self._fingerprint: Optional[str] = None
        self._results: "OrderedDict[Tuple, Any]" = OrderedDict()
        #: Edit counter: bumped by :meth:`add_edge` / :meth:`remove_edge`.
        self.generation = 0
        self.stats: Dict[str, int] = {
            "canonicalizations": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "evictions": 0,
            "mutations": 0,
            "invalidations": 0,
        }

    # -- cached canonical views ----------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def label(self) -> str:
        return self._label

    @property
    def n(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def m(self) -> int:
        return self._graph.number_of_edges()

    @property
    def indexed(self):
        """The session's :class:`IndexedGraph` (built on first access)."""
        if self._indexed is None:
            from repro.fastgraph import IndexedGraph

            self._indexed = IndexedGraph.from_networkx(self._graph)
            self.stats["canonicalizations"] += 1
        return self._indexed

    @property
    def cds_index(self):
        """The CDS-pipeline index, sharing :attr:`indexed`."""
        if self._cds_index is None:
            from repro.core.virtual_graph import CdsIndex

            self._cds_index = CdsIndex(self._graph, indexed=self.indexed)
        return self._cds_index

    @property
    def fingerprint(self) -> str:
        """Structural hash of the canonical node order + edge array.

        Stable across processes and hash seeds (node ``repr`` based), so
        batch rows from different workers agree on graph identity.
        """
        if self._fingerprint is None:
            indexed = self.indexed
            digest = hashlib.sha256()
            for node in indexed.nodes:
                digest.update(repr(node).encode("utf-8"))
                digest.update(b"\x00")
            digest.update(b"|")
            for a, b in sorted(
                (min(a, b), max(a, b)) for a, b in zip(indexed.u, indexed.v)
            ):
                digest.update(f"{a},{b};".encode("ascii"))
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    # -- mutation ------------------------------------------------------

    def add_edge(self, a: Hashable, b: Hashable) -> None:
        """Add edge ``{a, b}`` (new labels become new nodes)."""
        if a == b:
            raise GraphValidationError(
                f"self-loop {a!r}-{b!r} is not allowed"
            )
        if self._graph.has_edge(a, b):
            raise GraphValidationError(f"edge {a!r}-{b!r} already exists")
        self._graph.add_edge(a, b)
        self._note_mutation()

    def remove_edge(self, a: Hashable, b: Hashable) -> None:
        """Remove edge ``{a, b}`` (nodes stay, as in ``nx.Graph``)."""
        if not self._graph.has_edge(a, b):
            raise GraphValidationError(
                f"edge {a!r}-{b!r} is not in the graph"
            )
        self._graph.remove_edge(a, b)
        self._note_mutation()

    def _note_mutation(self) -> None:
        """Forget everything derived from the graph; the next read
        re-canonicalizes."""
        self.generation += 1
        self.stats["mutations"] += 1
        self._indexed = None
        self._cds_index = None
        self._fingerprint = None
        self.stats["invalidations"] += len(self._results)
        self._results.clear()

    # -- result cache --------------------------------------------------

    def _memo(self, key: Tuple, build) -> Any:
        """The one get-or-build path: look ``key`` up in the LRU (touching
        it) or build, store and bound it. Entries are returned as stored."""
        results = self._results
        if key in results:
            results.move_to_end(key)
            return results[key]
        value = results[key] = build()
        while len(results) > RESULT_CACHE_LIMIT:
            results.popitem(last=False)
            self.stats["evictions"] += 1
        return value

    def _cached(self, key: Tuple, build) -> Result:
        # Envelope tasks count hits/misses and get ``total_s`` on a miss.
        # Envelopes are handed out as copies (raw shared): a caller
        # mutating payload/timings in place must not poison the cache.
        hit = key in self._results
        self.stats["cache_hits" if hit else "cache_misses"] += 1
        start = time.perf_counter()
        result = self._memo(key, build)
        if not hit:
            result.timings.setdefault(
                "total_s", time.perf_counter() - start
            )
        return result.copy()

    def _envelope(
        self,
        task: str,
        seed: Optional[int],
        params: Dict[str, Any],
        payload: Dict[str, Any],
        raw: Any,
    ) -> Result:
        return Result(
            task=task,
            graph=self._label,
            fingerprint=self.fingerprint,
            n=self.n,
            m=self.m,
            seed=seed,
            params=params,
            payload=payload,
            raw=raw,
        )

    # -- pipeline tasks ------------------------------------------------

    def _cds_result(self, k, seed, params):
        """The shared fractional-CDS construction (raw result, cached).

        ``connectivity`` and ``pack_cds`` under the same (k, seed,
        params) are *one* construction: Corollary 1.7's estimate is read
        off the very packing ``pack_cds`` returns.
        """
        from repro.core.cds_packing import fractional_cds_packing

        return self._memo(
            ("_cds", k, seed, params),
            lambda: fractional_cds_packing(
                self._graph, k=k, params=params, rng=seed,
                index=self.cds_index,
            ),
        )

    def pack_cds(
        self,
        k: Optional[int] = None,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Fractional dominating tree packing (Theorems 1.1/1.2).

        Bit-identical to
        :func:`repro.core.cds_packing.fractional_cds_packing` under the
        same seed.
        """
        def build():
            result = self._cds_result(k, seed, params)
            packing = result.packing
            # No max_diameter here: a new field would re-pin the
            # payload's bytes. Callers that want it read
            # ``raw.packing.max_diameter()`` (two BFS sweeps per tree),
            # as the CLI does.
            payload = {
                "size": packing.size,
                "n_trees": len(packing),
                "t_requested": result.t_requested,
                "t_used": result.t_used,
                "n_valid_classes": len(result.valid_classes),
                "k_guess": result.k_guess,
                "attempts": result.attempts,
                "max_node_load": packing.max_node_load(),
            }
            return self._envelope(
                "pack_cds", seed,
                {"k": k, "params": asdict(params) if params else None},
                payload, result,
            )

        return self._cached(("pack_cds", k, seed, params), build)

    def connectivity(
        self,
        seed: int = 0,
        params=None,
        exact: bool = False,
    ) -> Result:
        """Corollary 1.7 vertex-connectivity estimate.

        Shares the packing with :meth:`pack_cds` (same seed/params) —
        the estimate is derived, not recomputed. ``exact=True`` adds the
        exact ``k`` and ``λ`` of :meth:`exact_vertex_connectivity` and
        :meth:`exact_edge_connectivity` to the payload (off by default).
        """
        def build():
            from repro.core.vertex_connectivity import estimate_from_packing

            packing_result = self._cds_result(None, seed, params)
            estimate = estimate_from_packing(self._graph, packing_result)
            payload = {
                "lower_bound": estimate.lower_bound,
                "upper_bound": estimate.upper_bound,
                "estimate": estimate.estimate,
                "packing_size": estimate.packing_size,
                "n_trees": estimate.n_trees,
            }
            if exact:
                payload["exact_k"] = self.exact_vertex_connectivity()
                payload["exact_lambda"] = self.exact_edge_connectivity()
            return self._envelope(
                "connectivity", seed,
                {"params": asdict(params) if params else None, "exact": exact},
                payload, estimate,
            )

        return self._cached(("connectivity", seed, params, exact), build)

    def exact_vertex_connectivity(self) -> int:
        """Exact ``k`` from the kernel oracle on :attr:`indexed`
        (:func:`repro.fastgraph.flow.vertex_connectivity`; cached)."""
        from repro.fastgraph.flow import vertex_connectivity

        return self._memo(
            ("_exact_k",), lambda: vertex_connectivity(self.indexed)[0]
        )

    def exact_edge_connectivity(self) -> int:
        """Exact ``λ`` from the kernel oracle on :attr:`indexed`
        (:func:`repro.fastgraph.flow.edge_connectivity`; cached)."""
        from repro.fastgraph.flow import edge_connectivity

        return self._memo(
            ("_exact_lam",), lambda: edge_connectivity(self.indexed)[0]
        )

    def pack_spanning(
        self,
        lam: Optional[int] = None,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Fractional spanning tree packing (Theorem 1.3); bit-identical
        to :func:`~repro.core.spanning_packing.fractional_spanning_tree_packing`."""
        def build():
            from repro.core.spanning_packing import (
                fractional_spanning_tree_packing,
            )

            result = fractional_spanning_tree_packing(
                self._graph, lam=lam, params=params, rng=seed,
                indexed=self.indexed,
            )
            packing = result.packing
            payload = {
                "size": packing.size,
                "n_trees": len(packing),
                "lam": result.lam,
                "target": result.target,
                "parts": result.parts,
                "efficiency": result.efficiency,
                "max_edge_load": packing.max_edge_load(),
                "mwu_iterations": max(
                    (t.iterations for t in result.traces), default=0
                ),
            }
            return self._envelope(
                "pack_spanning", seed,
                {"lam": lam, "params": asdict(params) if params else None},
                payload, result,
            )

        return self._cached(("pack_spanning", lam, seed, params), build)

    def pack_integral(
        self,
        kind: str = "cds",
        seed: int = 0,
        k: Optional[int] = None,
        lam: Optional[int] = None,
        class_factor: float = 0.25,
        parts_factor: float = 0.5,
    ) -> Result:
        """Integral (vertex-/edge-disjoint) packings (Section 1.2)."""
        if kind not in ("cds", "spanning"):
            raise GraphValidationError(
                f"unknown integral packing kind {kind!r}; "
                "valid kinds: cds, spanning"
            )

        def build():
            if kind == "cds":
                from repro.core.cds_packing import PackingParameters
                from repro.core.integral_packing import integral_cds_packing

                result = integral_cds_packing(
                    self._graph, k=k,
                    params=PackingParameters(class_factor=class_factor),
                    rng=seed, index=self.cds_index,
                )
                packing = result.packing
                payload = {
                    "kind": kind,
                    "size": len(packing),
                    "t_requested": result.t_requested,
                    "valid_classes": len(result.valid_classes),
                    "vertex_disjoint": packing.is_vertex_disjoint(),
                }
                raw = result
            else:
                from repro.core.integral_packing import (
                    integral_spanning_packing,
                )

                packing = integral_spanning_packing(
                    self._graph, lam=lam, parts_factor=parts_factor,
                    rng=seed, indexed=self.indexed,
                )
                payload = {
                    "kind": kind,
                    "size": len(packing),
                    "edge_disjoint": packing.is_edge_disjoint(),
                }
                raw = packing
            return self._envelope(
                "pack_integral", seed,
                {
                    "kind": kind, "k": k, "lam": lam,
                    "class_factor": class_factor,
                    "parts_factor": parts_factor,
                },
                payload, raw,
            )

        return self._cached(
            ("pack_integral", kind, seed, k, lam, class_factor, parts_factor),
            build,
        )

    # -- applications on top of the packings ---------------------------

    def default_sources(self, messages: int) -> Dict[int, Hashable]:
        """The CLI's historical source assignment: message ``i`` starts
        at the ``i``-th node in string order (round-robin)."""
        nodes = sorted(self._graph.nodes(), key=str)
        return {i: nodes[i % len(nodes)] for i in range(messages)}

    def broadcast(
        self,
        messages: int = 16,
        seed: int = 0,
        transport: str = "vertex",
        sources: Optional[Dict[int, Hashable]] = None,
        pack_seed: Optional[int] = None,
        k: Optional[int] = None,
        params=None,
    ) -> Result:
        """Tree-routed broadcast (Corollaries 1.4/1.5) on the session's
        cached packing.

        ``transport`` — ``"vertex"`` floods a dominating tree packing
        under V-CONGEST capacities, ``"edge"`` a spanning packing under
        E-CONGEST. ``pack_seed`` defaults to ``seed`` (the CLI's
        historical behavior: one seed pins packing and routing).
        """
        if transport not in ("vertex", "edge"):
            raise GraphValidationError(
                f"unknown broadcast transport {transport!r}; "
                "valid transports: vertex, edge"
            )
        effective_pack_seed = seed if pack_seed is None else pack_seed
        explicit_sources = sources is not None

        def build():
            from repro.apps.broadcast import edge_broadcast, vertex_broadcast

            chosen_sources = (
                sources if explicit_sources else self.default_sources(messages)
            )
            if transport == "vertex":
                packing = self._cds_result(
                    k, effective_pack_seed, params
                ).packing
                outcome = vertex_broadcast(packing, chosen_sources, rng=seed)
            else:
                packing = self.pack_spanning(
                    seed=effective_pack_seed, params=params
                ).raw.packing
                outcome = edge_broadcast(packing, chosen_sources, rng=seed)
            payload = {
                "transport": transport,
                "n_messages": outcome.n_messages,
                "rounds": outcome.rounds,
                "throughput": outcome.throughput,
                "max_vertex_congestion": outcome.max_vertex_congestion,
                "max_edge_congestion": outcome.max_edge_congestion,
                "n_trees_used": len(set(outcome.tree_assignment.values())),
            }
            return self._envelope(
                "broadcast", seed,
                {
                    "messages": len(chosen_sources),
                    "transport": transport,
                    "pack_seed": effective_pack_seed,
                    "k": k,
                    "params": asdict(params) if params else None,
                },
                payload, outcome,
            )

        if explicit_sources:
            return build()  # un-hashable argument: skip the cache
        return self._cached(
            (
                "broadcast", messages, seed, transport,
                effective_pack_seed, k, params,
            ),
            build,
        )

    def gossip(
        self,
        n_messages: Optional[int] = None,
        max_per_node: int = 1,
        seed: int = 0,
        pack_seed: Optional[int] = None,
        k: Optional[int] = None,
        params=None,
    ) -> Result:
        """Gossip / k-token dissemination (Corollary A.1) on the cached
        dominating tree packing."""
        effective_pack_seed = seed if pack_seed is None else pack_seed

        def build():
            from repro.apps.gossip import gossip as gossip_fn

            packing = self._cds_result(k, effective_pack_seed, params).packing
            outcome = gossip_fn(
                packing,
                n_messages=n_messages,
                max_per_node=max_per_node,
                rng=seed,
            )
            payload = {
                "n_messages": outcome.n_messages,
                "max_per_node": outcome.max_per_node,
                "rounds": outcome.rounds,
                "reference_rounds": outcome.reference_rounds,
                "slowdown": outcome.slowdown,
                "throughput": outcome.broadcast.throughput,
            }
            return self._envelope(
                "gossip", seed,
                {
                    "n_messages": n_messages,
                    "max_per_node": max_per_node,
                    "pack_seed": effective_pack_seed,
                    "k": k,
                    "params": asdict(params) if params else None,
                },
                payload, outcome,
            )

        return self._cached(
            (
                "gossip", n_messages, max_per_node, seed,
                effective_pack_seed, k, params,
            ),
            build,
        )

    # -- simulator-backed tasks ----------------------------------------

    def simulate(
        self,
        program: str = "flood-min",
        model: Optional[str] = None,
        seed: int = 0,
        fault_plan=None,
        adversary_plan=None,
        max_rounds: int = 100000,
        trace: bool = False,
        show_outputs: Optional[int] = None,
    ) -> Result:
        """Run a registered program on the round simulator.

        This is where every registered program runs. The
        :class:`~repro.simulator.network.Network` is built on the
        session's canonicalization and draws the node ids from the run
        RNG (``seed``); :class:`~repro.simulator.runner.SyncRunner` then
        draws any unseeded plan seed (fault plan first, adversary plan
        second) and the node seeds. A composite driver (``cds_packing``,
        ``resilience-sweep``) gets the network and the run RNG instead
        and takes no plans. ``raw`` is the
        :class:`~repro.simulator.scenario.ScenarioRun`, and
        ``timings["total_s"]`` covers the run alone, not the builder.
        ``show_outputs`` caps how many node outputs enter the payload
        (``None``: all). The runner binds each plan to the run's links,
        so a plan naming a node the graph lacks, or (off the congested
        clique) a schedule or target naming a non-edge, is a
        :class:`GraphValidationError`.
        The envelope's ``params`` carry the *full* fault/adversary
        configuration, bound plan seeds included, in the shape
        :mod:`repro.api.tasks` decodes, so a ``--json`` row alone
        reproduces a hostile execution through any front door. (A
        program drawing node randomness, such as ``mis``, replays
        exactly only from plans given explicit seeds: the runner draws
        a missing plan seed from the run seed before the node seeds.)
        """
        from repro.simulator.network import Network
        from repro.simulator.runner import Model, SyncRunner
        from repro.simulator.scenario import ScenarioRun, resolve_program
        from repro.simulator.tracing import Tracer
        from repro.utils.rng import ensure_rng

        chosen_model = Model(model) if isinstance(model, str) else model
        resolved = resolve_program(program)
        run_model = chosen_model or resolved.model
        if resolved.driver is not None and fault_plan is not None:
            raise GraphValidationError(
                f"program {resolved.name!r} is a composite driver and does "
                "not support fault plans"
            )
        if resolved.driver is not None and adversary_plan is not None:
            raise GraphValidationError(
                f"program {resolved.name!r} is a composite driver and does "
                "not support adversary plans (drivers that model corruption "
                "build their own plans internally)"
            )
        rand = ensure_rng(seed)
        network = Network(self._graph, rng=rand, indexed=self.indexed)
        tracer = Tracer() if trace else None
        if resolved.driver is not None:
            start = time.perf_counter()
            result = resolved.driver(
                network, model=run_model, rng=rand, tracer=tracer,
                max_rounds=max_rounds,
            )
        else:
            factory = resolved.build(network)
            if tracer is not None:
                factory = tracer.wrap(factory)
            runner = SyncRunner(
                network, model=run_model, rng=rand,
                fault_plan=fault_plan, adversary_plan=adversary_plan,
            )
            start = time.perf_counter()
            result = runner.run(factory, max_rounds=max_rounds)
        run = ScenarioRun(
            network=network,
            result=result,
            trace=tracer.trace if tracer is not None else None,
            wall_seconds=time.perf_counter() - start,
        )
        summary = run.summary()
        outputs = list(run.result.outputs.items())
        if show_outputs is not None:
            outputs = outputs[:show_outputs]
        payload = {
            "program": resolved.name,
            "description": resolved.description,
            "model": run_model.value,
            "rounds": summary["rounds"],
            "messages": summary["messages"],
            "bits": summary["bits"],
            "max_message_bits": summary["max_message_bits"],
            "halted": summary["halted"],
            "outputs": {node: _jsonable(out) for node, out in outputs},
        }
        envelope = self._envelope(
            "simulate", seed,
            {
                "program": program,
                "model": model,
                "max_rounds": max_rounds,
                # Full plan configs (seeds included; bound during the
                # run, so the envelope pins the exact loss/corruption
                # pattern). None = reliable / honest channels.
                "faults": _describe_plan(fault_plan),
                "adversary": _describe_plan(adversary_plan),
            },
            payload, run,
        )
        envelope.timings["total_s"] = run.wall_seconds
        envelope.timings["rounds_per_sec"] = summary["rounds_per_sec"]
        return envelope

    def pack_cds_distributed(
        self,
        k: int,
        seed: int = 0,
        params=None,
    ) -> Result:
        """Theorem B.1's distributed construction on the V-CONGEST
        simulator (round/bit accounting in the payload)."""
        def build():
            from repro.core.cds_packing_distributed import (
                distributed_cds_packing,
            )

            dist = distributed_cds_packing(self._graph, k, params, seed)
            payload = {
                "size": dist.result.packing.size,
                "n_trees": len(dist.result.packing),
                "meta_rounds": dist.meta_rounds,
                "real_round_estimate": dist.real_round_estimate,
                "analytic_round_bound": dist.report.analytic_total(),
                "messages": dist.report.measured.messages,
                "bits": dist.report.measured.bits,
            }
            return self._envelope(
                "pack_cds_distributed", seed,
                {"k": k, "params": asdict(params) if params else None},
                payload, dist,
            )

        return self._cached(("pack_cds_distributed", k, seed, params), build)


def _jsonable(value: Any) -> Any:
    """Best-effort envelope encoding for node program outputs."""
    try:
        return encode_value(value)
    except TypeError:
        return repr(value)


def _describe_plan(plan: Any) -> Optional[Dict[str, Any]]:
    """A plan's JSON-clean config for the params block (None stays None)."""
    if plan is None:
        return None
    described = plan.describe()
    try:
        return encode_value(described)
    except TypeError:
        return {key: repr(value) for key, value in described.items()}
