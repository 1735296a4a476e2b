"""Synchronous lock-step executor — the engine's round loop.

:func:`simulate` runs one :class:`~repro.simulator.node.NodeProgram` per
node until every node halts or the network goes quiescent (a full round
with no traffic and no new halts), or ``max_rounds`` elapses.

The executor is an *engine* with three separated layers:

* **topology core** — :class:`~repro.simulator.network.Network`
  canonicalizes nodes once through ``fastgraph.IndexedGraph``; the hot
  round loop below (inbox assembly, broadcast fan-out, fault filtering,
  budget checks) runs over integer node indices and flat neighbor
  arrays. Node programs still see Hashable node keys at the boundary
  (``ctx.node``, inbox keyed by sender label).
* **transport layer** — delivery semantics, message accounting rules, and
  budget enforcement live in pluggable
  :class:`~repro.simulator.transport.Transport` objects
  (``VCongestTransport`` / ``ECongestTransport`` / ``CliqueTransport``);
  a :class:`~repro.simulator.transport.Model` names a stock transport.
* **program registry** — :mod:`repro.simulator.scenario` names the
  runnable workloads; :meth:`repro.api.GraphSession.simulate` runs them
  through this module.

There is one round loop (:func:`_run_rounds`), and it picks a delivery
plane per round. Rounds go through :func:`deliver`, the general path
over engine-owned inbox dicts, unless the round qualifies for the
**column step** (:mod:`repro.simulator.column_step`), which delivers
through numpy edge arrays. A round qualifies when it is honest (no
fault plan, no adversary), carries only broadcasts, its transport's
fan-out is the network adjacency itself, and it passes the measured
rule of :data:`COLUMN_MIN_FANOUT` and :data:`COLUMN_MIN_EDGE_SHARE`.
Both planes produce identical :class:`SimulationResult` values and
identical :class:`~repro.simulator.tracing.Tracer` transcripts under a
fixed seed; ``tests/oracles/runner_reference.py`` preserves the
pre-engine loop as the independent oracle the equivalence tests
compare against.

Model enforcement (see :mod:`repro.simulator.transport`):

* ``Model.V_CONGEST`` — a program must return a single payload (or
  ``None``); the runner broadcasts it to all neighbors. Returning a dict
  raises :class:`~repro.errors.ModelViolationError`.
* ``Model.E_CONGEST`` — a program may return a dict of per-neighbor
  payloads (or a bare payload as broadcast shorthand, or ``None``).
* ``Model.CONGESTED_CLIQUE`` — as E-CONGEST, but any node may be
  addressed and broadcasts reach all ``n − 1`` other nodes.

Every payload is size-checked against the ``O(log n)``-bit budget
(``bits_per_message``); oversized messages raise
:class:`~repro.errors.ModelViolationError` — an intentional crash, since a
protocol that needs bigger messages is *not* a CONGEST protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulator.message import Message
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.node import Context, NodeProgram
from repro.simulator.transport import (
    BROADCAST,
    Model,
    Transport,
    build_transport,
)
from repro.utils.rng import RngLike, ensure_rng, fresh_seed

#: The column step's rule, picked from the sweep in DESIGN.md §3e. A run
#: qualifies when its mean fan-out (2m/n) is at least COLUMN_MIN_FANOUT;
#: a round of such a run takes the step when its broadcasts cover at
#: least COLUMN_MIN_EDGE_SHARE of the directed edges, because the step
#: pays for every edge of the network while the dict plane pays only for
#: the edges that carry traffic.
COLUMN_MIN_FANOUT = 32
COLUMN_MIN_EDGE_SHARE = 0.75


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    outputs: Dict[Hashable, Any]
    metrics: SimulationMetrics
    halted: bool

    def output_of(self, node: Hashable) -> Any:
        return self.outputs[node]


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------


class SyncRunner:
    """Executes programs in synchronized rounds over a :class:`Network`.

    ``model`` selects a stock transport; passing ``transport`` directly
    plugs in custom delivery semantics (then ``model`` is ignored for
    delivery and kept only as a label).
    """

    def __init__(
        self,
        network: Network,
        model: Model = Model.V_CONGEST,
        bits_per_message: Optional[int] = None,
        rng: RngLike = None,
        fault_plan=None,
        adversary_plan=None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.network = network
        self.model = model
        self.transport = (
            transport
            if transport is not None
            else build_transport(model, network, bits_per_message)
        )
        self.bits_per_message = self.transport.bits_per_message
        # An unseeded run draws no node seeds: each Context seeds from OS
        # entropy on its first ctx.rng, which most programs never touch.
        # Nor does it build its own OS-entropy run rng until something
        # draws from it (see ``_rng``).
        self._seeded = rng is not None
        self._run_rng: Optional[random.Random] = (
            ensure_rng(rng) if self._seeded else None
        )
        # Optional FaultPlan (None = reliable run) and AdversaryPlan
        # (None = honest channels). A plan built without its own seed
        # takes one fresh_seed draw from the run rng, fault plan first,
        # so one run seed reproduces the whole hostile execution; its
        # rng stays None, so every runner construction re-derives.
        # bind() then checks the plan against the transport's links.
        for plan in (fault_plan, adversary_plan):
            if plan is not None:
                if plan.rng is None:
                    plan.reseed(fresh_seed(self._rng))
                plan.bind(network, self.transport)
        self.fault_plan = fault_plan
        self.adversary_plan = adversary_plan

    @property
    def _rng(self) -> random.Random:
        """The run rng, built on first draw when the run is unseeded."""
        if self._run_rng is None:
            self._run_rng = ensure_rng(None)
        return self._run_rng

    def run(
        self,
        program_factory: Callable[[Hashable], NodeProgram],
        max_rounds: int = 100000,
    ) -> SimulationResult:
        """Run one program per node to completion.

        ``program_factory(node)`` builds the local algorithm for ``node``.
        Terminates when all nodes halt, or after a fully silent round.
        Raises :class:`SimulationError` if ``max_rounds`` is exceeded —
        runaway protocols are bugs.
        """
        if self.adversary_plan is not None:
            # Per-run state (the replay history) resets here, so a
            # reused plan object never leaks one run's traffic into the
            # next.
            self.adversary_plan.begin_run()
        return _run_rounds(self, program_factory, max_rounds)


def start_nodes(
    runner: SyncRunner,
    program_factory: Callable[[Hashable], NodeProgram],
) -> Tuple[List[Context], List[NodeProgram]]:
    """One :class:`Context` and one program per node, in node order.

    Context RNG seeds are drawn from the run RNG in canonical node order
    — the draw order the reference loop shares, so one run seed pins
    every node's randomness whichever loop executes it. An unseeded run
    draws none.
    """
    net = runner.network
    n = net.n
    seeded = runner._seeded
    runner_rng = runner._rng if seeded else None
    contexts: List[Context] = []
    programs: List[NodeProgram] = []
    for index, node in enumerate(net.nodes):
        contexts.append(
            Context(
                node=node,
                node_id=net.node_id(node),
                neighbors=net.neighbors(node),
                n=n,
                rng_seed=fresh_seed(runner_rng) if seeded else None,
                index=index,
            )
        )
        programs.append(program_factory(node))
    return contexts, programs


def finish(
    nodes: List[Hashable],
    contexts: List[Context],
    metrics: SimulationMetrics,
    halted: bool,
) -> SimulationResult:
    """The run's result: every node's output, in node order."""
    return SimulationResult(
        outputs={nodes[i]: contexts[i].output for i in range(len(nodes))},
        metrics=metrics,
        halted=halted,
    )


def deliver(
    senders: List[int],
    outbound: Any,
    round_no: int,
    nodes: List[Hashable],
    fanout_table: List[Tuple[int, ...]],
    plan,
    adversary,
    inboxes: List[Dict[Hashable, Message]],
    touched: List[int],
) -> Tuple[int, int, int]:
    """The general delivery path: one round of traffic into the inboxes.

    ``senders`` lists the indices with traffic in ascending order and
    ``outbound[s]`` holds sender ``s``'s validated traffic (see
    :mod:`repro.simulator.transport`); each entry is consumed (reset to
    ``None``) as it is delivered. Crashed senders
    stay silent; every delivery then consults the fault plan's drop
    decision — a pure function of (plan seed, directed edge, round) —
    and the adversary, which tampers on the wire. Inbox insertion order
    is ascending sender index. Each receiver whose inbox was empty is
    appended to ``touched`` so the caller can clear it after the round's
    programs ran. Returns the round's ``(messages, bits, max message
    bits)``.
    """
    messages = 0
    total_bits = 0
    max_bits = 0
    for s in senders:
        out = outbound[s]
        outbound[s] = None
        sender = nodes[s]
        if plan is not None and plan.is_crashed(sender, round_no):
            continue
        if out[0] is BROADCAST:
            message = out[1]
            bits = message.bits
            if plan is None and adversary is None:
                targets = fanout_table[s]
                for r in targets:
                    box = inboxes[r]
                    if not box:
                        touched.append(r)
                    box[sender] = message
                delivered = len(targets)
            else:
                delivered = 0
                for r in fanout_table[s]:
                    receiver = nodes[r]
                    if plan is not None and plan.drops(
                        sender, receiver, round_no
                    ):
                        continue
                    box = inboxes[r]
                    if not box:
                        touched.append(r)
                    box[sender] = (
                        message
                        if adversary is None
                        else adversary.apply(
                            sender, receiver, round_no, message
                        )
                    )
                    delivered += 1
            if delivered:
                messages += delivered
                total_bits += bits * delivered
                if bits > max_bits:
                    max_bits = bits
        else:
            for r, message in out:
                receiver = nodes[r]
                if plan is not None and plan.drops(
                    sender, receiver, round_no
                ):
                    continue
                box = inboxes[r]
                if not box:
                    touched.append(r)
                box[sender] = (
                    message
                    if adversary is None
                    else adversary.apply(sender, receiver, round_no, message)
                )
                # Accounting charges the honest transmission — the
                # adversary tampers on the wire, after the sender paid
                # for (and the budget validated) the real message.
                messages += 1
                total_bits += message.bits
                if message.bits > max_bits:
                    max_bits = message.bits
    return messages, total_bits, max_bits


def _run_rounds(
    runner: SyncRunner,
    program_factory: Callable[[Hashable], NodeProgram],
    max_rounds: int,
) -> SimulationResult:
    """The round loop over integer node indices.

    Per-round work is proportional to live nodes and delivered messages —
    not ``n`` — and message payloads are validated/sized once per payload
    object, not once per receiver. Each round is delivered either by
    :func:`deliver` into engine-owned inbox dicts, recycled between
    rounds, or by the column step into views over its columns (see the
    module docstring). Programs must consume their inbox during
    ``on_round`` (every shipped program does).
    """
    net = runner.network
    transport = runner.transport
    plan = runner.fault_plan
    adversary = runner.adversary_plan
    nodes = net.nodes  # index → label, frozen for the run
    n = len(nodes)
    validate = transport.validate
    fanout_table = [transport.fanout(i) for i in range(n)]
    contexts, programs = start_nodes(runner, program_factory)

    # The run's half of the column step's rule. The identity test on the
    # fan-out keeps the clique and custom transports on the dict plane:
    # the step's edge arrays are built from the network adjacency alone.
    column_edges = None
    if (
        plan is None
        and adversary is None
        and transport._fanout is net.neighbor_index_table()
        and 2 * net.m >= COLUMN_MIN_FANOUT * n
    ):
        degree = [len(row) for row in fanout_table]
        column_edges = max(1, COLUMN_MIN_EDGE_SHARE * 2 * net.m)
    column = None

    metrics = SimulationMetrics(runs=1)
    # outbound[i] = validated indexed traffic produced by node i this
    # round (see transport.Outbound); `senders` lists the indices with
    # traffic, in index order — delivery never scans silent nodes.
    outbound: List[Any] = [None] * n
    senders: List[int] = []
    for i in range(n):
        out = validate(nodes[i], i, programs[i].on_start(contexts[i]))
        if out:
            outbound[i] = out
            senders.append(i)

    # live = indices of nodes that are neither halted nor crashed (the
    # only ones that execute); unhalted additionally counts crashed
    # nodes, matching the metrics accounting of the reference loop.
    live: List[int] = [i for i in range(n) if not contexts[i].halted]
    unhalted = len(live)
    # inboxes are engine-owned dicts, reused across rounds; `touched`
    # tracks which ones need clearing after the round's programs ran.
    inboxes: List[Dict[Hashable, Message]] = [{} for _ in range(n)]

    for round_no in range(1, max_rounds + 1):
        touched: List[int] = []
        delivered = None
        if column_edges is not None and (
            sum(map(degree.__getitem__, senders)) >= column_edges
        ):
            if column is None:
                # numpy loads here: runs that never take the step never
                # load it.
                from repro.simulator.column_step import ColumnStep

                column = ColumnStep(net)
            delivered = column.deliver(senders, outbound, inboxes)
        if delivered is None:
            boxes = inboxes
            messages, bits, max_bits = deliver(
                senders, outbound, round_no, nodes, fanout_table, plan,
                adversary, inboxes, touched,
            )
        else:
            boxes, messages, bits, max_bits = delivered
        if messages or unhalted:
            metrics.record_round(messages, bits, max_bits)

        senders = []
        next_live: List[int] = []
        for i in live:
            if plan is not None and plan.is_crashed(nodes[i], round_no):
                # Crash-stop: no execution, no traffic; drops out of the
                # live set for good (crashes are permanent) but still
                # counts as unhalted for round accounting.
                continue
            ctx = contexts[i]
            ctx.round = round_no
            raw = programs[i].on_round(ctx, boxes[i])
            if ctx._halted:
                unhalted -= 1
            else:
                if raw is not None:
                    out = validate(nodes[i], i, raw)
                    if out:
                        outbound[i] = out
                        senders.append(i)
                next_live.append(i)
        for r in touched:
            inboxes[r].clear()
        live = next_live

        if not live:
            return finish(nodes, contexts, metrics, True)
        if not messages and not senders:
            return finish(nodes, contexts, metrics, False)
    raise SimulationError(
        f"simulation did not terminate within {max_rounds} rounds"
    )


def simulate(
    network: Network,
    program_factory: Callable[[Hashable], NodeProgram],
    model: Model = Model.V_CONGEST,
    max_rounds: int = 100000,
    bits_per_message: Optional[int] = None,
    rng: RngLike = None,
    transport: Optional[Transport] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`SyncRunner`."""
    runner = SyncRunner(
        network,
        model=model,
        bits_per_message=bits_per_message,
        rng=rng,
        transport=transport,
    )
    return runner.run(program_factory, max_rounds=max_rounds)
