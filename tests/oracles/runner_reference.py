"""The pre-engine round loop, preserved as the equivalence oracle.

This module is a byte-faithful port of the original
:class:`~repro.simulator.runner.SyncRunner` loop: per-round dicts keyed
by Hashable node labels, per-receiver message dicts, model branching
inline. It exists for one reason — it is the *oracle* of the
engine-equivalence suite (``tests/test_engine_equivalence.py``): under a
fixed seed, the indexed engine must produce an identical
:class:`~repro.simulator.runner.SimulationResult` and an identical
:class:`~repro.simulator.tracing.Tracer` transcript for every algorithm
in :mod:`repro.simulator.algorithms`. It also anchors the rounds/sec
speedup measured by ``benchmarks/bench_simulator.py``.

Determinism contract shared with the indexed engine (do not change):

* per-node context RNGs are seeded by ``fresh_seed`` draws in
  ``Network.nodes`` order;
* broadcast fan-out follows the neighbor order of ``Network.neighbors``;
* fault-plan drop decisions are evaluated once per (message, receiver)
  delivery attempt of non-crashed senders via
  :meth:`~repro.simulator.faults.FaultPlan.drops` — a pure function of
  (plan seed, directed edge, round), so iteration order cannot matter.

:func:`_run_reference` has the signature of
``repro.simulator.runner._run_rounds``; the tests route runs (composite
algorithms included) through it by patching that name.

Only ``Model.V_CONGEST`` and ``Model.E_CONGEST`` are supported — the
congested clique postdates this loop.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

from repro.errors import ModelViolationError, SimulationError
from repro.simulator.message import Message
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.node import Context, NodeProgram
from repro.simulator.runner import Model, SimulationResult
from repro.utils.rng import fresh_seed


def _run_reference(
    runner,
    program_factory: Callable[[Hashable], NodeProgram],
    max_rounds: int,
) -> SimulationResult:
    """The legacy dict-per-round loop (pre-engine ``SyncRunner.run``)."""
    if runner.model not in (Model.V_CONGEST, Model.E_CONGEST):
        raise SimulationError(
            "the reference engine only implements V-CONGEST and E-CONGEST; "
            f"got {runner.model!r}"
        )
    net = runner.network
    plan = runner.fault_plan
    adversary = runner.adversary_plan
    if plan is not None and getattr(plan, "drop_schedule", None):
        # The legacy loop predates per-edge drop schedules; running one
        # here would silently report a fault-free run.
        raise SimulationError(
            "the reference engine does not implement FaultPlan.drop_schedule;"
            " run scheduled-drop plans on the indexed engine"
        )
    programs: Dict[Hashable, NodeProgram] = {}
    contexts: Dict[Hashable, Context] = {}
    for node in net.nodes:
        contexts[node] = Context(
            node=node,
            node_id=net.node_id(node),
            neighbors=net.neighbors(node),
            n=net.n,
            rng_seed=fresh_seed(runner._rng),
        )
        programs[node] = program_factory(node)

    metrics = SimulationMetrics(runs=1)
    # outbound[v] = validated traffic produced by v this round.
    outbound: Dict[Hashable, Dict[Hashable, Message]] = {}
    for node in net.nodes:
        ctx = contexts[node]
        raw = programs[node].on_start(ctx)
        outbound[node] = _validate(runner, node, ctx, raw)

    for round_no in range(1, max_rounds + 1):
        inboxes: Dict[Hashable, Dict[Hashable, Message]] = {
            node: {} for node in net.nodes
        }
        round_messages = 0
        round_bits = 0
        round_max_bits = 0
        for sender, traffic in outbound.items():
            if plan is not None and plan.is_crashed(sender, round_no):
                continue
            for receiver, message in traffic.items():
                if plan is not None and plan.drops(sender, receiver, round_no):
                    continue
                inboxes[receiver][sender] = (
                    message
                    if adversary is None
                    else adversary.apply(sender, receiver, round_no, message)
                )
                # Metrics charge the honest transmission, never the
                # corrupted replacement — same contract as the indexed
                # engine.
                round_messages += 1
                round_bits += message.bits
                if message.bits > round_max_bits:
                    round_max_bits = message.bits
        if round_messages or any(not contexts[v].halted for v in net.nodes):
            metrics.record_round(round_messages, round_bits, round_max_bits)

        any_traffic = round_messages > 0
        all_halted = True
        next_outbound: Dict[Hashable, Dict[Hashable, Message]] = {}
        for node in net.nodes:
            ctx = contexts[node]
            if ctx.halted:
                next_outbound[node] = {}
                continue
            if plan is not None and plan.is_crashed(node, round_no):
                # Crash-stop: no execution, no traffic; counts as
                # terminated so live nodes can still end the run.
                next_outbound[node] = {}
                continue
            ctx.round = round_no
            raw = programs[node].on_round(ctx, inboxes[node])
            if ctx.halted:
                next_outbound[node] = {}
            else:
                next_outbound[node] = _validate(runner, node, ctx, raw)
                all_halted = False
        outbound = next_outbound

        if all_halted:
            return SimulationResult(
                outputs={v: contexts[v].output for v in net.nodes},
                metrics=metrics,
                halted=True,
            )
        if not any_traffic and not any(
            traffic for traffic in outbound.values()
        ):
            return SimulationResult(
                outputs={v: contexts[v].output for v in net.nodes},
                metrics=metrics,
                halted=False,
            )
    raise SimulationError(
        f"simulation did not terminate within {max_rounds} rounds"
    )


def _validate(
    runner, node: Hashable, ctx: Context, raw: Any
) -> Dict[Hashable, Message]:
    """Turn a program's return value into per-receiver messages,
    enforcing the model's congestion rules (legacy dict form)."""
    if raw is None:
        return {}
    neighbors = ctx.neighbors
    if isinstance(raw, dict):
        if runner.model is Model.V_CONGEST:
            raise ModelViolationError(
                f"node {node!r} attempted per-neighbor messages in "
                "V-CONGEST; only a single local broadcast is allowed"
            )
        traffic = {}
        # Programs often address every neighbor with the same payload
        # object; build (and size-check) one Message per object, not
        # one per receiver. Keyed by id(): the payloads stay alive in
        # `raw` for the duration of the loop.
        built: Dict[int, Message] = {}
        for receiver, payload in raw.items():
            if receiver not in neighbors:
                raise ModelViolationError(
                    f"node {node!r} addressed non-neighbor {receiver!r}"
                )
            if payload is None:
                continue
            message = built.get(id(payload))
            if message is None or message.payload is not payload:
                message = Message.build(node, payload)
                _check_size(runner, node, message)
                built[id(payload)] = message
            traffic[receiver] = message
        return traffic
    # Bare payload: broadcast to all neighbors (legal in both models).
    message = Message.build(node, raw)
    _check_size(runner, node, message)
    return {receiver: message for receiver in neighbors}


def _check_size(runner, node: Hashable, message: Message) -> None:
    if message.bits > runner.bits_per_message:
        raise ModelViolationError(
            f"node {node!r} sent a {message.bits}-bit message; budget is "
            f"{runner.bits_per_message} bits (O(log n))"
        )

