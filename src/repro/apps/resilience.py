"""Fault-resilience sweeps for flooding and gossip protocols.

The paper's model is synchronous and reliable; robust-computation work
(e.g. Censor-Hillel et al., "Two for One and One for All") asks what
survives when it is not. This app measures that question for the
simplest primitive — extremum flooding — under two kinds of loss:

* **i.i.d. noise**: every delivery is dropped independently with
  probability ``p`` (the :class:`~repro.simulator.faults.FaultPlan`
  ``drop_probability``);
* **adversarial cuts**: a deterministic per-edge drop schedule destroys
  *every* delivery across a chosen node cut for a window of rounds —
  exactly reproducible, no randomness involved
  (:func:`cut_drop_schedule`).

Each sweep point runs the loss-tolerant
:class:`~repro.simulator.faults.RetransmittingFloodProgram` (built by
:func:`~repro.simulator.scenario.flood_program`) on a bare
:class:`~repro.simulator.runner.SyncRunner`; the report records
*coverage* — the fraction of nodes that learned the true global minimum
— next to the round/message cost, so the sweep shows where
retransmission stops compensating for loss.

:func:`flood_corruption_sweep` extends the question from erasures to
*corruptions* (:class:`~repro.simulator.adversary.AdversaryPlan`):
deliveries arrive altered, not missing, and the interesting failure is
no longer a node that learned nothing but a node that confidently holds
a **wrong answer** — for a minimum flood, a value *below* the true
minimum, which no honest execution can produce. The sweep therefore
reports ``wrong_rate`` next to ``coverage``, and runs each corruption
rate over the uncoded flood and the coded defenses of
:mod:`repro.apps.coded` (checksummed drop-on-bad, repetition voting) so
the coded-vs-uncoded gap is one table. :func:`corruption_grid` runs a
small such grid on one network as the registered ``resilience-sweep``
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx

from repro.errors import GraphValidationError
from repro.simulator.adversary import AdversaryPlan
from repro.simulator.faults import DirectedEdge, FaultPlan
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.network import Network
from repro.simulator.runner import Model, SimulationResult, SyncRunner
from repro.simulator.scenario import (
    FLOOD_VARIANTS,
    flood_program,
    gossip_program,
)
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ResilienceReport:
    """One sweep point: loss setting vs flood completion."""

    label: str
    drop_probability: float
    scheduled_edges: int
    coverage: float  # fraction of nodes holding the true minimum
    completed: bool  # coverage == 1.0
    rounds: int
    messages: int


def cut_drop_schedule(
    graph: nx.Graph,
    side: Iterable[Hashable],
    rounds: Iterable[int],
) -> Dict[DirectedEdge, FrozenSet[int]]:
    """A deterministic drop schedule severing the cut around ``side``.

    Every delivery crossing the cut — in *both* directions — is
    destroyed in each of the given rounds. Combined with
    ``RetransmittingFloodProgram`` this makes adversarial-partition
    tests exactly reproducible: the schedule, not a seed, decides which
    messages die.

    A ``side`` that yields no crossing edges (empty, the whole node
    set, or an isolated union of components) is rejected: the intended
    blockade would silently not exist.
    """
    side_set = set(side)
    unknown = side_set - set(graph.nodes())
    if unknown:
        raise GraphValidationError(f"cut side contains unknown nodes: {unknown!r}")
    round_set = frozenset(rounds)
    schedule: Dict[DirectedEdge, FrozenSet[int]] = {}
    for u, v in graph.edges():
        if (u in side_set) != (v in side_set):
            schedule[(u, v)] = round_set
            schedule[(v, u)] = round_set
    if not schedule:
        raise GraphValidationError(
            "cut side produces no crossing edges — the blockade would be "
            f"a silent no-op (side covers {len(side_set)} of "
            f"{graph.number_of_nodes()} nodes)"
        )
    return schedule


def _run_point(
    graph: nx.Graph,
    seed: RngLike,
    program,
    *args,
    fault_plan: Optional[FaultPlan] = None,
    adversary_plan: Optional[AdversaryPlan] = None,
) -> Tuple[Network, SimulationResult]:
    """One sweep point: ``program(network, *args)`` on a bare runner.

    The run RNG draws in the order every front door shares: the node
    ids (``Network``), any unseeded plan seed (``SyncRunner``), then the
    node seeds (``run``).
    """
    rand = ensure_rng(seed)
    network = Network(graph, rng=rand)
    factory = program(network, *args)
    runner = SyncRunner(
        network, rng=rand, fault_plan=fault_plan,
        adversary_plan=adversary_plan,
    )
    return network, runner.run(factory)


def _report(
    label: str, plan: FaultPlan, network: Network, result: SimulationResult
) -> ResilienceReport:
    coverage, _ = _flood_coverage(network, result)
    return ResilienceReport(
        label=label,
        drop_probability=plan.drop_probability,
        scheduled_edges=len(plan.drop_schedule),
        coverage=coverage,
        completed=coverage == 1.0,
        rounds=result.metrics.rounds,
        messages=result.metrics.messages,
    )


def flood_loss_sweep(
    graph: nx.Graph,
    drop_probabilities: Sequence[float],
    horizon: int = 0,
    seed: RngLike = 0,
) -> List[ResilienceReport]:
    """Retransmitting flood under increasing i.i.d. loss.

    ``horizon = 0`` auto-sizes to ``4·D + 8`` rounds — comfortably above
    the ``D/(1−p)`` repair bound for moderate ``p``, so failures in the
    report are *informative* (loss beat retransmission), not an
    undersized horizon.
    """
    if horizon <= 0:
        horizon = 4 * nx.diameter(graph) + 8
    reports = []
    for p in drop_probabilities:
        plan = FaultPlan(drop_probability=p)
        network, result = _run_point(
            graph, seed, flood_program, "uncoded", horizon, fault_plan=plan
        )
        reports.append(_report(f"iid p={p:g}", plan, network, result))
    return reports


def flood_partition_test(
    graph: nx.Graph,
    side: Iterable[Hashable],
    blocked_rounds: Iterable[int],
    horizon: int = 0,
    seed: RngLike = 0,
) -> ResilienceReport:
    """Retransmitting flood against a deterministic cut blockade.

    The cut around ``side`` drops every crossing delivery during
    ``blocked_rounds``. With a horizon extending past the blockade the
    flood must recover (coverage 1.0); with the blockade covering the
    whole run, the minimum stays confined to its side — both outcomes
    are exact, replayable facts rather than w.h.p. events.
    """
    blocked = frozenset(blocked_rounds)
    if horizon <= 0:
        horizon = 2 * nx.diameter(graph) + 4 + (max(blocked, default=0))
    schedule = cut_drop_schedule(graph, side, blocked)
    plan = FaultPlan(drop_schedule=schedule)
    network, result = _run_point(
        graph, seed, flood_program, "uncoded", horizon, fault_plan=plan
    )
    return _report(
        f"cut blockade rounds {min(blocked, default=0)}..{max(blocked, default=0)}",
        plan,
        network,
        result,
    )


# ----------------------------------------------------------------------
# Corruption sweeps (adversarial channels)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionReport:
    """One corruption-sweep point: adversary setting vs flood outcome.

    ``coverage`` is the fraction of nodes holding the *true* minimum.
    ``wrong_rate`` is the fraction holding a value strictly **below**
    it — a state no honest execution can reach, so any nonzero value is
    direct evidence the adversary poisoned the answer (as opposed to
    merely delaying it, which shows up in coverage alone).
    """

    label: str
    variant: str
    corruption_rate: float
    coverage: float
    wrong_rate: float
    completed: bool  # coverage == 1.0 and wrong_rate == 0.0
    rounds: int
    messages: int
    bits: int


def _flood_coverage(network: Network, result) -> Tuple[float, float]:
    """``(coverage, wrong_rate)`` of an extremum flood's outputs: the
    fractions of nodes holding the true minimum id, and a value below it."""
    true_min = min(network.node_id(v) for v in network.nodes)
    holders = 0
    poisoned = 0
    for v in network.nodes:
        output = result.output_of(v)
        if output == true_min:
            holders += 1
        elif isinstance(output, int) and output < true_min:
            poisoned += 1
    return holders / network.n, poisoned / network.n


def _corruption_report(
    label: str,
    variant: str,
    rate: float,
    network: Network,
    result: SimulationResult,
) -> CorruptionReport:
    coverage, wrong_rate = _flood_coverage(network, result)
    metrics = result.metrics
    return CorruptionReport(
        label=label,
        variant=variant,
        corruption_rate=rate,
        coverage=coverage,
        wrong_rate=wrong_rate,
        completed=coverage == 1.0 and wrong_rate == 0.0,
        rounds=metrics.rounds,
        messages=metrics.messages,
        bits=metrics.bits,
    )


def flood_corruption_sweep(
    graph: nx.Graph,
    corruption_rates: Sequence[float],
    variants: Sequence[str] = FLOOD_VARIANTS,
    horizon: int = 0,
    seed: RngLike = 0,
    kinds: Tuple[str, ...] = ("flip",),
    votes: int = 2,
) -> List[CorruptionReport]:
    """Extremum flood under increasing channel corruption, coded vs not.

    Every ``(rate, variant)`` point runs the same topology and seed, so
    node ids — and hence the true minimum — are identical across the
    whole sweep and the corruption coins of different rates are nested
    (a delivery corrupted at rate ``p`` is corrupted at every ``p' > p``
    too). The uncoded flood is expected to *poison* (nonzero
    ``wrong_rate``) at rates the coded variants shrug off: a single
    flipped payload below the true minimum propagates like an honest
    improvement, while the checksum detects it and the vote never sees
    it twice.
    """
    if horizon <= 0:
        horizon = 4 * nx.diameter(graph) + 8
    unknown = [v for v in variants if v not in FLOOD_VARIANTS]
    if unknown:
        raise GraphValidationError(
            f"unknown flood variant(s) {unknown!r}; valid: "
            + ", ".join(FLOOD_VARIANTS)
        )
    reports = []
    for rate in corruption_rates:
        for variant in variants:
            plan = AdversaryPlan(corruption_probability=rate, kinds=kinds)
            network, result = _run_point(
                graph, seed, flood_program, variant, horizon, votes,
                adversary_plan=plan,
            )
            reports.append(
                _corruption_report(
                    f"{variant} p={rate:g}", variant, rate, network, result
                )
            )
    return reports


def gossip_corruption_sweep(
    graph: nx.Graph,
    corruption_rates: Sequence[float],
    variants: Sequence[str] = ("plain", "checksum", "vote"),
    horizon: int = 0,
    seed: RngLike = 0,
    kinds: Tuple[str, ...] = ("flip",),
    votes: int = 2,
) -> List[CorruptionReport]:
    """Token gossip under channel corruption, coded vs not.

    ``coverage`` counts exactly-correct committed ``(origin, value)``
    pairs over all ``n²`` (node, origin) slots; ``wrong_rate`` counts
    slots committed to a value that differs from the origin's true
    token. The plain variant commits the first claim it hears, so a
    corrupted token poisons every node downstream of the first bad
    delivery.
    """
    if horizon <= 0:
        horizon = graph.number_of_nodes() * (nx.diameter(graph) + 1) + 4
    reports = []
    for rate in corruption_rates:
        for variant in variants:
            plan = AdversaryPlan(corruption_probability=rate, kinds=kinds)
            network, result = _run_point(
                graph, seed, gossip_program, variant, horizon, votes,
                adversary_plan=plan,
            )
            truth = {
                network.node_id(v): network.node_id(v)
                for v in network.nodes
            }
            slots = network.n * network.n
            correct = 0
            wrong = 0
            for v in network.nodes:
                committed = dict(result.output_of(v))
                for origin, value in committed.items():
                    if truth.get(origin) == value:
                        correct += 1
                    else:
                        wrong += 1
            metrics = result.metrics
            reports.append(
                CorruptionReport(
                    label=f"gossip-{variant} p={rate:g}",
                    variant=variant,
                    corruption_rate=rate,
                    coverage=correct / slots,
                    wrong_rate=wrong / slots,
                    completed=correct == slots,
                    rounds=metrics.rounds,
                    messages=metrics.messages,
                    bits=metrics.bits,
                )
            )
    return reports


def corruption_grid(
    network: Network,
    model: Model = Model.V_CONGEST,
    rng: RngLike = None,
    tracer=None,
    max_rounds: int = 100000,
) -> SimulationResult:
    """The ``resilience-sweep`` driver: a small corruption grid on the
    given network.

    Runs the uncoded/checksum/vote floods under a clean channel and a
    flip adversary, one inner :class:`SyncRunner` per point sharing one
    RNG stream (so the whole grid reproduces from one seed on every
    engine). Outputs are per-point summary dicts keyed by
    ``"{variant}@p={rate}"``; metrics are the merged cost of the grid.
    """
    rand = ensure_rng(rng)
    horizon = 4 * network.diameter() + 8
    factories = {
        variant: flood_program(network, variant, horizon)
        for variant in FLOOD_VARIANTS
    }
    outputs: Dict[Hashable, Any] = {}
    merged = SimulationMetrics()
    halted = True
    for rate in (0.0, 0.05):
        for variant, factory in factories.items():
            plan = AdversaryPlan(corruption_probability=rate)
            runner = SyncRunner(
                network, model=model, rng=rand, adversary_plan=plan
            )
            wrapped = tracer.wrap(factory) if tracer is not None else factory
            result = runner.run(wrapped, max_rounds=max_rounds)
            coverage, wrong_rate = _flood_coverage(network, result)
            outputs[f"{variant}@p={rate:g}"] = {
                "coverage": coverage,
                "wrong_rate": wrong_rate,
                "rounds": result.metrics.rounds,
                "messages": result.metrics.messages,
                "bits": result.metrics.bits,
            }
            merged.merge(result.metrics)
            halted = halted and result.halted
    return SimulationResult(outputs=outputs, metrics=merged, halted=halted)
