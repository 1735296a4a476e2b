"""Declarative scenario layer of the simulation engine.

A :class:`Scenario` bundles everything one simulation run needs —
*topology spec × program × model/transport × fault plan × sinks* — into
a single declarative object with a ``run()`` method. The CLI
(``repro simulate``), the apps (:mod:`repro.apps.resilience`), and the
benchmarks (``benchmarks/bench_simulator.py``) all build runs through
scenarios instead of hand-wiring :class:`~repro.simulator.runner.SyncRunner`,
so a workload is one value that can be named, swept, serialized into a
bench row, or replayed.

Topologies are given as CLI graph-spec strings (``"harary:6,24"``), as
prebuilt :class:`networkx.Graph` objects, or as zero-argument builders.
Programs are given as registry names (see :data:`PROGRAM_REGISTRY`) or
as *builders* — callables receiving the constructed
:class:`~repro.simulator.network.Network` and returning the per-node
program factory. The registry is open: :func:`register_program` adds
new named workloads, which immediately become available to
``repro simulate`` and the benchmark sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Union

import networkx as nx

from repro.errors import GraphValidationError
from repro.fastgraph import IndexedGraph
from repro.simulator.adversary import AdversaryPlan
from repro.simulator.faults import FaultPlan
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import (
    Model,
    SimulationResult,
    SyncRunner,
    Transport,
)
from repro.simulator.tracing import RoundTrace, Tracer
from repro.utils.rng import RngLike, ensure_rng

TopologySpec = Union[str, nx.Graph, Callable[[], nx.Graph]]
ProgramFactory = Callable[[Hashable], NodeProgram]
ProgramBuilder = Callable[[Network], ProgramFactory]
# A composite workload: drives its own (possibly many) simulations on the
# prebuilt network and returns one aggregate SimulationResult.
ProgramDriver = Callable[..., SimulationResult]


@dataclass(frozen=True)
class ScenarioProgram:
    """A named, registry-resident workload.

    Exactly one of ``build`` / ``driver`` is set. ``build(network)``
    returns the per-node program factory the runner executes directly;
    ``driver(network, model=…, rng=…, tracer=…, max_rounds=…)`` runs a
    *composite* protocol (e.g. the Appendix B CDS packing, which chains
    many floods and exchanges) and returns the aggregate
    :class:`SimulationResult`. ``model`` is the program's natural
    communication model (a scenario may override it).
    """

    name: str
    description: str
    build: Optional[ProgramBuilder] = None
    model: Model = Model.V_CONGEST
    driver: Optional[ProgramDriver] = None


PROGRAM_REGISTRY: Dict[str, ScenarioProgram] = {}


def register_program(program: ScenarioProgram) -> ScenarioProgram:
    """Add a workload to the registry (name collisions overwrite)."""
    PROGRAM_REGISTRY[program.name] = program
    return program


def resolve_program(name: str) -> ScenarioProgram:
    try:
        return PROGRAM_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PROGRAM_REGISTRY))
        raise GraphValidationError(
            f"unknown scenario program {name!r}; registered: {known}"
        )


@dataclass
class ScenarioRun:
    """Outcome of :meth:`Scenario.run`: result + instrumentation."""

    scenario: "Scenario"
    network: Network
    result: SimulationResult
    trace: Optional[RoundTrace]
    wall_seconds: float

    @property
    def rounds(self) -> int:
        return self.result.metrics.rounds

    @property
    def rounds_per_sec(self) -> float:
        return self.rounds / max(self.wall_seconds, 1e-9)

    def summary(self) -> Dict[str, Any]:
        """Flat dict of the run's headline numbers (bench/CLI rows)."""
        metrics = self.result.metrics
        return {
            "n": self.network.n,
            "m": self.network.m,
            "rounds": metrics.rounds,
            "messages": metrics.messages,
            "bits": metrics.bits,
            "max_message_bits": metrics.max_message_bits,
            "halted": self.result.halted,
            "wall_seconds": self.wall_seconds,
            "rounds_per_sec": self.rounds_per_sec,
        }


@dataclass
class Scenario:
    """One simulation run, declaratively.

    ``topology`` — graph-spec string, graph, or builder;
    ``program`` — registry name or :class:`ScenarioProgram`/builder;
    ``model`` — communication model (``None``: the program's default);
    ``fault_plan`` — optional :class:`FaultPlan` (its RNG is derived
    from ``seed`` when unset, so one seed pins the faulty run);
    ``adversary_plan`` — optional :class:`AdversaryPlan` corrupting
    delivered payloads (seed derivation as for ``fault_plan``);
    ``trace`` — record a :class:`RoundTrace` alongside the result;
    ``indexed`` — prebuilt :class:`~repro.fastgraph.IndexedGraph`
    canonicalization of the topology (e.g. a
    :class:`repro.api.GraphSession`'s), shared with the network instead
    of re-canonicalizing; the run RNG stream is unaffected.
    """

    topology: TopologySpec
    program: Union[str, ScenarioProgram, ProgramBuilder]
    model: Optional[Model] = None
    seed: RngLike = 0
    bits_per_message: Optional[int] = None
    fault_plan: Optional[FaultPlan] = None
    adversary_plan: Optional[AdversaryPlan] = None
    max_rounds: int = 100000
    trace: bool = False
    transport: Optional[Transport] = None
    name: str = ""
    indexed: Optional["IndexedGraph"] = None

    def with_overrides(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)

    # -- assembly ------------------------------------------------------

    def build_graph(self) -> nx.Graph:
        if isinstance(self.topology, nx.Graph):
            return self.topology
        if callable(self.topology):
            return self.topology()
        if isinstance(self.topology, str):
            from repro.api.specs import parse_graph_spec  # lazy: avoid cycle

            return parse_graph_spec(self.topology)
        raise GraphValidationError(
            f"cannot interpret topology spec {self.topology!r}"
        )

    def resolve(self) -> ScenarioProgram:
        """The scenario's program as a :class:`ScenarioProgram`."""
        if isinstance(self.program, ScenarioProgram):
            return self.program
        if isinstance(self.program, str):
            return resolve_program(self.program)
        if callable(self.program):
            return ScenarioProgram(
                name=self.name or "<inline>",
                description="inline program builder",
                build=self.program,
                model=self.model or Model.V_CONGEST,
            )
        raise GraphValidationError(
            f"cannot interpret program {self.program!r}"
        )

    # -- execution -----------------------------------------------------

    def run(self) -> ScenarioRun:
        """Build the network + runner and execute the scenario."""
        program = self.resolve()
        rand = ensure_rng(self.seed)
        network = Network(self.build_graph(), rng=rand, indexed=self.indexed)
        if program.driver is not None:
            return self._run_driver(program, network, rand)
        if program.build is None:
            raise GraphValidationError(
                f"program {program.name!r} has neither build nor driver"
            )
        # An unseeded fault plan gets its drop generator derived from
        # the run rng inside SyncRunner (one fresh_seed draw per run).
        plan = self.fault_plan
        factory = program.build(network)
        tracer = Tracer() if self.trace else None
        if tracer is not None:
            factory = tracer.wrap(factory)
        runner = SyncRunner(
            network,
            model=self.model or program.model,
            bits_per_message=self.bits_per_message,
            rng=rand,
            fault_plan=plan,
            adversary_plan=self.adversary_plan,
            transport=self.transport,
        )
        start = time.perf_counter()
        result = runner.run(factory, max_rounds=self.max_rounds)
        wall = time.perf_counter() - start
        return ScenarioRun(
            scenario=self,
            network=network,
            result=result,
            trace=tracer.trace if tracer is not None else None,
            wall_seconds=wall,
        )

    def _run_driver(
        self, program: ScenarioProgram, network: Network, rand
    ) -> ScenarioRun:
        """Execute a composite driver program on the prebuilt network."""
        if self.fault_plan is not None:
            raise GraphValidationError(
                f"program {program.name!r} is a composite driver and does "
                "not support fault plans"
            )
        if self.adversary_plan is not None:
            raise GraphValidationError(
                f"program {program.name!r} is a composite driver and does "
                "not support adversary plans (drivers that model corruption "
                "build their own plans internally)"
            )
        if self.transport is not None:
            raise GraphValidationError(
                f"program {program.name!r} selects its transport via the "
                "model; custom transports are not supported"
            )
        if self.bits_per_message is not None:
            raise GraphValidationError(
                f"program {program.name!r} sizes its own message budgets; "
                "bits_per_message is not supported"
            )
        tracer = Tracer() if self.trace else None
        start = time.perf_counter()
        result = program.driver(
            network,
            model=self.model or program.model,
            rng=rand,
            tracer=tracer,
            max_rounds=self.max_rounds,
        )
        wall = time.perf_counter() - start
        return ScenarioRun(
            scenario=self,
            network=network,
            result=result,
            trace=tracer.trace if tracer is not None else None,
            wall_seconds=wall,
        )


def run_scenario(scenario: Scenario) -> ScenarioRun:
    """Function form of :meth:`Scenario.run` (sweep/map ergonomics)."""
    return scenario.run()


# ----------------------------------------------------------------------
# Stock programs
# ----------------------------------------------------------------------


def _flood_builder(minimize: bool) -> ProgramBuilder:
    def build(network: Network) -> ProgramFactory:
        from repro.simulator.algorithms.flooding import ExtremumFloodProgram

        return lambda node: ExtremumFloodProgram(
            network.node_id(node), minimize=minimize
        )

    return build


def _retransmit_flood_builder(network: Network) -> ProgramFactory:
    from repro.simulator.faults import RetransmittingFloodProgram

    horizon = 2 * network.diameter() + 4
    return lambda node: RetransmittingFloodProgram(
        network.node_id(node), horizon=horizon
    )


def _bfs_builder(network: Network) -> ProgramFactory:
    from repro.simulator.algorithms.bfs import BfsProgram

    root = min(network.nodes, key=network.node_id)
    return lambda node: BfsProgram(is_root=(node == root))


def _mis_builder(network: Network) -> ProgramFactory:
    from repro.simulator.algorithms.luby_mis import LubyMisProgram

    return lambda node: LubyMisProgram()


def _clique_min_builder(network: Network) -> ProgramFactory:
    from repro.simulator.algorithms.clique import CliqueExtremumProgram

    return lambda node: CliqueExtremumProgram(
        network.node_id(node), minimize=True
    )


register_program(
    ScenarioProgram(
        name="flood-min",
        description="extremum flood of the minimum random node id",
        build=_flood_builder(minimize=True),
    )
)
register_program(
    ScenarioProgram(
        name="flood-max",
        description="extremum flood of the maximum id (leader election)",
        build=_flood_builder(minimize=False),
    )
)
register_program(
    ScenarioProgram(
        name="retransmit-flood",
        description="loss-tolerant flood, rebroadcasts for 2D+4 rounds",
        build=_retransmit_flood_builder,
    )
)
register_program(
    ScenarioProgram(
        name="bfs",
        description="BFS wave from the minimum-id node",
        build=_bfs_builder,
    )
)
register_program(
    ScenarioProgram(
        name="mis",
        description="Luby's maximal independent set",
        build=_mis_builder,
    )
)
register_program(
    ScenarioProgram(
        name="clique-min",
        description="global minimum in one Congested-Clique round",
        build=_clique_min_builder,
        model=Model.CONGESTED_CLIQUE,
    )
)


def _coded_flood_builder(variant: str) -> ProgramBuilder:
    def build(network: Network) -> ProgramFactory:
        from repro.apps.coded import (
            ChecksummedFloodProgram,
            VotedFloodProgram,
        )

        horizon = 2 * network.diameter() + 4
        if variant == "checksum":
            return lambda node: ChecksummedFloodProgram(
                network.node_id(node), horizon=horizon
            )
        return lambda node: VotedFloodProgram(
            network.node_id(node), horizon=horizon + 2, votes=2
        )

    return build


def _gossip_builder(variant: str) -> ProgramBuilder:
    def build(network: Network) -> ProgramFactory:
        from repro.apps.coded import TokenGossipProgram

        horizon = network.n * (network.diameter() + 1) + 4
        return lambda node: TokenGossipProgram(
            origin=network.node_id(node),
            value=network.node_id(node),
            horizon=horizon,
            variant=variant,
        )

    return build


register_program(
    ScenarioProgram(
        name="flood-checksum",
        description="min flood with checksummed drop-on-bad payloads",
        build=_coded_flood_builder("checksum"),
    )
)
register_program(
    ScenarioProgram(
        name="flood-vote",
        description="min flood committing values after 2 sightings",
        build=_coded_flood_builder("vote"),
    )
)
register_program(
    ScenarioProgram(
        name="gossip-tokens",
        description="all-to-all token gossip, first claim wins (uncoded)",
        build=_gossip_builder("plain"),
    )
)
register_program(
    ScenarioProgram(
        name="gossip-checksum",
        description="token gossip dropping checksum-invalid tokens",
        build=_gossip_builder("checksum"),
    )
)
register_program(
    ScenarioProgram(
        name="gossip-vote",
        description="token gossip committing tokens after 2 sightings",
        build=_gossip_builder("vote"),
    )
)


def _resilience_sweep_driver(
    network: Network,
    model: Model = Model.V_CONGEST,
    rng: RngLike = None,
    tracer=None,
    max_rounds: int = 100000,
) -> "SimulationResult":
    """Composite driver: a small corruption grid on the given network.

    Runs the uncoded/checksum/vote floods under a clean channel and a
    flip adversary, one inner :class:`SyncRunner` per point sharing one
    RNG stream (so the whole grid reproduces from one seed on every
    engine). Outputs are per-point summary dicts keyed by
    ``"{variant}@p={rate}"``; metrics are the merged cost of the grid.
    """
    from repro.apps.resilience import (
        FLOOD_VARIANTS,
        _flood_coverage,
        _variant_factory,
    )
    from repro.simulator.metrics import SimulationMetrics

    rand = ensure_rng(rng)
    horizon = 4 * network.diameter() + 8
    factories = {
        variant: _variant_factory(variant, horizon, 2)(network)
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


register_program(
    ScenarioProgram(
        name="resilience-sweep",
        description="corruption grid: coded vs uncoded flood coverage",
        driver=_resilience_sweep_driver,
    )
)


def _cds_packing_driver(
    network: Network,
    model: Model = Model.V_CONGEST,
    rng: RngLike = None,
    tracer=None,
    max_rounds: int = 100000,
) -> "SimulationResult":
    from repro.core.cds_packing_distributed import run_cds_packing_scenario

    return run_cds_packing_scenario(
        network, model=model, rng=rng, tracer=tracer, max_rounds=max_rounds
    )


register_program(
    ScenarioProgram(
        name="cds_packing",
        description="Appendix B distributed fractional CDS packing (Thm B.1)",
        driver=_cds_packing_driver,
    )
)


def available_programs() -> List[ScenarioProgram]:
    """Registry contents, sorted by name (CLI listing)."""
    return [PROGRAM_REGISTRY[name] for name in sorted(PROGRAM_REGISTRY)]
