"""The program registry of the simulation engine.

A :class:`ScenarioProgram` names one workload of the round loop: a
*builder* — a callable receiving the constructed
:class:`~repro.simulator.network.Network` and returning the per-node
program factory — or a composite *driver* that runs its own simulations
on the network. :data:`PROGRAM_REGISTRY` holds the named workloads and is
open: :func:`register_program` adds new ones, which immediately become
available to ``repro simulate``, the daemon, batch jobs and the
benchmarks.

A registered program runs in one place,
:meth:`repro.api.GraphSession.simulate`: it builds the network on the
session's canonicalization, runs the builder through
:class:`~repro.simulator.runner.SyncRunner` (or calls the driver) and
returns a :class:`ScenarioRun` as its envelope's ``raw``. A one-off
program that is not worth registering runs on a bare ``SyncRunner``.

:func:`flood_program` and :func:`gossip_program` are the one builder per
program family: the registry's floods and gossips and the sweeps of
:mod:`repro.apps.resilience` all build their nodes through them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.errors import GraphValidationError
from repro.simulator.faults import RetransmittingFloodProgram
from repro.simulator.network import Network
from repro.simulator.node import NodeProgram
from repro.simulator.runner import SimulationResult
from repro.simulator.tracing import RoundTrace
from repro.simulator.transport import Model

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
    communication model (a run may override it).
    """

    name: str
    description: str
    build: Optional[ProgramBuilder] = None
    model: Model = Model.V_CONGEST
    driver: Optional[ProgramDriver] = None

    def __post_init__(self) -> None:
        if (self.build is None) == (self.driver is None):
            raise GraphValidationError(
                f"program {self.name!r} needs exactly one of build or driver"
            )


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
    """One run of a registered program: result + instrumentation (the
    ``raw`` of a :meth:`~repro.api.GraphSession.simulate` envelope)."""

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


# ----------------------------------------------------------------------
# Program families
# ----------------------------------------------------------------------

#: The extremum-flood variants :func:`flood_program` builds. ``uncoded``
#: is the retransmitting flood (loss-tolerant, corruption-defenseless);
#: ``checksum``/``vote`` are the coded defenses of :mod:`repro.apps.coded`.
FLOOD_VARIANTS = ("uncoded", "checksum", "vote")


def flood_program(
    network: Network, variant: str, horizon: int, votes: int = 2
) -> ProgramFactory:
    """Per-node factory of one minimum flood of the node ids that
    rebroadcasts for ``horizon`` rounds; ``variant`` is one of
    :data:`FLOOD_VARIANTS` and ``votes`` the vote variant's threshold."""
    from repro.apps.coded import ChecksummedFloodProgram, VotedFloodProgram

    if variant == "uncoded":
        return lambda node: RetransmittingFloodProgram(
            network.node_id(node), horizon=horizon
        )
    if variant == "checksum":
        return lambda node: ChecksummedFloodProgram(
            network.node_id(node), horizon=horizon
        )
    if variant == "vote":
        return lambda node: VotedFloodProgram(
            network.node_id(node), horizon=horizon, votes=votes
        )
    raise GraphValidationError(
        f"unknown flood variant {variant!r}; valid: "
        + ", ".join(FLOOD_VARIANTS)
    )


def gossip_program(
    network: Network, variant: str, horizon: int, votes: int = 2
) -> ProgramFactory:
    """Per-node factory of all-to-all token gossip, each node's token
    being its id; ``variant`` is ``plain``, ``checksum`` or ``vote``."""
    from repro.apps.coded import TokenGossipProgram

    return lambda node: TokenGossipProgram(
        origin=network.node_id(node),
        value=network.node_id(node),
        horizon=horizon,
        variant=variant,
        votes=votes,
    )


# ----------------------------------------------------------------------
# Stock programs
# ----------------------------------------------------------------------


def _extremum_flood(minimize: bool) -> ProgramBuilder:
    def build(network: Network) -> ProgramFactory:
        from repro.simulator.algorithms.flooding import ExtremumFloodProgram

        return lambda node: ExtremumFloodProgram(
            network.node_id(node), minimize=minimize
        )

    return build


def _flood(variant: str, slack: int) -> ProgramBuilder:
    """The flood variant rebroadcasting for ``2D + slack`` rounds."""
    return lambda network: flood_program(
        network, variant, 2 * network.diameter() + slack
    )


def _gossip(variant: str) -> ProgramBuilder:
    """The gossip variant running for ``n(D + 1) + 4`` rounds."""
    return lambda network: gossip_program(
        network, variant, network.n * (network.diameter() + 1) + 4
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


def _lazy_driver(module: str, name: str) -> ProgramDriver:
    """A driver imported on its first run, which keeps its module (and
    that module's imports) off the registry's import path."""

    def driver(network: Network, **kwargs: Any) -> SimulationResult:
        return getattr(importlib.import_module(module), name)(
            network, **kwargs
        )

    return driver


for _program in (
    ScenarioProgram(
        "flood-min", "extremum flood of the minimum random node id",
        _extremum_flood(minimize=True),
    ),
    ScenarioProgram(
        "flood-max", "extremum flood of the maximum id (leader election)",
        _extremum_flood(minimize=False),
    ),
    ScenarioProgram(
        "retransmit-flood",
        "loss-tolerant flood, rebroadcasts for 2D+4 rounds",
        _flood("uncoded", 4),
    ),
    ScenarioProgram(
        "bfs", "BFS wave from the minimum-id node", _bfs_builder
    ),
    ScenarioProgram("mis", "Luby's maximal independent set", _mis_builder),
    ScenarioProgram(
        "clique-min", "global minimum in one Congested-Clique round",
        _clique_min_builder, model=Model.CONGESTED_CLIQUE,
    ),
    ScenarioProgram(
        "flood-checksum", "min flood with checksummed drop-on-bad payloads",
        _flood("checksum", 4),
    ),
    ScenarioProgram(
        "flood-vote", "min flood committing values after 2 sightings",
        _flood("vote", 6),
    ),
    ScenarioProgram(
        "gossip-tokens",
        "all-to-all token gossip, first claim wins (uncoded)",
        _gossip("plain"),
    ),
    ScenarioProgram(
        "gossip-checksum", "token gossip dropping checksum-invalid tokens",
        _gossip("checksum"),
    ),
    ScenarioProgram(
        "gossip-vote", "token gossip committing tokens after 2 sightings",
        _gossip("vote"),
    ),
    ScenarioProgram(
        "resilience-sweep",
        "corruption grid: coded vs uncoded flood coverage",
        driver=_lazy_driver("repro.apps.resilience", "corruption_grid"),
    ),
    ScenarioProgram(
        "cds_packing",
        "Appendix B distributed fractional CDS packing (Thm B.1)",
        driver=_lazy_driver(
            "repro.core.cds_packing_distributed", "run_cds_packing_scenario"
        ),
    ),
):
    register_program(_program)


def available_programs() -> List[ScenarioProgram]:
    """Registry contents, sorted by name (CLI listing)."""
    return [PROGRAM_REGISTRY[name] for name in sorted(PROGRAM_REGISTRY)]
