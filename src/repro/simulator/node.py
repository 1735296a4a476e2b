"""Node program interface and per-node execution context.

A :class:`NodeProgram` is the local algorithm a node runs. The runner
calls :meth:`NodeProgram.on_start` once (round 0 output) and then
:meth:`NodeProgram.on_round` every round with the inbox of messages that
arrived. The return value is the node's outgoing traffic:

* under **V-CONGEST**: a single payload (broadcast to all neighbors) or
  ``None`` (silence);
* under **E-CONGEST**: a ``dict`` mapping neighbor → payload (or ``None``).

A node signals completion with :meth:`Context.halt`; its ``output``
becomes part of the :class:`~repro.simulator.runner.SimulationResult`.
Halted nodes stay silent but keep receiving (their inbox is discarded),
matching the usual "local termination" semantics.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.simulator.message import Message


class Context:
    """Per-node view of the network plus local control surface.

    The per-node generator comes as a seed (``rng_seed``):
    :class:`random.Random` is built when a program first touches
    ``ctx.rng``, which most deterministic protocols never do.
    """

    def __init__(
        self,
        node: Hashable,
        node_id: int,
        neighbors: Tuple[Hashable, ...],
        n: int,
        index: Optional[int] = None,
        rng_seed: Optional[int] = None,
    ) -> None:
        self.node = node
        self.node_id = node_id
        self.neighbors = neighbors
        self.n = n
        self._rng: Optional[random.Random] = None
        self._rng_seed = rng_seed
        # Dense integer index of the node in Network.index_map (the
        # engine's canonical order); None under the reference engine.
        self.index = index
        self.round = 0
        self.output: Any = None
        self._halted = False

    @property
    def rng(self) -> random.Random:
        """The node's private generator (built on first use)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._rng_seed)
        return rng

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def halted(self) -> bool:
        return self._halted

    def halt(self, output: Any = None) -> None:
        """Locally terminate; ``output`` (if given) becomes the node output."""
        self._halted = True
        if output is not None:
            self.output = output


class NodeProgram:
    """Base class for local algorithms. Subclasses override the hooks.

    Instances are per-node: the runner constructs one program object per
    node via a factory, so instance attributes are node-local state.
    """

    def on_start(self, ctx: Context):
        """Produce round-0 traffic. Default: silence."""
        return None

    def on_round(self, ctx: Context, inbox: Dict[Hashable, Message]):
        """Handle one round's inbox; return outgoing traffic.

        ``inbox`` maps sender node → :class:`Message` for every message
        that arrived this round (empty dict if none).
        """
        return None
