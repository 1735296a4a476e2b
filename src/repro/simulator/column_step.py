"""The column step: one honest broadcast round delivered through numpy.

The dict plane (:func:`repro.simulator.runner.deliver`) spends a
saturated round on per-delivery Python work: one dict store, one
emptiness check and one iteration step per (sender, receiver) pair. The
column step pays Python per *send* and leaves the per-edge work to
numpy, over the network's directed edges sorted by receiver (the
in-CSR)::

    senders ──► sent mask ──► edges = sent[in_src] ──► kept senders
                                                         │ bincount/cumsum
                                     per-receiver [lo, hi) windows of the
                                     gathered message column
                                                         ▼
                  _ArrayInbox views (Mapping over the shared columns;
                  ``values()`` is one C-level ``.tolist()`` slice, and
                  sender labels materialize only if a program asks)

The round loop (:func:`repro.simulator.runner._run_rounds`) calls the
step only on rounds its rule admits: honest channels, and the network
adjacency itself as the transport's fan-out. The in-CSR therefore
depends on the (symmetric) adjacency alone; it is built on the first
columnar round and cached on the
:class:`~repro.simulator.network.Network`.

What programs observe matches the dict plane exactly: inbox insertion
order is ascending sender index (the sorted in-CSR), every receiver
gets the sender's own :class:`~repro.simulator.message.Message` (a
mutable payload stays one live, shared object), and metrics charge each
sender ``bits × degree``. A round that carries addressed traffic is
left to the dict plane.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from typing import Any, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.message import Message
from repro.simulator.network import Network
from repro.simulator.transport import BROADCAST

__all__ = ["ColumnStep", "build_in_csr"]

_MISSING = object()


class _ArrayInbox:
    """One receiver's Mapping view of the round's delivery columns.

    All receivers share one per-round state cell ``[messages, kept]``
    (the gathered message column and the kept-edge sender indices); a
    view adds its ``[lo, hi)`` window. ``values()`` — the hot call — is
    a single C-level ``arr[lo:hi].tolist()``; sender labels are only
    materialized when a program asks for keys or items, so values-only
    protocols (flooding and friends) never pay for them. Views are
    recycled between rounds like the dict plane's inboxes: programs must
    consume them during ``on_round``.
    """

    __slots__ = ("_state", "_labels", "_lo", "_hi")

    def __init__(self, state: list, labels) -> None:
        self._state = state
        self._labels = labels
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    def __bool__(self) -> bool:
        return self._hi > self._lo

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> List[Hashable]:
        return self._labels[self._state[1][self._lo : self._hi]].tolist()

    def values(self) -> List[Message]:
        return self._state[0][self._lo : self._hi].tolist()

    def items(self) -> List[Tuple[Hashable, Message]]:
        return list(zip(self.keys(), self.values()))

    def __getitem__(self, label: Hashable) -> Message:
        for j, key in enumerate(self.keys()):
            if key == label:
                return self._state[0][self._lo + j]
        raise KeyError(label)

    def get(self, label: Hashable, default: Any = None) -> Any:
        try:
            return self[label]
        except KeyError:
            return default

    def __contains__(self, label: Hashable) -> bool:
        return self.get(label, _MISSING) is not _MISSING

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, _ArrayInbox):
            return self.items() == other.items()
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ArrayInbox({dict(self.items())!r})"


# Duck typing suffices everywhere in-tree; registered for user code.
Mapping.register(_ArrayInbox)


def build_in_csr(adjacency: Sequence[Sequence[int]], n: int):
    """Receiver-major edge arrays of a symmetric adjacency.

    Returns ``(in_src, in_dst)``: every directed edge, sorted by receiver
    and, within a receiver, by ascending sender — the dict plane's inbox
    insertion order. Symmetry makes a receiver's senders its own
    neighbor row, so one sort of ``receiver·n + sender`` keys builds
    both arrays.
    """
    degrees = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
    in_dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
    keys = in_dst * n + np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=in_dst.size
    )
    keys.sort()
    return keys % n, in_dst


def _build_plane(network: Network):
    """The network's column plane: in-CSR, label column, degrees."""
    n = network.n
    in_src, in_dst = build_in_csr(network.neighbor_index_table(), n)
    labels = np.empty(n, dtype=object)
    for j, label in enumerate(network.nodes):
        # Element-wise: tuple labels must stay scalars, not be
        # broadcast as nested sequences.
        labels[j] = label
    return in_src, in_dst, labels, np.bincount(in_dst, minlength=n)


class ColumnStep:
    """One run's column delivery over its network's cached plane."""

    def __init__(self, network: Network) -> None:
        if network._column_plane is None:
            network._column_plane = _build_plane(network)
        self._in_src, self._in_dst, labels, self._degrees = (
            network._column_plane
        )
        n = network.n
        # Per-run scratch: the message column indexed by sender (stale
        # entries are never gathered — the mask keeps only this round's
        # senders), and the [messages, kept] cell every view reads.
        self._messages = np.empty(n, dtype=object)
        self._state: list = [None, None]
        self._views = [_ArrayInbox(self._state, labels) for _ in range(n)]

    def deliver(
        self,
        senders: List[int],
        outbound: List[Any],
        inboxes: List[dict],
    ) -> Optional[Tuple[List[Any], int, int, int]]:
        """Deliver one round of broadcasts, or ``None`` if any sender's
        traffic is addressed.

        Returns ``(boxes, messages, bits, max message bits)``;
        ``boxes[r]`` is receiver ``r``'s view when it heard anything,
        else its (empty) dict from ``inboxes``.
        """
        sent: List[Message] = []
        for s in senders:
            out = outbound[s]
            if out[0] is not BROADCAST:
                return None
            sent.append(out[1])
        n = len(inboxes)
        mask = np.zeros(n, dtype=bool)
        mask[senders] = True
        self._messages[senders] = sent
        edges = mask[self._in_src]
        kept = self._in_src[edges]
        counts = np.bincount(self._in_dst[edges], minlength=n)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        self._state[0] = self._messages[kept]
        self._state[1] = kept
        ptr = bounds.tolist()
        boxes = inboxes.copy()
        views = self._views
        for r in np.flatnonzero(counts).tolist():
            view = views[r]
            view._lo = ptr[r]
            view._hi = ptr[r + 1]
            boxes[r] = view
        bits = np.fromiter(
            (message.bits for message in sent), dtype=np.int64,
            count=len(sent),
        )
        return (
            boxes,
            int(kept.size),
            int(bits @ self._degrees[senders]),
            int(bits.max()),
        )
