"""The ``"vectorized"`` engine — a columnar (struct-of-arrays) round loop.

The indexed loop (:func:`repro.simulator.runner._run_indexed`) spends
most of a saturated round on per-delivery Python work: one dict store,
one emptiness check, and one iteration step per (sender, receiver) pair.
This engine replaces that per-message object plane with a **columnar
message plane**: per round, outbound traffic is two parallel columns
(sender index, :class:`~repro.simulator.message.Message`), and delivery
is batched through numpy over the transport's edge arrays —

::

    out-CSR (transport fan-out)          in-CSR (transposed, cached)
    fan_ptr ──┐                          in_ptr ──┐
    fan_dst   │  per-sender slices       in_src   │  per-receiver slices,
              ▼                                   ▼  source ascending
    senders ──► sent-mask ──► mask = sent[in_src] ──► kept edges
                                                       │ bincount/cumsum
                                    per-receiver [lo, hi) windows of the
                                    gathered message/sender-index columns
                                                       ▼
                  _ArrayInbox views (Mapping over the shared ndarrays;
                  ``values()`` is one C-level ``.tolist()`` slice and
                  sender labels materialize lazily, only if a program
                  actually asks for them)

Payloads are interned: a :class:`PayloadInterner` maps each deeply
immutable payload to a dense **payload id** plus its bit size, keyed by
a *type-aware* structural key — ``(1,)`` and ``(True,)`` compare equal
but cost different bits, so keys carry element types exactly like the
``payload_bits`` memo. The round loop's warm path goes one step
further: a per-(sender, payload) cache maps straight to the validated
:class:`Message`, so steady-state broadcast rounds validate a send with
one dict probe and allocate no per-delivery objects at all. Cached
entries were validated against a specific message budget, so the cache
is keyed to ``transport.bits_per_message`` and cleared whenever a run
arrives with a different budget — a cache hit never skips enforcement
the indexed loop would apply. Unhashable payloads (anything containing a
list) are **never interned or cached**: each send builds a fresh
:class:`Message` around the live object, preserving the indexed loop's
shared-mutable-object semantics within a round and guaranteeing one
round's mutation never leaks into a later send.

**Bit-identity contract.** Under a fixed seed this engine produces the
same :class:`~repro.simulator.runner.SimulationResult` (outputs in the
same node order), the same metrics, and the same
:class:`~repro.simulator.tracing.Tracer` transcript as the indexed loop:

* context RNG seeds are drawn from the run RNG in canonical node order;
* inbox insertion order is ascending sender index — the in-CSR is sorted
  by (receiver, sender), so masked gathers reproduce the indexed loop's
  insertion order without any per-round sort;
* ``on_round`` runs for every live node every round (idle trace events
  included), and validation reuses the transport's own reject paths, so
  every :class:`~repro.errors.ModelViolationError` is byte-identical;
* rounds that carry a fault plan, an adversary, or addressed traffic
  are delivered by :func:`repro.simulator.runner.deliver` — the indexed
  loop's own general path, not a copy of it — so faulted, corrupted,
  and addressed runs are bit-identical by construction.

The columnar batch path handles the hot case: broadcast-only rounds on
honest channels. The congested clique gets a dedicated shape — the
fan-out of a broadcast is "everyone else", so one shared list-backed
sender column (:class:`_ColumnInbox`, with a per-receiver self-skip)
serves all ``n`` receivers instead of an O(n²) in-CSR.

The plane (edge arrays, interning table, send cache) is cached **on the
Network** (keyed by transport type, guarded by a degree fingerprint),
because :class:`~repro.simulator.runner.SyncRunner` builds a fresh
transport per run — consistent with the session layer's
cache-the-canonicalization story: warm runs over the same network skip
every rebuild and re-intern nothing.

numpy is a soft import: the module always imports (so
``available_engines()`` can list every engine), and running without
numpy raises a clean :class:`~repro.errors.SimulationError` naming the
fix.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

try:  # soft dependency: the engine is listed even where numpy is absent
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    np = None

from repro.errors import SimulationError
from repro.simulator.message import _SCALAR_TYPES, Message, payload_bits
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.node import NodeProgram
from repro.simulator.runner import (
    SimulationResult,
    deliver,
    finish,
    register_engine,
    start_nodes,
)
from repro.simulator.transport import BROADCAST, CliqueTransport

__all__ = [
    "PayloadInterner",
    "build_in_csr",
    "numpy_available",
    "MAX_INTERNED_PAYLOADS",
]

#: Bound on the interning table (and the send cache, cleared with it).
#: Mirrors the wholesale-clear policy of the ``payload_bits`` memo and
#: the fault-plan prefix cache: interning is a pure function of the
#: payload, so clearing affects speed only, never results.
MAX_INTERNED_PAYLOADS = 1 << 16


def numpy_available() -> bool:
    """Whether the columnar plane can run (numpy imported)."""
    return np is not None


def _intern_key(payload: Any) -> Any:
    """Structural, type-aware interning key.

    Distinguishes every pair of payloads that ``payload_bits`` could
    price differently: ``1`` / ``True`` / ``1.0`` get distinct keys, and
    containers carry their elements' keys recursively (``((1,),)`` vs
    ``((True,),)``). Building the key never raises; *hashing* it raises
    ``TypeError`` exactly when the payload is unhashable, which is the
    signal the send path uses to fall back to uninterned delivery.
    """
    kind = type(payload)
    if kind is tuple:
        return (0, tuple(map(_intern_key, payload)))
    if kind is frozenset:
        return (1, frozenset(map(_intern_key, payload)))
    return (kind, payload)


class PayloadInterner:
    """payload → dense payload id + bit size, with type-aware keys.

    ``intern`` returns ``(payload_id, bits)`` for any hashable payload,
    assigning ids densely in first-seen order; ``payload_of`` round-trips
    an id back to the canonical payload object. Raises ``TypeError`` for
    unhashable payloads — callers route those to the uninterned path.
    """

    __slots__ = ("_ids", "payloads", "bits")

    def __init__(self) -> None:
        self._ids: Dict[Any, int] = {}
        self.payloads: List[Any] = []
        self.bits: List[int] = []

    def __len__(self) -> int:
        return len(self.payloads)

    def intern(self, payload: Any) -> Tuple[int, int]:
        key = _intern_key(payload)
        pid = self._ids.get(key)  # TypeError here when unhashable
        if pid is None:
            bits = payload_bits(payload)
            if len(self.payloads) >= MAX_INTERNED_PAYLOADS:
                self.clear()
            pid = len(self.payloads)
            self._ids[key] = pid
            self.payloads.append(payload)
            self.bits.append(bits)
        return pid, self.bits[pid]

    def payload_of(self, pid: int) -> Any:
        return self.payloads[pid]

    def clear(self) -> None:
        self._ids.clear()
        self.payloads.clear()
        self.bits.clear()


class _ColumnInbox:
    """One receiver's Mapping view of the round's delivery columns.

    Backed by two shared per-round buffer lists (sender labels,
    messages) plus a ``[lo, hi)`` window; the clique shape adds a
    self-skip position. Engine-owned and recycled between rounds like
    the indexed loop's inbox dicts: programs must consume it during
    ``on_round``.
    """

    __slots__ = ("_labels", "_msgs", "_lo", "_hi", "_skip")

    def __init__(self, labels: List[Hashable], msgs: List[Message]) -> None:
        self._labels = labels
        self._msgs = msgs
        self._lo = 0
        self._hi = 0
        self._skip = -1

    # -- Mapping surface ----------------------------------------------

    def __len__(self) -> int:
        return self._hi - self._lo - (1 if self._skip >= 0 else 0)

    def __bool__(self) -> bool:
        return self.__len__() > 0

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> List[Hashable]:
        skip = self._skip
        if skip < 0:
            return self._labels[self._lo : self._hi]
        keys = self._labels[self._lo : skip]
        keys += self._labels[skip + 1 : self._hi]
        return keys

    def values(self) -> List[Message]:
        skip = self._skip
        if skip < 0:
            return self._msgs[self._lo : self._hi]
        values = self._msgs[self._lo : skip]
        values += self._msgs[skip + 1 : self._hi]
        return values

    def items(self) -> List[Tuple[Hashable, Message]]:
        return list(zip(self.keys(), self.values()))

    def __getitem__(self, label: Hashable) -> Message:
        labels = self._labels
        skip = self._skip
        for j in range(self._lo, self._hi):
            if j != skip and labels[j] == label:
                return self._msgs[j]
        raise KeyError(label)

    def get(self, label: Hashable, default: Any = None) -> Any:
        try:
            return self[label]
        except KeyError:
            return default

    def __contains__(self, label: Hashable) -> bool:
        return self.get(label, _MISSING) is not _MISSING

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (_ColumnInbox, _ArrayInbox)):
            return self.items() == other.items()
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ColumnInbox({dict(self.items())!r})"


_MISSING = object()


class _ArrayInbox:
    """ndarray-backed receiver view for the generic columnar path.

    All receivers share one per-round state cell ``[msgs_arr, kept]``
    (the gathered message column and the kept-edge sender indices); a
    view adds its ``[lo, hi)`` window. ``values()`` — the hot call — is
    a single C-level ``arr[lo:hi].tolist()``; sender labels are only
    materialized when a program actually asks for keys/items, so
    values-only protocols (flooding and friends) never pay for them.
    """

    __slots__ = ("_state", "_labels_np", "_lo", "_hi")

    def __init__(self, state: list, labels_np) -> None:
        self._state = state
        self._labels_np = labels_np
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    def __bool__(self) -> bool:
        return self._hi > self._lo

    def __iter__(self):
        return iter(self.keys())

    def keys(self) -> List[Hashable]:
        return self._labels_np[self._state[1][self._lo : self._hi]].tolist()

    def values(self) -> List[Message]:
        return self._state[0][self._lo : self._hi].tolist()

    def items(self) -> List[Tuple[Hashable, Message]]:
        return list(zip(self.keys(), self.values()))

    def __getitem__(self, label: Hashable) -> Message:
        keys = self.keys()
        for j, key in enumerate(keys):
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
        if isinstance(other, (_ArrayInbox, _ColumnInbox)):
            return self.items() == other.items()
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_ArrayInbox({dict(self.items())!r})"


try:  # duck typing suffices everywhere in-tree; register for user code
    from collections.abc import Mapping as _Mapping

    _Mapping.register(_ColumnInbox)
    _Mapping.register(_ArrayInbox)
except Exception:  # pragma: no cover
    pass


def build_in_csr(fanout: List[Tuple[int, ...]], n: int):
    """Transpose per-sender fan-out rows into per-receiver source slices.

    Returns ``(in_ptr, in_src, in_dst)``: ``in_src[in_ptr[r]:in_ptr[r + 1]]``
    lists the senders whose broadcast reaches receiver ``r``, in
    ascending sender order — exactly the indexed loop's inbox insertion
    order — and ``in_dst`` holds each edge's receiver index.
    """
    src = np.repeat(
        np.arange(n, dtype=np.int64),
        np.asarray([len(fanout[i]) for i in range(n)], dtype=np.int64),
    )
    if src.size:
        dst = np.concatenate(
            [np.asarray(fanout[i], dtype=np.int64) for i in range(n)
             if fanout[i]]
        )
    else:
        dst = np.empty(0, dtype=np.int64)
    # Stable sort by receiver: src is already ascending, so the sender
    # order inside each receiver group is preserved.
    order = np.argsort(dst, kind="stable")
    in_src = src[order]
    in_dst = dst[order]
    counts = np.bincount(dst, minlength=n) if dst.size else np.zeros(
        n, dtype=np.int64
    )
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=in_ptr[1:])
    return in_ptr, in_src, in_dst


class _VectorPlane:
    """Per-transport columnar state, cached across runs.

    Holds the node-label column, out-degrees, the lazily built in-CSR
    (transposed fan-out, sorted by (receiver, sender)), the payload
    interning table, and the warm-send cache mapping a
    (payload key, sender index) probe straight to its validated
    :class:`Message`. Cache entries embed a budget check, so the cache
    records the ``bits_per_message`` it validated against and is cleared
    when a run's transport carries a different budget.
    """

    __slots__ = (
        "n",
        "labels",
        "labels_np",
        "deg",
        "deg_np",
        "complete",
        "interner",
        "send_cache",
        "cache_budget",
        "in_ptr",
        "in_src",
        "in_dst",
        "msg_col",
    )

    def __init__(self, transport, nodes) -> None:
        n = len(nodes)
        self.n = n
        self.labels = list(nodes)
        self.labels_np = np.empty(n, dtype=object)
        for j, label in enumerate(self.labels):
            # Element-wise: tuple labels must stay scalars, not be
            # broadcast as nested sequences.
            self.labels_np[j] = label
        fanout = transport._fanout
        self.deg = [len(fanout[i]) for i in range(n)]
        self.deg_np = np.asarray(self.deg, dtype=np.int64)
        # Exact-type check: CliqueTransport's fan-out is "everyone
        # else" by construction, which the clique shape relies on; a
        # subclass could override it, so subclasses take the generic
        # in-CSR path.
        self.complete = type(transport) is CliqueTransport
        self.interner = PayloadInterner()
        self.send_cache: Dict[Any, Message] = {}
        self.cache_budget = transport.bits_per_message
        self.in_ptr = None
        self.in_src = None
        self.in_dst = None
        # Per-round scratch: message column indexed by sender (stale
        # entries are never gathered — the mask only selects edges whose
        # source sent this round).
        self.msg_col = np.empty(n, dtype=object)

    def build_in_csr(self, transport) -> None:
        """Transpose the fan-out into per-receiver source slices.

        ``in_src[in_ptr[r]:in_ptr[r+1]]`` lists the senders whose
        broadcast reaches ``r``, in ascending sender order — exactly the
        indexed loop's inbox insertion order.
        """
        self.in_ptr, self.in_src, self.in_dst = build_in_csr(
            transport._fanout, self.n
        )


def _plane_for(network, transport, nodes) -> "_VectorPlane":
    """The columnar plane for ``transport``, cached on the network.

    Every stock transport's fan-out is a pure function of (transport
    class, network), so planes are keyed by exact transport type and
    shared across transport *instances* — a fresh ``SyncRunner`` per run
    reuses the warm in-CSR, interning table, and send cache. A degree
    fingerprint guards against an exotic same-class transport whose
    fan-out nevertheless differs.
    """
    try:
        planes = network._repro_vector_planes
    except AttributeError:
        planes = network._repro_vector_planes = {}
    key = type(transport)
    plane = planes.get(key)
    if (
        plane is None
        or plane.n != len(nodes)
        or any(
            plane.deg[i] != len(transport._fanout[i])
            for i in range(plane.n)
        )
    ):
        plane = _VectorPlane(transport, nodes)
        planes[key] = plane
    elif plane.cache_budget != transport.bits_per_message:
        # The warm-send cache holds messages validated under the old
        # budget; a hit would skip enforcement. The interner survives —
        # payload → (id, bits) is budget-independent.
        plane.send_cache.clear()
        plane.cache_budget = transport.bits_per_message
    return plane


def _run_vectorized(
    runner,
    program_factory: Callable[[Hashable], NodeProgram],
    max_rounds: int,
    quiescence_halts: bool,
) -> SimulationResult:
    """The columnar round loop (see the module docstring)."""
    if np is None:
        raise SimulationError(
            "the vectorized engine requires numpy, which is not installed; "
            "install numpy or use engine='indexed'"
        )
    net = runner.network
    transport = runner.transport
    plan = runner.fault_plan
    adversary = runner.adversary_plan
    nodes = net.nodes
    n = len(nodes)
    validate = transport.validate
    budget = transport.bits_per_message
    fanout_table = [transport.fanout(i) for i in range(n)]

    plane = _plane_for(net, transport, nodes)
    labels = plane.labels
    labels_np = plane.labels_np
    deg_np = plane.deg_np
    complete = plane.complete
    interner = plane.interner
    send_cache = plane.send_cache
    send_get = send_cache.get
    msg_col = plane.msg_col

    contexts, programs = start_nodes(runner, program_factory)
    on_rounds = [program.on_round for program in programs]

    metrics = SimulationMetrics(runs=1)

    def collect_slow(
        i: int,
        raw: Any,
        bsend: List[int],
        bmsgs: List[Message],
        cache_key: Any = None,
    ) -> None:
        """Validate one non-dict send the long way and, where legal,
        prime the warm-send cache under ``cache_key``.

        Replicates ``Transport.validate``'s bare-payload branch exactly
        (size check first, then the isolated-sender check) while
        interning the payload; every rejection goes through the
        transport's own reject method, so the error bytes match the
        indexed loop's.
        """
        try:
            if len(interner.payloads) >= MAX_INTERNED_PAYLOADS:
                # Both are pure caches bounded by the same cap: clear
                # them wholesale together (speed only, never results).
                interner.clear()
                send_cache.clear()
            pid, bits = interner.intern(raw)
        except TypeError:
            # Unhashable (mutable) payload: validate and build fresh,
            # never cache — within-round receivers still share the one
            # object, exactly like the indexed loop.
            bits = payload_bits(raw)
            message = Message(nodes[i], raw, bits)
            if bits > budget:
                transport._reject_size(nodes[i], message)
            if not fanout_table[i]:
                return
            bsend.append(i)
            bmsgs.append(message)
            return
        if bits > budget:
            transport._reject_size(nodes[i], Message(nodes[i], raw, bits))
        if not fanout_table[i]:
            return  # isolated sender: nobody to reach
        message = Message(nodes[i], interner.payloads[pid], bits)
        if cache_key is not None:
            send_cache[cache_key] = message
        bsend.append(i)
        bmsgs.append(message)

    # Per-round outbound columns. Broadcasts: parallel (sender index,
    # Message) columns, ascending sender. Addressed traffic:
    # (sender index, [(receiver index, Message), ...]) rows, ascending
    # sender. Fresh lists every round: the delivery phase consumes the
    # previous round's columns while the execution loop fills the next.
    bsend: List[int] = []
    bmsgs: List[Message] = []
    addressed: List[Tuple[int, list]] = []

    for i in range(n):
        raw = programs[i].on_start(contexts[i])
        if raw is not None:
            if isinstance(raw, dict):
                out = validate(nodes[i], i, raw)
                if out:
                    addressed.append((i, out))
            else:
                collect_slow(i, raw, bsend, bmsgs)

    live: List[int] = [i for i in range(n) if not contexts[i].halted]
    unhalted = len(live)
    # Dict inboxes for the general (faulted/adversarial/addressed) path;
    # engine-owned and recycled, exactly like the indexed loop.
    inboxes: List[Dict[Hashable, Message]] = [{} for _ in range(n)]
    # Columnar-path views share per-round state, so a round only
    # rewrites each traffic receiver's [lo, hi) window. Generic
    # transports get ndarray-backed views over one shared
    # [message column, kept senders] cell; the clique gets list-backed
    # views with a per-receiver self-skip.
    if complete:
        buf_labels: List[Hashable] = []
        buf_msgs: List[Message] = []
        views: List[Any] = [
            _ColumnInbox(buf_labels, buf_msgs) for _ in range(n)
        ]
    else:
        buf_labels = []
        buf_msgs = []
        col_state: list = [None, None]
        views = [_ArrayInbox(col_state, labels_np) for _ in range(n)]
    empty_boxes: List[Dict[Hashable, Message]] = [{} for _ in range(n)]

    for round_no in range(1, max_rounds + 1):
        touched: List[int] = []
        columnar = (
            plan is None
            and adversary is None
            and not addressed
            and bool(bsend)
        )
        # Per-receiver window bounds into the round's buffers (columnar
        # rounds only): generic transports get [ptr[i], ptr[i+1]) slices
        # of the gathered kept-edge columns; the clique gets one shared
        # column plus per-receiver self-skip positions.
        ptr: Optional[List[int]] = None
        skip_pos: Optional[List[int]] = None

        if columnar:
            bits_arr = np.asarray([m.bits for m in bmsgs], dtype=np.int64)
            if complete:
                buf_labels[:] = [labels[s] for s in bsend]
                buf_msgs[:] = bmsgs
                pos = np.full(n, -1, dtype=np.int64)
                pos[bsend] = np.arange(len(bsend), dtype=np.int64)
                skip_pos = pos.tolist()
                round_messages = len(bsend) * (n - 1)
                round_bits = int(bits_arr.sum()) * (n - 1)
                round_max_bits = int(bits_arr.max())
            else:
                if plane.in_ptr is None:
                    plane.build_in_csr(transport)
                in_src = plane.in_src
                sent = np.zeros(n, dtype=bool)
                sent[bsend] = True
                msg_col[bsend] = bmsgs
                mask = sent[in_src]
                kept = in_src[mask]
                counts = np.bincount(plane.in_dst[mask], minlength=n)
                bounds = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(counts, out=bounds[1:])
                ptr = bounds.tolist()
                col_state[0] = msg_col[kept]
                col_state[1] = kept
                round_messages = int(kept.size)
                round_bits = int(bits_arr @ deg_np[bsend])
                round_max_bits = int(bits_arr.max())
        else:
            # General path (fault plan, adversary, or addressed traffic):
            # the indexed loop's own delivery, fed the broadcast and
            # addressed columns merged back into ascending sender order.
            outbound: Dict[int, Any] = {
                s: (BROADCAST, message) for s, message in zip(bsend, bmsgs)
            }
            outbound.update(addressed)
            round_messages, round_bits, round_max_bits = deliver(
                sorted(outbound), outbound, round_no, nodes, fanout_table,
                plan, adversary, inboxes, touched,
            )
        if round_messages or unhalted:
            metrics.record_round(round_messages, round_bits, round_max_bits)

        any_traffic = round_messages > 0
        out_bsend: List[int] = []
        out_bmsgs: List[Message] = []
        out_addressed: List[Tuple[int, list]] = []
        next_live: List[int] = []
        # Locals for the hot loop: every lookup below runs per node.
        bsend_append = out_bsend.append
        bmsgs_append = out_bmsgs.append
        live_append = next_live.append
        contexts_l = contexts
        on_rounds_l = on_rounds
        scalar_ok = _SCALAR_TYPES.issuperset

        if columnar:
            dict_boxes = None
        else:
            dict_boxes = inboxes
        clique_hi = len(buf_msgs) if skip_pos is not None else 0

        for i in live:
            if dict_boxes is not None:
                if plan is not None and plan.is_crashed(nodes[i], round_no):
                    # Crash-stop: out of the live set for good, still
                    # unhalted for round accounting (as in the indexed
                    # loop).
                    continue
                box: Any = dict_boxes[i]
            elif ptr is not None:
                lo = ptr[i]
                hi = ptr[i + 1]
                if lo != hi:
                    box = views[i]
                    box._lo = lo
                    box._hi = hi
                else:
                    box = empty_boxes[i]
            else:
                skip = skip_pos[i]
                if clique_hi - (1 if skip >= 0 else 0) > 0:
                    box = views[i]
                    box._hi = clique_hi
                    box._skip = skip
                else:
                    box = empty_boxes[i]
            ctx = contexts_l[i]
            ctx.round = round_no
            raw = on_rounds_l[i](ctx, box)
            if ctx._halted:
                unhalted -= 1
                continue
            if raw is not None:
                # Warm-send fast path: one dict probe per send. Falls
                # back to collect_slow on the first sighting of a
                # (sender, payload) pair, on unhashable payloads, and
                # on nested containers (whose keys must be recursive).
                # Addressed traffic matches Transport.validate's own
                # isinstance dispatch, so dict subclasses route the
                # same way as on the indexed loop.
                cls = raw.__class__
                if isinstance(raw, dict):
                    out = validate(nodes[i], i, raw)
                    if out:
                        out_addressed.append((i, out))
                elif cls is tuple:
                    types = tuple(map(type, raw))
                    if scalar_ok(types):
                        key = (raw, types, i)
                        ent = send_get(key)
                        if ent is None:
                            collect_slow(
                                i, raw, out_bsend, out_bmsgs,
                                cache_key=key,
                            )
                        else:
                            bsend_append(i)
                            bmsgs_append(ent)
                    else:
                        collect_slow(i, raw, out_bsend, out_bmsgs)
                else:
                    key = (cls, raw, i)
                    try:
                        ent = send_get(key)
                    except TypeError:
                        collect_slow(i, raw, out_bsend, out_bmsgs)
                    else:
                        if ent is None:
                            collect_slow(
                                i, raw, out_bsend, out_bmsgs,
                                cache_key=key,
                            )
                        else:
                            bsend_append(i)
                            bmsgs_append(ent)
            live_append(i)
        if dict_boxes is not None:
            for r in touched:
                inboxes[r].clear()
        live = next_live
        bsend = out_bsend
        bmsgs = out_bmsgs
        addressed = out_addressed

        if not live:
            return finish(nodes, contexts, metrics, True)
        if (
            quiescence_halts
            and not any_traffic
            and not bsend
            and not addressed
        ):
            return finish(nodes, contexts, metrics, False)
    raise SimulationError(
        f"simulation did not terminate within {max_rounds} rounds"
    )


register_engine("vectorized", _run_vectorized)
