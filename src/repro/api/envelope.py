"""Typed result envelopes — one JSON-round-trippable shape for every task.

Every :class:`repro.api.GraphSession` method returns a :class:`Result`:
the task name, the graph's identity (spec + structural fingerprint),
the seed and parameters that produced it, stage timings, and a
``payload`` of task-specific measurements. The envelope — not the
module-specific dataclass — is what sweeps, the batch executor, and the
CLI ``--json`` mode serialize, so every layer above the session speaks
one schema.

``payload``/``params`` values survive a JSON round trip exactly:
:func:`encode_value`/:func:`decode_value` tag the non-JSON types the
library produces (:class:`fractions.Fraction`, ``frozenset``, ``set``,
``tuple``, and dicts with non-string keys) so
``Result.from_json(r.to_json()) == r`` holds for every envelope.

The underlying rich object (a ``CdsPackingResult``, the
:class:`~repro.simulator.scenario.ScenarioRun` of a ``simulate``, …)
rides along in ``Result.raw`` for in-process callers; it is never
serialized and is excluded from equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Optional

from repro.errors import GraphValidationError

#: Schema version stamped into every envelope; bump on breaking changes.
ENVELOPE_VERSION = 1

_TAG_FRACTION = "__fraction__"
_TAG_FROZENSET = "__frozenset__"
_TAG_SET = "__set__"
_TAG_TUPLE = "__tuple__"
_TAG_DICT = "__dict__"      # dict with non-string keys, as [k, v] pairs
_TAGS = (_TAG_FRACTION, _TAG_FROZENSET, _TAG_SET, _TAG_TUPLE, _TAG_DICT)


def encode_value(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serializable primitives.

    Containers are tagged (``{"__tuple__": [...]}``) so the exact Python
    type — not just the JSON shape — comes back out of
    :func:`decode_value`. Sets are serialized in sorted-repr order so
    encoding is deterministic across runs and hash seeds.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return {_TAG_FRACTION: [value.numerator, value.denominator]}
    if isinstance(value, (frozenset, set)):
        tag = _TAG_FROZENSET if isinstance(value, frozenset) else _TAG_SET
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {tag: encoded}
    if isinstance(value, tuple):
        return {_TAG_TUPLE: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) and not (
            set(value) & set(_TAGS)
        ):
            return {key: encode_value(item) for key, item in value.items()}
        return {
            _TAG_DICT: [
                [encode_value(key), encode_value(item)]
                for key, item in value.items()
            ]
        }
    raise TypeError(
        f"cannot encode {type(value).__name__!r} into a result envelope; "
        "payloads must be built from JSON primitives, Fraction, "
        "set/frozenset, tuple, list, and dict"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            (tag, body), = value.items()
            if tag == _TAG_FRACTION:
                return Fraction(body[0], body[1])
            if tag == _TAG_FROZENSET:
                return frozenset(decode_value(item) for item in body)
            if tag == _TAG_SET:
                return {decode_value(item) for item in body}
            if tag == _TAG_TUPLE:
                return tuple(decode_value(item) for item in body)
            if tag == _TAG_DICT:
                return {
                    decode_value(key): decode_value(item)
                    for key, item in body
                }
        return {key: decode_value(item) for key, item in value.items()}
    return value


@dataclass
class Result:
    """The typed envelope every :class:`GraphSession` method returns.

    ``payload`` holds the task's measurements (JSON-clean via the codec
    above); ``raw`` holds the underlying rich object for in-process use
    and never serializes. ``timings`` are wall-clock stage seconds —
    excluded from :meth:`canonical_json` so deterministic pipelines
    (the batch executor) emit byte-identical rows.
    """

    task: str
    graph: str                    # spec string or synthesized descriptor
    fingerprint: str              # structural hash of the canonical graph
    n: int
    m: int
    seed: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    payload: Dict[str, Any] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    version: int = ENVELOPE_VERSION
    raw: Any = field(default=None, repr=False, compare=False)

    def to_dict(self, include_timings: bool = True) -> Dict[str, Any]:
        """Envelope as JSON-serializable primitives (no ``raw``)."""
        body: Dict[str, Any] = {
            "version": self.version,
            "task": self.task,
            "graph": self.graph,
            "fingerprint": self.fingerprint,
            "n": self.n,
            "m": self.m,
            "seed": self.seed,
            "params": encode_value(self.params),
            "payload": encode_value(self.payload),
        }
        if include_timings:
            body["timings"] = dict(self.timings)
        return body

    def to_json(self, include_timings: bool = True, indent: Optional[int] = None) -> str:
        return json.dumps(
            self.to_dict(include_timings=include_timings),
            sort_keys=True,
            indent=indent,
        )

    def canonical_json(self) -> str:
        """Deterministic single-line form (batch JSONL rows): sorted
        keys, compact separators, no timings."""
        return json.dumps(
            self.to_dict(include_timings=False),
            sort_keys=True,
            separators=(",", ":"),
        )

    def copy(self) -> "Result":
        """An independent envelope: payload/params/timings are deep
        copies (all deep-copyable by construction), ``raw`` is shared.

        The session cache hands out copies so a caller mutating an
        envelope in place cannot poison later same-key calls.
        """
        import copy as _copy

        return Result(
            task=self.task,
            graph=self.graph,
            fingerprint=self.fingerprint,
            n=self.n,
            m=self.m,
            seed=self.seed,
            params=_copy.deepcopy(self.params),
            payload=_copy.deepcopy(self.payload),
            timings=dict(self.timings),
            version=self.version,
            raw=self.raw,
        )

    @classmethod
    def from_dict(cls, body: Dict[str, Any]) -> "Result":
        try:
            return cls(
                task=body["task"],
                graph=body["graph"],
                fingerprint=body["fingerprint"],
                n=body["n"],
                m=body["m"],
                seed=body.get("seed"),
                params=decode_value(body.get("params", {})),
                payload=decode_value(body.get("payload", {})),
                timings=dict(body.get("timings", {})),
                version=body.get("version", ENVELOPE_VERSION),
            )
        except KeyError as exc:
            raise GraphValidationError(
                f"result envelope is missing required field {exc}"
            ) from exc

    @classmethod
    def from_json(cls, text: str) -> "Result":
        return cls.from_dict(json.loads(text))
