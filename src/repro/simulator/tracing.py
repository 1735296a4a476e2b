"""Round-by-round execution traces for the simulator.

The metrics object aggregates; debugging a distributed protocol needs
the *sequence*: who sent what, when, and when each node halted. The
:class:`Tracer` wraps a program factory, transparently recording every
node's outgoing traffic per round without perturbing the protocol (it
observes return values; it never copies payloads into the messages).

Typical use::

    tracer = Tracer()
    result = simulate(network, tracer.wrap(factory), model=model)
    print(tracer.trace.render(limit=20))

Traces are also the substrate of the regression tests that pin protocol
*schedules* (e.g. that a BFS wave reaches distance-d nodes exactly at
round d), which aggregate metrics cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.simulator.node import Context, NodeProgram


@dataclass(frozen=True)
class TraceEvent:
    """One node's activity in one round."""

    round_no: int
    node: Hashable
    sent: bool
    payload_summary: str
    halted: bool


@dataclass
class RoundTrace:
    """The recorded schedule of one simulation."""

    events: List[TraceEvent] = field(default_factory=list)

    def rounds(self) -> int:
        return max((e.round_no for e in self.events), default=0)

    def events_in_round(self, round_no: int) -> List[TraceEvent]:
        return [e for e in self.events if e.round_no == round_no]

    def first_send_round(self, node: Hashable) -> Optional[int]:
        """The first round ``node`` transmitted, or None if silent."""
        sends = [e.round_no for e in self.events if e.node == node and e.sent]
        return min(sends, default=None)

    def halt_round(self, node: Hashable) -> Optional[int]:
        halts = [
            e.round_no for e in self.events if e.node == node and e.halted
        ]
        return min(halts, default=None)

    def activity_profile(self) -> Dict[int, int]:
        """round → number of transmitting nodes (the load curve)."""
        profile: Dict[int, int] = {}
        for event in self.events:
            if event.sent:
                profile[event.round_no] = profile.get(event.round_no, 0) + 1
        return profile

    def render(self, limit: int = 50) -> str:
        """Human-readable trace listing (capped at ``limit`` events)."""
        lines = ["round  node        action"]
        for event in self.events[:limit]:
            action = "HALT" if event.halted else (
                f"send {event.payload_summary}" if event.sent else "idle"
            )
            lines.append(f"{event.round_no:>5}  {str(event.node):<10}  {action}")
        if len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)


def _summarize(payload: Any, max_chars: int = 40) -> str:
    text = repr(payload)
    if len(text) > max_chars:
        return text[: max_chars - 1] + "…"
    return text


class _TracedProgram(NodeProgram):
    """Decorator program: delegates and records."""

    def __init__(self, inner: NodeProgram, trace: RoundTrace) -> None:
        self._inner = inner
        self._trace = trace

    def on_start(self, ctx: Context):
        raw = self._inner.on_start(ctx)
        self._record(ctx, 0, raw)
        return raw

    def on_round(self, ctx: Context, inbox):
        raw = self._inner.on_round(ctx, inbox)
        self._record(ctx, ctx.round, raw)
        return raw

    def _record(self, ctx: Context, round_no: int, raw: Any) -> None:
        sent = raw is not None and raw != {}
        self._trace.events.append(
            TraceEvent(
                round_no=round_no,
                node=ctx.node,
                sent=sent,
                payload_summary=_summarize(raw) if sent else "",
                halted=ctx.halted,
            )
        )


class Tracer:
    """Wraps a program factory so every node's schedule is recorded."""

    def __init__(self) -> None:
        self.trace = RoundTrace()

    def wrap(
        self, factory: Callable[[Hashable], NodeProgram]
    ) -> Callable[[Hashable], NodeProgram]:
        def traced_factory(node: Hashable) -> NodeProgram:
            return _TracedProgram(factory(node), self.trace)

        return traced_factory

