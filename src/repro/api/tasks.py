"""One request table for every front door.

:data:`TASKS` maps each :class:`~repro.api.GraphSession` task to the
JSON-clean keywords of its method and one parser per field; the
Python-only ``params=`` dataclasses and broadcast ``sources`` stay off
it. A task's name is its ``repro`` subcommand, its daemon op and its
shell command, and a batch job names it in ``task``; every door hands
the task's fields to :func:`decode`. The CLI and the shell read fields
as ``name=value`` tokens through :func:`parse_fields`. ``fault_plan``
and ``adversary_plan`` take the shape the plans' ``describe()`` writes
into an envelope's ``params.faults`` and ``params.adversary``, so those
params, fed back, reproduce the run.
"""

from __future__ import annotations

import importlib
import json
import math
from typing import Any, Callable, Dict, Iterable, Mapping

from repro.api.session import PACKING_KINDS, TRANSPORTS
from repro.api.specs import coerce_node_id
from repro.errors import (
    BadRequestError,
    GraphValidationError,
    ReproError,
    ServiceError,
)

#: ``parser(field name, value)`` → the decoded value.
Parser = Callable[[str, Any], Any]


def _reject(name: str, value: Any, expected: str) -> BadRequestError:
    return BadRequestError(f"field {name!r} must be {expected}, got {value!r}")


def integer(name: str, value: Any) -> int:
    """Whatever ``int()`` accepts."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise _reject(name, value, "an integer") from None


def _nullable(parser: Parser) -> Parser:
    return lambda name, value: None if value is None else parser(name, value)


optional_integer = _nullable(integer)


def _at_least(low: int) -> Parser:
    """Integers ``≥ low``."""

    def parse(name: str, value: Any) -> int:
        number = integer(name, value)
        if number < low:
            raise _reject(name, value, f"an integer >= {low}")
        return number

    return parse


_count = _at_least(0)
_positive = _at_least(1)
_optional_count = _nullable(_count)
_optional_positive = _nullable(_positive)


def _choice(*options: str) -> Parser:
    """One of ``options``, unchanged."""

    def parse(name: str, value: Any) -> str:
        if isinstance(value, str) and value in options:
            return value
        raise _reject(name, value, "one of " + ", ".join(options))

    return parse


packing_kind = _choice(*PACKING_KINDS)


def _instance(expected: str, *types: type) -> Parser:
    """Values of ``types``, unchanged; a bool passes only if listed."""

    def parse(name: str, value: Any) -> Any:
        if isinstance(value, types) and (
            bool in types or not isinstance(value, bool)
        ):
            return value
        raise _reject(name, value, expected)

    return parse


_bool = _instance("a boolean", bool)
_number = _instance("a number", int, float)
_text = _instance("a string", str)
json_list = _instance("a list", list)
json_object = _instance("an object", dict)
_scalar = _instance("a JSON scalar", type(None), bool, int, float, str)
_int_node = _instance("a node label (an integer or a string)", int)


def _factor(name: str, value: Any) -> float:
    number = _number(name, value)
    if not 0 < number < math.inf:  # also false for NaN
        raise _reject(name, value, "a positive finite number")
    return number


def _program(name: str, value: Any) -> str:
    """A registered scenario program's name; the simulator is
    imported only when a request names one."""
    from repro.simulator.scenario import resolve_program

    try:
        resolve_program(_text(name, value))
    except GraphValidationError as exc:
        raise BadRequestError(f"field {name!r}: {exc}") from None
    return value


def _model(name: str, value: Any) -> str:
    from repro.simulator.transport import Model

    names = [model.value for model in Model]
    if value in names:
        return value
    raise _reject(name, value, "one of " + ", ".join(names))


def _node(name: str, value: Any) -> Any:
    """An int, or a string under :func:`coerce_node_id`'s digit rule."""
    if isinstance(value, str):
        return coerce_node_id(value)
    return _int_node(name, value)


def _pair(name: str, row: Any) -> tuple:
    if not isinstance(row, list) or len(row) != 2:
        raise _reject(name, row, "a [sender, receiver] pair")
    return _node(name, row[0]), _node(name, row[1])


def _crash_rounds(name: str, value: Any) -> Dict[Any, int]:
    return {_node(name, node): integer(name, rounds)
            for node, rounds in json_object(name, value).items()}


def _drop_schedule(name: str, value: Any) -> Dict[tuple, frozenset]:
    """``[sender, receiver, [round, …]]`` rows; rows naming one directed
    pair merge."""
    schedule: Dict[tuple, frozenset] = {}
    for row in json_list(name, value):
        if not isinstance(row, list) or len(row) != 3:
            raise _reject(name, row, "a [sender, receiver, [rounds…]] row")
        key = _pair(name, row[:2])
        rounds = frozenset(integer(name, r) for r in json_list(name, row[2]))
        schedule[key] = rounds | schedule.get(key, frozenset())
    return schedule


def _fields(table: Mapping[str, Parser], fields: Mapping, prefix: str = ""):
    unknown = [prefix + str(name) for name in fields if name not in table]
    if unknown:
        raise BadRequestError(
            f"unknown field(s) {unknown}; valid fields: "
            + ", ".join(prefix + name for name in table)
        )
    return {name: table[name](prefix + name, value)
            for name, value in fields.items()}


def _plan(module: str, cls: str, table: Mapping[str, Parser]) -> Parser:
    """A ``describe()``-shaped object → the plan, its ``seed`` bound as
    ``rng``. The simulator is imported only when a plan is given."""

    def parse(name: str, value: Any) -> Any:
        kwargs = _fields(table, json_object(name, value), prefix=f"{name}.")
        if "seed" in kwargs:
            kwargs["rng"] = kwargs.pop("seed")
        try:
            return getattr(importlib.import_module(module), cls)(**kwargs)
        except GraphValidationError as exc:
            raise BadRequestError(f"field {name!r}: {exc}") from None

    return _nullable(parse)


#: task → {JSON field → parser}. Only the fields a request gives are
#: decoded, so defaults stay in the method signatures. A value out of
#: its field's range is a bad request here, before any session opens.
TASKS: Dict[str, Dict[str, Parser]] = {
    "connectivity": {"seed": integer, "exact": _bool},
    "pack_cds": {"k": _optional_positive, "seed": integer},
    "pack_spanning": {"lam": _optional_positive, "seed": integer},
    "pack_integral": {
        "kind": packing_kind, "seed": integer, "k": _optional_positive,
        "lam": _optional_positive, "class_factor": _factor,
        "parts_factor": _factor,
    },
    "broadcast": {
        "messages": _count, "seed": integer,
        "transport": _choice(*TRANSPORTS),
        "pack_seed": optional_integer, "k": _optional_positive,
    },
    "gossip": {
        "n_messages": _optional_count, "max_per_node": _positive,
        "seed": integer, "pack_seed": optional_integer,
        "k": _optional_positive,
    },
    "simulate": {
        "program": _program,
        "model": _nullable(_model),
        "seed": integer,
        "fault_plan": _plan("repro.simulator.faults", "FaultPlan", {
            "drop_probability": _number,
            "crash_rounds": _crash_rounds,
            "drop_schedule": _drop_schedule,
            "seed": optional_integer,
        }),
        "adversary_plan": _plan("repro.simulator.adversary", "AdversaryPlan", {
            "corruption_probability": _number,
            "kinds": lambda name, value: tuple(
                _text(name, kind) for kind in json_list(name, value)
            ),
            "targets": _nullable(lambda name, value: frozenset(
                _pair(name, row) for row in json_list(name, value)
            )),
            "budget": optional_integer,
            "round_budget": optional_integer,
            "forge_payload": _scalar,
            "seed": optional_integer,
        }),
        "max_rounds": _positive,
        "trace": _bool,
        "show_outputs": _optional_count,
    },
}

#: The table's task names, in order.
SESSION_TASKS = tuple(TASKS)


def decode(task: str, fields: Mapping[str, Any]) -> Dict[str, Any]:
    """A request's fields → ``GraphSession.<task>``'s keyword arguments;
    a :class:`~repro.errors.BadRequestError` for an unknown task or
    field, or a value its parser rejects."""
    if task not in SESSION_TASKS:
        raise BadRequestError(
            f"unknown task {task!r}; valid tasks: " + ", ".join(SESSION_TASKS)
        )
    return _fields(TASKS[task], fields)


def parse_fields(tokens: Iterable[str]) -> Dict[str, Any]:
    """``name=value`` tokens → request fields, the one reading the CLI
    and the shell share: a value is JSON when it parses, else the text
    itself. :func:`decode` then checks each field."""
    fields: Dict[str, Any] = {}
    for token in tokens:
        name, sep, text = token.partition("=")
        if not sep:
            raise BadRequestError(
                f"expected a name=value field (e.g. seed=3), got {token!r}"
            )
        try:
            fields[name] = json.loads(text)
        except ValueError:
            fields[name] = text
    return fields


def error_type(exc: BaseException) -> str:
    """The error category a service envelope or a batch row reports."""
    for cls, name in (
        (BadRequestError, "bad-request"),
        (GraphValidationError, "graph"),
        (ServiceError, "service"),
        (ReproError, "library"),
    ):
        if isinstance(exc, cls):
            return name
    return "internal"
