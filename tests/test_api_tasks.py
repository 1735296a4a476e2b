"""The request table: one grammar behind every front door.

Pins the promises of :mod:`repro.api.tasks`:

* **one grammar** — each of the seven tasks, given the same fields as
  ``repro <task> GRAPH name=value …``, a ``ServiceCore`` op, a shell
  command and a batch row, gives one canonical envelope;
* **one answer per bad field** — a malformed field is ``bad-request``
  on the daemon and as a batch row (every backend), and no JSON value
  makes :func:`decode` raise anything else (a hypothesis property);
* **one hostile run per request** — ``repro simulate --json`` with
  fault/adversary plan fields, a ``ServiceCore`` ``simulate`` request
  and a batch row carrying the same plan JSON give the same canonical
  bytes, and feeding an envelope's ``params.faults`` /
  ``params.adversary`` back reproduces it;
* **one plan check** — the runner binds each plan to the links of the
  run's model, and a plan naming what the run lacks answers ``graph``.
"""

from __future__ import annotations

import io
import json
import shlex

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Result, tasks
from repro.api.batch import JobSpec, run
from repro.cli import main
from repro.errors import BadRequestError
from repro.service.core import ServiceCore
from repro.service.shell import LocalBackend, run_shell

GRAPH = "harary:4,10"
SCHEDULE = [[0, 1, [1, 2]], [1, 0, [2]]]
TARGETS = [[0, 1], [1, 2], [2, 0]]

#: name → (the ``repro simulate`` fields as typed, the request fields
#: they spell).
HOSTILE = {
    "drop-crash": (
        ["program=retransmit-flood", "seed=5",
         'fault_plan={"drop_probability": 0.2, "crash_rounds": {"0": 2}}'],
        {"program": "retransmit-flood", "seed": 5,
         "fault_plan": {"drop_probability": 0.2, "crash_rounds": {"0": 2}}},
    ),
    "drop-schedule": (
        ["program=retransmit-flood", "seed=3",
         'fault_plan={"drop_schedule": [[0, 1, [1, 2]], [1, 0, [2]]]}'],
        {"program": "retransmit-flood", "seed": 3,
         "fault_plan": {"drop_schedule": SCHEDULE}},
    ),
    "flip-seeded": (
        ["program=flood-checksum", "seed=3", "adversary_plan="
         '{"corruption_probability": 0.1, "kinds": ["flip"], "seed": 7}'],
        {"program": "flood-checksum", "seed": 3,
         "adversary_plan": {"corruption_probability": 0.1,
                            "kinds": ["flip"], "seed": 7}},
    ),
    "forge-replay-targets": (
        ["program=flood-checksum", "seed=3", "adversary_plan="
         '{"corruption_probability": 0.3, "kinds": ["forge", "replay"], '
         '"targets": [[0, 1], [1, 2], [2, 0]]}'],
        {"program": "flood-checksum", "seed": 3,
         "adversary_plan": {"corruption_probability": 0.3,
                            "kinds": ["forge", "replay"],
                            "targets": TARGETS}},
    ),
}

#: Fields every surface must answer with ``bad-request``.
BAD_FIELDS = [
    ("connectivity", {"bogus": 1}),
    # No stretch field: the interval's upper end is read off the run.
    ("connectivity", {"approximation_constant": 6.0}),
    ("connectivity", {"exact": "false"}),
    ("simulate", {"model": "quantum"}),
    ("simulate", {"fault_plan": "x"}),
    ("simulate", {"fault_plan": {"drop_probability": "x"}}),
    ("simulate", {"adversary_plan": {"targets": [[0]]}}),
    ("simulate", {"trace": "no"}),
    # Values out of range, or outside a field's fixed set.
    ("simulate", {"show_outputs": -1}),
    ("simulate", {"max_rounds": 0}),
    ("simulate", {"max_rounds": -5}),
    ("simulate", {"program": "x"}),
    ("broadcast", {"messages": -3}),
    ("broadcast", {"transport": "x"}),
    ("gossip", {"n_messages": -2}),
    ("gossip", {"max_per_node": -1}),
    ("pack_cds", {"k": 0}),
    ("pack_spanning", {"lam": 0}),
    ("pack_integral", {"class_factor": -1.0}),
    ("pack_integral", {"parts_factor": 0}),
    ("pack_integral", {"kind": "spanning", "lam": -1}),
    ("pack_integral", {"kind": "bogus"}),
]


def _cli_envelope(argv, capsys) -> Result:
    assert main(["simulate", GRAPH, *argv, "--json"]) == 0
    return Result.from_json(capsys.readouterr().out)


def _served(core: ServiceCore, fields) -> Result:
    body = core.handle({"op": "simulate", "graph": GRAPH, **fields})
    assert body["task"] == "simulate", body
    return Result.from_dict(body)


def _batch_row(fields) -> Result:
    params = {key: value for key, value in fields.items() if key != "seed"}
    (row,) = run([JobSpec(graph=GRAPH, task="simulate", seed=fields["seed"],
                          params=params)])
    assert not row.payload.get("status"), row.payload
    return row


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_simulate_is_one_run_on_every_surface(name, capsys):
    argv, fields = HOSTILE[name]
    cli = _cli_envelope(argv, capsys)
    assert cli.params["faults"] or cli.params["adversary"]
    core = ServiceCore()
    assert _served(core, fields).canonical_json() == cli.canonical_json()
    assert _batch_row(fields).canonical_json() == cli.canonical_json()
    # The envelope's own params, fed back, reproduce the run.
    replay = {
        "program": cli.params["program"],
        "seed": cli.seed,
        "fault_plan": cli.params["faults"],
        "adversary_plan": cli.params["adversary"],
    }
    assert _served(core, replay).canonical_json() == cli.canonical_json()


@pytest.mark.parametrize("backend, workers", [(None, None), ("process", 2)])
def test_bad_fields_are_bad_request_rows(backend, workers):
    good = [
        JobSpec(graph=GRAPH, task="connectivity", seed=1),
        JobSpec(graph=GRAPH, task="simulate", seed=2),
    ]
    bad = [
        JobSpec(graph=GRAPH, task=task, seed=3, params=params)
        for task, params in BAD_FIELDS + [("connectivity", {"seed": 4})]
    ]
    rows = run([good[0], *bad, good[1]], backend=backend, workers=workers)
    for row in rows[1:-1]:
        assert row.payload["status"] == "error"
        assert row.payload["error_type"] == "bad-request"
        assert row.payload["error_name"] == "BadRequestError"
    reference = [row.canonical_json() for row in run(good)]
    assert [rows[0].canonical_json(), rows[-1].canonical_json()] == reference


@pytest.mark.parametrize("task, fields",
                         BAD_FIELDS + [("pack", {"kind": "x"})])
def test_bad_fields_are_bad_request_before_a_session_opens(task, fields):
    core = ServiceCore()
    reply = core.handle({"op": task, "graph": GRAPH, **fields})
    assert reply["payload"]["error_type"] == "bad-request"
    assert core.cache.fingerprints() == []


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_factors_are_finite(value):
    with pytest.raises(BadRequestError, match="positive finite"):
        tasks.decode("pack_integral", {"class_factor": value})


def test_schedule_check_follows_the_run_model(capsys):
    # (0, 5) is not a harary:4,10 edge; the clique delivers it anyway.
    clique = ["simulate", GRAPH, "program=clique-min", "seed=3",
              'fault_plan={"drop_schedule": [[0, 5, [1]]]}']
    assert main(clique) == 0
    assert "congested-clique" in capsys.readouterr().out
    assert main(clique[:2] + ["program=flood-min"] + clique[3:]) == 2
    assert "non-edges" in capsys.readouterr().err
    fields = {"program": "flood-min", "seed": 3,
              "fault_plan": {"drop_schedule": [[0, 5, [1]]]}}
    reply = ServiceCore().handle({"op": "simulate", "graph": GRAPH, **fields})
    assert reply["payload"]["error_type"] == "graph"
    (row,) = run([JobSpec(graph=GRAPH, task="simulate", seed=3,
                          params={"program": "flood-min",
                                  "fault_plan": fields["fault_plan"]})])
    assert row.payload["error_type"] == "graph"


#: Plans naming what the run does not have: a node, or a non-edge off
#: the clique. Each is a GraphValidationError from the plan's bind.
PLAN_MISTAKES = {
    "crash-unknown-node": {
        "program": "flood-min", "fault_plan": {"crash_rounds": {"99": 1}}},
    "target-non-edge": {
        "program": "flood-min",
        "adversary_plan": {"corruption_probability": 0.5,
                           "targets": [[0, 5]]}},
    "target-unknown-node": {
        "program": "flood-min",
        "adversary_plan": {"corruption_probability": 0.5,
                           "targets": [[0, 99]]}},
    "clique-schedule-unknown-node": {
        "program": "clique-min",
        "fault_plan": {"drop_schedule": [[0, 99, [1]]]}},
}


@pytest.mark.parametrize("name", sorted(PLAN_MISTAKES))
def test_plan_mistakes_answer_graph(name):
    reply = ServiceCore().handle(
        {"op": "simulate", "graph": GRAPH, "seed": 3, **PLAN_MISTAKES[name]}
    )
    assert reply["payload"]["error_type"] == "graph"


def test_decode_passes_only_given_fields():
    assert tasks.decode("pack_cds", {}) == {}
    assert tasks.decode("simulate", {"seed": "3", "show_outputs": None}) == {
        "seed": 3, "show_outputs": None,
    }
    with pytest.raises(BadRequestError, match="unknown task"):
        tasks.decode("teleport", {})


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
#: Values shaped like plan entries, so the property reaches the plans'
#: own validation (negative rounds, rates above 1, unknown kinds).
LABEL = st.integers(-2, 12) | st.text("0123456789- a", max_size=3)
NEAR_PLAN = st.one_of(
    st.floats(-0.5, 1.5),
    st.dictionaries(st.text("0123456789-", max_size=3), st.integers(-2, 5)),
    st.lists(st.tuples(LABEL, LABEL, st.lists(st.integers(-2, 5))).map(list)),
    st.lists(st.lists(LABEL, min_size=2, max_size=2)),
    st.lists(st.sampled_from(["flip", "forge", "replay", "bogus"])),
)
FIELDS = sorted(
    (task, name) for task in tasks.TASKS for name in tasks.TASKS[task]
)
PLAN_KEYS = {
    "fault_plan": ["drop_probability", "crash_rounds", "drop_schedule", "seed"],
    "adversary_plan": ["corruption_probability", "kinds", "targets",
                       "budget", "round_budget", "forge_payload", "seed"],
}


def _decodes_or_bad_request(task, fields) -> None:
    try:
        tasks.decode(task, fields)
    except BadRequestError:
        pass


@settings(max_examples=300, deadline=None)
@given(JSON)
@example(float("inf"))
@example(float("nan"))
@example("--3")
@example([[0, 1, [float("inf")]]])
def test_any_json_value_decodes_or_is_a_bad_request(value):
    for task, name in FIELDS:
        _decodes_or_bad_request(task, {name: value})


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(PLAN_KEYS)).flatmap(
        lambda plan: st.tuples(
            st.just(plan),
            st.dictionaries(st.sampled_from(PLAN_KEYS[plan]),
                            JSON | NEAR_PLAN),
        )
    )
)
@example(("fault_plan", {"crash_rounds": {"--1": 2}}))
@example(("adversary_plan", {"targets": [["²", 0]], "budget": -1}))
def test_any_plan_body_decodes_or_is_a_bad_request(plan_body):
    plan, body = plan_body
    _decodes_or_bad_request("simulate", {plan: body})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(tasks.SESSION_TASKS),
       st.dictionaries(st.text(max_size=8), JSON, max_size=3))
def test_any_field_names_decode_or_are_a_bad_request(task, fields):
    _decodes_or_bad_request(task, fields)


#: task → the fields the one-grammar property sends (beside ``seed=3``).
ONE_GRAMMAR = {
    "connectivity": {"exact": True},
    "pack_cds": {"k": 4},
    "pack_spanning": {"lam": 4},
    "pack_integral": {"kind": "spanning"},
    "broadcast": {"messages": 4, "transport": "edge"},
    "gossip": {"n_messages": 4},
    "simulate": {
        "program": "retransmit-flood",
        "fault_plan": {"drop_probability": 0.2, "crash_rounds": {"0": 2}},
    },
}


def _tokens(fields) -> list:
    """Fields as ``name=value`` tokens (strings bare, the rest JSON)."""
    return [
        f"{name}={value if isinstance(value, str) else json.dumps(value)}"
        for name, value in fields.items()
    ]


@pytest.mark.parametrize("task", tasks.SESSION_TASKS)
def test_every_task_is_one_envelope_at_every_door(task, capsys):
    """The CLI (``--json`` before or after the fields), a daemon op, a
    shell command and a batch row give one canonical envelope."""
    fields = ONE_GRAMMAR[task]
    (row,) = run([JobSpec(graph=GRAPH, task=task, seed=3, params=fields)])
    assert not row.payload.get("status"), row.payload
    expected = row.canonical_json()
    tokens = _tokens({"seed": 3, **fields})
    for argv in ([task, GRAPH, *tokens, "--json"],
                 [task, GRAPH, "--json", *tokens]):
        assert main(argv) == 0
        cli = Result.from_json(capsys.readouterr().out)
        assert cli.canonical_json() == expected
    served = ServiceCore().handle({"op": task, "graph": GRAPH, "seed": 3,
                                   **fields})
    assert Result.from_dict(served).canonical_json() == expected
    out = io.StringIO()
    line = " ".join([task, *map(shlex.quote, _tokens(fields))])
    assert run_shell(LocalBackend(), source=[line], graph=GRAPH,
                     json_mode=True, seed=3, out=out) == 0
    shelled = Result.from_dict(json.loads(out.getvalue().splitlines()[1]))
    assert shelled.canonical_json() == expected


@pytest.mark.parametrize("op, kind", [("estimate", "spanning"),
                                      ("simulate", "x")])
def test_kind_routes_only_pack(op, kind):
    """``kind`` is ``pack``'s routing field and ``pack_integral``'s task
    field (the property above sends it), and no other op's."""
    reply = ServiceCore().handle({"op": op, "graph": GRAPH, "kind": kind})
    assert reply["payload"]["error_type"] == "bad-request"
