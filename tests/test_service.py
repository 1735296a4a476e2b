"""Service core, session LRU, shell, daemon lifecycle, and CSV import.

The tentpole contract: the service surface (``ServiceCore.handle``) is
one request dict → one envelope dict, *never* an exception; sessions
stay warm in a fingerprint-keyed LRU, survive ``edge_new``/``edge_rmv``
(re-keyed under the new fingerprint), and a mutated service session
answers byte-identically to a cold one built from the final graph.
"""

from __future__ import annotations

import io
import json
import textwrap
import threading

import pytest

from repro.api import GraphSession, load_adjacency_csv, parse_graph_spec
from repro.api.envelope import Result
from repro.errors import GraphValidationError, ServiceError
from repro.service import (
    LocalBackend,
    RemoteBackend,
    ReproServer,
    ReproShell,
    ServiceCore,
    SessionCache,
    is_error,
    parse_connect,
)
from repro.service.shell import run_shell


# -- ServiceCore dispatch --------------------------------------------------


def test_core_open_estimate_and_reuse():
    core = ServiceCore()
    first = core.handle({"op": "open", "graph": "harary:4,12"})
    assert first["task"] == "graph_open"
    assert first["payload"]["created"] is True
    again = core.handle({"op": "open", "graph": "harary:4,12"})
    assert again["payload"]["created"] is False
    estimate = core.handle(
        {"op": "estimate", "graph": "harary:4,12", "seed": 3}
    )
    assert estimate["task"] == "connectivity"
    assert estimate["fingerprint"] == first["payload"]["fingerprint"]
    assert "request_s" in estimate["timings"]
    assert core.cache.stats == {"hits": 2, "misses": 1, "evictions": 0}


def test_core_matches_direct_session():
    """A service answer == the session method's envelope, bit for bit."""
    core = ServiceCore()
    served = Result.from_dict(
        core.handle({"op": "estimate", "graph": "hypercube:3", "seed": 5})
    )
    direct = GraphSession("hypercube:3").connectivity(seed=5)
    assert served.canonical_json() == direct.canonical_json()
    served_sim = Result.from_dict(
        core.handle(
            {"op": "simulate", "graph": "hypercube:3",
             "program": "flood-min", "seed": 2}
        )
    )
    direct_sim = GraphSession("hypercube:3").simulate(
        program="flood-min", seed=2
    )
    assert served_sim.canonical_json() == direct_sim.canonical_json()


def test_core_session_handle_and_unknown_handle():
    core = ServiceCore()
    fingerprint = core.handle({"op": "open", "graph": "harary:4,12"})[
        "payload"
    ]["fingerprint"]
    by_handle = core.handle({"op": "node_list", "session": fingerprint})
    assert by_handle["payload"]["n"] == 12
    missing = core.handle({"op": "node_list", "session": "feedbeef"})
    assert is_error(missing)
    assert missing["payload"]["error_type"] == "service"


def test_core_error_taxonomy():
    core = ServiceCore()
    no_op = core.handle({})
    assert no_op["payload"]["error_type"] == "service"
    bad_graph = core.handle({"op": "estimate", "graph": "mystery:1"})
    assert bad_graph["payload"]["error_type"] == "graph"
    bad_node = core.handle(
        {"op": "node_nbr", "graph": "harary:4,12", "node": 99}
    )
    assert bad_node["payload"]["error_type"] == "graph"
    bad_kind = core.handle(
        {"op": "pack", "graph": "harary:4,12", "kind": "bogus"}
    )
    assert bad_kind["payload"]["error_type"] == "service"
    stats = core.handle({"op": "stats"})["payload"]
    assert stats["errors"] == 4 and stats["requests"] == 5


def test_core_node_ops():
    core = ServiceCore()
    nbr = core.handle(
        {"op": "node_nbr", "graph": "harary:4,12", "node": "0"}
    )
    assert nbr["payload"]["node"] == 0  # digit string resolved to int
    assert nbr["payload"]["degree"] == len(nbr["payload"]["neighbors"]) == 4
    path = core.handle(
        {"op": "node_path", "graph": "harary:4,12",
         "source": 0, "target": 6}
    )
    assert path["payload"]["reachable"] is True
    assert path["payload"]["path"][0] == 0
    assert path["payload"]["path"][-1] == 6


def test_core_mutation_rekeys_cache_and_matches_cold_session():
    core = ServiceCore()
    opened = core.handle({"op": "open", "graph": "harary:4,12"})
    old_fp = opened["payload"]["fingerprint"]
    original = Result.from_dict(
        core.handle({"op": "estimate", "session": old_fp, "seed": 1})
    )
    mutated = core.handle({"op": "edge_new", "session": old_fp, "a": 0, "b": 6})
    new_fp = mutated["payload"]["fingerprint"]
    assert new_fp != old_fp
    assert core.cache.fingerprints() == [new_fp]  # re-keyed, old gone
    assert is_error(core.handle({"op": "node_list", "session": old_fp}))

    # warm (mutated) == cold (built from the final graph)
    warm = Result.from_dict(
        core.handle({"op": "estimate", "session": new_fp, "seed": 1})
    )
    import networkx as nx

    cold_graph = parse_graph_spec("harary:4,12")
    cold_graph.add_edge(0, 6)
    cold = GraphSession(cold_graph, label="harary:4,12").connectivity(seed=1)
    assert warm.fingerprint == cold.fingerprint
    assert warm.payload == cold.payload

    # removing the edge again returns to the original fingerprint, and
    # the restored graph answers exactly as it did before the edit
    back = core.handle({"op": "edge_rmv", "session": new_fp, "a": 0, "b": 6})
    assert back["payload"]["fingerprint"] == old_fp
    restored = Result.from_dict(
        core.handle({"op": "estimate", "session": old_fp, "seed": 1})
    )
    assert restored.canonical_json() == original.canonical_json()


_JOBS = [{"graph": "hypercube:3"}]


@pytest.mark.parametrize(
    "request_body",
    [
        {"op": "estimate", "graph": "harary:4,8", "seed": "x"},
        {"op": "pack", "graph": "harary:4,8", "seed": None},
        {"op": "simulate", "graph": "harary:4,8", "max_rounds": "lots"},
        {"op": "simulate", "graph": "harary:4,8", "show_outputs": "all"},
        {"op": "batch", "jobs": _JOBS, "workers": "two"},
        {"op": "batch", "jobs": _JOBS, "base_seed": "x"},
        {"op": "estimate", "graph": "harary:4,8", "bogus": 1},
        {"op": "simulate", "graph": "harary:4,8", "model": "quantum"},
        {"op": "simulate", "graph": "harary:4,8", "fault_plan": "x"},
        {"op": "simulate", "graph": "harary:4,8",
         "fault_plan": {"drop_probability": "x"}},
        {"op": "simulate", "graph": "harary:4,8",
         "adversary_plan": {"targets": [[0]]}},
    ],
    ids=[
        "estimate-seed", "pack-seed-null", "simulate-max_rounds",
        "simulate-show_outputs", "batch-workers", "batch-base_seed",
        "estimate-unknown-field", "simulate-model", "simulate-fault_plan",
        "simulate-fault_plan-drop_probability",
        "simulate-adversary_plan-targets",
    ],
)
def test_core_malformed_field_is_bad_request(request_body):
    core = ServiceCore()
    core.handle({"op": "open", "graph": "harary:4,12"})
    cache_before = (core.cache.fingerprints(), dict(core.cache.stats))
    reply = core.handle(request_body)
    assert reply["payload"]["error_type"] == "bad-request"
    assert core.handle({"op": "stats"})["payload"]["errors"] == 1
    assert (core.cache.fingerprints(), core.cache.stats) == cache_before


def test_core_integer_fields_accept_what_int_accepts():
    core = ServiceCore()
    as_text = core.handle({"op": "estimate", "graph": "harary:4,8", "seed": "1"})
    as_int = core.handle({"op": "estimate", "graph": "harary:4,8", "seed": 1})
    assert as_text["seed"] == 1
    assert as_text["payload"] == as_int["payload"]
    every = Result.from_dict(core.handle(
        {"op": "simulate", "graph": "harary:4,8", "show_outputs": None}
    ))
    assert len(every.payload["outputs"]) == 8


def test_core_mutation_errors_keep_session():
    core = ServiceCore()
    fp = core.handle({"op": "open", "graph": "harary:4,12"})["payload"][
        "fingerprint"
    ]
    dup = core.handle({"op": "edge_new", "session": fp, "a": 0, "b": 1})
    assert dup["payload"]["error_type"] == "graph"
    assert core.cache.fingerprints() == [fp]  # unchanged, still open


def test_core_stats_payload_shape():
    core = ServiceCore(cache_capacity=4)
    core.handle({"op": "estimate", "graph": "harary:4,12"})
    stats = core.handle({"op": "stats"})["payload"]
    assert stats["cache"]["capacity"] == 4
    assert stats["cache"]["sessions"] == 1
    assert stats["ops"]["estimate"] == 1
    (row,) = stats["sessions"]
    assert row["graph"] == "harary:4,12"
    assert set(row["stats"]) == {
        "canonicalizations", "cache_hits", "cache_misses",
        "evictions", "mutations", "invalidations",
    }
    # the whole stats payload is JSON-clean (goes on the wire verbatim)
    json.dumps(stats)


def test_core_unknown_ops_add_no_stats_keys():
    core = ServiceCore()
    for i in range(1000):
        reply = core.handle({"op": f"bogus-{i}"})
        assert reply["payload"]["error_type"] == "service"
    core.handle({"op": ["not", "a", "name"]})
    stats = core.handle({"op": "stats"})["payload"]
    assert stats["ops"] == {"stats": 1}
    assert stats["requests"] == 1002
    assert stats["errors"] == 1001


# -- SessionCache ----------------------------------------------------------


def test_session_cache_lru_eviction_and_memo_purge():
    cache = SessionCache(capacity=2)
    _, fp1, _ = cache.open("harary:4,12")
    _, fp2, _ = cache.open("hypercube:3")
    cache.open("harary:4,12")  # touch: fp1 becomes most-recent
    _, fp3, _ = cache.open("fat_cycle:2,4")  # evicts fp2 (LRU)
    assert cache.fingerprints() == [fp1, fp3]
    assert cache.stats["evictions"] == 1
    with pytest.raises(ServiceError):
        cache.get(fp2)
    # the evicted spec rebuilds (memo was purged with the session)
    _, fp2_again, created = cache.open("hypercube:3")
    assert created and fp2_again == fp2


def test_session_cache_same_graph_two_specs_is_one_session():
    cache = SessionCache()
    session_a, fp_a, _ = cache.open("harary:4,12")
    session_b, fp_b, created = cache.open("harary:04,12")
    assert fp_a == fp_b and session_a is session_b and not created
    assert cache.stats["hits"] == 1
    assert len(cache) == 1


def test_session_cache_capacity_validation():
    with pytest.raises(ServiceError):
        SessionCache(capacity=0)


def test_session_cache_spec_memo_stays_bounded():
    # 200 spellings of one graph: one session, and a memo that is
    # cleared wholesale instead of keeping every spelling a client sent.
    cache = SessionCache()
    for zeros in range(200):
        cache.open("hypercube:" + "0" * zeros + "3")
    assert len(cache) == 1
    assert len(cache._spec_memo) <= 4 * cache.capacity


# -- the shell -------------------------------------------------------------


def run_script(lines, json_mode=False, core=None):
    out = io.StringIO()
    shell = ReproShell(
        LocalBackend(core), out=out, json_mode=json_mode
    )
    errors = shell.run(lines)
    return out.getvalue(), errors, shell


def test_shell_full_tour():
    output, errors, shell = run_script([
        "graph open harary:4,12",
        "node list",
        "node nbr 0",
        "node n 0",
        "node p 0 6",
        "estimate k",
        "pack",
        "pack spanning",
        "simulate",
        "edge new 0 6",
        "edge rmv 0 6",
        "stats",
        "help",
        "quit",
    ])
    assert errors == 0
    assert "opened harary:4,12" in output
    assert "12 node(s)" in output
    assert "nbr(0)" in output and "n(0) = 4" in output
    assert "path 0 -> 6" in output
    assert "k ∈ [" in output
    assert "CDS packing" in output and "spanning packing" in output
    assert "flood-min" in output
    assert "edge (0, 6) added" in output
    assert "edge (0, 6) removed" in output
    assert "commands" in output  # help text


def test_shell_requires_open_graph_and_counts_errors():
    output, errors, _ = run_script(["node list", "estimate k"])
    assert errors == 2
    assert "no graph open" in output


def test_shell_unknown_command_and_bad_usage():
    output, errors, _ = run_script([
        "frobnicate", "edge new 1", "graph close x", "", "# a comment",
    ])
    assert errors == 3
    assert "unknown command" in output
    assert "usage: edge new" in output


def test_shell_json_mode_emits_envelopes():
    output, errors, _ = run_script(
        ["graph open harary:4,12", "estimate k"], json_mode=True
    )
    assert errors == 0
    first, second = output.strip().splitlines()
    assert json.loads(first)["task"] == "graph_open"
    envelope = Result.from_dict(json.loads(second))
    assert envelope.task == "connectivity"


def test_shell_seed_threads_into_requests():
    core = ServiceCore()
    output, errors, _ = run_script(
        ["graph open harary:4,12", "seed 7", "estimate k"], core=core
    )
    assert errors == 0
    direct = GraphSession("harary:4,12").connectivity(seed=7)
    assert f"[{direct.payload['lower_bound']:.2f}" in output


def test_shell_edge_mutation_follows_fingerprint():
    _, errors, shell = run_script([
        "graph open harary:4,12", "edge new 0 6", "node list",
    ])
    assert errors == 0
    assert shell.session is not None
    # the followed handle answers (i.e. it is the *new* fingerprint)
    response = shell.backend.request(
        {"op": "node_list", "session": shell.session}
    )
    assert not is_error(response)


def test_run_shell_exit_codes():
    assert run_shell(
        LocalBackend(), source=["ping"], out=io.StringIO()
    ) == 0
    assert run_shell(
        LocalBackend(), source=["bogus"], out=io.StringIO()
    ) == 1
    assert run_shell(
        LocalBackend(), source=["ping"], graph="mystery:1", out=io.StringIO()
    ) == 1  # bad --graph spec fails fast


def test_parse_connect():
    assert parse_connect("example.org:7714") == ("example.org", 7714)
    assert parse_connect("7714") == ("127.0.0.1", 7714)
    assert parse_connect(":7714") == ("127.0.0.1", 7714)
    with pytest.raises(ServiceError):
        parse_connect("nope")


# -- daemon lifecycle ------------------------------------------------------


def test_daemon_remote_shell_and_shutdown_op():
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}
    )
    thread.start()
    try:
        out = io.StringIO()
        backend = RemoteBackend("127.0.0.1", server.port)
        code = run_shell(
            backend,
            source=["estimate k", "edge new 0 6", "estimate k", "stats"],
            graph="harary:4,12",
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "edge (0, 6) added" in text
        assert "mutations=1" in text

        # a second client sends the shutdown op; the daemon answers it,
        # then stops accepting
        backend2 = RemoteBackend("127.0.0.1", server.port)
        response = backend2.request({"op": "shutdown"})
        assert response["task"] == "shutdown"
        backend2.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()

    with pytest.raises(ServiceError):
        RemoteBackend("127.0.0.1", server.port)  # nobody listening


def test_daemon_refuses_csv_specs_over_tcp(tmp_path):
    """A TCP client cannot make the daemon read a server-side file: a
    csv: spec in a request's graph field or in an inline batch job or
    matrix is a service error, and nothing is opened."""
    path = write_csv(tmp_path, TRIANGLE_PLUS)
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}
    )
    thread.start()
    try:
        backend = RemoteBackend("127.0.0.1", server.port)
        requests = [
            {"op": "open", "graph": f"csv:{path}", "id": 1},
            {"op": "node_list", "graph": "csv:/no/such/file.csv"},
            {"op": "batch", "jobs": [
                {"graph": "hypercube:3", "task": "connectivity"},
                {"graph": f"csv:{path}", "task": "connectivity"},
            ]},
            {"op": "batch", "jobs": {"graphs": [f"csv:{path}"]}},
        ]
        for request in requests:
            response = backend.request(request)
            assert is_error(response), response
            assert response["payload"]["error_type"] == "service"
            assert "0,1,2,3" not in json.dumps(response)
            assert "No such file" not in response["payload"]["error"]
        assert backend.request({"op": "stats"})["payload"]["cache"][
            "sessions"
        ] == 0
        ok = backend.request({"op": "open", "graph": "hypercube:3", "id": 2})
        assert ok["task"] == "graph_open" and ok["id"] == 2
        backend.close()
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def test_shell_bad_seed_is_a_usage_error():
    out = io.StringIO()
    code = run_shell(LocalBackend(), source=["seed --5", "ping"], out=out)
    output = out.getvalue()
    assert code == 1
    assert output.count("usage: seed <integer>") == 1
    assert "pong" in output


HOSTILE_SHELL_LINE = (
    "simulate flood-checksum "
    """fault_plan='{"drop_probability": 0.2, "crash_rounds": {"0": 2}}' """
    """adversary_plan='{"corruption_probability": 0.1, "seed": 7}'"""
)


def test_shell_task_fields_give_the_cli_hostile_run(capsys):
    """A hostile run typed at the shell as name=value fields is the run
    ``repro simulate`` builds from the same fields."""
    from repro.cli import main

    out = io.StringIO()
    code = run_shell(
        LocalBackend(), source=[HOSTILE_SHELL_LINE], graph="harary:4,10",
        json_mode=True, seed=3, out=out,
    )
    assert code == 0
    served = Result.from_dict(json.loads(out.getvalue().splitlines()[1]))
    assert main([
        "simulate", "harary:4,10", "program=flood-checksum", "seed=3",
        'fault_plan={"drop_probability": 0.2, "crash_rounds": {"0": 2}}',
        'adversary_plan={"corruption_probability": 0.1, "seed": 7}',
        "--json",
    ]) == 0
    direct = Result.from_json(capsys.readouterr().out)
    assert served.canonical_json() == direct.canonical_json()


def test_shell_bad_task_field_is_one_bad_request(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("simulate flood-min bogus=1\n")
    )
    code = main(["shell", "--graph", "harary:4,10", "--json"])
    lines = capsys.readouterr().out.splitlines()
    assert code != 0
    assert sum('"bad-request"' in line for line in lines) == 1


def test_shell_task_fields_route_nothing_and_seed_overrides():
    output, errors, _ = run_script(
        ["graph open harary:4,12", "pack cds kind=spanning",
         "simulate flood-min session=x", "estimate exact=true k"],
    )
    assert errors == 3
    assert output.count("usage: ") == 3
    output, errors, _ = run_script(
        ["graph open harary:4,12", "seed 1", "simulate flood-min seed=5"],
        json_mode=True,
    )
    assert errors == 0
    served = Result.from_dict(json.loads(output.splitlines()[-1]))
    direct = GraphSession("harary:4,12").simulate(
        program="flood-min", seed=5
    )
    assert served.canonical_json() == direct.canonical_json()


def test_remote_backend_connect_failure_message():
    with pytest.raises(ServiceError) as excinfo:
        RemoteBackend("127.0.0.1", 1)  # reserved port, nothing there
    assert "cannot connect" in str(excinfo.value)


# -- CSV adjacency import --------------------------------------------------


TRIANGLE_PLUS = """\
,0,1,2,3
0,,1,1,
1,1,,1,
2,1,1,,1
3,,,1,
"""


def write_csv(tmp_path, text, name="graph.csv"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def test_csv_roundtrip(tmp_path):
    path = write_csv(tmp_path, TRIANGLE_PLUS)
    graph = load_adjacency_csv(path)
    assert sorted(graph.nodes()) == [0, 1, 2, 3]
    assert sorted(tuple(sorted(e)) for e in graph.edges()) == [
        (0, 1), (0, 2), (1, 2), (2, 3),
    ]
    # the spec family front door agrees, and the spec survives the
    # shell's `graph open <file.csv>` translation
    via_spec = parse_graph_spec(f"csv:{path}")
    assert sorted(via_spec.edges()) == sorted(graph.edges())


def test_csv_upper_triangle_only(tmp_path):
    path = write_csv(tmp_path, """\
    ,a,b,c
    a,,1,
    b,,,x
    c,,,
    """)
    graph = load_adjacency_csv(path)
    assert sorted(graph.edges()) == [("a", "b"), ("b", "c")]


def test_csv_asymmetric_explicit_zero_rejected(tmp_path):
    path = write_csv(tmp_path, """\
    ,0,1
    0,,1
    1,0,
    """)
    with pytest.raises(GraphValidationError) as excinfo:
        load_adjacency_csv(path)
    assert "mirror" in str(excinfo.value)


def test_csv_validation_errors(tmp_path):
    with pytest.raises(GraphValidationError):
        load_adjacency_csv(str(tmp_path / "missing.csv"))
    with pytest.raises(GraphValidationError):
        load_adjacency_csv(write_csv(tmp_path, ",0,0\n0,,1\n", "dup.csv"))
    with pytest.raises(GraphValidationError):
        load_adjacency_csv(
            write_csv(tmp_path, ",0,1\n9,1,\n", "rogue.csv")
        )
    with pytest.raises(GraphValidationError):
        load_adjacency_csv(
            write_csv(tmp_path, ",0,1\n0,,1,1,1\n", "wide.csv")
        )


def test_csv_through_shell_and_session(tmp_path):
    path = write_csv(tmp_path, TRIANGLE_PLUS)
    out = io.StringIO()
    shell = ReproShell(LocalBackend(), out=out)
    errors = shell.run([f"graph open {path}", "node nbr 2", "estimate k"])
    assert errors == 0
    assert "nbr(2) = [0 1 3]  (degree 3)" in out.getvalue()
    # a GraphSession accepts the spec string directly too
    session = GraphSession(f"csv:{path}")
    assert session.n == 4 and session.m == 4


# -- CLI wiring ------------------------------------------------------------


def test_cli_shell_subcommand(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("estimate k\nstats\nquit\n")
    )
    code = main(["shell", "--graph", "harary:4,12"])
    captured = capsys.readouterr()
    assert code == 0
    assert "opened harary:4,12" in captured.out
    assert "k ∈ [" in captured.out


def test_cli_shell_scripted_error_exit(capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr("sys.stdin", io.StringIO("bogus\n"))
    code = main(["shell"])
    assert code == 1


# -- batch op --------------------------------------------------------------


def test_core_batch_op_matches_library_rows():
    from repro.api import batch

    core = ServiceCore()
    matrix = {"graphs": ["harary:4,12"], "tasks": ["connectivity"], "trials": 3}
    envelope = core.handle({"op": "batch", "jobs": matrix, "base_seed": 0})
    assert not is_error(envelope)
    payload = envelope["payload"]
    assert payload["jobs"] == 3
    assert payload["errors"] == 0
    assert payload["backend"] == "serial"
    assert payload["workers"] == 1
    assert envelope["params"] == {"backend": "serial", "workers": 1}
    direct = batch.run(matrix, base_seed=0)
    assert payload["rows"] == [r.to_dict(include_timings=False) for r in direct]


def test_core_batch_op_counts_error_rows():
    core = ServiceCore()
    envelope = core.handle(
        {"op": "batch", "jobs": [{"graph": "mystery:1"}, {"graph": "hypercube:3"}]}
    )
    payload = envelope["payload"]
    assert payload["jobs"] == 2
    assert payload["errors"] == 1
    assert payload["rows"][0]["payload"]["error_type"] == "graph"


def test_core_batch_op_refuses_server_side_paths():
    core = ServiceCore()
    envelope = core.handle({"op": "batch", "jobs": "/etc/jobs.json"})
    assert is_error(envelope)
    assert envelope["payload"]["error_type"] == "service"
    assert "file path" in envelope["payload"]["error"]
    missing = core.handle({"op": "batch"})
    assert is_error(missing)
    assert "'jobs'" in missing["payload"]["error"]


def test_core_batch_op_backend_field_is_bad_request():
    core = ServiceCore()
    envelope = core.handle(
        {"op": "batch", "jobs": [{"graph": "hypercube:3"}], "backend": "quantum"}
    )
    assert is_error(envelope)
    assert envelope["payload"]["error_type"] == "bad-request"
    assert "'backend'" in envelope["payload"]["error"]


def test_core_batch_op_workers_field_starts_no_pool(monkeypatch):
    from repro.api import backends

    def no_pool(*args, **kwargs):
        raise AssertionError("the batch op started a process pool")

    monkeypatch.setattr(backends, "ProcessPoolExecutor", no_pool)
    core = ServiceCore()
    envelope = core.handle(
        {"op": "batch", "jobs": _JOBS * 5, "backend": "process", "workers": 64}
    )
    assert envelope["payload"]["error_type"] == "bad-request"
    alone = core.handle({"op": "batch", "jobs": _JOBS, "workers": 64})
    assert alone["payload"]["error_type"] == "bad-request"
