"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

from pathlib import Path

import networkx as nx
import pytest

import repro
from repro.cli import build_parser, main, parse_graph_spec
from repro.errors import GraphValidationError


class TestGraphSpecParsing:
    @pytest.mark.parametrize(
        "spec,nodes",
        [
            ("harary:4,16", 16),
            ("clique_chain:3,4", 12),
            ("hypercube:3", 8),
            ("torus:3,4", 12),
            ("complete:7", 7),
            ("regular:4,10", 10),
            ("regular:4,10,3", 10),
            ("gnp:12,0.5", 12),
        ],
    )
    def test_valid_specs(self, spec, nodes):
        graph = parse_graph_spec(spec)
        assert graph.number_of_nodes() == nodes
        assert nx.is_connected(graph)

    def test_fat_cycle_spec(self):
        graph = parse_graph_spec("fat_cycle:3,5")
        assert graph.number_of_nodes() == 15

    def test_unknown_family_lists_valid_families(self):
        with pytest.raises(GraphValidationError) as excinfo:
            parse_graph_spec("mystery:1,2")
        message = str(excinfo.value)
        assert "unknown graph family 'mystery'" in message
        for family in ("harary", "hypercube", "gnp", "torus"):
            assert family in message

    def test_wrong_arity_names_signature(self):
        with pytest.raises(GraphValidationError) as excinfo:
            parse_graph_spec("harary:4")
        message = str(excinfo.value)
        assert "harary:k,n" in message
        assert "expects 2" in message

    def test_non_integer_argument_names_token(self):
        with pytest.raises(GraphValidationError) as excinfo:
            parse_graph_spec("harary:4,abc")
        message = str(excinfo.value)
        assert "'abc'" in message
        assert "argument 2" in message

    def test_gnp_needs_probability(self):
        with pytest.raises(GraphValidationError):
            parse_graph_spec("gnp:12")

    def test_empty_spec_rejected(self):
        with pytest.raises(GraphValidationError):
            parse_graph_spec("")

    def test_parser_is_the_api_layer_one(self):
        import repro.api

        assert parse_graph_spec is repro.api.parse_graph_spec


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PODC 2014" in out
        assert "repro.graphs" in out
        packages = sorted(
            path.parent.name
            for path in Path(repro.__file__).parent.glob("*/__init__.py")
        )
        assert len(packages) >= 10
        for name in packages:
            assert f"repro.{name} " in out

    def test_simulate_list_programs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "flood-min" in out
        assert "clique-min" in out

    def test_connectivity(self, capsys):
        assert main(["connectivity", "harary:4,12", "exact=true"]) == 0
        out = capsys.readouterr().out
        assert "vertex connectivity k = 4" in out
        assert "edge connectivity   λ = 4" in out

    def test_connectivity_is_exact_only_on_request(self, capsys):
        assert main(["connectivity", "harary:4,12"]) == 0
        out = capsys.readouterr().out
        assert "k ∈ [" in out
        assert "exact" not in out

    def test_pack_cds(self, capsys):
        assert main(["pack_cds", "harary:4,16", "seed=3"]) == 0
        out = capsys.readouterr().out
        assert "packing size" in out
        assert "verification: OK" in out

    def test_pack_cds_verbose_lists_trees(self, capsys):
        assert main(
            ["pack_cds", "harary:4,16", "seed=3", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "tree " in out

    def test_pack_spanning(self, capsys):
        assert main(["pack_spanning", "hypercube:3", "seed=5"]) == 0
        out = capsys.readouterr().out
        assert "Tutte bound" in out
        assert "verification: OK" in out

    def test_broadcast(self, capsys):
        assert main(
            ["broadcast", "harary:4,16", "messages=8", "seed=7"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_experiments_lists_index(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("E1", "E7", "E13", "E17", "E19"):
            assert exp_id in out

    def test_report(self, capsys):
        assert main(["report", "harary:4,12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "# repro measurement report" in out
        assert "| harary:4,12 |" in out

    def test_simulate_flood(self, capsys):
        assert main(
            ["simulate", "harary:4,16", "program=flood-min", "seed=3"]
        ) == 0
        out = capsys.readouterr().out
        assert "rounds:" in out
        assert "messages:" in out
        assert "rounds/sec" in out

    def test_simulate_requires_graph(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate"])
        assert excinfo.value.code == 2
        assert "graph" in capsys.readouterr().err

    def test_simulate_trace(self, capsys):
        assert main(
            ["simulate", "torus:3,3", "program=bfs", "trace=true"]
        ) == 0
        out = capsys.readouterr().out
        assert "round  node" in out

    def test_simulate_clique_model(self, capsys):
        assert main(
            ["simulate", "harary:4,12", "program=clique-min"]
        ) == 0
        out = capsys.readouterr().out
        assert "congested-clique" in out
        assert "rounds:   1" in out

    def test_simulate_with_faults(self, capsys):
        assert main(
            [
                "simulate", "harary:4,16",
                "program=retransmit-flood",
                'fault_plan={"drop_probability": 0.2, '
                '"crash_rounds": {"0": 2}}',
                "seed=5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "rounds:" in out

    def test_simulate_reference_engine_matches(self, capsys, round_loop):
        with round_loop("reference"):
            assert main(["simulate", "harary:4,12", "seed=1"]) == 0
        reference_out = capsys.readouterr().out
        assert main(["simulate", "harary:4,12", "seed=1"]) == 0
        indexed_out = capsys.readouterr().out
        # Identical protocol facts; only wall time differs.
        ref_facts = [l for l in reference_out.splitlines()
                     if l.startswith(("rounds:", "messages:", "outputs", "  "))]
        idx_facts = [l for l in indexed_out.splitlines()
                     if l.startswith(("rounds:", "messages:", "outputs", "  "))]
        assert ref_facts == idx_facts

    def test_simulate_bad_crash_spec(self, capsys):
        assert main(
            ["simulate", "harary:4,12",
             'fault_plan={"crash_rounds": {"0": "nonsense"}}']
        ) == 2
        assert "fault_plan.crash_rounds" in capsys.readouterr().err

    def test_flags_are_not_fields(self, capsys):
        assert main(["connectivity", "harary:4,12", "--seed", "3"]) == 2
        assert "name=value" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["batch", "jobs.json", "seed=3"])

    def test_boolean_fields_take_json_booleans(self, capsys):
        assert main(["connectivity", "harary:4,12", "exact=no"]) == 2
        assert "a boolean" in capsys.readouterr().err

    def test_error_exit_code(self, capsys):
        assert main(["connectivity", "mystery:1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestBatchBackendFlags:
    """`repro batch --backend/--workers/--checkpoint/--resume`."""

    @pytest.fixture()
    def jobs_file(self, tmp_path):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({
            "graphs": ["harary:4,12"],
            "tasks": ["connectivity"],
            "trials": 4,
            "base_seed": 0,
        }))
        return path

    def test_backend_flag_reported_in_summary(self, jobs_file, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main([
            "batch", str(jobs_file), "--out", str(out),
            "--backend", "process", "--workers", "2",
        ]) == 0
        summary = capsys.readouterr().out
        assert "backend=process" in summary
        assert "workers=2" in summary
        assert len(out.read_text().splitlines()) == 4

    def test_backends_agree_byte_for_byte(self, jobs_file, tmp_path):
        outputs = {}
        for backend in ("serial", "process"):
            out = tmp_path / f"{backend}.jsonl"
            assert main([
                "batch", str(jobs_file), "--out", str(out),
                "--backend", backend, "--workers", "2",
            ]) == 0
            outputs[backend] = out.read_bytes()
        assert outputs["serial"] == outputs["process"]

    def test_checkpoint_then_resume_replays(self, jobs_file, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        ck = tmp_path / "ck.jsonl"
        assert main([
            "batch", str(jobs_file), "--out", str(out), "--checkpoint", str(ck),
        ]) == 0
        first = out.read_bytes()
        capsys.readouterr()
        assert main([
            "batch", str(jobs_file), "--out", str(out),
            "--checkpoint", str(ck), "--resume",
        ]) == 0
        assert "(4 resumed)" in capsys.readouterr().out
        assert out.read_bytes() == first

    def test_resume_without_checkpoint_is_exit_2(self, jobs_file, tmp_path, capsys):
        code = main([
            "batch", str(jobs_file), "--out", str(tmp_path / "o.jsonl"),
            "--resume",
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_unknown_backend_is_exit_2(self, jobs_file, tmp_path, capsys):
        code = main([
            "batch", str(jobs_file), "--out", str(tmp_path / "o.jsonl"),
            "--backend", "quantum",
        ])
        assert code == 2
        assert "registered backends" in capsys.readouterr().err
