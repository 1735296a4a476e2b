"""api-smoke: every CLI subcommand runs on a tiny graph and, where a
``--json`` mode exists, emits valid envelope JSON.

This mirrors the CI ``api-smoke`` job in-process so a broken subcommand
is a tier-1 failure before it is a CI failure.
"""

from __future__ import annotations

import json

import pytest

from repro.api.envelope import Result
from repro.cli import main

TINY = "harary:4,10"


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["connectivity", TINY],
        ["pack_cds", TINY, "seed=3"],
        ["pack_spanning", "hypercube:3", "seed=5"],
        ["broadcast", TINY, "messages=4", "seed=7"],
        ["broadcast", "hypercube:3", "messages=4", "transport=edge"],
        ["simulate", TINY, "program=flood-min", "seed=3"],
        ["pack_integral", TINY, "kind=spanning"],
        ["experiments"],
        ["report", TINY, "--seed", "5"],
        ["gossip", TINY, "n_messages=4"],
    ],
)
def test_subcommand_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out  # said *something*


@pytest.mark.parametrize(
    "argv",
    [
        ["connectivity", TINY, "--json"],
        ["pack_cds", TINY, "seed=3", "--json"],
        ["pack_spanning", "hypercube:3", "seed=5", "--json"],
        ["broadcast", TINY, "messages=4", "--json"],
        ["simulate", TINY, "program=flood-min", "--json"],
        ["pack_integral", TINY, "kind=cds", "--json"],
        ["gossip", TINY, "--json", "n_messages=4"],
    ],
)
def test_json_mode_emits_a_valid_envelope(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    envelope = Result.from_json(out)
    assert envelope.graph in (TINY, "hypercube:3")
    assert envelope.payload


class TestBatchSubcommand:
    def _jobs_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {
                    "graphs": [TINY, "hypercube:3"],
                    "tasks": ["connectivity", "pack_cds"],
                    "trials": 1,
                }
            )
        )
        return str(path)

    def test_batch_to_stdout_is_jsonl(self, tmp_path, capsys):
        assert main(["batch", self._jobs_file(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            Result.from_json(line)

    def test_batch_to_file_reports_row_count(self, tmp_path, capsys):
        jobs = self._jobs_file(tmp_path)
        out = tmp_path / "rows.jsonl"
        assert main(["batch", jobs, "--out", str(out)]) == 0
        assert "wrote 4 row(s)" in capsys.readouterr().out
        # same spec file -> byte-identical output (the acceptance gate)
        again = tmp_path / "rows2.jsonl"
        assert main(["batch", jobs, "--out", str(again)]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_batch_failure_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"graph": "mystery:1"}]))
        assert main(["batch", str(path)]) == 1
        row = json.loads(capsys.readouterr().out.strip())
        assert "error" in row["payload"]
