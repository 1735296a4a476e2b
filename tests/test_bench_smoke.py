"""bench-smoke: every benchmark entry point must import and run.

The benchmark modules are not collected by the default test run (their
files do not match ``test_*.py``), so API drift used to rot them
silently. Each module now exposes a ``smoke()`` entry point that runs
its experiment's code path on a tiny graph; this test imports and runs
every one of them, making benchmark drift a tier-1 failure.

Deselect with ``-m "not bench_smoke"`` when iterating on unrelated code.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import tempfile

import pytest

from benchmarks import run_benchmarks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))

ENV_KEYS = {
    "git_sha", "python", "machine", "numpy", "networkx", "cpu_count",
    "schedulable_cpus", "loadavg_1m_start", "loadavg_1m_end",
}


def test_benchmark_modules_discovered():
    # The experiment index spans E1..E22 + figures + ablations; if this
    # shrinks, files were deleted without updating the CLI index.
    assert len(BENCH_MODULES) >= 22


@pytest.mark.bench_smoke
@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_entry_point_runs_on_tiny_graph(name):
    module = importlib.import_module(f"benchmarks.{name}")
    assert hasattr(module, "smoke"), (
        f"benchmarks/{name}.py has no smoke() entry point — every "
        "benchmark module must stay runnable on a tiny graph"
    )
    module.smoke()


def test_every_driver_suite_has_a_run_and_a_row_format():
    for module_name, filename in run_benchmarks.SUITES.values():
        module = importlib.import_module(f"benchmarks.{module_name}")
        assert callable(module.run) and callable(module.format_row)
        assert not hasattr(module, "main"), (
            f"benchmarks/{module_name}.py drives itself; "
            "run_benchmarks.py is the one driver"
        )
        assert (REPO_ROOT / filename).exists(), filename


@pytest.mark.bench_smoke
def test_driver_stamps_env_on_the_report(tmp_path):
    out = tmp_path / "resilience.json"
    assert run_benchmarks.main(
        ["--suite", "resilience", "--quick", "--out", str(out)]
    ) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["env"]) == ENV_KEYS
    assert report["env"]["schedulable_cpus"] >= 1
    assert report["results"]


@pytest.mark.bench_smoke
def test_quick_run_leaves_the_committed_report_alone(
    tmp_path, monkeypatch, capsys
):
    # A quick run without --out writes under a fresh temporary directory;
    # the committed full-size report keeps its bytes.
    committed = REPO_ROOT / run_benchmarks.SUITES["resilience"][1]
    before = committed.read_bytes()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_benchmarks.main(["--suite", "resilience", "--quick"]) == 0
    assert committed.read_bytes() == before
    (written,) = tmp_path.glob("bench-quick-*/BENCH_resilience.json")
    assert f"wrote {written}" in capsys.readouterr().out
    assert json.loads(written.read_text(encoding="utf-8"))["results"]
