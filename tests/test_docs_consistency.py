"""Documentation-vs-tree consistency checks.

DESIGN.md promises a module map, the CLI promises an experiment index,
and the README promises runnable examples; these tests fail whenever
the repository drifts from its own documentation. ROADMAP.md promises
that oracles which exist only for tests live in ``tests/oracles/``, not
in the shipped package.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


class TestDesignInventory:
    def test_every_source_module_is_documented(self):
        design = _read("DESIGN.md")
        missing = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            if path.name not in design:
                missing.append(str(path.relative_to(REPO)))
        assert not missing, f"modules absent from DESIGN.md: {missing}"

    def test_every_documented_module_exists(self):
        design = _read("DESIGN.md")
        for name in re.findall(r"(\w+\.py)\b", design):
            if name == "setup.py" or name.startswith(("bench_", "test_")):
                hits = list(REPO.glob(name)) + list(
                    (REPO / "benchmarks").glob(name)
                ) + list((REPO / "tests").glob(name))
            else:
                hits = list((REPO / "src").rglob(name)) + list(
                    (REPO / "tests" / "oracles").glob(name)
                )
            assert hits, f"DESIGN.md mentions {name} but it does not exist"

    def test_every_benchmark_is_in_the_index(self):
        design = _read("DESIGN.md")
        for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert path.name in design, (
                f"{path.name} missing from the DESIGN.md experiment index"
            )


class TestShippedPackage:
    def test_src_ships_no_test_oracle(self):
        shipped = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            where = str(path.relative_to(REPO))
            if path.name.endswith("_reference.py"):
                shipped.append(f"{where}: a *_reference.py oracle")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and node.name == "ClassState":
                    shipped.append(f"{where}: defines ClassState")
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "tests" for name in names):
                    shipped.append(f"{where}: imports tests")
        assert not shipped, f"test oracles in the shipped package: {shipped}"


class TestCliIndex:
    def test_cli_experiments_reference_real_benchmarks(self):
        from repro.cli import _EXPERIMENTS

        for _, bench, _ in _EXPERIMENTS:
            assert (REPO / "benchmarks" / f"{bench}.py").exists(), bench

    def test_cli_index_covers_all_benchmarks(self):
        from repro.cli import _EXPERIMENTS

        indexed = {bench for _, bench, _ in _EXPERIMENTS}
        on_disk = {
            p.stem for p in (REPO / "benchmarks").glob("bench_*.py")
        }
        assert on_disk <= indexed, f"unindexed benches: {on_disk - indexed}"


class TestReadme:
    def test_readme_examples_exist(self):
        readme = _read("README.md")
        for line in readme.splitlines():
            match = re.match(r"python (examples/\S+\.py)", line.strip())
            if match:
                assert (REPO / match.group(1)).exists(), match.group(1)

    def test_all_examples_are_listed_in_readme(self):
        readme = _read("README.md")
        for path in sorted((REPO / "examples").glob("*.py")):
            assert path.name in readme, (
                f"examples/{path.name} not mentioned in README.md"
            )

    def test_version_matches_package(self):
        import repro

        pyproject = _read("pyproject.toml")
        assert f'version = "{repro.__version__}"' in pyproject


class TestExperimentsFile:
    def test_every_experiment_id_has_a_section(self):
        experiments = _read("EXPERIMENTS.md")
        from repro.cli import _EXPERIMENTS

        for exp_id, _, _ in _EXPERIMENTS:
            head = exp_id.split("-")[0].split("–")[0]
            assert head in experiments, f"{exp_id} missing from EXPERIMENTS.md"
