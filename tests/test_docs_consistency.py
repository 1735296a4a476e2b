"""Documentation-vs-tree consistency checks.

DESIGN.md promises a module map, the CLI promises an experiment index,
and the README promises runnable examples; these tests fail whenever
the repository drifts from its own documentation. ROADMAP.md promises
that oracles which exist only for tests live in ``tests/oracles/``, not
in the shipped package. DESIGN.md §1 promises one home per name: a
name is imported from the module that defines it, and a package loads
only what its caller uses.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The only names a package hands on from another module: the session
#: layer's front door, which README, the examples and perfbench import.
FRONT_DOOR = {"repro.api": {"GraphSession", "Result", "parse_graph_spec"}}


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


def _module_file(module: str):
    """The file of a ``repro`` module or package, else ``None``."""
    path = SRC.joinpath(*module.split("."))
    for candidate in (path / "__init__.py", path.with_suffix(".py")):
        if candidate.exists():
            return candidate
    return None


def _defined(path: pathlib.Path) -> set:
    """Names a module binds by ``def``, ``class`` or assignment at top
    level (in ``if``/``try`` blocks too), never by import."""
    names = set()
    body = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while body:
        node = body.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names.update(leaf.id for target in targets
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
        elif isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Try):
            body += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                body += handler.body
    return names


class TestOneHomePerName:
    def test_every_name_is_imported_from_its_home(self):
        strays = []
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((REPO / top).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for node in ast.walk(tree):
                    if not (isinstance(node, ast.ImportFrom) and not node.level
                            and node.module.split(".")[0] == "repro"):
                        continue
                    home = _module_file(node.module)
                    assert home, f"{path}: no module {node.module}"
                    defined = _defined(home) | FRONT_DOOR.get(node.module,
                                                              set())
                    strays += [
                        f"{path.relative_to(REPO)}:{node.lineno} "
                        f"{node.module}.{alias.name}"
                        for alias in node.names
                        if alias.name not in defined
                        and not _module_file(f"{node.module}.{alias.name}")
                    ]
        assert not strays, f"names imported from outside their home: {strays}"

    def test_packages_hold_only_their_docstrings(self):
        """A package holds its docstring; ``repro`` adds its version and
        ``repro.api`` imports its front door, and nothing more."""
        for init in sorted((SRC / "repro").rglob("__init__.py")):
            package = ".".join(init.parent.relative_to(SRC).parts)
            docstring, *rest = ast.parse(init.read_text(encoding="utf-8")).body
            assert isinstance(docstring.value, ast.Constant), package
            assert all(isinstance(node, (ast.ImportFrom, ast.Assign))
                       for node in rest), package
            imported = {alias.name for node in rest
                        if isinstance(node, ast.ImportFrom)
                        and node.module != "__future__"
                        for alias in node.names}
            assert imported == FRONT_DOOR.get(package, set()), package
            version = {"__version__"} if package == "repro" else set()
            assert _defined(init) == version, package

    def test_the_front_door_loads_no_simulator(self):
        """A fresh process: importing the session layer loads neither
        the batch scheduler nor the paper's constructions, and one
        pipeline op after it loads no simulator module."""
        code = (
            "import json, sys\n"
            "from repro.api import GraphSession, parse_graph_spec\n"
            "imported = sorted(sys.modules)\n"
            "session = GraphSession('harary:6,24')\n"
            "session.connectivity(seed=1)\n"
            "session.pack_cds(seed=1)\n"
            "session.broadcast(messages=16, seed=1)\n"
            "session.pack_spanning(seed=1)\n"
            "session.broadcast(messages=16, seed=1, transport='edge')\n"
            "print(json.dumps([imported, sorted(sys.modules)]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        imported, after_op = json.loads(out.stdout)

        def under(modules, *packages):
            return [m for m in modules
                    if any(m == p or m.startswith(p + ".") for p in packages)]

        assert "repro.api.session" in imported
        assert not under(imported, "repro.api.batch", "repro.core",
                         "repro.simulator", "multiprocessing")
        assert "repro.core.cds_packing" in after_op
        assert not under(after_op, "repro.simulator")


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
