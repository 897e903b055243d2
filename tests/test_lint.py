"""Lint gate wired into the test session.

Runs ``ruff check`` with the repo's ``[tool.ruff]`` config when the binary
is available. In environments without ruff (such as the offline test
container) a stdlib fallback still enforces the highest-signal subset:
every source file must parse, no module may carry unused imports, no
function may use a mutable default argument (ruff ``B006`` — a mutable
default once served as a hidden cross-invocation cache in ``cli.py``),
and no ``except`` handler may raise a *new* exception without chaining it
(``B904`` — losing the original fault blinds the resilience ladder).

The project's own AST engine (:mod:`repro.analysis`, rules
REP001-REP008) runs alongside either path — it has no external binary to
be missing.
"""

from __future__ import annotations

import ast
import shutil
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_ROOTS = ("src", "tests", "benchmarks", "perfbench")


def _python_files() -> list[Path]:
    files: list[Path] = []
    for root in SOURCE_ROOTS:
        files.extend(sorted((REPO / root).rglob("*.py")))
    assert files, "lint found no Python files — check SOURCE_ROOTS"
    return files


def _ruff_available() -> bool:
    return shutil.which("ruff") is not None


class _ImportUsage(ast.NodeVisitor):
    """Collect imported names and every identifier the module mentions."""

    def __init__(self) -> None:
        self.imported: dict[str, int] = {}
        self.used: set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            self.imported[name] = node.lineno

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "__future__":  # compiler directive, not a binding
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self.imported[alias.asname or alias.name] = node.lineno

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        # __all__ entries and doctest-ish strings count as usage so that
        # re-export modules don't need per-name pragmas in the fallback.
        if isinstance(node.value, str) and node.value.isidentifier():
            self.used.add(node.value)


_MUTABLE_DEFAULT_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _mutable_defaults(path: Path, tree: ast.Module) -> list[str]:
    """Stdlib approximation of ruff B006: flag literal mutable defaults."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_DEFAULT_NODES):
                problems.append(
                    f"{path.relative_to(REPO)}:{default.lineno}: mutable default "
                    f"argument in {node.name}() (B006)"
                )
    return problems


def _unchained_raises(path: Path, tree: ast.Module) -> list[str]:
    """Stdlib approximation of ruff B904: ``raise X`` inside ``except``
    without ``from err``/``from None`` discards the original traceback."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Raise)
                and inner.exc is not None
                and inner.cause is None
                # re-raising the caught exception object itself is chained
                # by construction (`except E as err: ... raise err`)
                and not (
                    isinstance(inner.exc, ast.Name) and inner.exc.id == node.name
                )
            ):
                problems.append(
                    f"{path.relative_to(REPO)}:{inner.lineno}: raise inside "
                    "except without 'from' (B904)"
                )
    return problems


def _unused_imports(path: Path, tree: ast.Module) -> list[str]:
    visitor = _ImportUsage()
    visitor.visit(tree)
    return [
        f"{path.relative_to(REPO)}:{lineno}: unused import {name!r}"
        for name, lineno in visitor.imported.items()
        if name not in visitor.used
    ]


def test_lint_scope_includes_obs():
    """The observability package (and its tests) must be inside the gate."""
    files = {path.relative_to(REPO).as_posix() for path in _python_files()}
    assert "src/repro/obs/metrics.py" in files
    assert "src/repro/obs/spans.py" in files
    assert any(name.startswith("tests/obs/") for name in files)
    assert "benchmarks/bench_observability.py" in files


def test_lint():
    if _ruff_available():
        result = subprocess.run(
            ["ruff", "check", *SOURCE_ROOTS],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, f"ruff check failed:\n{result.stdout}{result.stderr}"
        return

    problems: list[str] = []
    for path in _python_files():
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as error:  # pragma: no cover - tree should always parse
            problems.append(f"{path.relative_to(REPO)}: syntax error: {error}")
            continue
        if path.name != "__init__.py":  # __init__ re-exports are intentional
            problems.extend(_unused_imports(path, tree))
        problems.extend(_mutable_defaults(path, tree))
        problems.extend(_unchained_raises(path, tree))
    assert not problems, "lint fallback found issues:\n" + "\n".join(problems)


def test_repro_analysis_gate():
    """The in-repo AST engine scans src/ clean against its baseline.

    Exercised through the same entry point CI and developers use
    (``python -m repro.analysis``), from the repo root so baseline paths
    resolve identically.
    """
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "--strict-baseline"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"repro.analysis gate failed:\n{result.stdout}{result.stderr}"
    )


def test_repro_analysis_catalog_includes_cross_file_rules():
    """The shipped rule catalog carries the whole-program rules, so the
    strict-baseline gate above is actually enforcing them."""
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    for rule_id in ("REP013", "REP014", "REP015", "REP016"):
        assert rule_id in result.stdout, f"{rule_id} missing from --list-rules"
    assert "[cross-file]" in result.stdout


def test_repro_analysis_sarif_output_is_valid():
    """--format sarif emits parseable SARIF 2.1.0 (machine-consumable)."""
    import json
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "--format", "sarif"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"sarif scan failed:\n{result.stdout}{result.stderr}"
    )
    payload = json.loads(result.stdout)
    assert payload["version"] == "2.1.0"
    (run,) = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    assert run["results"] == []  # live tree is clean
