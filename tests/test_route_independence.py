"""The exact routes stay independent: neither imports the other or the series
checks; production keeps one histogram body; and the brute route computes
every member's histogram itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gridperm
from gridperm import catalan, enumeration, grid_graph

PACKAGE = Path(gridperm.__file__).parent


def gridperm_imports(module: str) -> set[str]:
    """The gridperm modules that ``module`` imports, by short name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if base in (".", "gridperm"):
                names = [f"gridperm.{alias.name}" for alias in node.names]
            else:
                names = [base]
        else:
            continue
        for name in names:
            if name.startswith((".", "gridperm.")):
                found.add(name.rsplit(".", 1)[-1])
    return found


def test_import_scan_sees_the_cli_routes():
    assert {"closed_forms", "recurrences", "series"} <= gridperm_imports("cli")
    assert "enumeration" in gridperm_imports("recurrences")


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("recurrences", {"closed_forms", "series"}),
        ("closed_forms", {"recurrences", "series"}),
        ("series", {"closed_forms", "recurrences"}),
    ],
)
def test_exact_routes_do_not_import_each_other(module, forbidden):
    assert not gridperm_imports(module) & forbidden


def test_one_histogram_body():
    names = [
        node.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and "histogram" in node.name
    ]
    assert names == ["degree_histogram"]
    assert grid_graph.degree_histogram_fast is grid_graph.degree_histogram


def test_brute_computes_one_histogram_per_member(monkeypatch):
    calls = 0

    def counted(word):
        nonlocal calls
        calls += 1
        return grid_graph.degree_histogram(word)

    monkeypatch.setattr(enumeration, "degree_histogram", counted)
    enumeration.aggregate_brute(8)
    assert calls == catalan(8) == 1430
