"""The exact routes stay independent: each is a leaf module that imports no
other gridperm module and computes when loaded alone from its file, and
the brute route imports only the histogram; production keeps one
histogram body and no export that only the tests call; and the brute
route computes every member's histogram itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gridperm
from conftest import catalan_by_convolution
from gridperm import enumeration, grid_graph

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
    assert "grid_graph" in gridperm_imports("enumeration")
    assert "grid_graph" in gridperm_imports("sampler")


# load one route's file as a module of its own, with gridperm blocked
LOAD_ONE_FILE = """
import importlib.util, sys
sys.modules["gridperm"] = None
path, expression = sys.argv[1:]
spec = importlib.util.spec_from_file_location("route", path)
route = sys.modules["route"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(route)
print(eval(expression, vars(route)))
"""

ROUTE_PROBES = {
    "recurrences": ('gluing_totals(5)["H"]', [0, 0, 2, 14, 76, 374]),
    "closed_forms": ('closed_aggregate(3)["H"] == 14', True),
    "series": ("catalan_series(4).coeffs", (1, 1, 2, 5, 14)),
}


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
    # the scan cannot see a dynamic import; a route that still computes
    # with gridperm unimportable reached no other gridperm module
    expression, expected = ROUTE_PROBES[module]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", LOAD_ONE_FILE, str(PACKAGE / f"{module}.py"), expression],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n"


def test_exact_routes_are_leaf_modules():
    for module in ("recurrences", "closed_forms", "series"):
        assert gridperm_imports(module) == set(), module
    assert gridperm_imports("enumeration") == {"grid_graph"}


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


def test_every_export_has_a_production_caller():
    # a name exported only for the tests is a test-only oracle in production
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(exported - used) == []


def test_brute_computes_one_histogram_per_member(monkeypatch):
    calls = 0

    def counted(word):
        nonlocal calls
        calls += 1
        return grid_graph.degree_histogram(word)

    monkeypatch.setattr(enumeration, "degree_histogram", counted)
    enumeration.aggregate_brute(8)
    assert calls == catalan_by_convolution(8)[8] == 1430
