from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

import gridperm
import gridperm.closed_forms
import gridperm.enumeration
import gridperm.grid_graph
import gridperm.permutations
import gridperm.recurrences
import gridperm.sampler
import gridperm.series


@pytest.mark.parametrize(
    "module",
    [
        gridperm.permutations,
        gridperm.grid_graph,
        gridperm.enumeration,
        gridperm.closed_forms,
        gridperm.recurrences,
        gridperm.sampler,
        gridperm.series,
    ],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_library_sketch_names_exist():
    # read, not run: the sketch's sampling report alone takes seconds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bgp\.(\w+)", sketch))
    assert "aggregate_brute" in names
    assert sorted(name for name in names if not hasattr(gridperm, name)) == []
