from __future__ import annotations

import doctest

import pytest

import gridperm.closed_forms
import gridperm.enumeration
import gridperm.grid_graph
import gridperm.permutations
import gridperm.recurrences
import gridperm.series


@pytest.mark.parametrize(
    "module",
    [
        gridperm.permutations,
        gridperm.grid_graph,
        gridperm.enumeration,
        gridperm.closed_forms,
        gridperm.recurrences,
        gridperm.series,
    ],
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
