"""Runs the docstring examples of the package modules.  They are not
collected through ``--doctest-modules``, which would also import the
benchmark scripts."""
import doctest
import importlib

import pytest

MODULES = ["perm", "matching", "tableau", "oscillating", "bijection", "cyclic", "symfun", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(f"matchdescents.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
