"""Runs the docstring examples of the package modules.  They are not
collected through ``--doctest-modules``, which would also import the
benchmark scripts.  The modules are read off the package directory, so a
new module's examples run too; ``__main__`` is left out, as importing it
runs the command line."""
import doctest
import importlib
from pathlib import Path

import pytest

import matchdescents

MODULES = sorted(path.stem for path in Path(matchdescents.__file__).parent.glob("*.py") if path.stem != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    module = importlib.import_module(f"matchdescents.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
