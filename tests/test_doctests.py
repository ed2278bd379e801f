"""Every docstring example in the package runs and gives its printed result."""

import doctest
import importlib
import pkgutil

import pytest

import specamb

MODULES = sorted(info.name for info in pkgutil.iter_modules(specamb.__path__, "specamb."))


@pytest.mark.parametrize("name", ["specamb", *MODULES])
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
