"""The docstring examples of every library module run and pass."""

import doctest
import importlib
import pkgutil

import hyperhom


def test_every_module_passes_its_doctests():
    names = [m.name for m in pkgutil.iter_modules(hyperhom.__path__, "hyperhom.")]
    failed, attempted = {}, 0
    for name in ["hyperhom", *sorted(names)]:
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}
    assert attempted >= 4  # abelian.py's examples at least
