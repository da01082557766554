"""Run the doctest examples embedded in the public API docstrings.

Every module of :mod:`repro` (the ``__main__`` entry point aside) is
discovered with :func:`pkgutil.walk_packages`, and each one that carries
examples is doctested: a new module's examples run without being listed
here.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

_FINDER = doctest.DocTestFinder()


def _modules_with_examples():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    for name in sorted(names):
        # importlib.import_module returns the module itself even when a
        # parent package re-exports a same-named function (e.g.
        # automata.query_nfa).
        module = importlib.import_module(name)
        if any(test.examples for test in _FINDER.find(module)):
            yield name


MODULE_NAMES = list(_modules_with_examples())


def test_discovery_finds_unlisted_example_modules():
    # Both were missed by the hand-kept list this discovery replaced.
    assert {"repro.queries.atoms", "repro.queries.conjunctive"} <= set(
        MODULE_NAMES
    )


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0, "no doctests in {}".format(name)
