"""The package's public surface: the top level re-exports the ``__all__``
of each library module, and each public name is declared in one module."""

import collections
import importlib

import gaugerec

MODULES = ("errors", "fields", "forward", "illum", "recon", "gauge", "apps", "harness")


def test_the_top_level_is_the_union_of_the_modules_all():
    owners = {m: importlib.import_module(f"gaugerec.{m}") for m in MODULES}
    declared = [(name, m) for m, module in owners.items() for name in module.__all__]
    repeated = collections.Counter(name for name, _ in declared)
    assert [name for name, k in repeated.items() if k > 1] == []
    assert set(gaugerec.__all__) == {name for name, _ in declared} | set(MODULES)
    for name, m in declared:
        assert getattr(gaugerec, name) is getattr(owners[m], name), name
