"""The benchmark's traced names must exist in the package.

``bench/spans.py`` rebinds the functions named in its ``SPANS`` table and
silently skips any name the package no longer has, so a rename would zero
a per-layer metric without an error.  This test fails instead.
"""

import importlib.util
from pathlib import Path

import gaugerec  # noqa: F401  (imports every module that SPANS names)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [f"{module}.{name}" for module, names in spans.SPANS.items()
               for name in names if not spans._resolve(module, name)]
    assert not missing, f"bench/spans.py traces names the package lacks: {missing}"
