"""The benchmark's traced names and entry points must exist in the package.

``bench/spans.py`` rebinds the functions named in its ``SPANS`` table and
silently skips any name the package no longer has, so a rename would zero
a per-layer metric without an error.  ``bench/workloads.py`` calls the
package through ``gaugerec.<name>``, so a deletion would only show when the
benchmark runs.  These tests fail instead.
"""

import ast
import importlib.util
from pathlib import Path

import gaugerec
import gaugerec.cli  # noqa: F401  (bench/workloads.py reads gaugerec.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [f"{module}.{name}" for module, names in spans.SPANS.items()
               for name in names if not spans._resolve(module, name)]
    assert not missing, f"bench/spans.py traces names the package lacks: {missing}"


def package_reads(source: str) -> set[str]:
    """Dotted names read as ``gaugerec.<name>`` in ``source``, outermost
    chains only (``gaugerec.cli.main`` gives "cli.main", not also "cli")."""
    tree = ast.parse(source)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "gaugerec":
            names.add(".".join(reversed(parts)))
    return names


def resolves(dotted: str) -> bool:
    obj = gaugerec
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_workload_entry_point_resolves():
    names = package_reads((BENCH / "workloads.py").read_text())
    assert {"run", "ExperimentConfig", "cli.main"} <= names  # the walk sees them
    missing = sorted(n for n in names if not resolves(n))
    assert not missing, f"bench/workloads.py reads names the package lacks: {missing}"
