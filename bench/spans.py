"""Spans recorded from outside the package, and the per-layer metrics.

The package is not edited.  Each public function named in ``SPANS`` is
rebound, for the duration of a traced pass, in every ``gaugerec`` module
namespace that holds it (and, for methods, on the class), to a wrapper that
records a span: name, start, end and parent.  Because the modules look their
globals up at call time, calls between and inside modules pass through the
wrappers too.  Spans stay in memory and are written out once at the end.

A span's self time is its duration minus the durations of its direct
children, which nest inside it because everything runs on one thread.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

# module -> public names wrapped in that module ("Class.method" for methods)
SPANS = {
    "fields": ["grad_values", "hess_values", "divergence_tensor", "mollify",
               "save_field", "load_field"],
    "forward": ["DirichletSystem.__init__", "DirichletSystem.solve",
                "synthesize"],
    "illum": ["harmonic_family", "constant_tensor_family",
              "local_polynomial_family", "cgo_family", "plane_wave_family"],
    "recon": ["build_ratios", "build_frame", "build_M", "reconstruct_class",
              "unit_gauge_triple", "reconstruct_global"],
    "gauge": ["recover_tau_b_zero", "recover_tau_known_phi",
              "recover_tau_divfree_b"],
    "apps": ["qpat_reconstruct", "elasto_reconstruct"],
    "harness": ["run", "write_manifest"],
    "cli": ["main"],
}

_STENCILS = ("fields.grad_values", "fields.hess_values",
             "fields.divergence_tensor")
_FAMILIES = tuple(f"illum.{name}" for name in SPANS["illum"])
_TAU = tuple(f"gauge.{name}" for name in SPANS["gauge"])

# Per-layer metric -> (unit, better, the end-to-end metric it should move
# and on which workload).  Times are self times summed over one traced pass.
LAYER_METRICS = {
    "forward.factor_s": ("s", "lower", "pass_ref, peak_rss_mb on volume-3d (about half a pass); some on roundtrip-2d; none on reselect-strip"),
    "forward.factor_calls": ("count", "lower", "as forward.factor_s"),
    "forward.solve_s": ("s", "lower", "pass_ref on roundtrip-2d, volume-3d"),
    "forward.solves": ("count", "lower", "as forward.solve_s"),
    "recon.ratios_s": ("s", "lower", "pass_ref on all; accuracy checks on roundtrip-2d when the sign logic changes"),
    "recon.frame_s": ("s", "lower", "pass_ref on all"),
    "recon.class_s": ("s", "lower", "pass_ref on all"),
    "recon.unit_gauge_s": ("s", "lower", "pass_ref on all"),
    "recon.M_s": ("s", "lower", "pass_ref on reselect-strip and patched-archive-2d"),
    "recon.M_calls": ("count", "lower", "pass_ref on reselect-strip and patched-archive-2d"),
    "recon.select_stitch_s": ("s", "lower", "pass_ref on patched-archive-2d and reselect-strip; ~0 on roundtrip-2d"),
    "recon.patches": ("count", "higher", "coverage; the numerator of recon.select_yield"),
    "recon.select_yield": ("ratio", "higher", "pass_ref on reselect-strip (0.17) against patched-archive-2d (1.0)"),
    "fields.stencil_s": ("s", "lower", "pass_ref on reselect-strip, patched-archive-2d (re-differentiation per crop)"),
    "fields.stencil_calls": ("count", "lower", "as fields.stencil_s"),
    "fields.mollify_s": ("s", "lower", "noisy_err check, pass_ref on roundtrip-2d"),
    "fields.save_s": ("s", "lower", "pass_ref on patched-archive-2d only"),
    "fields.load_s": ("s", "lower", "pass_ref on patched-archive-2d only"),
    "fields.archive_mb": ("MB", "lower", "pass_ref on patched-archive-2d only"),
    "illum.family_s": ("s", "lower", "pass_ref on volume-3d, roundtrip-2d"),
    "gauge.tau_s": ("s", "lower", "pass_ref, qpat_err and elasto_err checks on roundtrip-2d"),
    "apps.self_s": ("s", "lower", "pass_ref, qpat_err and elasto_err checks on roundtrip-2d"),
    "harness.self_s": ("s", "lower", "pass_ref on roundtrip-2d, volume-3d"),
    "cli.self_s": ("s", "lower", "pass_ref on patched-archive-2d"),
    "cli.manifest_s": ("s", "lower", "pass_ref on patched-archive-2d"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass wall"),
    "trace.uncovered_s": ("s", "lower", "none: traced pass wall minus the sum of self times"),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gaugerec"
                                  or name.startswith("gaugerec."))]


def _resolve(module_name: str, dotted: str):
    """(owner object, attribute) pairs that hold the public name."""
    module = sys.modules[f"gaugerec.{module_name}"]
    if "." in dotted:
        cls_name, attr = dotted.split(".")
        cls = getattr(module, cls_name, None)
        return [(cls, attr)] if cls is not None and attr in vars(cls) else []
    original = getattr(module, dotted, None)
    if original is None:
        return []
    return [(m, dotted) for m in _package_modules()
            if vars(m).get(dotted) is original]


@contextmanager
def rebound(replacements: dict):
    """Rebind ``{(module, dotted_name): make_wrapper}`` for the block.

    ``make_wrapper(original)`` returns the replacement.  Every binding is
    restored on exit.  Names a later version of the package no longer has
    are skipped, so the benchmark keeps running across refactors.
    """
    saved = []
    try:
        for (module_name, dotted), make in replacements.items():
            owners = _resolve(module_name, dotted)
            if not owners:
                continue
            original = vars(owners[0][0])[owners[0][1]]
            replacement = make(original)
            for owner, attr in owners:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """Spans of the traced passes, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []     # [id, name, start, end, parent, pass]
        self.notes = {}     # span id -> extra counts (bytes, patches)
        self._stack = []
        self.pass_index = -1

    def _wrap(self, name: str, original):
        spans, stack, notes = self.spans, self._stack, self.notes

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, time.perf_counter(), None,
                    stack[-1][0] if stack else None, self.pass_index]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "partial", None)
                if name == "recon.reconstruct_global" and partial:
                    notes[span[0]] = {"patches": _selected(partial[1])}
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if name == "recon.reconstruct_global":
                notes[span[0]] = {"patches": _selected(result[1])}
            elif name == "fields.save_field":
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                notes[span[0]] = {"bytes": os.path.getsize(path)}
            return result

        return wrapper

    def installed(self):
        """Context in which every public name in ``SPANS`` is traced."""
        return rebound({
            (module, dotted): functools.partial(self._wrap, f"{module}.{dotted}")
            for module, names in SPANS.items() for dotted in names})

    def self_times(self, pass_index: int) -> dict:
        """name -> [calls, self seconds] over one traced pass."""
        spans = [s for s in self.spans if s[5] == pass_index]
        child = {}
        for s in spans:
            if s[4] is not None:
                child[s[4]] = child.get(s[4], 0.0) + (s[3] - s[2])
        out = {}
        for s in spans:
            entry = out.setdefault(s[1], [0, 0.0])
            entry[0] += 1
            entry[1] += (s[3] - s[2]) - child.get(s[0], 0.0)
        return out

    def layer_metrics(self, pass_index: int, pass_wall: float) -> dict:
        st = self.self_times(pass_index)

        def calls(*names):
            return sum(st.get(n, (0, 0.0))[0] for n in names)

        def secs(*names):
            return sum(st.get(n, (0, 0.0))[1] for n in names)

        notes = [self.notes[s[0]] for s in self.spans
                 if s[5] == pass_index and s[0] in self.notes]
        patches = sum(n.get("patches", 0) for n in notes)
        m_calls = calls("recon.build_M")
        return {
            "forward.factor_s": secs("forward.DirichletSystem.__init__"),
            "forward.factor_calls": calls("forward.DirichletSystem.__init__"),
            "forward.solve_s": secs("forward.DirichletSystem.solve"),
            "forward.solves": calls("forward.DirichletSystem.solve"),
            "recon.ratios_s": secs("recon.build_ratios"),
            "recon.frame_s": secs("recon.build_frame"),
            "recon.class_s": secs("recon.reconstruct_class"),
            "recon.unit_gauge_s": secs("recon.unit_gauge_triple"),
            "recon.M_s": secs("recon.build_M"),
            "recon.M_calls": m_calls,
            "recon.select_stitch_s": secs("recon.reconstruct_global"),
            "recon.patches": patches,
            "recon.select_yield": patches / m_calls if m_calls else 0.0,
            "fields.stencil_s": secs(*_STENCILS),
            "fields.stencil_calls": calls(*_STENCILS),
            "fields.mollify_s": secs("fields.mollify"),
            "fields.save_s": secs("fields.save_field"),
            "fields.load_s": secs("fields.load_field"),
            "fields.archive_mb": sum(n.get("bytes", 0) for n in notes) / 1e6,
            "illum.family_s": secs(*_FAMILIES),
            "gauge.tau_s": secs(*_TAU),
            "apps.self_s": secs("apps.qpat_reconstruct", "apps.elasto_reconstruct"),
            "harness.self_s": secs("harness.run"),
            "cli.self_s": secs("cli.main"),
            "cli.manifest_s": secs("harness.write_manifest"),
            "trace.uncovered_s": pass_wall - sum(v[1] for v in st.values()),
        }

    def table(self, pass_index: int, pass_wall: float) -> list[str]:
        """Self time per module and per span over one traced pass."""
        st = self.self_times(pass_index)
        modules = {}
        for name, (n, s) in st.items():
            modules.setdefault(name.split(".")[0], []).append((name, n, s))
        lines = [f"  {'module / span':<40} {'calls':>7} {'self s':>9} {'share':>7}"]
        for module in sorted(modules, key=lambda m: -sum(r[2] for r in modules[m])):
            rows = sorted(modules[module], key=lambda r: -r[2])
            total = sum(r[2] for r in rows)
            lines.append(f"  {module:<40} {sum(r[1] for r in rows):>7d} "
                         f"{total:>9.3f} {total / pass_wall:>7.1%}")
            for name, n, s in rows:
                lines.append(f"    {name:<38} {n:>7d} {s:>9.3f} {s / pass_wall:>7.1%}")
        return lines

    def dump(self) -> dict:
        return {"fields": ["id", "name", "start", "end", "parent", "pass"],
                "spans": self.spans,
                "notes": {str(k): v for k, v in self.notes.items()}}


def _selected(patch_map) -> int:
    return sum(sel is not None for sel in patch_map.selections)

