"""Check that two source trees of gaugerec compute the same outputs, bit for bit.

    python tools/same_outputs.py A_SRC B_SRC

A_SRC and B_SRC are ``src`` directories (each holding a ``gaugerec``
package).  The item list below runs once per tree, each tree in its own
process with one BLAS thread; the outputs are pickled and compared item by
item: arrays with NaN-aware ``np.array_equal`` (shape and dtype included),
dicts and sequences element-wise, everything else with ``==``.  Every item
that differs is printed with the path of its first difference; the exit
status is 1 if any item differs, else 0.

An item that raises records the exception's type and message, so an error
compares like any other output.  Report timings are dropped; each run's
config echo is its own ``config`` item, so a removed setting shows up there
alone.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> ExperimentConfig keywords
RUNS = {
    "roundtrip smooth-complex-2d [33, 65] noisy": dict(
        mode="roundtrip", preset="smooth-complex-2d", grids=[33, 65],
        noise=[0.0, 1e-4], mollify_width=2.0, seed=7),
    "roundtrip constant-tensor-3d 17": dict(
        mode="roundtrip", preset="constant-tensor-3d", grids=[17]),
    "roundtrip isotropic-c 33": dict(mode="roundtrip", preset="isotropic-c", grids=[33]),
    "roundtrip real-2d 33 17/8": dict(
        mode="roundtrip", preset="real-2d", grids=[33],
        engine={"patch_size": 17, "overlap": 8}),
    "qpat 65": dict(mode="qpat", preset="qpat-demo", grids=[65]),
    "qpat 33 noisy": dict(mode="qpat", preset="qpat-demo", grids=[33],
                          noise=[1e-4], mollify_width=1.0),
    "elasto 65": dict(mode="elasto", preset="elasto-demo", grids=[65]),
    "stability 33": dict(mode="stability", preset="smooth-complex-2d", grids=[33],
                         noise=[1e-5, 1e-4]),
    "roundtrip cgo override 33": dict(
        mode="roundtrip", preset="smooth-complex-2d", grids=[33],
        illumination={"family": "cgo", "params": {"k": 4.0, "eps": 0.5}}),
}


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # the error is the output
        return ("raised", type(exc).__name__, str(exc))


def _without_timings(obj):
    if isinstance(obj, dict):
        return {k: _without_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_without_timings(v) for v in obj]
    return obj


def _arrays(obj, names):
    return {name: getattr(obj, name) for name in names}


def collect() -> dict:
    """Every item's output, computed with the gaugerec found on sys.path."""
    import gaugerec as g

    items = {}
    for name, kw in RUNS.items():
        kw = dict(kw)
        if "engine" in kw:
            kw["engine"] = g.EngineConfig(**kw["engine"])
        report = _attempt(lambda: g.run(g.ExperimentConfig(**kw)).to_dict())
        if isinstance(report, dict):
            items[f"run {name}: config"] = report.pop("config")
        items[f"run {name}"] = _without_timings(report)

    for name, preset in g.PRESETS.items():
        grid = g.square_grid(17 if preset.dim == 3 else 33, preset.dim)
        ill = preset.illumination(grid)
        coeffs = preset.coefficients(grid)
        items[f"preset {name}: traces"] = [(t.label, t.values) for t in ill.traces]
        items[f"preset {name}: fields"] = [f.values for f in ill.fields()]
        data = _attempt(lambda: g.synthesize(coeffs, ill))
        items[f"preset {name}: data"] = [f.values for f in data] \
            if isinstance(data, list) else data
        if preset.kind != "pde" or not isinstance(data, list):
            continue
        items[f"preset {name}: stages"] = _attempt(lambda: _stages(g, data))
        patched = g.EngineConfig(patch_size=9, overlap=4) if preset.dim == 3 \
            else g.EngineConfig(patch_size=17, overlap=8)
        items[f"preset {name}: reconstruct_global"] = _attempt(
            lambda: _global(g, data, patched))

    items.update(_gauge_items(g))

    grid = g.square_grid(9)
    x1 = grid.meshes[0]
    amat = np.zeros(grid.shape + (2, 2), dtype=complex)
    amat[..., 0, 0] = 1.0
    amat[..., 1, 1] = x1 - 0.5
    zero_v = g.VectorField(grid, np.zeros(grid.shape + (2,)))
    cs = g.CoefficientSet(g.SymTensorField.from_matrix(grid, amat), zero_v,
                          g.ScalarField(grid, np.zeros(grid.shape)), zero_v)
    try:
        cs.validate()
        items["EllipticityViolation 9^2"] = "not raised"
    except g.EllipticityViolation as exc:
        items["EllipticityViolation 9^2"] = (str(exc), exc.nodes)
    return items


def _stages(g, data) -> dict:
    rb = g.build_ratios(data)
    fr = g.build_frame(rb, cond_max=None)
    mb = g.build_M(rb, fr, indep_min=None)
    rep = g.reconstruct_class(rb, fr, mb)
    return {"frame": _arrays(fr, ("H", "Hinv", "cond", "ok")),
            "M": _arrays(mb, ("theta", "M", "M0", "indep", "ok", "lincomb_residual")),
            "class": (rep.triple_arrays(), rep.diagnostics)}


def _global(g, data, engine) -> dict:
    rep, pm = g.reconstruct_global(data, engine)
    return {"representative": (rep.a.values, rep.b_plus_diva.values, rep.c.values,
                               rep.b.values),
            "patch_map": (pm.boxes, pm.admissible, pm.selections, pm.scores, pm.signs,
                          pm.coverage)}


def _gauge_items(g) -> dict:
    items = {}
    grid = g.square_grid(33)
    preset = g.PRESETS["bzero-2d"]
    coeffs = preset.coefficients(grid)
    rep, _ = g.reconstruct_global(g.synthesize(coeffs, preset.illumination(grid)))
    tau_t = g.unit_truth(coeffs)[3]
    diag = {}
    items["tau b = 0, trace anchor"] = _attempt(lambda: (g.recover_tau_b_zero(
        rep, g.BoundaryTrace.from_node_values(grid, tau_t), diagnostics=diag).values, diag))
    small = g.square_grid(17)
    rep17, _ = g.reconstruct_global(g.harmonic_family(small).fields())
    diag17 = {}
    items["tau b = 0, scalar anchor"] = _attempt(lambda: (g.recover_tau_b_zero(
        rep17, np.sqrt(2.0), diagnostics=diag17).values, diag17))

    x1, x2 = grid.meshes
    bump = np.sin(np.pi * x1) * np.sin(np.pi * x2)
    sr = np.array([[0.6, 0.3], [0.3, -0.4]])
    amat = np.eye(2) + 0.15 * bump[..., None, None] * sr
    a = g.SymTensorField.from_matrix(grid, amat.astype(complex))
    c = g.ScalarField(grid, (0.1 * bump).astype(complex))
    phi = g.ScalarField(grid, (0.3 * bump).astype(complex))
    b = g.VectorField(grid, np.einsum("...ij,...j->...i", amat, g.gradient(phi).values))
    items["tau known phi"] = _attempt(lambda: _route(
        g, g.CoefficientSet.from_fields(a, b, c),
        lambda rep, anchor: g.recover_tau_known_phi(rep, phi, anchor)))
    gpsi = g.gradient(g.ScalarField(grid, (0.05 * bump).astype(complex))).values
    b_div = g.VectorField(grid, np.stack([gpsi[..., 1], -gpsi[..., 0]], axis=-1))
    items["tau divergence-free b"] = _attempt(lambda: _route(
        g, g.CoefficientSet.from_fields(a, b_div, c), g.recover_tau_divfree_b))

    a_smooth = g.reconstruct_global(g.synthesize(
        g.PRESETS["smooth-complex-2d"].coefficients(grid), g.harmonic_family(grid)))[0].a
    for split in ("split_det", "split_pairing"):
        items[split] = _attempt(lambda: _split(getattr(g, split)(a_smooth)))
    return items


def _route(g, coeffs, recover):
    grid = coeffs.grid
    rep, _ = g.reconstruct_global(g.synthesize(coeffs, g.harmonic_family(grid)))
    anchor = g.BoundaryTrace.from_node_values(grid, g.unit_truth(coeffs)[3])
    return recover(rep, anchor).values


def _split(s) -> tuple:
    return s.tau.values, s.unit.values, s.convention


def first_difference(a, b, path: str = "item") -> str | None:
    """The path of the first place where ``a`` and ``b`` differ, else None."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype:
            return f"{path}: shape/dtype {a.shape} {a.dtype} vs {b.shape} {b.dtype}"
        nan_ok = a.dtype.kind in "fc"
        return None if np.array_equal(a, b, equal_nan=nan_ok) else f"{path}: values"
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                return f"{path}.{k}: only in {'B' if k in b else 'A'}"
            diff = first_difference(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            return f"{path}: {type(a).__name__}[{len(a)}] vs {type(b).__name__}[{len(b)}]"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return None  # both NaN
    return None if type(a) is type(b) and a == b else f"{path}: {a!r} vs {b!r}"


def _run_tree(src: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{k: "1" for k in _THREADS})
    subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", out],
                   env=env, check=True)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        with open(argv[1], "wb") as fh:
            pickle.dump(collect(), fh)
        return 0
    if len(argv) != 2:
        print("usage: python tools/same_outputs.py A_SRC B_SRC", file=sys.stderr)
        return 2
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, src in enumerate(argv):
            path = os.path.join(tmp, f"{k}.pkl")
            _run_tree(src, path)
            with open(path, "rb") as fh:
                outputs.append(pickle.load(fh))
    a, b = outputs
    names = list(a) + [k for k in b if k not in a]
    differ = 0
    for name in names:
        if name not in a or name not in b:
            diff = f"item only in {'B' if name in b else 'A'}"
        else:
            diff = first_difference(a[name], b[name])
        if diff:
            differ += 1
            print(f"DIFFERS  {name}: {diff}")
    print(f"{len(names) - differ} of {len(names)} items equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
