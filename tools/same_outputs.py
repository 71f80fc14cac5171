"""Check that two source trees of gaugerec compute the same outputs, bit for
bit or to a relative tolerance.

    python tools/same_outputs.py A_SRC B_SRC [--rtol R]

A_SRC and B_SRC are ``src`` directories (each holding a ``gaugerec``
package).  The item list below runs once per tree, each tree in its own
process with one BLAS thread; the outputs are pickled and compared item by
item: arrays with NaN-aware ``np.array_equal`` (shape and dtype included),
dicts and sequences element-wise, everything else with ``==``.  Every item
that differs is printed with the path of its first difference and the
float or complex leaf of largest relative difference, each relative figure
with the leaf's max|a - b| and max|a|, so a roundoff-sized leaf shows as
such; the exit status is 1 if any item differs, else 0.

With ``--rtol R`` a float or complex leaf passes when its non-finite entries
sit at the same positions with the same values and max|a - b| <= R max|a|
over the rest.  A leaf whose path ends in ``eq_residual`` is already
relative to the terms of its equation, so it passes when max|a - b| <= R.
Every other leaf (selections, boxes, signs, coverage, flags, raised
exceptions, archive bytes) must still be equal.  An item that passes
only within R is printed as ``WITHIN`` with its largest relative difference.

An item that raises records the exception's type and message, so an error
compares like any other output.  Report timings are dropped; each run's
config echo is its own ``config`` item, so a removed setting shows up there
alone.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    # a single patch whose candidate kernel runs in several slabs
    "roundtrip smooth-complex-2d 129": dict(
        mode="roundtrip", preset="smooth-complex-2d", grids=[129]),
    "roundtrip real-2d 33 17/8": dict(
        mode="roundtrip", preset="real-2d", grids=[33],
        engine={"patch_size": 17, "overlap": 8}),
    # the benchmark's patched configuration: the ranking picks each patch's frame
    "roundtrip smooth-complex-2d 97 17/8": dict(
        mode="roundtrip", preset="smooth-complex-2d", grids=[97],
        engine={"patch_size": 17, "overlap": 8}),
    "qpat 65": dict(mode="qpat", preset="qpat-demo", grids=[65]),
    "qpat 33 noisy": dict(mode="qpat", preset="qpat-demo", grids=[33],
                          noise=[1e-4], mollify_width=1.0),
    # the widest mollifier whose 4-sigma kernel the grid's length leaves uncut
    "qpat 33 mollified at (m-1)/4": dict(mode="qpat", preset="qpat-demo", grids=[33],
                                         noise=[1e-4], mollify_width=8.0),
    "elasto 65": dict(mode="elasto", preset="elasto-demo", grids=[65]),
    "stability 33": dict(mode="stability", preset="smooth-complex-2d", grids=[33],
                         noise=[1e-5, 1e-4]),
    "roundtrip cgo override 33": dict(
        mode="roundtrip", preset="smooth-complex-2d", grids=[33],
        illumination={"family": "cgo", "params": {"k": 4.0, "eps": 0.5}}),
    # the application presets' own models, zeroth-order term included
    "roundtrip qpat-demo 33": dict(mode="roundtrip", preset="qpat-demo", grids=[33]),
    "roundtrip elasto-demo 33": dict(mode="roundtrip", preset="elasto-demo", grids=[33]),
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

    # the patch map of the run item at 97^2 17/8: every patch's selection
    grid = g.square_grid(97)
    preset = g.PRESETS["smooth-complex-2d"]
    data = g.synthesize(preset.coefficients(grid), preset.illumination(grid))
    items["smooth-complex-2d 97 17/8: reconstruct_global"] = _attempt(
        lambda: _global(g, data, g.EngineConfig(patch_size=17, overlap=8)))
    # 225 patches, 45 of them on the minority frame: a minority candidate at scale
    grid = g.square_grid(257)
    data = g.synthesize(preset.coefficients(grid), preset.illumination(grid))
    items["smooth-complex-2d 257 33/16: reconstruct_global"] = _attempt(
        lambda: _global(g, data, g.EngineConfig(patch_size=33, overlap=16)))
    # 3D patches at 25^3, where a row holds 625 nodes and so each slab of a
    # candidate's node budget is a single row
    grid = g.square_grid(25, 3)
    preset = g.PRESETS["constant-tensor-3d"]
    data = g.synthesize(preset.coefficients(grid), preset.illumination(grid))
    items["constant-tensor-3d 25 13/4: reconstruct_global"] = _attempt(
        lambda: _global(g, data, g.EngineConfig(patch_size=13, overlap=4)))

    # criterion 11's strips at 65^2 and 17/12, where boxes walk several
    # frames and generator subsets before one wins, or none does
    grid = g.square_grid(65)
    strip = g.EngineConfig(patch_size=17, overlap=12)
    for redundant in (True, False):
        data = [g.ScalarField(grid, v.astype(complex))
                for v in _strip(*grid.meshes, redundant=redundant)]
        items[f"strip {'redundant' if redundant else 'minimal'} 65 17/12: "
              "reconstruct_global"] = _attempt(lambda: _global(g, data, strip))
    # at 63^2 the degenerate column x1 = 0.5 is row 31, which no node of
    # even indices reaches
    grid = g.square_grid(63)
    for redundant in (True, False):
        data = [g.ScalarField(grid, v.astype(complex))
                for v in _strip(*grid.meshes, redundant=redundant)]
        items[f"strip {'redundant' if redundant else 'minimal'} 63 17/12: "
              "reconstruct_global"] = _attempt(lambda: _global(g, data, strip))
    # frames that are finite almost everywhere, and boxes whose frame orders differ
    data = g.cgo_family(g.square_grid(13, 3)).fields()
    items["cgo 3D 13^3 9/4: reconstruct_global"] = _attempt(
        lambda: _global(g, data, g.EngineConfig(patch_size=9, overlap=4)))
    grid = g.square_grid(65)
    preset = g.PRESETS["isotropic-c"]
    data = g.synthesize(preset.coefficients(grid), preset.illumination(grid))
    items["isotropic-c 65 17/8: reconstruct_global"] = _attempt(
        lambda: _global(g, data, g.EngineConfig(patch_size=17, overlap=8)))

    # a 3D frame whose condition ranges from 10 to 288, so the 3 x 3 closed
    # form is compared on real work (constant-tensor-3d's frame has cond 3)
    items["cgo 3D 9^3: stages"] = _attempt(
        lambda: _stages(g, g.cgo_family(g.square_grid(9, 3)).fields()))
    # the same stack with M^2 = M^1 at planted nodes and a NaN at one more,
    # so the pairing's fallback for an unsolvable node is compared too
    items["cgo 3D 9^3, M^2 = M^1 planted: stages"] = _attempt(lambda: _planted_stages(g))
    # a 2D node where V's condition is 1.7e11, so the pairing's arithmetic
    # shows in M0 and in the equation residual
    items["smooth-complex-2d 33^2, u_4 × 1e3 at (10, 20): stages"] = _attempt(
        lambda: _spiked_stages(g))

    items["stage errors"] = _stage_errors(g)
    items["derivatives"] = _attempt(lambda: _difference_operators(g))
    items.update(_gauge_items(g))
    items["archive bytes"], items["archive values"] = _archives(g)
    items.update(_archive_modes(g))

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


def _difference_operators(g) -> dict:
    """The public difference operators on fixed smooth complex fields at
    33^2 and 9^3: a stencil change shows on the nodes it moves."""
    out = {}
    for grid in (g.square_grid(33), g.square_grid(9, 3)):
        x, n, sp = grid.meshes, grid.dim, grid.spacing
        phi = np.exp(0.5j * sum((k + 1) * xk for k, xk in enumerate(x))) \
            * (1.0 + 0.3 * x[0] * x[-1]) + x[1] ** 3
        comps = [np.cos(x[(k + 1) % n]) * phi + 1j * x[k] ** 2 for k in range(n)]
        v = g.VectorField(grid, np.stack(comps, axis=-1))
        amat = np.einsum("i...,j...->...ij", comps, comps) + phi[..., None, None] * np.eye(n)
        gphi = g.gradient(g.ScalarField(grid, phi))
        out[grid.shape] = {
            "grad_values": g.grad_values(phi, sp),
            "hess_values": g.hess_values(phi, sp),
            "divergence": g.divergence(v).values,
            "divergence_tensor": g.divergence_tensor(
                g.SymTensorField.from_matrix(grid, amat)).values,
            "curl_residual": (g.curl_residual(v), g.curl_residual(gphi)),
            "integrate_gradient": g.integrate_gradient(gphi).values,
        }
    return out


def _archives(g) -> tuple[list, list]:
    """For a tensor, vector and scalar field: the file ``save_field`` writes,
    and the kind, grid and values ``load_field`` reads back from it.  The
    second list is equal across trees whose archive formats carry the same
    numbers, even where the bytes differ."""
    coeffs = g.PRESETS["smooth-complex-2d"].coefficients(g.square_grid(33))
    files, values = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for f in (coeffs.a, coeffs.b, coeffs.c):
            path = os.path.join(tmp, f"{f.kind}.json")
            g.save_field(f, path)
            with open(path, "rb") as fh:
                files.append(fh.read())
            back = g.load_field(path)
            values.append((back.kind, back.grid.shape, back.grid.extent, back.values))
    return files, values


def _archive_modes(g) -> dict:
    """Runs that write to an output directory, each into its own temporary
    one: synthesize mode, reconstruct mode on the archives it wrote, and the
    roundtrip, qpat and elasto modes.  Each report, without timings, config
    echo and directories, and the name, kind, grid and values of every
    archive the run wrote."""
    items = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [os.path.join(tmp, "syn", f"solution_{j}.json") for j in range(5)]
        runs = {
            "synthesize smooth-complex-2d 33": ("syn", g.ExperimentConfig(
                mode="synthesize", preset="smooth-complex-2d", grids=[33])),
            "reconstruct 17/8 on its archives": ("rec", g.ExperimentConfig(
                mode="reconstruct", inputs=inputs,
                engine=g.EngineConfig(patch_size=17, overlap=8))),
            "roundtrip smooth-complex-2d [17, 33] noisy to a directory": (
                "round", g.ExperimentConfig(mode="roundtrip", preset="smooth-complex-2d",
                                            grids=[17, 33], noise=[0.0, 1e-4])),
            "qpat 33 to a directory": ("qpat", g.ExperimentConfig(
                mode="qpat", preset="qpat-demo", grids=[33])),
            "elasto 33 to a directory": ("elasto", g.ExperimentConfig(
                mode="elasto", preset="elasto-demo", grids=[33])),
        }
        for name, (sub, cfg) in runs.items():
            out = os.path.join(tmp, sub)
            report = _attempt(lambda: g.run(cfg, out).to_dict())
            if isinstance(report, dict):
                del report["config"]
                for entry in report["entries"]:
                    if "outputs" in entry:
                        entry["outputs"] = [os.path.basename(p) for p in entry["outputs"]]
            items[f"run {name}"] = _without_timings(report)
            items[f"run {name}: archive values"] = _attempt(lambda: _archive_values(g, out))
    return items


def _archive_values(g, directory) -> list:
    """(file name, kind, grid shape, extent, values) of each field archive in
    ``directory``, in name order."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name != "report.json":
            f = g.load_field(os.path.join(directory, name))
            out.append((name, f.kind, f.grid.shape, f.grid.extent, f.values))
    return out


def _stages(g, data) -> dict:
    rb = g.build_ratios(data)
    fr = g.build_frame(rb)
    mb = g.build_M(rb, fr)
    rep = g.reconstruct_class(rb, fr, mb)
    return {"frame": _arrays(fr, ("Hinv", "cond", "ok")),
            "M": _arrays(mb, ("M", "M0", "indep", "ok")),
            "class": (rep.triple_arrays(), rep.diagnostics)}


def _planted_stages(g) -> dict:
    """``build_M`` on the cgo 3D ratios at 9^3 where the ratio of M^2 takes
    the derivatives of M^1's ratio at four nodes, so M^2 = M^1 there, and a
    NaN enters M^1 at a fifth; then the error ``reconstruct_class`` ends in
    (type, message, nodes)."""
    rb = g.build_ratios(g.cgo_family(g.square_grid(9, 3)).fields())
    fr = g.build_frame(rb)
    w1, w2 = [j for j in range(len(rb.v)) if j not in fr.frame][:2]
    grad, hess = rb.grad_v.copy(), rb.hess_v.copy()
    for node in ((0, 0, 0), (4, 4, 4), (8, 2, 5), (3, 8, 0)):
        grad[(w2,) + node] = grad[(w1,) + node]
        hess[(w2,) + node] = hess[(w1,) + node]
    hess[w1, 1, 4, 6, 0, 1] = hess[w1, 1, 4, 6, 1, 0] = np.nan
    rb = dataclasses.replace(rb, grad_v=grad, hess_v=hess)
    mb = g.build_M(rb, fr)
    try:
        g.reconstruct_class(rb, fr, mb)
        error = "not raised"
    except g.ToolkitError as exc:
        error = (type(exc).__name__, str(exc), getattr(exc, "nodes", None))
    return {"M": _arrays(mb, ("M", "M0", "indep", "ok")), "class": error}


def _spiked_stages(g) -> dict:
    """``build_M``'s M0, indep and ok and ``reconstruct_class``'s
    diagnostics on ``smooth-complex-2d`` at 33^2 with u_4 scaled by 1e3 at
    node (10, 20)."""
    grid = g.square_grid(33)
    preset = g.PRESETS["smooth-complex-2d"]
    data = g.synthesize(preset.coefficients(grid), preset.illumination(grid))
    spiked = data[3].values.copy()
    spiked[10, 20] *= 1e3
    data[3] = g.ScalarField(grid, spiked)
    rb = g.build_ratios(data)
    fr = g.build_frame(rb)
    mb = g.build_M(rb, fr)
    return {"M": _arrays(mb, ("M0", "indep", "ok")),
            "class": g.reconstruct_class(rb, fr, mb).diagnostics}


def _strip(x1, x2, redundant=False) -> list:
    """Criterion 11's data on the meshes x1, x2: the minimal five fields,
    whose (Id, M^1, M^2) are dependent on the column x1 = 0.5, and with
    ``redundant`` two more, which let a patch route around it."""
    w = (x1 + 1j * x2) - (0.5 - 0.3j)
    values = [np.ones_like(x1), x1, x2, x1 * x2, np.real(w ** 3) / 6]
    if redundant:
        values += [(x1**2 - x2**2) / 2, np.imag(w ** 3) / 6]
    return values


# name -> (grid size, the fields' values on its meshes)
_INADMISSIBLE = {
    # the ratios x1 and x1 make a singular frame Gram matrix everywhere
    "duplicated frame": (17, lambda x1, x2: [np.ones_like(x1), x1, x1, x1 * x2,
                                             (x1**2 - x2**2) / 2]),
    "minimal strip": (33, _strip),
}


def _stage_errors(g) -> dict:
    """The typed error that build_ratios, build_frame, build_M and
    reconstruct_class, run in turn, end in on inadmissible data: its type,
    message and nodes, whichever stage raises it."""
    out = {}
    for name, (size, values) in _INADMISSIBLE.items():
        grid = g.square_grid(size)
        u = [g.ScalarField(grid, v.astype(complex)) for v in values(*grid.meshes)]
        try:
            rb = g.build_ratios(u)
            fr = g.build_frame(rb)
            g.reconstruct_class(rb, fr, g.build_M(rb, fr))
            out[name] = "not raised"
        except g.ToolkitError as exc:
            out[name] = (type(exc).__name__, str(exc), getattr(exc, "nodes", None))
    return out


def _global(g, data, engine) -> dict:
    """The representative and patch map of ``reconstruct_global``; on a
    ``CoverageFailure``, the partial ones, and the error's type, message and
    uncovered nodes."""
    try:
        (rep, pm), failure = g.reconstruct_global(data, engine), {}
    except g.CoverageFailure as exc:
        (rep, pm) = exc.partial
        failure = {"raised": (type(exc).__name__, str(exc), exc.uncovered)}
    return {"representative": (rep.a.values, rep.b_plus_diva.values, rep.c.values,
                               rep.b.values),
            "patch_map": (pm.boxes, pm.admissible, pm.selections, pm.scores, pm.signs,
                          pm.coverage), **failure}


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
    # a rectangular grid with unequal spacings, so the per-axis terms of the
    # Poisson solve are compared too
    wide = g.Grid((17, 25), ((0.0, 1.0), (0.0, 2.0)))
    coeffs_w = preset.coefficients(wide)
    rep_w, _ = g.reconstruct_global(g.synthesize(coeffs_w, preset.illumination(wide)))
    tau_w = g.unit_truth(coeffs_w)[3]
    diag_w = {}
    items["tau b = 0, trace anchor, 17x25 over (0,1)x(0,2)"] = _attempt(
        lambda: (g.recover_tau_b_zero(rep_w, g.BoundaryTrace.from_node_values(wide, tau_w),
                                      diagnostics=diag_w).values, diag_w))
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
    return items


def _route(g, coeffs, recover):
    grid = coeffs.grid
    rep, _ = g.reconstruct_global(g.synthesize(coeffs, g.harmonic_family(grid)))
    anchor = g.BoundaryTrace.from_node_values(grid, g.unit_truth(coeffs)[3])
    return recover(rep, anchor).values


_MISSING = object()


def _leaves(a, b, path: str):
    """(path, a, b) for each pair of leaves of two outputs, in order; where
    their structure differs, (path, message, _MISSING) instead."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        yield path, a, b
    elif isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                yield f"{path}.{k}", f"only in {'B' if k in b else 'A'}", _MISSING
            else:
                yield from _leaves(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            yield path, f"{type(a).__name__}[{len(a)}] vs {type(b).__name__}[{len(b)}]", _MISSING
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from _leaves(x, y, f"{path}[{i}]")
    else:
        yield path, a, b


def _inexact(a, b) -> tuple[np.ndarray, np.ndarray] | None:
    """Both leaves as arrays when they are float or complex of one type and
    shape, else None."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        ok = a.shape == b.shape and a.dtype == b.dtype and a.dtype.kind in "fc"
        return (a, b) if ok else None
    if isinstance(a, (float, complex)) and type(a) is type(b):
        return np.asarray(a), np.asarray(b)
    return None


def _relative_difference(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """(max|a - b| / max|a|, max|a - b|, max|a|) over the finite entries;
    all inf where the non-finite entries differ in position or value."""
    fin = np.isfinite(a)
    if not (np.array_equal(fin, np.isfinite(b))
            and np.array_equal(a[~fin], b[~fin], equal_nan=True)):
        return np.inf, np.inf, np.inf
    diff = float(np.abs(a[fin] - b[fin]).max(initial=0.0))
    scale = float(np.abs(a[fin]).max(initial=0.0))
    rel = diff / scale if scale > 0.0 else (np.inf if diff > 0.0 else 0.0)
    return rel, diff, scale


def _figures(rel: float, diff: float, scale: float) -> str:
    if diff == np.inf and scale == np.inf:
        return f"{rel:.3g} (non-finite entries differ)"
    return f"{rel:.3g} (max|a - b| {diff:.3g}, max|a| {scale:.3g})"


def _leaf_difference(a, b, rtol: float | None, where: str) -> str | None:
    pair = _inexact(a, b) if rtol is not None else None
    if pair is not None:
        figures = _relative_difference(*pair)
        if where.endswith("eq_residual"):  # already relative to its equation's terms
            return None if figures[1] <= rtol else \
                f"max|a - b| above {rtol:g}: relative difference {_figures(*figures)}"
        return None if figures[0] <= rtol else \
            f"relative difference {_figures(*figures)} above {rtol:g}"
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype:
            return f"shape/dtype {a.shape} {a.dtype} vs {b.shape} {b.dtype}"
        nan_ok = a.dtype.kind in "fc"
        return None if np.array_equal(a, b, equal_nan=nan_ok) else "values"
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return None  # both NaN
    if isinstance(a, bytes) and isinstance(b, bytes) and a != b:
        at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"{len(a)} vs {len(b)} bytes, first difference at byte {at}"
    return None if type(a) is type(b) and a == b else f"{a!r} vs {b!r}"


def first_difference(a, b, path: str = "item", rtol: float | None = None) -> str | None:
    """The path of the first place where ``a`` and ``b`` differ, else None.

    Without ``rtol`` every leaf must be equal bit for bit (NaN equal to NaN).
    With it, a float or complex leaf passes when its non-finite entries
    match in position and value and max|a - b| <= rtol max|a| over the rest,
    or max|a - b| <= rtol for an ``eq_residual`` leaf; every other leaf must
    still be equal.
    """
    for where, x, y in _leaves(a, b, path):
        diff = x if y is _MISSING else _leaf_difference(x, y, rtol, where)
        if diff:
            return f"{where}: {diff}"
    return None


def largest_difference(a, b) -> tuple[float, str, float, float]:
    """(relative difference, path, max|a - b|, max|a|) of the float or complex
    leaf, of those ``a`` and ``b`` both hold with one type and shape, whose
    :func:`_relative_difference` is largest; (0.0, "", 0.0, 0.0) if none."""
    found = [(*_relative_difference(*pair), where) for where, x, y in _leaves(a, b, "item")
             if y is not _MISSING and (pair := _inexact(x, y)) is not None]
    rel, diff, scale, where = max(found, key=lambda f: f[0], default=(0.0, 0.0, 0.0, ""))
    return rel, where, diff, scale


def _run_tree(src: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **{k: "1" for k in _THREADS})
    subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", out],
                   env=env, check=True)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        with open(argv[1], "wb") as fh:
            pickle.dump(collect(), fh)
        return 0
    parser = argparse.ArgumentParser(
        prog="python tools/same_outputs.py",
        description="Compare the outputs of two gaugerec source trees.")
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--rtol", type=float, default=None,
                        help="pass float and complex leaves within this relative difference")
    args = parser.parse_args(argv)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, src in enumerate((args.a_src, args.b_src)):
            path = os.path.join(tmp, f"{k}.pkl")
            _run_tree(src, path)
            with open(path, "rb") as fh:
                outputs.append(pickle.load(fh))
    a, b = outputs
    names = list(a) + [k for k in b if k not in a]
    differ = 0
    for name in names:
        if name not in a or name not in b:
            print(f"DIFFERS  {name}: item only in {'B' if name in b else 'A'}")
            differ += 1
            continue
        if first_difference(a[name], b[name]) is None:
            continue
        rel, where, *figures = largest_difference(a[name], b[name])
        rel = f"largest relative difference {_figures(rel, *figures)} at {where}"
        diff = first_difference(a[name], b[name], rtol=args.rtol)
        if diff:
            differ += 1
            print(f"DIFFERS  {name}: {diff}; {rel}")
        else:
            print(f"WITHIN   {name}: {rel}")
    print(f"{len(names) - differ} of {len(names)} items equal"
          + ("" if args.rtol is None else f" within rtol {args.rtol:g}"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
