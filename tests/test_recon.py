"""The pointwise class engine: identities, failure modes, patching."""

import ast
import functools
import gc
import itertools
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaugerec import (
    CoverageFailure,
    EngineConfig,
    FrameDegenerate,
    GridMismatch,
    MDependent,
    ScalarField,
    VanishingGauge,
    VanishingU1,
    build_M,
    build_frame,
    build_ratios,
    cgo_family,
    complement_basis,
    constant_tensor_family,
    harmonic_family,
    reconstruct_class,
    reconstruct_global,
    square_grid,
    unit_gauge_triple,
)
from gaugerec import recon
from gaugerec.errors import ConfigError
from gaugerec.fields import Grid
from gaugerec.harness import PRESETS, triple_errors, unit_truth
from gaugerec.illum import num_generators
from gaugerec.forward import synthesize


def harmonic_fields(grid):
    return harmonic_family(grid).fields()


# ---------------------------------------------------------------------------
# Exact identities on the trivial class
# ---------------------------------------------------------------------------

def test_constant_class_pieces_are_exact():
    grid = square_grid(33)
    rb = build_ratios(harmonic_fields(grid))
    fr = build_frame(rb)
    assert tuple(fr.frame) == (0, 1)
    mb = build_M(rb, fr)
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert np.abs(mb.M[0] - off).max() == 0.0
    assert np.abs(mb.M[1] - diag).max() == 0.0
    assert np.abs(mb.M0 - np.eye(2) / np.sqrt(2)).max() < 1e-15
    rep = reconstruct_class(rb, fr, mb)
    assert np.abs(rep.a.as_matrix() - np.eye(2) / np.sqrt(2)).max() < 1e-15
    assert np.abs(rep.b_plus_diva.values).max() < 1e-13
    assert np.abs(rep.c.values).max() < 1e-13


def test_unit_gauge_triple_normalization():
    grid = square_grid(17)
    x1, x2 = grid.meshes
    scale = (1.3 + 0.6 * x1 + 0.2j * x2)
    a = np.einsum("..., ij -> ...ij", scale,
                  np.array([[1.0, 0.2], [0.2, 2.0]], dtype=complex))
    bpda = np.stack([x2, x1], axis=-1).astype(complex)
    c = (x1 * x2).astype(complex)
    a_u, b_u, c_u, tau = unit_gauge_triple(a, bpda, c)
    pair = np.einsum("...ij,...ij->...", a_u, a_u)
    assert np.abs(pair - 1.0).max() < 1e-12
    # the same scalar multiple relates every component
    assert np.abs(a_u * tau[..., None, None] - a).max() < 1e-12
    assert np.abs(b_u * tau[..., None] - bpda).max() < 1e-12
    assert np.abs(c_u * tau - c).max() < 1e-12


def test_unit_gauge_triple_removes_planted_sign_flips_in_3d():
    grid = square_grid(11, dim=3)
    x1, x2, x3 = grid.meshes
    # the phase of tau passes pi/2, so the principal root of Tr(a a) jumps
    # sign inside the box and only the continuity scan can undo it
    tau = (1.0 + 0.2 * x1) * np.exp(1j * 1.2 * np.pi * (x1 + x2 + x3) / 3)
    a0 = np.diag([1.0, 1.5, 2.0]) + 0.1j * np.ones((3, 3))
    unit0 = a0 / np.sqrt(np.trace(a0 @ a0))
    a = np.einsum("..., ij -> ...ij", tau, unit0)
    bpda = np.stack([x2, x3, x1], axis=-1).astype(complex)
    c = (x1 * x2 * x3).astype(complex)
    flips = np.random.default_rng(5).choice([-1.0, 1.0], size=grid.shape)
    assert (flips < 0).sum() > 100
    for sgn in (np.ones(grid.shape), flips):
        a_u, b_u, c_u, scale = unit_gauge_triple(
            a * sgn[..., None, None], bpda * sgn[..., None], c * sgn)
        assert np.abs(scale - sgn * tau).max() < 1e-12
        assert np.abs(a_u - unit0).max() < 1e-12
        assert np.abs(b_u * tau[..., None] - bpda).max() < 1e-12
        assert np.abs(c_u * tau - c).max() < 1e-12


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def test_vanishing_first_field_is_rejected():
    grid = square_grid(17)
    x1, x2 = grid.meshes
    u1 = ScalarField(grid, (x1 - 0.5).astype(complex))
    u2 = ScalarField(grid, x2.astype(complex))
    with pytest.raises(VanishingU1):
        build_ratios([u1, u2])


def _lapack_regular(H):
    """The singular-node rule written with LAPACK's determinant."""
    scale = np.maximum(np.abs(H).max(axis=(-2, -1)), recon._TINY)
    return np.abs(np.linalg.det(H)) > (1e-14 * scale) ** H.shape[-1]


def _closed_form(H):
    """The engine's frame data (H, Hinv, cond, ok) of symmetric H, read
    from the entries on and below the diagonal."""
    n = H.shape[-1]
    h = {(i, j): H[..., j, i] for i in range(n) for j in range(i, n)}
    return recon._frame_from_gram(h, tuple(range(n)))


def _frob(A):
    return np.sqrt(np.sum(np.abs(A) ** 2, axis=(-2, -1)))


@pytest.mark.parametrize("shape, n", [((17, 17), 2), ((9, 9, 9), 3)])
def test_closed_form_inverse_matches_lapack(shape, n):
    rng = np.random.default_rng(11)
    B = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    H = n * np.eye(n) + 0.2 * (B + np.swapaxes(B, -1, -2))
    fr = _closed_form(H)
    Hinv, ok = fr.Hinv, fr.ok
    assert ok.all() and np.array_equal(ok, _lapack_regular(H))
    ref = np.linalg.inv(H)
    err = np.abs(Hinv - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert err.max() <= 1e-13
    assert np.abs(H @ Hinv - np.eye(n)).max() <= 1e-13
    ref_cond = _frob(H) * _frob(ref)
    assert np.abs(fr.cond / ref_cond - 1.0).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_inverse_flags_singular_nodes(n):
    """Rank-one H from parallel gradients, a zero matrix and non-finite
    nodes get the identity, ``ok == False`` and an infinite condition
    number, as under the LAPACK rule.  A complex rank-one H has det exactly
    0 in closed form too; LAPACK's pivoted elimination of it can leave a
    roundoff det (2.5e-16 in 2D)."""
    def rank_one(g):
        G = np.stack([np.asarray(g[:n]) * 2.0 ** k for k in range(n)])
        return G @ G.T
    H = np.stack([np.eye(n), rank_one([0.3, -0.7, 0.2]), np.zeros((n, n))]
                 + [np.eye(n)] * 3).astype(complex)
    H[3, 0, 0] = np.nan
    H[4, n - 1, 0] = np.inf
    H[5, :, :] = -np.inf
    # the closed form reads a symmetric matrix, as the engine's H is one by
    # construction: mirror the lower triangle
    Hsym = np.tril(H) + np.swapaxes(np.tril(H, -1), -1, -2)
    with np.errstate(all="ignore"):  # as inside the engine's slabs
        fr = _closed_form(Hsym)
        lapack_ok = _lapack_regular(Hsym)
    Hinv, ok, cond = fr.Hinv, fr.ok, fr.cond
    assert ok.tolist() == [True] + [False] * 5
    assert np.array_equal(ok, lapack_ok)
    assert np.array_equal(Hinv[1:], np.broadcast_to(np.eye(n), (5, n, n)))
    assert np.array_equal(np.isinf(cond), ~lapack_ok)
    assert cond[0] == n  # ||Id|| ||Id^-1|| = sqrt(n)^2
    H1 = rank_one([0.3 + 0.1j, -0.7, 0.2j])[None]
    fr = _closed_form(H1)
    assert not fr.ok[0] and np.array_equal(fr.Hinv[0], np.eye(n))
    assert np.isinf(fr.cond[0])


@pytest.mark.parametrize("data", ["cgo 9^3", "smooth-complex-2d 17^2"])
def test_frame_is_the_gram_block_and_inverts_it(data):
    # on engine data H^-1 inverts the block of the bilinear products to
    # roundoff wherever H is regular
    if data.startswith("cgo"):
        u = cgo_family(square_grid(9, 3)).fields()
    else:
        preset = PRESETS["smooth-complex-2d"]
        grid = square_grid(17)
        u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    rb = build_ratios(u)
    fr = build_frame(rb)
    n = rb.grid.dim
    h = recon._gram(rb.grad_v[:n])
    H = np.empty(rb.grid.shape + (n, n), dtype=complex)
    for i, j in itertools.product(range(n), repeat=2):
        H[..., i, j] = h[min(i, j), max(i, j)]
    assert fr.ok.all()
    assert np.abs(H @ fr.Hinv - np.eye(n))[fr.ok].max() <= 1e-13


def test_degenerate_frame_is_rejected():
    grid = square_grid(17)
    x1, x2 = grid.meshes
    ones = ScalarField(grid, np.ones(grid.shape, dtype=complex))
    f = ScalarField(grid, x1.astype(complex))
    rest = [ScalarField(grid, (x1 * x2).astype(complex)),
            ScalarField(grid, ((x1**2 - x2**2) / 2).astype(complex))]
    rb = build_ratios([ones, f, f] + rest)
    fr = build_frame(rb)
    mb = build_M(rb, fr)
    with pytest.raises(FrameDegenerate):
        reconstruct_class(rb, fr, mb)


def test_dependent_curvatures_are_rejected(strip_fields):
    grid = square_grid(33)
    rb = build_ratios(strip_fields(grid, redundant=False))
    fr = build_frame(rb)
    mb = build_M(rb, fr)
    with pytest.raises(MDependent) as info:
        reconstruct_class(rb, fr, mb)
    cols = {int(c) for _, c in info.value.nodes}
    assert 16 in cols  # the x1 = 0.5 column on a 33-node axis


def test_one_independence_threshold_governs_selector_and_class(monkeypatch):
    # INDEP_MIN above any singular value of (Id, M^1, ..) leaves no node
    # admissible for either consumer of the rule
    monkeypatch.setattr(recon, "INDEP_MIN", 10.0)
    u = harmonic_fields(square_grid(17))
    with pytest.raises(CoverageFailure) as info:
        reconstruct_global(u)
    assert len(info.value.uncovered) == 17 * 17
    rb = build_ratios(u)
    fr = build_frame(rb)
    with pytest.raises(MDependent, match="independence at 10") as info:
        reconstruct_class(rb, fr, build_M(rb, fr))
    assert len(info.value.nodes) == 17 * 17


def _literal_reason(cond, indep, ok):
    """The admissibility rule of one node, written out."""
    if not cond <= recon.COND_MAX:
        return 1
    if not indep >= recon.INDEP_MIN:
        return 2
    return 0 if ok else 3


def test_reasons_name_the_first_failing_condition_at_planted_nodes():
    # the bounds are inclusive; NaN and inf fail; where several conditions
    # fail the first is named; every other node of a random field reads
    # what the literal rule reads
    cmax, imin = recon.COND_MAX, recon.INDEP_MIN
    rng = np.random.default_rng(4)
    cond = cmax * 10.0 ** rng.uniform(-6, 0.5, (9, 9))
    indep = imin * 10.0 ** rng.uniform(-0.5, 8, (9, 9))
    ok = rng.random((9, 9)) > 0.1
    planted = {(0, 0): (cmax, imin, True, 0), (0, 1): (np.nan, 1.0, True, 1),
               (0, 2): (np.inf, 1.0, True, 1), (0, 3): (1.0, np.nan, True, 2),
               (0, 4): (np.nan, np.nan, False, 1), (0, 5): (2 * cmax, 0.0, True, 1),
               (0, 6): (1.0, 1.0, False, 3), (0, 7): (1.0, 0.0, False, 2)}
    for node, (c, i, o, _) in planted.items():
        cond[node], indep[node], ok[node] = c, i, o
    got = recon._reasons(cond, indep, ok)
    assert got.dtype == np.uint8
    assert {node: int(got[node]) for node in planted} == \
        {node: want for node, (*_, want) in planted.items()}
    literal = [[_literal_reason(*args) for args in zip(*rows)] for rows in zip(cond, indep, ok)]
    assert got.tolist() == literal
    assert set(got.flat) == {0, 1, 2, 3}


def test_the_admissibility_bounds_are_compared_only_in_reasons():
    # one rule: COND_MAX and INDEP_MIN meet a comparison in recon._reasons
    # and nowhere else in the module, so the selector and reconstruct_class
    # cannot judge a node differently
    bounds, found = {"COND_MAX", "INDEP_MIN"}, []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Compare):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} & bounds
            found.extend((where, name) for name in sorted(names))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(Path(recon.__file__).read_text()), None)
    assert sorted(found) == [("_reasons", "COND_MAX"), ("_reasons", "INDEP_MIN")]


@pytest.mark.parametrize("frame, generators, message", [
    ((0, -1), (1, 3), "frame index -1 is out of range for 4 ratios"),
    ((0, 4), (1, 2), "frame index 4 is out of range for 4 ratios"),
    ((1, 1), (2, 3), "frame index 1 is repeated"),
    ((0, 1), (2, 2), "generators index 2 is repeated"),
    ((0, 1), (2, 4), "generators index 4 is out of range"),
    ((0, 1), (-2, 3), "generators index -2 is out of range"),
])
def test_frame_and_generator_indices_are_checked(frame, generators, message):
    # a negative index was taken from the end, so frame (0, -1) was (0, 3)
    # and generators (1, 3) passed the overlap check; a repeated generator
    # failed later as MDependent, and one past the end as numpy's IndexError
    rb = build_ratios(harmonic_fields(square_grid(17)))
    with pytest.raises(ValueError, match=re.escape(message)):
        build_M(rb, build_frame(rb, frame), generators)


def test_fields_on_grids_of_different_shape_are_rejected():
    fields = harmonic_fields(square_grid(33))[:3] + harmonic_fields(square_grid(41))[3:]
    with pytest.raises(GridMismatch) as info:
        reconstruct_global(fields)
    assert info.value.index == 3
    with pytest.raises(GridMismatch):
        build_ratios(fields)


def test_fields_on_grids_of_different_extent_are_rejected():
    wide = square_grid(33, extent=((0.0, 1.0), (0.0, 2.0)))
    fields = harmonic_fields(square_grid(33))
    fields[1] = ScalarField(wide, fields[1].values)
    with pytest.raises(GridMismatch) as info:
        reconstruct_global(fields)
    assert info.value.index == 1
    with pytest.raises(GridMismatch):
        build_ratios(fields)


def test_engine_config_validation_paths():
    with pytest.raises(ConfigError, match="overlap"):
        EngineConfig(patch_size=17, overlap=17).validate()


@pytest.mark.parametrize("shape, box", [
    ((33, 33), (slice(8, 25), slice(12, 29))),
    ((33, 33), (slice(0, 17), slice(16, 33))),
    ((17, 17, 17), (slice(4, 13), slice(3, 12), slice(5, 14))),
    ((17, 17, 17), (slice(0, 9), slice(8, 17), slice(4, 13))),
])
def test_ratio_window_equals_ratios_of_the_dilated_crop(shape, box):
    # a patch needs only its own nodes of the full-grid bundle: interior
    # stencils reach one node per axis, so a crop dilated by two gives the
    # same bits (the crop's spacing is recomputed from its extent, which is
    # exact on these dyadic grids)
    preset = PRESETS["constant-tensor-3d" if len(shape) == 3 else "smooth-complex-2d"]
    grid = square_grid(shape[0], len(shape))
    fields = synthesize(preset.coefficients(grid), preset.illumination(grid))
    dilated = tuple(slice(max(sl.start - 2, 0), min(sl.stop + 2, m))
                    for sl, m in zip(box, shape))
    local = tuple(slice(sl.start - d.start, sl.stop - d.start)
                  for sl, d in zip(box, dilated))
    win = build_ratios(fields).window(box)
    ref = build_ratios([f.crop(dilated) for f in fields]).window(local)
    assert win.grid == ref.grid
    for name in ("v", "grad_v", "hess_v", "grad_u1", "hess_u1"):
        assert np.array_equal(getattr(win, name), getattr(ref, name)), name
    assert np.array_equal(win.u1, ref.u1)


@pytest.mark.parametrize("m, patch_size, overlap", [(65, 17, 14), (33, 31, 30)])
def test_a_zero_of_u1_next_to_a_patch_is_a_coverage_failure(strip_fields, m, patch_size,
                                                            overlap):
    # x1 vanishes on the grid line x1 = 0, which the strip's patches may try
    # as u_1.  At 65^2 and 17/14 a patch starts 3 nodes from that line; at
    # 33^2 and 31/30 one starts next to it, so its window's derivatives are
    # not finite and the candidate is not admissible.  Either used to raise
    # VanishingU1 out of reconstruct_global instead of this CoverageFailure.
    grid = square_grid(m)
    with pytest.raises(CoverageFailure) as info:
        reconstruct_global(strip_fields(grid, redundant=False),
                           EngineConfig(patch_size=patch_size, overlap=overlap))
    rep, pm = info.value.partial
    assert rep.grid == grid
    assert not pm.coverage.all()
    assert all(sel is not None for sel in pm.selections)


@pytest.mark.parametrize("shape, box", [
    ((33, 33), (slice(5, 14), slice(10, 19))),
    ((33, 33), (slice(0, 9), slice(24, 33))),
    ((17, 17, 17), (slice(5, 14), slice(5, 14), slice(5, 14))),
    ((17, 17, 17), (slice(0, 9), slice(8, 17), slice(5, 14))),
])
def test_candidate_windows_equal_the_engine_on_the_window(monkeypatch, shape, box):
    # the selector's full-grid fields, filled in slabs of 9 rows (33 rows
    # give three, and the first box crosses two of them) on the nodes of the
    # boxes that named a candidate, hold on a patch the bits the engine
    # computes on that patch alone; so do the per-box tables the patch
    # reads, and the unit-gauge triple it is blended with
    preset = PRESETS["constant-tensor-3d" if len(shape) == 3 else "smooth-complex-2d"]
    grid = square_grid(shape[0], len(shape))
    fields = synthesize(preset.coefficients(grid), preset.illumination(grid))
    caches = {}

    def select(sel):
        caches.update(sel=sel, picks=real_select(sel))
        return caches["picks"]

    real_select = recon._select_patches
    monkeypatch.setattr(recon, "_select_patches", select)
    monkeypatch.setattr(recon._Selector, "release", lambda self: None)  # readable after the run
    reconstruct_global(fields, EngineConfig(patch_size=9, overlap=4))
    selector = caches["sel"]
    k = selector.boxes.index(box)
    sel, _, key = caches["picks"][k]
    triple = selector.unit(*key).window(k, box)[:3]
    i1 = sel["u1"]
    others = [j for j in range(len(fields)) if j != i1]
    win = build_ratios([fields[i1]] + [fields[j] for j in others]).window(box)
    grad_v = selector.ratios(i1).grad_v
    ranked = []
    for c, frame in enumerate(selector.combos):
        cond = build_frame(win, frame=frame).cond
        field = recon._frame_conds(grad_v[list(frame)], [tuple(range(grid.dim))])[0]
        assert np.array_equal(field[box], cond), frame
        assert selector.worst_cond(i1, c)[k] == cond.max(), frame
        ranked.append((cond.max(), frame))
    assert list(selector.frames(i1, k)) == sorted(ranked)
    frame = tuple(others.index(j) for j in sel["frame"])
    subset = tuple(others.index(j) for j in sel["generators"])
    _, (score, reason, *_), *tables = selector.candidate(i1, frame, subset)
    fr = build_frame(win, frame=frame)
    mb = build_M(win, fr, generators=subset)
    margin = np.abs(win.u1) / np.abs(fields[i1].values).max()
    ok = mb.ok & fr.ok
    assert np.array_equal(reason[box], recon._reasons(fr.cond, mb.indep, ok))
    assert np.array_equal(score[box],
                          np.where(ok, margin / np.maximum(fr.cond, 1.0) * mb.indep, 0.0))
    assert [t[k] for t in tables] == [score[box].min(), (reason[box] == 0).all()]
    ref = unit_gauge_triple(*reconstruct_class(win, fr, mb).triple_arrays())
    for got, want in zip(triple, ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["smooth-complex-2d", "isotropic-c"])
def test_candidate_frame_condition_equals_the_ranking_field_by_bytes(name):
    # a box's frame ranking reads a frame's whole-grid condition field, its
    # admissibility the candidate's own cond, computed in the node budget's
    # slabs or on gathered chunks.  At 129^2 a whole-grid complex temporary
    # (266 kB) passes numpy's 256 kB elision size and a slab's does not;
    # every frame of every u_1 still reads the same bytes on both paths.
    preset = PRESETS[name]
    grid = square_grid(129)
    u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    sel = recon._Selector(u, grid, EngineConfig())
    assert len(sel.slabs) > 1
    nodes = np.nonzero(np.random.default_rng(6).random(grid.shape) < 0.3)
    chunk = (sel.slabs[0].stop - sel.slabs[0].start) * grid.shape[1]
    calls = [(rows,) for rows in sel.slabs] + [tuple(i[lo:lo + chunk] for i in nodes)
                                               for lo in range(0, nodes[0].size, chunk)]
    with np.errstate(all="ignore"):
        for i1 in range(len(u)):
            rb = sel.ratios(i1)
            for frame in sel.combos:
                field = recon._frame_conds(rb.grad_v[list(frame)], [(0, 1)])[0]
                for at in calls:
                    cond = build_frame(rb.gather(at), frame).cond
                    assert cond.tobytes() == field[at].tobytes(), (i1, frame)


def _lazy_case_data(strip_fields, name, m):
    if name.startswith("strip"):
        grid = square_grid(m)
        return grid, strip_fields(grid, redundant=name == "strip redundant")
    if name == "cgo-3d":
        grid = square_grid(m, 3)
        return grid, cgo_family(grid).fields()
    preset = PRESETS[name.removesuffix(" cgo")]
    grid = square_grid(m, preset.dim)
    ill = cgo_family(grid) if name.endswith(" cgo") else preset.illumination(grid)
    return grid, synthesize(preset.coefficients(grid), ill)


@pytest.mark.parametrize("name, m, patch_size, overlap, lifted", [
    ("smooth-complex-2d", 33, None, 0, False),
    ("smooth-complex-2d", 33, 17, 8, False),
    ("isotropic-c cgo", 33, 17, 8, False),  # every frame finite on every box
    ("strip redundant", 63, 17, 12, True),  # the column x1 = 0.5 is row 31, off the sample
    ("strip redundant", 65, 17, 12, False),  # ... and row 32 at 65^2, on it
    ("strip minimal", 63, 17, 12, True),    # most frames of every u_1 built on the grid
    ("strip minimal", 65, 17, 12, True),
    ("constant-tensor-3d", 9, None, 0, False),
    ("constant-tensor-3d", 13, 9, 4, True),  # singular frame nodes scattered off the sample
    ("cgo-3d", 9, None, 0, False),
])
def test_lazy_frame_order_equals_the_sorted_window_maxima(strip_fields, name, m, patch_size,
                                                          overlap, lifted):
    # every box walks the frames of each u_1 in the order of the largest
    # condition number on its window, though a frame's field is evaluated on
    # the whole grid only where its sampled bound can come first; the
    # sampled cond holds the bytes of the whole-grid field at the sample
    grid, u = _lazy_case_data(strip_fields, name, m)
    sel = recon._Selector(u, grid, EngineConfig(patch_size=patch_size, overlap=overlap))
    sample = (slice(None, None, recon._SAMPLE_STRIDE),) * grid.dim
    walked = 0
    for i1 in range(len(u)):
        rb = sel.ratios(i1)
        with np.errstate(all="ignore"):
            sampled = recon._frame_conds(np.ascontiguousarray(rb.grad_v[(slice(None),) + sample]),
                                         sel.combos)
            for c, frame in enumerate(sel.combos):
                field = recon._frame_conds(rb.grad_v[list(frame)], [tuple(range(grid.dim))])[0]
                assert sampled[c].tobytes() == field[sample].tobytes(), (i1, frame)
        for k, box in enumerate(sel.boxes):
            if not sel.finite(i1)[k]:
                continue
            win = rb.window(box)
            with np.errstate(all="ignore"):
                want = sorted((build_frame(win, frame=frame).cond.max(), frame)
                              for frame in sel.combos)
            got = list(itertools.islice(sel.frames(i1, k), recon._MAX_FRAMES))
            assert got == want[:recon._MAX_FRAMES], (i1, box)
            walked += 1
    assert walked >= len(sel.boxes)
    # off the sample: a frame the walks evaluated on the whole grid has a
    # finite bound on a walked box where its largest cond is inf
    evaluated = [key[1:] for key in sel._built if key[0] == "cond"]
    assert lifted == any(np.isfinite(sel.bounds(i1)[f, k]) and sel.worst_cond(i1, f)[k] == np.inf
                         for i1, f in evaluated for k in range(len(sel.boxes))
                         if sel.finite(i1)[k])


@pytest.mark.parametrize("shape, patch_size", [
    ((33, 33), 17),         # the last box starts at 33 - 17 = 16 on both axes
    ((40, 12), 17),         # patch_size >= m on axis 1: one window of 12 there
    ((97, 97), 17),
    ((17, 17, 17), 9),
    ((20, 9, 14), 9),       # patch_size = m on axis 1
    ((21, 21), None),       # one patch
])
def test_box_tables_equal_the_window_reductions(shape, patch_size):
    # every table entry is the literal reduction of its box, with NaN and
    # inf entries read as the window reductions read them
    cfg = EngineConfig(patch_size=patch_size, overlap=patch_size // 2 if patch_size else 8)
    axes = recon._patch_axes(shape, cfg)
    boxes = recon._patch_boxes(shape, cfg)
    for sl, m in zip(boxes[-1], shape):
        assert sl.stop == m and sl.start == max(m - (patch_size or m), 0)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2,) + shape)
    nodes = rng.choice(x.size, size=9, replace=False)
    x.reshape(-1)[nodes] = [np.nan] * 3 + [np.inf] * 3 + [-np.inf] * 3
    flags = rng.random((2,) + shape) > 2e-3
    tables = {"min": recon._box_reduce(x, axes, np.minimum),
              "max": recon._box_reduce(x, axes, np.maximum),
              "all": recon._box_reduce(flags, axes, np.logical_and),
              "any": recon._box_reduce(~flags, axes, np.logical_or)}
    assert all(t.shape == (2, len(boxes)) for t in tables.values())
    for k, box in enumerate(boxes):
        for j in range(2):
            window, held = x[j][box], flags[j][box]
            want = {"min": window.min(), "max": window.max(), "all": held.all(),
                    "any": (~held).any()}
            for name, value in want.items():
                assert np.array_equal(tables[name][j, k], value, equal_nan=True), (name, k)
    if patch_size:  # NaN, infinities and False each reach some boxes, not all
        for table in (tables["min"], tables["max"]):
            assert 0 < np.isnan(table).sum() < table.size
        assert 0 < np.isinf(tables["max"]).sum() and 0 < np.isinf(tables["min"]).sum()
        assert 0 < tables["all"].sum() < tables["all"].size


@pytest.mark.parametrize("m, patch_size, overlap", [(65, 17, 14), (33, 31, 30)])
def test_finite_table_equals_the_window_check(strip_fields, m, patch_size, overlap):
    # x1 vanishes on the grid line x1 = 0, so with it as u_1 the ratio
    # derivatives are not finite near that line; per box, the table reads
    # what the literal check of the window's derivatives reads
    grid = square_grid(m)
    u = strip_fields(grid, redundant=False)
    cfg = EngineConfig(patch_size=patch_size, overlap=overlap)
    sel = recon._Selector(u, grid, cfg)
    seen = set()
    for i1 in range(len(u)):
        rb = sel.ratios(i1)
        for k, box in enumerate(recon._patch_boxes(grid.shape, cfg)):
            win = rb.window(box)
            want = bool(np.isfinite(win.grad_v).all() and np.isfinite(win.hess_v).all())
            assert sel.finite(i1)[k] == want, (i1, box)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("name, m, patch_size, overlap", [
    ("smooth-complex-2d", 97, 17, 8),
    ("constant-tensor-3d", 17, 9, 4),
])
def test_unit_gauge_of_a_box_equals_the_gauge_of_its_window_copy(monkeypatch, name, m,
                                                                 patch_size, overlap):
    # a patch's unit gauge, its signs chained from the full-grid edge signs
    # and flipped at its center, is bitwise unit_gauge_triple of a copy of
    # its windows, on every admissible box with the triple that won it
    preset = PRESETS[name]
    grid = square_grid(m, preset.dim)
    u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    seen = {}

    def select(sel):
        seen["sel"] = sel
        return real_select(sel)

    real_select = recon._select_patches
    monkeypatch.setattr(recon, "_select_patches", select)
    monkeypatch.setattr(recon._Selector, "release", lambda self: None)  # readable after the run
    cfg = EngineConfig(patch_size=patch_size, overlap=overlap)
    _, pm = reconstruct_global(u, cfg)
    sel, checked = seen["sel"], 0
    for k, box in enumerate(recon._patch_boxes(grid.shape, cfg)):
        if not pm.admissible[k]:
            continue
        pick = pm.selections[k]
        others = [j for j in range(len(u)) if j != pick["u1"]]
        key = (pick["u1"], tuple(others.index(j) for j in pick["frame"]),
               tuple(others.index(j) for j in pick["generators"]))
        got = sel.unit(*key).window(k, box)
        want = unit_gauge_triple(*(x[box].copy() for x in sel.candidate(*key)[1][2:]))[:3]
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (k, box)
        checked += 1
    assert checked == len(pm.boxes)


def _planted_triple(grid, seed):
    """A triple whose a has random sign flips at about half the nodes, so
    every box chains its own unit-gauge signs."""
    n = grid.dim
    rng = np.random.default_rng(seed)
    tau = (1.0 + 0.2 * grid.meshes[0]) * np.exp(1j * 1.2 * np.pi * sum(grid.meshes) / n)
    a0 = np.diag(np.arange(1.0, n + 1.0)) + 0.1j * np.ones((n, n))
    flips = rng.choice([-1.0, 1.0], size=grid.shape)
    return [np.einsum("..., ij -> ...ij", tau * flips, a0),
            rng.standard_normal(grid.shape + (n,)) * (1 + 0j),
            rng.standard_normal(grid.shape) * (1 + 0j)]


@pytest.mark.parametrize("shape", [(33, 33), (17, 17, 17)])
def test_unit_gauge_of_a_box_chains_planted_flips_and_refuses_vanishing_boxes(shape):
    # random sign flips make about half the edges -1, so every box chains
    # its own signs; Tr(a a) = 0 at one node fails exactly the boxes that
    # hold it, as unit_gauge_triple fails on their windows
    grid = square_grid(shape[0], len(shape))
    triple = _planted_triple(grid, 8)
    zero = tuple(m // 3 for m in shape)
    triple[0][zero] = np.diag([1.0, 1j] + [0.0] * (grid.dim - 2))  # Tr(a a) = 1 - 1 = 0
    cfg = EngineConfig(patch_size=9, overlap=4)
    gauge = recon._UnitGauge(triple, recon._patch_axes(grid.shape, cfg))
    refused = 0
    for k, box in enumerate(recon._patch_boxes(grid.shape, cfg)):
        window = [x[box].copy() for x in triple]
        if all(sl.start <= z < sl.stop for sl, z in zip(box, zero)):
            with pytest.raises(VanishingGauge):
                unit_gauge_triple(*window)
            with pytest.raises(VanishingGauge):
                gauge.window(k, box)
            refused += 1
            continue
        for g, w in zip(gauge.window(k, box), unit_gauge_triple(*window)[:3]):
            assert g.tobytes() == w.tobytes(), (k, box)
    assert refused >= 1


@pytest.mark.parametrize("shape, wanted", [
    ((33, 33), "scattered"),    # nodes in every slab, none of them whole
    ((33, 33), "whole slab"),   # the middle slab whole, scattered above, none below
    ((27, 17, 17), "scattered"),
    ((27, 17, 17), "whole slab"),
])
def test_gathered_candidate_equals_the_windows_by_bytes(shape, wanted):
    # a candidate evaluated on a node set, in slabs of 9 rows, holds at
    # each node of the set the bytes _candidate gives on that node's slab
    # window, and NaN (reason 255) elsewhere; a whole slab goes as views of
    # its rows, and the nodes of the other slabs as gathered bundles of at
    # most a slab's node count, which cross slabs.  The 3D data are the
    # constant-tensor family's own polynomials, no solve.
    if len(shape) == 2:
        preset = PRESETS["smooth-complex-2d"]
        grid = square_grid(shape[0])
        u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    else:
        grid = Grid(shape, ((0.0, 1.0),) * 3)
        u = PRESETS["constant-tensor-3d"].illumination(grid).fields()
    rb = build_ratios(u)
    n = grid.dim
    frame, subset = tuple(range(n)), tuple(range(n, n + num_generators(n)))
    u1_max = float(np.abs(u[0].values).max())
    size = 9
    slabs = [slice(0, size), slice(size, 2 * size), slice(2 * size, shape[0])]
    mask = np.random.default_rng(2).random(shape) < 0.45
    if wanted == "whole slab":
        mask[slabs[1]] = True
        mask[slabs[2]] = False
    calls = []

    def kernel(bundle):
        calls.append((bundle.u1.ndim, bundle.u1.size))
        return recon._candidate(bundle, frame, subset, u1_max)

    got = recon._evaluate(rb, slabs, kernel, mask)
    chunk = mask[slabs[0]].size
    scattered = int(mask.sum()) - (chunk if wanted == "whole slab" else 0)
    sizes = [min(chunk, scattered - lo) for lo in range(0, scattered, chunk)]
    assert calls == [(n, chunk)] * (wanted == "whole slab") + [(1, m) for m in sizes]
    assert len(sizes) == (2 if wanted == "scattered" else 1)
    rest = (slice(None),) * (n - 1)
    for sl in slabs:
        with np.errstate(all="ignore"):
            ref = recon._candidate(rb.window((sl,) + rest), frame, subset, u1_max)
        held = mask[sl]
        for g, w in zip(got, ref):
            assert g[sl][held].tobytes() == w[held].tobytes()
            unset = g[sl][~held]
            assert (unset == 255).all() if g.dtype == np.uint8 else np.isnan(unset).all()


@pytest.mark.parametrize("shape", [(33, 33), (17, 17, 17)])
def test_unit_gauge_of_a_nan_filled_triple_equals_the_full_triple_on_its_boxes(shape):
    # outside the union of some boxes the triple is NaN: the edge signs
    # across NaN read +1, and a box chains only the signs inside itself, so
    # each of those boxes gets the bytes the full triple gives it
    grid = square_grid(shape[0], len(shape))
    triple = _planted_triple(grid, 8)
    cfg = EngineConfig(patch_size=9, overlap=4)
    axes, boxes = recon._patch_axes(grid.shape, cfg), recon._patch_boxes(grid.shape, cfg)
    chosen = list(range(0, len(boxes), 3))
    union = np.zeros(grid.shape, dtype=bool)
    for k in chosen:
        union[boxes[k]] = True
    assert 0.3 < union.mean() < 1.0
    partial = [np.where(union.reshape(union.shape + (1,) * (x.ndim - union.ndim)), x, np.nan)
               for x in triple]
    full, holed = recon._UnitGauge(triple, axes), recon._UnitGauge(partial, axes)
    for k in chosen:
        for g, w in zip(holed.window(k, boxes[k]), full.window(k, boxes[k])):
            assert g.tobytes() == w.tobytes(), k


@pytest.mark.parametrize("m, patch_size, most", [(97, 17, 1.15), (65, None, 1.0)])
def test_candidates_are_evaluated_only_on_the_boxes_that_name_them(monkeypatch, m,
                                                                   patch_size, most):
    # at 97^2 17/8 the majority candidate's boxes cover 91.7% of the nodes
    # and the minority's 20.6%, where a full-grid evaluation of both would
    # cost twice the grid; a single patch evaluates its one candidate once,
    # in whole slabs, on every node
    preset = PRESETS["smooth-complex-2d"]
    grid = square_grid(m)
    u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    calls = []

    def candidate(rb, *args):
        calls.append((rb.u1.size, rb.u1.ndim))
        return real_candidate(rb, *args)

    real_candidate = recon._candidate
    monkeypatch.setattr(recon, "_candidate", candidate)
    _, pm = reconstruct_global(u, EngineConfig(patch_size=patch_size, overlap=8))
    assert all(pm.admissible)
    nodes = sum(size for size, _ in calls)
    assert grid.num_nodes <= nodes <= most * grid.num_nodes
    if patch_size is None:
        assert nodes == grid.num_nodes and all(ndim == 2 for _, ndim in calls)
    else:
        assert len({tuple(sorted(s.items())) for s in pm.selections}) == 2
        assert any(ndim == 1 for _, ndim in calls)


@functools.cache
def _preset_data(name, m):
    """The synthesized data of preset ``name`` at ``m`` nodes per axis,
    shared by the tests that only read it."""
    preset = PRESETS[name]
    grid = square_grid(m, preset.dim)
    return synthesize(preset.coefficients(grid), preset.illumination(grid))


@pytest.mark.parametrize("name, m", [("smooth-complex-2d", 129), ("constant-tensor-3d", 17)])
def test_budgeted_slabs_keep_the_bits(monkeypatch, name, m):
    # a single patch evaluates its candidate in several slabs of the node
    # budget, and gets the bytes of one slab over the whole grid
    u = _preset_data(name, m)
    shape = u[0].grid.shape
    assert len(recon._budget_slabs(shape)) > 1
    rep, pm = reconstruct_global(u)
    monkeypatch.setattr(recon, "_SLAB_ENTRIES", 2 ** 62)
    assert recon._budget_slabs(shape) == [slice(0, shape[0])]
    whole, pm_whole = reconstruct_global(u)
    for field in ("a", "b_plus_diva", "c", "b"):
        assert getattr(rep, field).values.tobytes() == getattr(whole, field).values.tobytes()
    assert (pm.boxes, pm.admissible, pm.selections, pm.scores, pm.signs) == \
        (pm_whole.boxes, pm_whole.admissible, pm_whole.selections, pm_whole.scores,
         pm_whole.signs)
    assert pm.coverage.tobytes() == pm_whole.coverage.tobytes()


@pytest.mark.parametrize("name, m, slabs", [("constant-tensor-3d", 17, 5),
                                             ("smooth-complex-2d", 65, 1)])
def test_a_single_patch_candidate_stays_within_the_node_budget(monkeypatch, name, m, slabs):
    # each kernel call of a single patch holds whole rows of u_1, as views,
    # and at most the budget's nodes (1213 in 3D, 5461 in 2D); together the
    # calls cover every node once, and 65^2 fits in one call
    u = _preset_data(name, m)
    grid = u[0].grid
    budget = recon._SLAB_ENTRIES // ((num_generators(grid.dim) + 1) * grid.dim ** 2)
    seen = np.zeros(grid.num_nodes, dtype=int)
    calls = []

    def candidate(rb, *args):
        calls.append(rb.u1.size)
        assert rb.u1.shape[1:] == grid.shape[1:] and rb.u1.flags.c_contiguous
        full = next(f.values for f in u if np.shares_memory(rb.u1, f.values))
        start = rb.u1.__array_interface__["data"][0] - full.__array_interface__["data"][0]
        seen[start // full.itemsize:][:rb.u1.size] += 1
        return real_candidate(rb, *args)

    real_candidate = recon._candidate
    monkeypatch.setattr(recon, "_candidate", candidate)
    reconstruct_global(u)
    assert len(calls) == slabs and max(calls) <= budget
    assert (seen == 1).all()
    if slabs == 1:
        assert calls == [grid.num_nodes]


@pytest.mark.parametrize("name, m, patch_size, overlap", [("constant-tensor-3d", 17, 9, 4),
                                                          ("smooth-complex-2d", 97, 17, 8)])
def test_a_patched_candidate_stays_within_the_node_budget(monkeypatch, name, m, patch_size,
                                                          overlap):
    # patches do not change how a candidate is cut: every kernel call, a
    # slab of whole rows or a gathered bundle, holds at most the budget's
    # nodes (1213 in 3D, 5461 in 2D)
    u = _preset_data(name, m)
    grid = u[0].grid
    budget = recon._SLAB_ENTRIES // ((num_generators(grid.dim) + 1) * grid.dim ** 2)
    calls = []

    def candidate(rb, *args):
        calls.append(rb.u1.size)
        return real_candidate(rb, *args)

    real_candidate = recon._candidate
    monkeypatch.setattr(recon, "_candidate", candidate)
    _, pm = reconstruct_global(u, EngineConfig(patch_size=patch_size, overlap=overlap))
    assert len(pm.boxes) > 1 and all(pm.admissible)
    assert calls and max(calls) <= budget


@pytest.mark.parametrize("name, m, pin_mib", [("constant-tensor-3d", 17, 18.4),
                                              ("smooth-complex-2d", 129, 21.4)])
def test_the_single_patch_working_set_is_pinned(name, m, pin_mib):
    # the traced peak of one single-patch reconstruction read 14.69 MiB at
    # 17^3 (set by the whole-grid frame ranking) and 17.09 MiB at 129^2 (by
    # the candidate's slabs); with the candidate on the whole grid it read
    # 27.94 and 26.12 MiB.  The pins sit 25% above the slabbed readings.
    u = _preset_data(name, m)
    tracemalloc.start()
    try:
        reconstruct_global(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pin_mib * 2 ** 20


def test_a_single_patch_ranks_one_frame_on_the_whole_grid(monkeypatch):
    # constant-tensor-3d's 56 frames of u_1 are bounded on the sample, and
    # only the frame that comes first gets its condition field on the grid
    u = _preset_data("constant-tensor-3d", 17)
    shapes = []

    def frame_conds(G, frames):
        shapes.append((G.shape[1:-1], len(frames)))
        return real_frame_conds(G, frames)

    real_frame_conds = recon._frame_conds
    monkeypatch.setattr(recon, "_frame_conds", frame_conds)
    _, pm = reconstruct_global(u)
    assert pm.admissible == [True]
    assert shapes == [((9, 9, 9), 56), ((17, 17, 17), 1)]


@pytest.mark.parametrize("name, m, patch_size, overlap, pin_mib", [
    ("constant-tensor-3d", 17, 9, 4, 18.4),
    ("smooth-complex-2d", 97, 17, 8, 18.2),
])
def test_the_patched_working_set_is_pinned(name, m, patch_size, overlap, pin_mib):
    # the traced peak of one patched reconstruction read 14.74 MiB at 17^3
    # 9/4 and 14.56 MiB at 97^2 17/8, with candidates in slabs of the node
    # budget; in slabs of a patch's rows it read 28.03 and 10.56 MiB.  The
    # pins sit 25% above the budgeted readings.
    u = _preset_data(name, m)
    cfg = EngineConfig(patch_size=patch_size, overlap=overlap)
    tracemalloc.start()
    try:
        reconstruct_global(u, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pin_mib * 2 ** 20


@pytest.mark.parametrize("name, m, patch_size, overlap", [
    ("smooth-complex-2d", 97, 17, 8),
    ("constant-tensor-3d", 17, 9, 4),
])
def test_outputs_do_not_depend_on_the_sign_of_M0(monkeypatch, name, m, patch_size, overlap):
    # build_M leaves M0's sign per node as the pairing solve gives it: the
    # selector's unit gauge does not see it, and reconstruct_class orients it
    preset = PRESETS[name]
    grid = square_grid(m, preset.dim)
    u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    cfg = EngineConfig(patch_size=patch_size, overlap=overlap)
    small = square_grid(33 if preset.dim == 2 else 9, preset.dim)
    v = synthesize(preset.coefficients(small), preset.illumination(small))

    def outputs():
        rep, pm = reconstruct_global(u, cfg)
        rb = build_ratios(v)
        fr = build_frame(rb)
        cls = reconstruct_class(rb, fr, build_M(rb, fr))
        return ([f.values.tobytes() for f in (rep.a, rep.b_plus_diva, rep.c, rep.b)],
                pm.boxes, pm.admissible, pm.selections, np.array(pm.scores).tobytes(),
                pm.signs, pm.coverage.tobytes(),
                [x.tobytes() for x in (*cls.triple_arrays(), cls.b.values,
                                       *cls.diagnostics.values())])

    real_pairing = recon._pairing

    def pairing(stack):  # negate M0 at a seeded random half of the nodes
        indep, M0, ok = real_pairing(stack)
        flip = np.random.default_rng(4).random(M0.shape[:-2]) < 0.5
        return indep, np.where(flip[..., None, None], -M0, M0), ok

    want = outputs()
    monkeypatch.setattr(recon, "_pairing", pairing)
    rb = build_ratios(v)
    flipped = build_M(rb, build_frame(rb)).M0
    assert 0.4 < np.mean(flipped[..., 0, 0].real < 0) < 0.6  # the flips reach build_M
    assert outputs() == want


@pytest.mark.parametrize("data, m, patch_size", [
    ("strip-minimal", 65, 17),
    ("strip-redundant", 65, 17),
    ("constant-tensor-3d", 9, None),
])
def test_closed_form_cond_ranks_frames_like_the_inverse(strip_fields, data, m, patch_size):
    # at every (patch, u_1) the frames the selector tries, best conditioned
    # first, are the ones ||H|| ||H^-1|| with LAPACK's inverse would rank
    # there, in the same order; singular and non-finite nodes are inf in both
    if data.startswith("strip"):
        grid = square_grid(m)
        u = strip_fields(grid, redundant=data.endswith("redundant"))
    else:
        preset = PRESETS[data]
        grid = square_grid(m, preset.dim)
        u = synthesize(preset.coefficients(grid), preset.illumination(grid))
    boxes = recon._patch_boxes(grid.shape, EngineConfig(patch_size=patch_size, overlap=12))
    combos = list(itertools.combinations(range(len(u) - 1), grid.dim))
    eye = np.eye(grid.dim)

    def ranked(conds, box):
        return [combo for _, combo in sorted((float(c[box].max()), combo)
                                             for combo, c in zip(combos, conds))]

    pairs = 0
    for i1 in range(len(u)):
        with np.errstate(all="ignore"):
            rb = recon._ratios(grid, [u[i1], *u[:i1], *u[i1 + 1:]])
            h = recon._gram(rb.grad_v)
            closed = [recon._sym_frame(h, combo)[-1] for combo in combos]
            inverse = []
            for combo in combos:
                G = rb.grad_v[list(combo)]
                H = np.einsum("i...k,j...k->...ij", G, G)
                ok = _lapack_regular(H)
                Hinv = np.linalg.inv(np.where(ok[..., None, None], H, eye))
                inverse.append(np.where(ok, _frob(H) * _frob(Hinv), np.inf))
        for box in boxes:
            top = slice(recon._MAX_FRAMES)
            assert ranked(closed, box)[top] == ranked(inverse, box)[top], (i1, box)
            pairs += 1
    assert pairs == len(u) * len(boxes)


def _svd_least(rows):
    """Smallest and largest singular values of each node's matrix, whose
    rows are ``rows`` (K, p, *shape), by LAPACK's SVD; the smallest is NaN
    where an entry is not finite."""
    A = np.moveaxis(rows, (0, 1), (-2, -1))
    finite = np.isfinite(A).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], A, 0.0), compute_uv=False)
    return np.where(finite, sv[..., -1], np.nan), sv[..., 0]


def _preset_stack(name, m):
    """The stack (Id, M^1, M^2) that build_M pairs on a preset's data."""
    preset = PRESETS[name]
    grid = square_grid(m, preset.dim)
    rb = build_ratios(synthesize(preset.coefficients(grid), preset.illumination(grid)))
    mb = build_M(rb, build_frame(rb))
    eye = np.broadcast_to(np.eye(grid.dim, dtype=complex), mb.M.shape[1:])
    return np.concatenate([eye[None], mb.M])


def _stack_of_rows(rows):
    """Symmetric 2 x 2 matrices (3, *shape, 2, 2) whose vectorized rows
    (``recon._vectorize_sym``) are ``rows`` (3, 3, *shape) up to the
    rounding of the off-diagonal weight sqrt 2."""
    off = rows[:, 1] / np.sqrt(2.0)
    return np.stack([np.stack([rows[:, 0], off], axis=-1),
                     np.stack([off, rows[:, 2]], axis=-1)], axis=-2)


def _random_rows(m, seed):
    """Random complex 3 x 3 matrices on an m x m grid, as rows (3, 3, m, m).
    Every 7th node has sigma_3 = 1e-9 sigma_1.  Node 1 has sigma_2 = sigma_3,
    where the trigonometric formula's largest root loses half its digits;
    node 2 has rank 1; nodes 3-5 hold a NaN, an inf and both; nodes 8 and 9
    have sigma_2 = sigma_3 = 1e-9 sigma_1; nodes 10 and 11 are scaled by
    1e307 and 1e-300, where C C^H would overflow or underflow unscaled."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m * m, 3, 3)) + 1j * rng.standard_normal((m * m, 3, 3))
    u, s, vh = np.linalg.svd(A)
    s[::7, 2] = 1e-9 * s[::7, 0]
    s[1] = (1.0, 0.5, 0.5)
    s[2] = (1.0, 0.0, 0.0)
    s[8:10, 1:] = 1e-9 * s[8:10, :1]
    s[10:12] *= np.array([[1e307], [1e-300]])
    A = (u * s[:, None, :]) @ vh
    A[3, 0, 0] = np.nan
    A[4, 1, 2] = np.inf
    A[5, 2, 1] = complex(np.inf, np.nan)
    return np.moveaxis(A.reshape(m, m, 3, 3), (-2, -1), (0, 1))


@pytest.mark.parametrize("data", ["random", "isotropic-c", "smooth-complex-2d"])
def test_closed_form_independence_matches_the_svd(data):
    # |det A| / ||adj A||_2 is within 4 eps sigma_1 of LAPACK's sigma_3 at
    # every node, NaN at exactly the non-finite ones; where sigma_2 is tiny
    # too, the stated bound is eps sigma_1 (sigma_1 / sigma_2)
    # the random matrices as a stack whose rows are theirs to roundoff; the
    # non-finite and scaled nodes raise floating-point warnings on the way
    with np.errstate(all="ignore"):
        stack = _stack_of_rows(_random_rows(129, 5)) if data == "random" \
            else _preset_stack(data, 33)
        rows = recon._vectorize_sym(stack)
        got = recon._pairing(stack)[0]
    want, s1 = _svd_least(rows)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(want).sum() == (3 if data == "random" else 0)
    bound = 4 * np.finfo(float).eps * s1
    if data == "random":
        assert got.flat[2] <= bound.flat[2]  # rank 1 reads roundoff
        bound.flat[8:10] /= 1e-9
    assert np.nanmax(np.abs(got - want) / bound) <= 1.0


@pytest.mark.parametrize("redundant", [False, True], ids=["strip-minimal", "strip-redundant"])
def test_closed_form_independence_ranks_generators_like_the_svd(strip_fields, monkeypatch,
                                                                 redundant):
    # at every (patch, u_1, frame) the selector tries, the generator subsets
    # rank by worst-node score, admissible first, as they do with LAPACK's
    # SVD, and the selector picks the same winners
    grid = square_grid(65)
    u = strip_fields(grid, redundant=redundant)
    cfg = EngineConfig(patch_size=17, overlap=12)
    gmax = [float(np.abs(f.values).max()) for f in u]
    combos = list(itertools.combinations(range(len(u) - 1), 2))

    @functools.cache
    def scores(i1, frame, subset):
        # (closed-form score, SVD score, closed-form indep, SVD indep, ok)
        rb = ratios(i1)
        fr = build_frame(rb, frame)
        mb = build_M(rb, fr, subset)
        eye = np.broadcast_to(np.eye(2, dtype=complex), mb.M.shape[1:])
        svd = _svd_least(recon._vectorize_sym(np.concatenate([eye[None], mb.M])))[0]
        weight = np.abs(rb.u1) / gmax[i1] / np.maximum(fr.cond, 1.0)
        return weight * mb.indep, weight * svd, mb.indep, svd, mb.ok & fr.ok

    @functools.cache
    def ratios(i1):
        return recon._ratios(grid, [u[i1], *u[:i1], *u[i1 + 1:]])

    def keys(i1, frame, box, variant):
        # the selector's order: admissible first, then best worst-node score
        pool = [j for j in range(len(u) - 1) if j not in frame]
        out = {}
        for subset in itertools.islice(itertools.combinations(pool, 2), recon._MAX_SUBSETS):
            fields = scores(i1, frame, subset)
            score, indep, ok = fields[variant], fields[2 + variant], fields[4]
            core_ok = bool(ok[box].all())
            passes = core_ok and float(indep[box].min()) >= recon.INDEP_MIN
            out[subset] = (not passes, -float(score[box].min()) if core_ok else 0.0)
        return out

    tried = 0
    with np.errstate(all="ignore"):
        for box in recon._patch_boxes(grid.shape, cfg):
            margins = np.array([np.abs(f.values[box]).min() / gm for f, gm in zip(u, gmax)])
            for i1 in np.argsort(-margins, kind="stable"):
                rb = ratios(i1)
                if margins[i1] < recon.U1_FLOOR_REL or not (
                        np.isfinite(rb.window(box).grad_v).all()):
                    continue
                h = recon._gram(rb.window(box).grad_v)
                frames = sorted((float(recon._sym_frame(h, combo)[-1].max()), combo)
                                for combo in combos)
                for worst_cond, frame in frames[:recon._MAX_FRAMES]:
                    got, want = keys(i1, frame, box, 0), keys(i1, frame, box, 1)
                    order = sorted(want, key=want.get)
                    # every step of the SVD's order holds for the closed form,
                    # except between scores that tie to 1e-13 (some subsets
                    # tie exactly, and either rounding may order them)
                    for a, b in zip(order, order[1:]):
                        assert got[a] <= got[b] or (
                            got[a][0] == got[b][0]
                            and got[a][1] - got[b][1] <= 1e-13 * abs(got[b][1])), (box, i1, frame)
                    tried += 1
                    if worst_cond <= recon.COND_MAX and not want[order[0]][0]:
                        break
                else:
                    continue
                break
    assert tried >= 121

    real_pairing = recon._pairing

    def selections(independence):
        monkeypatch.setattr(recon, "_pairing", lambda stack: (
            independence(stack), *real_pairing(stack)[1:]))
        try:
            return reconstruct_global(u, cfg)[1].selections
        except CoverageFailure as exc:
            return exc.partial[1].selections

    assert selections(lambda stack: _svd_least(recon._vectorize_sym(stack))[0]) \
        == selections(lambda stack: real_pairing(stack)[0])


@pytest.mark.parametrize("name, m, pin", [
    # pins 25% above the worst node of the Gram form V V^T: 6.23e-16,
    # 5.94e-16, 4.45e-16 and 5.26e-16 (LAPACK's det and solve read 5.43e-16,
    # 6.04e-16, 5.11e-16 and 5.36e-16); M0 from V's cofactor row reads
    # 6.43e-16, 4.61e-16, 3.89e-16 and 5.21e-16
    ("smooth-complex-2d", 129, 7.8e-16),
    ("isotropic-c", 65, 7.4e-16),
    ("real-2d", 65, 5.6e-16),
    ("bzero-2d", 65, 6.6e-16),
])
def test_pairing_solve_matches_an_extended_precision_reference(name, m, pin):
    # M0 per node against M0 = sum_k y_k B_k / sqrt(y_0), y = cof(P)[0, :] /
    # det P with P = V V^T, the same M0 in exact arithmetic, with P, its
    # cofactors and M0 in extended precision; the flags agree with LAPACK's
    # rule (det, then solve) on P
    stack = _preset_stack(name, m)
    M0, ok = recon._pairing(stack)[1:]

    P = np.einsum("k...ij,m...ji->...km", stack, stack)
    y = np.linalg.solve(P, np.broadcast_to(np.eye(3)[0], P.shape[:-1])[..., None])[..., 0]
    lapack_ok = recon._regular(np.linalg.det(P), np.abs(P).max(axis=(-2, -1)), 3) \
        & (np.abs(y[..., 0]) > 1e-28)
    assert np.array_equal(ok, lapack_ok)
    assert ok.all()

    B = stack.astype(np.clongdouble)
    P = np.einsum("k...ij,m...ji->km...", B, B)
    cof = [P[1, 1] * P[2, 2] - P[1, 2] * P[2, 1], P[1, 2] * P[2, 0] - P[1, 0] * P[2, 2],
           P[1, 0] * P[2, 1] - P[1, 1] * P[2, 0]]
    det = P[0, 0] * cof[0] + P[0, 1] * cof[1] + P[0, 2] * cof[2]
    y = [c / det for c in cof]
    ref = sum(yk[..., None, None] * Bk for yk, Bk in zip(y, B)) / np.sqrt(y[0])[..., None, None]
    err = np.abs(M0 - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert err.max() <= pin


def _pairing_data(name, m):
    if name == "cgo":
        return cgo_family(square_grid(m, 3)).fields()
    return _preset_data(name, m)


@pytest.mark.parametrize("name, m, pair_pin, norm_pin", [
    # pins 25% above the measured worst node: Tr(M0 M^g) 7.22e-16, 8.09e-16,
    # 2.39e-15 and 4.54e-16; Tr(M0 M0) - 1 7.75e-16, 6.64e-16, 6.32e-16 and
    # 1.11e-15.  In 2D these were the Gram form's; M0 from V's cofactor row
    # reads 4.07e-16 and 8.88e-16
    ("constant-tensor-3d", 9, 9.0e-16, 9.7e-16),
    ("constant-tensor-3d", 17, 1.0e-15, 8.3e-16),
    ("cgo", 9, 3.0e-15, 7.9e-16),  # the 3D stack of the cgo family at 9^3
    ("smooth-complex-2d", 65, 5.7e-16, 1.4e-15),
])
def test_M0_pairs_to_delta_at_every_node(name, m, pair_pin, norm_pin):
    # Tr(M0 M^g) = 0 for every generator and Tr(M0 M0) = 1, each relative to
    # the size of its terms, sum_ij |M0_ij| |B_ji|; where every term is 0 the
    # trace must be 0
    rb = build_ratios(_pairing_data(name, m))
    mb = build_M(rb, build_frame(rb))
    assert mb.ok.all()
    for B, target, pin in ((mb.M, 0.0, pair_pin), (mb.M0[None], 1.0, norm_pin)):
        t = np.abs(np.einsum("...ij,g...ji->g...", mb.M0, B) - target)
        size = np.einsum("...ij,g...ji->g...", np.abs(mb.M0), np.abs(B))
        assert (t[size == 0] == 0).all()
        assert np.divide(t, size, out=np.zeros_like(t), where=size > 0).max() <= pin


@pytest.mark.parametrize("name, m", [("smooth-complex-2d", 17), ("cgo", 9)])
def test_a_dependent_stack_pairs_to_the_identity(name, m):
    # M^2 = M^1 at planted nodes and a NaN at one more: there the pairing is
    # not solvable, M0 is exactly Id and the node fails the admissibility
    # rule for independence or solvability; every other node reads the bytes
    # of the stack without the plant.  The identity is set, not solved for:
    # V's solve on the identity at such a node gives diag(1, 0, ..), the
    # unvectorized e_0.
    rb = build_ratios(_pairing_data(name, m))
    mb = build_M(rb, build_frame(rb))
    n = rb.grid.dim
    eye = np.broadcast_to(np.eye(n, dtype=complex), mb.M.shape[1:])
    stack = np.concatenate([eye[None], mb.M])
    planted = np.zeros(rb.grid.shape, dtype=bool)
    for node in [(0,) * n, (m // 2,) * n, (m - 1, 2) + (5,) * (n - 2),
                 (3, m - 1) + (0,) * (n - 2)]:
        planted[node] = True
    nan_node = (1, 4) + (6,) * (n - 2)
    planted[nan_node] = True
    bad = stack.copy()
    bad[2][planted] = bad[1][planted]
    bad[1][nan_node + (0, 1)] = np.nan
    with np.errstate(invalid="ignore"):  # the NaN node
        got = recon._pairing(bad)
    want = recon._pairing(stack)
    indep, M0, ok = got
    assert not ok[planted].any()
    assert np.array_equal(M0[planted], np.broadcast_to(np.eye(n), (planted.sum(), n, n)))
    assert np.isnan(indep[nan_node])
    reason = recon._reasons(np.ones(planted.shape), indep, ok)
    assert set(reason[planted].tolist()) <= {2, 3}
    for g, w in zip(got, want):
        assert g[~planted].tobytes() == w[~planted].tobytes()


def test_build_M_calls_lapack_once_for_each_3d_problem_and_never_in_2d(monkeypatch):
    # one slab of the node budget: in 3D one batched SVD gives the
    # independence and the solvable nodes, one batched solve gives M0, and
    # no determinant is taken; the 2D closed forms make no LAPACK call.
    # Neither forms the Gram matrix of V: the frame's closed form
    # (_gram, _sym_frame) serves frames only
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    bundles = []
    for name, m in (("constant-tensor-3d", 17), ("smooth-complex-2d", 129)):
        rb = build_ratios(_preset_data(name, m))
        slab = rb.gather((recon._budget_slabs(rb.grid.shape)[0],))
        bundles.append((slab, build_frame(slab)))
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted(name, fn))
    for name in ("_gram", "_sym_frame"):
        monkeypatch.setattr(recon, name, counted(name, getattr(recon, name)))
    (slab3, fr3), (slab2, fr2) = bundles
    build_M(slab3, fr3)
    assert sorted(calls) == ["solve", "svd"]
    calls.clear()
    build_M(slab2, fr2)
    assert calls == []


def _eq_residual(u):
    rb = build_ratios(u)
    fr = build_frame(rb)
    return reconstruct_class(rb, fr, build_M(rb, fr)).diagnostics["eq_residual"]


@pytest.mark.parametrize("name, m, measured", [
    # the equation's terms vanish on the constant classes; each solution's
    # residual is judged against the size of its own terms, so these read
    # roundoff too (they read 4.9e-3 and 4.9e-4 against the summed terms)
    ("constant-tensor-2d", 33, 5.40e-16),
    ("bzero-2d", 33, 3.78e-16),
    ("smooth-complex-2d", 65, 3.89e-16),
    # every term of some ratios' equations is roundoff at boundary nodes of
    # the 3D constant class: their size is floored at eps max|M0| max|Hess v_m|
    # (49 nodes read up to 1.0 without it; the interior reads 6.2e-16)
    ("constant-tensor-3d", 17, 3.59e-13),
])
def test_equation_residual_reads_roundoff_on_exact_data(name, m, measured):
    assert _eq_residual(_preset_data(name, m)).max() <= 1.25 * measured


def _spiked_data():
    # smooth-complex-2d at 33^2 with u_4 scaled by 1e3 at node (10, 20),
    # where V's singular values are 5.76e5, 1.41 and 3.46e-6 (cond 1.7e11)
    u = list(_preset_data("smooth-complex-2d", 33))  # the cached list stays whole
    spiked = u[3].values.copy()
    spiked[10, 20] *= 1e3
    u[3] = ScalarField(u[3].grid, spiked)
    return u


def test_equation_residual_peaks_at_a_spiked_node():
    # the map that sees the spike is the pairing independence: measured
    # 3.46e-6 at the spike against a median of 1.39.  With exactly I_n
    # solutions every ratio's equation holds by construction, so
    # eq_residual measures only the pairing's own error, and with M0 solved
    # from V it reads roundoff at the spike too (7.8e-17; max 3.46e-16 at
    # (7, 17)).
    rb = build_ratios(_spiked_data())
    fr = build_frame(rb)
    diagnostics = reconstruct_class(rb, fr, build_M(rb, fr)).diagnostics
    indep, r = diagnostics["pairing_indep"], diagnostics["eq_residual"]
    assert np.unravel_index(np.argmin(indep), indep.shape) == (10, 20)
    assert indep[10, 20] < 1e-5 * np.median(indep)
    assert r[10, 20] <= 1.25 * 7.8e-17
    assert r.max() <= 1.25 * 3.46e-16


def _exact_M0(V):
    # V x = e_0 by Cramer's rule, x = (r_1 x r_2) / det V, on complex
    # numbers held as pairs of Fractions (every double is a rational), then
    # M0 = unvec(x) / sqrt(x^T x) with one rounding of x and of x^T x
    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def add(*ps):
        return (sum(p[0] for p in ps), sum(p[1] for p in ps))

    def neg(p):
        return (-p[0], -p[1])

    r0, r1, r2 = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in V]
    cof = [add(mul(r1[(k + 1) % 3], r2[(k + 2) % 3]), neg(mul(r1[(k + 2) % 3], r2[(k + 1) % 3])))
           for k in range(3)]
    det = add(*(mul(a, c) for a, c in zip(r0, cof)))
    d2 = det[0] * det[0] + det[1] * det[1]
    x = [mul(c, (det[0] / d2, -det[1] / d2)) for c in cof]
    xx = add(*(mul(t, t) for t in x))
    xf = np.array([complex(float(a), float(b)) for a, b in x])
    unvec = np.array([[xf[0], xf[1] / np.sqrt(2.0)], [xf[1] / np.sqrt(2.0), xf[2]]])
    return unvec / np.sqrt(complex(float(xx[0]), float(xx[1])))


def test_M0_at_a_spiked_node_matches_an_exact_solve():
    # at the spike V's condition is 1.7e11; M0 against the exact solve of
    # the same V, up to sign since build_M does not orient M0.  Measured
    # 8.7e-19 (|M0| = 0.707)
    rb = build_ratios(_spiked_data())
    mb = build_M(rb, build_frame(rb))
    node = (slice(None), 10, 20)
    stack = np.concatenate([np.eye(2, dtype=complex)[None], mb.M[node]])
    ref = _exact_M0(recon._vectorize_sym(stack))
    M0 = mb.M0[node[1:]]
    assert mb.ok[node[1:]]
    assert min(np.abs(M0 - ref).max(), np.abs(M0 + ref).max()) <= 1.25 * 8.7e-19


def test_a_winner_may_vanish_outside_its_patch():
    # identity class, no constant member; u[0] = x1 - 1/4 is exactly 0 on
    # grid row 8, which the patches starting at row 16 do not hold.  There
    # it has the best margin and wins, so its full-grid fields, which are
    # not finite on row 8, must not be assembled into fields or fed to the
    # batched SVD whole
    grid = square_grid(33)
    x1, x2 = grid.meshes
    s = 1.1 - x1
    vals = [x1 - 0.25, s, s + x2 / 2, s * (1 + x2), s**2 - x2**2 + 1.1]
    assert (vals[0][8] == 0).all()
    rep, pm = reconstruct_global([ScalarField(grid, v.astype(complex)) for v in vals],
                                 EngineConfig(patch_size=17, overlap=8))
    assert pm.coverage.all()
    picked = [box for box, sel in zip(pm.boxes, pm.selections) if sel["u1"] == 0]
    assert picked and all(box[0][0] > 8 for box in picked)
    assert np.abs(rep.a.as_matrix() - np.eye(2) / np.sqrt(2)).max() < 1e-2


def test_each_candidate_is_evaluated_once(monkeypatch):
    # 33 rows in slabs of 17 make one slab, so build_M runs once per
    # distinct candidate instead of once per patch
    calls = []

    def build_M(*args, **kwargs):
        calls.append(1)
        return real_build_M(*args, **kwargs)

    real_build_M = recon.build_M
    monkeypatch.setattr(recon, "build_M", build_M)
    grid = square_grid(33)
    data = synthesize(PRESETS["smooth-complex-2d"].coefficients(grid),
                      harmonic_family(grid))
    _, pm = reconstruct_global(data, EngineConfig(patch_size=17, overlap=8))
    distinct = {(sel["u1"], sel["frame"], sel["generators"]) for sel in pm.selections}
    assert all(pm.admissible) and len(pm.boxes) == 9
    assert len(calls) <= len(distinct) * 1 < len(pm.boxes)


def test_generator_override_is_checked():
    grid = square_grid(17)
    rb = build_ratios(harmonic_fields(grid))
    fr = build_frame(rb)
    with pytest.raises(ValueError):
        build_M(rb, fr, generators=(2,))
    with pytest.raises(ValueError):
        build_M(rb, fr, generators=(0, 2))  # overlaps the frame


# ---------------------------------------------------------------------------
# Global reconstruction
# ---------------------------------------------------------------------------

def test_relabeling_the_data_does_not_move_the_class():
    grid = square_grid(33)
    preset = PRESETS["smooth-complex-2d"]
    coeffs = preset.coefficients(grid)
    data = synthesize(coeffs, harmonic_family(grid))
    rep_a, _ = reconstruct_global(data)
    shuffled = [data[0]] + [data[j] for j in (3, 1, 4, 2)]
    rep_b, _ = reconstruct_global(shuffled)
    assert np.abs(rep_a.a.values - rep_b.a.values).max() < 1e-10
    assert np.abs(rep_a.c.values - rep_b.c.values).max() < 1e-10


def test_single_patch_equals_global():
    grid = square_grid(33)
    preset = PRESETS["smooth-complex-2d"]
    data = synthesize(preset.coefficients(grid), harmonic_family(grid))
    rep_g, map_g = reconstruct_global(data, EngineConfig())
    rep_p, map_p = reconstruct_global(data, EngineConfig(patch_size=33))
    assert len(map_g.boxes) == 1 and len(map_p.boxes) == 1
    assert np.abs(rep_g.a.values - rep_p.a.values).max() == 0.0


def test_patch_stitching_matches_the_global_answer():
    grid = square_grid(65)
    preset = PRESETS["smooth-complex-2d"]
    coeffs = preset.coefficients(grid)
    data = synthesize(coeffs, harmonic_family(grid))
    rep_g, _ = reconstruct_global(data)
    rep_p, pm = reconstruct_global(data, EngineConfig(patch_size=33, overlap=16))
    assert len(pm.boxes) > 1
    assert all(pm.admissible)
    assert pm.coverage.all()
    truth = unit_truth(coeffs)
    err_g = triple_errors(rep_g, truth)["triple"]
    err_p = triple_errors(rep_p, truth)["triple"]
    # stitching may not degrade the answer beyond the global error scale
    assert err_p < 3 * err_g + 1e-12
    assert np.abs(rep_g.a.values - rep_p.a.values).max() < 10 * err_g


def test_ratio_bundles_are_released_before_the_blend(monkeypatch):
    # and so are the conds and candidate fields of the selector
    refs, live, filled = [], [], []

    def ratios(*args):
        rb = real_ratios(*args)
        refs.append(weakref.ref(rb.hess_v))
        return rb

    def evaluate(*args):
        out = real_evaluate(*args)
        filled.append(len(out))
        refs.extend(weakref.ref(x) for x in out)
        return out

    def assemble(*args, **kwargs):
        gc.collect()
        live.append(sum(r() is not None for r in refs))
        return real_assemble(*args, **kwargs)

    real_ratios, real_assemble = recon._ratios, recon._assemble_representative
    real_evaluate = recon._evaluate
    monkeypatch.setattr(recon, "_ratios", ratios)
    monkeypatch.setattr(recon, "_evaluate", evaluate)
    monkeypatch.setattr(recon, "_assemble_representative", assemble)
    grid = square_grid(33)
    data = synthesize(PRESETS["smooth-complex-2d"].coefficients(grid),
                      harmonic_family(grid))
    _, pm = reconstruct_global(data, EngineConfig(patch_size=17, overlap=8))
    assert len(pm.boxes) > 1 and refs and filled
    # the last representative assembled is the stitched one
    assert live[-1] == 0


def test_three_dimensional_constant_class():
    grid = square_grid(17, dim=3)
    a0 = np.diag([1.0, 1.5, 2.0]) + 0.1j * (np.eye(3, k=1) + np.eye(3, k=-1)) / 2
    fam = constant_tensor_family(grid, a0)
    rep, pm = reconstruct_global(fam.fields())
    assert pm.coverage.all()
    a_u, _, _, _ = unit_gauge_triple(
        np.broadcast_to(a0, grid.shape + (3, 3)).astype(complex),
        np.zeros(grid.shape + (3,), dtype=complex),
        np.zeros(grid.shape, dtype=complex))
    assert np.abs(rep.a.as_matrix() - a_u).max() < 1e-7
    assert np.abs(rep.c.values).max() < 1e-7


def test_coverage_failure_carries_partial_output(strip_fields):
    grid = square_grid(33)
    with pytest.raises(CoverageFailure) as info:
        reconstruct_global(strip_fields(grid, redundant=False))
    exc = info.value
    assert exc.uncovered.shape[0] > 0
    rep, pm = exc.partial
    assert rep.grid.shape == grid.shape
    assert not pm.coverage.all()
    assert np.all(np.isfinite(rep.a.values[pm.coverage]))


def _smooth_perturbation(u, eps):
    """Each u_j plus eps max|u_j| phi_j, phi_j = amp sin(pi k x + ph) cos(pi l y)
    with k, l in {1, 2, 3}, a phase ph and a complex amplitude (seed 0)."""
    rng = np.random.default_rng(0)
    x, y = u[0].grid.meshes[:2]
    out = []
    for f in u:
        k, l = rng.integers(1, 4, size=2)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        amp = complex(*rng.standard_normal(2))
        phi = amp * np.sin(np.pi * k * x + ph) * np.cos(np.pi * l * y)
        out.append(ScalarField(f.grid, f.values + eps * np.abs(f.values).max() * phi))
    return out


@pytest.mark.parametrize("name, sizes, measured", [
    ("smooth-complex-2d", (33, 65), (203.6, 196.6)),
    ("constant-tensor-3d", (9,), (188.6,)),
])
def test_class_is_lipschitz_in_smooth_data(name, sizes, measured):
    # the paper's stability: the class changes by at most a constant times
    # the C^2 size of a data change.  The modulus, sup|class change| over
    # the class's sup per unit eps, is linear in eps and the same on both
    # grids; each pin sits 25% above its measured value
    preset = PRESETS[name]
    moduli = []
    for m, pin in zip(sizes, measured):
        grid = square_grid(m, preset.dim)
        u = synthesize(preset.coefficients(grid), preset.illumination(grid))
        ref = reconstruct_global(u)[0].triple_arrays()
        scale = max(float(np.abs(x).max()) for x in ref)
        at = []
        for eps in (1e-6, 1e-5):
            got = reconstruct_global(_smooth_perturbation(u, eps))[0].triple_arrays()
            at.append(max(float(np.abs(g - r).max()) for g, r in zip(got, ref)) / scale / eps)
        assert abs(at[1] - at[0]) <= 0.01 * at[0], (m, at)
        assert at[0] <= 1.25 * pin, (m, at)
        moduli.append(at[0])
    assert max(moduli) <= 1.1 * min(moduli), moduli


# ---------------------------------------------------------------------------
# Property: the engine inverts the constant-tensor construction
# ---------------------------------------------------------------------------

def tensors():
    f = st.floats(min_value=-0.3, max_value=0.3)
    d = st.floats(min_value=0.8, max_value=2.0)
    return st.tuples(d, d, f, f, f, f)


@settings(max_examples=20, deadline=None)
@given(tensors())
def test_engine_inverts_random_constant_tensors(t):
    d1, d2, off_r, off_i, i1, i2 = t
    a0 = np.array([[d1, off_r], [off_r, d2]], dtype=complex)
    a0 += 1j * np.array([[i1, off_i], [off_i, i2]])
    assume(abs(np.sum(a0 * a0)) > 1e-3)  # keep the pairing well scaled
    grid = square_grid(17)
    fam = constant_tensor_family(grid, a0)
    rep, _ = reconstruct_global(fam.fields())
    a_u, _, _, _ = unit_gauge_triple(
        np.broadcast_to(a0, grid.shape + (2, 2)).astype(complex),
        np.zeros(grid.shape + (2,), dtype=complex),
        np.zeros(grid.shape, dtype=complex))
    # the Re-trace sign anchor can tie for strongly imaginary tensors,
    # so accept either orientation of the unit representative
    diff = np.abs(rep.a.as_matrix() - a_u).max()
    flip = np.abs(rep.a.as_matrix() + a_u).max()
    assert min(diff, flip) < 1e-6
    assert np.abs(rep.b_plus_diva.values).max() < 1e-6
    assert np.abs(rep.c.values).max() < 1e-6


@settings(max_examples=20, deadline=None)
@given(tensors())
def test_curvatures_match_the_complement_basis(t):
    d1, d2, off_r, off_i, i1, i2 = t
    a0 = np.array([[d1, off_r], [off_r, d2]], dtype=complex)
    a0 += 1j * np.array([[i1, off_i], [off_i, i2]])
    assume(abs(np.sum(a0 * a0)) > 1e-3)
    grid = square_grid(17)
    fam = constant_tensor_family(grid, a0)
    rb = build_ratios(fam.fields())
    fr = build_frame(rb)
    mb = build_M(rb, fr)
    Q = complement_basis(a0)
    h = grid.spacing[0]
    for m, Qm in enumerate(Q):
        err = np.abs(mb.M[m] - Qm).max()
        assert err <= 10 * h**2
