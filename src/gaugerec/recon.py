"""Pointwise reconstruction of the coefficient class from interior solutions.

The pipeline consumes I(n) = n(n+3)/2 interior solutions of the same
equation, forms ratios v_j = u_{j+1}/u_1, and recovers the class
representative of the coefficient triple:

1. ``build_ratios``: ratios and their first/second derivatives.
2. ``build_frame``: gradient Gram matrix H of the first n ratios and its
   pointwise inverse (bilinear products, no conjugation).
3. ``build_M``: for each remaining ratio w, coefficients theta with
   grad w + sum_j theta_j grad v_j = 0, the curvature matrices
   M = sum_j theta_j Hess v_j, and the normalized matrix M0 that pairs to
   delta_{0m} against (Id, M^1, ..).
4. ``reconstruct_class``: the representative (a, b + div a, c) in the
   u_1-normalized gauge a = M0 / u_1^2.

``reconstruct_global`` runs the same steps per patch with automatic
selection of u_1, frame, and generator subsets, then stitches the patches
in the pointwise unit-Frobenius gauge, which does not depend on which u_1
each patch picked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    ConfigError,
    CoverageFailure,
    FrameDegenerate,
    GridMismatch,
    MDependent,
    VanishingGauge,
    VanishingU1,
)
from .fields import (
    SYM_PAIRS,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    divergence_tensor,
    grad_values,
    hess_values,
    unpack_sym,
)
from .illum import num_generators, num_solutions

__all__ = [
    "EngineConfig",
    "RatioBundle",
    "FrameData",
    "MBundle",
    "ClassRepresentative",
    "PatchMap",
    "build_ratios",
    "build_frame",
    "build_M",
    "reconstruct_class",
    "reconstruct_global",
    "unit_gauge_triple",
]

_TINY = 1e-300


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class EngineConfig:
    """Thresholds and patching controls for the reconstruction engine.

    ``patch_size = None`` treats the whole grid as a single patch.  The
    floor/conditioning defaults are the standard admissibility thresholds:
    |u1| at least ``u1_floor_rel`` times its global max, Frobenius condition
    number of H at most ``cond_max``, smallest singular value of the
    vectorized (Id, M^1, ..) stack at least ``indep_min``.
    """

    u1_floor_rel: float = 1e-3
    cond_max: float = 1e6
    indep_min: float = 1e-8
    pairing: str = "bilinear"
    patch_size: int | None = None
    overlap: int = 8
    halo: int = 3
    max_frame_candidates: int = 5
    max_subset_candidates: int = 30

    def validate(self) -> "EngineConfig":
        if self.u1_floor_rel <= 0:
            raise ConfigError("thresholds.u1_floor_rel", "must be positive")
        if self.cond_max <= 1:
            raise ConfigError("thresholds.cond_max", "must exceed 1")
        if self.indep_min <= 0:
            raise ConfigError("thresholds.indep_min", "must be positive")
        if self.pairing not in ("bilinear", "hermitian"):
            raise ConfigError("thresholds.pairing", f"unknown pairing {self.pairing!r}")
        if self.patch_size is not None:
            if self.patch_size < 9:
                raise ConfigError("patching.patch_size", "patches need at least 9 nodes per axis")
            if not (0 < self.overlap < self.patch_size):
                raise ConfigError("patching.overlap", "need 0 < overlap < patch_size")
        if self.halo < 2:
            raise ConfigError("patching.halo", "derivative halo needs at least 2 nodes")
        return self


# ---------------------------------------------------------------------------
# Stage bundles
# ---------------------------------------------------------------------------

@dataclass
class RatioBundle:
    """Ratios v_j = u_{j+1}/u_1 with first and second derivatives.

    Arrays are stacked with the member index first: ``v`` is (m, *shape),
    ``grad_v`` is (m, *shape, n), ``hess_v`` is (m, *shape, n, n).  The u_1
    derivatives ride along for the final coefficient recovery.
    """

    grid: Grid
    u1: ScalarField
    v: np.ndarray
    grad_v: np.ndarray
    hess_v: np.ndarray
    grad_u1: np.ndarray
    hess_u1: np.ndarray
    floor: float


@dataclass
class FrameData:
    """Gram data of the frame ratios: H, its inverse, and the pointwise
    Frobenius condition number ||H|| ||H^-1||."""

    grid: Grid
    frame: tuple[int, ...]
    H: np.ndarray
    Hinv: np.ndarray
    cond: np.ndarray
    ok: np.ndarray


@dataclass
class MBundle:
    """Curvature matrices and the normalized pairing solution M0.

    ``theta`` holds, per generator, the full coefficient vector over all
    ratios (frame entries carry the solved coefficients, the generator slot
    carries 1, everything else 0).  ``indep`` is the smallest singular value
    of the vectorized (Id, M^1, ..) stack, ``scale`` the complex square root
    used to normalize M0, and ``ok`` flags nodes where the pairing system
    was solvable.
    """

    grid: Grid
    generators: tuple[int, ...]
    theta: np.ndarray
    M: np.ndarray
    M0: np.ndarray
    indep: np.ndarray
    scale: np.ndarray
    ok: np.ndarray
    lincomb_residual: float


@dataclass
class ClassRepresentative:
    """Coefficient triple up to gauge, plus diagnostics.

    ``gauge`` records the normalization: "u1-normalized" for the single
    patch contract a = M0/u_1^2, "unit-frobenius" for the pointwise
    normalization Tr(a a) = 1 used by the stitched reconstruction.
    ``b`` is the drift alone, b_plus_diva minus the discrete divergence of
    the reconstructed a.
    """

    grid: Grid
    a: SymTensorField
    b_plus_diva: VectorField
    c: ScalarField
    b: VectorField
    gauge: str
    diagnostics: dict = dc_field(default_factory=dict)

    def triple_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.a.as_matrix(), self.b_plus_diva.values, self.c.values

    def to_unit_gauge(self, anchor: tuple[int, ...] | None = None) -> "ClassRepresentative":
        if self.gauge == "unit-frobenius":
            return self
        a_m, bpda, c = self.triple_arrays()
        a_u, bpda_u, c_u, scale = unit_gauge_triple(a_m, bpda, c, anchor=anchor)
        return _assemble_representative(self.grid, a_u, bpda_u, c_u,
                                        gauge="unit-frobenius",
                                        diagnostics=dict(self.diagnostics))


@dataclass
class PatchMap:
    """Where each patch sits and what the selector chose there."""

    boxes: list[tuple[tuple[int, int], ...]]
    admissible: list[bool]
    selections: list[dict | None]
    scores: list[float]
    signs: list[int]
    coverage: np.ndarray


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def _common_grid(u: list[ScalarField]) -> Grid:
    """The grid of ``u[0]``; GridMismatch when any other field's differs."""
    grid = u[0].grid
    for j, f in enumerate(u[1:], start=1):
        if f.grid != grid:
            raise GridMismatch(j, grid, f.grid)
    return grid


def build_ratios(u: list[ScalarField], floor: float = 0.0) -> RatioBundle:
    """Form v_j = u_{j+1}/u_1 and differentiate.

    ``floor`` is an absolute threshold on |u_1|; nodes below it make the
    division untrustworthy and raise VanishingU1.
    """
    if len(u) < 2:
        raise ValueError("need at least two solutions")
    grid = _common_grid(u)
    u1 = u[0]
    absu1 = np.abs(u1.values)
    if floor > 0:
        bad = absu1 < floor
        if bad.any():
            raise VanishingU1(f"|u_1| below floor {floor:g}", nodes=np.argwhere(bad))
    if (absu1 == 0).any():
        raise VanishingU1("u_1 vanishes on the grid", nodes=np.argwhere(absu1 == 0))
    sp = grid.spacing
    v = np.stack([(f.values / u1.values) for f in u[1:]], axis=0)
    grad_v = np.stack([grad_values(vj, sp) for vj in v], axis=0)
    hess_packed = [hess_values(vj, sp) for vj in v]
    hess_v = np.stack([unpack_sym(hp, grid.dim) for hp in hess_packed], axis=0)
    grad_u1 = grad_values(u1.values, sp)
    hess_u1 = unpack_sym(hess_values(u1.values, sp), grid.dim)
    return RatioBundle(grid, u1, v, grad_v, hess_v, grad_u1, hess_u1, float(floor))


def build_frame(rb: RatioBundle, cond_max: float | None = 1e6,
                frame: tuple[int, ...] | None = None) -> FrameData:
    """Gram matrix H_ij = grad v_i . grad v_j of the frame ratios.

    The product is bilinear (no conjugation).  ``frame`` selects which
    ratios form the frame (default: the first n).  With ``cond_max`` set,
    nodes whose Frobenius condition number exceeds it raise FrameDegenerate.
    """
    grid = rb.grid
    n = grid.dim
    if frame is None:
        frame = tuple(range(n))
    if len(frame) != n:
        raise ValueError(f"frame needs exactly {n} ratios")
    G = rb.grad_v[list(frame)]
    H = np.einsum("i...k,j...k->...ij", G, G)
    Hinv, det_ok = _invert_stack(H)
    normH = np.sqrt(np.sum(np.abs(H) ** 2, axis=(-2, -1)))
    normHi = np.sqrt(np.sum(np.abs(Hinv) ** 2, axis=(-2, -1)))
    cond = np.where(det_ok, normH * normHi, np.inf)
    if cond_max is not None:
        bad = ~(cond <= cond_max)
        if bad.any():
            raise FrameDegenerate(
                f"frame Gram matrix condition exceeds {cond_max:g}",
                nodes=np.argwhere(bad))
    return FrameData(grid, tuple(frame), H, Hinv, cond, det_ok)


def _invert_stack(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise inverse of stacked small matrices, flagging singular nodes
    instead of raising."""
    n = H.shape[-1]
    det = np.linalg.det(H)
    scale = np.max(np.abs(H), axis=(-2, -1))
    ok = np.abs(det) > (1e-14 * np.maximum(scale, _TINY)) ** n
    safe = np.where(ok[..., None, None], H, np.eye(n, dtype=np.complex128))
    return np.linalg.inv(safe), ok


def build_M(rb: RatioBundle, fr: FrameData, indep_min: float | None = 1e-8,
            pairing: str = "bilinear",
            generators: tuple[int, ...] | None = None,
            anchor: tuple[int, ...] | None = None) -> MBundle:
    """Curvature matrices of the non-frame ratios and the paired M0.

    For each generator ratio w the gradient relation
    grad w = - sum_j theta_j grad v_j is solved through the frame Gram
    inverse; the curvature matrix is M = Hess w + sum_j theta_j Hess v_j.
    M0 is the combination of (Id, M^1, ..) that pairs to delta_{0m},
    normalized by the principal square root and oriented by ``_orientation``.
    """
    grid = rb.grid
    n = grid.dim
    G_needed = num_generators(n)
    m_total = rb.v.shape[0]
    if generators is None:
        generators = tuple(j for j in range(m_total) if j not in fr.frame)[:G_needed]
    if len(generators) != G_needed:
        raise ValueError(f"need exactly {G_needed} generator ratios")
    if set(generators) & set(fr.frame):
        raise ValueError("generators overlap the frame")

    Gf = rb.grad_v[list(fr.frame)]
    Hf = rb.hess_v[list(fr.frame)]
    theta = np.zeros((G_needed,) + grid.shape + (m_total,), dtype=np.complex128)
    M = np.empty((G_needed,) + grid.shape + (n, n), dtype=np.complex128)
    worst_lincomb = 0.0
    for g, w in enumerate(generators):
        t = np.einsum("...k,j...k->...j", rb.grad_v[w], Gf)
        th = -np.einsum("...jk,...k->...j", fr.Hinv, t)
        for j, fj in enumerate(fr.frame):
            theta[g, ..., fj] = th[..., j]
        theta[g, ..., w] = 1.0
        M[g] = rb.hess_v[w] + np.einsum("...j,j...kl->...kl", th, Hf)
        resid = rb.grad_v[w] + np.einsum("...j,j...k->...k", th, Gf)
        scale = np.abs(rb.grad_v[w]).max() + _TINY
        worst_lincomb = max(worst_lincomb, float(np.abs(resid).max() / scale))

    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), grid.shape + (n, n))
    stack = np.concatenate([eye[None], M], axis=0)

    indep = _independence(stack)
    if indep_min is not None:
        bad = ~(indep >= indep_min)
        if bad.any():
            raise MDependent(
                f"(Id, M^1, ..) fail pointwise independence at {indep_min:g}",
                nodes=np.argwhere(bad))

    M0, scale_field, ok = _pair_M0(stack, pairing)
    sgn = _orientation(M0, anchor)
    M0 *= sgn[..., None, None]
    scale_field *= sgn
    return MBundle(grid, tuple(generators), theta, M, M0, indep, scale_field, ok,
                   worst_lincomb)


def _vectorize_sym(stack: np.ndarray) -> np.ndarray:
    """Map stacked symmetric matrices to rows with Frobenius-compatible
    weights (off-diagonals scaled by sqrt 2)."""
    n = stack.shape[-1]
    comps = []
    for i, j in SYM_PAIRS[n]:
        w = 1.0 if i == j else np.sqrt(2.0)
        comps.append(w * stack[..., i, j])
    return np.stack(comps, axis=-1)


def _independence(stack: np.ndarray) -> np.ndarray:
    """Smallest singular value of the vectorized matrix stack, per node.

    ``stack`` is (K, *shape, n, n); rows are moved last so the SVD runs over
    (K, p) blocks with p = n(n+1)/2.
    """
    rows = _vectorize_sym(stack)
    rows = np.moveaxis(rows, 0, -2)
    sv = np.linalg.svd(rows, compute_uv=False)
    return sv[..., -1]


def _pair_M0(stack: np.ndarray, pairing: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the pairing conditions Tr(M0 B_m) = delta_0m over the stack
    B = (Id, M^1, ..) and normalize.

    bilinear: P_km = Tr(B_k B_m), y = P^-1 e_0, M0 = sum y_k B_k / sqrt(y_0)
    (the constraints for m >= 1 hold by construction and the normalization
    Tr(M0 M0) = 1 follows from y^T P y = y_0).
    hermitian: same with Tr(B_k^* B_m); the coefficient vector is the
    conjugate of the solve against P^T.
    """
    K = stack.shape[0]
    shape = stack.shape[1:-2]
    if pairing == "bilinear":
        P = np.einsum("k...ij,m...ji->...km", stack, stack)
    else:
        P = np.einsum("k...ij,m...ji->...km", np.conj(stack), stack)
    detP = np.linalg.det(P)
    scaleP = np.max(np.abs(P), axis=(-2, -1))
    ok = np.abs(detP) > (1e-14 * np.maximum(scaleP, _TINY)) ** K
    safe = np.where(ok[..., None, None], P, np.eye(K, dtype=np.complex128))
    e0 = np.zeros(shape + (K,), dtype=np.complex128)
    e0[..., 0] = 1.0
    if pairing == "bilinear":
        y = np.linalg.solve(safe, e0[..., None])[..., 0]
    else:
        y = np.conj(np.linalg.solve(np.swapaxes(safe, -1, -2), e0[..., None])[..., 0])
    raw = np.einsum("...k,k...ij->...ij", y, stack)
    if pairing == "bilinear":
        s2 = y[..., 0]
    else:
        s2 = np.einsum("...ij,...ji->...", np.conj(raw), raw)
    ok = ok & (np.abs(s2) > 1e-28)
    s = np.sqrt(np.where(ok, s2, 1.0))
    M0 = raw / s[..., None, None]
    return M0, s, ok


def _axis_scan(shape: tuple[int, ...], start: float, step,
               op: np.ufunc) -> tuple[np.ndarray, float]:
    """Carry a value from the first node along the scan path of a grid.

    The path runs down axis 0 from the first node, then along axis 1 from
    every node reached so far, then along axis 2 in 3D.  ``step(cur, prev)``
    takes the index windows of the two ends of a batch of path edges and
    returns the change across each; ``op`` (np.multiply or np.add) chains
    the changes: value = op(value at the start of the line, op.accumulate).
    Returns the field and the largest |step| on the path.
    """
    out = np.empty(shape)
    out[(0,) * len(shape)] = start
    worst = 0.0
    for k in range(len(shape)):
        head, tail = (slice(None),) * k, (0,) * (len(shape) - k - 1)
        cur = head + (slice(1, None),) + tail
        d = step(cur, head + (slice(None, -1),) + tail)
        out[cur] = op(out[head + (slice(0, 1),) + tail], op.accumulate(d, axis=k))
        if d.size:
            worst = max(worst, float(np.abs(d).max()))
    return out, worst


def _orientation(W: np.ndarray, anchor: tuple[int, ...] | None = None) -> np.ndarray:
    """Per-node signs in {-1, +1} that orient a field of matrices.

    Neighbors on the scan path are aligned by the sign of the Hermitian
    overlap Re sum W_cur conj(W_prev); the whole field is then flipped, if
    needed, so that Re Tr W > 0 at ``anchor`` (Im Tr > 0 when the real part
    is 0).  The default anchor is the center node.
    """
    shape = W.shape[:-2]

    def rel(cur, prev):
        ov = np.real(np.einsum("...ij,...ij->...", W[cur], np.conj(W[prev])))
        return np.where(ov < 0, -1.0, 1.0)

    sgn, _ = _axis_scan(shape, 1.0, rel, np.multiply)
    if anchor is None:
        anchor = tuple(m // 2 for m in shape)
    tr = np.trace(W[anchor]) * sgn[anchor]
    return -sgn if (tr.real < 0 or (tr.real == 0 and tr.imag < 0)) else sgn


def reconstruct_class(rb: RatioBundle, fr: FrameData, mb: MBundle) -> ClassRepresentative:
    """Representative of the coefficient class in the u_1-normalized gauge.

    a = M0/u_1^2; b + div a follows from the first-order data
    beta = -H^{ij} Tr(M0 Hess v_j) grad v_i via
    (beta - a grad u_1^2)/u_1^2; c closes the system through the equation
    satisfied by u_1 itself.
    """
    grid = rb.grid
    u1 = rb.u1.values
    alpha = mb.M0
    Gf = rb.grad_v[list(fr.frame)]
    Hf = rb.hess_v[list(fr.frame)]
    cvec = np.einsum("...ik,j...ki->...j", alpha, Hf)
    wvec = np.einsum("...ij,...j->...i", fr.Hinv, cvec)
    beta = -np.einsum("...i,i...k->...k", wvec, Gf)

    u1sq = u1 * u1
    a_arr = alpha / u1sq[..., None, None]
    grad_u1sq = 2.0 * u1[..., None] * rb.grad_u1
    bpda = (beta - np.einsum("...ij,...j->...i", a_arr, grad_u1sq)) / u1sq[..., None]
    c = -(np.einsum("...i,...i->...", bpda, rb.grad_u1)
          + np.einsum("...ij,...ij->...", a_arr, rb.hess_u1)) / u1

    resid = np.einsum("...ij,m...ij->m...", alpha, rb.hess_v) \
        + np.einsum("...k,m...k->m...", beta, rb.grad_v)
    scale = np.abs(np.einsum("...ij,m...ij->m...", alpha, rb.hess_v)).max(axis=0) \
        + np.abs(beta).max(axis=-1) * np.abs(rb.grad_v).max(axis=(0, -1)) + _TINY
    eq_residual = np.abs(resid).max(axis=0) / scale

    diagnostics = {
        "eq_residual": eq_residual,
        "frame_cond": fr.cond,
        "pairing_indep": mb.indep,
        "lincomb_residual": mb.lincomb_residual,
    }
    return _assemble_representative(grid, a_arr, bpda, c,
                                    gauge="u1-normalized", diagnostics=diagnostics)


def _assemble_representative(grid: Grid, a_mat: np.ndarray, bpda: np.ndarray,
                             c: np.ndarray, gauge: str,
                             diagnostics: dict) -> ClassRepresentative:
    a_field = SymTensorField.from_matrix(grid, a_mat)
    bpda_field = VectorField(grid, bpda)
    c_field = ScalarField(grid, c)
    b_field = VectorField(grid, bpda - divergence_tensor(a_field).values)
    return ClassRepresentative(grid, a_field, bpda_field, c_field, b_field,
                               gauge=gauge, diagnostics=diagnostics)


def unit_gauge_triple(a_mat: np.ndarray, bpda: np.ndarray, c: np.ndarray,
                      anchor: tuple[int, ...] | None = None):
    """Rescale a gauge triple so that Tr(a a) = 1 pointwise.

    The scale is the principal square root of the bilinear pairing
    Tr(a a), oriented by ``_orientation`` (neighbor continuity, then
    Re Tr a > 0 at the anchor node).  Because (a, b + div a, c) transforms
    multiplicatively along the gauge orbit, dividing all three by the same
    scalar field stays on the orbit.  Returns (a, b + div a, c, scale) with
    a = scale * a_unit exactly.
    """
    s2 = np.einsum("...ij,...ji->...", a_mat, a_mat)
    if (np.abs(s2) < 1e-28).any():
        raise VanishingGauge("Tr(a a) vanishes; the unit gauge is undefined")
    s = np.sqrt(s2)
    scale = s * _orientation(a_mat / s[..., None, None], anchor)
    return (a_mat / scale[..., None, None], bpda / scale[..., None],
            c / scale, scale)


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------

def _axis_starts(m: int, size: int, stride: int) -> list[int]:
    starts = list(range(0, max(m - size, 0) + 1, stride))
    if starts[-1] != m - size:
        starts.append(m - size)
    return starts


def _patch_boxes(shape: tuple[int, ...], cfg: EngineConfig) -> list[tuple[slice, ...]]:
    if cfg.patch_size is None:
        return [tuple(slice(0, m) for m in shape)]
    size = cfg.patch_size
    stride = cfg.patch_size - cfg.overlap
    per_axis = []
    for m in shape:
        if size >= m:
            per_axis.append([slice(0, m)])
        else:
            per_axis.append([slice(s, s + size) for s in _axis_starts(m, size, stride)])
    return [tuple(combo) for combo in itertools.product(*per_axis)]


def _expand_box(box: tuple[slice, ...], shape: tuple[int, ...], halo: int) -> tuple[slice, ...]:
    out = []
    for sl, m in zip(box, shape):
        lo = max(sl.start - halo, 0)
        hi = min(sl.stop + halo, m)
        width = hi - lo
        if width < 9:
            hi = min(lo + 9, m)
            lo = max(hi - 9, 0)
        out.append(slice(lo, hi))
    return tuple(out)


def _local_window(core: tuple[slice, ...], halo_box: tuple[slice, ...]) -> tuple[slice, ...]:
    return tuple(slice(c.start - h.start, c.stop - h.start)
                 for c, h in zip(core, halo_box))


def _ramp(length: int, overlap: int, ramp_lo: bool, ramp_hi: bool) -> np.ndarray:
    w = np.ones(length)
    r = min(overlap, length)
    if r > 0:
        t = np.arange(1, r + 1) / (r + 1)
        edge = 0.5 * (1.0 - np.cos(np.pi * t))
        if ramp_lo:
            w[:r] = np.minimum(w[:r], edge)
        if ramp_hi:
            w[-r:] = np.minimum(w[-r:], edge[::-1])
    return w


def _patch_weight(core: tuple[slice, ...], shape: tuple[int, ...], overlap: int) -> np.ndarray:
    axes = []
    for sl, m in zip(core, shape):
        axes.append(_ramp(sl.stop - sl.start, overlap,
                          ramp_lo=sl.start > 0, ramp_hi=sl.stop < m))
    w = axes[0]
    for ax in axes[1:]:
        w = np.multiply.outer(w, ax)
    return w


def _select_on_patch(crops: list[ScalarField], core_local: tuple[slice, ...],
                     cfg: EngineConfig, gmax: np.ndarray) -> dict | None:
    """Choose (u1, frame, generators) on one patch.

    Candidates are ranked by worst-node score over the patch core: the
    relative u1 margin, times 1/cond of the frame Gram matrix, times the
    independence margin of the M stack.  The first candidate that clears
    every threshold wins; otherwise the best-scoring failed attempt is
    returned with ``admissible = False`` so the caller can report it.
    """
    n = crops[0].grid.dim
    G_needed = num_generators(n)
    vals = [f.values for f in crops]
    margins = np.array([np.abs(vv[core_local]).min() / max(gm, _TINY)
                        for vv, gm in zip(vals, gmax)])
    order = [i for i in np.argsort(-margins, kind="stable")
             if margins[i] >= cfg.u1_floor_rel]
    best = None
    for i1 in order:
        others = [j for j in range(len(crops)) if j != i1]
        rb = build_ratios([crops[i1]] + [crops[j] for j in others], floor=0.0)
        margin_node = np.abs(vals[i1][core_local]) / max(gmax[i1], _TINY)

        frame_scored = []
        for combo in itertools.combinations(range(len(others)), n):
            fr = build_frame(rb, cond_max=None, frame=combo)
            worst = float(fr.cond[core_local].max()) if fr.ok[core_local].all() else np.inf
            frame_scored.append((worst, combo))
        frame_scored.sort(key=lambda t: (t[0], t[1]))

        for _, combo in frame_scored[:cfg.max_frame_candidates]:
            fr = build_frame(rb, cond_max=None, frame=combo)
            pool = [j for j in range(len(others)) if j not in combo]
            subset_scored = []
            for subset in itertools.combinations(pool, G_needed):
                try:
                    mb = build_M(rb, fr, indep_min=None, pairing=cfg.pairing,
                                 generators=subset)
                except (ValueError, np.linalg.LinAlgError):
                    continue
                core_ok = bool(mb.ok[core_local].all() and fr.ok[core_local].all())
                indep_core = mb.indep[core_local]
                score_node = (margin_node
                              / np.maximum(fr.cond[core_local], 1.0)
                              * indep_core)
                score = float(score_node.min()) if core_ok else 0.0
                admissible = (core_ok
                              and margins[i1] >= cfg.u1_floor_rel
                              and float(fr.cond[core_local].max()) <= cfg.cond_max
                              and float(indep_core.min()) >= cfg.indep_min)
                subset_scored.append((score, subset, admissible, rb, fr, mb))
                if len(subset_scored) >= cfg.max_subset_candidates:
                    break
            subset_scored.sort(key=lambda t: (-t[0], t[1]))
            for score, subset, admissible, rb_, fr_, mb_ in subset_scored:
                cand = {
                    "u1": int(i1), "frame": tuple(int(others[k]) for k in combo),
                    "generators": tuple(int(others[k]) for k in subset),
                    "score": score, "admissible": admissible,
                    "_bundles": (rb_, fr_, mb_),
                }
                if admissible:
                    return cand
                if best is None or score > best["score"]:
                    best = cand
    return best


def reconstruct_global(u: list[ScalarField], config: EngineConfig | None = None
                       ) -> tuple[ClassRepresentative, PatchMap]:
    """Patch-wise reconstruction with automatic member selection.

    Every patch picks its own u_1, frame, and generator subset; patch
    representatives are normalized to the pointwise unit-Frobenius gauge
    (independent of the u_1 choice), sign-aligned across overlaps, and
    blended with a smooth partition of unity.  Raises CoverageFailure,
    carrying the partial result, when some node is covered by no
    admissible patch.
    """
    cfg = (config or EngineConfig()).validate()
    if not u:
        raise ValueError("no solutions supplied")
    grid = _common_grid(u)
    n = grid.dim
    if len(u) < num_solutions(n):
        raise ValueError(f"need at least {num_solutions(n)} solutions, got {len(u)}")

    gmax = np.array([float(np.abs(f.values).max()) for f in u])
    boxes = _patch_boxes(grid.shape, cfg)
    records = []
    for box in boxes:
        halo_box = _expand_box(box, grid.shape, cfg.halo)
        core_local = _local_window(box, halo_box)
        crops = [f.crop(halo_box) for f in u]
        sel = _select_on_patch(crops, core_local, cfg, gmax)
        rec = {"box": box, "halo": halo_box, "core_local": core_local,
               "selection": None, "admissible": False, "score": 0.0,
               "fields": None}
        if sel is not None:
            rb, fr, mb = sel.pop("_bundles")
            rep = reconstruct_class(rb, fr, mb)
            a_m, bpda, c = rep.triple_arrays()
            a_u, bpda_u, c_u, _ = unit_gauge_triple(a_m, bpda, c)
            rec["selection"] = {k: sel[k] for k in ("u1", "frame", "generators")}
            rec["admissible"] = bool(sel["admissible"])
            rec["score"] = float(sel["score"])
            rec["fields"] = (a_u[core_local], bpda_u[core_local], c_u[core_local])
        records.append(rec)

    signs = _align_patch_signs(records)

    wsum = np.zeros(grid.shape)
    acc_a = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    acc_b = np.zeros(grid.shape + (n,), dtype=np.complex128)
    acc_c = np.zeros(grid.shape, dtype=np.complex128)
    for rec, sign in zip(records, signs):
        if not rec["admissible"]:
            continue
        w = _patch_weight(rec["box"], grid.shape, cfg.overlap)
        a_u, bpda_u, c_u = rec["fields"]
        box = rec["box"]
        wsum[box] += w
        acc_a[box] += (sign * w)[..., None, None] * a_u
        acc_b[box] += (sign * w)[..., None] * bpda_u
        acc_c[box] += (sign * w) * c_u

    covered = wsum > 0
    patch_map = PatchMap(
        boxes=[tuple((sl.start, sl.stop) for sl in rec["box"]) for rec in records],
        admissible=[rec["admissible"] for rec in records],
        selections=[rec["selection"] for rec in records],
        scores=[rec["score"] for rec in records],
        signs=[int(s) for s in signs],
        coverage=covered,
    )

    ws = np.where(covered, wsum, 1.0)
    a_blend = acc_a / ws[..., None, None]
    b_blend = acc_b / ws[..., None]
    c_blend = acc_c / ws
    if covered.all():
        a_fin, b_fin, c_fin, _ = unit_gauge_triple(a_blend, b_blend, c_blend)
    else:
        a_fin, b_fin, c_fin = a_blend, b_blend, c_blend

    diagnostics = {
        "coverage": covered,
        "patch_scores": patch_map.scores,
        "admissible_patches": int(sum(patch_map.admissible)),
        "total_patches": len(records),
    }
    rep = _assemble_representative(grid, a_fin, b_fin, c_fin,
                                   gauge="unit-frobenius", diagnostics=diagnostics)
    if not covered.all():
        raise CoverageFailure(np.argwhere(~covered), partial=(rep, patch_map))
    return rep, patch_map


def _align_patch_signs(records: list[dict]) -> list[float]:
    """Breadth-first sign propagation over the patch overlap graph.

    Edge alignment compares the unit-gauge leading tensors on the shared
    core nodes with the Hermitian overlap; the best-scoring patch seeds
    with +1.
    """
    k = len(records)
    signs = [1.0] * k
    admissible = [i for i in range(k) if records[i]["admissible"]]
    if not admissible:
        return signs

    def boxes_overlap(b1, b2):
        return all(s1.start < s2.stop and s2.start < s1.stop for s1, s2 in zip(b1, b2))

    def shared(b1, b2):
        return tuple(slice(max(s1.start, s2.start), min(s1.stop, s2.stop))
                     for s1, s2 in zip(b1, b2))

    seen = set()
    start = max(admissible, key=lambda i: records[i]["score"])
    queue = [start]
    seen.add(start)
    while queue:
        p = queue.pop(0)
        bp = records[p]["box"]
        for q in admissible:
            if q in seen or not boxes_overlap(bp, records[q]["box"]):
                continue
            bq = records[q]["box"]
            ov = shared(bp, bq)
            loc_p = tuple(slice(s.start - c.start, s.stop - c.start)
                          for s, c in zip(ov, bp))
            loc_q = tuple(slice(s.start - c.start, s.stop - c.start)
                          for s, c in zip(ov, bq))
            ap = records[p]["fields"][0][loc_p]
            aq = records[q]["fields"][0][loc_q]
            inner = np.real(np.sum(ap * np.conj(aq)))
            signs[q] = signs[p] * (1.0 if inner >= 0 else -1.0)
            seen.add(q)
            queue.append(q)
    return signs
