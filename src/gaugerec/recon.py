"""Pointwise reconstruction of the coefficient class from interior solutions.

The pipeline consumes I(n) = n(n+3)/2 interior solutions of the same
equation, forms ratios v_j = u_{j+1}/u_1, and recovers the class
representative of the coefficient triple:

1. ``build_ratios``: ratios and their first/second derivatives.
2. ``build_frame``: gradient Gram matrix H of the first n ratios
   (bilinear products, no conjugation), its pointwise inverse and its
   condition number, all from one closed form in det H and the cofactors.
3. ``build_M``: for each remaining ratio w, coefficients theta with
   grad w + sum_j theta_j grad v_j = 0, the curvature matrices
   M = sum_j theta_j Hess v_j, and the normalized matrix M0 that pairs to
   delta_{0m} against (Id, M^1, ..).
4. ``reconstruct_class``: the representative (a, b + div a, c) in the
   u_1-normalized gauge a = M0 / u_1^2.

``reconstruct_global`` selects u_1, frame, and generators per patch.  The
engine is pointwise, so each candidate is evaluated once on the whole grid,
in row slabs, and a patch only reduces windows of its fields.  Frames are
ranked from one Gram matrix of all ratio gradients per u_1 and slab: each
frame's H is a sub-block of it, and its condition number comes from the
closed form that ``build_frame`` uses.  In the same pass it blends each
patch in the pointwise unit-Frobenius gauge, which does not depend on which
u_1 the patch picked and fixes its class up to one sign: the sign that
agrees with the blend so far, so the first admissible patch seeds +1.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from numbers import Integral

import numpy as np

from .errors import (
    ConfigError,
    CoverageFailure,
    FrameDegenerate,
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
    common_grid,
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

# The admissibility rule, judged per patch by the selector and on the whole
# grid by ``reconstruct_class``:
U1_FLOOR_REL = 1e-3  # floor on min |u_1| over a patch / max |u_1| on the grid
COND_MAX = 1e6       # ceiling on the Frobenius condition number of H
INDEP_MIN = 1e-8     # floor on the least singular value of vectorized (Id, M^1, ..)


@dataclass
class EngineConfig:
    """Patching controls for the reconstruction engine.

    ``patch_size = None`` treats the whole grid as a single patch; patches
    overlap by ``overlap`` nodes per axis.  The thresholds are constants.
    """

    patch_size: int | None = None
    overlap: int = 8

    def validate(self) -> "EngineConfig":
        ConfigError.check("engine.patch_size", self.patch_size, (Integral, type(None)),
                          "an integer or null")
        ConfigError.check("engine.overlap", self.overlap, (Integral,), "an integer")
        if self.patch_size is not None:
            if self.patch_size < 9:
                raise ConfigError("engine.patch_size", "patches need at least 9 nodes per axis")
            if not (0 < self.overlap < self.patch_size):
                raise ConfigError("engine.overlap", "need 0 < overlap < patch_size")
        return self


# ---------------------------------------------------------------------------
# Stage bundles
# ---------------------------------------------------------------------------

@dataclass
class RatioBundle:
    """Ratios v_j = u_{j+1}/u_1 with first and second derivatives.

    Arrays are stacked with the member index first: ``v`` is (m, *shape),
    ``grad_v`` is (m, *shape, n), ``hess_v`` is (m, *shape, n, n).  The
    values of u_1 and its derivatives ride along for the final coefficient
    recovery.
    """

    grid: Grid
    u1: np.ndarray
    v: np.ndarray
    grad_v: np.ndarray
    hess_v: np.ndarray
    grad_u1: np.ndarray
    hess_u1: np.ndarray

    def window(self, box: tuple[slice, ...]) -> "RatioBundle":
        """The bundle on an index box of its grid; the arrays are views."""
        m = (slice(None),) + box
        return RatioBundle(self.grid.subgrid(box), self.u1[box], self.v[m],
                           self.grad_v[m], self.hess_v[m], self.grad_u1[box],
                           self.hess_u1[box])


@dataclass
class FrameData:
    """Gram data of the frame ratios (indices ``frame``): H, its inverse
    adj H / det H (the identity where H is singular), the pointwise
    Frobenius condition number cond = ||H|| ||adj H|| / |det H|
    = ||H|| ||H^-1|| (``inf`` where H is singular), and ``ok`` where H is
    regular.  All four come from the closed form of :func:`_sym_frame`, so
    ``cond`` is the selector's ranking field, bit for bit."""

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
    of the vectorized (Id, M^1, ..) stack, and ``ok`` flags nodes where the
    pairing system was solvable.
    """

    theta: np.ndarray
    M: np.ndarray
    M0: np.ndarray
    indep: np.ndarray
    ok: np.ndarray
    lincomb_residual: float


@dataclass
class ClassRepresentative:
    """Coefficient triple up to gauge, plus diagnostics.

    ``gauge`` records the normalization: "u1-normalized" for the single
    patch contract a = M0/u_1^2, "unit-frobenius" for the pointwise
    normalization Tr(a a) = 1 used by the stitched reconstruction.
    ``b`` is the drift alone, b_plus_diva minus the discrete divergence of
    the reconstructed a.  ``diagnostics`` holds the per-node maps of a
    single-patch representative from ``reconstruct_class``; the stitched
    representative carries none (its coverage is ``PatchMap.coverage``).
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


@dataclass
class PatchMap:
    """Where each patch sits and what the selector chose there.

    ``signs`` holds the sign each patch's unit-gauge triple was blended
    with: -1 when it opposed the blend of the patches before it on their
    shared nodes, else +1, so the first admissible patch has +1.
    Inadmissible patches carry +1 and are not blended.
    """

    boxes: list[tuple[tuple[int, int], ...]]
    admissible: list[bool]
    selections: list[dict | None]
    scores: list[float]
    signs: list[int]
    coverage: np.ndarray


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def build_ratios(u: list[ScalarField]) -> RatioBundle:
    """Form v_j = u_{j+1}/u_1 and differentiate.

    Raises VanishingU1 at the nodes where u_1 is exactly 0.
    """
    if len(u) < 2:
        raise ValueError("need at least two solutions")
    grid = common_grid(u)
    zero = u[0].values == 0
    if zero.any():
        raise VanishingU1("u_1 vanishes on the grid", nodes=np.argwhere(zero))
    return _ratios(grid, u)


def _ratios(grid: Grid, u: list[ScalarField]) -> RatioBundle:
    """``build_ratios`` without its checks: where u_1 vanishes, the ratios
    and the derivatives that reach them are not finite."""
    u1 = u[0].values
    sp = grid.spacing
    v = np.stack([(f.values / u1) for f in u[1:]], axis=0)
    grad_v = np.stack([grad_values(vj, sp) for vj in v], axis=0)
    hess_packed = [hess_values(vj, sp) for vj in v]
    hess_v = np.stack([unpack_sym(hp, grid.dim) for hp in hess_packed], axis=0)
    grad_u1 = grad_values(u1, sp)
    hess_u1 = unpack_sym(hess_values(u1, sp), grid.dim)
    return RatioBundle(grid, u1, v, grad_v, hess_v, grad_u1, hess_u1)


def build_frame(rb: RatioBundle, frame: tuple[int, ...] | None = None) -> FrameData:
    """Gram matrix H_ij = grad v_i . grad v_j of the frame ratios, its
    inverse and its condition number (:func:`_frame_from_gram`).

    The product is bilinear (no conjugation).  ``frame`` selects which
    ratios form the frame (default: the first n).  ``cond`` is judged by
    ``reconstruct_class`` and the selector, not here.
    """
    n = rb.grid.dim
    if frame is None:
        frame = tuple(range(n))
    if len(frame) != n:
        raise ValueError(f"frame needs exactly {n} ratios")
    return _frame_from_gram(_gram(rb.grad_v[list(frame)]), tuple(frame))


def _frame_from_gram(h: dict, frame: tuple[int, ...]) -> FrameData:
    """The frame data of ``frame`` from the products ``h`` of its own
    gradients (:func:`_gram`, keys 0..n-1).  H and H^-1 = cof / det are
    unpacked in ``SYM_PAIRS`` order from the closed form of
    :func:`_sym_frame`; the identity stands in for H^-1 where H is
    singular."""
    n = len(frame)
    e, cof, det, ok, cond = _sym_frame(h, range(n))
    d = np.where(ok, det, 1.0)
    H = unpack_sym(np.stack([e[ab] for ab in SYM_PAIRS[n]], axis=-1), n)
    inv = unpack_sym(np.stack([cof[ab] / d for ab in SYM_PAIRS[n]], axis=-1), n)
    Hinv = np.where(ok[..., None, None], inv, np.eye(n, dtype=np.complex128))
    return FrameData(frame, H, Hinv, cond, ok)


def _regular(det: np.ndarray, scale: np.ndarray, n: int) -> np.ndarray:
    """Flag of the regular nodes of stacked n x n matrices A whose
    determinants ``det`` and largest entry moduli ``scale`` = max|A| the
    caller computed: a node is singular where |det| <= (1e-14 max|A|)^n, or
    where ``det`` or an entry of A is NaN or A holds an infinity.  The one
    singular-node rule of the frame and the pairing solve."""
    return np.abs(det) > (1e-14 * np.maximum(scale, _TINY)) ** n


def _gram(G: np.ndarray) -> dict:
    """Bilinear products G_i . G_j (no conjugation) of a stack of vector
    fields ``G`` (m, *shape, n), keyed (i, j) with i <= j.  Each is an
    elementwise sum of products, so every node rounds alike in any array
    it sits in: the products of a window are bitwise a window of the
    products."""
    m, n = G.shape[0], G.shape[-1]
    h = {}
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        h[i, j] = G[i, ..., 0] * G[j, ..., 0]
        for k in range(1, n):
            h[i, j] += G[i, ..., k] * G[j, ..., k]
    return h


def _sym_frame(h: dict, frame) -> tuple[dict, dict, np.ndarray, np.ndarray, np.ndarray]:
    """The one closed form of a frame's Gram matrix.

    For the symmetric 2 x 2 or 3 x 3 matrices H_ab = h[frame_a, frame_b]
    (``h`` as from :func:`_gram`) returns (e, cof, det, ok, cond): the
    entries and the cofactors on and above the diagonal, keyed (a, b) with
    a <= b (adj H = cof, as H is symmetric), det H, the flag of the nodes
    :func:`_regular` calls regular, and the Frobenius condition number
    ||H|| ||adj H|| / |det H| = ||H|| ||H^-1||, ``inf`` where H is
    singular.  Neither H nor its inverse is formed."""
    f = tuple(frame)
    n = len(f)
    e = {(a, b): h[f[a], f[b]] for a, b in SYM_PAIRS[n]}
    if n == 2:
        cof = {(0, 0): e[1, 1], (0, 1): -e[0, 1], (1, 1): e[0, 0]}
    else:
        cof = {(0, 0): e[1, 1] * e[2, 2] - e[1, 2] * e[1, 2],
               (0, 1): e[0, 2] * e[1, 2] - e[0, 1] * e[2, 2],
               (0, 2): e[0, 1] * e[1, 2] - e[0, 2] * e[1, 1],
               (1, 1): e[0, 0] * e[2, 2] - e[0, 2] * e[0, 2],
               (1, 2): e[0, 1] * e[0, 2] - e[0, 0] * e[1, 2],
               (2, 2): e[0, 0] * e[1, 1] - e[0, 1] * e[0, 1]}
    det = sum(e[0, b] * cof[0, b] for b in range(n))
    mod = {ab: np.abs(x) for ab, x in e.items()}
    ok = _regular(det, functools.reduce(np.maximum, mod.values()), n)
    adj_mod = {ab: np.abs(x) for ab, x in cof.items()}
    norms = np.sqrt(_sym_norm2(mod) * _sym_norm2(adj_mod))
    cond = np.divide(norms, np.abs(det), out=np.full(ok.shape, np.inf), where=ok)
    return e, cof, det, ok, cond


def _sym_norm2(mod: dict) -> np.ndarray:
    """Squared Frobenius norm of symmetric matrices from the moduli of
    their entries on and above the diagonal, keyed (a, b) with a <= b."""
    return sum(x * x if a == b else 2.0 * (x * x) for (a, b), x in mod.items())


def build_M(rb: RatioBundle, fr: FrameData,
            generators: tuple[int, ...] | None = None) -> MBundle:
    """Curvature matrices of the non-frame ratios and the paired M0.

    For each generator ratio w the gradient relation
    grad w = - sum_j theta_j grad v_j is solved through the frame Gram
    inverse; the curvature matrix is M = Hess w + sum_j theta_j Hess v_j.
    M0 is the combination of (Id, M^1, ..) that pairs to delta_{0m},
    normalized by the principal square root and oriented by ``_orientation``.
    ``indep`` is judged by ``reconstruct_class`` and the selector, not here.
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
    M0, ok = _pair_M0(stack)
    M0 *= _orientation(M0)[..., None, None]
    return MBundle(theta, M, M0, indep, ok, worst_lincomb)


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
    (K, p) blocks with p = n(n+1)/2.  Nodes with a non-finite entry get NaN
    (the batched SVD would raise on them).
    """
    rows = np.moveaxis(_vectorize_sym(stack), 0, -2)
    finite = np.isfinite(rows).all(axis=(-2, -1))
    sv = np.linalg.svd(np.where(finite[..., None, None], rows, 0.0), compute_uv=False)
    return np.where(finite, sv[..., -1], np.nan)


def _pair_M0(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the pairing conditions Tr(M0 B_m) = delta_0m over the stack
    B = (Id, M^1, ..) and normalize.

    P_km = Tr(B_k B_m), y = P^-1 e_0, M0 = sum y_k B_k / sqrt(y_0) (the
    constraints for m >= 1 hold by construction and the normalization
    Tr(M0 M0) = 1 follows from y^T P y = y_0).  Returns M0 and the flag of
    the nodes where P is regular and y_0 does not vanish.
    """
    K = stack.shape[0]
    shape = stack.shape[1:-2]
    P = np.einsum("k...ij,m...ji->...km", stack, stack)
    ok = _regular(np.linalg.det(P), np.abs(P).max(axis=(-2, -1)), K)
    safe = np.where(ok[..., None, None], P, np.eye(K, dtype=np.complex128))
    e0 = np.zeros(shape + (K,), dtype=np.complex128)
    e0[..., 0] = 1.0
    y = np.linalg.solve(safe, e0[..., None])[..., 0]
    raw = np.einsum("...k,k...ij->...ij", y, stack)
    s2 = y[..., 0]
    ok = ok & (np.abs(s2) > 1e-28)
    s = np.sqrt(np.where(ok, s2, 1.0))
    return raw / s[..., None, None], ok


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


def _orientation(W: np.ndarray) -> np.ndarray:
    """Per-node signs in {-1, +1} that orient a field of matrices.

    Neighbors on the scan path are aligned by the sign of the Hermitian
    overlap Re sum W_cur conj(W_prev); the whole field is then flipped, if
    needed, so that Re Tr W > 0 at the center node (Im Tr > 0 when the real
    part is 0).
    """
    shape = W.shape[:-2]

    def rel(cur, prev):
        ov = np.real(np.einsum("...ij,...ij->...", W[cur], np.conj(W[prev])))
        return np.where(ov < 0, -1.0, 1.0)

    sgn, _ = _axis_scan(shape, 1.0, rel, np.multiply)
    center = tuple(m // 2 for m in shape)
    tr = np.trace(W[center]) * sgn[center]
    return -sgn if (tr.real < 0 or (tr.real == 0 and tr.imag < 0)) else sgn


def reconstruct_class(rb: RatioBundle, fr: FrameData, mb: MBundle) -> ClassRepresentative:
    """The u_1-normalized representative of ``_class_triple``, with diagnostics.

    Raises FrameDegenerate where the frame condition exceeds ``COND_MAX``,
    else MDependent where the independence is below ``INDEP_MIN``."""
    bad = ~(fr.cond <= COND_MAX)
    if bad.any():
        raise FrameDegenerate(f"frame Gram matrix condition exceeds {COND_MAX:g}",
                              nodes=np.argwhere(bad))
    bad = ~(mb.indep >= INDEP_MIN)
    if bad.any():
        raise MDependent(f"(Id, M^1, ..) fail pointwise independence at {INDEP_MIN:g}",
                         nodes=np.argwhere(bad))
    a_arr, bpda, c, beta = _class_triple(rb, fr, mb.M0)
    resid = np.einsum("...ij,m...ij->m...", mb.M0, rb.hess_v) \
        + np.einsum("...k,m...k->m...", beta, rb.grad_v)
    scale = np.abs(np.einsum("...ij,m...ij->m...", mb.M0, rb.hess_v)).max(axis=0) \
        + np.abs(beta).max(axis=-1) * np.abs(rb.grad_v).max(axis=(0, -1)) + _TINY
    diagnostics = {"eq_residual": np.abs(resid).max(axis=0) / scale, "frame_cond": fr.cond,
                   "pairing_indep": mb.indep, "lincomb_residual": mb.lincomb_residual}
    return _assemble_representative(rb.grid, a_arr, bpda, c,
                                    gauge="u1-normalized", diagnostics=diagnostics)


def _class_triple(rb: RatioBundle, fr: FrameData, alpha: np.ndarray):
    """The u_1-normalized triple and beta, pointwise: (a, b + div a, c, beta).

    a = alpha/u_1^2 for the paired matrix alpha = M0; b + div a is
    (beta - a grad u_1^2)/u_1^2 with beta = -H^{ij} Tr(alpha Hess v_j) grad v_i;
    c closes the equation of u_1 itself.  Not finite where u_1 vanishes.
    """
    u1 = rb.u1
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
    return a_arr, bpda, c, beta


def _assemble_representative(grid: Grid, a_mat: np.ndarray, bpda: np.ndarray,
                             c: np.ndarray, gauge: str,
                             diagnostics: dict) -> ClassRepresentative:
    a_field = SymTensorField.from_matrix(grid, a_mat)
    bpda_field = VectorField(grid, bpda)
    c_field = ScalarField(grid, c)
    b_field = VectorField(grid, bpda - divergence_tensor(a_field).values)
    return ClassRepresentative(grid, a_field, bpda_field, c_field, b_field,
                               gauge=gauge, diagnostics=diagnostics)


def unit_gauge_triple(a_mat: np.ndarray, bpda: np.ndarray, c: np.ndarray):
    """Rescale a gauge triple so that Tr(a a) = 1 pointwise.

    The scale is the principal square root of the bilinear pairing
    Tr(a a), oriented by ``_orientation`` (neighbor continuity, then
    Re Tr a > 0 at the center node).  Because (a, b + div a, c) transforms
    multiplicatively along the gauge orbit, dividing all three by the same
    scalar field stays on the orbit.  Returns (a, b + div a, c, scale) with
    a = scale * a_unit exactly.
    """
    s2 = np.einsum("...ij,...ji->...", a_mat, a_mat)
    if (np.abs(s2) < 1e-28).any():
        raise VanishingGauge("Tr(a a) vanishes; the unit gauge is undefined")
    s = np.sqrt(s2)
    scale = s * _orientation(a_mat / s[..., None, None])
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


_MAX_FRAMES = 5    # frames tried per u_1 candidate, best conditioned first
_MAX_SUBSETS = 30  # generator subsets scored per frame


def _slabwise(rb: RatioBundle, size: int | None, kernel) -> tuple[np.ndarray, ...]:
    """The pointwise ``kernel`` on slabs of ``size`` rows (all rows when None;
    the last slab takes any shorter remainder), outputs joined along axis 0.
    Slabs bound the temporaries; where u_1 vanishes the outputs are not finite."""
    m = rb.grid.shape[0]
    step = min(size or m, m)
    edges = [*range(0, m - step + 1, step), m]
    rest = (slice(None),) * (rb.grid.dim - 1)
    with np.errstate(all="ignore"):
        parts = [kernel(rb.window((slice(lo, hi),) + rest)) for lo, hi in zip(edges, edges[1:])]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _candidate(rb: RatioBundle, frame, subset, u1_max: float) -> tuple[np.ndarray, ...]:
    """Pointwise (score, indep, ok, a, b + div a, c) of a frame and generator
    subset: the score is |u_1|/``u1_max`` / cond(H) * indep, ``ok`` flags a
    solvable frame and pairing, and the triple is u_1-normalized."""
    fr = build_frame(rb, frame=frame)
    mb = build_M(rb, fr, generators=subset)
    margin = np.abs(rb.u1) / max(u1_max, _TINY)
    return (margin / np.maximum(fr.cond, 1.0) * mb.indep, mb.indep, mb.ok & fr.ok,
            *_class_triple(rb, fr, mb.M0)[:3])


def _select_on_patch(u: list[ScalarField], box: tuple[slice, ...], ratios, conds,
                     candidate, gmax: np.ndarray):
    """Choose (u1, frame, generators) on one patch.

    ``ratios(i)`` (the bundle with ``u[i]`` as u_1), ``conds(i)`` (frame ->
    condition field) and ``candidate(i, frame, generators)`` (the fields of
    ``_candidate``) are full-grid; the patch reduces windows of them.  The
    condition fields come from one Gram matrix of the ratio gradients per
    u_1 (:func:`_gram`, :func:`_sym_frame`).  Frames go best conditioned
    first (worst node over the patch), candidates are ranked by worst-node
    score, and a window that holds a non-finite value is not admissible.
    Frame by frame, the best-scoring candidate that clears ``COND_MAX`` and
    ``INDEP_MIN`` on the patch wins and is returned as (selection, score,
    (a, b + div a, c)), its triple in the unit-Frobenius gauge.  Otherwise
    the best-scoring failed attempt is returned as (selection, score, None)
    so the caller can report it.  None when no u_1 clears ``U1_FLOOR_REL``.
    """
    G_needed = num_generators(u[0].grid.dim)
    margins = np.array([np.abs(f.values[box]).min() / max(gm, _TINY)
                        for f, gm in zip(u, gmax)])
    order = [i for i in np.argsort(-margins, kind="stable")
             if margins[i] >= U1_FLOOR_REL]
    best = None
    for i1 in order:
        rb = ratios(i1).window(box)
        if not (np.isfinite(rb.grad_v).all() and np.isfinite(rb.hess_v).all()):
            continue
        others = [j for j in range(len(u)) if j != i1]
        frame_scored = sorted((float(cond[box].max()), combo)
                              for combo, cond in conds(i1).items())
        for worst_cond, combo in frame_scored[:_MAX_FRAMES]:
            top = top_ok = None
            pool = [j for j in range(len(others)) if j not in combo]
            for subset in itertools.islice(itertools.combinations(pool, G_needed), _MAX_SUBSETS):
                score_f, indep, ok = candidate(i1, combo, subset)[:3]
                core_ok = bool(ok[box].all())
                score = float(score_f[box].min()) if core_ok else 0.0
                if core_ok and worst_cond <= COND_MAX and float(indep[box].min()) >= INDEP_MIN:
                    if top_ok is None or score > top_ok[0]:
                        top_ok = (score, subset)
                elif top is None or score > top[0]:
                    top = (score, subset)
            if top_ok is not None:
                score, subset = top_ok
                # copied: on a strided view its einsum may round differently
                return (_selection(i1, others, combo, subset), score, unit_gauge_triple(
                    *(x[box].copy() for x in candidate(i1, combo, subset)[3:]))[:3])
            if top is not None and (best is None or top[0] > best[1]):
                best = (_selection(i1, others, combo, top[1]), top[0], None)
    return best


def _selection(i1: int, others: list[int], combo, subset) -> dict:
    return {"u1": int(i1), "frame": tuple(int(others[k]) for k in combo),
            "generators": tuple(int(others[k]) for k in subset)}


def reconstruct_global(u: list[ScalarField], config: EngineConfig | None = None
                       ) -> tuple[ClassRepresentative, PatchMap]:
    """Patch-wise reconstruction with automatic member selection.

    One pass over the patches: every patch picks its own u_1, frame, and
    generator subset, and its representative, normalized to the pointwise
    unit-Frobenius gauge (independent of the u_1 choice), is blended with a
    smooth partition of unity as soon as it is selected.  A candidate is
    evaluated on the whole grid, in slabs of ``patch_size`` rows, when a
    patch first asks for it.  So are the condition fields of all frames of
    a u_1, which are ranked from one Gram matrix of its ratio gradients per
    slab, without building a frame.  The unit gauge fixes the class up to a
    sign per patch; that sign aligns the patch with the blend accumulated so
    far, so the first admissible patch seeds +1.  Raises CoverageFailure,
    carrying the partial result, when some node is covered by no admissible
    patch.
    """
    cfg = (config or EngineConfig()).validate()
    if not u:
        raise ValueError("no solutions supplied")
    grid = common_grid(u)
    n = grid.dim
    if len(u) < num_solutions(n):
        raise ValueError(f"need at least {num_solutions(n)} solutions, got {len(u)}")

    gmax = np.array([float(np.abs(f.values).max()) for f in u])
    combos = list(itertools.combinations(range(len(u) - 1), n))

    @functools.cache
    def ratios(i1: int) -> RatioBundle:
        with np.errstate(all="ignore"):
            return _ratios(grid, [u[i1], *u[:i1], *u[i1 + 1:]])

    def frame_conds(rb: RatioBundle) -> tuple[np.ndarray, ...]:
        h = _gram(rb.grad_v)
        return tuple(_sym_frame(h, combo)[-1] for combo in combos)

    @functools.cache
    def conds(i1: int) -> dict:
        return dict(zip(combos, _slabwise(ratios(i1), cfg.patch_size, frame_conds)))

    @functools.cache
    def candidate(i1: int, frame, subset) -> tuple[np.ndarray, ...]:
        return _slabwise(ratios(i1), cfg.patch_size,
                         lambda rb: _candidate(rb, frame, subset, gmax[i1]))

    wsum = np.zeros(grid.shape)
    acc_a = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    acc_b = np.zeros(grid.shape + (n,), dtype=np.complex128)
    acc_c = np.zeros(grid.shape, dtype=np.complex128)
    patch_map = PatchMap([], [], [], [], [], coverage=None)  # set after the pass
    for box in _patch_boxes(grid.shape, cfg):
        selection, score, triple = (_select_on_patch(u, box, ratios, conds, candidate, gmax)
                                    or (None, 0.0, None))
        sign = 1
        if triple is not None:
            a_u, bpda_u, c_u = triple
            if np.real(np.sum(acc_a[box] * np.conj(a_u))) < 0:
                sign = -1
            w = _patch_weight(box, grid.shape, cfg.overlap)
            wsum[box] += w
            sw = sign * w
            acc_a[box] += sw[..., None, None] * a_u
            acc_b[box] += sw[..., None] * bpda_u
            acc_c[box] += sw * c_u
        patch_map.boxes.append(tuple((sl.start, sl.stop) for sl in box))
        patch_map.admissible.append(triple is not None)
        patch_map.selections.append(selection)
        patch_map.scores.append(score)
        patch_map.signs.append(sign)
    for cache in (ratios, conds, candidate):
        cache.cache_clear()

    covered = patch_map.coverage = wsum > 0
    ws = np.where(covered, wsum, 1.0)
    blend = (acc_a / ws[..., None, None], acc_b / ws[..., None], acc_c / ws)
    if covered.all():
        blend = unit_gauge_triple(*blend)[:3]
    rep = _assemble_representative(grid, *blend, gauge="unit-frobenius", diagnostics={})
    if not covered.all():
        raise CoverageFailure(np.argwhere(~covered), partial=(rep, patch_map))
    return rep, patch_map
