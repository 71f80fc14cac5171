"""Pointwise reconstruction of the coefficient class from interior solutions.

The pipeline consumes I(n) = n(n+3)/2 interior solutions of the same
equation, forms ratios v_j = u_{j+1}/u_1, and recovers the class
representative of the coefficient triple:

1. ``build_ratios``: ratios and their first/second derivatives.
2. ``build_frame``: the pointwise inverse and the condition number of the
   gradient Gram matrix H of the first n ratios (bilinear products, no
   conjugation), both from one closed form in det H and the cofactors.
3. ``build_M``: for each remaining ratio w, coefficients theta with
   grad w + sum_j theta_j grad v_j = 0, the curvature matrices
   M = Hess w + sum_j theta_j Hess v_j, then one per-node problem on the
   vectorized stack V of (Id, M^1, ..) (``_pairing``): its independence
   score and M0 = unvec(x) / sqrt(x^T x), x = V^-1 e_0, which pairs to
   delta_{0m} against it, up to a sign per node; V's cofactor row in 2D,
   one SVD and one solve of V in 3D.
4. ``reconstruct_class``: M0 oriented, and the representative
   (a, b + div a, c) in the u_1-normalized gauge a = M0 / u_1^2.

``reconstruct_global`` selects u_1, frame, and generators per patch.  The
engine is pointwise, so one rule cuts the grid into kernel calls in every
run, with or without patches: the frames of a u_1 are bounded on a sample
of the grid, its nodes of even indices, and a frame's condition field
(the closed form that ``build_frame`` uses) is evaluated on the whole grid
only when its bound can rank it first on some box (``_Selector.frames``);
a candidate is evaluated in slabs of whole rows within a fixed node
budget, only on the nodes of the boxes that name it, in rounds
(``_select_patches``, ``_evaluate``).
One rule, ``_reasons``, judges admissibility per node: a patch is
admissible where every node passes, and ``reconstruct_class`` raises at the
nodes that fail.  Each field is reduced at once over every patch box; a
patch reads entries of these tables.
Then it blends each patch in the pointwise unit-Frobenius gauge, which
does not depend on which u_1 the patch picked, nor on the sign of M0, and
fixes its class up to one sign: the sign that agrees with the blend so far,
so the first admissible patch seeds +1.  One routine, ``_UnitGauge``, sets up that
gauge: its scale and neighbour signs are computed once on the whole grid
per winning candidate, and a patch chains the signs inside its box;
``unit_gauge_triple`` is that routine on the one box of the whole grid.
"""

from __future__ import annotations

import functools
import heapq
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
    _derivatives,
    common_grid,
    divergence_tensor,
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

# The admissibility rule: the selector's box pre-filter on u_1, then the two
# bounds that ``_reasons`` alone compares, per node:
U1_FLOOR_REL = 1e-3  # floor on min |u_1| over a patch / max |u_1| on the grid
COND_MAX = 1e6       # ceiling on the Frobenius condition number of H
INDEP_MIN = 1e-8     # floor on the least singular value of vectorized (Id, M^1, ..)


@dataclass
class EngineConfig:
    """Patching controls for the reconstruction engine.

    ``patch_size = None`` treats the whole grid as a single patch.  Patches
    overlap by ``overlap`` nodes per axis.  Neither sets how the engine's
    kernels cut the grid: a candidate is evaluated in slabs of whole rows
    within a fixed node budget in every run, so the engine's temporaries do
    not grow with the grid.  The thresholds are constants.
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

    def gather(self, nodes: tuple) -> "RatioBundle":
        """The bundle on the nodes that the index ``nodes`` picks from the
        grid's axes: index arrays, one per axis as from ``np.nonzero``, lay
        them out on one axis as copies; slices, such as a slab of rows, keep
        their axes as views.  ``grid`` stays the grid the nodes come from,
        so only the pointwise stages, which read its dimension, take such a
        bundle; unlike :meth:`window`, a slab may be shorter than a grid's
        ``MIN_NODES_PER_AXIS``."""
        m = (slice(None),) + nodes
        return RatioBundle(self.grid, self.u1[nodes], self.v[m], self.grad_v[m],
                           self.hess_v[m], self.grad_u1[nodes], self.hess_u1[nodes])


@dataclass
class FrameData:
    """Gram data of the frame ratios (indices ``frame``): the inverse
    adj H / det H of their Gram matrix H (the identity where H is
    singular), the pointwise Frobenius condition number
    cond = ||H|| ||adj H|| / |det H| = ||H|| ||H^-1|| (``inf`` where H is
    singular), and ``ok`` where H is regular.  All three come from the
    closed form of :func:`_sym_frame`, so ``cond`` is the selector's ranking
    field, bit for bit; H itself is not kept."""

    frame: tuple[int, ...]
    Hinv: np.ndarray
    cond: np.ndarray
    ok: np.ndarray


@dataclass
class MBundle:
    """Curvature matrices and the normalized pairing solution M0.

    ``M`` holds one curvature matrix per generator.  ``M0`` is normalized by
    the principal square root and not oriented: its sign per node is fixed
    by ``reconstruct_class``, the one stage whose output depends on it.
    ``indep`` is the smallest singular value of the vectorized stack V of
    (Id, M^1, ..), and ``ok`` flags nodes where V x = e_0 was solved; M0 is
    the identity where it was not.  All three come from one per-node
    problem on V in 2D and 3D alike (``_pairing``).
    """

    M: np.ndarray
    M0: np.ndarray
    indep: np.ndarray
    ok: np.ndarray


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
    and the derivatives that reach them are not finite.

    u_1 and the m ratios share one (m+1, *shape) stack, differentiated as a
    whole by ``fields._derivatives``, the stencils of ``grad_values`` and
    ``hess_values``.  The bundle's arrays are views of that stack and its
    derivatives.
    """
    u1 = u[0].values
    w = np.empty((len(u),) + grid.shape, dtype=np.complex128)
    w[0] = u1
    for k, f in enumerate(u[1:], start=1):
        np.divide(f.values, u1, out=w[k])
    grad, hess = _derivatives(w, grid.spacing, lead=1)
    return RatioBundle(grid, u1, w[1:], grad[1:], hess[1:], grad[0], hess[0])


def build_frame(rb: RatioBundle, frame: tuple[int, ...] | None = None) -> FrameData:
    """Inverse and condition number of the Gram matrix
    H_ij = grad v_i . grad v_j of the frame ratios (:func:`_frame_from_gram`).

    The product is bilinear (no conjugation).  ``frame`` selects which
    distinct ratios form the frame (default: the first n; ValueError names
    a bad index).  ``cond`` is judged by :func:`_reasons`, not here.
    """
    n = rb.grid.dim
    frame = tuple(range(n)) if frame is None else _indices("frame", frame, rb.v.shape[0])
    if len(frame) != n:
        raise ValueError(f"frame needs exactly {n} ratios")
    return _frame_from_gram(_gram(rb.grad_v[list(frame)]), frame)


def _indices(name: str, idx, m: int) -> tuple:
    """``idx`` as a tuple; a ValueError names an index outside 0..m-1 or repeated."""
    for k, j in enumerate(idx):
        if not 0 <= j < m or j in idx[:k]:
            why = "repeated" if j in idx[:k] else "out of range"
            raise ValueError(f"{name} index {j} is {why} for {m} ratios")
    return tuple(idx)


def _frame_from_gram(h: dict, frame: tuple[int, ...]) -> FrameData:
    """The frame data of ``frame`` from the products ``h`` of its own
    gradients (:func:`_gram`, keys 0..n-1).  H^-1 = cof / det is unpacked
    in ``SYM_PAIRS`` order from the closed form of :func:`_sym_frame`; the
    identity stands in for it where H is singular."""
    n = len(frame)
    _, cof, det, ok, cond = _sym_frame(h, range(n))
    d = np.where(ok, det, 1.0)
    inv = unpack_sym(np.stack([cof[ab] / d for ab in SYM_PAIRS[n]], axis=-1), n)
    Hinv = np.where(ok[..., None, None], inv, np.eye(n, dtype=np.complex128))
    return FrameData(frame, Hinv, cond, ok)


def _regular(det: np.ndarray, scale: np.ndarray, n: int) -> np.ndarray:
    """Flag of the regular nodes of stacked n x n matrices A whose
    determinants ``det`` and largest entry moduli ``scale`` = max|A| the
    caller computed: a node is singular where |det| <= (1e-14 max|A|)^n, or
    where ``det`` or an entry of A is NaN or A holds an infinity.  The one
    singular-node rule of the frame and the pairing, which passes
    (sigma_min, max|V| in 2D or sigma_max in 3D, 1) of its stack V."""
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
    """The one closed form of a frame's Gram matrix, for frames and their ranking.

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


def _frame_conds(G: np.ndarray, frames: list[tuple[int, ...]]) -> np.ndarray:
    """The condition field of each of ``frames``, stacked (len(frames),
    *shape): ``build_frame``'s ``cond`` for the frames of the ratio
    gradients ``G`` (m, *shape, n), bit for bit, from their products
    (:func:`_gram`) and :func:`_sym_frame` frame by frame.  Every step is
    elementwise, so a node gets the same bits in any array it sits in."""
    h = _gram(G)
    return np.array([_sym_frame(h, f)[-1] for f in frames])


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
    normalized by the principal square root but not oriented: the selector's
    unit gauge does not see its sign, and ``reconstruct_class`` orients it.
    M0, ``ok`` and ``indep``, the smallest singular value of the vectorized
    stack V judged by :func:`_reasons`, come from one per-node problem on V
    (:func:`_pairing`): a 3 x 3 closed form in 2D, one batched SVD and one
    batched solve in 3D (6 x 6).  Indices are checked as in ``build_frame``.
    """
    n = rb.grid.dim
    shape = rb.u1.shape  # the grid's, or one axis for a gathered bundle
    G_needed = num_generators(n)
    m_total = rb.v.shape[0]
    generators = (tuple(j for j in range(m_total) if j not in fr.frame)[:G_needed]
                  if generators is None else _indices("generators", generators, m_total))
    if len(generators) != G_needed:
        raise ValueError(f"need exactly {G_needed} generator ratios")
    if set(generators) & set(fr.frame):
        raise ValueError("generators overlap the frame")

    Gf = rb.grad_v[list(fr.frame)]
    Hf = rb.hess_v[list(fr.frame)]
    M = np.empty((G_needed,) + shape + (n, n), dtype=np.complex128)
    for g, w in enumerate(generators):
        t = np.einsum("...k,j...k->...j", rb.grad_v[w], Gf)
        th = -np.einsum("...jk,...k->...j", fr.Hinv, t)
        M[g] = rb.hess_v[w] + np.einsum("...j,j...kl->...kl", th, Hf)

    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), shape + (n, n))
    indep, M0, ok = _pairing(np.concatenate([eye[None], M], axis=0))
    return MBundle(M, M0, indep, ok)


def _vectorize_sym(stack: np.ndarray) -> np.ndarray:
    """Map stacked symmetric matrices (K, *shape, n, n) to rows (K, p, *shape),
    p = n(n+1)/2, with Frobenius-compatible weights (off-diagonals scaled by
    sqrt 2), so the bilinear product of rows k and m is Tr(B_k B_m)."""
    n = stack.shape[-1]
    comps = []
    for i, j in SYM_PAIRS[n]:
        w = 1.0 if i == j else np.sqrt(2.0)
        comps.append(w * stack[..., i, j])
    return np.stack(comps, axis=1)


# Nodes per call of the 2D closed form.  Its temporaries, about 1 kB a node,
# then stay below the batched SVD's workspace.  And a complex array of a
# chunk (32 kB) stays under the 256 kB from which numpy reuses an unnamed
# temporary in place, a path that rounds x * conj(y) differently, so a
# node's bits do not depend on the size of the grid it sits in.
_CHUNK = 2048


def _pairing(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-node problem of the stack B = (Id, M^1, ..) (K, *shape, n, n)
    on the K x K matrix V whose rows are the vectorized B_k
    (:func:`_vectorize_sym`): (indep, M0, ok).

    ``indep`` is sigma_min(V) (NaN where an entry is not finite).
    x = V^-1 e_0 solves Tr(M0 B_m) = delta_0m for M0 = unvec(x), normalized
    by the principal root of x^T x (bilinear), not oriented.  ``ok`` flags
    where sigma_min > 1e-14 times the size of V (:func:`_regular`), which an
    exactly dependent stack fails, and |x^T x| > 1e-28; elsewhere M0 = Id.
    In 2D (K = 3) :func:`_least_singular_3x3` gives sigma_min, the size
    max|V| and x in closed form, ``_CHUNK`` nodes a call; in 3D one batched
    SVD gives sigma_min and the size sigma_max, and one batched solve x.
    Neither forms V V^T, which would square V's condition number.
    """
    K, n = stack.shape[0], stack.shape[-1]
    rows = _vectorize_sym(stack)
    shape = rows.shape[2:]
    if K == 3:
        flat = rows.reshape(3, 3, -1)
        nodes = flat.shape[-1]
        indep, size, x = np.empty(nodes), np.empty(nodes), np.empty((3, nodes), np.complex128)
        for lo in range(0, nodes, _CHUNK):
            c = slice(lo, lo + _CHUNK)
            indep[c], size[c], x[:, c] = _least_singular_3x3(flat[..., c])
        indep, size, x = indep.reshape(shape), size.reshape(shape), x.T.reshape(shape + (3,))
    else:
        A = np.moveaxis(rows, (0, 1), (-2, -1))
        finite = np.isfinite(A).all(axis=(-2, -1))
        sv = np.linalg.svd(np.where(finite[..., None, None], A, 0.0), compute_uv=False)
        indep, size = np.where(finite, sv[..., -1], np.nan), sv[..., 0]
    ok = _regular(indep, size, 1)
    if K != 3:
        x = np.linalg.solve(np.where(ok[..., None, None], A, np.eye(K)), np.eye(K)[:, :1])[..., 0]
    x = np.where(ok[..., None], x, 0.0)
    y0 = np.einsum("...k,...k->...", x, x)
    ok = ok & (np.abs(y0) > 1e-28)
    raw = unpack_sym(x / np.array([1.0 if i == j else np.sqrt(2.0) for i, j in SYM_PAIRS[n]]), n)
    M0 = raw / np.sqrt(np.where(ok, y0, 1.0))[..., None, None]
    return indep, np.where(ok[..., None, None], M0, np.eye(n)), ok


def _cross(x, y) -> tuple:
    """Bilinear cross product (no conjugation) of two stacked 3-vectors."""
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _hdot(x, y) -> np.ndarray:
    """Hermitian product x^H y of two stacked 3-vectors."""
    return np.conj(x[0]) * y[0] + np.conj(x[1]) * y[1] + np.conj(x[2]) * y[2]


def _unit(x) -> tuple:
    """A stacked 3-vector divided by its norm; 0 where the norm is 0."""
    n2 = _hdot(x, x).real
    inv = np.where(n2 > 0, 1.0 / np.sqrt(np.where(n2 > 0, n2, 1.0)), 0.0)
    return tuple(t * inv for t in x)


def _least_singular_3x3(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2D pairing of :func:`_pairing` in closed form for 3 x 3 complex
    matrices A (row, column, *shape): (sigma_3, max|A|, x = A^-1 e_0).

    The cofactor matrix C has the rows r1 x r2, r2 x r0 and r0 x r1 of the
    rows r of A (:func:`_cross`), det A = r0 . (r1 x r2), x = C[0] / det A
    (0 where det A vanishes) and sigma_3 = |det A| / ||adj A||_2, where
    ||adj A||_2^2 = sigma_1^2 sigma_2^2 is the largest eigenvalue of the
    Hermitian C C^H (:func:`_top_eigenvalue`); 0 where that vanishes.  A is
    scaled per node by a power of two, so that no product overflows in the
    double range, and sigma_3 and x are unscaled exactly by the same power.
    sigma_3 is capped by sigma_2 <= sqrt(3) ||adj A||_2 / ||A||_F, so a
    node of rank 1 reads roundoff, not a ratio of two roundoffs.  Its
    absolute error is about eps sigma_1 (sigma_1/sigma_2), against the SVD's
    eps sigma_1: the two differ only where sigma_2 is small too, and there
    sigma_3 <= sigma_2.  Nodes with a non-finite entry get NaN.
    """
    big = np.abs(A).max(axis=(0, 1))
    finite = np.isfinite(big)
    exponent = np.clip(np.frexp(np.where(finite, big, 1.0))[1], -1000, 1000)
    with np.errstate(invalid="ignore"):
        A = A * np.ldexp(1.0, -exponent)
        r = [tuple(row) for row in A]
        cof = [_cross(r[1], r[2]), _cross(r[2], r[0]), _cross(r[0], r[1])]
        det = r[0][0] * cof[0][0] + r[0][1] * cof[0][1] + r[0][2] * cof[0][2]
        g = {(a, b): _hdot(cof[b], cof[a]) for a, b in SYM_PAIRS[3]}
        root = np.sqrt(_top_eigenvalue(g))
        zero = np.zeros(root.shape)
        smin = np.divide(np.abs(det), root, out=zero.copy(), where=root > 0)
        fro = np.sqrt(np.einsum("ij...,ij...->...", A, A.conj()).real)
        cap = np.sqrt(3.0) * np.divide(root, fro, out=zero, where=fro > 0)
        x = np.divide(cof[0], det, out=np.zeros((3,) + det.shape, dtype=np.complex128),
                      where=np.abs(det) > _TINY)
        return (np.where(finite, np.ldexp(np.minimum(smin, cap), exponent), np.nan), big,
                x * np.ldexp(1.0, -exponent))


def _top_eigenvalue(g: dict) -> np.ndarray:
    """Largest eigenvalue of Hermitian 3 x 3 matrices G, given as their
    entries on and above the diagonal, keyed (a, b) with a <= b.

    The smallest eigenvalue lam_3 comes from the trigonometric formula
    (Smith 1961, "Eigenvalues of a symmetric 3 x 3 matrix").  That
    formula's largest root loses accuracy as the top two eigenvalues meet,
    where 1 - r^2 cancels: at sigma_2 = sigma_3 in ``_least_singular_3x3``
    it is off by about sqrt(eps).  So lam_1 = lam_3 + mu, with mu the
    largest eigenvalue of N = G - lam_3 I, taken as the larger of two
    Rayleigh-Ritz values, each a lower bound on mu:

    - on the complement of N's null vector v (the largest column of adj N),
      spanned by a Householder reflector: the 2 x 2 compression's larger
      eigenvalue is (t11 + t22)/2 + sqrt(((t11 - t22)/2)^2 + |t12|^2), a
      sum of squares.  Exact to roundoff unless N is nearly of rank 1;
    - x^H N x for x along N's largest column, which is exact to roundoff
      when N is nearly of rank 1, the case where v is noise.
    """
    a, b, c = g[0, 0].real, g[1, 1].real, g[2, 2].real
    d, e, f = g[0, 1], g[0, 2], g[1, 2]
    dc, ec, fc = np.conj(d), np.conj(e), np.conj(f)
    md, me, mf = (d * dc).real, (e * ec).real, (f * fc).real
    q = (a + b + c) / 3.0
    a0, b0, c0 = a - q, b - q, c - q
    p = np.sqrt((a0 * a0 + b0 * b0 + c0 * c0 + 2.0 * (md + me + mf)) / 6.0)
    det0 = a0 * b0 * c0 + 2.0 * (d * f * ec).real - a0 * mf - b0 * me - c0 * md
    r = np.clip(det0 / (2.0 * np.where(p > 0, p, 1.0) ** 3), -1.0, 1.0)
    lam3 = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)

    na, nb, nc = a - lam3, b - lam3, c - lam3

    def apply_N(y):
        return (na * y[0] + d * y[1] + e * y[2], dc * y[0] + nb * y[1] + f * y[2],
                ec * y[0] + fc * y[1] + nc * y[2])

    x = _unit(_largest((na, dc, ec), (d, nb, fc), (e, f, nc),
                       na * na + md + me, md + nb * nb + mf, me + mf + nc * nc))
    mu_x = _hdot(x, apply_N(x)).real

    p01, p02, p12 = e * fc - d * nc, d * f - e * nb, e * dc - na * f   # adj N above the diagonal
    m01, m02, m12 = (p01 * np.conj(p01)).real, (p02 * np.conj(p02)).real, (p12 * np.conj(p12)).real
    q00, q11, q22 = nb * nc - mf, na * nc - me, na * nb - md
    v = _unit(_largest((q00, np.conj(p01), np.conj(p02)), (p01, q11, np.conj(p12)),
                       (p02, p12, q22),
                       q00 * q00 + m01 + m02, m01 + q11 * q11 + m12, m02 + m12 + q22 * q22))
    # H = I - beta w w^H maps v onto e_0, so H e_1 and H e_2 span v's complement
    av0 = np.abs(v[0])
    phase = np.where(av0 > 0, v[0] / np.where(av0 > 0, av0, 1.0), 1.0)
    w = (v[0] + phase, v[1], v[2])
    beta = 1.0 / (1.0 + av0)
    z = apply_N(w)
    bs = beta * beta * _hdot(w, z).real
    w1c, w2c = np.conj(w[1]), np.conj(w[2])
    t11 = nb - 2.0 * beta * (w[1] * np.conj(z[1])).real + bs * (w[1] * w1c).real
    t22 = nc - 2.0 * beta * (w[2] * np.conj(z[2])).real + bs * (w[2] * w2c).real
    t12 = f - beta * (w[1] * np.conj(z[2]) + z[1] * w2c) + bs * w[1] * w2c
    h = (t11 - t22) / 2.0
    mu_v = (t11 + t22) / 2.0 + np.sqrt(h * h + (t12 * np.conj(t12)).real)
    return lam3 + np.maximum(mu_x, mu_v)


def _largest(c0, c1, c2, n0, n1, n2) -> tuple:
    """Per node, the one of three stacked 3-vectors with the largest squared
    norm (given as ``n0, n1, n2``), the first on ties."""
    k0 = (n0 >= n1) & (n0 >= n2)
    k1 = ~k0 & (n1 >= n2)
    return tuple(np.where(k0, s, np.where(k1, t, u)) for s, t, u in zip(c0, c1, c2))


def _edge_prefix(W: np.ndarray) -> list[np.ndarray]:
    """Per axis k of a field of matrices, the products of the edge signs
    (:func:`_edge_sign`) along axis k from the start of every grid line, 1
    at its first node.  The sign change between two nodes of a line is the
    product of their entries, exact in +-1."""
    out = []
    for k in range(W.ndim - 2):
        head = (slice(None),) * k
        p = np.ones(W.shape[:-2])
        np.multiply.accumulate(_edge_sign(W[head + (slice(1, None),)],
                                          W[head + (slice(None, -1),)]),
                               axis=k, out=p[head + (slice(1, None),)])
        out.append(p)
    return out


def _scan_signs(prefix: list[np.ndarray], box: tuple[slice, ...]) -> np.ndarray:
    """Carry a sign from the first node of ``box`` (+1) along its scan path.

    The path runs down axis 0 from the first node, then along axis 1 from
    every node reached so far, then along axis 2 in 3D.  The sign change
    along each leg is the product of the leg's two entries of ``prefix``
    (:func:`_edge_prefix`), so a box of a larger grid reads the signs its
    own windows would give.
    """
    start = tuple(sl.start for sl in box)
    sgn = np.ones(())
    for k, p in enumerate(prefix):
        # leg k ends at the node's coordinates on axes <= k, the start beyond
        leg = p[box[:k + 1] + start[k + 1:]] * p[box[:k] + start[k:]][..., None]
        sgn = sgn[..., None] * leg
    return sgn


def _edge_sign(W_cur: np.ndarray, W_prev: np.ndarray) -> np.ndarray:
    """The sign (+-1) of the Hermitian overlap Re sum W_cur conj(W_prev)
    across each edge between two windows of a field of matrices; +1 where
    it is 0 or NaN."""
    ov = np.real(np.einsum("...ij,...ij->...", W_cur, np.conj(W_prev)))
    return np.where(ov < 0, -1.0, 1.0)


def _flip_at_center(sgn: np.ndarray, W_center: np.ndarray) -> np.ndarray:
    """``sgn`` or ``-sgn``, whichever makes Re Tr W > 0 at the center node of
    ``sgn``'s box (Im Tr > 0 when the real part is 0); ``W_center`` is W at
    that node."""
    tr = np.trace(W_center) * sgn[tuple(m // 2 for m in sgn.shape)]
    return -sgn if (tr.real < 0 or (tr.real == 0 and tr.imag < 0)) else sgn


def _orientation(W: np.ndarray) -> np.ndarray:
    """Per-node signs in {-1, +1} that orient a field of matrices.

    Neighbors on the scan path (:func:`_scan_signs`) are aligned by
    :func:`_edge_sign`; the whole field is then flipped, if needed, by
    :func:`_flip_at_center`.
    """
    shape = W.shape[:-2]
    sgn = _scan_signs(_edge_prefix(W), tuple(slice(0, m) for m in shape))
    return _flip_at_center(sgn, W[tuple(m // 2 for m in shape)])


def _reasons(cond: np.ndarray, indep: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The admissibility rule, per node: the first condition that fails, as a
    uint8 code: 0 none, 1 frame condition above ``COND_MAX``, 2 independence
    below ``INDEP_MIN`` (NaN fails both), 3 unsolvable frame or pairing."""
    return np.select([~(cond <= COND_MAX), ~(indep >= INDEP_MIN), ~ok],
                     [np.uint8(1), np.uint8(2), np.uint8(3)], np.uint8(0))


def reconstruct_class(rb: RatioBundle, fr: FrameData, mb: MBundle) -> ClassRepresentative:
    """The u_1-normalized representative of ``_class_triple``, with diagnostics.

    M0 is oriented here (:func:`_orientation`), the one stage whose output
    depends on its sign.  ``eq_residual`` is, per node, the largest over the
    ratios v_m of the residual of M0 : Hess v_m + beta . grad v_m = 0
    relative to the size of its terms, sum_ij |M0_ij| |d_ij v_m| +
    sum_k |beta_k| |d_k v_m|, floored at eps max|M0| max|Hess v_m|.  On
    exact data it reads roundoff also where the summed terms cancel (the 2D
    constant classes); where every term of a ratio's equation is itself
    roundoff, the floor keeps it small (at most 3.6e-13, on boundary nodes
    of the 3D constant class at 17^3).
    Raises FrameDegenerate at the nodes of reason 1 (:func:`_reasons`), else
    MDependent at those of reason 2; reason 3 is not judged here."""
    reason = _reasons(fr.cond, mb.indep, mb.ok & fr.ok)
    if (reason == 1).any():
        raise FrameDegenerate(f"frame Gram matrix condition exceeds {COND_MAX:g}",
                              nodes=np.argwhere(reason == 1))
    if (reason == 2).any():
        raise MDependent(f"(Id, M^1, ..) fail pointwise independence at {INDEP_MIN:g}",
                         nodes=np.argwhere(reason == 2))
    M0 = mb.M0 * _orientation(mb.M0)[..., None, None]
    a_arr, bpda, c, beta = _class_triple(rb, fr, M0)
    resid = np.einsum("...ij,m...ij->m...", M0, rb.hess_v) \
        + np.einsum("...k,m...k->m...", beta, rb.grad_v)
    hess_mod = np.abs(rb.hess_v)
    size = np.einsum("...ij,m...ij->m...", np.abs(M0), hess_mod) \
        + np.einsum("...k,m...k->m...", np.abs(beta), np.abs(rb.grad_v))
    # where every term of a ratio's equation is roundoff, so is its size
    floor = np.finfo(float).eps * np.abs(M0).max() \
        * hess_mod.reshape(len(hess_mod), -1).max(axis=1)
    size = np.maximum(size, floor.reshape((-1,) + (1,) * rb.grid.dim)) + _TINY
    diagnostics = {"eq_residual": (np.abs(resid) / size).max(axis=0), "frame_cond": fr.cond,
                   "pairing_indep": mb.indep}
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
    """Rescale a gauge triple so that Tr(a a) = 1 pointwise: the unit gauge
    of :class:`_UnitGauge` on the one box of the whole grid.

    Because (a, b + div a, c) transforms multiplicatively along the gauge
    orbit, dividing all three by the same scalar field stays on the orbit.
    Returns (a, b + div a, c, scale) with a = scale * a_unit exactly; raises
    VanishingGauge where Tr(a a) vanishes.
    """
    shape = a_mat.shape[:-2]
    return _UnitGauge([a_mat, bpda, c], [([0], m) for m in shape]).window(
        0, tuple(slice(0, m) for m in shape))


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------

def _axis_starts(m: int, size: int, stride: int) -> list[int]:
    starts = list(range(0, max(m - size, 0) + 1, stride))
    if starts[-1] != m - size:
        starts.append(m - size)
    return starts


def _patch_axes(shape: tuple[int, ...], cfg: EngineConfig) -> list[tuple[list[int], int]]:
    """Per axis, the start nodes of the patches and their common length; the
    patches are the boxes of every combination of one start per axis."""
    if cfg.patch_size is None:
        return [([0], m) for m in shape]
    size, stride = cfg.patch_size, cfg.patch_size - cfg.overlap
    return [([0], m) if size >= m else (_axis_starts(m, size, stride), size) for m in shape]


def _patch_boxes(shape: tuple[int, ...], cfg: EngineConfig) -> list[tuple[slice, ...]]:
    """The patches, in ``itertools.product`` order of :func:`_patch_axes`,
    which is the order of the boxes in a :func:`_box_reduce` table."""
    per_axis = [[slice(s, s + length) for s in starts]
                for starts, length in _patch_axes(shape, cfg)]
    return [tuple(combo) for combo in itertools.product(*per_axis)]


def _box_reduce(x: np.ndarray, axes: list[tuple[list[int], int]], ufunc,
                stride: int = 1) -> np.ndarray:
    """``ufunc.reduce`` of ``x`` over every box of the patch ``axes``
    (:func:`_patch_axes`), which span the last axes of ``x``: an array of
    shape x.shape[:-dim] + (number of boxes,), the boxes in the order of
    :func:`_patch_boxes`.  With ``stride``, ``x`` holds only the grid's
    nodes whose indices are all multiples of it, and a box reduces those of
    its nodes: the indices [ceil(s / stride), ceil((s + length) / stride))
    of ``x`` on an axis where the box starts at s.

    Separable: along each axis in turn, the window of the patch length at
    each patch start is reduced.  For ``np.minimum``, ``np.maximum``,
    ``np.logical_and`` and ``np.logical_or`` this is exact, and NaN
    propagates as in ``ndarray.min`` and ``max``, so an entry is the box's
    own reduction.
    """
    lead = x.ndim - len(axes)
    for k, (starts, length) in enumerate(axes):
        head = (slice(None),) * (lead + k)
        windows = [slice(-(-s // stride), -(-(s + length) // stride)) for s in starts]
        x = np.stack([ufunc.reduce(x[head + (w,)], axis=lead + k) for w in windows],
                     axis=lead + k)
    return x.reshape(x.shape[:lead] + (-1,))


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


def _patch_weight(geometry: tuple[tuple[int, bool, bool], ...], overlap: int) -> np.ndarray:
    """The blend weight of a box from its geometry: per axis its length and
    whether it ramps up at its start and down at its end (not at the grid's
    edges)."""
    axes = [_ramp(length, overlap, lo, hi) for length, lo, hi in geometry]
    w = axes[0]
    for ax in axes[1:]:
        w = np.multiply.outer(w, ax)
    return w


_MAX_FRAMES = 5    # frames tried per u_1 candidate, best conditioned first
_MAX_SUBSETS = 30  # generator subsets scored per frame
_SAMPLE_STRIDE = 2  # the frame ranking's bounds read the nodes of indices divisible by it


# The node budget of every candidate call, in complex entries of the
# (K, *slab, n, n) pairing stack, K = num_generators + 1: 5461 nodes in 2D,
# 1213 in 3D.  Chosen by measurement: the candidate's slabs set the traced
# peak of a single patch, 14.1 MiB at 17^3 and 16.9 MiB at 129^2, against
# 27.9 and 26.1 MiB with the candidate and the frame ranking on the whole
# grid; a budget of 2^15 lowers them only to 12.9 and 16.4 MiB.
_SLAB_ENTRIES = 2 ** 16


def _budget_slabs(shape: tuple[int, ...]) -> list[slice]:
    """The fewest slabs of whole rows that hold at most the
    ``_SLAB_ENTRIES`` budget's nodes each (one row where a row holds more),
    as even in length as whole rows allow: the slabs of every candidate,
    whatever the patch size."""
    n = len(shape)
    row = int(np.prod(shape[1:]))
    per = max(_SLAB_ENTRIES // ((num_generators(n) + 1) * n * n * row), 1)
    count = -(-shape[0] // per)
    edges = [shape[0] * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _evaluate(rb: RatioBundle, slabs: list[slice], kernel, wanted: np.ndarray,
              out: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """The pointwise ``kernel`` on the nodes that ``wanted`` flags, written
    into the full-grid arrays ``out``; when None, new ones, NaN (255 for a
    uint8 reason) on the nodes not evaluated.

    The grid goes in ``slabs``, slices of its rows in order, which bound the
    kernel's temporaries (the node budget, :func:`_budget_slabs`).  A slab
    whose nodes are all wanted goes to ``kernel`` as views of ``rb`` on its
    rows.  These keep the parent grid (:meth:`RatioBundle.gather`): a slab
    may hold fewer rows than a grid needs, and the pointwise kernel reads
    only the grid's dimension.  The wanted nodes of the other slabs go, in
    C order, as bundles of at most the first slab's node count.  The kernel
    is elementwise over nodes, so a node gets the same bits either way.
    Where u_1 vanishes the outputs are not finite.
    """
    shape = rb.grid.shape
    whole = [rows for rows in slabs if wanted[rows].all()]
    rest = wanted.copy()
    for rows in whole:
        rest[rows] = False
    nodes = np.nonzero(rest)
    chunk = (slabs[0].stop - slabs[0].start) * int(np.prod(shape[1:]))
    calls = [(rows,) for rows in whole] + [tuple(i[lo:lo + chunk] for i in nodes)
                                           for lo in range(0, nodes[0].size, chunk)]
    for at in calls:
        bundle = rb.gather(at)
        with np.errstate(all="ignore"):
            parts = kernel(bundle)
        if out is None:
            lead = bundle.u1.ndim
            out = tuple(np.full(shape + p.shape[lead:], 255 if p.dtype == np.uint8 else np.nan,
                                dtype=p.dtype) for p in parts)
        for o, p in zip(out, parts):
            o[at] = p
    return out


def _candidate(rb: RatioBundle, frame, subset, u1_max: float) -> tuple[np.ndarray, ...]:
    """Pointwise (score, reason, a, b + div a, c) of a frame and generator
    subset: the score |u_1|/``u1_max`` / cond(H) * indep (0 where the frame
    or pairing is unsolvable), :func:`_reasons`, and the u_1-normalized triple."""
    fr = build_frame(rb, frame=frame)
    mb = build_M(rb, fr, generators=subset)
    ok = mb.ok & fr.ok
    score = np.where(ok, np.abs(rb.u1) / max(u1_max, _TINY) / np.maximum(fr.cond, 1.0)
                     * mb.indep, 0.0)
    return score, _reasons(fr.cond, mb.indep, ok), *_class_triple(rb, fr, mb.M0)[:3]


class _UnitGauge:
    """The unit gauge Tr(a a) = 1 of a full-grid triple (a, b + div a, c),
    taken on the patch boxes of ``axes`` (:func:`_patch_axes`).

    The scale is the principal root s of the bilinear Tr(a a), oriented per
    box: neighbour continuity of a/s along the box's scan path
    (:func:`_scan_signs`), then Re Tr a > 0 at its center
    (:func:`_flip_at_center`).  s and the edge signs of a/s on every grid
    line (:func:`_edge_prefix`) are computed once on the whole grid.  Each
    step is pointwise or exact, so a box gets the bits its windows give as
    a grid of their own, and raises VanishingGauge at a box that holds a
    node of |Tr(a a)| < 1e-28.  The triple may be NaN outside the boxes
    that read it (a candidate evaluated only where it was named): an edge
    with a NaN end reads +1, and a box multiplies only the +-1 signs of its
    own edges, so it gets the same bits.
    """

    def __init__(self, triple: list[np.ndarray], axes: list[tuple[list[int], int]]):
        self.triple = triple
        a = triple[0]
        # a triple need not be finite outside the boxes it wins
        with np.errstate(all="ignore"):
            s2 = np.einsum("...ij,...ji->...", a, a)
            self.vanishing = _box_reduce(np.abs(s2) < 1e-28, axes, np.logical_or)
            self.s = np.sqrt(s2)
            self.prefix = _edge_prefix(a / self.s[..., None, None])

    def window(self, k: int, box: tuple[slice, ...]) -> tuple[np.ndarray, ...]:
        """The unit-gauge (a, b + div a, c) on box ``k``, ``box``, and the
        scale that divided them."""
        if self.vanishing[k]:
            raise VanishingGauge("Tr(a a) vanishes; the unit gauge is undefined")
        center = tuple(sl.start + (sl.stop - sl.start) // 2 for sl in box)
        sgn = _scan_signs(self.prefix, box)
        scale = self.s[box] * _flip_at_center(sgn, self.triple[0][center] / self.s[center])
        a, bpda, c = (x[box] for x in self.triple)
        return a / scale[..., None, None], bpda / scale[..., None], c / scale, scale


class _Selector:
    """The selector's full-grid fields and their per-box tables.

    The frames of a u_1 are ranked per box in the exact order of their
    worst node's condition number, lazily (:meth:`frames`): every frame is
    bounded on a sample of the grid in one table (:meth:`bounds`), and a
    frame's condition field is built on the whole grid, and reduced at once
    over every patch box (:func:`_box_reduce`) to its worst node, only when
    some box's order reaches it with a finite bound (:meth:`worst_cond`);
    only these tables are kept.  A candidate is evaluated only
    on the nodes of the boxes that have named it (:meth:`evaluate`), in the
    node budget's ``slabs`` (:func:`_budget_slabs`), into full-grid fields
    that are NaN (reason 255) elsewhere, kept in one entry with its per-box
    tables; a box reads them once all its nodes are evaluated.  The
    triple's unit gauge (:class:`_UnitGauge`) is set up from those fields
    when the candidate first wins a patch.  Column k of a table is box k
    of ``boxes`` (:func:`_patch_boxes`).
    """

    def __init__(self, u: list[ScalarField], grid: Grid, cfg: EngineConfig):
        self.u, self.grid = u, grid
        self.axes = _patch_axes(grid.shape, cfg)
        self.boxes = _patch_boxes(grid.shape, cfg)
        self.slabs = _budget_slabs(grid.shape)
        self.gmax = np.array([float(np.abs(f.values).max()) for f in u])
        self.combos = list(itertools.combinations(range(len(u) - 1), grid.dim))
        # min |u_i| over each box relative to max |u_i| on the grid
        self.margins = self._reduce(np.array([np.abs(f.values) for f in u]), np.minimum) \
            / np.maximum(self.gmax, _TINY)[:, None]
        self._built = {}

    def _reduce(self, x: np.ndarray, ufunc) -> np.ndarray:
        return _box_reduce(x, self.axes, ufunc)

    def _cached(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def release(self) -> None:
        self._built.clear()

    def ratios(self, i1: int) -> RatioBundle:
        """The bundle with ``u[i1]`` as u_1."""
        def build():
            u = self.u
            with np.errstate(all="ignore"):
                return _ratios(self.grid, [u[i1], *u[:i1], *u[i1 + 1:]])
        return self._cached(("ratios", i1), build)

    def finite(self, i1: int) -> np.ndarray:
        """Per box, whether every ratio derivative of u_1 = ``u[i1]`` is finite."""
        def build():
            rb = self.ratios(i1)
            node = np.ones(self.grid.shape, dtype=bool)
            for x in (rb.grad_v, rb.hess_v):
                # per component: a reduction over the short component axes is slow
                finite = np.isfinite(x).all(axis=0)
                for comp in np.ndindex(x.shape[1 + self.grid.dim:]):
                    node &= finite[(...,) + comp]
            return self._reduce(node, np.logical_and)
        return self._cached(("finite", i1), build)

    def bounds(self, i1: int) -> np.ndarray:
        """Per frame of ``combos`` and box, a lower bound of the frame's
        largest condition number on the box: its largest on the box's nodes
        of the sample, those whose indices are all multiples of
        ``_SAMPLE_STRIDE``, gathered contiguously (:func:`_frame_conds`).
        A sample node's cond has the bits it has on the grid, so a bound
        of inf is the box's largest."""
        def build():
            sample = (slice(None),) + (slice(None, None, _SAMPLE_STRIDE),) * self.grid.dim
            G = np.ascontiguousarray(self.ratios(i1).grad_v[sample])
            with np.errstate(all="ignore"):
                return _box_reduce(_frame_conds(G, self.combos), self.axes, np.maximum,
                                   _SAMPLE_STRIDE)
        return self._cached(("bounds", i1), build)

    def worst_cond(self, i1: int, f: int) -> list[float]:
        """Per box, the largest condition number of frame ``combos[f]`` of
        u_1 = ``u[i1]``, from its condition field on the whole grid (not
        kept)."""
        def build():
            G = self.ratios(i1).grad_v[list(self.combos[f])]
            with np.errstate(all="ignore"):
                cond = _frame_conds(G, [tuple(range(self.grid.dim))])
            return self._reduce(cond, np.maximum)[0].tolist()
        return self._cached(("cond", i1, f), build)

    def frames(self, i1: int, k: int):
        """The frames of u_1 = ``u[i1]`` on box ``k`` with their largest
        condition numbers there, best conditioned first: the order of
        ``sorted((max cond, frame))``, as a generator.

        A heap holds each frame keyed by its bound (:meth:`bounds`) until
        its largest is known (:meth:`worst_cond`).  Only a frame that comes
        first with a finite bound is evaluated on the whole grid, and then
        for every box at once; the frame at the top with its largest known,
        or a bound of inf, comes next: no frame left can come before it."""
        heap = [(bound, f, False) for f, bound in enumerate(self.bounds(i1)[:, k].tolist())]
        heapq.heapify(heap)
        while heap:
            value, f, exact = heapq.heappop(heap)
            if exact or value == np.inf:
                yield value, self.combos[f]
            else:
                heapq.heappush(heap, (self.worst_cond(i1, f)[k], f, True))

    def evaluate(self, i1: int, frame, subset, boxes: list[int]) -> None:
        """Evaluate the fields of :func:`_candidate` on the nodes of ``boxes``
        (columns of the tables) that they do not hold yet (:func:`_evaluate`,
        in ``slabs``), and reduce them again over every box."""
        wanted = np.zeros(self.grid.shape, dtype=bool)
        for k in boxes:
            wanted[self.boxes[k]] = True
        done, fields = self._built.get(("candidate", i1, frame, subset),
                                       (np.zeros_like(wanted), None))[:2]
        wanted &= ~done
        if not wanted.any():
            return
        fields = _evaluate(self.ratios(i1), self.slabs,
                           lambda rb: _candidate(rb, frame, subset, self.gmax[i1]),
                           wanted, fields)
        self._built["candidate", i1, frame, subset] = (
            done | wanted, fields, self._reduce(fields[0], np.minimum),
            self._reduce(fields[1] == 0, np.logical_and))

    def candidate(self, i1: int, frame, subset) -> tuple:
        """The evaluated nodes, the full-grid fields of :func:`_candidate`,
        and per box the least score and whether every node is admissible.
        An entry holds for a box whose nodes have all been evaluated."""
        return self._built["candidate", i1, frame, subset]

    def unit(self, i1: int, frame, subset) -> _UnitGauge:
        return self._cached(("unit", i1, frame, subset), lambda: _UnitGauge(
            self.candidate(i1, frame, subset)[1][2:], self.axes))


def _select_on_patch(sel: _Selector, k: int):
    """Choose (u1, frame, generators) on patch ``k``, as a generator.

    The patch reads column ``k`` of the selector's per-box tables
    (:class:`_Selector`).  A u_1 is tried where it clears ``U1_FLOOR_REL``
    and its ratio derivatives are finite on the patch; frames go best
    conditioned first (:meth:`_Selector.frames`, which evaluates a frame on
    the whole grid only when the patch's walk reaches it), candidates by
    worst-node score.  For each frame it
    tries, the generator yields the keys (u1, frame, subset) of its
    candidates and reads their tables once they are evaluated on the patch
    (:func:`_select_patches`).  Frame by frame, the best-scoring candidate
    with reason 0 (:func:`_reasons`) on every node of the patch wins and is
    returned as (selection, score, key).  Otherwise the best-scoring failed
    attempt is returned as (selection, score, None) so the caller can report
    it.  None when no u_1 passes.
    """
    G_needed = num_generators(sel.grid.dim)
    margins = sel.margins[:, k]
    order = [i for i in np.argsort(-margins, kind="stable")
             if margins[i] >= U1_FLOOR_REL]
    best = None
    for i1 in order:
        if not sel.finite(i1)[k]:
            continue
        others = [j for j in range(len(sel.u)) if j != i1]
        for _, combo in itertools.islice(sel.frames(i1, k), _MAX_FRAMES):
            top = top_ok = None
            pool = [j for j in range(len(others)) if j not in combo]
            subsets = list(itertools.islice(itertools.combinations(pool, G_needed),
                                            _MAX_SUBSETS))
            yield [(i1, combo, subset) for subset in subsets]
            for subset in subsets:
                *_, score_t, admissible_t = sel.candidate(i1, combo, subset)
                score = float(score_t[k])
                if admissible_t[k]:
                    if top_ok is None or score > top_ok[0]:
                        top_ok = (score, subset)
                elif top is None or score > top[0]:
                    top = (score, subset)
            if top_ok is not None:
                score, subset = top_ok
                return _selection(i1, others, combo, subset), score, (i1, combo, subset)
            if top is not None and (best is None or top[0] > best[1]):
                best = (_selection(i1, others, combo, top[1]), top[0], None)
    return best


def _select_patches(sel: _Selector) -> list:
    """The choice of :func:`_select_on_patch` on every patch, made in rounds.

    In a round every patch still choosing names the candidates of its next
    (u_1, frame), and each named candidate is evaluated once, on the union
    of the nodes of the boxes that named it (:meth:`_Selector.evaluate`);
    then each of those patches reads its tables.  A patch walks the order it
    would walk alone, so the choices do not depend on the rounds.
    """
    walks = {k: _select_on_patch(sel, k) for k in range(len(sel.boxes))}
    picks = [None] * len(sel.boxes)
    while walks:
        named = {}
        for k, walk in list(walks.items()):
            try:
                for key in next(walk):
                    named.setdefault(key, []).append(k)
            except StopIteration as done:
                picks[k] = done.value
                del walks[k]
        for key, boxes in named.items():
            sel.evaluate(*key, boxes)
    return picks


def _selection(i1: int, others: list[int], combo, subset) -> dict:
    return {"u1": int(i1), "frame": tuple(int(others[k]) for k in combo),
            "generators": tuple(int(others[k]) for k in subset)}


def reconstruct_global(u: list[ScalarField], config: EngineConfig | None = None
                       ) -> tuple[ClassRepresentative, PatchMap]:
    """Patch-wise reconstruction with automatic member selection.

    Every patch picks its own u_1, frame, and generator subset from per-box
    tables (:class:`_Selector`, :func:`_select_patches`): a candidate is
    evaluated only on the nodes of the boxes that name it, and a frame's
    condition field on the whole grid only when its bound on a sample of the
    grid can rank it first on some box the walk reaches.  Then, in box
    order, each patch's representative, normalized to the pointwise
    unit-Frobenius gauge (independent of the u_1 choice; set up once on the
    grid per winning candidate, :class:`_UnitGauge`), is blended with a
    smooth partition of unity.  The unit gauge fixes the class up to a sign
    per patch; that sign aligns the patch with the blend accumulated so far,
    so the first admissible patch seeds +1.  Blend weights are built once
    per box geometry.  Raises CoverageFailure, carrying the partial result,
    when some node is covered by no admissible patch.
    """
    cfg = (config or EngineConfig()).validate()
    if not u:
        raise ValueError("no solutions supplied")
    grid = common_grid(u)
    n = grid.dim
    if len(u) < num_solutions(n):
        raise ValueError(f"need at least {num_solutions(n)} solutions, got {len(u)}")

    sel = _Selector(u, grid, cfg)
    picks = _select_patches(sel)
    weights = {}
    wsum = np.zeros(grid.shape)
    acc_a = np.zeros(grid.shape + (n, n), dtype=np.complex128)
    acc_b = np.zeros(grid.shape + (n,), dtype=np.complex128)
    acc_c = np.zeros(grid.shape, dtype=np.complex128)
    patch_map = PatchMap([], [], [], [], [], coverage=None)  # set after the pass
    for k, box in enumerate(sel.boxes):
        selection, score, key = picks[k] or (None, 0.0, None)
        triple = None if key is None else sel.unit(*key).window(k, box)[:3]
        sign = 1
        if triple is not None:
            a_u, bpda_u, c_u = triple
            if np.real(np.sum(acc_a[box] * np.conj(a_u))) < 0:
                sign = -1
            geometry = tuple((sl.stop - sl.start, sl.start > 0, sl.stop < m)
                             for sl, m in zip(box, grid.shape))
            if geometry not in weights:
                weights[geometry] = _patch_weight(geometry, cfg.overlap)
            w = weights[geometry]
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
    sel.release()

    covered = patch_map.coverage = wsum > 0
    ws = np.where(covered, wsum, 1.0)
    blend = (acc_a / ws[..., None, None], acc_b / ws[..., None], acc_c / ws)
    if covered.all():
        blend = unit_gauge_triple(*blend)[:3]
    rep = _assemble_representative(grid, *blend, gauge="unit-frobenius", diagnostics={})
    if not covered.all():
        raise CoverageFailure(np.argwhere(~covered), partial=(rep, patch_map))
    return rep, patch_map
