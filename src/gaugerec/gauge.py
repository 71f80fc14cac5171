"""Fixing the multiplicative gauge.

A reconstructed representative determines the coefficient triple only up to
(a, b, c) -> (tau a, tau b - a grad tau, tau c); ``recon.unit_gauge_triple``
gives its unit-pairing normal form.  This module pins tau itself when extra
structure is known, in three ways: b identically zero (transport/potential
route), b = a grad(phi) with known phi (Poisson route), and real
coefficients with divergence-free b (adjoint PDE route).  It also holds the
curl check and the least-squares potential those routes rest on.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ComplexCoefficients,
    DegenerateTensor,
    NonIntegrableField,
    VanishingGauge,
)
from .fields import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    _d1,
    common_grid,
    divergence,
    grad_values,
)
from .forward import BoundaryTrace, CoefficientSet, DirichletSystem, _residual_gate
from .recon import ClassRepresentative

__all__ = [
    "curl_residual",
    "integrate_gradient",
    "recover_tau_b_zero",
    "recover_tau_known_phi",
    "recover_tau_divfree_b",
]


# ---------------------------------------------------------------------------
# Discrete potential recovery
# ---------------------------------------------------------------------------

def _gradient_operator(grid: Grid) -> sp.csr_matrix:
    """Sparse (n N, N) matrix applying all n first derivatives.  Each 1D
    factor is ``fields._d1`` applied to the identity, so ``G @ phi`` is
    ``grad_values`` of phi to roundoff, boundary slabs included."""
    import scipy.sparse as sp

    blocks = []
    for k in range(grid.dim):
        op = None
        for ax in range(grid.dim):
            m, h = grid.shape[ax], grid.spacing[ax]
            piece = sp.csr_matrix(_d1(np.eye(m), h, 0)) if ax == k else sp.identity(m, format="csr")
            op = piece if op is None else sp.kron(op, piece, format="csr")
        blocks.append(op)
    return sp.vstack(blocks, format="csr")


def curl_residual(g: VectorField) -> float:
    """Relative size of the antisymmetric part of the Jacobian of g."""
    grid = g.grid
    n = grid.dim
    parts = [grad_values(g.values[..., k], grid.spacing) for k in range(n)]
    scale = max(float(np.abs(p).max()) for p in parts)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = parts[j][..., i] - parts[i][..., j]
            worst = max(worst, float(np.abs(r).max()))
    return worst / max(scale, 1e-300)


def integrate_gradient(g: VectorField) -> ScalarField:
    """Least-squares potential: minimize ||grad(phi) - g|| over the grid.

    Normal equations with the discrete gradient operator; the constant mode
    is pinned at the first node (the system is consistent, so pinning does
    not distort the solution).
    """
    from scipy.sparse.linalg import splu

    grid = g.grid
    G = _gradient_operator(grid)
    A = (G.T @ G).tolil()
    rhs = G.T @ np.moveaxis(g.values, -1, 0).reshape(-1)
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = 0.0
    phi = splu(A.tocsc().astype(np.complex128)).solve(rhs.astype(np.complex128))
    return ScalarField(grid, phi.reshape(grid.shape))


def _transport_target(rep: ClassRepresentative) -> VectorField:
    """g = a^-1 b from the representative, the candidate for grad(ln tau)."""
    amat = rep.a.as_matrix()
    try:
        g = np.linalg.solve(amat, rep.b.values[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateTensor("representative tensor is singular") from exc
    return VectorField(rep.grid, g)


def _interior_curl(g: VectorField, collar: int) -> float:
    """Curl residual away from a boundary collar of ``collar`` >= 0 nodes.

    Differentiating a reconstructed tensor mixes one-sided and central
    stencils in a thin collar, which inflates the pointwise curl there by
    1/h without signalling genuine non-integrability, so the check crops it.
    A collar of 0 keeps the whole grid.
    """
    return curl_residual(g.crop(tuple(slice(collar, s - collar) for s in g.grid.shape)))


def _exp_poisson(grid: Grid, source: np.ndarray,
                 boundary_tau: BoundaryTrace) -> np.ndarray:
    """tau = exp(w), where lap(w) = source inside and w = log(boundary_tau)
    on the boundary (principal logarithm).  A zero in the boundary datum
    raises VanishingGauge; a non-finite source raises NonFiniteData.

    lap is the 5-point (7-point in 3D) Laplacian with the grid's per-axis
    spacing.  With the boundary values moved to the right-hand side, its
    interior block is diagonalized by the type-I discrete sine transform
    along every axis (Buzbee, Golub & Nielson 1970): mode (j_1, .., j_n)
    has the eigenvalue -sum_k 4 sin^2(pi j_k / (2 (m_k - 1))) / h_k^2, so
    the solve is two transforms and one division, with no factorization.
    It is gated like a direct solve (``forward._residual_gate``): a
    non-finite w or a relative residual above ``forward._RTOL`` raises
    SingularSystem.
    """
    from scipy.fft import dstn, idstn

    zero = boundary_tau.values == 0
    if zero.any():
        raise VanishingGauge("boundary tau datum vanishes",
                             nodes=np.argwhere(grid.boundary_mask)[zero])
    source = ScalarField(grid, source).values
    inner = (slice(1, -1),) * grid.dim
    f = np.log(boundary_tau.values)
    w = np.zeros(grid.shape, dtype=np.complex128)
    w.reshape(-1)[grid.boundary_flat] = f
    lam = 0.0
    for k, (m, h) in enumerate(zip(grid.shape, grid.spacing)):
        j = np.arange(1, m - 1).reshape((-1,) + (1,) * (grid.dim - 1 - k))
        lam = lam - (2.0 * np.sin(0.5 * np.pi * j / (m - 1)) / h) ** 2
    s = source[inner]
    w[inner] = idstn(dstn(s - _five_point(w, grid.spacing), type=1) / lam, type=1)
    resid = _five_point(w, grid.spacing) - s
    absaw = _five_point(np.abs(w), grid.spacing, center=2.0)
    _residual_gate(w.reshape(-1, 1), np.abs(resid).max(), absaw.max(),
                   f.reshape(-1, 1), s.reshape(-1, 1))
    return np.exp(w)


def _five_point(w: np.ndarray, spacing, center: float = -2.0) -> np.ndarray:
    """sum_k (w[i + e_k] + center w[i] + w[i - e_k]) / h_k^2 at the interior
    nodes i: the 5-point (7-point in 3D) Laplacian with ``center`` -2, and
    with 2 the stencil of its moduli, which applied to |w| gives |A||w|."""
    inner = (slice(1, -1),) * w.ndim
    out = np.zeros(w[inner].shape, dtype=w.dtype)
    for k, h in enumerate(spacing):
        lo, hi = list(inner), list(inner)
        lo[k], hi[k] = slice(None, -2), slice(2, None)
        out += (w[tuple(hi)] + center * w[inner] + w[tuple(lo)]) / h ** 2
    return out


def recover_tau_b_zero(rep: ClassRepresentative, anchor,
                       diagnostics: dict | None = None) -> ScalarField:
    """Recover tau for a class whose true drift vanishes.

    With b = 0 in the class, the representative satisfies
    a^-1 b = grad(ln tau).  A relative curl residual above 0.1, measured
    beyond a collar of up to 3 nodes (see ``_interior_curl``), raises
    NonIntegrableField.

    With a BoundaryTrace anchor, ln(tau) is solved from the Poisson problem
    lap(w) = div(g) with Dirichlet data log(anchor); the source inside the
    collar is filled from the nearest interior nodes, since that band of g
    carries the stencil-transition artifact rather than usable data.  With
    a bare complex anchor the potential comes from least squares over the
    whole grid and the constant is pinned at the corner node.  A trace
    anchor on another grid raises GridMismatch.
    """
    anchored = isinstance(anchor, BoundaryTrace)
    grid = common_grid([rep, anchor] if anchored else [rep])
    g = _transport_target(rep)
    c = max(0, min(3, (min(grid.shape) - 9) // 2))
    res = _interior_curl(g, c)
    if diagnostics is not None:
        diagnostics["curl_residual"] = res
    if res > 0.1:
        raise NonIntegrableField("a^-1 b is not a discrete gradient", residual=res)
    if anchored:
        window = tuple(slice(c, s - c) for s in grid.shape)
        tau = _exp_poisson(grid, np.pad(divergence(g).values[window], c, mode="edge"),
                           anchor)
    else:
        tau = np.exp(integrate_gradient(g).values)
        corner = tau.reshape(-1)[0]
        if corner == 0:
            raise VanishingGauge("recovered tau vanishes at the anchor node",
                                 nodes=[(0,) * grid.dim])
        tau = tau * (complex(anchor) / corner)
    if diagnostics is not None and anchored:
        tb = grid.on_boundary(tau)
        diagnostics["anchor_mismatch"] = float(
            np.abs(tb - anchor.values).max() / max(np.abs(anchor.values).max(), 1e-300))
    return ScalarField(grid, tau)


def recover_tau_known_phi(rep: ClassRepresentative, phi: ScalarField,
                          boundary_tau: BoundaryTrace) -> ScalarField:
    """Recover tau when the true drift is b = a grad(phi) with known phi.

    Then a^-1 b from the representative equals grad(phi + ln tau), so
    ln(tau) solves a Poisson problem with source div(g) - lap(phi) and
    Dirichlet data log(boundary_tau).  The boundary values use the
    principal logarithm; keep them away from the negative real axis.
    ``phi`` and ``boundary_tau`` on another grid raise GridMismatch.
    """
    grid = common_grid([rep, phi, boundary_tau])
    g = _transport_target(rep)
    # _exp_poisson reads only the interior of its source, where _five_point
    # is its Laplacian
    rhs = divergence(g).values.copy()
    rhs[(slice(1, -1),) * grid.dim] -= _five_point(phi.values, grid.spacing)
    return ScalarField(grid, _exp_poisson(grid, rhs, boundary_tau))


def recover_tau_divfree_b(rep: ClassRepresentative,
                          boundary_tau: BoundaryTrace) -> ScalarField:
    """Recover tau for real coefficient classes with divergence-free drift.

    tau solves the adjoint-type equation div(a grad tau) - div(tau b) = 0
    with Dirichlet data; in non-divergence form that is the coefficient set
    (a, -b, -div b).  An imaginary part above 1e-10 of the largest
    coefficient raises ComplexCoefficients, and ``boundary_tau`` on another
    grid raises GridMismatch.
    """
    grid = common_grid([rep, boundary_tau])
    amat = rep.a.values
    bvec = rep.b.values
    scale = max(float(np.abs(amat).max()), float(np.abs(bvec).max()), 1e-300)
    worst = max(float(np.abs(amat.imag).max()), float(np.abs(bvec.imag).max()))
    if worst > 1e-10 * scale:
        raise ComplexCoefficients(
            f"divergence-free drift route needs real coefficients "
            f"(relative imaginary part {worst / scale:.2e})")

    a_real = SymTensorField(grid, amat.real.astype(np.complex128))
    b_field = VectorField(grid, bvec.real.astype(np.complex128))
    minus_div_b = ScalarField(grid, -divergence(b_field).values)
    coeffs = CoefficientSet.from_fields(
        a_real,
        VectorField(grid, -b_field.values),
        minus_div_b,
    )
    return DirichletSystem(coeffs).solve(boundary_tau)
