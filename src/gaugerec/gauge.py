"""Splitting and fixing the multiplicative gauge.

A reconstructed representative determines the coefficient triple only up to
(a, b, c) -> (tau a, tau b - a grad tau, tau c).  This module provides

* canonical splits of the leading tensor into scalar x unit-normalized parts
  (determinant and pairing conventions), and
* three ways to pin tau itself when extra structure is known: b identically
  zero (transport/potential route), b = a grad(phi) with known phi (Poisson
  route), and real coefficients with divergence-free b (adjoint PDE route).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    BranchAmbiguity,
    ComplexCoefficients,
    DegenerateTensor,
    NonIntegrableField,
    VanishingDeterminant,
    VanishingGauge,
)
from .fields import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    common_grid,
    divergence,
    grad_values,
    second_derivative_values,
)
from .forward import BoundaryTrace, CoefficientSet, DirichletSystem
from .recon import ClassRepresentative, _axis_scan, unit_gauge_triple

__all__ = [
    "GaugeSplit",
    "split_det",
    "split_pairing",
    "curl_residual",
    "integrate_gradient",
    "recover_tau_b_zero",
    "recover_tau_known_phi",
    "recover_tau_divfree_b",
]


@dataclass
class GaugeSplit:
    """Scalar factor and unit-normalized tensor with a = tau * unit.

    convention "det": det(unit) = 1, tau = det(a)^(1/n) on the continuous
    branch that is principal at the domain corner node.
    convention "pairing": Tr(unit unit) = 1 (bilinear), the scale of
    ``unit_gauge_triple``: sign fixed by continuity and Re Tr > 0 at the
    center node.
    """

    tau: ScalarField
    unit: SymTensorField
    convention: str


def split_det(a: SymTensorField) -> GaugeSplit:
    """tau = det(a)^(1/n) with branch continuity, unit = a / tau.

    Nodes where |det| falls below 1e-12 times its largest value on the grid
    raise VanishingDeterminant.  A neighbor phase jump above pi/2 raises
    BranchAmbiguity since continuation can no longer be trusted.
    """
    grid = a.grid
    n = grid.dim
    d = np.linalg.det(a.as_matrix())
    absd = np.abs(d)
    ref = float(absd.max())
    if ref <= 0:
        raise VanishingDeterminant("det(a) vanishes identically")
    bad = absd < 1e-12 * ref
    if bad.any():
        raise VanishingDeterminant("det(a) below the relative floor",
                                   nodes=np.argwhere(bad))
    # Unwrap the phase along the scan path, from the principal value at the
    # first node; a step close to pi means the branch cannot be tracked.
    ang, worst = _axis_scan(d.shape, np.angle(d[(0,) * n]),
                            lambda cur, prev: np.angle(d[cur] / d[prev]), np.add)
    if worst > 0.5 * np.pi:
        raise BranchAmbiguity(
            f"determinant phase jumps by {worst:.3f} rad between neighbors")
    tau = np.exp((np.log(absd) + 1j * ang) / n)
    unit = a.values / tau[..., None]
    return GaugeSplit(ScalarField(grid, tau),
                      SymTensorField(grid, unit), "det")


def split_pairing(a: SymTensorField) -> GaugeSplit:
    """tau = sqrt(Tr(a a)) with sign continuity, unit = a / tau.

    Raises VanishingGauge where Tr(a a) vanishes.
    """
    grid = a.grid
    unit, _, _, scale = unit_gauge_triple(
        a.as_matrix(), np.zeros(grid.shape + (grid.dim,)), np.zeros(grid.shape))
    return GaugeSplit(ScalarField(grid, scale),
                      SymTensorField.from_matrix(grid, unit), "pairing")


# ---------------------------------------------------------------------------
# Discrete potential recovery
# ---------------------------------------------------------------------------

def _diff_matrix_1d(m: int, h: float) -> sp.csr_matrix:
    """First-derivative matrix matching the gradient stencil contract."""
    main = np.zeros(m)
    main[0] = -1.5
    main[-1] = 1.5
    lower = np.full(m - 1, -0.5)
    upper = np.full(m - 1, 0.5)
    D = sp.diags([lower, main, upper], [-1, 0, 1], format="lil")
    D[0, 1] = 2.0
    D[0, 2] = -0.5
    D[-1, -2] = -2.0
    D[-1, -3] = 0.5
    return (D / h).tocsr()


def _gradient_operator(grid: Grid) -> sp.csr_matrix:
    """Sparse (n N, N) matrix applying all n first derivatives."""
    blocks = []
    for k in range(grid.dim):
        op = None
        for ax in range(grid.dim):
            m = grid.shape[ax]
            piece = _diff_matrix_1d(m, grid.spacing[ax]) if ax == k else sp.identity(m, format="csr")
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
    raises VanishingGauge."""
    if (np.abs(boundary_tau.values) == 0).any():
        raise VanishingGauge("boundary tau datum vanishes")
    w_b = BoundaryTrace(grid, np.log(boundary_tau.values))
    w = DirichletSystem(CoefficientSet.constant(grid, np.eye(grid.dim))).solve(
        w_b, source=ScalarField(grid, source))
    return np.exp(w.values)


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
            raise VanishingGauge("recovered tau vanishes at the anchor node")
        tau = tau * (complex(anchor) / corner)
    if diagnostics is not None and anchored:
        tb = grid.on_boundary(tau)
        diagnostics["anchor_mismatch"] = float(
            np.abs(tb - anchor.values).max() / max(np.abs(anchor.values).max(), 1e-300))
    return ScalarField(grid, tau)


def _laplacian_values(vals: np.ndarray, spacing) -> np.ndarray:
    out = np.zeros_like(vals, dtype=np.complex128)
    for k in range(len(spacing)):
        out += second_derivative_values(vals, spacing[k], k)
    return out


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
    rhs = divergence(g).values - _laplacian_values(phi.values, grid.spacing)
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
    tau = DirichletSystem(coeffs).solve(boundary_tau)
    return ScalarField(grid, tau.values)
