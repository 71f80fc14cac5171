"""End-to-end pipelines for the two measurement models.

Photoacoustic (absorption-weighted) data: H_j = sigma u_j where the u_j
solve div(gamma grad u) = sigma u with known Dirichlet traces.  The ratio
fields H_j/H_1 = u_j/u_1 feed the class engine directly (prepending the
constant 1 stands in for the missing u_1), the multiplicative scale is
recovered by transport, and the remaining factor of u_1 is removed by one
conservative flux solve for w = 1/u_1.

Elastic amplitude data: the solutions themselves are observed, so the class
engine output only needs its scale pinned from the boundary values of the
stiffness tensor; the zeroth-order coefficient divided by omega^2 gives the
density.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import NonPositiveH1
from .fields import SYM_PAIRS, ScalarField, SymTensorField, common_grid
from .forward import BoundaryTrace, _flat_strides, _InteriorLU, _stencil_rows
from .gauge import recover_tau_b_zero
from .recon import EngineConfig, reconstruct_global

__all__ = [
    "QpatData",
    "ElastoData",
    "divergence_form_matrix",
    "qpat_reconstruct",
    "elasto_reconstruct",
    "qpat_model_residual",
    "elasto_model_residual",
]


@dataclass
class QpatData:
    """Absorption-weighted interior data plus boundary knowledge.

    ``H`` are the interior functionals (H_1 first; it must be positive),
    ``f1`` the Dirichlet trace of the first illumination, and the boundary
    values of the stiffness tensor and absorption close the scale.
    ``f1``, ``gamma_boundary`` and ``sigma_boundary`` lie on the grid of
    ``H``; only the boundary nodes of the two fields are read.
    """

    H: list[ScalarField]
    f1: BoundaryTrace
    gamma_boundary: SymTensorField
    sigma_boundary: ScalarField


@dataclass
class ElastoData:
    """Observed interior amplitudes, the working frequency, and the
    stiffness tensor on the grid of ``H``, of which only the boundary nodes
    are read."""

    H: list[ScalarField]
    omega: float
    gamma_boundary: SymTensorField


# ---------------------------------------------------------------------------
# Conservative discretization of w -> -div(D grad w)
# ---------------------------------------------------------------------------

def _flux_stencil(D: SymTensorField, nodes: np.ndarray) -> dict:
    """Coefficients of -div(D grad w) at the interior ``nodes`` (flat indices).

    Diagonal blocks use half-node averages of D (flux conservative); mixed
    blocks use centered differencing of the cross flux on full nodes.  All
    neighbor offsets of interior nodes stay on the grid.
    """
    grid = D.grid
    n = grid.dim
    h = grid.spacing
    strides = _flat_strides(grid.shape)
    Dflat = D.as_matrix().reshape(-1, n, n)

    entries: dict[tuple[int, ...], np.ndarray] = {}

    def add(offset: np.ndarray, vals: np.ndarray) -> None:
        key = tuple(int(o) for o in offset)
        entries[key] = entries.get(key, 0.0) - vals

    def shifted(comp_i: int, comp_j: int, shift: np.ndarray) -> np.ndarray:
        return Dflat[nodes + int(shift @ strides), comp_i, comp_j]

    zero = np.zeros(n, dtype=np.intp)
    for p in range(n):
        ep = zero.copy()
        ep[p] = 1
        d_here = shifted(p, p, zero)
        d_plus = 0.5 * (d_here + shifted(p, p, ep))
        d_minus = 0.5 * (d_here + shifted(p, p, -ep))
        add(ep, d_plus / h[p] ** 2)
        add(-ep, d_minus / h[p] ** 2)
        add(zero, -(d_plus + d_minus) / h[p] ** 2)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            ep = zero.copy()
            ep[p] = 1
            eq = zero.copy()
            eq[q] = 1
            dpq_plus = shifted(p, q, ep)
            dpq_minus = shifted(p, q, -ep)
            scale = 1.0 / (4.0 * h[p] * h[q])
            add(ep + eq, dpq_plus * scale)
            add(ep - eq, -dpq_plus * scale)
            add(-ep + eq, -dpq_minus * scale)
            add(-ep - eq, dpq_minus * scale)
    return entries


def divergence_form_matrix(D: SymTensorField) -> sp.csr_matrix:
    """Sparse N x N operator: -div(D grad w) at interior rows, identity at the
    boundary, in row-major node order.

    This is the form for applying the operator (the model residuals).  The
    flux solve does not factor it: it assembles the same interior rows in
    nested-dissection order and factors only their interior block, with the
    boundary values moved to the right-hand side (see ``forward._InteriorLU``).
    """
    grid = D.grid
    int_flat = np.flatnonzero(grid.interior_mask.ravel())
    rows = _stencil_rows(grid, int_flat, _flux_stencil(D, int_flat)).tocoo()
    bnd = grid.boundary_flat
    return sp.csr_matrix(
        (np.concatenate([rows.data, np.ones(bnd.size)]),
         (np.concatenate([int_flat[rows.row], bnd]),
          np.concatenate([rows.col, bnd]))),
        shape=(grid.num_nodes, grid.num_nodes))


def _flux_solve(D: SymTensorField, rhs_interior: np.ndarray,
                boundary_values: np.ndarray) -> np.ndarray:
    """Solve -div(D grad w) = rhs_interior inside, w = boundary_values on the
    boundary."""
    system = _InteriorLU(D.grid, partial(_flux_stencil, D))
    w = system.solve(boundary_values, rhs_interior.reshape(-1)[system.order])
    return w.reshape(D.grid.shape)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _anchored_scale(rep, gamma_boundary, weight=1.0) -> tuple[ScalarField, dict]:
    """tau by the drift-free transport route, anchored on the boundary.

    The anchor is, per boundary node, the weighted least-squares factor t
    with t rep.a = gamma_boundary (off-diagonal components weighted 2, as
    in the Frobenius product), times ``weight``.  Returns tau and the
    route's diagnostics.
    """
    grid = rep.grid
    gb = grid.on_boundary(gamma_boundary.values)
    ab = grid.on_boundary(rep.a.values)
    weights = np.array([1.0 if i == j else 2.0 for i, j in SYM_PAIRS[grid.dim]])
    num = np.sum(weights * np.conj(ab) * gb, axis=1) * weight
    den = np.sum(weights * np.abs(ab) ** 2, axis=1)
    diag: dict = {}
    tau = recover_tau_b_zero(rep, BoundaryTrace(grid, num / den, label="tau anchor"),
                             diagnostics=diag)
    return tau, diag


def _pipeline_report(rep, patch_map, diag: dict, **extra) -> dict:
    return {
        "gauge": rep.gauge,
        "curl_residual": diag.get("curl_residual"),
        "anchor_mismatch": diag.get("anchor_mismatch"),
        **extra,
        "admissible_patches": int(sum(patch_map.admissible)),
        "total_patches": len(patch_map.admissible),
    }


def qpat_reconstruct(data: QpatData, config: EngineConfig | None = None
                     ) -> tuple[SymTensorField, ScalarField, dict]:
    """Recover (gamma, sigma) from absorption-weighted interior data.

    Steps: positivity screen on H_1; class engine on (1, H_j/H_1); transport
    recovery of the scale, anchored by gamma f_1^2 on the boundary; one
    conservative flux solve for w = 1/u_1 with the source calibrated by the
    boundary consistency factor mean(H_1 / (sigma f_1)); then
    gamma = D w^2 and sigma = H_1 w.  Data on more than one grid raise
    GridMismatch.
    """
    if len(data.H) < 2:
        raise ValueError("need at least two interior functionals")
    grid = common_grid([*data.H, data.f1, data.gamma_boundary, data.sigma_boundary])
    H1 = data.H[0]
    bad = H1.values.real <= 0.0
    if bad.any():
        raise NonPositiveH1("H_1 must be strictly positive",
                            nodes=np.argwhere(bad))

    ones = ScalarField(grid, np.ones(grid.shape))
    fields = [ones] + [ScalarField(grid, Hj.values / H1.values) for Hj in data.H[1:]]
    rep, patch_map = reconstruct_global(fields, config)
    tau, diag = _anchored_scale(rep, data.gamma_boundary, data.f1.values ** 2)
    D = SymTensorField(grid, rep.a.values * tau.values[..., None])

    sb = grid.on_boundary(data.sigma_boundary.values)
    lam = np.mean(grid.on_boundary(H1.values) / (sb * data.f1.values))
    w = _flux_solve(D, H1.values / lam, 1.0 / data.f1.values)

    gamma = SymTensorField(grid, D.values * (w * w)[..., None])
    sigma = ScalarField(grid, H1.values * w)
    return gamma, sigma, _pipeline_report(rep, patch_map, diag,
                                          source_calibration=complex(lam))


def elasto_reconstruct(data: ElastoData, config: EngineConfig | None = None
                       ) -> tuple[SymTensorField, ScalarField, dict]:
    """Recover (gamma, rho) from interior amplitudes at frequency omega.

    The amplitudes solve div(gamma grad u) + omega^2 rho u = 0, so the class
    engine applies verbatim; the boundary stiffness pins the scale and the
    zeroth-order coefficient divided by omega^2 is the density.  Data on more
    than one grid raise GridMismatch.
    """
    if data.omega <= 0:
        raise ValueError("omega must be positive")
    common_grid([*data.H, data.gamma_boundary])
    rep, patch_map = reconstruct_global(list(data.H), config)
    tau, diag = _anchored_scale(rep, data.gamma_boundary)
    gamma = SymTensorField(rep.grid, rep.a.values * tau.values[..., None])
    rho = ScalarField(rep.grid, tau.values * rep.c.values / data.omega ** 2)
    return gamma, rho, _pipeline_report(rep, patch_map, diag)


def _worst_residual(gamma: SymTensorField, H: list[ScalarField], residual) -> float:
    """Largest interior model residual over the data, relative to
    sup|H_j| / h^2.  ``residual(A, h)`` gives the residual at every node for
    the flat data h, with A the flux operator of ``divergence_form_matrix``."""
    grid = gamma.grid
    A = divergence_form_matrix(gamma)
    interior = grid.interior_mask.ravel()
    worst = 0.0
    for Hj in H:
        r = residual(A, Hj.values.reshape(-1))[interior]
        scale = max(float(np.abs(Hj.values).max()), 1e-300) / min(grid.spacing) ** 2
        worst = max(worst, float(np.abs(r).max()) / scale)
    return worst


def qpat_model_residual(gamma: SymTensorField, sigma: ScalarField,
                        H: list[ScalarField]) -> float:
    """Relative interior residual of -div(gamma grad(H_j/sigma)) + H_j."""
    s = sigma.values.reshape(-1)
    return _worst_residual(gamma, H, lambda A, h: A @ (h / s) + h)


def elasto_model_residual(gamma: SymTensorField, rho: ScalarField,
                          omega: float, H: list[ScalarField]) -> float:
    """Relative interior residual of div(gamma grad u_j) + omega^2 rho u_j."""
    k = omega ** 2 * rho.values.reshape(-1)
    return _worst_residual(gamma, H, lambda A, h: -(A @ h) + k * h)
