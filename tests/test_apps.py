"""Photoacoustic and elastography front ends."""

import numpy as np
import pytest
import scipy.sparse as sp

from gaugerec import (
    BoundaryTrace,
    DirichletSystem,
    ElastoData,
    GridMismatch,
    NonPositiveH1,
    QpatData,
    ScalarField,
    SymTensorField,
    elasto_reconstruct,
    qpat_reconstruct,
    square_grid,
)
from gaugerec.harness import PRESETS, ExperimentConfig, run
from gaugerec.harness import _elasto_data, _qpat_data
from gaugerec.apps import _FluxOperator
from gaugerec.forward import _stencil_rows


def divergence_form_matrix(D):
    """Sparse N x N operator: -div(D grad w) at interior rows, identity at the
    boundary, in row-major node order: the flux solve's interior rows,
    assembled for applying the operator."""
    grid = D.grid
    int_flat = np.flatnonzero(~grid.boundary_mask.ravel())
    rows = _stencil_rows(grid, int_flat, _FluxOperator(D).stencil(int_flat),
                         np.arange(grid.num_nodes)).tocoo()
    bnd = grid.boundary_flat
    return sp.csr_matrix(
        (np.concatenate([rows.data, np.ones(bnd.size)]),
         (np.concatenate([int_flat[rows.row], bnd]),
          np.concatenate([rows.col, bnd]))),
        shape=(grid.num_nodes, grid.num_nodes))


def _worst_residual(gamma, H, residual):
    """Largest interior model residual over the data, relative to
    sup|H_j| / h^2.  ``residual(A, h)`` gives the residual at every node for
    the flat data h, with A the flux operator of ``divergence_form_matrix``."""
    grid = gamma.grid
    A = divergence_form_matrix(gamma)
    interior = ~grid.boundary_mask.ravel()
    worst = 0.0
    for Hj in H:
        r = residual(A, Hj.values.reshape(-1))[interior]
        scale = max(float(np.abs(Hj.values).max()), 1e-300) / min(grid.spacing) ** 2
        worst = max(worst, float(np.abs(r).max()) / scale)
    return worst


def qpat_model_residual(gamma, sigma, H):
    """Relative interior residual of -div(gamma grad(H_j/sigma)) + H_j, a
    truth-free check that a photoacoustic output satisfies its model."""
    s = sigma.values.reshape(-1)
    return _worst_residual(gamma, H, lambda A, h: A @ (h / s) + h)


def elasto_model_residual(gamma, rho, omega, H):
    """Relative interior residual of div(gamma grad u_j) + omega^2 rho u_j, a
    truth-free check that an elastography output satisfies its model."""
    k = omega ** 2 * rho.values.reshape(-1)
    return _worst_residual(gamma, H, lambda A, h: -(A @ h) + k * h)


def qpat_case(n=65):
    cfg = ExperimentConfig(mode="qpat", preset="qpat-demo", grids=[n])
    preset = PRESETS["qpat-demo"]
    grid = square_grid(n)
    data, truth = _qpat_data(cfg, preset, grid)
    return grid, data, truth


def elasto_case(n=65):
    cfg = ExperimentConfig(mode="elasto", preset="elasto-demo", grids=[n])
    preset = PRESETS["elasto-demo"]
    grid = square_grid(n)
    data, truth = _elasto_data(cfg, preset, grid)
    return grid, data, truth


# ---------------------------------------------------------------------------
# Conservative flux operator
# ---------------------------------------------------------------------------

def test_flux_operator_exact_on_quadratics():
    grid = square_grid(17)
    x1, x2 = grid.meshes
    Dmat = np.array([[2.0, 0.4], [0.4, 1.0]])
    D = SymTensorField.from_matrix(
        grid, np.broadcast_to(Dmat, grid.shape + (2, 2)).astype(complex))
    A = divergence_form_matrix(D)
    w = (x1**2 - 3 * x1 * x2 + 0.5 * x2**2).astype(complex)
    out = (A @ w.reshape(-1)).reshape(grid.shape)
    # -div(D grad w) for constant D and quadratic w is a constant
    expect = -(Dmat[0, 0] * 2 + 2 * Dmat[0, 1] * (-3) + Dmat[1, 1] * 1)
    interior = ~grid.boundary_mask
    assert np.abs(out[interior] - expect).max() < 1e-10
    assert np.allclose(out.reshape(-1)[grid.boundary_flat],
                       w.reshape(-1)[grid.boundary_flat])


def test_flux_operator_second_order_on_variable_coefficients():
    errs = []
    for n in (17, 33, 65):
        grid = square_grid(n)
        x1, x2 = grid.meshes
        gam = 1 + 0.4 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        D = SymTensorField.from_matrix(
            grid, np.einsum("..., ij -> ...ij", gam, np.eye(2)).astype(complex))
        w = np.exp(x1) * np.sin(x2)
        dgam = [0.4 * np.pi * np.cos(np.pi * x1) * np.sin(np.pi * x2),
                0.4 * np.pi * np.sin(np.pi * x1) * np.cos(np.pi * x2)]
        wx, wy = np.exp(x1) * np.sin(x2), np.exp(x1) * np.cos(x2)
        lap_w = 0.0  # exp(x1) sin(x2) is harmonic
        expect = -(dgam[0] * wx + dgam[1] * wy + gam * lap_w)
        out = (divergence_form_matrix(D) @ w.astype(complex).reshape(-1)).reshape(grid.shape)
        interior = ~grid.boundary_mask
        errs.append(np.abs(out[interior] - expect[interior]).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 1.7


def test_flux_solve_matches_dense_identity_row_solve():
    grid = square_grid(11)
    x1, x2 = grid.meshes
    mat = np.empty(grid.shape + (2, 2), dtype=complex)
    mat[..., 0, 0] = 1.5 + 0.4 * x1 * x2 + 0.1j
    mat[..., 1, 1] = 1.0 + 0.3 * np.sin(np.pi * x1) + 0.05j * x2
    mat[..., 0, 1] = mat[..., 1, 0] = 0.2 * x1 - 0.1 * x2
    D = SymTensorField.from_matrix(grid, mat)
    source = np.cos(2 * x1) + 1j * x2 ** 2
    boundary = np.exp(x1 - 0.5j * x2).reshape(-1)[grid.boundary_flat]
    rhs = source.reshape(-1).astype(complex)
    rhs[grid.boundary_flat] = boundary
    w_ref = np.linalg.solve(divergence_form_matrix(D).toarray(), rhs)
    w = DirichletSystem(_FluxOperator(D)).solve(BoundaryTrace(grid, boundary),
                                                ScalarField(grid, source)).values
    assert np.abs(w.reshape(-1) - w_ref).max() <= 1e-12 * np.abs(w_ref).max()


def test_qpat_factors_every_operator_through_dirichlet_system(monkeypatch):
    # the forward model and the flux solve: one SuperLU factorization per
    # DirichletSystem, and no other path to splu
    import scipy.sparse.linalg

    counts = {"splu": 0, "systems": 0}
    splu, init = scipy.sparse.linalg.splu, DirichletSystem.__init__

    def counted_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    def counted_init(self, operator):
        counts["systems"] += 1
        init(self, operator)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    monkeypatch.setattr(DirichletSystem, "__init__", counted_init)
    run(ExperimentConfig(mode="qpat", preset="qpat-demo", grids=[33]))
    assert counts == {"splu": 2, "systems": 2}


# ---------------------------------------------------------------------------
# Photoacoustic pipeline
# ---------------------------------------------------------------------------

def test_qpat_recovers_the_pair():
    grid, data, truth = qpat_case()
    gamma, sigma, report = qpat_reconstruct(data)
    g_err = np.abs(gamma.values - truth["gamma"].values).max() \
        / np.abs(truth["gamma"].values).max()
    s_err = np.abs(sigma.values - truth["sigma"].values).max() \
        / np.abs(truth["sigma"].values).max()
    assert g_err < 0.02
    assert s_err < 0.02
    assert report["admissible_patches"] == report["total_patches"]
    assert abs(report["source_calibration"] - 1.0) < 0.05


@pytest.mark.parametrize("lam,tol", [(2.0, 1e-12), (1.7, 1e-10)])
def test_qpat_output_is_scale_homogeneous_in_the_data(lam, tol):
    """Scaling every functional by lambda leaves gamma fixed and scales
    sigma by lambda.  A power of two survives bit for bit; a non-dyadic
    factor only down to rounding in the rescaled solve."""
    grid, data, truth = qpat_case(33)
    scaled = QpatData(H=[ScalarField(grid, lam * Hj.values) for Hj in data.H],
                      f1=data.f1, gamma_boundary=data.gamma_boundary,
                      sigma_boundary=data.sigma_boundary)
    g1, s1, r1 = qpat_reconstruct(data)
    g2, s2, r2 = qpat_reconstruct(scaled)
    assert np.abs(g2.values - g1.values).max() < tol
    assert np.abs(s2.values - lam * s1.values).max() < tol
    assert abs(r2["source_calibration"] - lam * r1["source_calibration"]) < tol
    if lam == 2.0:
        assert np.array_equal(g1.values, g2.values)


def test_qpat_rejects_nonpositive_absorption_data():
    grid, data, _ = qpat_case(33)
    bad = data.H[0].values.copy()
    bad[4, 5] = -0.1
    with pytest.raises(NonPositiveH1):
        qpat_reconstruct(QpatData(H=[ScalarField(grid, bad)] + data.H[1:],
                                  f1=data.f1,
                                  gamma_boundary=data.gamma_boundary,
                                  sigma_boundary=data.sigma_boundary))
    with pytest.raises(ValueError):
        qpat_reconstruct(QpatData(H=data.H[:1], f1=data.f1,
                                  gamma_boundary=data.gamma_boundary,
                                  sigma_boundary=data.sigma_boundary))


@pytest.mark.parametrize("other", [
    square_grid(33, extent=((0.0, 1.0), (0.0, 2.0))),  # same shape, other extent
    square_grid(41),                                     # other shape
])
def test_qpat_rejects_functionals_on_another_grid(other):
    grid, data, _ = qpat_case(33)
    H = list(data.H)
    H[2] = ScalarField(other, np.ones(other.shape))
    with pytest.raises(GridMismatch) as info:
        qpat_reconstruct(QpatData(H=H, f1=data.f1,
                                  gamma_boundary=data.gamma_boundary,
                                  sigma_boundary=data.sigma_boundary))
    assert info.value.index == 2


def test_qpat_is_invariant_under_relabeling_secondary_functionals():
    grid, data, _ = qpat_case(33)
    perm = [0, 3, 1, 4, 2]
    shuffled = QpatData(H=[data.H[j] for j in perm], f1=data.f1,
                        gamma_boundary=data.gamma_boundary,
                        sigma_boundary=data.sigma_boundary)
    g1, s1, _ = qpat_reconstruct(data)
    g2, s2, _ = qpat_reconstruct(shuffled)
    assert np.abs(g1.values - g2.values).max() < 1e-8
    assert np.abs(s1.values - s2.values).max() < 1e-8


def test_qpat_model_residual_accepts_truth_and_flags_corruption():
    grid, data, truth = qpat_case(33)
    good = qpat_model_residual(truth["gamma"], truth["sigma"], data.H)
    h = grid.spacing[0]
    assert good < 50 * h**2
    wrong = ScalarField(grid, 1.5 * truth["sigma"].values)
    assert qpat_model_residual(truth["gamma"], wrong, data.H) > 10 * good


# ---------------------------------------------------------------------------
# Elastography pipeline
# ---------------------------------------------------------------------------

def test_elasto_recovers_the_pair():
    grid, data, truth = elasto_case()
    gamma, rho, report = elasto_reconstruct(data)
    g_err = np.abs(gamma.values - truth["gamma"].values).max() \
        / np.abs(truth["gamma"].values).max()
    r_err = np.abs(rho.values - truth["rho"]).max() / abs(truth["rho"])
    assert g_err < 0.02
    assert r_err < 0.02
    assert report["admissible_patches"] == report["total_patches"]


def test_elasto_frequency_rescaling_identity():
    grid, data, _ = elasto_case(33)
    doubled = ElastoData(H=data.H, omega=2 * data.omega,
                         gamma_boundary=data.gamma_boundary)
    _, rho1, _ = elasto_reconstruct(data)
    _, rho2, _ = elasto_reconstruct(doubled)
    assert np.abs(4 * rho2.values - rho1.values).max() < 1e-12


def test_elasto_validates_omega():
    grid, data, _ = elasto_case(33)
    with pytest.raises(ValueError):
        elasto_reconstruct(ElastoData(H=data.H, omega=0.0,
                                      gamma_boundary=data.gamma_boundary))


def test_elasto_model_residual_accepts_truth_and_flags_corruption():
    grid, data, truth = elasto_case(33)
    rho_field = ScalarField(
        grid, np.full(grid.shape, truth["rho"], dtype=complex))
    good = elasto_model_residual(truth["gamma"], rho_field,
                                 truth["omega"], data.H)
    h = grid.spacing[0]
    assert good < 50 * h**2
    wrong = ScalarField(grid, rho_field.values + 0.5)
    assert elasto_model_residual(truth["gamma"], wrong,
                                 truth["omega"], data.H) > 10 * good
