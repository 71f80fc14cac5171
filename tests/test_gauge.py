"""Scalar-factor recovery routes and the potential integration they use."""

import numpy as np
import pytest

import gaugerec.forward
from gaugerec import (
    BoundaryTrace,
    CoefficientSet,
    ComplexCoefficients,
    DirichletSystem,
    Grid,
    NonIntegrableField,
    ScalarField,
    SingularSystem,
    SymTensorField,
    VanishingGauge,
    VectorField,
    curl_residual,
    gradient,
    harmonic_family,
    integrate_gradient,
    reconstruct_global,
    recover_tau_b_zero,
    recover_tau_divfree_b,
    recover_tau_known_phi,
    square_grid,
    synthesize,
)
from gaugerec.gauge import _exp_poisson
from gaugerec.harness import PRESETS, unit_truth
from gaugerec.recon import ClassRepresentative

SR = np.array([[0.6, 0.3], [0.3, -0.4]])


def bump(grid):
    return np.prod([np.sin(np.pi * m) for m in grid.meshes], axis=0)


# ---------------------------------------------------------------------------
# Potential integration
# ---------------------------------------------------------------------------

def test_integrate_gradient_inverts_the_discrete_gradient():
    # the 3D case applies the three-factor kron operator; it reads 7.0e-14
    # at 13^3 (2.4e-14 at 9^3)
    for grid, pin in ((square_grid(33), 1e-9), (square_grid(13, 3), 1e-12)):
        x1, x2, *x3 = grid.meshes
        vals = x1**2 * x2 + 0.3 * np.sin(2 * x2) + 1j * x1 + sum(x1 * z**2 for z in x3)
        phi = ScalarField(grid, vals.astype(complex))
        back = integrate_gradient(gradient(phi))
        shift = phi.values - back.values
        assert np.abs(shift - shift.reshape(-1)[0]).max() < pin, grid.shape


def test_curl_residual_separates_gradients_from_rotations():
    grid = square_grid(33)
    x1, x2 = grid.meshes
    grad_field = gradient(ScalarField(grid, (x1**2 + x1 * x2).astype(complex)))
    assert curl_residual(grad_field) < 1e-12
    rot = VectorField(grid, np.stack([-x2, x1], axis=-1).astype(complex))
    assert curl_residual(rot) > 1.0


# ---------------------------------------------------------------------------
# Recovery routes.  Each builds a class whose hypotheses the route needs,
# reconstructs the representative from synthesized data, and compares the
# recovered factor against the true one.
# ---------------------------------------------------------------------------

def reconstruct_with_truth(coeffs, grid):
    data = synthesize(coeffs, harmonic_family(grid))
    rep, _ = reconstruct_global(data)
    return rep, unit_truth(coeffs)


def test_b_zero_route_with_boundary_anchor():
    grid = square_grid(33)
    preset = PRESETS["bzero-2d"]
    coeffs = preset.coefficients(grid)
    data = synthesize(coeffs, preset.illumination(grid))
    rep, _ = reconstruct_global(data)
    _, _, _, tau_t = unit_truth(coeffs)
    diag = {}
    tau = recover_tau_b_zero(
        rep, BoundaryTrace.from_node_values(grid, tau_t), diagnostics=diag)
    err = np.abs(tau.values - tau_t).max() / np.abs(tau_t).max()
    assert err < 2e-3
    assert diag["curl_residual"] < 0.05
    assert diag["anchor_mismatch"] < 1e-10


def test_b_zero_route_with_scalar_anchor():
    grid = square_grid(17)
    rep, _ = reconstruct_global(harmonic_family(grid).fields())
    tau = recover_tau_b_zero(rep, np.sqrt(2.0))
    assert np.abs(tau.values - np.sqrt(2.0)).max() < 1e-8


def test_b_zero_route_rejects_rotational_transport():
    grid = square_grid(33)
    x1, x2 = grid.meshes
    a = SymTensorField.from_matrix(
        grid, np.broadcast_to(np.eye(2) / np.sqrt(2), grid.shape + (2, 2)).astype(complex))
    rot = VectorField(grid, np.stack([-(x2 - 0.5), x1 - 0.5], axis=-1).astype(complex))
    zero = ScalarField(grid, np.zeros(grid.shape, dtype=complex))
    rep = ClassRepresentative(grid=grid, a=a, b_plus_diva=rot, c=zero,
                              b=rot, gauge="unit-frobenius", diagnostics={})
    with pytest.raises(NonIntegrableField):
        recover_tau_b_zero(rep, 1.0)


def test_known_phi_route():
    grid = square_grid(33)
    amat = np.broadcast_to(np.eye(2), grid.shape + (2, 2)) \
        + 0.15 * bump(grid)[..., None, None] * SR
    a = SymTensorField.from_matrix(grid, amat.astype(complex))
    phi = ScalarField(grid, (0.3 * bump(grid)).astype(complex))
    b = VectorField(grid, np.einsum("...ij,...j->...i", amat, gradient(phi).values))
    c = ScalarField(grid, (0.1 * bump(grid)).astype(complex))
    coeffs = CoefficientSet.from_fields(a, b, c)
    rep, truth = reconstruct_with_truth(coeffs, grid)
    tau_t = truth[3]
    tau = recover_tau_known_phi(
        rep, phi, BoundaryTrace.from_node_values(grid, tau_t))
    assert np.abs(tau.values - tau_t).max() / np.abs(tau_t).max() < 5e-3


def test_divergence_free_route():
    grid = square_grid(33)
    psi = 0.05 * bump(grid)
    gpsi = gradient(ScalarField(grid, psi.astype(complex))).values
    b = VectorField(grid, np.stack([gpsi[..., 1], -gpsi[..., 0]], axis=-1))
    amat = np.broadcast_to(np.eye(2), grid.shape + (2, 2)) \
        + 0.2 * bump(grid)[..., None, None] * SR
    a = SymTensorField.from_matrix(grid, amat.astype(complex))
    c = ScalarField(grid, (0.1 * bump(grid)).astype(complex))
    coeffs = CoefficientSet.from_fields(a, b, c)
    rep, truth = reconstruct_with_truth(coeffs, grid)
    tau_t = truth[3]
    tau = recover_tau_divfree_b(rep, BoundaryTrace.from_node_values(grid, tau_t))
    assert np.abs(tau.values - tau_t).max() / np.abs(tau_t).max() < 5e-3


def test_divergence_free_route_requires_real_classes():
    grid = square_grid(33)
    preset = PRESETS["smooth-complex-2d"]
    coeffs = preset.coefficients(grid)
    rep, truth = reconstruct_with_truth(coeffs, grid)
    anchor = BoundaryTrace.from_node_values(grid, truth[3])
    with pytest.raises(ComplexCoefficients):
        recover_tau_divfree_b(rep, anchor)


def poisson_problem(grid):
    xs = grid.meshes
    source = np.cos(3.0 * xs[0]) * (1.0 + xs[-1]) + 0.5j * xs[1] ** 2
    tau_b = BoundaryTrace.from_node_values(
        grid, (1.2 + 0.3 * xs[0] - 0.2j * xs[-1]) * np.exp(0.3j * xs[1]))
    return source, tau_b


@pytest.mark.parametrize("grid", [
    square_grid(65),
    Grid((17, 25), ((0.0, 1.0), (0.0, 2.0))),
    Grid((11, 9, 13), ((0.0, 1.0),) * 3),
], ids=["65^2", "17x25 over (0,1)x(0,2)", "11x9x13"])
def test_sine_transform_poisson_matches_the_direct_solve(grid):
    """The transform solve of the gauge's Poisson problem agrees with the
    factored Laplacian, on square, rectangular and 3D boxes."""
    source, tau_b = poisson_problem(grid)
    w = DirichletSystem(CoefficientSet.constant(grid, np.eye(grid.dim))).solve(
        BoundaryTrace(grid, np.log(tau_b.values)), source=ScalarField(grid, source))
    ref = np.exp(w.values)
    tau = _exp_poisson(grid, source, tau_b)
    assert np.abs(tau - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sine_transform_poisson_keeps_the_residual_gate(monkeypatch):
    grid = square_grid(17)
    source, tau_b = poisson_problem(grid)
    monkeypatch.setattr(gaugerec.forward, "_RTOL", 0.0)
    with pytest.raises(SingularSystem) as info:
        _exp_poisson(grid, source, tau_b)
    assert info.value.trace_index is None and info.value.residual > 0.0


def test_a_zero_in_the_boundary_datum_names_its_nodes():
    grid = square_grid(17)
    source, tau_b = poisson_problem(grid)
    values = tau_b.values.copy()
    values[[3, 40]] = 0.0
    with pytest.raises(VanishingGauge, match="boundary tau datum vanishes") as info:
        _exp_poisson(grid, source, BoundaryTrace(grid, values))
    assert np.array_equal(info.value.nodes, np.argwhere(grid.boundary_mask)[[3, 40]])
