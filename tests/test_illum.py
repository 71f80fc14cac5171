"""Illumination families: counts, jet identities, and traces."""

import numpy as np
import pytest

from gaugerec import (
    DegenerateTensor,
    ScalarField,
    cgo_family,
    complement_basis,
    constant_tensor_family,
    harmonic_family,
    local_polynomial_family,
    num_generators,
    num_solutions,
    plane_wave_family,
    square_grid,
)

A0 = np.diag([1.0, 2.0]) + 0.1j * np.ones((2, 2))


def test_family_sizes():
    assert num_solutions(2) == 5
    assert num_solutions(3) == 9
    assert num_generators(2) == 2
    assert num_generators(3) == 5


def test_harmonic_family_members_are_harmonic():
    grid = square_grid(17)
    fam = harmonic_family(grid)
    assert len(fam.traces) == num_solutions(2)
    eye = np.eye(2, dtype=complex)
    zero = np.zeros(2, dtype=complex)
    for m in fam.members:
        assert abs(m.jet_residual(eye, zero, 0.0)) < 1e-14
    fields = fam.fields()
    assert np.array_equal(fields[0].values, np.ones(grid.shape))
    # traces restrict the evaluated fields to the boundary
    for f, tr in zip(fields, fam.traces):
        assert np.allclose(f.values.reshape(-1)[grid.boundary_flat], tr.values)


def test_complement_basis_orthogonality():
    Q = complement_basis(A0)
    assert len(Q) == num_generators(2)
    for m, Qm in enumerate(Q):
        assert np.array_equal(Qm, Qm.T)
        assert abs(np.sum(A0 * Qm)) < 1e-12
        for k in range(m):
            # orthonormal in the Frobenius Hermitian product
            assert abs(np.sum(np.conj(Q[k]) * Qm)) < 1e-12
        assert abs(np.sum(np.conj(Qm) * Qm) - 1.0) < 1e-12


def test_complement_basis_rejects_zero_tensor():
    with pytest.raises(DegenerateTensor):
        complement_basis(np.zeros((2, 2)))


def test_constant_tensor_family_solves_frozen_equation():
    grid = square_grid(17)
    fam = constant_tensor_family(grid, A0)
    assert len(fam.traces) == num_solutions(2)
    zero = np.zeros(2, dtype=complex)
    for m in fam.members:
        assert abs(m.jet_residual(A0, zero, 0.0)) < 1e-12


def test_local_polynomial_family_matches_the_closed_form():
    grid = square_grid(17)
    center = (0.5, 0.5)
    fam = local_polynomial_family(grid, np.eye(2), np.array([1.0, 0.0]), 0.0,
                                  center)
    assert len(fam.traces) == num_solutions(2)
    # with a0 = Id, b0 = e1, c0 = 0 the first corrected quadratic carries
    # the quadratic part -(1/2) Id / pairing-normalization applied to x1
    eye = np.eye(2, dtype=complex)
    b0 = np.array([1.0, 0.0], dtype=complex)
    for m in fam.members:
        assert abs(m.jet_residual(eye, b0, 0.0)) < 1e-10


def test_local_polynomial_family_generic_complex_jets():
    grid = square_grid(17)
    b0 = np.array([0.2 - 0.1j, 0.4 + 0.3j])
    c0 = 0.3 + 0.7j
    fam = local_polynomial_family(grid, A0, b0, c0, (0.25, 0.75))
    for m in fam.members:
        assert abs(m.jet_residual(A0, b0, c0)) < 1e-10


def test_cgo_family_null_phases():
    grid = square_grid(17)
    fam = cgo_family(grid, gamma=1.0)
    assert len(fam.traces) == num_solutions(2)
    assert fam.params["k"] > 0
    assert fam.params["eps"] == 0.5
    for m in fam.members:
        if m.rho is not None:
            assert abs(np.dot(m.rho, m.rho)) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 1e300])
def test_cgo_family_refuses_eps_without_a_finite_square(eps):
    # eps ** 2 of 1e300 used to escape as an OverflowError
    with pytest.raises(ValueError, match="eps must be positive, with a finite square"):
        cgo_family(square_grid(9), eps=eps)


def test_cgo_family_accepts_spatial_amplitude():
    grid = square_grid(17)
    gamma = ScalarField(grid, 1 + 0.3 * np.prod(
        [np.sin(np.pi * m) for m in grid.meshes], axis=0))
    fam = cgo_family(grid, gamma=gamma, k=4.0, eps=0.25)
    assert fam.params["k"] == 4.0
    for tr in fam.traces:
        assert np.all(np.isfinite(tr.values))
        assert np.abs(tr.values).max() > 0


def test_plane_wave_family_eigenvalue_identity():
    grid = square_grid(17)
    for kappa_sq in (1.0, -2.5, 0.3 + 0.4j):
        fam = plane_wave_family(grid, kappa_sq=kappa_sq)
        assert len(fam.traces) == num_solutions(2)
        for m in fam.members:
            # rho . rho = kappa^2 means lap(e^{rho x}) = kappa^2 e^{rho x}
            assert abs(np.dot(m.rho, m.rho) - kappa_sq) < 1e-12
    positive = plane_wave_family(grid, kappa_sq=1.0)
    for tr in positive.traces:
        assert tr.values.real.min() > 0
        assert np.abs(tr.values.imag).max() < 1e-14


def test_three_dimensional_counts():
    grid = square_grid(9, dim=3)
    fam = constant_tensor_family(
        grid, np.diag([1.0, 1.5, 2.0]) + 0j)
    assert len(fam.traces) == num_solutions(3)
    pw = plane_wave_family(grid, kappa_sq=1.0)
    assert len(pw.traces) == num_solutions(3)
    for m in pw.members:
        assert abs(np.dot(m.rho, m.rho) - 1.0) < 1e-12
