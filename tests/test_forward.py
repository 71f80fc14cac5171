"""Dirichlet solver contracts: manufactured solutions, gauge moves, errors."""

import numpy as np
import pytest

import gaugerec.forward
from gaugerec import (
    gradient,
    BoundaryTrace,
    CoefficientSet,
    DirichletSystem,
    EllipticityViolation,
    GridMismatch,
    NonFiniteData,
    ScalarField,
    SingularSystem,
    SymTensorField,
    VanishingGauge,
    VectorField,
    gauge_transform,
    square_grid,
    synthesize,
)
from gaugerec.fields import Grid
from gaugerec.forward import _nested_dissection
from gaugerec.harness import PRESETS


def const_coeffs(grid, amat, bvec, cval):
    n = grid.dim
    a = SymTensorField.from_matrix(
        grid, np.broadcast_to(np.asarray(amat, dtype=complex), grid.shape + (n, n)))
    b = VectorField(
        grid, np.broadcast_to(np.asarray(bvec, dtype=complex), grid.shape + (n,)))
    c = ScalarField(grid, np.full(grid.shape, cval, dtype=complex))
    zero = VectorField(grid, np.zeros(grid.shape + (n,), dtype=complex))
    return CoefficientSet(a, b, c, diva=zero)


def test_from_fields_computes_discrete_divergence():
    grid = square_grid(17)
    x1, x2 = grid.meshes
    mat = np.einsum("..., ij -> ...ij", 1 + 0.5 * x1 * x2, np.eye(2)) + 0j
    a = SymTensorField.from_matrix(grid, mat)
    b = VectorField(grid, np.zeros(grid.shape + (2,), dtype=complex))
    c = ScalarField(grid, np.zeros(grid.shape, dtype=complex))
    cs = CoefficientSet.from_fields(a, b, c)
    assert np.abs(cs.diva.values[..., 0] - 0.5 * x2).max() < 1e-12
    assert np.abs(cs.diva.values[..., 1] - 0.5 * x1).max() < 1e-12


def test_validate_flags_indefinite_tensor():
    grid = square_grid(9)
    cs = const_coeffs(grid, [[1.0, 0.0], [0.0, -1.0]], [0, 0], 0.0)
    with pytest.raises(EllipticityViolation):
        cs.validate()


def const_tensor_3d(amat):
    grid = square_grid(9, 3)
    return CoefficientSet.constant(grid, np.asarray(amat, dtype=complex))


@pytest.mark.parametrize("amat", [
    np.diag([1.0, 1.0, -1.0]),
    [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # second pivot -3
])
def test_validate_flags_indefinite_tensor_in_3d(amat):
    cs = const_tensor_3d(amat)
    with pytest.raises(EllipticityViolation) as info:
        cs.validate()
    assert info.value.nodes.shape == (cs.grid.num_nodes, 3)


def test_validate_flags_the_nodes_where_the_smallest_eigenvalue_is_not_positive():
    grid = square_grid(9, 3)
    x1, x2, x3 = grid.meshes
    re = np.empty(grid.shape + (3, 3))
    re[..., 0, 0] = 1.0 + x2
    re[..., 1, 1] = 0.9 - x1 * x3
    re[..., 2, 2] = 1.1 - 0.7 * x3
    re[..., 0, 1] = re[..., 1, 0] = x1 - 0.31
    re[..., 1, 2] = re[..., 2, 1] = 0.6 * x2 - 0.137
    re[..., 0, 2] = re[..., 2, 0] = 0.2 + 0.3 * x3
    im = 0.4 * np.einsum("...,ij->...ij", x1 * x2, np.ones((3, 3)))
    lo = np.linalg.eigvalsh(re)[..., 0]
    assert np.abs(lo).min() > 1e-8 and (lo <= 0).any() and (lo > 0).any()
    zero_v = VectorField(grid, np.zeros(grid.shape + (3,)))
    cs = CoefficientSet(SymTensorField.from_matrix(grid, re + 1j * im), zero_v,
                        ScalarField(grid, np.zeros(grid.shape)), zero_v)
    with pytest.raises(EllipticityViolation) as info:
        cs.validate()
    assert np.array_equal(info.value.nodes, np.argwhere(lo <= 0))


def test_coefficient_fields_on_another_grid_are_rejected():
    grid = square_grid(17)
    wide = square_grid(17, extent=((0.0, 1.0), (0.0, 2.0)))
    cs = CoefficientSet.constant(grid, np.eye(2))
    with pytest.raises(GridMismatch) as info:
        CoefficientSet(cs.a, cs.b, ScalarField(wide, cs.c.values), cs.diva)
    assert info.value.index == 2


def test_boundary_trace_contracts():
    grid = square_grid(17)
    tr = BoundaryTrace.from_function(grid, lambda p: p[:, 0] + 2.0 * p[:, 1])
    assert tr.values.shape == (grid.boundary_flat.size,)
    x1, x2 = grid.meshes
    tr2 = BoundaryTrace.from_node_values(grid, x1 + 2.0 * x2)
    assert np.allclose(tr.values, tr2.values)
    with pytest.raises(ValueError):
        BoundaryTrace(grid, np.zeros(7))


def test_boundary_trace_refuses_non_finite_values_at_their_nodes():
    grid = square_grid(9)
    vals = np.ones(grid.boundary_flat.size, dtype=complex)
    vals[[3, 20]] = [np.nan, np.inf]
    with pytest.raises(NonFiniteData) as info:
        BoundaryTrace(grid, vals)
    flat = grid.boundary_flat[[3, 20]]
    assert np.array_equal(info.value.nodes,
                          np.column_stack(np.unravel_index(flat, grid.shape)))


def test_solver_exact_on_quadratic_constant_coefficients():
    """Constant (a, b, c) and a quadratic solution: the stencil is exact,
    so the solve reproduces the polynomial to factorization roundoff."""
    grid = square_grid(33)
    x1, x2 = grid.meshes
    amat = np.array([[2.0, 0.3], [0.3, 1.0]]) + 0.1j * np.array([[1.0, 0.2], [0.2, 0.5]])
    bvec = np.array([0.4 - 0.1j, -0.2 + 0.3j])
    cval = 0.7 + 0.5j
    cs = const_coeffs(grid, amat, bvec, cval)
    u_true = (1 + 0.2j) * x1**2 - x1 * x2 + (0.5 - 0.4j) * x2**2 + x1 + 2j
    hess = np.array([[2 * (1 + 0.2j), -1.0], [-1.0, 2 * (0.5 - 0.4j)]])
    grad = np.stack([2 * (1 + 0.2j) * x1 - x2 + 1,
                     -x1 + 2 * (0.5 - 0.4j) * x2], axis=-1)
    src = (np.einsum("ij,ij->", amat, hess) * np.ones(grid.shape)
           + grad @ bvec + cval * u_true)
    u = DirichletSystem(cs).solve(BoundaryTrace.from_node_values(grid, u_true),
                              source=ScalarField(grid, src))
    assert np.abs(u.values - u_true).max() < 1e-10


def test_solver_second_order_on_smooth_problem():
    """Manufactured smooth solution with variable complex coefficients."""
    errs = []
    for n in (17, 33, 65):
        grid = square_grid(n)
        x1, x2 = grid.meshes
        gam = 1 + 0.3 * np.sin(np.pi * x1) * np.sin(np.pi * x2)
        amat = np.einsum("..., ij -> ...ij", gam, np.eye(2)) + 0j
        a = SymTensorField.from_matrix(grid, amat)
        dgam = np.stack([0.3 * np.pi * np.cos(np.pi * x1) * np.sin(np.pi * x2),
                         0.3 * np.pi * np.sin(np.pi * x1) * np.cos(np.pi * x2)],
                        axis=-1)
        diva = VectorField(grid, dgam.astype(complex))
        b = VectorField(grid, np.zeros(grid.shape + (2,), dtype=complex))
        c = ScalarField(grid, np.full(grid.shape, 0.5j))
        cs = CoefficientSet(a, b, c, diva=diva)
        u_true = np.exp(x1 + x2).astype(complex)
        # div(gam grad u) + c u for u = e^{x1+x2}
        src = (2 * gam + dgam[..., 0] + dgam[..., 1] + 0.5j) * u_true
        u = DirichletSystem(cs).solve(BoundaryTrace.from_node_values(grid, u_true),
                                  source=ScalarField(grid, src))
        errs.append(np.abs(u.values - u_true).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert errs[-1] < 5e-5
    assert min(orders) > 1.7


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_discrete_maximum_principle(seed):
    grid = square_grid(17)
    cs = const_coeffs(grid, np.eye(2), [0.2, -0.1], 0.0)
    rng = np.random.default_rng(seed)
    f = BoundaryTrace(grid, rng.uniform(-1.0, 1.0, grid.boundary_flat.size) + 0j)
    u = DirichletSystem(cs).solve(f).values.real
    assert u.max() <= f.values.real.max() + 1e-10
    assert u.min() >= f.values.real.min() - 1e-10


def test_residual_tolerance_is_enforced(monkeypatch):
    grid = square_grid(9)
    cs = const_coeffs(grid, np.eye(2), [0, 0], 0.0)
    f = BoundaryTrace.from_function(grid, lambda p: p[:, 0] ** 2)
    # no solve meets a zero residual bound, so the gate must trip
    monkeypatch.setattr(gaugerec.forward, "_RTOL", 0.0)
    with pytest.raises(SingularSystem):
        DirichletSystem(cs).solve(f)
    # the failing trace index is carried through batch synthesis
    with pytest.raises(SingularSystem) as info:
        synthesize(cs, [f, f])
    assert info.value.trace_index == 0


@pytest.mark.parametrize("preset,n", [("smooth-complex-2d", 65), ("constant-tensor-3d", 9)])
def test_block_solve_equals_per_trace_solves(preset, n):
    """synthesize solves the family as one block; every member is bitwise
    the solution of its own one-column solve."""
    p = PRESETS[preset]
    grid = square_grid(n, p.dim)
    cs = p.coefficients(grid)
    traces = list(p.illumination(grid))
    system = DirichletSystem(cs)
    block = synthesize(cs, traces)
    assert len(block) == len(traces)
    for u, tr in zip(block, traces):
        assert np.array_equal(u.values, system.solve(tr).values)


def test_block_solve_names_the_first_failing_trace(monkeypatch):
    """A zero trace leaves a residual of exactly 0, so it passes even a zero
    bound; the gate is per column and names the third trace."""
    grid = square_grid(9)
    cs = const_coeffs(grid, np.eye(2), [0.2, -0.1], 0.3)
    zero = BoundaryTrace(grid, np.zeros(grid.boundary_flat.size))
    f = BoundaryTrace.from_function(grid, lambda p: np.exp(p[:, 0]) * p[:, 1])
    monkeypatch.setattr(gaugerec.forward, "_RTOL", 0.0)
    with pytest.raises(SingularSystem) as info:
        synthesize(cs, [zero, zero, f])
    assert info.value.trace_index == 2
    assert info.value.residual > 0.0


# ---------------------------------------------------------------------------
# Interior-only solve in nested-dissection order
# ---------------------------------------------------------------------------

def box_grid(shape):
    return Grid(shape, ((0.0, 1.0),) * len(shape))


def variable_coeffs(grid):
    """Smooth complex (a, b, c) with every cross term of a nonzero."""
    n = grid.dim
    xs = grid.meshes
    bump = np.prod([np.sin(np.pi * x) for x in xs], axis=0)
    mat = np.zeros(grid.shape + (n, n), dtype=complex)
    for p in range(n):
        mat[..., p, p] = 1.0 + 0.1 * p + 0.3 * bump + 0.05j * (1 + xs[p])
        for q in range(p + 1, n):
            mat[..., p, q] = mat[..., q, p] = 0.15 * xs[p] * xs[q] + 0.05j * bump
    b = np.stack([0.3 * xs[(p + 1) % n] + 0.2j * xs[p] for p in range(n)], axis=-1)
    c = 0.4 * bump - 0.2 + 0.3j * xs[0]
    return CoefficientSet.from_fields(
        SymTensorField.from_matrix(grid, mat), VectorField(grid, b),
        ScalarField(grid, c))


def dense_identity_row_system(cs):
    """The identity-row N x N system, built node by node as the reference."""
    grid = cs.grid
    n = grid.dim
    h = grid.spacing
    N = grid.num_nodes
    A = np.zeros((N, N), dtype=complex)
    amat = cs.a.as_matrix()
    drift = cs.diva.values + cs.b.values
    unit = np.eye(n, dtype=int)
    for idx in np.ndindex(grid.shape):
        i = np.ravel_multi_index(idx, grid.shape)
        if grid.boundary_mask[idx]:
            A[i, i] = 1.0
            continue

        def col(offset):
            return np.ravel_multi_index(tuple(np.add(idx, offset)), grid.shape)

        a = amat[idx]
        A[i, i] += cs.c.values[idx]
        for p in range(n):
            A[i, i] -= 2.0 * a[p, p] / h[p] ** 2
            for s in (1, -1):
                A[i, col(s * unit[p])] += a[p, p] / h[p] ** 2 + s * drift[idx][p] / (2 * h[p])
            for q in range(p + 1, n):
                for sp_ in (1, -1):
                    for sq in (1, -1):
                        A[i, col(sp_ * unit[p] + sq * unit[q])] += \
                            sp_ * sq * a[p, q] / (2 * h[p] * h[q])
    return A


@pytest.mark.parametrize("shape", [(9, 9), (12, 9), (9, 10, 11), (13, 9, 9)])
def test_nested_dissection_orders_every_interior_node_once(shape):
    order = _nested_dissection(shape)
    interior = np.flatnonzero(box_grid(shape).interior_mask.ravel())
    assert order.size == interior.size
    assert np.array_equal(np.sort(order), interior)


def test_nested_dissection_is_cached_per_shape_and_read_only():
    order = _nested_dissection((12, 10))  # a shape no other test solves on
    assert _nested_dissection((12, 10)) is order
    with pytest.raises(ValueError):
        order[0] = 0


def test_systems_sharing_a_cached_order_solve_as_fresh_ones():
    """Grids of one shape and different extents share the cached order; each
    system solves exactly as one built with an empty cache."""
    grids = [Grid((13, 11), ((0.0, 1.0), (0.0, 1.0))),
             Grid((13, 11), ((-1.0, 2.0), (0.5, 1.0)))]

    def solve(grid):
        xs = grid.meshes
        f = BoundaryTrace.from_node_values(grid, np.exp(xs[0] - 0.5j * xs[1]))
        return DirichletSystem(variable_coeffs(grid)).solve(f).values

    shared = [solve(grid) for grid in grids]
    for grid, u in zip(grids, shared):
        _nested_dissection.cache_clear()
        assert np.array_equal(solve(grid), u)


@pytest.mark.parametrize("shape", [(17, 13), (11, 12, 10)])
def test_nested_dissection_separators_decouple_their_halves(shape):
    """Walk the bisection tree: at every split, no entry of the interior
    matrix couples the two halves, and the separator is ordered after both."""
    grid = box_grid(shape)
    system = DirichletSystem(variable_coeffs(grid))
    order = system.order
    n_int = order.size
    coupled = system._A[:, :n_int].tocoo()
    node_row = np.asarray(order)[coupled.row]
    node_col = np.asarray(order)[coupled.col]
    position = np.empty(grid.num_nodes, dtype=int)
    position[order] = np.arange(n_int)
    splits = 0

    def walk(block):
        nonlocal splits
        axis = int(np.argmax(block.shape))
        m = block.shape[axis] // 2
        if block.shape[axis] < 3:
            return
        lo = np.take(block, np.arange(m), axis=axis).ravel()
        hi = np.take(block, np.arange(m + 1, block.shape[axis]), axis=axis).ravel()
        sep = np.take(block, [m], axis=axis).ravel()
        across = (np.isin(node_row, lo) & np.isin(node_col, hi)) \
            | (np.isin(node_row, hi) & np.isin(node_col, lo))
        assert not across.any()
        assert position[sep].min() > max(position[lo].max(), position[hi].max())
        splits += 1
        walk(np.take(block, np.arange(m), axis=axis))
        walk(np.take(block, np.arange(m + 1, block.shape[axis]), axis=axis))

    nodes = np.arange(grid.num_nodes).reshape(shape)
    walk(nodes[(slice(1, -1),) * grid.dim])
    assert splits > 3


@pytest.mark.parametrize("shape", [(9, 9), (9, 10, 11)])
def test_interior_solve_matches_dense_identity_row_solve(shape):
    grid = box_grid(shape)
    cs = variable_coeffs(grid)
    A = dense_identity_row_system(cs)
    xs = grid.meshes
    f = BoundaryTrace.from_node_values(grid, np.exp(xs[0] - 0.5j * xs[-1]))
    src = ScalarField(grid, np.cos(2 * xs[0]) + 1j * xs[-1] ** 2)
    system = DirichletSystem(cs)
    for source in (None, src):
        rhs = np.zeros(grid.num_nodes, dtype=complex)
        if source is not None:
            rhs[grid.interior_mask.ravel()] = source.values[grid.interior_mask]
        rhs[grid.boundary_flat] = f.values
        u_ref = np.linalg.solve(A, rhs).reshape(grid.shape)
        u = system.solve(f, source=source).values
        assert np.abs(u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()


def test_gauge_transform_identities():
    grid = square_grid(33)
    x1, x2 = grid.meshes
    mat = np.einsum("..., ij -> ...ij", 1 + 0.2 * x1, np.eye(2)) \
        + 0.1j * np.broadcast_to(np.array([[0.0, 1.0], [1.0, 0.0]]), grid.shape + (2, 2))
    a = SymTensorField.from_matrix(grid, mat)
    b = VectorField(grid, np.stack([x2, -x1], axis=-1).astype(complex))
    c = ScalarField(grid, (0.3 + 0.1j) * np.ones(grid.shape))
    cs = CoefficientSet.from_fields(a, b, c)
    tau = ScalarField(grid, 1 + 0.4 * np.sin(np.pi * x1) + 0j)
    out = gauge_transform(cs, tau)
    assert np.abs(out.a.values - tau.values[..., None] * cs.a.values).max() < 1e-14
    assert np.abs(out.c.values - tau.values * cs.c.values).max() < 1e-14
    # the drift law uses the discrete gradient of tau, so compare against it
    grad_tau = gradient(tau).values
    b_expect = tau.values[..., None] * b.values \
        - np.einsum("...ij,...j->...i", mat, grad_tau)
    assert np.abs(out.b.values - b_expect).max() < 1e-12


def test_gauge_transform_rejects_vanishing_tau():
    grid = square_grid(9)
    cs = const_coeffs(grid, np.eye(2), [0, 0], 0.0)
    tau = ScalarField(grid, grid.meshes[0] + 0j)  # zero along one edge
    with pytest.raises(VanishingGauge):
        gauge_transform(cs, tau)


def test_gauge_moves_leave_the_data_invariant():
    """Solutions depend only on the class, not the representative."""
    grid = square_grid(33)
    x1, x2 = grid.meshes
    cs = const_coeffs(grid, np.eye(2) + 0.05j * np.eye(2), [0.1, 0.0], 0.2 + 0.1j)
    tau = ScalarField(grid, 1 + 0.4 * np.sin(np.pi * x1) + 0.2 * x2 + 0j)
    cs_t = gauge_transform(cs, tau)
    traces = [BoundaryTrace.from_node_values(grid, x1 + x2),
              BoundaryTrace.from_node_values(grid, x1 * x2 + 0.5)]
    u = synthesize(cs, traces)
    u_t = synthesize(cs_t, traces)
    for orig, moved in zip(u, u_t):
        # the two discretizations differ at O(h^2), not at solver precision
        assert np.abs(orig.values - moved.values).max() < 5e-4
