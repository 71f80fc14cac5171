"""Direct solver for the second-order equation in non-divergence form.

The continuous model is

    a : D^2 u + (div a + b) . grad u + c u = 0   in X,
    u = f                                        on the boundary,

with complex symmetric a whose real part is uniformly elliptic.  The solver
takes div a as data (analytic when available, discrete otherwise) so that
coefficient sets built from closed-form presets are represented exactly.

Discretization: compact 3-point second differences per axis, centered cross
differences for the mixed terms, centered first differences for the drift,
all on the uniform grid.  Only interior nodes are unknowns: the operator is
assembled as one row per interior node and one column per node, and the
known boundary values move to the right-hand side.  The interior nodes are
numbered by nested dissection of the box (George 1973: recursive bisection,
each separator plane after the two halves it splits), and SuperLU factors the
interior block in that order, without a column permutation of its own.  The
order depends only on the grid shape and is computed once per shape.

One class, ``DirichletSystem``, orders, assembles, factors, solves and gates
every Dirichlet problem of the package.  An operator supplies only its
``grid`` and its ``stencil(nodes)``: ``CoefficientSet.stencil`` for the
model, and the conservative flux operator of the photoacoustic front end for
w = 1/u_1.  The factorization is done once per operator, and an illumination
family is solved as one block of right-hand sides: one SuperLU solve and one
sparse product for the residuals of all its traces.  Every solution is
checked, column by column, against the relative residual ``_RTOL``
(``_residual_gate``, which the gauge's transform-based Poisson solve shares);
above it the solve raises SingularSystem.

Importing this module, or the package, loads numpy only.  scipy.sparse is
imported inside the functions that build or factor a sparse operator
(``_stencil_rows``, ``DirichletSystem``), as the gauge's transforms and the
mollifier import theirs, so a process pays for scipy at its first
factorization, transform or smoothing, and one that does none of them
(``gaugerec reconstruct`` on archives) never loads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityViolation, NonFiniteData, SingularSystem, VanishingGauge
from .fields import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    common_grid,
    divergence_tensor,
    grad_values,
)

__all__ = [
    "CoefficientSet",
    "BoundaryTrace",
    "DirichletSystem",
    "gauge_transform",
    "synthesize",
]

_RTOL = 1e-10  # largest relative residual a direct solve may leave


@dataclass
class CoefficientSet:
    """The coefficient triple plus the divergence of the leading term.

    ``diva`` rides along so presets with closed-form derivatives stay exact;
    use :meth:`from_fields` to fill it with the discrete divergence.
    """

    a: SymTensorField
    b: VectorField
    c: ScalarField
    diva: VectorField

    def __post_init__(self):
        common_grid([self.a, self.b, self.c, self.diva])

    @classmethod
    def from_fields(cls, a: SymTensorField, b: VectorField, c: ScalarField,
                    diva: VectorField | None = None) -> "CoefficientSet":
        if diva is None:
            diva = divergence_tensor(a)
        return cls(a, b, c, diva)

    @classmethod
    def constant(cls, grid: Grid, a0) -> "CoefficientSet":
        """The constant class (a0, 0, 0) on ``grid``."""
        n = grid.dim
        a = SymTensorField.from_matrix(grid, np.broadcast_to(a0, grid.shape + (n, n)))
        zero_v = VectorField(grid, np.zeros(grid.shape + (n,)))
        return cls(a, zero_v, ScalarField(grid, np.zeros(grid.shape)), zero_v)

    @property
    def grid(self) -> Grid:
        return self.a.grid

    def validate(self) -> None:
        """Raise EllipticityViolation where Re(a) is not positive definite.

        Re(a) is eliminated without pivoting at every node, in 2D and 3D
        alike; it is positive definite exactly where every pivot is positive
        (Sylvester's criterion).  A node is flagged at its first pivot that
        is not, and its later pivots are not read.
        """
        m = self.a.as_matrix().real
        bad = np.zeros(self.grid.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pivot is flagged
            while m.shape[-1]:
                bad |= ~(m[..., 0, 0] > 0.0)
                pivot = np.where(bad, 1.0, m[..., 0, 0])[..., None, None]
                m = m[..., 1:, 1:] - m[..., 1:, :1] * m[..., :1, 1:] / pivot
        if bad.any():
            raise EllipticityViolation(
                "Re(a) violates the ellipticity bounds", nodes=np.argwhere(bad))

    def stencil(self, nodes: np.ndarray) -> dict:
        """Stencil of the non-divergence operator at the interior ``nodes``
        (flat indices; see :func:`_stencil_rows`), after :meth:`validate`."""
        self.validate()
        grid = self.grid
        n = grid.dim
        h = grid.spacing
        amat = self.a.as_matrix().reshape(-1, n, n)[nodes]
        drift = (self.diva.values + self.b.values).reshape(-1, n)[nodes]
        stencil = {}
        center = self.c.values.reshape(-1)[nodes].astype(np.complex128)
        for p in range(n):
            app = amat[:, p, p]
            dp = drift[:, p]
            center -= 2.0 * app / h[p] ** 2
            for s in (+1, -1):
                off = [0] * n
                off[p] = s
                stencil[tuple(off)] = app / h[p] ** 2 + s * dp / (2.0 * h[p])
        stencil[(0,) * n] = center
        for p in range(n):
            for q in range(p + 1, n):
                apq = amat[:, p, q]
                for sp_ in (+1, -1):
                    for sq in (+1, -1):
                        off = [0] * n
                        off[p] = sp_
                        off[q] = sq
                        stencil[tuple(off)] = (sp_ * sq) * apq / (2.0 * h[p] * h[q])
        return stencil


@dataclass
class BoundaryTrace:
    """Dirichlet datum sampled at the boundary nodes.

    ``values`` is a flat complex array over the boundary nodes in row-major
    grid order (matching ``grid.boundary_flat``).  A NaN or infinite value
    raises NonFiniteData naming the grid indices of its boundary nodes.
    """

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        k = self.grid.boundary_flat.size
        if vals.shape != (k,):
            raise ValueError(f"expected {k} boundary values, got shape {vals.shape}")
        bad = ~np.isfinite(vals)
        if bad.any():
            raise NonFiniteData("boundary trace contains non-finite values",
                                nodes=np.argwhere(self.grid.boundary_mask)[bad])
        self.values = vals

    @classmethod
    def from_function(cls, grid: Grid, fn, label: str = "") -> "BoundaryTrace":
        """Evaluate ``fn`` on the (k, dim) boundary coordinates."""
        vals = np.asarray(fn(grid.boundary_points), dtype=np.complex128)
        return cls(grid, vals.reshape(-1), label)

    @classmethod
    def from_node_values(cls, grid: Grid, full, label: str = "") -> "BoundaryTrace":
        """Restrict a full node array (or ScalarField) to the boundary."""
        if isinstance(full, ScalarField):
            full = full.values
        return cls(grid, grid.on_boundary(full), label)


def _flat_strides(shape: tuple[int, ...]) -> np.ndarray:
    strides = np.ones(len(shape), dtype=np.intp)
    for k in range(len(shape) - 2, -1, -1):
        strides[k] = strides[k + 1] * shape[k + 1]
    return strides


@functools.cache
def _nested_dissection(shape: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the interior nodes of a box grid, in nested-dissection
    order (George 1973).

    The order depends on the shape alone, so it is computed once per shape
    and cached; the returned array is read-only because every caller shares it.

    The interior box is cut along its longest axis by a plane one node thick;
    each half is ordered the same way and the plane goes after both.  No
    stencil used here reaches across such a plane, so eliminating a half fills
    in only within that half and its separators.
    """
    nodes = np.arange(int(np.prod(shape))).reshape(shape)
    parts = []
    _dissect(nodes[(slice(1, -1),) * len(shape)], parts)
    order = np.concatenate(parts)
    order.flags.writeable = False
    return order


def _dissect(block: np.ndarray, parts: list) -> None:
    """Append the nodes of ``block`` to ``parts`` in nested-dissection order.

    A module-level function, not a closure: a closure that calls itself is a
    reference cycle, which kept the index arrays alive until the next garbage
    collection and so left a varying amount of freed heap resident.
    """
    axis = int(np.argmax(block.shape))
    m = block.shape[axis] // 2
    if block.shape[axis] < 3:
        parts.append(block.ravel())
        return
    cut = [slice(None)] * block.ndim
    for half in (slice(None, m), slice(m + 1, None)):
        cut[axis] = half
        _dissect(block[tuple(cut)], parts)
    cut[axis] = m
    parts.append(block[tuple(cut)].ravel())


def _stencil_rows(grid: Grid, nodes: np.ndarray, stencil: dict,
                  columns: np.ndarray | None = None) -> sp.csr_matrix:
    """Sparse operator with one row per entry of ``nodes`` (interior flat
    indices) and one column per grid node.

    ``stencil`` maps an integer offset tuple to the coefficients at ``nodes``.
    ``columns[j]`` is the column of grid node j (the identity when omitted).
    """
    import scipy.sparse as sp

    strides = _flat_strides(grid.shape)
    offsets = np.array([np.asarray(off) @ strides for off in stencil], dtype=np.intp)
    cols = nodes[:, None] + offsets
    if columns is not None:
        cols = columns[cols]
    data = np.stack([np.asarray(v, dtype=np.complex128) for v in stencil.values()],
                    axis=1)
    k = len(stencil)
    return sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(0, k * nodes.size + 1, k)),
        shape=(nodes.size, grid.num_nodes))


class DirichletSystem:
    """Assembled and factored Dirichlet problem of one operator, reusable
    across right-hand sides.

    ``operator`` supplies the ``grid`` and ``stencil(nodes)``, its stencil at
    the given interior nodes (see :func:`_stencil_rows`); a
    :class:`CoefficientSet` is one.  The operator is assembled as n_I x N
    rows: rows and the first n_I columns follow the
    :func:`_nested_dissection` order of the interior nodes, and the boundary
    nodes follow in ``grid.boundary_flat`` order.  The leading square block
    A_II is therefore already ordered for elimination and is factored without
    a column permutation.  A solve takes u_I from A_II u_I = s_I - A_IB f and
    sets u_B = f; ``synthesize`` solves a whole illumination family with one
    factorization and one block solve.
    """

    def __init__(self, operator):
        from scipy.sparse.linalg import splu

        self.grid = grid = operator.grid
        self.order = order = _nested_dissection(grid.shape)
        n_int = order.size
        columns = np.empty(grid.num_nodes, dtype=np.intp)
        columns[order] = np.arange(n_int)
        columns[grid.boundary_flat] = np.arange(n_int, grid.num_nodes)
        self._A = _stencil_rows(grid, order, operator.stencil(order), columns).tocsc()
        self._absA = abs(self._A)
        # A 4-column panel (SuperLU's default is wider) lowered the peak
        # memory of a 129^2 factorization by about 8 MB and was not slower
        # at 129^2, 257^2, 17^3 or 25^3.
        try:
            self._lu = splu(self._A[:, :n_int], permc_spec="NATURAL",
                            panel_size=4)
        except RuntimeError as exc:
            raise SingularSystem(f"factorization failed: {exc}") from exc

    def solve(self, f: BoundaryTrace | list[BoundaryTrace],
              source: ScalarField | None = None) -> ScalarField | list[ScalarField]:
        """The solution for one trace, or the list of solutions for a
        sequence of traces, with the interior ``source`` (zero when omitted)
        in every problem.

        The traces are one block of right-hand sides: one SuperLU solve and
        one sparse product for their residuals.  A solution that is not
        finite or whose relative residual exceeds ``_RTOL`` raises
        SingularSystem; for a sequence, it carries the index of the first
        failing member as ``trace_index``.  Traces and source must lie on the
        system's grid (GridMismatch otherwise).
        """
        single = isinstance(f, BoundaryTrace)
        traces = [f] if single else list(f)
        if not traces:
            return []
        common_grid([self, *traces] + ([] if source is None else [source]))
        n_int = self.order.size
        if source is None:
            s = np.zeros((n_int, 1), dtype=np.complex128)
        else:
            s = source.values.reshape(-1)[self.order][:, None]
        fb = np.stack([tr.values for tr in traces], axis=1)
        x = np.concatenate([self._lu.solve(s - self._A[:, n_int:] @ fb), fb])
        self._gate(x, fb, s, indexed=not single)
        # column-major, so that each solution is one contiguous column
        u = np.empty(x.shape, dtype=np.complex128, order="F")
        u[self.order] = x[:n_int]
        u[self.grid.boundary_flat] = fb
        del x  # freed before the solutions are copied out, to keep a block's peak down
        out = [ScalarField(self.grid, u[:, j].reshape(self.grid.shape))
               for j in range(len(traces))]
        return out[0] if single else out

    def _gate(self, x: np.ndarray, f: np.ndarray, s: np.ndarray, indexed: bool) -> None:
        """``_residual_gate`` for solutions ``x`` in solver order.  Each
        full-size temporary is reduced to its column maxima before the next
        is made, which keeps a block's peak memory down."""
        # Boundary rows are not assembled: u_B = f exactly, so their residual
        # is 0 and their |A||u| term would be |f|, which max|f| covers.
        absax_max = (self._absA @ np.abs(x)).max(axis=0)
        resid = self._A @ x
        resid -= s
        _residual_gate(x, np.abs(resid).max(axis=0), absax_max, f, s, indexed)


def _residual_gate(x: np.ndarray, resid_max, absax_max, f: np.ndarray,
                   s: np.ndarray, indexed: bool = False) -> None:
    """Raise SingularSystem at the first column j of the solutions ``x``
    that is not finite or whose relative residual

        max|resid_j| / max(max(|A||x_j|), max|f_j|, max|s_j|, 1e-300)

    exceeds ``_RTOL``.  ``resid_max`` and ``absax_max`` are the column
    maxima of |resid| and of |A||x|, ``f`` holds the boundary values and
    ``s`` the source (a single column applies to every solution).  The
    error names j as its ``trace_index`` when ``indexed``.
    """
    finite = np.isfinite(x).all(axis=0)
    scale = np.maximum(np.maximum(absax_max, np.abs(f).max(axis=0)),
                       np.maximum(np.abs(s).max(axis=0), 1e-300))
    with np.errstate(invalid="ignore"):  # a non-finite column fails anyway
        rel = resid_max / scale
    failed = np.flatnonzero(~finite | (rel > _RTOL))
    if failed.size:
        j = int(failed[0])
        index = j if indexed else None
        if not finite[j]:
            raise SingularSystem("solution is not finite", trace_index=index)
        raise SingularSystem("direct solve residual above tolerance",
                             residual=float(rel[j]), trace_index=index)


def gauge_transform(coeffs: CoefficientSet, tau: ScalarField) -> CoefficientSet:
    """Push a coefficient set along the gauge orbit.

    (a, b, c) goes to (tau a, tau b - a grad tau, tau c); div(tau a) is
    recomputed with the discrete stencil rather than expanded analytically.
    |tau| below 1e-10 anywhere raises VanishingGauge; a ``tau`` on another
    grid raises GridMismatch.
    """
    grid = common_grid([coeffs, tau])
    t = tau.values
    if float(np.abs(t).min()) < 1e-10:
        raise VanishingGauge("|tau| dips below the floor 1e-10")
    a_new = SymTensorField(grid, coeffs.a.values * t[..., None])
    gt = grad_values(t, grid.spacing)
    b_new = VectorField(
        grid,
        coeffs.b.values * t[..., None]
        - np.einsum("...ij,...j->...i", coeffs.a.as_matrix(), gt),
    )
    c_new = ScalarField(grid, coeffs.c.values * t)
    return CoefficientSet(a_new, b_new, c_new, divergence_tensor(a_new))


def synthesize(coeffs: CoefficientSet, traces) -> list[ScalarField]:
    """Solve the Dirichlet problem for every trace in an illumination set.

    ``traces`` is an iterable of BoundaryTrace (an IlluminationSet works).
    One factorization and one block solve serve the whole set
    (``DirichletSystem.solve``); on failure the raised SingularSystem
    carries the index of the first failing trace.
    """
    return DirichletSystem(coeffs).solve(list(traces))
