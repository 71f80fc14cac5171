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
factorization is done once per coefficient set, so synthesizing many
illuminations reuses it.  The conservative flux solve of the photoacoustic
front end goes through the same factor and solve (``_InteriorLU``).  Every
solve is checked against the relative residual ``_RTOL``; above it the solve
raises SingularSystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import EllipticityViolation, SingularSystem, VanishingGauge
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
    "solve_dirichlet",
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


@dataclass
class BoundaryTrace:
    """Dirichlet datum sampled at the boundary nodes.

    ``values`` is a flat complex array over the boundary nodes in row-major
    grid order (matching ``grid.boundary_flat``).
    """

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        k = self.grid.boundary_flat.size
        if vals.shape != (k,):
            raise ValueError(f"expected {k} boundary values, got shape {vals.shape}")
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


def _nested_dissection(shape: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the interior nodes of a box grid, in nested-dissection
    order (George 1973).

    The interior box is cut along its longest axis by a plane one node thick;
    each half is ordered the same way and the plane goes after both.  No
    stencil used here reaches across such a plane, so eliminating a half fills
    in only within that half and its separators.
    """
    nodes = np.arange(int(np.prod(shape))).reshape(shape)
    parts = []
    _dissect(nodes[(slice(1, -1),) * len(shape)], parts)
    return np.concatenate(parts)


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


class _InteriorLU:
    """Factored interior rows of a Dirichlet problem, with a residual gate.

    ``stencil_at(nodes)`` returns the operator's stencil at the given
    interior nodes (see :func:`_stencil_rows`).  The operator is assembled as
    n_I x N rows: rows and the first n_I columns follow the
    :func:`_nested_dissection` order of the interior nodes, and the boundary
    nodes follow in ``grid.boundary_flat`` order.  The leading square block
    A_II is therefore already ordered for elimination and is factored without
    a column permutation.  A solve takes u_I from A_II u_I = s_I - A_IB f and
    sets u_B = f.
    """

    def __init__(self, grid: Grid, stencil_at):
        self.grid = grid
        self.order = order = _nested_dissection(grid.shape)
        n_int = order.size
        columns = np.empty(grid.num_nodes, dtype=np.intp)
        columns[order] = np.arange(n_int)
        columns[grid.boundary_flat] = np.arange(n_int, grid.num_nodes)
        self._A = _stencil_rows(grid, order, stencil_at(order), columns).tocsc()
        self._absA = abs(self._A)
        # A 4-column panel (SuperLU's default is wider) lowered the peak
        # memory of a 129^2 factorization by about 8 MB and was not slower
        # at 129^2, 257^2, 17^3 or 25^3.
        try:
            self._lu = splu(self._A[:, :n_int], permc_spec="NATURAL",
                            panel_size=4)
        except RuntimeError as exc:
            raise SingularSystem(f"factorization failed: {exc}") from exc

    def solve(self, f: np.ndarray, s: np.ndarray | None = None,
              trace_index: int | None = None) -> np.ndarray:
        """Flat solution over the grid for boundary values ``f`` (in
        ``boundary_flat`` order) and interior source ``s`` (in solver order)."""
        n_int = self.order.size
        if s is None:
            s = np.zeros(n_int, dtype=np.complex128)
        x = np.zeros(self.grid.num_nodes, dtype=np.complex128)
        x[n_int:] = f
        x[:n_int] = self._lu.solve(s - self._A @ x)
        if not np.all(np.isfinite(x)):
            raise SingularSystem("solution is not finite", trace_index=trace_index)
        # Boundary rows are not assembled: u_B = f exactly, so their residual
        # is 0 and their |A||u| term would be |f|, which max|f| covers.
        resid = self._A @ x - s
        scale = max(float((self._absA @ np.abs(x)).max()),
                    float(np.abs(f).max()), float(np.abs(s).max()), 1e-300)
        rel = float(np.abs(resid).max()) / scale
        if rel > _RTOL:
            raise SingularSystem("direct solve residual above tolerance",
                                 residual=rel, trace_index=trace_index)
        u = np.empty_like(x)
        u[self.order] = x[:n_int]
        u[self.grid.boundary_flat] = f
        return u


class DirichletSystem:
    """Assembled and factored Dirichlet problem for one coefficient set.

    Reusable across right-hand sides; ``synthesize`` relies on that to
    amortize the factorization over an illumination family.
    """

    def __init__(self, coeffs: CoefficientSet):
        coeffs.validate()
        self.coeffs = coeffs
        self.grid = coeffs.grid
        self._lu = _InteriorLU(self.grid, self._assemble)

    def _assemble(self, nodes: np.ndarray) -> dict:
        """Stencil of the non-divergence operator at the interior ``nodes``."""
        grid = self.grid
        n = grid.dim
        h = grid.spacing
        amat = self.coeffs.a.as_matrix().reshape(-1, n, n)[nodes]
        drift = (self.coeffs.diva.values + self.coeffs.b.values).reshape(-1, n)[nodes]
        stencil = {}
        center = self.coeffs.c.values.reshape(-1)[nodes].astype(np.complex128)
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

    def solve(self, f: BoundaryTrace, source: ScalarField | None = None,
              trace_index: int | None = None) -> ScalarField:
        """The solution for trace ``f`` and interior ``source``; both must
        lie on the system's grid (GridMismatch otherwise)."""
        common_grid([self, f] if source is None else [self, f, source])
        s = None
        if source is not None:
            s = source.values.reshape(-1)[self._lu.order]
        u = self._lu.solve(f.values, s, trace_index=trace_index)
        return ScalarField(self.grid, u.reshape(self.grid.shape))


def solve_dirichlet(coeffs: CoefficientSet, f: BoundaryTrace,
                    source: ScalarField | None = None) -> ScalarField:
    """One-shot Dirichlet solve; see :class:`DirichletSystem`."""
    return DirichletSystem(coeffs).solve(f, source=source)


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
    On failure the raised SingularSystem carries the failing trace index.
    """
    system = DirichletSystem(coeffs)
    out = []
    for j, tr in enumerate(traces):
        out.append(system.solve(tr, trace_index=j))
    return out
