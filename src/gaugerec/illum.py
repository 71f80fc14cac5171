"""Boundary illumination families.

Each constructor returns an :class:`IlluminationSet` whose traces, in a
documented order, load the reconstruction with enough independent interior
solutions.  The family size is always I(n) = n(n+3)/2 and the number of
quadratic generators is G(n) = n(n+1)/2 - 1.

Families
--------
harmonic
    1, the coordinates, the mixed products x_i x_j (i<j), and the
    differences (x_j^2 - x_{j+1}^2)/2.  Exact solutions for (Id, 0, 0).
constant tensor
    1, the coordinates, and quadratics (1/2) x.Q_m x with Tr(a0 Q_m) = 0;
    exact solutions for the constant class (a0, 0, 0).
local polynomial
    Quadratic jets p_0 .. p_{n+G} adapted to a coefficient value
    (a0, b0, c0) at a chosen center; each satisfies the frozen-coefficient
    equation a0:Q + b0.rho + c0 d = 0 exactly.
complex exponential
    gamma^(-1/2) exp(rho.x) with isotropic null vectors rho = k(e_i + i e_j)
    at three amplitude scales (1, eps, eps^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTensor
from .fields import Grid, ScalarField
from .forward import BoundaryTrace

__all__ = [
    "num_solutions",
    "num_generators",
    "complement_basis",
    "PolynomialMember",
    "ExponentialMember",
    "IlluminationSet",
    "harmonic_family",
    "constant_tensor_family",
    "local_polynomial_family",
    "cgo_family",
    "plane_wave_family",
]


def num_solutions(dim: int) -> int:
    """Size I(n) of the illumination families."""
    return dim * (dim + 3) // 2


def num_generators(dim: int) -> int:
    """Number G(n) of independent quadratic generators."""
    return dim * (dim + 1) // 2 - 1


def _canonical_sym_basis(n: int) -> list[np.ndarray]:
    """Unit-Frobenius symmetric basis: E_ii and (E_ij + E_ji)/sqrt(2)."""
    out = []
    for i in range(n):
        for j in range(i, n):
            B = np.zeros((n, n), dtype=np.complex128)
            if i == j:
                B[i, i] = 1.0
            else:
                B[i, j] = B[j, i] = 1.0 / np.sqrt(2.0)
            out.append(B)
    return out


def complement_basis(a0) -> list[np.ndarray]:
    """Orthonormal symmetric matrices Q with Tr(a0 Q) = 0.

    Modified Gram-Schmidt in the Frobenius Hermitian product, seeded with
    conj(a0) so that Hermitian orthogonality to the seed is exactly the
    bilinear constraint Tr(a0 Q) = 0.  Returns G(n) matrices.
    """
    a0 = np.asarray(a0, dtype=np.complex128)
    n = a0.shape[0]
    if a0.shape != (n, n):
        raise ValueError("a0 must be square")
    a0 = 0.5 * (a0 + a0.T)
    seed = np.conj(a0)
    nrm2 = float(np.sum(np.abs(seed) ** 2))
    if nrm2 <= 1e-28:
        raise DegenerateTensor("a0 : a0* = 0, no orthogonal complement pairing")
    basis = [seed / np.sqrt(nrm2)]
    out = []
    for B in _canonical_sym_basis(n):
        w = B.copy()
        for u in basis:
            w = w - np.sum(np.conj(u) * w) * u
        nw = float(np.linalg.norm(w))
        if nw > 1e-10:
            w = w / nw
            basis.append(w)
            out.append(w)
    want = num_generators(n)
    if len(out) != want:
        raise DegenerateTensor(f"complement basis has {len(out)} elements, expected {want}")
    return out


@dataclass(frozen=True)
class PolynomialMember:
    """Quadratic jet p(x) = (1/2) y.Qy + rho.y + d with y = x - center."""

    quad: np.ndarray
    lin: np.ndarray
    const: complex
    center: np.ndarray
    label: str = ""

    def __call__(self, pts, nodes=None) -> np.ndarray:
        """The jet at the coordinates ``pts``; ``nodes``, their flat grid
        indices, is not needed."""
        y = np.asarray(pts, dtype=np.float64) - self.center
        q = 0.5 * np.einsum("...i,ij,...j->...", y, self.quad, y)
        return q + y @ self.lin + self.const

    def jet_residual(self, a0, b0, c0) -> complex:
        """Frozen-coefficient equation residual a0:Q + b0.rho + c0 d."""
        a0 = np.asarray(a0, dtype=np.complex128)
        b0 = np.asarray(b0, dtype=np.complex128)
        return complex(np.sum(a0 * self.quad) + b0 @ self.lin + c0 * self.const)


@dataclass(frozen=True)
class ExponentialMember:
    """Wave gamma^(-1/2) exp(rho.x); gamma is a constant or a ScalarField."""

    rho: np.ndarray
    gamma: object = 1.0
    label: str = ""

    def __call__(self, pts, nodes=slice(None)) -> np.ndarray:
        """The wave at ``pts``, the coordinates of the grid nodes with flat
        indices ``nodes``, where a field-valued gamma is sampled."""
        pts = np.asarray(pts, dtype=np.float64)
        if isinstance(self.gamma, ScalarField):
            g = self.gamma.values.reshape(-1)[nodes].reshape(pts.shape[:-1])
        else:
            g = np.full(pts.shape[:-1], complex(self.gamma))
        return 1.0 / np.sqrt(g) * np.exp(pts @ self.rho)


@dataclass
class IlluminationSet:
    """Ordered boundary traces plus the closed-form members that built them."""

    family: str
    grid: Grid
    traces: list[BoundaryTrace]
    members: list
    params: dict = field(default_factory=dict)

    def __iter__(self):
        return iter(self.traces)

    def __len__(self):
        return len(self.traces)

    def fields(self) -> list[ScalarField]:
        """The members evaluated at every node of the grid."""
        return [ScalarField(self.grid, m(self.grid.points)) for m in self.members]


def _traces(grid: Grid, members: list) -> list[BoundaryTrace]:
    """Each member evaluated at the boundary nodes of ``grid``."""
    return [BoundaryTrace(grid, m(grid.boundary_points, grid.boundary_flat), label=m.label)
            for m in members]


def _affine_members(n: int) -> list[PolynomialMember]:
    """1 and the coordinates x_j, the head of the polynomial families."""
    zero = np.zeros(n)
    zq = np.zeros((n, n), dtype=np.complex128)
    members = [PolynomialMember(zq, zero, 1.0, zero, label="1")]
    for j in range(n):
        members.append(PolynomialMember(zq, np.eye(n)[j], 0.0, zero, label=f"x{j + 1}"))
    return members


def harmonic_family(grid: Grid) -> IlluminationSet:
    """1, x_j, x_i x_j (i<j), and (x_j^2 - x_{j+1}^2)/2."""
    n = grid.dim
    zero = np.zeros(n)
    members = _affine_members(n)
    for i in range(n):
        for j in range(i + 1, n):
            Q = np.zeros((n, n), dtype=np.complex128)
            Q[i, j] = Q[j, i] = 1.0
            members.append(PolynomialMember(Q, zero, 0.0, zero,
                                            label=f"x{i + 1}x{j + 1}"))
    for j in range(n - 1):
        Q = np.zeros((n, n), dtype=np.complex128)
        Q[j, j] = 1.0
        Q[j + 1, j + 1] = -1.0
        members.append(PolynomialMember(Q, zero, 0.0, zero,
                                        label=f"(x{j + 1}^2-x{j + 2}^2)/2"))
    return IlluminationSet("harmonic", grid, _traces(grid, members), members)


def constant_tensor_family(grid: Grid, a0) -> IlluminationSet:
    """1, x_j, and quadratics (1/2) x.Q_m x with Tr(a0 Q_m) = 0."""
    n = grid.dim
    zero = np.zeros(n)
    members = _affine_members(n)
    for m, Q in enumerate(complement_basis(a0)):
        members.append(PolynomialMember(Q, zero, 0.0, zero, label=f"quad{m + 1}"))
    a0 = np.asarray(a0, dtype=np.complex128)
    return IlluminationSet("constant-tensor", grid, _traces(grid, members), members,
                           params={"a0": a0.tolist()})


def _rotation_into_leading_plane(b0: np.ndarray) -> np.ndarray:
    """Real orthogonal R with R b0 supported on the first two coordinates.

    Rows are built by Gram-Schmidt from Re b0, Im b0, then completed with
    coordinate vectors.  For b0 = 0 this is the identity.
    """
    n = b0.shape[0]
    rows = []
    for v in (b0.real, b0.imag):
        w = v.copy()
        for u in rows:
            w = w - (u @ w) * u
        nw = np.linalg.norm(w)
        if nw > 1e-12 * max(1.0, np.linalg.norm(v)):
            rows.append(w / nw)
    for k in range(n):
        if len(rows) == n:
            break
        w = np.zeros(n)
        w[k] = 1.0
        for u in rows:
            w = w - (u @ w) * u
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            rows.append(w / nw)
    return np.asarray(rows)


def local_polynomial_family(grid: Grid, a0, b0, c0, center) -> IlluminationSet:
    """Quadratic jets adapted to the frozen coefficients at ``center``.

    p_0 has constant part 1 and curvature chosen so the frozen equation
    holds; p_1 .. p_n have unit linear parts (in a rotated frame aligned
    with b0) with compensating curvature; the rest carry the trace-free
    quadratic generators.  Every member satisfies
    a0:Q + b0.rho + c0 d = 0 exactly.
    """
    n = grid.dim
    a0 = 0.5 * (np.asarray(a0, dtype=np.complex128) + np.asarray(a0, dtype=np.complex128).T)
    b0 = np.asarray(b0, dtype=np.complex128).reshape(n)
    c0 = complex(c0)
    center = np.asarray(center, dtype=np.float64).reshape(n)
    astar = np.conj(a0)
    pairing = complex(np.sum(a0 * astar))
    if abs(pairing) <= 1e-28:
        raise DegenerateTensor("a0 : a0* = 0, local family is undefined")

    members = [PolynomialMember(-c0 * astar / pairing, np.zeros(n), 1.0, center, label="p0")]

    R = _rotation_into_leading_plane(b0)
    b_rot = R @ b0
    a_rot_star = np.conj(R @ a0 @ R.T)
    for j in range(n):
        coef = b_rot[j] if j < 2 else 0.0
        Qr = -coef * a_rot_star / pairing
        Q = R.T @ Qr @ R
        rho = R.T[:, j].astype(np.complex128)
        members.append(PolynomialMember(Q, rho, 0.0, center, label=f"p{j + 1}"))
    for m, Q in enumerate(complement_basis(a0)):
        members.append(PolynomialMember(Q, np.zeros(n), 0.0, center,
                                        label=f"p{n + m + 1}"))

    for mm in members:
        r = mm.jet_residual(a0, b0, c0)
        if abs(r) > 1e-10 * max(1.0, abs(c0), float(np.abs(b0).max(initial=0.0))):
            raise DegenerateTensor(f"member {mm.label} violates the jet constraint ({r:.2e})")
    return IlluminationSet("local-polynomial", grid, _traces(grid, members), members,
                           params={"a0": a0.tolist(), "b0": b0.tolist(),
                                   "c0": [c0.real, c0.imag],
                                   "center": center.tolist()})


def cgo_family(grid: Grid, gamma=1.0, k: float | None = None,
               eps: float = 0.5) -> IlluminationSet:
    """Exponential traces gamma^(-1/2) exp(rho.x) on isotropic directions.

    rho(i, j) = k (e_i + i e_j), so rho.rho = 0 exactly.  The default decay
    scale is k = 8 / diam(X).  Order: the doubly damped eps^2 rho(1,2);
    the damped conj(rho(1,2)) and damped rho(j-1, j) for j = 2..n; all
    rho(i, j) with i < j; conj(rho(j, j+1)) for j = 1..n-1.
    """
    n = grid.dim
    if k is None:
        k = 8.0 / grid.diameter
    if eps <= 0:
        raise ValueError("eps must be positive")

    def rho(i: int, j: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.complex128)
        out[i] += k
        out[j] += 1j * k
        return out

    specs: list[tuple[np.ndarray, str]] = [(eps ** 2 * rho(0, 1), "eps^2*rho12")]
    specs.append((eps * np.conj(rho(0, 1)), "eps*rho12c"))
    for j in range(1, n):
        specs.append((eps * rho(j - 1, j), f"eps*rho{j}{j + 1}"))
    for i in range(n):
        for j in range(i + 1, n):
            specs.append((rho(i, j), f"rho{i + 1}{j + 1}"))
    for j in range(n - 1):
        specs.append((np.conj(rho(j, j + 1)), f"rho{j + 1}{j + 2}c"))

    members = [ExponentialMember(r, gamma, label=lab) for r, lab in specs]
    return IlluminationSet("cgo", grid, _traces(grid, members), members,
                           params={"k": float(k), "eps": float(eps)})


def _spread_directions(n: int, count: int) -> np.ndarray:
    """Deterministic well-spread unit directions; half-circle angles in 2D,
    a Fibonacci hemisphere in 3D."""
    if n == 2:
        theta = 0.31 + np.pi * np.arange(count) / count
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    idx = np.arange(count) + 0.5
    z = idx / count
    phi = idx * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(1.0 - z ** 2, 0.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def plane_wave_family(grid: Grid, kappa_sq=1.0) -> IlluminationSet:
    """Plane-wave traces exp(lam d_j . x) with lam^2 = kappa_sq.

    Every member satisfies lap(f) = kappa_sq f exactly, so the traces are
    corner-compatible for operators that look like (lap + c) with
    c = -kappa_sq near the boundary; positive real kappa_sq gives strictly
    positive traces.
    """
    count = num_solutions(grid.dim)
    lam = np.sqrt(complex(kappa_sq))
    dirs = _spread_directions(grid.dim, count)
    members = [ExponentialMember(lam * d, 1.0, label=f"pw{j + 1}")
               for j, d in enumerate(dirs)]
    return IlluminationSet("plane-wave", grid, _traces(grid, members), members,
                           params={"kappa_sq": complex(kappa_sq), "count": count})

