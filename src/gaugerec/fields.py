"""Grids, sampled fields, and the discrete calculus used everywhere else.

Conventions
-----------
* Grids are uniform tensor-product grids on an axis-aligned box in dimension
  2 or 3, node centered, with at least 9 nodes per axis so the one-sided
  boundary stencils have room.
* Field values are stored as complex128 and treated as immutable after
  construction (the backing array is marked read-only).  Vector components
  live on the trailing axis; symmetric tensors are packed row-major over the
  upper triangle, see ``SYM_PAIRS``.
* Every dense finite difference is one of three private routines, shared by
  the field wrappers, ``recon._ratios`` and ``gauge._gradient_operator``
  (``_d1`` applied to the identity).  ``_d1``, first derivatives: 2nd-order
  central differences inside and 2nd-order one-sided ones at the boundary
  (``np.gradient`` with ``edge_order=2``).  ``_d2``, pure second
  derivatives: compact 3-point stencil inside and the one-sided
  (2, -5, 4, -1)/h^2 at the boundary, exact on cubics.  ``_derivatives``,
  gradient and Hessian of stacked arrays: each mixed derivative
  differentiates the stored first derivatives in both orders, which commute
  up to roundoff, and averages the two.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NonFiniteData

__all__ = [
    "SYM_PAIRS",
    "Grid",
    "common_grid",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "unpack_sym",
    "grad_values",
    "hess_values",
    "gradient",
    "hessian",
    "divergence",
    "divergence_tensor",
    "mollify",
    "save_field",
    "load_field",
]

# Packed index pairs for symmetric tensor components, per dimension.
SYM_PAIRS = {
    2: ((0, 0), (0, 1), (1, 1)),
    3: ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}

MIN_NODES_PER_AXIS = 9


def _node_count(axis: int, m) -> int:
    """``m`` as an int; ValueError naming the axis when it is not an integer
    (a float such as 9.5 or 9.0 included)."""
    try:
        return operator.index(m)
    except TypeError:
        raise ValueError(f"axis {axis}: node count {m!r} is not an integer") from None


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on an axis-aligned box.

    Parameters
    ----------
    shape : per-axis node counts, integers of at least 9 each.
    extent : per-axis (lo, hi) coordinate bounds, finite, lo < hi, with a
        finite spacing (hi - lo) / (m - 1).

    ValueError on anything else; the messages name the axis.
    """

    shape: tuple[int, ...]
    extent: tuple[tuple[float, float], ...]

    def __post_init__(self):
        shape = tuple(_node_count(k, m) for k, m in enumerate(self.shape))
        extent = tuple((float(lo), float(hi)) for lo, hi in self.extent)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "extent", extent)
        if len(shape) not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {len(shape)}")
        if len(extent) != len(shape):
            raise ValueError("extent and shape dimensions disagree")
        for k, ((lo, hi), m) in enumerate(zip(extent, shape)):
            if m < MIN_NODES_PER_AXIS:
                raise ValueError(f"axis {k}: need at least {MIN_NODES_PER_AXIS} nodes, got {m}")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis {k}: extent ({lo}, {hi}) is not finite")
            if not (hi > lo):
                raise ValueError(f"axis {k}: empty extent ({lo}, {hi})")
            if not math.isfinite((hi - lo) / (m - 1)):
                raise ValueError(f"axis {k}: extent ({lo}, {hi}) has a spacing that is "
                                 f"not finite")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (m - 1) for (lo, hi), m in zip(self.extent, self.shape))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.linspace(lo, hi, m) for (lo, hi), m in zip(self.extent, self.shape)
        )

    @cached_property
    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def points(self) -> np.ndarray:
        """Node coordinates, shape ``shape + (dim,)``."""
        return np.stack(self.meshes, axis=-1)

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for k in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[k] = 0
            mask[tuple(sl)] = True
            sl[k] = -1
            mask[tuple(sl)] = True
        mask.setflags(write=False)
        return mask

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def boundary_flat(self) -> np.ndarray:
        """Flat (row-major) indices of the boundary nodes, ascending."""
        out = np.flatnonzero(self.boundary_mask.ravel())
        out.setflags(write=False)
        return out

    @cached_property
    def boundary_points(self) -> np.ndarray:
        """Coordinates of the boundary nodes, shape (k, dim), row-major order."""
        out = self.points.reshape(-1, self.dim)[self.boundary_flat]
        out.setflags(write=False)
        return out

    def on_boundary(self, values) -> np.ndarray:
        """A node array (any component axes trailing) at the boundary nodes,
        one row per node in ``boundary_flat`` order; ValueError when its
        leading axes are not the grid's shape."""
        values = np.asarray(values)
        if values.shape[:self.dim] != self.shape:
            raise ValueError(f"node values of shape {values.shape} on a {self.shape} grid")
        return values.reshape((self.num_nodes,) + values.shape[self.dim:])[self.boundary_flat]

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def diameter(self) -> float:
        return float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.extent)))

    def subgrid(self, window: tuple[slice, ...]) -> "Grid":
        """Grid restricted to a contiguous index window (unit-step slices)."""
        if len(window) != self.dim:
            raise ValueError("window rank mismatch")
        shape = []
        extent = []
        for k, sl in enumerate(window):
            start, stop, step = sl.indices(self.shape[k])
            if step != 1:
                raise ValueError("subgrid windows must have unit step")
            ax = self.axes[k]
            shape.append(stop - start)
            extent.append((float(ax[start]), float(ax[stop - 1])))
        return Grid(tuple(shape), tuple(extent))


def common_grid(objs) -> Grid:
    """The grid of ``objs[0]``; GridMismatch at the first other object (a
    field, a trace, or anything else with a ``grid``) whose grid differs."""
    grid = objs[0].grid
    for j, f in enumerate(objs[1:], start=1):
        if f.grid != grid:
            raise GridMismatch(j, grid, f.grid)
    return grid


class _Field:
    """Shared storage and checks (shape, NonFiniteData) for sampled fields."""

    kind = "abstract"

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=np.complex128, copy=True)
        expected = grid.shape + self._component_shape(grid.dim)
        if arr.shape != expected:
            raise ValueError(f"{self.kind} field on {grid.shape}: expected values of shape "
                             f"{expected}, got {arr.shape}")
        bad = ~np.isfinite(arr).reshape(grid.shape + (-1,)).all(axis=-1)
        if bad.any():
            raise NonFiniteData(f"{self.kind} field contains non-finite values",
                                nodes=np.argwhere(bad))
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr

    @staticmethod
    def _component_shape(dim: int) -> tuple[int, ...]:
        raise NotImplementedError

    def crop(self, window: tuple[slice, ...]):
        sub = self.grid.subgrid(window)
        return type(self)(sub, self.values[window])

    def __repr__(self):
        return f"{type(self).__name__}(shape={self.grid.shape})"


class ScalarField(_Field):
    kind = "scalar"

    @staticmethod
    def _component_shape(dim):
        return ()


class VectorField(_Field):
    kind = "vector"

    @staticmethod
    def _component_shape(dim):
        return (dim,)


class SymTensorField(_Field):
    kind = "symtensor"

    @staticmethod
    def _component_shape(dim):
        return (dim * (dim + 1) // 2,)

    def as_matrix(self) -> np.ndarray:
        """Unpack to full (..., n, n) symmetric matrices."""
        return unpack_sym(self.values, self.grid.dim)

    @classmethod
    def from_matrix(cls, grid: Grid, mat) -> "SymTensorField":
        """Pack (..., n, n) matrices, symmetrizing against roundoff."""
        mat = np.asarray(mat, dtype=np.complex128)
        sym = 0.5 * (mat + np.swapaxes(mat, -1, -2))
        packed = np.stack([sym[..., i, j] for i, j in SYM_PAIRS[grid.dim]], axis=-1)
        return cls(grid, packed)


# ---------------------------------------------------------------------------
# Array-level stencils.  The engine uses these directly; the field wrappers
# below are the public face.
# ---------------------------------------------------------------------------

def unpack_sym(packed: np.ndarray, n: int) -> np.ndarray:
    """Full (..., n, n) symmetric matrices from components packed on the
    trailing axis in ``SYM_PAIRS`` order."""
    out = np.zeros(packed.shape[:-1] + (n, n), dtype=np.complex128)
    for p, (i, j) in enumerate(SYM_PAIRS[n]):
        out[..., i, j] = packed[..., p]
        if i != j:
            out[..., j, i] = packed[..., p]
    return out


def _d1(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along one axis: central inside, 2nd-order one-sided
    at the two boundary slabs.  Exact on quadratics."""
    return np.gradient(vals, h, axis=axis, edge_order=2)


def _d2(vals: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Pure second derivative along one axis.

    Compact 3-point stencil inside, one-sided (2, -5, 4, -1)/h^2 at the two
    boundary slabs.  Exact on cubics.
    """
    v = np.moveaxis(vals, axis, 0)
    out = np.empty_like(v, dtype=np.complex128)
    h2 = h * h
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return np.moveaxis(out, 0, axis)


def _check_axes(shape: tuple[int, ...], spacing) -> None:
    """ValueError unless ``spacing`` has one entry per axis and each axis at least 4 nodes."""
    if len(spacing) != len(shape):
        raise ValueError(f"{len(spacing)} spacing(s) for {len(shape)} grid axes")
    for k, m in enumerate(shape):
        if m < 4:
            raise ValueError(f"axis {k}: the stencils need at least 4 nodes, got {m}")


def _derivatives(vals: np.ndarray, spacing, lead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``(..., n)`` and complex Hessian ``(..., n, n)`` of node arrays
    stacked on ``lead`` leading axes, with the checks of ``grad_values``."""
    _check_axes(np.shape(vals)[lead:], spacing)
    n = len(spacing)
    grad = np.empty(np.shape(vals) + (n,), dtype=np.result_type(vals, 1.0))
    hess = np.empty(np.shape(vals) + (n, n), dtype=np.complex128)
    for k in range(n):
        grad[..., k] = _d1(vals, spacing[k], lead + k)
        hess[..., k, k] = _d2(vals, spacing[k], lead + k)
    for i, j in itertools.combinations(range(n), 2):
        dij = _d1(grad[..., i], spacing[j], lead + j)
        dji = _d1(grad[..., j], spacing[i], lead + i)
        hess[..., i, j] = hess[..., j, i] = 0.5 * (dij + dji)
    return grad, hess


def grad_values(vals: np.ndarray, spacing) -> np.ndarray:
    """All first partials of a node array; result has a trailing axis.
    ValueError unless ``spacing`` has one entry per axis of ``vals`` and each
    axis has at least 4 nodes."""
    _check_axes(np.shape(vals), spacing)
    return np.stack([_d1(vals, spacing[k], k) for k in range(len(spacing))], axis=-1)


def hess_values(vals: np.ndarray, spacing) -> np.ndarray:
    """Packed second derivatives of a node array, trailing axis of length
    n(n+1)/2 ordered as in ``SYM_PAIRS``; the checks of ``grad_values``."""
    hess = _derivatives(vals, spacing)[1]
    return np.stack([hess[..., i, j] for i, j in SYM_PAIRS[len(spacing)]], axis=-1)


def gradient(f: ScalarField) -> VectorField:
    return VectorField(f.grid, grad_values(f.values, f.grid.spacing))


def hessian(f: ScalarField) -> SymTensorField:
    return SymTensorField(f.grid, hess_values(f.values, f.grid.spacing))


def divergence(v: VectorField) -> ScalarField:
    """Sum of ∂_k v_k with the first-derivative stencil."""
    sp = v.grid.spacing
    out = np.zeros(v.grid.shape, dtype=np.complex128)
    for k in range(v.grid.dim):
        out += _d1(v.values[..., k], sp[k], k)
    return ScalarField(v.grid, out)


def divergence_tensor(a: SymTensorField) -> VectorField:
    """Row-wise divergence (div a)_i = sum_j ∂_j a_ij."""
    n = a.grid.dim
    sp = a.grid.spacing
    mat = a.as_matrix()
    out = np.zeros(a.grid.shape + (n,), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[..., i] += _d1(mat[..., i, j], sp[j], j)
    return VectorField(a.grid, out)


def mollify(f: ScalarField, width: float) -> ScalarField:
    """Truncated Gaussian smoothing with boundary renormalization.

    ``width`` is the kernel standard deviation in units of the node spacing;
    the kernel is truncated at 4 sigma, or at the length of the grid's
    longest axis (m - 1 spacings) if that is shorter, since a wider kernel
    reads no more data.  Near the boundary the filter output is divided by
    the filtered indicator function so that constants are reproduced
    exactly.  ``width = 0`` returns the field unchanged; a negative or
    non-finite width raises ValueError.
    """
    from scipy.ndimage import gaussian_filter

    if not (math.isfinite(width) and width >= 0):
        raise ValueError(f"width must be finite and nonnegative, got {width}")
    if width == 0:
        return f
    radius = min(int(4.0 * width + 0.5), max(f.grid.shape) - 1)  # scipy's 4-sigma radius
    kw = dict(sigma=width, mode="constant", cval=0.0, radius=radius)
    norm = gaussian_filter(np.ones(f.grid.shape), **kw)
    re = gaussian_filter(f.values.real, **kw)
    im = gaussian_filter(f.values.imag, **kw)
    return ScalarField(f.grid, (re + 1j * im) / norm)


# ---------------------------------------------------------------------------
# Archives
# ---------------------------------------------------------------------------

_KIND_TO_CLS = {"scalar": ScalarField, "vector": VectorField, "symtensor": SymTensorField}
_DTYPE = "<c16"


def save_field(f: _Field, path) -> None:
    """Write a field as a JSON archive: one object with the keys

    * ``"grid"``: ``{"shape": [m, ...], "extent": [[lo, hi], ...]}``;
    * ``"kind"``: ``"scalar"``, ``"vector"`` or ``"symtensor"``;
    * ``"dtype"``: ``"<c16"``, little-endian complex128;
    * ``"values"``: the base64 text of the values' raw ``<c16`` bytes, in C
      (row-major) order over the grid, components fastest.

    Every value round-trips through :func:`load_field` bit for bit.
    """
    raw = np.ascontiguousarray(f.values, dtype=_DTYPE).tobytes()
    payload = {
        "grid": {
            "shape": list(f.grid.shape),
            "extent": [list(e) for e in f.grid.extent],
        },
        "kind": f.kind,
        "dtype": _DTYPE,
        "values": base64.b64encode(raw).decode("ascii"),
    }
    # json.dumps encodes in C; json.dump streams through the Python encoder.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def _entry(obj, key: str, where: str):
    """``obj[key]``; ValueError naming the key when ``obj`` is not a JSON
    object or lacks it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no {key!r}")
    return obj[key]


def load_field(path) -> _Field:
    """Read an archive written by :func:`save_field`.

    ValueError naming the key when the archive is not a JSON object (or
    nests too deeply to be read), when a key is missing, when the grid or
    ``"kind"`` is invalid, when ``"dtype"`` is not ``"<c16"``, when
    ``"values"`` is not base64 text, or when it decodes to a length other
    than 16 bytes per value of the grid and kind; an archive whose
    ``"values"`` is a list of [re, im] pairs predates the binary payload and
    is refused.  The field constructor then refuses non-finite values.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:  # json's decoder recurses once per nesting level
            raise ValueError("the archive nests too deeply to be a field archive") from None
    header = _entry(payload, "grid", "the archive")
    shape, extent = _entry(header, "shape", "'grid'"), _entry(header, "extent", "'grid'")
    try:
        grid = Grid(tuple(shape), tuple(tuple(e) for e in extent))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"'grid' is invalid: {exc}") from None
    kind = _entry(payload, "kind", "the archive")
    cls = _KIND_TO_CLS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown field kind {kind!r}")
    text = _entry(payload, "values", "the archive")
    if isinstance(text, list) and "dtype" not in payload:
        raise ValueError("'values' is a list of [re, im] pairs: the archive predates the "
                         "binary payload and must be re-synthesized")
    dtype = payload.get("dtype")
    if dtype != _DTYPE:
        raise ValueError(f"'dtype' must be {_DTYPE!r}, got {dtype!r}")
    if not isinstance(text, str):
        raise ValueError(f"'values' must be base64 text, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise ValueError(f"'values' is not base64 text: {exc}") from None
    shape = grid.shape + cls._component_shape(grid.dim)
    expected = np.dtype(_DTYPE).itemsize * math.prod(shape)  # Python ints: no overflow
    if len(raw) != expected:
        raise ValueError(f"'values' holds {len(raw)} bytes; a {kind} field on "
                         f"{grid.shape} needs {expected}")
    return cls(grid, np.frombuffer(raw, dtype=_DTYPE).reshape(shape))
