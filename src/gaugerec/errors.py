"""Exception taxonomy for the reconstruction toolkit.

Every failure mode that callers are expected to branch on gets its own class.
Exceptions that point at specific grid locations carry a ``nodes`` attribute
with the offending multi-indices so harness code can report or mask them.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

__all__ = [
    "ToolkitError",
    "ConfigError",
    "GridMismatch",
    "NonFiniteData",
    "SingularSystem",
    "EllipticityViolation",
    "VanishingGauge",
    "DegenerateTensor",
    "VanishingU1",
    "FrameDegenerate",
    "MDependent",
    "CoverageFailure",
    "NonIntegrableField",
    "ComplexCoefficients",
    "NonPositiveH1",
]


class ToolkitError(Exception):
    """Base class for all package errors."""


class ConfigError(ToolkitError):
    """Invalid experiment configuration.

    Carries the dotted path of the offending field (e.g.
    ``"illumination.family"``) in ``field``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")

    @classmethod
    def check(cls, field: str, value, types: tuple, what: str):
        """``value`` when it is an instance of ``types``, else a ConfigError
        naming ``field``.  A bool passes only when ``types`` names bool, so
        a JSON true is not taken for a number; a NaN or an infinity never
        passes (JSON readers accept ``NaN`` and ``Infinity``)."""
        if isinstance(value, types) and (bool in types or not isinstance(value, bool)):
            if isinstance(value, Real) and not isinstance(value, Integral) \
                    and not math.isfinite(value):
                raise cls(field, f"must be a finite number, got {value!r}")
            return value
        raise cls(field, f"must be {what}, got {value!r}")


class GridMismatch(ToolkitError, ValueError):
    """Fields that must share a grid differ in shape or extent.

    ``index`` is the position of the first field whose grid differs from the
    grid of field 0.
    """

    def __init__(self, index: int, expected, got):
        self.index = index
        super().__init__(
            f"field {index} lives on shape {got.shape}, extent {got.extent}; "
            f"field 0 on shape {expected.shape}, extent {expected.extent}")


class _NodeError(ToolkitError):
    """Shared plumbing for errors localized at grid nodes."""

    def __init__(self, message: str, nodes=None):
        if nodes is not None:
            nodes = np.atleast_2d(np.asarray(nodes, dtype=np.intp))
            first = tuple(int(i) for i in nodes[0])
            message = f"{message} ({nodes.shape[0]} node(s), first at {first})"
        self.nodes = nodes
        super().__init__(message)


class NonFiniteData(_NodeError, ValueError):
    """A field holds a NaN or an infinity at ``nodes``; a ValueError too, as
    field construction raised one before this type existed."""


class SingularSystem(ToolkitError):
    """Direct solve failed or its residual exceeded tolerance.

    ``trace_index`` is set when the failure came from solving one member of
    an illumination set.
    """

    def __init__(self, message: str, residual: float | None = None, trace_index: int | None = None):
        self.residual = residual
        self.trace_index = trace_index
        if trace_index is not None:
            message = f"illumination {trace_index}: {message}"
        if residual is not None:
            message = f"{message} (relative residual {residual:.3e})"
        super().__init__(message)


class EllipticityViolation(_NodeError):
    """Re(a) fails the two-sided ellipticity bound somewhere on the grid."""


class VanishingGauge(_NodeError):
    """A gauge factor tau vanishes (or dips below the configured floor) at
    ``nodes``."""


class DegenerateTensor(ToolkitError):
    """The reference tensor is null for the bilinear pairing (a0 : a0* = 0)."""


class VanishingU1(_NodeError):
    """The designated first solution vanishes at ``nodes``."""


class FrameDegenerate(_NodeError):
    """The gradient Gram matrix of the frame ratios is too ill conditioned
    at ``nodes``: reason 1 of ``recon._reasons``, a condition number above
    ``recon.COND_MAX`` or not a number (raised by ``reconstruct_class``)."""


class MDependent(_NodeError):
    """The candidate M-matrices fail pointwise linear independence from Id
    at ``nodes``: reason 2 of ``recon._reasons``, an independence below
    ``recon.INDEP_MIN`` or not a number (raised by ``reconstruct_class``
    where no node has reason 1)."""


class CoverageFailure(ToolkitError):
    """No admissible patch covers part of the grid.

    Attributes
    ----------
    uncovered : (k, dim) integer array of node multi-indices left uncovered.
    partial : tuple (representative, patch_map) for the covered region, or
        None when nothing at all was reconstructible.
    """

    def __init__(self, uncovered, partial=None):
        self.uncovered = np.atleast_2d(np.asarray(uncovered, dtype=np.intp))
        self.partial = partial
        super().__init__(
            f"reconstruction does not cover the grid: {self.uncovered.shape[0]} "
            f"node(s) uncovered, first at {tuple(int(i) for i in self.uncovered[0])}"
        )


class NonIntegrableField(ToolkitError):
    """Curl test failed: the target vector field is not a discrete gradient."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (relative curl residual {residual:.3e})"
        super().__init__(message)


class ComplexCoefficients(ToolkitError):
    """An operation restricted to real coefficients received complex input."""


class NonPositiveH1(_NodeError):
    """The first internal-functional datum is not strictly positive."""
