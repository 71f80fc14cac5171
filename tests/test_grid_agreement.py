"""Every entry point that takes a caller's field or trace checks that it lies
on the grid of the rest of its data (``fields.common_grid``)."""

from dataclasses import replace

import numpy as np
import pytest

from gaugerec import (
    BoundaryTrace,
    CoefficientSet,
    DirichletSystem,
    GridMismatch,
    ScalarField,
    SymTensorField,
    elasto_reconstruct,
    gauge_transform,
    qpat_reconstruct,
    recover_tau_b_zero,
    recover_tau_divfree_b,
    recover_tau_known_phi,
    square_grid,
)
from gaugerec.fields import Grid
from gaugerec.harness import PRESETS, ExperimentConfig, _elasto_data, _qpat_data
from gaugerec.recon import ClassRepresentative

GRID = Grid((17, 33), ((0.0, 1.0), (0.0, 1.0)))
WIDE = Grid((17, 33), ((0.0, 1.0), (0.0, 2.0)))  # same shape, other extent
FLIP = Grid((33, 17), ((0.0, 1.0), (0.0, 1.0)))  # same node and boundary counts
WIDE_33 = square_grid(33, extent=((0.0, 1.0), (0.0, 2.0)))


def ones(grid):
    return ScalarField(grid, np.ones(grid.shape))


def ones_trace(grid):
    return BoundaryTrace(grid, np.ones(grid.boundary_flat.size))


def unit_rep(grid):
    """The real, drift-free class (Id / sqrt 2, 0, 0)."""
    cs = CoefficientSet.constant(grid, np.eye(2) / np.sqrt(2))
    return ClassRepresentative(grid, cs.a, cs.b, cs.c, cs.b, gauge="unit-frobenius")


def identity_system(grid):
    return DirichletSystem(CoefficientSet.constant(grid, np.eye(2)))


def app_data(mode):
    """The data of the mode's demo preset at 33^2."""
    build = _qpat_data if mode == "qpat" else _elasto_data
    cfg = ExperimentConfig(mode=mode, preset=f"{mode}-demo")
    return build(cfg, PRESETS[f"{mode}-demo"], square_grid(33))[0]


def qpat_with_wide(name):
    """qpat with the input ``name`` moved to WIDE_33, its values kept."""
    data = app_data("qpat")
    old = getattr(data, name)
    new = (BoundaryTrace(WIDE_33, old.values) if name == "f1"
           else type(old)(WIDE_33, old.values))
    qpat_reconstruct(replace(data, **{name: new}))


def elasto_with_wide_gamma():
    data = app_data("elasto")
    elasto_reconstruct(replace(data, gamma_boundary=SymTensorField(
        WIDE_33, data.gamma_boundary.values)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: qpat_with_wide("gamma_boundary"), id="qpat-gamma_boundary"),
    pytest.param(lambda: qpat_with_wide("sigma_boundary"), id="qpat-sigma_boundary"),
    pytest.param(lambda: qpat_with_wide("f1"), id="qpat-f1"),
    pytest.param(elasto_with_wide_gamma, id="elasto-gamma_boundary"),
    pytest.param(lambda: identity_system(GRID).solve(ones_trace(FLIP)),
                 id="solve-trace"),
    pytest.param(lambda: identity_system(GRID).solve(ones_trace(GRID), source=ones(FLIP)),
                 id="solve-source"),
    pytest.param(lambda: gauge_transform(CoefficientSet.constant(GRID, np.eye(2)),
                                         ones(WIDE)), id="gauge_transform-extent"),
    pytest.param(lambda: gauge_transform(CoefficientSet.constant(GRID, np.eye(2)),
                                         ones(FLIP)), id="gauge_transform-shape"),
    pytest.param(lambda: recover_tau_b_zero(unit_rep(GRID), ones_trace(WIDE)),
                 id="tau_b_zero-anchor"),
    pytest.param(lambda: recover_tau_known_phi(unit_rep(GRID), ones(WIDE), ones_trace(GRID)),
                 id="tau_known_phi-phi"),
    pytest.param(lambda: recover_tau_known_phi(unit_rep(GRID), ones(GRID), ones_trace(WIDE)),
                 id="tau_known_phi-boundary_tau"),
    pytest.param(lambda: recover_tau_divfree_b(unit_rep(GRID), ones_trace(WIDE)),
                 id="tau_divfree_b-boundary_tau"),
])
def test_data_on_another_grid_raise_grid_mismatch(call):
    with pytest.raises(GridMismatch):
        call()
