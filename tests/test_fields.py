"""Grid geometry, stencils, mollification, and field I/O."""

import base64
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugerec import (
    BoundaryTrace,
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    divergence,
    divergence_tensor,
    gradient,
    hessian,
    load_field,
    mollify,
    save_field,
    square_grid,
)
from gaugerec.cli import main as cli_main


def grid2(n=33):
    return square_grid(n)


# ---------------------------------------------------------------------------
# Grid geometry
# ---------------------------------------------------------------------------

def test_grid_geometry():
    g = Grid((17, 33), ((0.0, 1.0), (-1.0, 1.0)))
    assert g.dim == 2
    assert g.num_nodes == 17 * 33
    assert g.spacing == pytest.approx((1.0 / 16, 2.0 / 32))
    assert g.axes[0][0] == 0.0 and g.axes[0][-1] == 1.0
    assert g.axes[1][0] == -1.0 and g.axes[1][-1] == 1.0
    assert g.diameter == pytest.approx(np.sqrt(1.0 + 4.0))
    # boundary nodes of a rectangle: full perimeter, counted once
    assert g.boundary_flat.size == 17 * 33 - 15 * 31
    assert g.interior_mask.sum() == 15 * 31
    assert g.points.shape == (17, 33, 2)
    assert g.boundary_points.shape == (g.boundary_flat.size, 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((5, 33), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        Grid((17, 17), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ScalarField(grid2(), np.zeros((32, 33)))


@pytest.mark.parametrize("shape, extent, message", [
    ((9.5, 9), ((0.0, 1.0), (0.0, 1.0)), "axis 0: node count 9.5 is not an integer"),
    ((9, 9.0), ((0.0, 1.0), (0.0, 1.0)), "axis 1: node count 9.0 is not an integer"),
    ((9, 9), ((0.0, np.inf), (0.0, 1.0)), "axis 0: extent .* is not finite"),
    ((9, 9), ((0.0, 1.0), (np.nan, 1.0)), "axis 1: extent .* is not finite"),
    ((9, 9), ((-1e308, 1e308), (0.0, 1.0)), "axis 0: .* spacing that is not finite"),
], ids=["fractional-count", "float-count", "infinite-bound", "nan-bound",
        "infinite-spacing"])
def test_grid_refuses_fractional_counts_and_infinite_extents(tmp_path, shape, extent,
                                                             message):
    with pytest.raises(ValueError, match=message):
        Grid(shape, extent)
    # an archive header reaches the same check
    path = tmp_path / "u.json"
    save_field(ScalarField(grid2(9), np.zeros((9, 9))), path)
    doc = json.loads(path.read_text())
    doc["grid"] = {"shape": list(shape), "extent": [list(e) for e in extent]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_field(path)


def test_on_boundary_gathers_boundary_nodes_and_keeps_component_axes():
    g = Grid((17, 33), ((0.0, 1.0), (-1.0, 1.0)))
    x1, x2 = g.meshes
    f = (x1 + 2.0 * x2 * x1).astype(complex)
    assert np.array_equal(g.on_boundary(f), BoundaryTrace.from_node_values(g, f).values)
    packed = SymTensorField.from_matrix(
        g, np.einsum("...,ij->...ij", 1.0 + x1 * x2, [[1.0, 0.5], [0.5, 2.0]]))
    got = g.on_boundary(packed.values)
    assert got.shape == (g.boundary_flat.size, 3)
    for p in range(3):
        assert np.array_equal(got[:, p], g.on_boundary(packed.values[..., p]))
    with pytest.raises(ValueError):
        g.on_boundary(f.T)


def test_subgrid_window():
    g = grid2(33)
    window = (slice(4, 21), slice(8, 33))
    sub = g.subgrid(window)
    assert sub.shape == (17, 25)
    assert sub.spacing == g.spacing
    assert np.allclose(sub.axes[0], g.axes[0][4:21])
    f = ScalarField(g, g.meshes[0] * g.meshes[1])
    assert np.array_equal(f.crop(window).values, f.values[window])


# ---------------------------------------------------------------------------
# Stencil exactness.  First differences (edge_order=2) are exact on
# quadratics; on cubics the interior truncation error is exactly h^2 f'''/6.
# The pure second-derivative stencil is exact on cubics, boundary rows
# included.
# ---------------------------------------------------------------------------

def test_gradient_exact_on_quadratic_second_order_on_cubic():
    g = grid2(33)
    x1, x2 = g.meshes
    f = ScalarField(g, x1**2 - 2 * x1 * x2 + x2)
    df = gradient(f).values
    assert np.abs(df[..., 0] - (2 * x1 - 2 * x2)).max() < 1e-12
    assert np.abs(df[..., 1] - (-2 * x1 + 1)).max() < 1e-12
    h = g.spacing[0]
    cubic = ScalarField(g, x1**3)
    err = np.abs(gradient(cubic).values[..., 0] - 3 * x1**2).max()
    assert err <= 2 * h**2 + 1e-12


def test_hessian_exact_and_symmetric():
    g = grid2(33)
    x1, x2 = g.meshes
    f = ScalarField(g, x1**3 + x1 * x2 + 0.5 * x2**2)
    H = hessian(f).as_matrix()
    assert np.abs(H[..., 0, 0] - 6 * x1).max() < 1e-10
    assert np.abs(H[..., 0, 1] - 1.0).max() < 1e-10
    assert np.abs(H[..., 1, 1] - 1.0).max() < 1e-10
    assert np.array_equal(H[..., 0, 1], H[..., 1, 0])


def test_divergence_exact_on_quadratic():
    g = grid2(33)
    x1, x2 = g.meshes
    v = VectorField(g, np.stack([x1 * x2, x1 - x2**2], axis=-1))
    dv = divergence(v).values
    assert np.abs(dv - (x2 - 2 * x2)).max() < 1e-12


def test_divergence_tensor_matches_columnwise():
    g = grid2(33)
    x1, x2 = g.meshes
    mat = np.zeros(g.shape + (2, 2))
    mat[..., 0, 0] = x1**2
    mat[..., 0, 1] = x1 * x2
    mat[..., 1, 0] = x1 * x2
    mat[..., 1, 1] = x2
    a = SymTensorField.from_matrix(g, mat)
    da = divergence_tensor(a).values
    assert np.abs(da[..., 0] - (2 * x1 + x1)).max() < 1e-12
    assert np.abs(da[..., 1] - (x2 + 1)).max() < 1e-12


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

def test_mollify_width_zero_is_identity():
    g = grid2(17)
    f = ScalarField(g, np.sin(3 * g.meshes[0]))
    assert mollify(f, 0.0) is f


def test_mollify_smooths_noise():
    g = grid2(65)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(g.shape)
    out = mollify(ScalarField(g, noise), 2.0)
    assert np.abs(out.values).max() < 0.6 * np.abs(noise).max()


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_mollify_reproduces_constants(width, level):
    g = grid2(17)
    out = mollify(ScalarField(g, np.full(g.shape, level)), width)
    assert np.abs(out.values - level).max() < 1e-12 * max(1.0, abs(level))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                min_size=6, max_size=6))
def test_gradient_exact_on_random_quadratics(coef):
    p, q, r, s, t, w = coef
    g = grid2(17)
    x1, x2 = g.meshes
    f = ScalarField(g, p * x1**2 + q * x1 * x2 + r * x2**2 + s * x1 + t * x2 + w)
    df = gradient(f).values
    assert np.abs(df[..., 0] - (2 * p * x1 + q * x2 + s)).max() < 1e-11
    assert np.abs(df[..., 1] - (q * x1 + 2 * r * x2 + t)).max() < 1e-11


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    g = grid2(17)
    x1, x2 = g.meshes
    cases = [
        ScalarField(g, x1 + 1j * x2),
        VectorField(g, np.stack([x1, -x2], axis=-1).astype(complex)),
        SymTensorField.from_matrix(
            g, np.einsum("..., ij -> ...ij", 1 + x1 * x2, np.eye(2)) + 0j),
    ]
    for f in cases:
        path = tmp_path / f"{f.kind}.json"
        save_field(f, path)
        back = load_field(path)
        assert type(back) is type(f)
        assert back.grid.shape == g.shape
        assert np.array_equal(back.values, f.values)


def test_save_preserves_full_precision(tmp_path):
    g = grid2(9)
    val = 0.1234567890123456789 + 1e-17
    f = ScalarField(g, np.full(g.shape, val, dtype=complex))
    path = tmp_path / "f.json"
    save_field(f, path)
    assert load_field(path).values[0, 0] == f.values[0, 0]


def test_save_writes_the_documented_payload_byte_for_byte(tmp_path):
    """The archive is json.dumps of the documented header, the values the
    base64 text of each entry's little-endian (re, im) float64 pair in C
    order, components fastest; signed zeros, subnormals and very large and
    very small magnitudes included, and every value reads back bit for bit."""
    g = Grid((10, 9), ((0.0, 1.0), (-1.0, 2.5)))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape + (2, 2)) + 1j * rng.standard_normal(g.shape + (2, 2))
    vals = (vals + np.swapaxes(vals, -1, -2)).reshape(-1)
    vals[:5] = [-0.0 + 0j, 5e-324 - 0.0j, -1e-310 + 1j, 1e300 - 1e-300j, 0.1 + 0.2j]
    for f in (ScalarField(g, vals[:90].reshape(g.shape)),
              SymTensorField.from_matrix(g, vals.reshape(g.shape + (2, 2)))):
        path = tmp_path / f"{f.kind}.json"
        save_field(f, path)
        raw = b"".join(struct.pack("<dd", float(z.real), float(z.imag))
                       for z in f.values.ravel())
        payload = {
            "grid": {"shape": [10, 9], "extent": [[0.0, 1.0], [-1.0, 2.5]]},
            "kind": f.kind,
            "dtype": "<c16",
            "values": base64.b64encode(raw).decode("ascii"),
        }
        assert path.read_bytes() == json.dumps(payload).encode()
        back = load_field(path)
        assert type(back) is type(f) and back.grid == g
        assert back.values.tobytes() == f.values.tobytes()


def test_load_rejects_tampered_kind(tmp_path):
    g = grid2(9)
    path = tmp_path / "f.json"
    save_field(ScalarField(g, np.zeros(g.shape)), path)
    doc = json.loads(path.read_text())
    doc["kind"] = "no-such-kind"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_field(path)


def _old_text_values(doc):
    """The archive as the earlier text format wrote it: a list of [re, im]
    pairs and no dtype."""
    del doc["dtype"]
    z = np.frombuffer(base64.b64decode(doc["values"]), dtype="<c16")
    doc["values"] = [[float(v.real), float(v.imag)] for v in z]


def _drop_last_value(doc):
    doc["values"] = base64.b64encode(base64.b64decode(doc["values"])[:-16]).decode()


@pytest.mark.parametrize("tamper, message", [
    (_old_text_values, "predates the binary payload"),
    (lambda doc: doc.update(dtype="<c8"), "'dtype' must be '<c16'"),
    # characters outside the alphabet that a lenient decoder would skip
    (lambda doc: doc.update(values="****" + doc["values"]), "'values' is not base64"),
    (_drop_last_value, "'values' holds 1280 bytes"),
    (lambda doc: doc.update(kind="symtensor"), "'values' holds 1296 bytes"),
    (lambda doc: doc["grid"].update(shape=[2**40, 2**40]), "'values' holds 1296 bytes"),
], ids=["old-text-format", "dtype-c8", "not-base64", "one-value-short",
        "scalar-relabelled-symtensor", "huge-shape"])
def test_load_refuses_malformed_archives(tmp_path, capsys, tamper, message):
    g = grid2(9)
    path = tmp_path / "u.json"
    save_field(ScalarField(g, g.meshes[0] + 1j * g.meshes[1]), path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # refused from the header, never sized by it
    cfg = tmp_path / "rec.json"
    cfg.write_text(json.dumps({"mode": "reconstruct", "inputs": [str(path)]}))
    assert cli_main(["reconstruct", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: inputs[0]: cannot read the field archive")
