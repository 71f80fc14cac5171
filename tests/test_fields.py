"""Grid geometry, stencils, mollification, and field I/O."""

import base64
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugerec import (
    BoundaryTrace,
    Grid,
    NonFiniteData,
    ScalarField,
    SymTensorField,
    VectorField,
    build_ratios,
    divergence,
    divergence_tensor,
    grad_values,
    gradient,
    hess_values,
    hessian,
    load_field,
    mollify,
    save_field,
    square_grid,
    synthesize,
)
from gaugerec.cli import main as cli_main
from gaugerec.fields import _derivatives, unpack_sym
from gaugerec.gauge import _gradient_operator
from gaugerec.harness import PRESETS


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
    assert (~g.boundary_mask).sum() == 15 * 31
    assert g.points.shape == (17, 33, 2)
    assert g.boundary_points.shape == (g.boundary_flat.size, 2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((5, 33), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        Grid((17, 17), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        ScalarField(grid2(), np.zeros((32, 33)))


def test_non_finite_values_name_their_nodes(tmp_path, capsys):
    g = grid2(9)
    vals = np.zeros(g.shape + (2,), dtype=complex)
    vals[2, 5, 1] = np.nan
    vals[7, 0, 0] = complex(0.0, np.inf)
    with pytest.raises(NonFiniteData, match="vector field contains non-finite values") as info:
        VectorField(g, vals)
    assert info.value.nodes.tolist() == [[2, 5], [7, 0]]
    with pytest.raises(ValueError):  # still a ValueError for existing callers
        ScalarField(g, vals[..., 1])
    # noise that overflows reaches the CLI as the typed error, not a traceback
    cfg = tmp_path / "rt.json"
    cfg.write_text(json.dumps({"mode": "roundtrip", "preset": "smooth-complex-2d",
                               "grids": [17], "noise": [1e308]}))
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert cli_main(["roundtrip", "--config", str(cfg)]) == 1
    assert re.fullmatch(r"error: NonFiniteData: scalar field contains non-finite values "
                        r"\(\d+ node\(s\), first at \(\d+, \d+\)\)\n",
                        capsys.readouterr().err)


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
    # 2D: x^3 + xy + y^2/2; 3D: x^3 + xy + z^2/2 + xyz, whose mixed
    # derivatives differentiate stored first derivatives on a stacked lead
    # axis.  The 3D pin sits above the 4.7e-13 read at 13^3 (0 at 9^3).
    cases = [
        (grid2(33), lambda x, y: x**3 + x * y + 0.5 * y**2,
         lambda x, y: [[6 * x, 1.0], [1.0, 1.0]], 1e-10),
        (square_grid(13, 3), lambda x, y, z: x**3 + x * y + 0.5 * z**2 + x * y * z,
         lambda x, y, z: [[6 * x, 1 + z, y], [1 + z, 0.0, x], [y, x, 1.0]], 1e-12),
    ]
    for g, f, exact, pin in cases:
        H = hessian(ScalarField(g, f(*g.meshes))).as_matrix()
        truth = exact(*g.meshes)
        for i in range(g.dim):
            for j in range(g.dim):
                assert np.abs(H[..., i, j] - truth[i][j]).max() < pin, (g.dim, i, j)
                assert np.array_equal(H[..., i, j], H[..., j, i])


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
# One stencil contract: the engine's ratio bundle and the sparse gradient
# operator of the gauge routes differentiate exactly as the field wrappers.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, m", [("smooth-complex-2d", 33), ("constant-tensor-3d", 9)])
def test_ratio_derivatives_are_the_field_stencils_bit_for_bit(name, m):
    preset = PRESETS[name]
    g = square_grid(m, preset.dim)
    rb = build_ratios(synthesize(preset.coefficients(g), preset.illumination(g)))
    members = [(rb.u1, rb.grad_u1, rb.hess_u1), *zip(rb.v, rb.grad_v, rb.hess_v)]
    assert len(members) == len(preset.illumination(g).traces)
    for vals, grad, hess in members:
        f = ScalarField(g, vals)
        assert grad_values(f.values, g.spacing).tobytes() == grad.tobytes()
        assert unpack_sym(hess_values(f.values, g.spacing), g.dim).tobytes() == hess.tobytes()


@pytest.mark.parametrize("g", [Grid((17, 33), ((0.0, 1.0), (-1.0, 2.0))),
                               Grid((9, 11, 13), ((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)))],
                         ids=["2d", "3d"])
def test_the_sparse_gradient_operator_is_the_field_stencil(g):
    x = g.meshes
    phi = np.exp(1j * sum((k + 1) * xk for k, xk in enumerate(x))) * (1.0 + x[0] * x[-1] ** 2)
    want = grad_values(phi, g.spacing)
    got = np.moveaxis((_gradient_operator(g) @ phi.reshape(-1)).reshape((g.dim,) + g.shape), 0, -1)
    err = np.abs(got - want).max(axis=-1) / np.abs(want).max()
    assert err.max() < 1e-12
    assert g.boundary_mask.any() and err[g.boundary_mask].max() < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: grad_values(np.ones((9, 9)), (0.1,)), r"1 spacing\(s\) for 2 grid axes"),
    (lambda: hess_values(np.ones((9, 9, 9)), (0.1, 0.1)), r"2 spacing\(s\) for 3 grid axes"),
    (lambda: hess_values(np.ones((3, 9)), (0.1, 0.1)), "axis 0: .* at least 4 nodes, got 3"),
    (lambda: grad_values(np.ones((9, 2)), (0.1, 0.1)), "axis 1: .* at least 4 nodes, got 2"),
    (lambda: _derivatives(np.ones((5, 9, 9)), (0.1,) * 3, lead=1),
     r"3 spacing\(s\) for 2 grid axes"),
    (lambda: _derivatives(np.ones((5, 9, 3)), (0.1, 0.1), lead=1),
     "axis 1: .* at least 4 nodes, got 3"),
], ids=["grad-short-spacing", "hess-short-spacing", "hess-3-nodes", "grad-2-nodes",
        "stacked-long-spacing", "stacked-3-nodes"])
def test_stencils_refuse_a_wrong_spacing_or_a_short_axis(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_stencils_accept_four_nodes_per_axis():
    g, h = _derivatives(np.ones((2, 4, 4)), (0.1, 0.1), lead=1)
    assert g.shape == (2, 4, 4, 2) and h.shape == (2, 4, 4, 2, 2)
    assert not h.any() and not hess_values(np.ones((4, 4)), (0.1, 0.1)).any()


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

def test_mollify_width_zero_is_identity():
    g = grid2(17)
    f = ScalarField(g, np.sin(3 * g.meshes[0]))
    assert mollify(f, 0.0) is f


@pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, -1.0])
def test_mollify_refuses_a_negative_or_non_finite_width(width):
    g = grid2(17)
    with pytest.raises(ValueError, match="width must be finite and nonnegative"):
        mollify(ScalarField(g, np.sin(3 * g.meshes[0])), width)


def test_mollify_smooths_noise():
    g = grid2(65)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(g.shape)
    out = mollify(ScalarField(g, noise), 2.0)
    assert np.abs(out.values).max() < 0.6 * np.abs(noise).max()


def test_mollify_wider_than_the_grid_reads_the_grid_mean():
    # the kernel stops at the longest axis: a 1e9 width takes a 17-entry
    # kernel on 9^2, not one of 8e9 entries
    g = grid2(9)
    f = ScalarField(g, np.cos(3 * g.meshes[0]) + 1j * g.meshes[1] ** 2)
    tracemalloc.start()
    try:
        out = mollify(f, 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mean = f.values.mean()
    assert np.abs(out.values - mean).max() <= 1e-12 * np.abs(mean)
    assert peak < 1e6


@pytest.mark.parametrize("width", [0.3, 2.0, 4.0])
def test_mollify_keeps_the_four_sigma_kernel_up_to_its_cut(width):
    # widths up to (m - 1)/4 = 4 on 17^2 filter bit for bit as scipy's own
    # 4-sigma truncation
    from scipy.ndimage import gaussian_filter

    g = grid2(17)
    f = ScalarField(g, np.sin(3 * g.meshes[0]) * np.exp(1j * g.meshes[1]))
    kw = dict(sigma=width, mode="constant", cval=0.0, truncate=4.0)
    ref = (gaussian_filter(f.values.real, **kw) + 1j * gaussian_filter(f.values.imag, **kw)) \
        / gaussian_filter(np.ones(g.shape), **kw)
    assert np.array_equal(mollify(f, width).values, ref)


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


def _nan_value(doc):
    z = np.frombuffer(base64.b64decode(doc["values"]), dtype="<c16").copy()
    z[40] = np.nan
    doc["values"] = base64.b64encode(z.tobytes()).decode()


def _drop_last_value(doc):
    doc["values"] = base64.b64encode(base64.b64decode(doc["values"])[:-16]).decode()


def test_load_refuses_an_archive_nested_past_the_json_reader(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_field(path)
    cfg = tmp_path / "rec.json"
    cfg.write_text(json.dumps({"mode": "reconstruct", "inputs": [str(path)]}))
    assert cli_main(["reconstruct", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: inputs[0]: cannot read the field archive")


def _drop(*keys):
    def tamper(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return tamper


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: [doc], "the archive must be a JSON object, got list"),
    (_drop("values"), "the archive has no 'values'"),
    (_drop("kind"), "the archive has no 'kind'"),
    (_drop("grid", "extent"), "'grid' has no 'extent'"),
    (lambda doc: doc.update(grid=[doc["grid"]]), "'grid' must be a JSON object, got list"),
    (lambda doc: doc.update(grid=None), "'grid' must be a JSON object, got NoneType"),
    (lambda doc: doc["grid"].update(extent=1), "'grid' is invalid"),
    (lambda doc: doc["grid"].update(extent=[[0, 10 ** 400], [0, 1]]), "'grid' is invalid"),
    (lambda doc: doc.update(kind=["scalar"]), "unknown field kind"),
    (_old_text_values, "predates the binary payload"),
    (lambda doc: doc.update(dtype="<c8"), "'dtype' must be '<c16'"),
    # characters outside the alphabet that a lenient decoder would skip
    (lambda doc: doc.update(values="****" + doc["values"]), "'values' is not base64"),
    (_drop_last_value, "'values' holds 1280 bytes"),
    (lambda doc: doc.update(kind="symtensor"), "'values' holds 1296 bytes"),
    (lambda doc: doc["grid"].update(shape=[2**40, 2**40]), "'values' holds 1296 bytes"),
    (_nan_value, r"non-finite values \(1 node\(s\), first at \(4, 4\)\)"),
], ids=["json-list", "no-values", "no-kind", "no-extent", "list-grid", "null-grid",
        "number-extent", "extent-overflows-a-float", "list-kind",
        "old-text-format", "dtype-c8", "not-base64", "one-value-short",
        "scalar-relabelled-symtensor", "huge-shape", "non-finite-value"])
def test_load_refuses_malformed_archives(tmp_path, capsys, tamper, message):
    g = grid2(9)
    path = tmp_path / "u.json"
    save_field(ScalarField(g, g.meshes[0] + 1j * g.meshes[1]), path)
    doc = json.loads(path.read_text())
    doc = tamper(doc) or doc  # a tamper that returns a document replaces it
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
