"""The output comparison of ``tools/same_outputs.py``, bitwise and with rtol."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_difference_with_and_without_rtol():
    tool = load_tool()
    a = np.array([1.0, np.nan, -np.inf, 4.0])
    z = np.array([1.0 + 1j, -2j])
    out = {"x": [a, 0.5, (3, "box")], "ok": np.array([True, False]), "z": z}

    def moved(**change):
        b = {"x": [a * (1 + 1e-14), 0.5 * (1 + 1e-14), (3, "box")],
             "ok": np.array([True, False]), "z": z * (1 - 1e-14)}
        for key, value in change.items():
            b[key] = value
        return b

    assert tool.first_difference(out, out) is None
    assert tool.first_difference(out, moved()) == "item.x[0]: values"
    assert tool.first_difference(out, moved(), rtol=1e-13) is None
    assert tool.first_difference(out, moved(), rtol=1e-15).startswith(
        "item.x[0]: relative difference")
    rel, where, diff, scale = tool.largest_difference(out, moved())
    assert 1e-15 < rel < 2e-14
    assert where.startswith("item.") and diff == rel * scale

    # each relative figure comes with the leaf's absolute ones, so a
    # roundoff-sized leaf reads as such: 1e-16 on entries near 2e-16
    tiny = {"r": np.array([2e-16, 1e-16])}
    assert tool.first_difference(tiny, {"r": tiny["r"] + 1e-16}, rtol=1e-13) == \
        "item.r: relative difference 0.5 (max|a - b| 1e-16, max|a| 2e-16) above 1e-13"
    assert tool.largest_difference(tiny, {"r": tiny["r"] + 1e-16}) == \
        (0.5, "item.r", 1e-16, 2e-16)

    # an eq_residual leaf is already relative to its equation's terms, so it
    # is judged by max|a - b| alone: 1e-16 on a 4e-16 map passes
    res = {"class": ({"eq_residual": np.array([4e-16, 1e-16, np.nan])},)}

    def res_moved(step, nan=np.nan):
        return {"class": ({"eq_residual": np.array([4e-16 + step, 1e-16, nan])},)}

    assert tool.first_difference(res, res_moved(1e-16)) == "item.class[0].eq_residual: values"
    assert tool.first_difference(res, res_moved(1e-16), rtol=1e-13) is None
    assert tool.first_difference(res, res_moved(1e-12), rtol=1e-13) == (
        "item.class[0].eq_residual: max|a - b| above 1e-13: relative difference "
        "2.5e+03 (max|a - b| 1e-12, max|a| 4e-16)")
    assert tool.first_difference(res, res_moved(0.0, nan=np.inf), rtol=1.0).endswith(
        "(non-finite entries differ)")

    # non-finite entries must match in place and value
    b = moved()
    b["x"][0] = a.copy()
    b["x"][0][1] = np.inf
    assert tool.first_difference(out, b, rtol=1.0) == \
        "item.x[0]: relative difference inf (non-finite entries differ) above 1"
    # every other leaf stays exact
    for key, value in (("x", [a, 0.5, (4, "box")]), ("ok", np.array([True, True]))):
        assert tool.first_difference(out, moved(**{key: value}), rtol=1.0)
    assert tool.first_difference({"x": 1}, {"y": 1}) == "item.x: only in A"
    # bytes differ by length and offset, not by their full text
    assert tool.first_difference({"b": b"abc" * 1000}, {"b": b"abd"}) == \
        "item.b: 3000 vs 3 bytes, first difference at byte 2"
