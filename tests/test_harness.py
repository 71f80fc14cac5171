"""Experiment harness: configs, noise, reports, manifests, CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

from gaugerec import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    ScalarField,
    add_noise,
    harmonic_family,
    noise_realization,
    run,
    square_grid,
    triple_errors,
    unit_truth,
    write_manifest,
)
from gaugerec import harness
from gaugerec.cli import main as cli_main
from gaugerec.harness import MODES, observed_orders
from gaugerec.recon import ClassRepresentative
from gaugerec.fields import SymTensorField, VectorField


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_fields_with_located_messages():
    with pytest.raises(ConfigError, match="^mode"):
        ExperimentConfig.from_dict({"mode": "explode"})
    with pytest.raises(ConfigError, match="^preset"):
        ExperimentConfig.from_dict({"mode": "roundtrip", "preset": "nope"})
    with pytest.raises(ConfigError, match=r"grids\[0\]"):
        ExperimentConfig.from_dict(
            {"mode": "roundtrip", "preset": "identity-2d", "grids": [5]})
    with pytest.raises(ConfigError, match="dyadically"):
        ExperimentConfig.from_dict(
            {"mode": "roundtrip", "preset": "identity-2d", "grids": [33, 66]})
    with pytest.raises(ConfigError, match=r"noise\[1\]"):
        ExperimentConfig.from_dict(
            {"mode": "roundtrip", "preset": "identity-2d", "noise": [0.0, -1.0]})
    with pytest.raises(ConfigError, match="engine.warp"):
        ExperimentConfig.from_dict(
            {"mode": "roundtrip", "preset": "identity-2d", "engine": {"warp": 9}})
    with pytest.raises(ConfigError, match="inputs"):
        ExperimentConfig.from_dict({"mode": "reconstruct"})


def test_config_rejects_removed_engine_options():
    # the admissibility thresholds are engine constants, not options
    for key, value in (("halo", 3), ("pairing", "bilinear"), ("u1_floor_rel", 1e-3),
                       ("cond_max", 1e6), ("indep_min", 1e-8)):
        with pytest.raises(ConfigError, match=f"^engine.{key}: unknown engine option"):
            ExperimentConfig.from_dict({"mode": "roundtrip", "preset": "identity-2d",
                                        "engine": {key: value}})


def test_config_rejects_unknown_top_level_keys():
    # misspelled keys used to fall back silently to grids=[33], noise=[0.0]
    with pytest.raises(ConfigError, match="^grid: unknown option"):
        ExperimentConfig.from_dict({"mode": "roundtrip", "preset": "identity-2d",
                                    "grid": [65], "nosie": [1e-3]})
    for key in ("nosie", "threads"):
        with pytest.raises(ConfigError, match=f"^{key}: unknown option"):
            ExperimentConfig.from_dict({"mode": "roundtrip", "preset": "identity-2d",
                                        key: 1})


def test_config_rejects_an_engine_that_is_not_an_engine_config():
    # from_dict converts the engine object; a dict passed to the constructor
    # used to escape run() as an AttributeError
    cfg = ExperimentConfig(mode="roundtrip", preset="smooth-complex-2d",
                           engine={"patch_size": 17, "overlap": 8})
    with pytest.raises(ConfigError, match="^engine: must be an EngineConfig, got {") as info:
        run(cfg)
    assert info.value.field == "engine"


def test_stability_mode_requires_positive_noise():
    cfg = ExperimentConfig(mode="stability", preset="identity-2d",
                           grids=[17], noise=[0.0])
    with pytest.raises(ConfigError, match="noise"):
        run(cfg)


def test_presets_are_complete():
    expected = {"identity-2d", "smooth-complex-2d", "bzero-2d", "real-2d",
                "constant-tensor-2d", "constant-tensor-3d", "isotropic-c",
                "qpat-demo", "elasto-demo"}
    assert expected <= set(PRESETS)
    for name, preset in PRESETS.items():
        assert preset.name == name
        assert preset.dim in (2, 3)
        assert preset.kind in ("pde", "qpat", "elasto")


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------

def test_add_noise_contract():
    grid = square_grid(33)
    f = ScalarField(grid, (1 + grid.meshes[0]).astype(complex))
    assert add_noise(f, 0.0, seed=1) is f
    g1 = add_noise(f, 1e-3, seed=42)
    g2 = add_noise(f, 1e-3, seed=42)
    assert np.array_equal(g1.values, g2.values)
    g3 = add_noise(f, 1e-3, seed=43)
    assert not np.array_equal(g1.values, g3.values)


def test_add_noise_amplitude_is_relative_to_the_sup():
    grid = square_grid(33)
    f = ScalarField(grid, np.full(grid.shape, 3.0, dtype=complex))
    delta = 1e-2
    sups = []
    for seed in range(100):
        g = add_noise(f, delta, seed=seed)
        sups.append(np.abs(g.values - f.values).max() / (delta * 3.0))
    assert 0.5 < min(sups) and max(sups) < 6.0


def test_real_noise_stays_real():
    grid = square_grid(17)
    f = ScalarField(grid, np.ones(grid.shape, dtype=complex))
    g = add_noise(f, 1e-2, seed=0, real=True)
    assert np.abs(g.values.imag).max() == 0.0
    draw = noise_realization(f, seed=5, real=True)
    assert np.abs(draw.imag).max() == 0.0


# ---------------------------------------------------------------------------
# Truth projection and error accounting
# ---------------------------------------------------------------------------

def test_unit_truth_is_unit_normalized():
    grid = square_grid(17)
    coeffs = PRESETS["smooth-complex-2d"].coefficients(grid)
    a_t, bpda_t, c_t, tau = unit_truth(coeffs)
    pair = np.einsum("...ij,...ij->...", a_t, a_t)
    assert np.abs(pair - 1.0).max() < 1e-12
    assert np.abs(tau[..., None, None] * a_t - coeffs.a.as_matrix()).max() < 1e-12


def test_triple_errors_sees_a_known_perturbation():
    grid = square_grid(17)
    coeffs = PRESETS["identity-2d"].coefficients(grid)
    a_t, bpda_t, c_t, _ = unit_truth(coeffs)
    a_f = SymTensorField.from_matrix(grid, a_t)
    rep = ClassRepresentative(
        grid=grid, a=a_f,
        b_plus_diva=VectorField(grid, bpda_t.copy()),
        c=ScalarField(grid, c_t + 0.01),
        b=VectorField(grid, bpda_t.copy()),
        gauge="unit-frobenius", diagnostics={})
    errs = triple_errors(rep, (a_t, bpda_t, c_t, None))
    scale = np.abs(a_t).max()
    assert errs["a"] == 0.0
    assert errs["c"] == pytest.approx(0.01 / scale)
    assert errs["triple"] == errs["c"]


def test_observed_orders_arithmetic():
    entries = [{"h": 1 / 16, "errors": {"triple": 4e-2}},
               {"h": 1 / 32, "errors": {"triple": 1e-2}},
               {"h": 1 / 64, "errors": {"triple": 2.5e-3}}]
    assert observed_orders(entries) == pytest.approx([2.0, 2.0])


# ---------------------------------------------------------------------------
# Mode runners
# ---------------------------------------------------------------------------

def test_roundtrip_on_the_trivial_preset_hits_roundoff():
    cfg = ExperimentConfig(mode="roundtrip", preset="identity-2d", grids=[17])
    report = run(cfg)
    entry = report.entries[0]
    assert entry["errors"]["triple"] < 1e-8
    assert entry["admissible_patches"] == entry["total_patches"]
    assert report.mode == "roundtrip"


def test_roundtrip_is_second_order_up_to_257():
    """Each part of the triple keeps second order on the finest pair of
    grids, where solver roundoff, if it were large, would show first."""
    cfg = ExperimentConfig(mode="roundtrip", preset="smooth-complex-2d",
                           grids=[129, 257])
    orders = run(cfg).orders["delta=0"]
    for key in ("a", "b_plus_diva", "c"):
        assert orders[key][0] >= 1.8, (key, orders[key])


def override_roundtrip(preset, grids, illumination):
    """Errors and orders of a roundtrip whose illumination comes from the
    config, parsed as the CLI parses it."""
    report = run(ExperimentConfig.from_dict({
        "mode": "roundtrip", "preset": preset, "grids": grids,
        "illumination": illumination}))
    return [e["errors"]["triple"] for e in report.entries], report.orders


# Pins sit about 25% above the measured errors, noted beside each.
def test_cgo_override_converges_at_second_order():
    errors, orders = override_roundtrip(
        "smooth-complex-2d", [33, 65],
        {"family": "cgo", "params": {"k": 4.0, "eps": 0.5}})
    assert errors[0] < 0.14      # 0.112
    assert errors[1] < 0.035     # 0.0278
    assert orders["delta=0"]["triple"][0] >= 1.8  # 2.01


def test_harmonic_override_on_the_isotropic_class():
    errors, _ = override_roundtrip("isotropic-c", [33], {"family": "harmonic"})
    assert errors[0] < 7.1e-3    # 5.62e-3


def test_constant_tensor_override_with_a_config_a0_is_exact():
    errors, _ = override_roundtrip(
        "identity-2d", [33],
        {"family": "constant-tensor", "params": {"a0": [[1, 0], [0, 1]]}})
    assert errors[0] < 1e-10     # 4.1e-12: roundoff of an exact class


@pytest.mark.parametrize("mode", ["qpat", "elasto"])
def test_app_pipelines_are_looked_up_when_the_mode_runs(monkeypatch, mode):
    # a wrapper bound to the harness global is the pipeline the run calls
    calls = []
    name = f"{mode}_reconstruct"
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    run(ExperimentConfig(mode=mode, preset=f"{mode}-demo", grids=[17]))
    assert len(calls) == 1


@pytest.mark.parametrize("mode, preset, grids, noise", [
    ("synthesize", "smooth-complex-2d", [17], [0.0]),
    ("roundtrip", "smooth-complex-2d", [17, 33], [0.0, 1e-4]),
    ("stability", "identity-2d", [17], [1e-4, 1e-3]),
    ("qpat", "qpat-demo", [17], [0.0]),
    ("elasto", "elasto-demo", [17], [0.0]),
])
def test_every_mode_synthesizes_its_preset_once_per_grid(monkeypatch, mode, preset,
                                                         grids, noise):
    # the benchmark's roundoff self-check rebinds forward.synthesize in every
    # module that holds it, so each mode must call the harness global, and
    # with the preset's own model
    models = []
    real = harness.synthesize

    def counted(coeffs, *args, **kwargs):
        models.append(coeffs)
        return real(coeffs, *args, **kwargs)

    monkeypatch.setattr(harness, "synthesize", counted)
    run(ExperimentConfig(mode=mode, preset=preset, grids=grids, noise=noise))
    assert [m.grid.shape[0] for m in models] == grids
    for m in models:
        expected = PRESETS[preset].coefficients(m.grid)
        assert np.array_equal(m.c.values, expected.c.values)
        assert np.array_equal(m.a.values, expected.a.values)


@pytest.mark.parametrize("preset, bounds", [
    ("qpat-demo", (1.17e-2, 3.22e-3)),    # 9.38e-3, 2.58e-3: order 1.86
    ("elasto-demo", (4.56e-3, 1.18e-3)),  # 3.65e-3, 9.42e-4: order 1.95
])
def test_app_presets_roundtrip_converges(preset, bounds):
    # the presets' coefficients lacked the zeroth-order term their data
    # solve, so the triple error stayed near 1, all of it in c
    report = run(ExperimentConfig(mode="roundtrip", preset=preset, grids=[33, 65]))
    errors = [e["errors"]["triple"] for e in report.entries]
    assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
    assert report.orders["delta=0"]["triple"][0] >= 1.8


@pytest.mark.parametrize("mode", ["qpat", "elasto"])
def test_app_modes_smooth_their_data(mode):
    # elasto mode used to ignore noise and mollify_width
    def gamma_error(width):
        cfg = ExperimentConfig(mode=mode, preset=f"{mode}-demo", grids=[33],
                               mollify_width=width)
        return run(cfg).entries[0]["errors"]["gamma"]

    assert gamma_error(1.0) != gamma_error(0.0)


def test_stability_runs_are_deterministic():
    cfg = dict(mode="stability", preset="identity-2d", grids=[17],
               noise=[1e-4, 1e-3], seed=11)
    r1 = run(ExperimentConfig(**cfg))
    r2 = run(ExperimentConfig(**cfg))
    assert r1.stability["errors"] == r2.stability["errors"]
    assert r1.stability["deltas"] == [1e-4, 1e-3]
    assert len(r1.stability["errors"]) == 2


def test_report_serialization(tmp_path):
    cfg = ExperimentConfig(mode="roundtrip", preset="identity-2d", grids=[17],
                           seed=2)
    report = run(cfg)
    path = tmp_path / "report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    assert doc["mode"] == "roundtrip"
    assert doc["seed"] == 2
    assert doc["config"]["preset"] == "identity-2d"
    assert isinstance(doc["entries"][0]["errors"]["triple"], float)
    # round-trips through JSON at full double precision
    assert doc["entries"][0]["errors"]["triple"] == \
        report.entries[0]["errors"]["triple"]


def test_report_json_is_strict(tmp_path):
    # a single noise level leaves the stability slope undefined, and a zero
    # error an observed order: both were written as the non-JSON NaN
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    run(ExperimentConfig(mode="stability", preset="identity-2d", grids=[17],
                         noise=[1e-4]), out_dir=tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
    assert doc["stability"]["slope"] is None
    zero = [{"errors": {"triple": 0.0}, "h": h} for h in (0.1, 0.05)]
    assert harness._jsonify({"orders": observed_orders(zero),
                             "z": complex(1.0, float("inf"))}) == \
        {"orders": [None], "z": [1.0, None]}


def test_manifest_hashes_inputs(tmp_path):
    f1 = tmp_path / "in.json"
    f1.write_text('{"x": 1}')
    out = tmp_path / "res.json"
    out.write_text("{}")
    path = write_manifest(tmp_path, {"mode": "synthesize"}, [str(f1)])
    doc = json.loads(Path(path).read_text())
    assert doc["config"]["mode"] == "synthesize"
    assert doc["package_version"]
    assert doc["numpy_version"]
    first = doc["inputs"][str(f1)]
    assert len(first) == 64  # sha256 hex digest
    f1.write_text('{"x": 2}')
    path = write_manifest(tmp_path, {"mode": "synthesize"}, [str(f1)])
    doc2 = json.loads(Path(path).read_text())
    assert doc2["inputs"][str(f1)] != first
    assert "res.json" in doc2["outputs"]
    assert doc2["outputs"] == sorted(doc2["outputs"])


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_synthesize_then_reconstruct(tmp_path):
    syn_dir = tmp_path / "syn"
    cfg1 = write_config(tmp_path, "syn.json",
                        {"mode": "synthesize", "preset": "identity-2d",
                         "grids": [17]})
    assert cli_main(["synthesize", "--config", cfg1, "--out", str(syn_dir)]) == 0
    solutions = sorted(str(p) for p in syn_dir.glob("solution_*.json"))
    assert len(solutions) == 5
    assert (syn_dir / "manifest.json").exists()

    rec_dir = tmp_path / "rec"
    cfg2 = write_config(tmp_path, "rec.json",
                        {"mode": "reconstruct", "inputs": solutions})
    assert cli_main(["reconstruct", "--config", cfg2, "--out", str(rec_dir)]) == 0
    report = json.loads((rec_dir / "report.json").read_text())
    assert report["mode"] == "reconstruct"
    entry = report["entries"][0]
    assert entry["shape"] == [17, 17]
    assert entry["admissible_patches"] == entry["total_patches"]
    assert (rec_dir / "rep_a.json").exists()
    manifest = json.loads((rec_dir / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == solutions


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _without_timings(obj):
    if isinstance(obj, dict):
        return {k: _without_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_without_timings(v) for v in obj]
    return obj


def test_cli_prints_the_report_without_an_output_directory(tmp_path, capsys):
    doc = {"mode": "roundtrip", "preset": "smooth-complex-2d", "grids": [17]}
    path = write_config(tmp_path, "roundtrip.json", doc)
    assert cli_main(["roundtrip", "--config", path]) == 0
    printed = _strict_json(capsys.readouterr().out)
    report = run(ExperimentConfig.from_dict(doc)).to_dict()
    assert _without_timings(printed) == _without_timings(report)
    assert list(tmp_path.iterdir()) == [tmp_path / "roundtrip.json"]


def test_cli_prints_a_one_level_stability_slope_as_null(tmp_path, capsys):
    path = write_config(tmp_path, "stability.json", {
        "mode": "stability", "preset": "identity-2d", "grids": [17], "noise": [1e-4]})
    assert cli_main(["stability", "--config", path]) == 0
    out = capsys.readouterr().out
    assert '"slope": null' in out
    assert _strict_json(out)["stability"]["slope"] is None


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json",
                       {"mode": "roundtrip", "preset": "missing-preset"})
    assert cli_main(["roundtrip", "--config", bad]) == 1
    err = capsys.readouterr().err
    assert "preset" in err


def test_cli_refuses_a_config_nested_past_the_json_reader(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert cli_main(["roundtrip", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: maximum recursion")


@pytest.mark.parametrize("override, field", [
    ({"grids": 33}, "grids"),
    ({"grids": [33.5]}, "grids[0]"),
    ({"seed": "x"}, "seed"),
    ({"noise": "0.1"}, "noise"),
    ({"real_noise": "false"}, "real_noise"),
    ({"engine": {"cond_max": "big"}}, "engine.cond_max"),
    ({"engine": {"patch_size": 16.5, "overlap": 8}}, "engine.patch_size"),
    ({"engine": {"u1_floor_rel": 0}}, "engine.u1_floor_rel"),
    ({"illumination": {"family": "cgo", "params": {"k": "a"}}},
     "illumination.params.k"),
    ({"illumination": {"family": "cgo", "params": {"eps": 0}}},
     "illumination.params.eps"),
    ({"illumination": {"family": "cgo", "params": {"eps": 1e300}}},
     "illumination.params.eps"),
    ({"grids": [1000000000]}, "grids[0]"),  # refused by its node count, never allocated
    # an illumination entry its family does not read was ignored, and an
    # unknown family, or one the preset cannot build, failed inside the run,
    # after the output directory was made
    ({"illumination": {"family": "harmonic", "params": {"k": 4.0}}},
     "illumination.params.k"),
    ({"illumination": {"params": {"eps": 0.3}}}, "illumination.params.eps"),
    ({"illumination": {"family": "cgo", "params": {"bogus": 1}}},
     "illumination.params.bogus"),
    ({"illumination": {"family": "harmonic", "extra": 1}}, "illumination.extra"),
    ({"illumination": {"family": "nope"}}, "illumination.family"),
    ({"preset": "smooth-complex-2d", "illumination": {"family": "constant-tensor"}},
     "illumination.params.a0"),
])
def test_cli_names_the_field_of_a_mistyped_config_value(tmp_path, capsys,
                                                         override, field):
    doc = {"mode": "roundtrip", "preset": "identity-2d", "grids": [17], **override}
    path = write_config(tmp_path, "bad.json", doc)
    out = tmp_path / "out"
    assert cli_main(["roundtrip", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("preset, largest", [("identity-2d", 1024), ("constant-tensor-3d", 101)])
def test_a_grid_may_have_at_most_max_grid_nodes(preset, largest):
    # 1024^2 = 2^20 and 101^3 <= 2^20 < 102^3
    assert harness.MAX_GRID_NODES == 2 ** 20
    ExperimentConfig(mode="roundtrip", preset=preset, grids=[largest]).validate()
    with pytest.raises(ConfigError, match=r"grids\[0\]: .* exceed the 1048576 a grid may have"):
        ExperimentConfig(mode="roundtrip", preset=preset, grids=[largest + 1]).validate()


@pytest.mark.parametrize("override, argv, field", [
    ({"noise": [1e-4]}, ["--seed", "-1"], "seed"),
    ({"noise": [float("nan")]}, [], "noise[0]"),
    ({"mollify_width": float("nan")}, [], "mollify_width"),
    ({"engine": {"cond_max": float("nan")}}, [], "engine.cond_max"),
], ids=["negative-seed", "nan-noise", "nan-mollify-width", "nan-cond-max"])
def test_cli_refuses_a_negative_seed_and_numbers_that_are_not_finite(
        tmp_path, capsys, override, argv, field):
    # JSON readers accept NaN and Infinity: exit 1 naming the field, not a
    # traceback, a NaN echoed in the report or a coverage failure
    doc = {"mode": "roundtrip", "preset": "smooth-complex-2d", "grids": [17], **override}
    path = write_config(tmp_path, "bad.json", doc)
    assert cli_main(["roundtrip", "--config", path, *argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("mode, doc, field", [
    ("synthesize", {"preset": "identity-2d", "grids": []}, "grids"),
    ("qpat", {"preset": "qpat-demo", "grids": [17], "noise": []}, "noise"),
    ("stability", {"preset": "smooth-complex-2d", "grids": [], "noise": [1e-4]}, "grids"),
    ("roundtrip", {"preset": "identity-2d", "grids": [17], "noise": []}, "noise"),
], ids=["synthesize-grids", "qpat-noise", "stability-grids", "roundtrip-noise"])
def test_cli_refuses_empty_grids_and_noise_lists(tmp_path, capsys, mode, doc, field):
    # an empty list ended in an IndexError traceback, or in a roundtrip
    # report with no entries: exit 1 naming the field
    path = write_config(tmp_path, "bad.json", doc)
    assert cli_main([mode, "--config", path]) == 1
    assert capsys.readouterr().err == f"error: {field}: must not be empty\n"


@pytest.mark.parametrize("mode, doc, field", [
    ("synthesize", {"preset": "identity-2d", "grids": [17, 33]}, "grids"),
    ("stability", {"preset": "identity-2d", "grids": [17, 33], "noise": [1e-4]}, "grids"),
    ("qpat", {"preset": "qpat-demo", "grids": [17], "noise": [0.0, 1e-4]}, "noise"),
    ("elasto", {"preset": "elasto-demo", "grids": [17], "noise": [0.0, 1e-4]}, "noise"),
], ids=["synthesize-grids", "stability-grids", "qpat-noise", "elasto-noise"])
def test_cli_refuses_lists_a_mode_would_truncate(tmp_path, capsys, mode, doc, field):
    # synthesize ran grids[0] only, stability grids[-1] and the app modes
    # noise[0]: exit 1 naming the field
    path = write_config(tmp_path, "bad.json", doc)
    assert cli_main([mode, "--config", path]) == 1
    assert capsys.readouterr().err == \
        f"error: {field}: {mode} mode runs a single entry, got 2\n"


@pytest.mark.parametrize("mode, doc, field", [
    ("synthesize", {"preset": "identity-2d", "grids": [17], "noise": [1e-2]}, "noise"),
    ("synthesize", {"preset": "identity-2d", "grids": [17], "mollify_width": 2.0},
     "mollify_width"),
    ("synthesize", {"preset": "identity-2d", "grids": [17],
                    "engine": {"patch_size": 9, "overlap": 4}}, "engine"),
    ("synthesize", {"preset": "identity-2d", "grids": [17], "inputs": ["u.json"]}, "inputs"),
    ("reconstruct", {"inputs": ["u.json"], "preset": "identity-2d"}, "preset"),
    ("reconstruct", {"inputs": ["u.json"], "grids": [65]}, "grids"),
    ("reconstruct", {"inputs": ["u.json"], "noise": [1e-2]}, "noise"),
    ("reconstruct", {"inputs": ["u.json"], "mollify_width": 2.0}, "mollify_width"),
    ("reconstruct", {"inputs": ["u.json"], "illumination": {"family": "harmonic"}},
     "illumination"),
    ("roundtrip", {"preset": "identity-2d", "grids": [17], "inputs": ["u.json"]}, "inputs"),
    ("qpat", {"preset": "qpat-demo", "grids": [17], "inputs": ["u.json"]}, "inputs"),
    ("elasto", {"preset": "elasto-demo", "grids": [17], "inputs": ["u.json"]}, "inputs"),
    ("stability", {"preset": "identity-2d", "grids": [17], "noise": [1e-4],
                   "inputs": ["u.json"]}, "inputs"),
])
def test_cli_refuses_fields_a_mode_does_not_read(tmp_path, capsys, mode, doc, field):
    # synthesize ignored noise, smoothing and the engine, and reconstruct the
    # preset, grids, noise, smoothing and illumination: exit 1 naming the field
    path = write_config(tmp_path, "bad.json", doc)
    assert cli_main([mode, "--config", path, "--seed", "3"]) == 1
    assert capsys.readouterr().err == f"error: {field}: {mode} mode does not read it\n"


@pytest.mark.parametrize("mode, doc", [
    ("synthesize", {"preset": "identity-2d", "grids": [17], "noise": [0], "mollify_width": 0,
                    "engine": {"patch_size": None, "overlap": 8}, "inputs": []}),
    ("reconstruct", {"inputs": ["u.json"], "preset": None, "grids": (33,), "noise": [0.0],
                     "mollify_width": 0.0, "illumination": {}}),
    ("qpat", {"preset": "qpat-demo", "inputs": ()}),
])
def test_fields_a_mode_does_not_read_pass_at_their_defaults(mode, doc):
    # the seed too, which the CLI's --seed sets for every mode
    cfg = ExperimentConfig.from_dict({"mode": mode, "seed": 3, **doc})
    assert cfg.seed == 3


@pytest.mark.parametrize("mode, grids, noise", [
    ("roundtrip", [17, 33], [0.0, 0.0]),
    ("roundtrip", [17, 33], [1e-4, 0.0, 1.000001e-4]),  # both read 0.0001
    ("stability", [17], [1e-4, 1e-4]),
])
def test_config_refuses_noise_levels_that_read_alike(mode, grids, noise):
    # a level's orders and output files are named by its :g text; the repeat
    # gave orders of [nan, -2.42, nan] under a RuntimeWarning, or a stability
    # slope fitted to one abscissa
    with pytest.raises(ConfigError, match=r"repeats noise\[0\]: both levels read ") as info:
        ExperimentConfig.from_dict({"mode": mode, "preset": "smooth-complex-2d",
                                    "grids": grids, "noise": noise})
    assert info.value.field == f"noise[{len(noise) - 1}]"


@pytest.mark.parametrize("mode, preset, grids, noise, names", [
    ("roundtrip", "smooth-complex-2d", [17, 33], [0.0, 1e-4],
     [f"rep_{part}_33_d{delta}.json" for part in ("a", "bpda", "c")
      for delta in ("0", "0.0001")]),
    ("qpat", "qpat-demo", [17, 33], [0.0], ["qpat_gamma_33.json", "qpat_sigma_33.json"]),
    ("elasto", "elasto-demo", [17], [0.0], ["elasto_gamma_17.json", "elasto_rho_17.json"]),
    ("stability", "identity-2d", [17], [1e-4, 1e-3], []),
])
def test_ladder_modes_write_the_last_grids_outputs_by_name(tmp_path, mode, preset, grids,
                                                          noise, names):
    run(ExperimentConfig(mode=mode, preset=preset, grids=grids, noise=noise),
        out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["report.json"])


def test_app_ladders_report_orders_of_their_errors():
    report = run(ExperimentConfig(mode="qpat", preset="qpat-demo", grids=[17, 33]))
    orders = report.orders["delta=0"]
    assert list(orders) == ["gamma", "sigma"]
    assert all(len(v) == 1 and v[0] > 1.5 for v in orders.values())  # 1.76, 2.98


def archive_without_extent(tmp_path):
    from gaugerec import save_field
    path = tmp_path / "u.json"
    save_field(ScalarField(square_grid(9), np.ones((9, 9), dtype=complex)), path)
    doc = json.loads(path.read_text())
    del doc["grid"]["extent"]
    path.write_text(json.dumps(doc))
    return str(path)


def constant_tensor_a0(a0):
    return {"preset": "identity-2d", "grids": [17],
            "illumination": {"family": "constant-tensor", "params": {"a0": a0}}}


@pytest.mark.parametrize("mode, make_doc, field", [
    ("reconstruct", lambda tmp: {"inputs": [str(tmp / "missing.json")]}, "inputs[0]"),
    ("reconstruct", lambda tmp: {"inputs": [archive_without_extent(tmp)]}, "inputs[0]"),
    ("roundtrip", lambda tmp: constant_tensor_a0([[1, 0, 0], [0, 1, 0]]),
     "illumination.params.a0"),
    ("roundtrip", lambda tmp: constant_tensor_a0("abc"), "illumination.params.a0"),
    ("roundtrip", lambda tmp: {"preset": "identity-2d", "grids": [17], "extent": "x"},
     "extent"),
], ids=["missing-archive", "archive-without-extent", "a0-not-square", "a0-not-numbers",
        "extent-option"])
def test_cli_names_the_field_of_an_unusable_input(tmp_path, capsys, mode, make_doc,
                                                  field):
    # a missing or malformed archive, a malformed a0 and a removed option are
    # user input: exit 1 naming the field, not a traceback
    path = write_config(tmp_path, "bad.json", make_doc(tmp_path))
    assert cli_main([mode, "--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_cli_refuses_fewer_archives_than_the_engine_needs(tmp_path, capsys):
    from gaugerec import save_field
    inputs = []
    for j, f in enumerate(harmonic_family(square_grid(17)).fields()[:2]):
        inputs.append(str(tmp_path / f"u{j}.json"))
        save_field(f, inputs[-1])
    path = write_config(tmp_path, "rec.json", {"mode": "reconstruct", "inputs": inputs})
    assert cli_main(["reconstruct", "--config", path]) == 1
    assert capsys.readouterr().err == \
        "error: inputs: a 2D grid needs at least 5 solution archives, got 2\n"


@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_cli_reports_an_output_directory_it_cannot_write(tmp_path, capsys, out):
    # a file where --out names a directory, or one of its parents, ended in
    # a traceback: exit 1 with the error
    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, "syn.json",
                       {"mode": "synthesize", "preset": "identity-2d", "grids": [17]})
    assert cli_main(["synthesize", "--config", cfg, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: writing outputs: ") and "taken" in err
    assert (tmp_path / "taken").read_text() == ""


def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    path = write_config(tmp_path, "list.json", [1])
    assert cli_main(["roundtrip", "--config", path, "--seed", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: <root>: ")


def test_cli_coverage_failure_writes_partials(tmp_path, strip_fields):
    # data whose first field vanishes on a strip, no redundancy available
    from gaugerec import save_field
    inputs = []
    for j, f in enumerate(strip_fields(square_grid(33), redundant=False)):
        p = tmp_path / f"u{j}.json"
        save_field(f, p)
        inputs.append(str(p))
    cfg = write_config(tmp_path, "rec.json",
                       {"mode": "reconstruct", "inputs": inputs})
    out = tmp_path / "out"
    assert cli_main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    failure = json.loads((out / "coverage_failure.json").read_text())
    assert failure["uncovered_nodes"] > 0
    assert (out / "partial_a.json").exists()


def test_cli_mode_subcommands_cover_all_modes():
    for mode in MODES:
        assert cli_main([mode, "--config", "/nonexistent.json"]) == 1
