"""Experiment harness: presets, configuration, noise, sweeps, reports.

Everything the CLI can do lives here so it is scriptable from Python too.
A config selects a mode (synthesize / reconstruct / roundtrip / qpat /
elasto / stability), a preset or input files, a grid ladder, noise levels,
and engine patching; ``run`` executes it deterministically for a given
seed and returns a ReconstructionReport.  Every mode that runs a preset
synthesizes, in ``_synthesize_data`` alone, the equation the preset names.
The roundtrip, qpat, elasto and stability modes are one experiment,
``_run_ladder``: synthesize on each grid, degrade at each noise level,
reconstruct and score against the truth.  The ``_MODES`` table gives each
mode its runner, the config fields it does not read (refused unless at
their defaults) and the list it runs a single entry of.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from ._version import __version__ as _pkg_version
from .apps import ElastoData, QpatData, elasto_reconstruct, qpat_reconstruct
from .errors import ConfigError
from .fields import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    divergence_tensor,
    load_field,
    mollify,
    save_field,
)
from .forward import CoefficientSet, synthesize
from .illum import (
    IlluminationSet,
    cgo_family,
    constant_tensor_family,
    harmonic_family,
    num_solutions,
    plane_wave_family,
)
from .recon import EngineConfig, reconstruct_global, unit_gauge_triple

__all__ = [
    "Preset",
    "PRESETS",
    "ExperimentConfig",
    "ReconstructionReport",
    "add_noise",
    "noise_realization",
    "unit_truth",
    "triple_errors",
    "run",
    "save_representative",
    "square_grid",
    "write_manifest",
]


MAX_GRID_NODES = 2 ** 20  # most nodes a config's grid may have (1024^2, 101^3)


def square_grid(size: int, dim: int = 2, extent=None) -> Grid:
    if extent is None:
        extent = ((0.0, 1.0),) * dim
    return Grid((size,) * dim, tuple(tuple(e) for e in extent))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _bump_values(grid: Grid) -> np.ndarray:
    out = np.ones(grid.shape)
    for k, mesh in enumerate(grid.meshes):
        lo, hi = grid.extent[k]
        out = out * np.sin(np.pi * (mesh - lo) / (hi - lo))
    return out


def _grad_bump_values(grid: Grid) -> np.ndarray:
    """Analytic gradient of the product-of-sines bump."""
    n = grid.dim
    sines = []
    cosines = []
    for k, mesh in enumerate(grid.meshes):
        lo, hi = grid.extent[k]
        t = np.pi * (mesh - lo) / (hi - lo)
        sines.append(np.sin(t))
        cosines.append(np.cos(t) * np.pi / (hi - lo))
    out = np.empty(grid.shape + (n,))
    for i in range(n):
        g = np.ones(grid.shape)
        for k in range(n):
            g = g * (cosines[k] if k == i else sines[k])
        out[..., i] = g
    return out


def _perturbed_tensor_coeffs(grid: Grid, S_re: np.ndarray, S_im: np.ndarray,
                             b_coef: np.ndarray, c_fn) -> CoefficientSet:
    """Id + bump * (S_re + i S_im) with analytic divergence, plus a bump
    drift and a zeroth-order term from ``c_fn(bump)``."""
    n = grid.dim
    bump = _bump_values(grid)
    gbump = _grad_bump_values(grid)
    S = S_re + 1j * S_im
    amat = np.broadcast_to(np.eye(n), grid.shape + (n, n)).astype(np.complex128) \
        + bump[..., None, None] * S
    diva = np.einsum("ij,...j->...i", S, gbump)
    b = bump[..., None] * b_coef
    c = c_fn(bump)
    return CoefficientSet(
        SymTensorField.from_matrix(grid, amat),
        VectorField(grid, b),
        ScalarField(grid, c),
        VectorField(grid, diva),
    )


def _isotropic_gamma(grid: Grid, amp: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    bump = _bump_values(grid)
    return 1.0 + amp * bump, amp * _grad_bump_values(grid)


@dataclass(frozen=True)
class Preset:
    """Named experiment regime: the coefficients of the equation its data solve
    (app presets' c = -sigma or omega^2 rho included), plus a default illumination."""

    name: str
    dim: int
    kind: str
    coefficients: object
    illumination: object
    extras: dict = dc_field(default_factory=dict)


def _p_identity(grid: Grid) -> CoefficientSet:
    return CoefficientSet.constant(grid, np.eye(grid.dim, dtype=np.complex128))


_SR = np.array([[0.6, 0.3], [0.3, -0.4]])
_SI = np.array([[0.5, -0.2], [-0.2, 0.3]])


def _p_smooth_complex(grid: Grid) -> CoefficientSet:
    b_coef = np.array([0.08 + 0.02j, -0.08 + 0.04j])
    return _perturbed_tensor_coeffs(grid, 0.1 * _SR, 0.06 * _SI, b_coef,
                                    lambda bump: (0.08 + 0.06j) * bump)


def _p_bzero(grid: Grid) -> CoefficientSet:
    return _perturbed_tensor_coeffs(grid, 0.2 * _SR, 0.1 * _SI,
                                    np.zeros(2, dtype=np.complex128),
                                    lambda bump: (0.2 + 0.1j) * bump)


def _p_real(grid: Grid) -> CoefficientSet:
    b_coef = np.array([0.08, -0.08], dtype=np.complex128)
    return _perturbed_tensor_coeffs(grid, 0.2 * _SR, np.zeros((2, 2)), b_coef,
                                    lambda bump: 0.1 * bump.astype(np.complex128))


_A0_2D = np.array([[1.0, 0.0], [0.0, 2.0]]) + 0.1j * np.array([[1.0, 1.0], [1.0, 1.0]])
_A0_3D = np.diag([1.0, 1.5, 2.0]) + 0.1j * np.array(
    [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])


def _p_isotropic_c(grid: Grid) -> CoefficientSet:
    """gamma(x) Id with a complex zeroth-order term.

    c vanishes on the boundary so the CGO traces stay second-order
    compatible at the domain corners; constant offsets there would force a
    corner singularity no consistent stencil can resolve.
    """
    n = grid.dim
    gamma, ggrad = _isotropic_gamma(grid)
    amat = gamma[..., None, None] * np.eye(n)
    bump = _bump_values(grid)
    x1 = grid.meshes[0]
    c = ((0.25 + 0.15j) + (0.1 - 0.1j) * x1) * bump
    return CoefficientSet(
        SymTensorField.from_matrix(grid, amat),
        VectorField(grid, np.zeros(grid.shape + (n,))),
        ScalarField(grid, c),
        VectorField(grid, ggrad.astype(np.complex128)),
    )


_SQ = np.array([[1.0, 0.4], [0.4, 0.7]])
_SE = np.array([[0.8, 0.3], [0.3, -0.5]])


_ELASTO_RHO = 1.0 + 0.3j
_ELASTO_OMEGA = 1.0


def _p_qpat(grid: Grid) -> CoefficientSet:
    """div(gamma grad u) = sigma u, sigma = 1 + 0.5 bump: a real, drift-free gamma."""
    return _perturbed_tensor_coeffs(grid, 0.2 * _SQ, np.zeros((2, 2)), np.zeros(2),
                                    lambda bump: -(1.0 + 0.5 * bump).astype(np.complex128))


def _p_elasto(grid: Grid) -> CoefficientSet:
    """div(gamma grad u) + omega^2 rho u = 0: a real, drift-free gamma."""
    c = _ELASTO_OMEGA ** 2 * _ELASTO_RHO
    return _perturbed_tensor_coeffs(grid, 0.2 * _SE, np.zeros((2, 2)), np.zeros(2),
                                    lambda bump: np.full(bump.shape, c))


def _ill_harmonic(grid: Grid) -> IlluminationSet:
    # Not ``harmonic_family`` itself in PRESETS: a dict entry holds the
    # function object, while this call looks the module global up, which
    # bench/spans.py rebinds to time the family.
    return harmonic_family(grid)


def _ill_cgo_isotropic(grid: Grid) -> IlluminationSet:
    gamma, _ = _isotropic_gamma(grid)
    return cgo_family(grid, gamma=ScalarField(grid, gamma))


def _ill_qpat(grid: Grid) -> IlluminationSet:
    # lap(f) = f matches sigma = 1 on the boundary: corner-compatible and
    # strictly positive, as the first trace must be.
    return plane_wave_family(grid, kappa_sq=1.0)


def _ill_elasto(grid: Grid) -> IlluminationSet:
    # lap(f) = -omega^2 rho f at the boundary, where gamma = Id.
    return plane_wave_family(grid, kappa_sq=-(_ELASTO_OMEGA ** 2) * _ELASTO_RHO)


PRESETS: dict[str, Preset] = {
    "identity-2d": Preset("identity-2d", 2, "pde", _p_identity, _ill_harmonic),
    "smooth-complex-2d": Preset("smooth-complex-2d", 2, "pde",
                                _p_smooth_complex, _ill_harmonic),
    "bzero-2d": Preset("bzero-2d", 2, "pde", _p_bzero, _ill_harmonic),
    "real-2d": Preset("real-2d", 2, "pde", _p_real, _ill_harmonic),
    "constant-tensor-2d": Preset(
        "constant-tensor-2d", 2, "pde",
        lambda grid: CoefficientSet.constant(grid, _A0_2D),
        lambda grid: constant_tensor_family(grid, _A0_2D),
        extras={"a0": _A0_2D}),
    "constant-tensor-3d": Preset(
        "constant-tensor-3d", 3, "pde",
        lambda grid: CoefficientSet.constant(grid, _A0_3D),
        lambda grid: constant_tensor_family(grid, _A0_3D),
        extras={"a0": _A0_3D}),
    "isotropic-c": Preset("isotropic-c", 2, "pde", _p_isotropic_c,
                          _ill_cgo_isotropic),
    "qpat-demo": Preset("qpat-demo", 2, "qpat", _p_qpat, _ill_qpat),
    "elasto-demo": Preset("elasto-demo", 2, "elasto", _p_elasto, _ill_elasto,
                          extras={"rho": _ELASTO_RHO, "omega": _ELASTO_OMEGA}),
}


# ---------------------------------------------------------------------------
# Config and report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    mode: str
    preset: str | None = None
    grids: list[int] = dc_field(default_factory=lambda: [33])
    noise: list[float] = dc_field(default_factory=lambda: [0.0])
    mollify_width: float = 0.0
    seed: int = 0
    engine: EngineConfig = dc_field(default_factory=EngineConfig)
    inputs: list[str] = dc_field(default_factory=list)
    illumination: dict = dc_field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        mode = raw.get("mode")
        if mode not in _MODES:
            raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")
        for k in raw:
            if k not in cls.__dataclass_fields__:
                raise ConfigError(k, "unknown option")
        eng_raw = raw.get("engine", {})
        if not isinstance(eng_raw, dict):
            raise ConfigError("engine", "must be an object")
        for k in eng_raw:
            if k not in EngineConfig.__dataclass_fields__:
                raise ConfigError(f"engine.{k}", "unknown engine option")
        return cls(**dict(raw, engine=EngineConfig(**eng_raw))).validate()

    def validate(self) -> "ExperimentConfig":
        if self.mode not in _MODES:
            raise ConfigError("mode", f"must be one of {MODES}")
        _, unread, one_entry = _MODES[self.mode]
        check = ConfigError.check
        check("preset", self.preset, (str, type(None)), "a preset name")
        for key, items, kind, what in (("grids", self.grids, Integral, "an integer"),
                                       ("noise", self.noise, Real, "a number"),
                                       ("inputs", self.inputs, str, "a path")):
            check(key, items, (list, tuple), f"a list, each item {what}")
            if not items and key != "inputs":  # reconstruct mode names its own error
                raise ConfigError(key, "must not be empty")
            for i, x in enumerate(items):
                check(f"{key}[{i}]", x, (kind,), what)
            if len(items) > 1 and key == one_entry:
                raise ConfigError(key, f"{self.mode} mode runs a single entry, got {len(items)}")
        check("mollify_width", self.mollify_width, (Real,), "a number")
        check("seed", self.seed, (Integral,), "an integer")
        check("engine", self.engine, (EngineConfig,), "an EngineConfig")
        check("illumination", self.illumination, (dict,), "an object")
        params = check("illumination.params", self.illumination.get("params", {}),
                       (dict,), "an object")
        if "k" in params:
            check("illumination.params.k", params["k"], (Real, type(None)), "a number")
        if "eps" in params:
            eps = check("illumination.params.eps", params["eps"], (Real,), "a number")
            if not (eps > 0 and math.isfinite(eps * eps)):  # the cgo family damps by eps^2
                raise ConfigError("illumination.params.eps",
                                  "must be positive, with a finite square")
        default = ExperimentConfig(self.mode)
        for key in unread:  # a field at its default value passes
            value = getattr(self, key)
            if (list(value) if isinstance(value, tuple) else value) != getattr(default, key):
                raise ConfigError(key, f"{self.mode} mode does not read it")
        if self.mode == "reconstruct":
            if not self.inputs:
                raise ConfigError("inputs", "reconstruct mode needs field archives")
        elif self.preset is None:
            raise ConfigError("preset", f"{self.mode} mode needs a preset")
        elif self.preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {self.preset!r} "
                                        f"(known: {sorted(PRESETS)})")
        elif self.mode in ("qpat", "elasto") and PRESETS[self.preset].kind != self.mode:
            raise ConfigError("preset", f"{self.mode} mode needs a {self.mode} preset")
        if "a0" in params and self.preset in PRESETS:
            d = PRESETS[self.preset].dim
            try:
                a0 = np.asarray(params["a0"])
                ok = a0.shape == (d, d) and a0.dtype.kind in "iufc"
            except ValueError:  # ragged nesting
                ok = False
            if not ok:
                raise ConfigError("illumination.params.a0",
                                  f"must be a {d}x{d} matrix of numbers, got {params['a0']!r}")
        dim = PRESETS[self.preset].dim if self.preset in PRESETS else 2
        for i, g in enumerate(self.grids):
            if g < 9:
                raise ConfigError(f"grids[{i}]", "grids need at least 9 nodes per axis")
            if int(g) ** dim > MAX_GRID_NODES:  # refused before anything is allocated
                raise ConfigError(f"grids[{i}]", f"{g}^{dim} nodes exceed the "
                                                 f"{MAX_GRID_NODES} a grid may have")
        if self.mode == "roundtrip" and len(self.grids) > 1:
            for a, b in zip(self.grids, self.grids[1:]):
                if b != 2 * a - 1:
                    raise ConfigError("grids", "convergence ladders must be "
                                               "dyadically nested (m -> 2m-1)")
        names = [f"{d:g}" for d in self.noise]  # the key of a level's orders and files
        for i, d in enumerate(self.noise):
            if d < 0:
                raise ConfigError(f"noise[{i}]", "noise levels must be nonnegative")
            if names[i] in names[:i]:
                raise ConfigError(f"noise[{i}]", f"repeats noise[{names.index(names[i])}]: "
                                                 f"both levels read {names[i]}")
        if self.mode == "stability" and not any(d > 0 for d in self.noise):
            raise ConfigError("noise", "stability mode needs positive noise levels")
        if self.mollify_width < 0:
            raise ConfigError("mollify_width", "must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        self.engine.validate()
        return self


@dataclass
class ReconstructionReport:
    mode: str
    preset: str | None
    gauge: str
    seed: int
    entries: list[dict]
    orders: dict
    stability: dict | None
    timings: dict
    config_echo: dict

    def to_dict(self) -> dict:
        return _jsonify({
            "mode": self.mode,
            "preset": self.preset,
            "gauge": self.gauge,
            "seed": self.seed,
            "package_version": _pkg_version,
            "entries": self.entries,
            "orders": self.orders,
            "stability": self.stability,
            "timings": self.timings,
            "config": self.config_echo,
        })

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, allow_nan=False)


def _jsonify(obj):
    """Plain JSON values; a non-finite float becomes None (null)."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return [_jsonify(z.real), _jsonify(z.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def noise_realization(f: ScalarField, seed: int, real: bool = False) -> np.ndarray:
    """Unit Gaussian draw matching f's shape (E|g|^2 = 1), reproducible."""
    rng = np.random.default_rng(seed)
    if real:
        return rng.standard_normal(f.grid.shape).astype(np.complex128)
    return (rng.standard_normal(f.grid.shape)
            + 1j * rng.standard_normal(f.grid.shape)) / np.sqrt(2.0)


def add_noise(f: ScalarField, delta: float, seed: int,
              real: bool = False) -> ScalarField:
    """f + delta * sup|f| * g with a seeded standard Gaussian g."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0:
        return f
    g = noise_realization(f, seed, real=real)
    scale = float(np.abs(f.values).max())
    return ScalarField(f.grid, f.values + delta * scale * g)


# ---------------------------------------------------------------------------
# Truth projection and error metrics
# ---------------------------------------------------------------------------

def unit_truth(coeffs: CoefficientSet):
    """Project an exact coefficient set onto the unit-Frobenius gauge.

    Returns (a_matrix, b_plus_diva, c, scale); the representative of the
    class that ``reconstruct_global`` targets.
    """
    amat = coeffs.a.as_matrix()
    bpda = coeffs.b.values + coeffs.diva.values
    return unit_gauge_triple(amat, bpda, coeffs.c.values)


def triple_errors(rep, truth) -> dict:
    """Relative sup errors of the representative against the unit truth.

    All components are normalized by the largest sup norm in the truth
    triple, so near-zero components do not blow up the ratio.  The drift
    alone is compared against the truth's b + div a minus the discrete
    divergence of the truth's unit tensor, matching how the engine forms it.
    """
    a_t, bpda_t, c_t, _ = truth
    grid = rep.grid
    scale = max(float(np.abs(a_t).max()), float(np.abs(bpda_t).max()),
                float(np.abs(c_t).max()), 1e-300)
    err_a = float(np.abs(rep.a.as_matrix() - a_t).max()) / scale
    err_bpda = float(np.abs(rep.b_plus_diva.values - bpda_t).max()) / scale
    err_c = float(np.abs(rep.c.values - c_t).max()) / scale
    b_ref = bpda_t - divergence_tensor(SymTensorField.from_matrix(grid, a_t)).values
    err_b = float(np.abs(rep.b.values - b_ref).max()) / scale
    return {
        "a": err_a,
        "b_plus_diva": err_bpda,
        "c": err_c,
        "triple": max(err_a, err_bpda, err_c),
        "b": err_b,
        "gauge": rep.gauge,
    }


def observed_orders(entries: list[dict], key: str = "triple") -> list[float]:
    """Convergence orders between consecutive ladder entries."""
    out = []
    for prev, cur in zip(entries, entries[1:]):
        e0, e1 = prev["errors"][key], cur["errors"][key]
        h0, h1 = prev["h"], cur["h"]
        if e0 <= 0 or e1 <= 0:
            out.append(float("nan"))
        else:
            out.append(float(np.log(e0 / e1) / np.log(h0 / h1)))
    return out


# ---------------------------------------------------------------------------
# Mode pipelines
# ---------------------------------------------------------------------------

def _build_illumination(cfg: ExperimentConfig, preset: Preset, grid: Grid) -> IlluminationSet:
    fam = cfg.illumination.get("family")
    params = cfg.illumination.get("params", {})
    if fam is None:
        return preset.illumination(grid)
    if fam == "harmonic":
        return harmonic_family(grid)
    if fam == "constant-tensor":
        a0 = params.get("a0", preset.extras.get("a0"))
        if a0 is None:
            raise ConfigError("illumination.params.a0", "constant-tensor family needs a0")
        return constant_tensor_family(grid, np.asarray(a0, dtype=np.complex128))
    if fam == "cgo":
        return cgo_family(grid, k=params.get("k"), eps=params.get("eps", 0.5))
    raise ConfigError("illumination.family", f"unknown family {fam!r}")


def _synthesize_data(cfg: ExperimentConfig, preset: Preset, grid: Grid
                     ) -> tuple[CoefficientSet, IlluminationSet, list[ScalarField]]:
    """The preset's model, the run's illumination and the solutions on
    ``grid``: where every mode that runs a preset gets its data."""
    coeffs = preset.coefficients(grid)
    ill = _build_illumination(cfg, preset, grid)
    return coeffs, ill, synthesize(coeffs, ill)


def _degrade(data: list[ScalarField], delta: float, cfg: ExperimentConfig
             ) -> list[ScalarField]:
    out = []
    for j, f in enumerate(data):
        g = add_noise(f, delta, cfg.seed + j)
        if cfg.mollify_width > 0:
            g = mollify(g, cfg.mollify_width)
        out.append(g)
    return out


def save_representative(rep, out_dir: Path, stem: str,
                        parts: tuple[str, ...] = ("a", "bpda", "c")) -> None:
    """Write the named parts of a representative ("a", "bpda", "c", "b") to
    ``out_dir / stem.format(part)``."""
    fields = {"a": rep.a, "bpda": rep.b_plus_diva, "c": rep.c, "b": rep.b}
    for part in parts:
        save_field(fields[part], out_dir / stem.format(part))


def _entry(grid: Grid, **figures) -> dict:
    return {"shape": list(grid.shape), "h": max(grid.spacing), **figures}


def _report(cfg: ExperimentConfig, gauge: str, entries: list[dict], t_start: float,
            orders: dict | None = None, stability: dict | None = None
            ) -> ReconstructionReport:
    """The mode's report; its total time runs from ``t_start`` to now."""
    timings = {"total": time.perf_counter() - t_start}
    return ReconstructionReport(cfg.mode, cfg.preset, gauge, cfg.seed, entries,
                                orders or {}, stability, timings, _echo(cfg))


def _run_synthesize(cfg: ExperimentConfig, out_dir: Path | None) -> ReconstructionReport:
    preset = PRESETS[cfg.preset]
    grid = square_grid(cfg.grids[0], preset.dim)
    t0 = time.perf_counter()
    _, _, data = _synthesize_data(cfg, preset, grid)
    entries = [_entry(grid, fields=len(data))]
    outputs = []
    if out_dir is not None:
        for j, f in enumerate(data):
            p = out_dir / f"solution_{j}.json"
            save_field(f, p)
            outputs.append(str(p))
        entries[0]["outputs"] = outputs
    return _report(cfg, "n/a", entries, t0)


def _run_reconstruct(cfg: ExperimentConfig, out_dir: Path | None) -> ReconstructionReport:
    data = []
    for i, path in enumerate(cfg.inputs):
        try:
            f = load_field(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"inputs[{i}]", f"cannot read the field archive {path!r}: "
                                              f"{type(exc).__name__}: {exc}") from exc
        if not isinstance(f, ScalarField):
            raise ConfigError(f"inputs[{i}]", "reconstruct mode expects scalar field archives")
        data.append(f)
    dim = data[0].grid.dim
    if len(data) < num_solutions(dim):
        raise ConfigError("inputs", f"a {dim}D grid needs at least {num_solutions(dim)} "
                                    f"solution archives, got {len(data)}")
    t0 = time.perf_counter()
    rep, patch_map = reconstruct_global(data, cfg.engine)
    entries = [_entry(rep.grid, admissible_patches=int(sum(patch_map.admissible)),
                      total_patches=len(patch_map.admissible), gauge=rep.gauge)]
    if out_dir is not None:
        save_representative(rep, out_dir, "rep_{}.json", ("a", "bpda", "c", "b"))
    return _report(cfg, "unit-frobenius", entries, t0)


def _qpat_data(cfg: ExperimentConfig, preset: Preset, grid: Grid) -> tuple[QpatData, dict]:
    """H_j = sigma u_j of the preset's solutions, its c = -sigma, and the truth."""
    model, ill, u = _synthesize_data(cfg, preset, grid)
    sigma = ScalarField(grid, -model.c.values.real)
    H = [ScalarField(grid, sigma.values * uj.values) for uj in u]
    data = QpatData(H=H, f1=ill.traces[0], gamma_boundary=model.a,
                    sigma_boundary=sigma)
    return data, {"gamma": model.a, "sigma": sigma}


def _elasto_data(cfg: ExperimentConfig, preset: Preset, grid: Grid
                 ) -> tuple[ElastoData, dict]:
    """The preset's solutions as the displacements, and the truth."""
    model, _, u = _synthesize_data(cfg, preset, grid)
    data = ElastoData(H=u, omega=preset.extras["omega"], gamma_boundary=model.a)
    return data, {"gamma": model.a, **preset.extras}


def _sup_error(x: np.ndarray, truth) -> float:
    """max|x - truth| / max|truth|; the truth is a field, an array or a number."""
    t = np.asarray(getattr(truth, "values", truth))
    return float(np.abs(x - t).max()) / max(float(np.abs(t).max()), 1e-300)


def _run_ladder(cfg: ExperimentConfig, out_dir: Path | None) -> ReconstructionReport:
    """The one experiment of the roundtrip, qpat, elasto and stability modes.

    On each grid the preset's solutions are synthesized once and taken as
    the mode's measurements: the solutions, H = sigma u (``_qpat_data``) or
    the displacements (``_elasto_data``).  At each noise level they are
    degraded, reconstructed by the mode's pipeline and scored against the
    truth: the model's unit triple, the pair (gamma, sigma) or (gamma, rho),
    or for stability the delta = 0 reconstruction.  The last grid's outputs
    are written to ``out_dir``; orders are taken per noise level.

    Stability runs its positive levels in increasing order on one seeded
    realization scaled linearly, so the sweep isolates the response to one
    perturbation direction, and fits the slope of log error on log delta.
    """
    mode, preset = cfg.mode, PRESETS[cfg.preset]
    app = mode in ("qpat", "elasto")
    levels = sorted(d for d in cfg.noise if d > 0) if mode == "stability" else cfg.noise

    def reconstruct(data, delta) -> tuple:
        """The mode's outputs from ``data`` degraded at ``delta``, and the
        figures its entry records.  The pipelines are module globals looked
        up per call, which bench/spans.py rebinds to time them."""
        if not app:
            rep, patch_map = reconstruct_global(_degrade(data, delta, cfg), cfg.engine)
            return rep, {"admissible_patches": int(sum(patch_map.admissible)),
                         "total_patches": len(patch_map.admissible)}
        pipeline = qpat_reconstruct if mode == "qpat" else elasto_reconstruct
        gamma, other, report = pipeline(replace(data, H=_degrade(data.H, delta, cfg)),
                                        cfg.engine)
        return {"gamma": gamma, "sigma" if mode == "qpat" else "rho": other}, \
            {"pipeline": report}

    entries = []
    t_total = time.perf_counter()
    for size in cfg.grids:
        grid = square_grid(size, preset.dim)
        t0 = time.perf_counter()
        if app:
            data, truth = (_qpat_data if mode == "qpat" else _elasto_data)(cfg, preset, grid)
        else:
            model, _, data = _synthesize_data(cfg, preset, grid)
            truth = unit_truth(model) if mode == "roundtrip" \
                else (*reconstruct(data, 0.0)[0].triple_arrays(), None)
        t_syn = time.perf_counter() - t0
        for delta in levels:
            t1 = time.perf_counter()
            out, figures = reconstruct(data, delta)
            t_rec = time.perf_counter() - t1
            if app:
                errors = {k: _sup_error(f.values, truth[k]) for k, f in out.items()}
                if mode == "elasto":
                    errors["rho_imag"] = _sup_error(out["rho"].values.imag, truth["rho"].imag)
                errors["gauge"] = "anchored"
            else:
                errors = triple_errors(out, truth)
                if mode == "stability":
                    errors = {"vs_reference": errors["triple"], "gauge": out.gauge}
            entries.append(_entry(grid, delta=delta, errors=errors, **figures,
                                  timings={"synthesize": t_syn, "reconstruct": t_rec}))
            if out_dir is not None and size == cfg.grids[-1]:
                if app:
                    for k, f in out.items():
                        save_field(f, out_dir / f"{mode}_{k}_{size}.json")
                elif mode == "roundtrip":
                    save_representative(out, out_dir, f"rep_{{}}_{size}_d{delta:g}.json")
    keys = [k for k in entries[0]["errors"] if k != "gauge"]
    orders = {f"delta={d:g}": {k: observed_orders(entries[i::len(levels)], k) for k in keys}
              for i, d in enumerate(levels)} if len(cfg.grids) > 1 else {}
    stability = None
    if mode == "stability":
        response = [e["errors"]["vs_reference"] for e in entries]
        slope = float(np.polyfit(np.log(levels), np.log(response), 1)[0]) \
            if len(levels) > 1 else float("nan")
        stability = {"slope": slope, "deltas": levels, "errors": response,
                     "reference": "delta=0 reconstruction, shared realization"}
    return _report(cfg, "anchored" if app else "unit-frobenius", entries, t_total,
                   orders=orders, stability=stability)


def _echo(cfg: ExperimentConfig) -> dict:
    return _jsonify(asdict(cfg))


# mode -> (runner, the config fields it does not read, the list it runs one
# entry of); ``ExperimentConfig.validate`` refuses an unread field that is not
# at its default value, and a longer list than the mode runs
_MODES = {
    "synthesize": (_run_synthesize, ("noise", "mollify_width", "engine", "inputs"), "grids"),
    "reconstruct": (_run_reconstruct,
                    ("preset", "grids", "noise", "mollify_width", "illumination"), None),
    "roundtrip": (_run_ladder, ("inputs",), None),
    "qpat": (_run_ladder, ("inputs",), "noise"),
    "elasto": (_run_ladder, ("inputs",), "noise"),
    "stability": (_run_ladder, ("inputs",), "grids"),
}
MODES = tuple(_MODES)


def run(config: ExperimentConfig, out_dir=None) -> ReconstructionReport:
    """Execute one experiment; deterministic given (config, seed)."""
    config.validate()
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    report = _MODES[config.mode][0](config, out_path)
    if out_path is not None:
        report.save(out_path / "report.json")
    return report


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config_echo: dict, inputs: list[str]) -> str:
    """Record config, package/tool versions, input hashes, and the files
    found under ``out_dir`` next to the outputs of a CLI run."""
    import scipy

    out_dir = Path(out_dir)
    manifest = {
        "config": _jsonify(config_echo),
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "inputs": {p: _sha256(p) for p in inputs if Path(p).is_file()},
        "outputs": sorted(str(p.relative_to(out_dir))
                          for p in out_dir.rglob("*") if p.is_file()),
    }
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return str(path)
