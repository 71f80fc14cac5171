"""The four benchmark workloads.

Each workload has a ``prepare(seed, scratch)`` that builds its inputs (this
is what ``setup_s`` times, after the import) and a ``run_pass(ctx, ledger)``
that drives the package through its public entry points once and returns the
accuracy figures of that pass.  Every call of an entry point (``run``,
``cli.main``, ``reconstruct_global``) is one operation in the ledger; an
operation fails on an unexpected exception, a wrong exit code, a missing
output or a figure outside its pinned check.

Only ``roundtrip-2d`` consumes the seed (its noise leg); the other three
workloads are deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
import traceback
from pathlib import Path

import numpy as np

import gaugerec
import gaugerec.cli
from spans import rebound

# Sizes.  A pass is kept to one to three seconds, so that a run holds ten or
# more passes and the reference loop timed right before and after a pass
# (reference.py) sees the host's speed of that pass; the host's speed drifts
# by up to 2x over seconds to minutes.
ROUNDTRIP_GRIDS = [65, 129]   # refinement pair timed in every pass
NOISY_GRID = 129
APP_GRID = 65                 # qpat and elasto legs
REFINE_GRIDS = [129, 257]     # full-size leg, traced runs only
PATCHED_GRID = 97
PATCHED_ENGINE = {"patch_size": 17, "overlap": 8}
STRIP_ENGINE = {"patch_size": 17, "overlap": 12}
VOLUME_GRID = 17

# Pinned accuracy checks.  The tolerances sit about 25% above the values
# measured when the benchmark was defined (noted beside each, with one BLAS
# thread), so an accuracy regression fails the run instead of passing
# silently.  The 257^2 figure depends on the solver's roundoff: it reads
# 6.42e-5 with two BLAS threads.
TRIPLE_MAX = {65: 3.0e-4,     # 2.31e-4
              97: 1.3e-4,     # 1.05e-4, patched
              129: 7.5e-5,    # 5.97e-5
              257: 8.0e-5}    # 5.94e-5
NOISY_MAX = 150.0             # 65 at seed 1, 67-91 at seeds 2, 3, 11
QPAT_MAX = 1.0e-3             # max(gamma 7.7e-4, sigma 7.9e-6) at 65^2
ELASTO_MAX = 1.1e-3           # max(gamma 5.5e-4, rho 8.7e-4) at 65^2
STRIP_MAX = 1e-10             # exact class: roundoff only (2.2e-16)
VOLUME_MAX = 1e-6             # exact class: roundoff only (2.7e-9 at 17^3)


class Ledger:
    """Counts operations and records why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation; the body appends failed checks to the list."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:
            problems.append("unexpected exception:\n" + traceback.format_exc())
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    @staticmethod
    def bounded(problems, name: str, value: float, limit: float) -> float:
        if not (math.isfinite(value) and value <= limit):
            problems.append(f"{name} {value:.3e} above its check {limit:.1e}")
        return value


# ---------------------------------------------------------------------------
# roundtrip-2d
# ---------------------------------------------------------------------------

def prepare_roundtrip(seed: int, scratch: Path) -> dict:
    return {"seed": seed}


def _refinement(bad, figures: dict, grids: list, seed: int) -> float:
    """Noise-free roundtrip over a refinement pair.  Records the a, b + div a
    and c errors per grid and their observed orders, checks the triple error
    on every grid, and returns the one on the finest."""
    report = gaugerec.run(gaugerec.ExperimentConfig(
        mode="roundtrip", preset="smooth-complex-2d", grids=grids, seed=seed))
    for entry in report.entries:
        size = entry["shape"][0]
        figures[f"grid_{size}"] = {k: entry["errors"][k]
                                   for k in ("a", "b_plus_diva", "c")}
        triple = Ledger.bounded(bad, f"triple error at {size}^2",
                                entry["errors"]["triple"], TRIPLE_MAX[size])
    # Observed orders are reported, not checked: from 129^2 to 257^2 the c
    # error grows at a boundary node, a known open defect.
    figures[f"order_{grids[0]}_{grids[1]}"] = {
        k: v[0] for k, v in report.orders["delta=0"].items()}
    return triple


def pass_roundtrip(ctx: dict, ledger: Ledger) -> dict:
    seed = ctx["seed"]
    figures = {}
    with ledger.op(f"roundtrip smooth-complex-2d {ROUNDTRIP_GRIDS}") as bad:
        figures["triple_err"] = _refinement(bad, figures, ROUNDTRIP_GRIDS,
                                            seed)
    with ledger.op(f"roundtrip smooth-complex-2d {NOISY_GRID} noisy") as bad:
        report = gaugerec.run(gaugerec.ExperimentConfig(
            mode="roundtrip", preset="smooth-complex-2d", grids=[NOISY_GRID],
            noise=[1e-4], mollify_width=2.0, seed=seed))
        figures["noisy_err"] = Ledger.bounded(
            bad, "noisy triple error", report.entries[0]["errors"]["triple"],
            NOISY_MAX)
    with ledger.op(f"qpat qpat-demo {APP_GRID}") as bad:
        errors = gaugerec.run(gaugerec.ExperimentConfig(
            mode="qpat", preset="qpat-demo", grids=[APP_GRID],
            seed=seed)).entries[0]["errors"]
        figures["qpat_err"] = Ledger.bounded(
            bad, "qpat error", max(errors["gamma"], errors["sigma"]), QPAT_MAX)
    with ledger.op(f"elasto elasto-demo {APP_GRID}") as bad:
        errors = gaugerec.run(gaugerec.ExperimentConfig(
            mode="elasto", preset="elasto-demo", grids=[APP_GRID],
            seed=seed)).entries[0]["errors"]
        figures["elasto_err"] = Ledger.bounded(
            bad, "elasto error", max(errors["gamma"], errors["rho"]), ELASTO_MAX)
    return figures


def full_size_roundtrip(ctx: dict, ledger: Ledger) -> dict:
    """The refinement pair at full size, run once in a traced run and not
    timed: it keeps the 129^2 -> 257^2 accuracy lines in the output."""
    figures = {}
    with ledger.op(f"full-size roundtrip smooth-complex-2d {REFINE_GRIDS}") as bad:
        figures["triple_err_257"] = _refinement(bad, figures, REFINE_GRIDS,
                                                ctx["seed"])
    return figures


# ---------------------------------------------------------------------------
# patched-archive-2d
# ---------------------------------------------------------------------------

def prepare_patched(seed: int, scratch: Path) -> dict:
    grid = gaugerec.square_grid(PATCHED_GRID)
    coeffs = gaugerec.PRESETS["smooth-complex-2d"].coefficients(grid)
    return {"scratch": scratch, "truth": gaugerec.unit_truth(coeffs)}


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gaugerec.cli.main(argv)
    return code, out.getvalue()


def _expect_files(bad, directory: Path, names) -> None:
    missing = [n for n in names if not (directory / n).is_file()]
    if missing:
        bad.append(f"missing outputs {missing} in {directory.name}")


def pass_patched(ctx: dict, ledger: Ledger) -> dict:
    figures = {}
    work = Path(tempfile.mkdtemp(prefix="patched-", dir=ctx["scratch"]))
    try:
        syn_cfg, syn_out = work / "syn.json", work / "syn"
        syn_cfg.write_text(json.dumps({"preset": "smooth-complex-2d",
                                       "grids": [PATCHED_GRID]}))
        archives = [syn_out / f"solution_{j}.json" for j in range(5)]
        with ledger.op(f"cli synthesize smooth-complex-2d {PATCHED_GRID}") as bad:
            code, text = _cli(["synthesize", "--config", str(syn_cfg),
                               "--out", str(syn_out)])
            if code != 0:
                bad.append(f"exit code {code}: {text.strip()}")
            _expect_files(bad, syn_out, [p.name for p in archives]
                          + ["manifest.json", "report.json"])

        rec_cfg, rec_out = work / "rec.json", work / "rec"
        rec_cfg.write_text(json.dumps({"inputs": [str(p) for p in archives],
                                       "engine": PATCHED_ENGINE}))
        with ledger.op("cli reconstruct patched {patch_size}/{overlap}".format(
                **PATCHED_ENGINE)) as bad:
            code, text = _cli(["reconstruct", "--config", str(rec_cfg),
                               "--out", str(rec_out)])
            if code != 0:
                bad.append(f"exit code {code}: {text.strip()}")
            parts = ["rep_a.json", "rep_bpda.json", "rep_c.json", "rep_b.json"]
            _expect_files(bad, rec_out, parts + ["manifest.json", "report.json"])
            if not bad:
                a, bpda, c, b = (gaugerec.load_field(rec_out / p) for p in parts)
                rep = gaugerec.ClassRepresentative(a.grid, a, bpda, c, b,
                                                   "unit-frobenius")
                errors = gaugerec.triple_errors(rep, ctx["truth"])
                figures["triple_err"] = Ledger.bounded(
                    bad, f"patched triple error at {PATCHED_GRID}^2",
                    errors["triple"], TRIPLE_MAX[PATCHED_GRID])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return figures


# ---------------------------------------------------------------------------
# reselect-strip
# ---------------------------------------------------------------------------

def strip_fields(grid, redundant: bool) -> list:
    """Criterion 11's manufactured data: constant-class solutions whose
    minimal set loses its frame along the x1 = 0.5 line."""
    x1, x2 = grid.meshes
    w = (x1 + 1j * x2) - (0.5 - 0.3j)
    vals = [np.ones(grid.shape), x1, x2, x1 * x2, np.real(w**3) / 6]
    if redundant:
        vals += [(x1**2 - x2**2) / 2, np.imag(w**3) / 6]
    return [gaugerec.ScalarField(grid, v.astype(complex)) for v in vals]


def prepare_strip(seed: int, scratch: Path) -> dict:
    grid = gaugerec.square_grid(65)
    return {"redundant": strip_fields(grid, True),
            "minimal": strip_fields(grid, False)}


def pass_strip(ctx: dict, ledger: Ledger) -> dict:
    figures = {}
    engine = gaugerec.EngineConfig(**STRIP_ENGINE)
    with ledger.op("reconstruct_global redundant strip") as bad:
        rep, pm = gaugerec.reconstruct_global(ctx["redundant"], engine)
        if not pm.coverage.all():
            bad.append(f"{int((~pm.coverage).sum())} nodes uncovered")
        n = rep.grid.dim
        a_err = float(np.abs(rep.a.as_matrix() - np.eye(n) / np.sqrt(n)).max())
        c_err = float(np.abs(rep.c.values).max())
        figures["strip_err"] = Ledger.bounded(
            bad, "strip tensor error", max(a_err, c_err), STRIP_MAX)
    with ledger.op("reconstruct_global minimal strip") as bad:
        try:
            gaugerec.reconstruct_global(ctx["minimal"], engine)
            bad.append("minimal strip did not raise CoverageFailure")
        except gaugerec.CoverageFailure as exc:
            nodes = np.asarray(exc.uncovered)
            figures["uncovered_nodes"] = int(len(nodes))
            if len(nodes) == 0 or 32 not in {int(c) for c in nodes[:, 1]}:
                bad.append("CoverageFailure does not name the x1 = 0.5 strip")
    return figures


# ---------------------------------------------------------------------------
# volume-3d
# ---------------------------------------------------------------------------

def prepare_volume(seed: int, scratch: Path) -> dict:
    return {}


def pass_volume(ctx: dict, ledger: Ledger) -> dict:
    figures = {}
    with ledger.op(f"roundtrip constant-tensor-3d {VOLUME_GRID}") as bad:
        report = gaugerec.run(gaugerec.ExperimentConfig(
            mode="roundtrip", preset="constant-tensor-3d", grids=[VOLUME_GRID]))
        figures["volume_err"] = Ledger.bounded(
            bad, "constant-class 3D error", report.entries[0]["errors"]["triple"],
            VOLUME_MAX)
    return figures


# name -> (prepare, run_pass, consumes the seed, untimed full-size leg of a
# traced run or None)
WORKLOADS = {
    "roundtrip-2d": (prepare_roundtrip, pass_roundtrip, True,
                     full_size_roundtrip),
    "patched-archive-2d": (prepare_patched, pass_patched, False, None),
    "reselect-strip": (prepare_strip, pass_strip, False, None),
    "volume-3d": (prepare_volume, pass_volume, False, None),
}

# Accuracy figures meant to be resolvable: a 1e-13 relative change of the
# inputs may move each by at most ROUNDOFF_MOVE, or the roundoff self-check
# fails.  The strip and 3D figures are exactness checks at roundoff level;
# the self-check only reports how far they move.
RESOLVABLE = ("triple_err", "noisy_err", "qpat_err", "elasto_err")
ROUNDOFF_LEVEL = ("strip_err", "volume_err")
ROUNDOFF_MOVE = 0.01


def perturbed_inputs(ctx: dict, seed: int):
    """Context scaling every generated input by (1 + 1e-13 g), g a seeded
    standard normal: the solutions ``synthesize`` returns, and the strip
    fields.  Returns (context manager, perturbed ctx)."""
    rng = np.random.default_rng(seed)

    def scale(fields):
        return [type(f)(f.grid, f.values * (1.0 + 1e-13 * rng.standard_normal(
            f.values.shape))) for f in fields]

    def make(original):
        def synthesize(*args, **kwargs):
            return scale(original(*args, **kwargs))
        return synthesize

    new_ctx = dict(ctx)
    for key in ("redundant", "minimal"):
        if key in ctx:
            new_ctx[key] = scale(ctx[key])
    return rebound({("forward", "synthesize"): make}), new_ctx
