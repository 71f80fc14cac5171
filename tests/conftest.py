"""Shared fixtures plus a terminal summary for the acceptance gate.

The acceptance tests are named test_criterion_01 .. test_criterion_11.
After the run, one PASS/FAIL line is printed per criterion, derived from
the actual pytest outcome of the matching test (not self-reported), with
the measured numbers each test recorded through the `detail` fixture.
"""

import re
import time

import numpy as np
import pytest

from gaugerec import ExperimentConfig, ScalarField, run

CRITERIA = {
    1: "constant-class engine identities on analytic harmonic data",
    2: "round-trip convergence of the canonical triple",
    3: "gauge invariance of the canonical representative",
    4: "scale recovery by transport for a drift-free class",
    5: "constant-tensor illuminations: pairing and coverage",
    6: "oscillatory illuminations on an isotropic complex class",
    7: "photoacoustic pipeline and scaling identity",
    8: "elastography pipeline and frequency identity",
    9: "noise sweep slope",
    10: "real-data mode stays real at every stage",
    11: "patch reselection over a degenerate strip",
}

_DETAILS: dict[int, str] = {}


@pytest.fixture(scope="session")
def detail():
    """Callable detail(num, text) attaching measurements to a criterion."""

    def _record(num: int, text: str) -> None:
        _DETAILS[int(num)] = text

    return _record


@pytest.fixture(scope="session")
def strip_fields():
    """Builder ``strip_fields(grid, redundant)`` of criterion 11's data.

    The minimal five fields (1, x1, x2, x1 x2, Re w^3 / 6 with
    w = x1 + i x2 - (0.5 - 0.3i)) admit no single global selection: the
    last one's curvature matrix is proportional to the one before it
    exactly on the column x1 = 0.5, which kills pointwise independence
    there.  ``redundant`` appends (x1^2 - x2^2) / 2 and Im w^3 / 6, so
    patch-wise selection can route around that column.
    """

    def build(grid, redundant):
        x1, x2 = grid.meshes
        w = (x1 + 1j * x2) - (0.5 - 0.3j)
        vals = [np.ones(grid.shape), x1, x2, x1 * x2, np.real(w**3) / 6]
        if redundant:
            vals += [(x1**2 - x2**2) / 2, np.imag(w**3) / 6]
        return [ScalarField(grid, v.astype(complex)) for v in vals]

    return build


@pytest.fixture(scope="session")
def smooth_ladder():
    """Refinement ladder on the smooth complex preset.

    Shared between the convergence criterion and the gauge-invariance
    criterion (whose tolerance is a multiple of the ladder's finest
    error), so the three solves+reconstructions run once.
    """
    cfg = ExperimentConfig(mode="roundtrip", preset="smooth-complex-2d",
                           grids=[33, 65, 129], seed=3)
    t0 = time.perf_counter()
    report = run(cfg)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for status, word in (("failed", "FAIL"), ("error", "FAIL"),
                         ("passed", "PASS"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(status, []):
            m = re.search(r"test_criterion_0*(\d+)", getattr(rep, "nodeid", ""))
            if m is None:
                continue
            num = int(m.group(1))
            if word == "FAIL" or num not in results:
                results[num] = word
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num not in results:
            continue
        line = f"criterion {num:2d} [{results[num]}] {CRITERIA[num]}"
        extra = _DETAILS.get(num)
        if extra:
            line += f" | {extra}"
        terminalreporter.write_line(line)
