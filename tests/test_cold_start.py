"""Cold start: importing the package and reconstructing from archives load
numpy only.  scipy's sparse, dense linear algebra, transform and image
modules are imported where a sparse operator is built or factored, a
transform is taken or a field is smoothed, so a process that does none of
that never loads them.

Each check runs a fresh interpreter, since the test process itself has long
loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from gaugerec.cli import main as cli_main

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.fft", "scipy.ndimage")


def _fresh(args, cwd):
    """``python *args`` in a new process with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _imported(importtime_log: str) -> set:
    """Module names from the ``-X importtime`` lines of a process's stderr."""
    names = set()
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            names.add(line.rsplit("|", 1)[1].strip())
    return names


def _heavy(names) -> list:
    return sorted(m for m in names
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))


def test_importing_the_package_loads_no_heavy_scipy_module(tmp_path):
    proc = _fresh(["-X", "importtime", "-c", "import gaugerec, gaugerec.cli"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported(proc.stderr)
    assert "gaugerec.cli" in loaded
    assert _heavy(loaded) == []


def test_cli_reconstruct_loads_no_heavy_scipy_module(tmp_path):
    syn = tmp_path / "syn"
    syn_cfg = tmp_path / "syn.json"
    syn_cfg.write_text(json.dumps({"mode": "synthesize", "preset": "smooth-complex-2d",
                                   "grids": [33]}))
    assert cli_main(["synthesize", "--config", str(syn_cfg), "--out", str(syn)]) == 0
    rec_cfg = tmp_path / "rec.json"
    rec_cfg.write_text(json.dumps({
        "mode": "reconstruct",
        "inputs": sorted(str(p) for p in syn.glob("solution_*.json"))}))
    here = tmp_path / "in-process"
    assert cli_main(["reconstruct", "--config", str(rec_cfg), "--out", str(here)]) == 0

    fresh = tmp_path / "fresh"
    proc = _fresh(["-X", "importtime", "-m", "gaugerec.cli", "reconstruct",
                   "--config", str(rec_cfg), "--out", str(fresh)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported(proc.stderr)
    assert "gaugerec.recon" in loaded
    assert _heavy(loaded) == []
    reps = sorted(p.name for p in here.glob("rep_*.json"))
    assert reps and sorted(p.name for p in fresh.glob("rep_*.json")) == reps
    for name in reps:
        assert (fresh / name).read_bytes() == (here / name).read_bytes()
