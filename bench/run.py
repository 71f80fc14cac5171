"""Benchmark of the gaugerec package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  One process runs one
workload: it repeats passes of the workload for about ``--seconds``, checks
every output against the truth, times fresh-process set-ups, and prints one
JSON object as the last line of its standard output.

``--trace 0`` reports the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics and the
tracing overhead, prints a self-time table per module, runs the roundoff
self-check, and writes the spans to ``.bench_out/``.  ``--workload all``
runs every workload in turn, each in its own process.

The exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import spans  # noqa: E402  (the benchmark's own module, next to this file)

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
E2E_UNITS = {"pass_ref": "ref_loops", "setup_s": "s", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("roundtrip-2d", "patched-archive-2d", "reselect-strip",
                  "volume-3d")
# BLAS and OpenMP pools are held to one thread.  On a small shared machine a
# second busy-waiting BLAS thread bought nothing and, when another process
# took a core, slowed a 13 s pass to 180 s.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_workloads():
    """Import gaugerec from this checkout's ``src`` and nowhere else, then
    the workloads that drive it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gaugerec
    except ImportError as exc:
        sys.exit(f"error: cannot import gaugerec from {src}: {exc}")
    if Path(gaugerec.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: gaugerec imported from {gaugerec.__file__}, "
                 f"not from {src}")
    import workloads

    return workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: f"{deps[k].get('name')} {deps[k].get('version')}"
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        return {"blas": "unknown"}


def provenance(args, seed_used: bool) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "load": {"processes": 1, "workloads_at_once": 1,
                 "python_threads": threading.active_count()},
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": seed_used,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probe(args) -> None:
    """Body of one fresh set-up process: import, then build the inputs."""
    workloads = import_workloads()
    scratch = OUT_DIR / "probe"
    scratch.mkdir(parents=True, exist_ok=True)
    workloads.WORKLOADS[args.workload][0](args.seed, scratch)


def time_setup(args) -> float:
    """Wall time of a fresh process that imports gaugerec and prepares the
    workload's inputs, measured from the parent."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: set-up process failed:\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def timed_pass(run_pass, ctx, ledger) -> tuple[float, dict]:
    t0 = time.perf_counter()
    figures = run_pass(ctx, ledger)
    return time.perf_counter() - t0, figures


def roundoff_check(workloads, run_pass, ctx, ledger, seed, figures) -> list:
    """One more pass with every generated input scaled by (1 + 1e-13 g);
    reports how far each accuracy figure moves.  It is one operation, which
    fails when a figure meant to be resolvable moves by more than
    ``ROUNDOFF_MOVE``."""
    rows = []
    with ledger.op("roundoff self-check") as bad:
        manager, new_ctx = workloads.perturbed_inputs(ctx, seed)
        # The perturbed pass keeps its own ledger: a roundoff-level figure
        # is expected to leave its exactness check there, which is the point.
        with manager:
            moved = run_pass(new_ctx, workloads.Ledger())
        for name in workloads.RESOLVABLE + workloads.ROUNDOFF_LEVEL:
            if name not in figures:
                continue
            base, new = figures[name], moved.get(name, math.nan)
            move = abs(new - base) / abs(base) if base else math.inf
            resolved = move <= workloads.ROUNDOFF_MOVE
            rows.append({"figure": name, "value": base, "perturbed": new,
                         "move": move, "resolvable": resolved})
            if name in workloads.RESOLVABLE and not resolved:
                bad.append(f"{name} moved {move:.2e} under a 1e-13 input "
                           f"perturbation")
    return rows


def measure(args, workloads) -> dict:
    prepare, run_pass, seed_used, full_leg = workloads.WORKLOADS[args.workload]
    scratch = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = prepare(args.seed, scratch)
    ledger = workloads.Ledger()
    result = {"provenance": provenance(args, seed_used)}

    # One warm-up pass, checked but not timed: lazy imports and first-touch
    # allocations stay out of the pass times.  The peak is read after it, so
    # the figure does not depend on how many passes fit into a run.
    run_pass(ctx, ledger)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    walls, traced_walls, layer_rows = [], [], []
    tracer = spans.Tracer()
    # Untraced, the reference loop is timed before the first pass and after
    # every pass; each pass is then also counted in turns of the loop timed
    # around it (see reference.py).
    loop, refs = None, []
    if not args.trace:
        from reference import ReferenceLoop  # after the thread variables

        loop = ReferenceLoop()
        loop.run()  # warm-up
        refs.append(loop.run())
    # Passes (untraced and traced pairs when tracing) repeat while the next
    # one is expected to end within --seconds; there is always at least one.
    # Each starts from a collected heap.  Untraced, the set-up processes are
    # spread over the run, between passes, so that their median samples the
    # host's speed across the run and not in one burst.
    start = time.perf_counter()
    rounds, setups = [], []
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= args.seconds):
        t0 = time.perf_counter()
        gc.collect()
        wall, figures = timed_pass(run_pass, ctx, ledger)
        walls.append(wall)
        if loop is not None:
            refs.append(loop.run())
            if (len(setups) < SETUP_PROBES and time.perf_counter() - start
                    >= len(setups) * args.seconds / SETUP_PROBES):
                setups.append(time_setup(args))
        if args.trace:
            gc.collect()
            tracer.pass_index = len(traced_walls)
            with tracer.installed():
                wall_t, _ = timed_pass(run_pass, ctx, ledger)
            traced_walls.append(wall_t)
            layer_rows.append(tracer.layer_metrics(tracer.pass_index, wall_t))
        rounds.append(time.perf_counter() - t0)
    result.update(walls=walls, refs=refs, figures=figures)

    if args.trace:
        metrics = {k: statistics.median(row[k] for row in layer_rows)
                   for k in layer_rows[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        metrics = {k: metrics[k] for k in spans.LAYER_METRICS}
        units = {k: v[0] for k, v in spans.LAYER_METRICS.items()}
        result["traced_walls"] = traced_walls
        if full_leg is not None:
            figures.update(full_leg(ctx, ledger))
        result["roundoff"] = roundoff_check(workloads, run_pass, ctx, ledger,
                                            args.seed, figures)
        result["table"] = tracer.table(len(traced_walls) - 1, traced_walls[-1])
        with open(scratch / "spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        while len(setups) < SETUP_PROBES:
            setups.append(time_setup(args))
        result["setups"] = setups
        metrics = {"pass_ref": statistics.median(
                       2 * w / (r0 + r1)
                       for w, r0, r1 in zip(walls, refs, refs[1:])),
                   "setup_s": statistics.median(result["setups"]),
                   "peak_rss_mb": peak_kb / 1024}
        units = E2E_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    result["attempted"] = ledger.attempted
    result["failures"] = ledger.failures
    with open(scratch / "result.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def report(args, result) -> None:
    walls = result["walls"]
    attempted, failed = result["attempted"], len(result["failures"])
    seed_note = "" if result["provenance"]["seed_used"] else \
        " (deterministic: seed unused)"
    print("provenance " + json.dumps(result["provenance"]))
    print(f"workload {args.workload}  seed {args.seed}{seed_note}"
          f"  trace {args.trace}  passes {len(walls)}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "pass_ref":
            note = (f"  median of {len(walls)} passes, each in turns of the "
                    f"reference loop timed around it")
        elif name == "setup_s":
            note = f"  median of {SETUP_PROBES} fresh processes"
        elif name in spans.LAYER_METRICS:
            note = f"  moves: {spans.LAYER_METRICS[name][2]}"
        print(f"  {name:<24} {m['value']:>12.6g} {m['unit']}{note}")
    refs = result["refs"]
    print(f"  {'wall_s':<24} {statistics.median(walls):>12.6g} s  median "
          f"pass wall time, not gated (host speed varies); passes "
          + ", ".join(f"{w:.3f}" for w in walls))
    if refs:
        print(f"  {'reference_loop_s':<24} {statistics.median(refs):>12.6g} s"
              f"  median of {len(refs)} turns, min {min(refs):.4f}, "
              f"max {max(refs):.4f}")
    print(f"  {'fail_frac':<24} {failed / attempted:>12.6g} ratio  "
          f"{failed} of {attempted} operations failed")
    for name, value in result["figures"].items():
        if isinstance(value, dict):
            parts = ", ".join(f"{k} {v:.3e}" for k, v in value.items())
            print(f"  accuracy {name}: {parts}")
        else:
            print(f"  accuracy {name:<15} {value:.6g}")
    if args.trace:
        print(f"  self time per module and span, last traced pass "
              f"({result['traced_walls'][-1]:.3f} s):")
        print("\n".join(result["table"]))
        for row in result["roundoff"]:
            kind = "resolvable" if row["resolvable"] else "roundoff level"
            print(f"  roundoff {row['figure']:<12} {row['value']:.4e} -> "
                  f"{row['perturbed']:.4e}  moved {row['move']:.2e}: {kind}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        total["correct"] &= last["correct"] and proc.returncode == 0
        total["attempted"] += last["attempted"]
        total["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({v: "1" for v in THREAD_VARS})
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = measure(args, import_workloads())
    report(args, result)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
