"""Command line front end.

    gaugerec <mode> --config cfg.json [--out DIR] [--seed N]

Modes mirror the harness: synthesize, reconstruct, roundtrip, qpat,
elasto, stability.  Exit codes: 0 on success, 2 when the domain could not
be fully covered (partial outputs are still written), 1 on hard errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, CoverageFailure, ToolkitError
from .harness import MODES, ExperimentConfig, run, save_representative, write_manifest

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugerec",
        description="Reconstruct second-order complex coefficients from "
                    "interior solution data, up to the natural gauge.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} pipeline")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return parser


def _write_partial(exc: CoverageFailure, out_dir: Path) -> None:
    rep, patch_map = exc.partial if exc.partial else (None, None)
    payload = {"error": "CoverageFailure", "uncovered_nodes": len(exc.uncovered)}
    if patch_map is not None:
        payload["admissible_patches"] = int(sum(patch_map.admissible))
        payload["total_patches"] = len(patch_map.admissible)
    with open(out_dir / "coverage_failure.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    if rep is not None:
        save_representative(rep, out_dir, "partial_{}.json")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, RecursionError) as exc:  # json recurses per nesting level
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if isinstance(raw, dict):  # anything else is refused by from_dict below
        raw["mode"] = args.mode
        if args.seed is not None:
            raw["seed"] = args.seed

    out_dir = Path(args.out) if args.out else None
    try:
        cfg = ExperimentConfig.from_dict(raw)
        report = run(cfg, out_dir=out_dir)
        if out_dir is not None:
            write_manifest(out_dir, report.config_echo, cfg.inputs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CoverageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            _write_partial(exc, out_dir)
            write_manifest(out_dir, raw, raw.get("inputs", []))
        return 2
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # such as a file where --out names a directory
        print(f"error: writing outputs: {exc}", file=sys.stderr)
        return 1

    if out_dir is not None:
        print(f"report written to {out_dir / 'report.json'}")
    else:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
