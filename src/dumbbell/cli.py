"""Command-line entry points for the sweep laboratory.

Subcommands mirror the stages: cross-section constants, profile solves,
the eps sweep, verdict checking on a stored record, and report emission.
Exit codes: 0 on success, 2 when a verification verdict fails, 1 on
execution errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import cross_section as cs
from . import pipeline as pl

__all__ = ["main"]


def _build_config(args) -> pl.RunConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config} does not hold a JSON object")
        unknown = sorted(set(base) - {f.name for f in fields(pl.RunConfig)})
        if unknown:
            raise ValueError(f"unknown config key(s) in {args.config}: "
                             f"{', '.join(unknown)}")
    # a JSON list becomes the tuple field; validate rejects anything else
    if isinstance(base.get("eps_sweep"), list):
        base["eps_sweep"] = tuple(base["eps_sweep"])
    if getattr(args, "eps", None):
        base["eps_sweep"] = tuple(args.eps)
    if getattr(args, "levels", None) is not None:
        base["sweep_level"] = args.levels
        base["profile_level"] = args.levels
    if getattr(args, "jobs", None) is not None:
        base["jobs"] = args.jobs
    if getattr(args, "out", None):
        base["out_dir"] = args.out
    return pl.RunConfig(**base).validate()


def _cmd_cross_section(args) -> int:
    mode = cs.disk_ground_mode(3)
    out = {
        "sqrt_lambda1": mode.sqrt_lambda1,
        "lambda1": mode.sqrt_lambda1 ** 2,
        "upsilon3": cs.upsilon(3),
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_profiles(args) -> int:
    cfg = _build_config(args)
    constants = pl.run_profiles(cfg)
    print(json.dumps(constants.to_dict(), indent=1))
    return 0


def _print_verdicts(verdicts: dict) -> int:
    for name, v in sorted(verdicts.items()):
        if name == "overall_pass":
            continue
        print(f"{name}: {v['verdict']}, final deviation "
              f"{v['final_deviation']:.3e}, "
              f"{'pass' if v['pass'] else 'FAIL'}")
    ok = verdicts["overall_pass"]
    print("overall:", "pass" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    record = pl.run_sweep(cfg)
    pl.emit(record, cfg.out_dir)
    return _print_verdicts(record.verdicts)


def _cmd_verify(args) -> int:
    return _print_verdicts(pl.verify(pl.load_record(args.record)))


def _cmd_report(args) -> int:
    record = pl.load_record(args.record)
    paths = pl.emit(record, args.out or ".",
                    formats=tuple(args.formats.split(",")))
    for p in paths:
        print(p)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dumbbell",
        description="Weighted dumbbell eigenvalue sweep laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cross-section",
                       help="print the tube cross-section constants")
    p.set_defaults(func=_cmd_cross_section)

    for name, func, help_ in (
            ("profiles", _cmd_profiles, "solve the four limit profiles"),
            ("sweep", _cmd_sweep, "run the eps sweep and emit outputs")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON file with RunConfig fields")
        p.add_argument("--out", help="output directory")
        p.add_argument("--eps", type=float, nargs="+",
                       help="override the eps sweep")
        p.add_argument("--levels", type=int,
                       help="mesh refinement level for all solves")
        if name == "sweep":
            p.add_argument("--jobs", type=int,
                           help="threads that solve whole eps entries; at "
                           "1 a worker thread already factors each entry "
                           "while the main thread builds the next one. On "
                           "two cores the default sweep took 2.9 s at 2 "
                           "against 3.0 s at 1, peaking at 216 MB against "
                           "190 MB (medians of 8 alternated runs)")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="re-check verdicts on a stored record")
    p.add_argument("record", help="path to record.json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="emit CSV/SVG from a stored record")
    p.add_argument("record", help="path to record.json")
    p.add_argument("--out", help="output directory")
    p.add_argument("--formats", default="json,csv,svg")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
