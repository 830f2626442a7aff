"""Command-line front end.

Exit codes: 0 when all requested rows were computed, 2 on configuration or
usage errors, 3 when a numerical guard (window wraparound, operating point
outside the convergence region) aborts the run.
"""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import (
    DivergenceError,
    run_propagate,
    run_region,
    run_scenario,
    run_sweep,
)
from .fiber import _BETA2_CONVENTIONAL, beta2_to_d, d_to_beta2
from .signal import WindowError, WraparoundError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--jobs", type=int, default=1, help="worker pool width")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Frequency-domain fiber dispersion simulator and "
        "iterative compensator analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert between D and beta2")
    convert.add_argument("--d", type=float, default=None, help="D in ps/nm/km")
    convert.add_argument(
        "--beta2", type=float, default=None, help="beta2 in ps^2/km"
    )
    convert.add_argument(
        "--lambda", dest="lambda0", type=float, default=1.55e-6,
        help="carrier wavelength in meters (default 1.55e-6)",
    )
    convert.set_defaults(func=_cmd_convert)

    region = sub.add_parser("region", help="emit the stability boundary CSV")
    _add_run_options(region)
    region.set_defaults(func=_cmd_region)

    sweep = sub.add_parser(
        "sweep-k", help="broadening factor vs. stage count CSV"
    )
    _add_run_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    scenario = sub.add_parser("scenario", help="single-link design report JSON")
    _add_run_options(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    prop = sub.add_parser("propagate", help="debug envelope dumps as CSV")
    _add_run_options(prop)
    prop.set_defaults(func=_cmd_propagate)

    return parser


def _cmd_convert(args) -> int:
    if (args.d is None) == (args.beta2 is None):
        print("error: give exactly one of --d or --beta2", file=sys.stderr)
        return EXIT_CONFIG
    lambda0 = args.lambda0
    if lambda0 <= 0:
        print("error: --lambda must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if args.d is not None:
        d = args.d
        beta2 = d_to_beta2(d, lambda0)
    else:
        beta2 = args.beta2 * _BETA2_CONVENTIONAL
        d = beta2_to_d(beta2, lambda0)
    print(f"lambda0  {lambda0 * 1e9:.6g} nm  ({lambda0:.9g} m)")
    print(f"D        {d:.6g} ps/nm/km  ({d * 1e-6:.9g} s/m^2)")
    print(f"beta2    {beta2 / _BETA2_CONVENTIONAL:.6g} ps^2/km  ({beta2:.9g} s^2/m)")
    print(
        "note: conversion is exact at lambda0; quoted datasheet values may "
        "differ by a few percent"
    )
    return EXIT_OK


def _prepare(args):
    cfg = load_config(args.config)
    outdir = Path(args.out) if args.out is not None else Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return cfg, outdir


def _cmd_region(args) -> int:
    cfg, outdir = _prepare(args)
    return run_region(cfg, outdir)


def _cmd_sweep(args) -> int:
    cfg, outdir = _prepare(args)
    return run_sweep(cfg, outdir, jobs=max(1, args.jobs))


def _cmd_scenario(args) -> int:
    cfg, outdir = _prepare(args)
    return run_scenario(cfg, outdir)


def _cmd_propagate(args) -> int:
    cfg, outdir = _prepare(args)
    return run_propagate(cfg, outdir)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, WindowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WraparoundError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
