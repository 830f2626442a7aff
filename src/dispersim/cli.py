"""Command-line front end.

Exit codes: 0 when all requested rows were computed, 2 on configuration or
usage errors, 3 when a numerical guard (window wraparound, operating point
outside the convergence region, a pulse width that cannot be measured)
aborts the run.
"""

import argparse
import math
import sys
from functools import partial
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
from .signal import WidthMetricError, WindowError, WraparoundError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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

    # run_* are looked up per call, not at import, so rebinding them (as a
    # tracer does) takes effect
    for name, run, help_text in (
        ("region", run_region, "emit the stability boundary CSV"),
        ("sweep-k", run_sweep, "broadening factor vs. stage count CSV"),
        ("scenario", run_scenario, "single-link design report JSON"),
        ("propagate", run_propagate, "debug envelope dumps as CSV"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="path to the JSON config")
        command.add_argument(
            "--out", default=None, help="output directory (overrides config)"
        )
        command.set_defaults(func=partial(_cmd_run, run))

    return parser


def _cmd_convert(args) -> int:
    if (args.d is None) == (args.beta2 is None):
        print("error: give exactly one of --d or --beta2", file=sys.stderr)
        return EXIT_CONFIG
    lambda0 = args.lambda0
    try:
        if args.d is not None:
            d = args.d
            beta2 = d_to_beta2(d, lambda0)
        else:
            beta2 = args.beta2 * _BETA2_CONVENTIONAL
            d = beta2_to_d(beta2, lambda0)
        if not (math.isfinite(d) and math.isfinite(beta2)):
            raise ValueError("--d, --beta2 and their conversion must be finite")
    except ValueError as exc:  # also the wavelength range rule of fiber.py
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"lambda0  {lambda0 * 1e9:.6g} nm  ({lambda0:.9g} m)")
    print(f"D        {d:.6g} ps/nm/km  ({d * 1e-6:.9g} s/m^2)")
    print(f"beta2    {beta2 / _BETA2_CONVENTIONAL:.6g} ps^2/km  ({beta2:.9g} s^2/m)")
    print(
        "note: conversion is exact at lambda0; quoted datasheet values may "
        "differ by a few percent"
    )
    return EXIT_OK


def _cmd_run(run, args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out) if args.out is not None else Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    return run(cfg, outdir)


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
    except (WraparoundError, DivergenceError, WidthMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
