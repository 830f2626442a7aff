"""Command-line front end.

One parser per process, built on first use. A run command calls its runner by
name, looked up in this module per call, so a rebound runner (as a tracer's)
runs. ``--out`` overrides ``output.dir`` and, like it, must not be empty.
:func:`~dispersim.config.check_run` makes every closed-form refusal of a
run command before the output directory exists.

Start-up loads no numpy: this module, the config and ``region`` need only
:mod:`dispersim.base` and :mod:`dispersim.convergence`. The numeric modules
(numpy, ``experiments``, ``signal``, ``fiber``, ``compensator`` and
``iterative``) load when ``sweep-k``, ``scenario`` or ``propagate`` first
looks up its runner here, after its config has parsed; numpy alone loads
earlier for a config whose region axis is a min/max/count range.

Exit codes: 0 when all requested rows were computed, 2 on configuration or
usage errors (a grid too large to allocate included), 3 when a numerical
guard (window wraparound, operating point outside the convergence region, a
pulse width that cannot be measured) aborts the run.
"""

import argparse
import math
import sys
from functools import cache
from pathlib import Path

from .base import (
    _BETA2_CONVENTIONAL,
    DivergenceError,
    WidthMetricError,
    WindowError,
    WraparoundError,
    beta2_to_d,
    d_to_beta2,
    run_region,
)
from .config import ConfigError, check_run, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: run command -> (name of its runner in this module, help)
RUNNERS = {
    "region": ("run_region", "emit the stability boundary CSV"),
    "sweep-k": ("run_sweep", "broadening factor vs. stage count CSV"),
    "scenario": ("run_scenario", "single-link design report JSON"),
    "propagate": ("run_propagate", "debug envelope dumps as CSV"),
}


def __getattr__(name: str):
    """Bind a runner that is not yet bound here from :mod:`dispersim.experiments`.

    ``region``'s runner is imported above; the others load numpy with
    ``experiments`` on their first lookup.
    """
    if name not in {runner for runner, _ in RUNNERS.values()}:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import experiments

    runner = globals()[name] = getattr(experiments, name)
    return runner


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersim",
        description="Frequency-domain fiber dispersion simulator and "
        "iterative compensator analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="convert between D and beta2")
    convert.add_argument("--d", type=float, default=None, help="D in ps/nm/km")
    convert.add_argument("--beta2", type=float, default=None, help="beta2 in ps^2/km")
    convert.add_argument(
        "--lambda", dest="lambda0", type=float, default=1.55e-6,
        help="carrier wavelength in meters (default 1.55e-6)",
    )

    for name, (_, help_text) in RUNNERS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="path to the JSON config")
        command.add_argument("--out", help="output directory (overrides config)")
    return parser


def _cmd_convert(args) -> int:
    if (args.d is None) == (args.beta2 is None):
        raise ConfigError("give exactly one of --d or --beta2")
    lambda0 = args.lambda0
    try:
        if args.d is not None:
            d = args.d
            beta2 = d_to_beta2(d, lambda0)
        else:
            beta2 = args.beta2 * _BETA2_CONVENTIONAL
            d = beta2_to_d(beta2, lambda0)
    except ValueError as exc:  # the wavelength range rule of base.py
        raise ConfigError(str(exc)) from None
    if not (math.isfinite(d) and math.isfinite(beta2)):
        raise ConfigError("--d, --beta2 and their conversion must be finite")
    print(f"lambda0  {lambda0 * 1e9:.6g} nm  ({lambda0:.9g} m)")
    print(f"D        {d:.6g} ps/nm/km  ({d * 1e-6:.9g} s/m^2)")
    print(f"beta2    {beta2 / _BETA2_CONVENTIONAL:.6g} ps^2/km  ({beta2:.9g} s^2/m)")
    print(
        "note: conversion is exact at lambda0; quoted datasheet values may "
        "differ by a few percent"
    )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "convert":
            return _cmd_convert(args)
        if args.out == "":
            raise ConfigError("--out must be a non-empty string")
        cfg = load_config(args.config)
        check_run(cfg, args.command)
        outdir = Path(cfg.output_dir if args.out is None else args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        runner = getattr(sys.modules[__name__], RUNNERS[args.command][0])
        return runner(cfg, outdir)
    except (ConfigError, WindowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WraparoundError, DivergenceError, WidthMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    print("error: run python -m dispersim, not python -m dispersim.cli", file=sys.stderr)
    sys.exit(EXIT_CONFIG)
