"""The numpy-free base of the package: what the CLI needs before a numeric
command runs.

It holds the exceptions behind the CLI's exit codes, the speed of light,
the D <-> beta2 conversions and matched lengths, the constants the
configuration checks against, and the ``region`` command (a closed form in
:mod:`dispersim.convergence`) with the emit helpers it shares with
:mod:`dispersim.experiments`. It imports the standard library and
:mod:`dispersim.convergence` only, so ``convert``, ``region`` on a list
axis and a refused configuration run without numpy. The numeric modules
import from here only what they use.
"""

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .convergence import z_max

if TYPE_CHECKING:
    from .config import ExperimentConfig


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class WindowError(ValueError):
    """Raised when a pulse does not fit the requested time window."""


class WraparoundError(RuntimeError):
    """Raised when a circular spectral operation would wrap in time."""


class WidthMetricError(ValueError):
    """Raised when a pulse has no measurable half-maximum width."""


class DivergenceError(RuntimeError):
    """The requested operating point lies outside the convergence region."""


#: Speed of light in vacuum, m/s (exact in the SI).
SPEED_OF_LIGHT = 299792458.0

# ps/nm/km expressed in s/m^2
_D_CONVENTIONAL = 1e-6
# ps^2/km expressed in s^2/m
_BETA2_CONVENTIONAL = 1e-27


def _lambda0_squared(lambda0_m: float) -> float:
    """lambda0**2 of a positive lambda0 whose square is a positive finite double."""
    try:
        square = lambda0_m**2
    except OverflowError:
        square = math.inf
    if not (lambda0_m > 0 and 0 < square < math.inf):
        raise ValueError(
            f"wavelength {lambda0_m:g} m is out of range: it must be positive "
            "and finite, and its square neither overflows nor underflows"
        )
    return square


def d_to_beta2(d_ps_nm_km: float, lambda0_m: float) -> float:
    """Convert a dispersion coefficient D (ps/nm/km) to beta2 (s^2/m)."""
    square = _lambda0_squared(lambda0_m)
    d_si = d_ps_nm_km * _D_CONVENTIONAL
    # + 0.0 normalizes the negative zero that the sign flip produces at D = 0
    return -d_si * square / (2.0 * math.pi * SPEED_OF_LIGHT) + 0.0


def beta2_to_d(beta2_s2_m: float, lambda0_m: float) -> float:
    """Convert beta2 (s^2/m) to the dispersion coefficient D (ps/nm/km)."""
    square = _lambda0_squared(lambda0_m)
    d_si = -beta2_s2_m * 2.0 * math.pi * SPEED_OF_LIGHT / square
    return d_si / _D_CONVENTIONAL + 0.0


def matched_length(beta2: float, z_m: float, pcf_beta2: float) -> float:
    """Length L = beta2 * z / beta2_pcf of a branch that cancels a span in one pass."""
    return beta2 * z_m / pcf_beta2


def dcf_path(z_m: float, beta2: float, dcf_beta2: float) -> float:
    """Length z * |beta2| / |beta2_dcf| of dcf that cancels a span, m."""
    return z_m * abs(beta2) / abs(dcf_beta2)


#: Largest stage count K for which the gain alpha * 2**(K+1) is a finite
#: double.
MAX_STAGES = 1022

#: Identifier of the pulse-width metric, recorded in all emitted outputs.
WIDTH_METRIC = "fwhm_intensity_linear_interp"

REGION_CSV_HEADER = "B_hz,z_max_m,alpha,beta2_si"


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def write_meta(outdir: Path, command: str, cfg: "ExperimentConfig", extra: dict) -> None:
    meta = {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "resolved_si": cfg.resolved(),
        "width_metric": WIDTH_METRIC,
    }
    meta.update(extra)
    _write_json(outdir / "meta.json", meta)


def run_region(cfg: "ExperimentConfig", outdir: Path) -> int:
    """Emit the stability boundary z_max(B) per alpha as region.csv.

    ``cfg`` has passed :func:`~dispersim.config.require_parts`: it has
    ``region.bandwidths_hz``.
    """
    lines = [REGION_CSV_HEADER]
    for b in cfg.region_bandwidths_hz:
        for alpha in sorted(cfg.alphas):
            z = z_max(b, alpha, cfg.fiber_beta2)
            lines.append(
                f"{fmt(b)},{fmt(z)},{fmt(alpha)},{fmt(cfg.fiber_beta2)}"
            )
    _write_text(outdir / "region.csv", lines)
    write_meta(outdir, "region", cfg, {"rows": len(lines) - 1})
    return 0
