"""The numpy-free base of the package: what the CLI needs before a numeric
command runs.

It holds the exceptions behind the CLI's exit codes, the speed of light,
the D <-> beta2 conversions and matched lengths, the constants the
configuration checks against, the range rule, the pulses' window rules,
the width metric's grids and table rule, and the ``region`` command (a
closed form in :mod:`dispersim.convergence`) with the emit helpers it
shares with :mod:`dispersim.experiments`. It imports the standard library
and :mod:`dispersim.convergence` only, so ``convert``, ``region`` on a
list axis and every refusal of :func:`~dispersim.config.check_run` run
without numpy. The numeric modules import from here only what they use.
"""

import json
import math
import sys
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


def check_window(pulse: str, width_s: float, n_samples: int, dt: float) -> int | None:
    """Raise :class:`WindowError` where a pulse does not fit its grid.

    The grid is ``n_samples`` points ``dt`` apart, as a
    :class:`~dispersim.signal.FrequencyGrid`'s. A ``"sinc"`` of zero-to-zero
    width ``width_s`` needs a window of at least 8 widths and its half band h
    (the bins of :func:`~dispersim.signal.make_sinc_band`) at most N/2 - 1
    bins; h is returned. A ``"gaussian"`` of 1/e half-width ``width_s``
    (t0) needs t0 >= 4*dt and a window of at least 16*t0.
    """
    window = n_samples * dt
    if pulse == "gaussian":
        if width_s < 4.0 * dt:
            raise WindowError(f"t0 = {width_s:.3e} s under-resolved: need t0 >= 4*dt")
        if window < 16.0 * width_s:
            raise WindowError(f"time window {window:.3e} s too small: need >= 16*t0")
        return None
    if window < 8.0 * width_s:
        raise WindowError(
            f"time window {window:.3e} s is below the 8x guard margin "
            f"for a {width_s:.3e} s wide pulse"
        )
    w_df = width_s * (1.0 / window)  # W * df: zero once the window leaves the float range
    half_band = 1.0 / w_df if w_df else math.inf  # pi*B in units of d_omega
    # capped at n, which fails the check below, so int() never sees inf
    h = int(round(min(half_band, n_samples)))
    if h > n_samples // 2 - 1:
        raise WindowError("time step too coarse: pulse bandwidth exceeds the grid band")
    return h


#: The width metric bounds a band's intensity on a coarse grid of at least
#: this many samples per band bin (a power of two, capped at the grid size).
COARSE_PER_BIN = 64
#: The width metric evaluates samples in rows of up to this many, one row per
#: interval of its evaluation grid (:func:`width_grids`).
ROW_SAMPLES = 16
#: Largest tables of direct sums the width metric builds, with its largest
#: coarse transform: 1 GiB of complex128.
MAX_TABLE_SIZE = 2**26


def width_grids(n_samples: int, h: int) -> tuple[int, int]:
    """The sizes (M, M_e) of the width metric's coarse and evaluation grids.

    For a band of half width h on an N-point grid, M is
    :data:`COARSE_PER_BIN` * h rounded up to a power of two and capped at N:
    the grid on which a reference bounds the bands near it. M_e is the grid
    on which every band is measured: N where M = N (every sample), and
    otherwise min(M, max(M/4, N / :data:`ROW_SAMPLES`)). So a row holds up
    to ROW_SAMPLES samples where M_e < M, and M_e >= 16h keeps the
    Bernstein factor 2*(pi*h/M_e)**2 of a band's chord bounds on its own
    samples at most 2*(pi/16)**2. M_e depends on (N, h) alone. Raises
    :class:`WindowError` where the table of direct sums, (2h+1) x (N/M_e +
    2) values, and the reference's M-point coarse transform, which is at
    least as large as the M_e roots of unity, would exceed
    :data:`MAX_TABLE_SIZE` values, before anything is allocated.
    """
    m = min(n_samples, 1 << max(1, (COARSE_PER_BIN * h - 1).bit_length()))
    if m == n_samples:
        return m, m
    # M/4 >= 16h, and every grid has 2 points at least (h = 0)
    m_e = min(m, max(m >> 2, n_samples // ROW_SAMPLES, 2))
    rows, r = 2 * h + 1, n_samples // m_e
    if rows * (r + 2) + m > MAX_TABLE_SIZE:
        raise WindowError(
            f"time step too fine: cannot allocate the width metric's "
            f"{rows}x{r + 2} table of direct sums and {m}-point coarse transform "
            f"(at most {MAX_TABLE_SIZE} values); use fewer samples"
        )
    return m, m_e


def require_normal(quantities) -> None:
    """Raise :class:`ConfigError` naming the first quantity out of range.

    ``quantities`` yields ``(key, value, *factors)``. The value must be a
    normal finite double, or an exact zero where one of its factors (the
    inputs that can make it zero) is zero, however its float rounds.
    """
    for key, value, *factors in quantities:
        if 0 not in factors and not sys.float_info.min <= abs(value) < math.inf:
            raise ConfigError(f"{key} is out of range: {value:g}, not a normal double")


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

    ``cfg`` has passed :func:`~dispersim.config.check_run`: it has
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
