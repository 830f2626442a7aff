"""Experiment runners behind the CLI: deterministic CSV/JSON emission.

All numeric CSV fields use 9 significant digits (:func:`fmt`, ``%.9g``)
and LF line endings so a fixed configuration reproduces byte-identical
output. The envelope CSVs hold millions of numbers per ``propagate``; they
are encoded a block of samples at a time by :func:`_encode_9g`, which
writes the bytes of :func:`fmt` for a whole array. It hands back to
:func:`fmt` only the values it cannot round exactly: magnitudes outside
[1e-290, 1e290] other than zero, and significands within 1e-6 of a
rounding tie. Every run also emits a ``meta.json`` holding the raw
configuration, its SI resolution and the pulse-width metric in use.
"""

import contextlib
import functools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .compensator import CompensatorSpec, compensate, compensation_latency, match_pcf
from .config import ConfigError, ExperimentConfig
from .convergence import dispersion_strength, edge_error, span_length, stable, z_max
from .fiber import FiberParams, dispersion_response, propagate
from .iterative import partial_sums
from .signal import (
    Envelope,
    FrequencyGrid,
    WIDTH_METRIC,
    band_intensity_fwhm,
    band_offsets,
    check_band_wraparound,
    make_gaussian_pulse,
    make_sinc_band,
    make_sinc_pulse,
)

REGION_CSV_HEADER = "B_hz,z_max_m,alpha,beta2_si"
SWEEP_CSV_HEADER = "xi,alpha,K,broadening_factor,residual_max"
ENVELOPE_CSV_HEADER = "t_s,re,im"
ENVELOPE_BLOCK = 4096  # samples per _envelope_csv block: about 2 MB of arrays in all


class DivergenceError(RuntimeError):
    """The requested operating point lies outside the convergence region."""


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


# _encode_9g writes each value into one row of FIELD NUL-padded byte slots;
# the NULs are dropped when the rows are joined, so a slot %g leaves out
# simply stays NUL:
#
#   slot 0        sign
#   slots 1-5     lead "0." to "0.000" of a fixed-notation value below 1
#   slots 6-23    the 9 significant digits, each followed by a point slot
#   slots 24-28   exponent "e+XX" or "e-XXX"
#   slots 29-30   unused
#   slot 31       column separator, left as the caller set it
FIELD = 32
_E_MIN, _E_MAX = -290, 290  # decimal exponents encoded without fmt
_TIE_MARGIN = 1e-6


@functools.cache
def _encoder_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of :func:`_encode_9g`, built on first use.

    - ``pow10``: 10**k at index k + 300 for k in [-300, 300], each correctly
      rounded (numpy's power is not);
    - ``group_text``: the 3 digits of each 3-digit group, each followed by a
      NUL point slot, and ``group_zeros``: its count of trailing zeros;
    - ``and_mask`` and ``or_mask``: 4 uint64 words per field. Row
      ``(e - _E_MIN) * 9 + z`` is for a 9-digit significand with decimal
      exponent e and z trailing zeros. The AND mask keeps the digits %g
      prints (and the separator); the OR mask adds the lead, the point and
      the exponent.
    """
    pow10 = np.array(
        [float(10**k) if k >= 0 else 1 / 10**-k for k in range(-300, 301)]
    )
    groups = [f"{j:03d}" for j in range(1000)]
    group_text = np.zeros((1000, 6), np.uint8)
    group_text[:, ::2] = np.array(groups, "S3").view(np.uint8).reshape(1000, 3)
    group_zeros = np.array([len(g) - len(g.rstrip("0")) for g in groups], np.int32)
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 9)
    text = np.zeros((e.size, FIELD), np.uint8)
    lead = [("0." + "0" * (-v - 1)) if -4 <= v < 0 else "" for v in e.tolist()]
    expo = ["" if f else f"e{v:+03d}" for v, f in zip(e.tolist(), fixed)]
    text[:, 1:6] = np.array(lead, "S5").view(np.uint8).reshape(-1, 5)
    text[:, 24:29] = np.array(expo, "S5").view(np.uint8).reshape(-1, 5)
    slot = np.arange(FIELD)
    k, is_point = np.divmod(slot - 6, 2)  # digit index of slots 6-23
    in_digits = (slot >= 6) & (slot < 24)
    point_after = np.where(fixed, e, 0)[:, None, None]  # digit before the point
    kept = 9 - np.arange(9)[:, None]  # digits left after the trailing zeros
    keep = in_digits & (is_point == 0) & ((k < kept) | (k <= point_after))
    fraction_left = kept > point_after + 1
    point = in_digits & (is_point == 1) & (k == point_after) & fraction_left
    and_mask = (keep | (slot == FIELD - 1)) * np.uint8(0xFF)
    or_mask = text[:, None, :] | point * np.uint8(ord("."))
    masks = [m.reshape(-1, FIELD).view(np.uint64) for m in (and_mask, or_mask)]
    tables = (pow10, group_text, group_zeros, *masks)
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _encode_9g(x: np.ndarray, fields: np.ndarray) -> None:
    """Write the bytes of :func:`fmt` of each value of ``x`` into ``fields``.

    ``fields`` is a uint8 array of shape ``x.shape + (FIELD,)`` whose last
    axis is contiguous; slot 31 of each row is kept. Every value of ``x``
    must be finite. The decimal exponent e of |v| comes from log10 with one
    correction pass, and its 9-digit significand from |v|·10^(8−e), rounded
    to nearest. Then e ∈ [−4, 9) gives fixed notation and any
    other e the d.dddddddde±XX form, without trailing zeros and a bare
    point. Zeros are encoded as "0" and "-0". Values the scaling cannot
    round exactly are formatted by :func:`fmt` and spliced in: magnitudes
    outside [1e-290, 1e290], and significands near a rounding tie.
    """
    pow10, group_text, group_zeros, and_mask, or_mask = _encoder_tables()
    a = np.abs(x)
    zero = a == 0.0
    by_fmt = ~zero & ((a < 1e-290) | (a > 1e290))
    a[zero | by_fmt] = 1.0
    e = np.floor(np.log10(a)).astype(np.int32)  # one off at most, near 10**e
    m = a * pow10.take(308 - e)  # |v|·10^(8−e)
    e += m >= 1e9
    e -= m < 1e8
    m = a * pow10.take(308 - e)
    # m carries two roundings (the table's and the product's), so it is
    # within 2**-52 of |v|·10^(8−e) relative: under 2.3e-7 below 1e9. Its
    # nearest integer is the exact one unless m lies that close to a tie;
    # a margin of 1e-6, over four times the bound, sends those to fmt.
    r = np.floor(m)
    frac = m - r
    by_fmt |= np.abs(frac - 0.5) < _TIE_MARGIN
    r += frac > 0.5
    carry = r >= 1e9  # 999999999.5 and up round to 1.00000000e(e+1)
    e += carry
    sig = np.where(carry, 1e8, r).astype(np.int32)
    hi, rest = np.divmod(sig, 1000000)
    mid, lo = np.divmod(rest, 1000)
    groups = np.stack([hi, mid, lo], axis=-1)
    fields[..., 6:24] = group_text.take(groups, axis=0).reshape(x.shape + (18,))
    zeros = np.where(
        lo > 0,
        group_zeros.take(lo),
        np.where(mid > 0, 3 + group_zeros.take(mid), 6 + group_zeros.take(hi)),
    )
    key = (e - _E_MIN) * 9 + zeros
    words = fields.view(np.uint64)
    words &= and_mask.take(key, axis=0)
    words |= or_mask.take(key, axis=0)
    fields[..., 6][zero] = ord("0")  # encoded as 1e0, then the digit swapped
    fields[..., 0] = np.signbit(x) * np.uint8(ord("-"))
    if by_fmt.any():
        where = np.nonzero(by_fmt)
        text = np.array([fmt(v) for v in x[where].tolist()], f"S{FIELD - 1}")
        text = text.view(np.uint8).reshape(-1, FIELD - 1)
        fields[where + (slice(FIELD - 1),)] = text


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_meta(outdir: Path, command: str, cfg: ExperimentConfig, extra: dict) -> None:
    meta = {
        "command": command,
        "version": __version__,
        "config": cfg.raw,
        "resolved_si": cfg.resolved(),
        "width_metric": WIDTH_METRIC,
    }
    meta.update(extra)
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    (outdir / "meta.json").write_text(text, encoding="utf-8", newline="\n")


def _grid(cfg: ExperimentConfig) -> FrequencyGrid:
    """The configured grid, which needs the signal section."""
    if cfg.pulse_width_s is None:
        raise ConfigError("signal section is required")
    return FrequencyGrid(cfg.n_samples, cfg.dt_s)


def build_pulse(cfg: ExperimentConfig) -> Envelope:
    """The transmitted pulse on the configured grid (``tx.grid``)."""
    grid = _grid(cfg)
    if cfg.pulse == "sinc":
        return make_sinc_pulse(grid, cfg.pulse_width_s)
    return make_gaussian_pulse(grid, cfg.pulse_width_s)


def _require_convergence(cfg: ExperimentConfig, alpha: float) -> None:
    """Raise :class:`DivergenceError` when (B, z, alpha) lies outside the region."""
    if not stable(alpha, cfg.fiber_beta2, cfg.bandwidth_hz, cfg.z_m):
        raise DivergenceError(
            f"(B={cfg.bandwidth_hz:.6g} Hz, z={cfg.z_m:.6g} m, alpha={alpha:.6g}) "
            "lies outside the convergence region"
        )


def run_region(cfg: ExperimentConfig, outdir: Path) -> int:
    """Emit the stability boundary z_max(B) per alpha as region.csv."""
    if cfg.region_bandwidths_hz is None:
        raise ConfigError("region.bandwidths_hz is required for the region command")
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


@dataclass(frozen=True)
class Stage:
    """One K of a stage search; the factor is None where the pair diverges."""

    k: int
    broadening_factor: float | None
    residual_max: float


def _stage_search(cfg: ExperimentConfig, grid, tx_band, tx_width: float, z_m, alphas):
    """Yield ``(alpha, [Stage per K of cfg.k_list])`` for each alpha on one span.

    Everything runs on the bins of the sinc's band ``tx_band``
    (:func:`make_sinc_band` on ``grid``); no N-point array is built. The span
    is propagated once, at its first converging alpha, and never when every
    alpha diverges; a diverged alpha builds no response. The propagation
    keeps both wraparound guards of the full-grid path: the span's, on the
    sent pulse (:func:`propagate`), and the K stages', on the received one
    (:func:`compensate`). The pcf response is built once per span, as the
    matched length does not depend on alpha; then each alpha's error
    response E_D, its running partial sum and the width of every K's
    output. The output spectrum is the one :func:`compensate` forms there,
    and :func:`band_intensity_fwhm` measures it as :func:`intensity_fwhm`
    would measure its inverse transform.
    """
    beta2, bandwidth = cfg.fiber_beta2, cfg.bandwidth_hz
    fiber = FiberParams(beta2, z_m)
    rx_band = None
    for alpha in alphas:
        factors = [None] * len(cfg.k_list)
        if stable(alpha, beta2, bandwidth, z_m):
            sub = match_pcf(fiber, cfg.pcf_beta2, alpha=alpha)
            if rx_band is None:
                check_band_wraparound(grid, tx_band, beta2 * z_m, tx_width)
                offsets = band_offsets(grid, tx_band.size // 2)
                rx_band = tx_band * dispersion_response(fiber, offsets)
                k_gvd = cfg.k_list[-1] * abs(sub.pcf.beta2) * sub.length_m
                rx_width = band_intensity_fwhm(grid, rx_band)
                check_band_wraparound(grid, rx_band, k_gvd, rx_width)
                h_pcf = dispersion_response(sub.pcf, offsets)
            e_d = 1.0 - math.sqrt(alpha) * h_pcf
            factors = []
            for k, partial in enumerate(partial_sums(e_d, cfg.k_list[-1])):
                if k in cfg.k_list:
                    prefactor = CompensatorSpec(sub, k).prefactor
                    out = rx_band * (prefactor * partial)
                    factors.append(band_intensity_fwhm(grid, out) / tx_width)
        worst = edge_error(alpha, beta2, bandwidth, z_m)
        yield alpha, [
            Stage(k, factor, worst ** (k + 1)) for k, factor in zip(cfg.k_list, factors)
        ]


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> int:
    """Broadening factor against stage count for each (xi, alpha) pair.

    The pulse's band is built and its width measured once per run; each
    xi's span runs one :func:`_stage_search` over the sorted alphas.
    """
    if cfg.pcf_beta2 is None:
        raise ConfigError("pcf section is required for the sweep-k command")
    if cfg.pulse != "sinc":
        raise ConfigError("sweep-k runs on sinc pulses")
    grid = _grid(cfg)
    tx_band = make_sinc_band(grid, cfg.pulse_width_s)
    tx_width = band_intensity_fwhm(grid, tx_band)
    lines = [SWEEP_CSV_HEADER]
    diverged = 0
    for xi in cfg.xi_values:
        z_m = span_length(xi, cfg.fiber_beta2, cfg.bandwidth_hz)
        search = _stage_search(cfg, grid, tx_band, tx_width, z_m, sorted(cfg.alphas))
        for alpha, stages in search:
            for s in stages:
                factor = s.broadening_factor
                diverged += factor is None
                factor = "diverged" if factor is None else fmt(factor)
                lines.append(
                    f"{fmt(xi)},{fmt(alpha)},{s.k},{factor},{fmt(s.residual_max)}"
                )
    _write_text(outdir / "sweep.csv", lines)
    write_meta(
        outdir, "sweep-k", cfg, {"rows": len(lines) - 1, "diverged_rows": diverged}
    )
    return 0


def run_scenario(cfg: ExperimentConfig, outdir: Path) -> int:
    """Single-link design report: strength, matched lengths, stage search."""
    if cfg.z_m is None:
        raise ConfigError("fiber.z_km is required for the scenario command")
    if cfg.pcf_beta2 is None:
        raise ConfigError("pcf section is required for the scenario command")
    if cfg.pulse != "sinc":
        raise ConfigError("scenario runs on sinc pulses")
    grid = _grid(cfg)
    tx_band = make_sinc_band(grid, cfg.pulse_width_s)
    bandwidth = cfg.bandwidth_hz
    alpha = cfg.alphas[0]
    _require_convergence(cfg, alpha)
    xi = dispersion_strength(cfg.fiber_beta2, cfg.z_m, bandwidth)
    sub = match_pcf(FiberParams(cfg.fiber_beta2, cfg.z_m), cfg.pcf_beta2, alpha=alpha)
    tx_width = band_intensity_fwhm(grid, tx_band)
    [(_, stages)] = _stage_search(cfg, grid, tx_band, tx_width, cfg.z_m, [alpha])
    required_k = next(
        (s.k for s in stages if s.broadening_factor <= cfg.target_broadening), None
    )
    report = {
        "scenario": cfg.scenario,
        "inputs": {
            "bandwidth_hz": bandwidth,
            "lambda0_m": cfg.lambda0_m,
            "z_m": cfg.z_m,
            "fiber_beta2_s2_m": cfg.fiber_beta2,
            "pcf_beta2_s2_m": cfg.pcf_beta2,
            "alpha": alpha,
        },
        "dispersion_strength": {
            "value": xi,
            "formula": "|beta2_fib| * z * (2*pi*B)^2",
        },
        "matched_subsystem": {
            "length_m": sub.length_m,
            "formula": "L = beta2_fib * z / beta2_pcf",
        },
        "stage_search": {
            "target_broadening": cfg.target_broadening,
            "k_table": [asdict(s) for s in stages],
            "required_k": required_k,
        },
        "width_metric": WIDTH_METRIC,
    }
    if required_k is not None:
        report["compensator_path"] = {
            "length_m": required_k * sub.length_m,
            "formula": "K * L",
            "latency_s": compensation_latency(CompensatorSpec(sub, required_k)),
            "latency_formula": "K * L * beta1_smf",
        }
    if cfg.dcf_beta2 is not None:
        dcf = {
            "beta2_s2_m": cfg.dcf_beta2,
            "path_m": cfg.z_m * abs(cfg.fiber_beta2) / abs(cfg.dcf_beta2),
            "formula": "z * |beta2_fib| / |beta2_dcf|",
        }
        if cfg.dcf_quoted_path_m is not None:
            dcf["quoted_path_m"] = cfg.dcf_quoted_path_m
        report["dcf_comparison"] = dcf
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (outdir / "scenario.json").write_text(text, encoding="utf-8", newline="\n")
    write_meta(outdir, "scenario", cfg, {"required_k": required_k})
    return 0


def _envelope_csv(outdir: Path, envelopes: dict) -> None:
    """Write each ``file name -> Envelope`` as ``t_s,re,im`` lines, all together.

    The envelopes share one grid. Each block of ``ENVELOPE_BLOCK`` lines is
    one array of ``t,re,im`` rows of :func:`_encode_9g` fields: the time
    column is encoded once and kept for every file, each file's re and im
    columns are encoded over the last file's, and the block is written
    without its NULs. Every value reads as :func:`fmt` writes it.
    """
    t = next(iter(envelopes.values())).grid.time_axis
    rows = np.zeros((min(ENVELOPE_BLOCK, t.size), 3, FIELD), np.uint8)
    rows[:, :, -1] = np.frombuffer(b",,\n", np.uint8)
    with contextlib.ExitStack() as stack:
        files = []
        for name, e in envelopes.items():
            handle = stack.enter_context((outdir / name).open("wb"))
            handle.write(ENVELOPE_CSV_HEADER.encode() + b"\n")
            files.append((handle, e.samples.view(np.float64).reshape(-1, 2)))
        for lo in range(0, t.size, ENVELOPE_BLOCK):
            hi = lo + ENVELOPE_BLOCK
            block = rows[: t.size - lo]
            _encode_9g(t[lo:hi], block[:, 0])
            for handle, re_im in files:
                _encode_9g(re_im[lo:hi], block[:, 1:])
                handle.write(block.tobytes().translate(None, b"\0"))


def run_propagate(cfg: ExperimentConfig, outdir: Path) -> int:
    """Dump the envelopes before/after the fiber (and compensator), all or none."""
    if cfg.z_m is None:
        raise ConfigError("fiber.z_km is required for the propagate command")
    tx = build_pulse(cfg)
    if cfg.pcf_beta2 is not None and cfg.bandwidth_hz:  # a gaussian has no band
        _require_convergence(cfg, cfg.alphas[0])
    fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
    rx = propagate(tx, fiber)
    envelopes = {"envelope_input.csv": tx, "envelope_dispersed.csv": rx}
    extra = {"compensated": False}
    if cfg.pcf_beta2 is not None:
        sub = match_pcf(fiber, cfg.pcf_beta2, alpha=cfg.alphas[0])
        spec = CompensatorSpec(sub, cfg.k_list[-1])
        envelopes["envelope_compensated.csv"] = compensate(rx, spec)
        extra = {"compensated": True, "k_stages": cfg.k_list[-1]}
    _envelope_csv(outdir, envelopes)
    write_meta(outdir, "propagate", cfg, extra)
    return 0
