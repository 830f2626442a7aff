"""Experiment runners behind the CLI: deterministic CSV/JSON emission.

All numeric CSV fields use 9 significant digits (:func:`fmt`, ``%.9g``)
and LF line endings so a fixed configuration reproduces byte-identical
output. The envelope CSVs hold millions of numbers per ``propagate``; they
are encoded a block of samples at a time by :func:`_encode_9g`, which
writes the bytes of :func:`fmt` for a whole array. It builds each value's
field as four uint64 words, from one lookup for its layout and one for each
3-digit group of its significand, in a work array allocated once per dump,
and copies them into the block once. It hands back to :func:`fmt` only
the values it does not round itself: magnitudes outside [1e-290, 1e290]
other than zero, and exact rounding ties. Every run also
emits a ``meta.json`` holding the raw configuration, its SI resolution and
the pulse-width metric in use.

``sweep-k`` and ``scenario`` measure the width of every K's output on the
sinc's band bins (:func:`band_intensity_fwhm`). The sent band is measured
once per run, and its coarse bounds (:func:`band_reference`) stand in for
the coarse transform of any output close enough to it, which the stage
search's outputs become as K grows; the widths are the same bits either way.
"""

import contextlib
import functools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .compensator import (
    CompensatorSpec,
    compensate,
    compensation_latency,
    match_pcf,
    stage_responses,
)
from .config import ConfigError, ExperimentConfig, require_normal
from .convergence import dispersion_strength, edge_error, span_length, stable, z_max
from .fiber import FiberParams, dispersion_response, propagate
from .signal import (
    Envelope,
    FrequencyGrid,
    WIDTH_METRIC,
    BandReference,
    band_intensity_fwhm,
    band_offsets,
    band_reference,
    band_samples,
    check_band_wraparound,
    make_gaussian_pulse,
    make_sinc_band,
    make_sinc_pulse,
)

REGION_CSV_HEADER = "B_hz,z_max_m,alpha,beta2_si"
SWEEP_CSV_HEADER = "xi,alpha,K,broadening_factor,residual_max"
ENVELOPE_CSV_HEADER = "t_s,re,im"
ENVELOPE_BLOCK = 4096  # samples per _envelope_csv block: about 1.8 MB of arrays at peak


class DivergenceError(RuntimeError):
    """The requested operating point lies outside the convergence region."""


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


# _encode_9g builds each value as one row of FIELD NUL-padded byte slots, held
# as WORDS uint64 words; the NULs are dropped when the rows are joined, so a
# slot %g leaves out simply stays NUL:
#
#   slot 0        sign                                        word 0
#   slots 1-5     lead "0." to "0.000" of a fixed-notation    word 0
#                 value below 1
#   slots 6-23    the 9 significant digits, each followed     words 0-2
#                 by a point slot: the hi 3-digit group in
#                 slots 6-11, mid in 12-17 and lo in 18-23
#   slots 24-28   exponent "e+XX" or "e-XXX"                  word 3
#   slots 29-30   unused                                      word 3
#   slot 31       column separator, left as the caller set it word 3
FIELD = 32
WORDS = FIELD // 8
_E_MIN, _E_MAX = -290, 290  # decimal exponents encoded without fmt
_TIE_MARGIN = 1e-6
_SPLIT = 2.0**27 + 1  # Dekker's split of a double into two 26-bit halves


def _pow10_pair(k: int) -> tuple[float, float]:
    """10**k as hi + lo: hi correctly rounded, lo the correctly rounded rest.

    Both come from exact rationals: Python's int / int rounds correctly.
    """
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _words(fields: np.ndarray) -> np.ndarray:
    """Byte rows of FIELD slots as rows of WORDS words.

    OR-ing words ORs their bytes slot by slot, and copying them copies the
    bytes, whatever the host's byte order.
    """
    return np.ascontiguousarray(fields, np.uint8).view(np.uint64)


@functools.cache
def _encoder_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of :func:`_encode_9g`, built on first use.

    - ``pow10``: 10**k at index k + 300 for k in [-300, 300], each correctly
      rounded (numpy's power is not), and ``pow10_lo``: the rest 10**k - hi,
      correctly rounded, so that the pair holds 10**k to about 2**-106;
    - ``hi_words``, ``mid_words`` and ``lo_words``: row j holds the digits
      of the 3-digit group j in that group's slots, and row j + 1000 the
      same without their trailing zeros, for a group whose later groups are
      all zero (always, for lo). ``stripped_zeros`` counts the zeros a row
      leaves out;
    - ``or_words``: row ``(e - _E_MIN) * 10 + z`` is for a 9-digit
      significand with decimal exponent e and z trailing zeros (z = 9 for
      a zero). It holds the lead, the point, the exponent and the zeros of
      the integer part, which the stripped group rows leave out;
    - ``minus``: the word 0 of a "-" sign, and ``separator``: a mask of
      slot 31 in word 3.
    """
    pow10, pow10_lo = np.array([_pow10_pair(k) for k in range(-300, 301)]).T.copy()
    groups = [f"{j:03d}" for j in range(1000)]
    stripped = [g.rstrip("0") for g in groups]
    stripped_zeros = np.array([0] * 1000 + [3 - len(g) for g in stripped], np.intp)
    digits = np.array(groups + stripped, "S3").view(np.uint8).reshape(2000, 3)
    group_words = []
    for first in (6, 12, 18):  # the hi, mid and lo groups
        rows = np.zeros((2000, FIELD), np.uint8)
        rows[:, first : first + 6 : 2] = digits
        group_words.append(_words(rows))
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
    kept = 9 - np.arange(10)[:, None]  # digits left after the trailing zeros
    zero = in_digits & (is_point == 0) & (k >= kept) & (k <= point_after)
    fraction_left = kept > point_after + 1
    point = in_digits & (is_point == 1) & (k == point_after) & fraction_left
    layout = text[:, None, :] | zero * np.uint8(ord("0")) | point * np.uint8(ord("."))
    or_words = _words(layout.reshape(-1, FIELD))
    marks = np.zeros((2, FIELD), np.uint8)
    marks[0, 0] = ord("-")
    marks[1, FIELD - 1] = 0xFF
    minus, separator = _words(marks)[[0, 1], [0, WORDS - 1]]
    tables = (pow10, pow10_lo, stripped_zeros, *group_words, or_words)
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return (*tables, minus, separator)


def _encode_9g(
    x: np.ndarray, fields: np.ndarray, work: np.ndarray | None = None
) -> None:
    """Write the bytes of :func:`fmt` of each value of ``x`` into ``fields``.

    ``fields`` is a uint8 array of shape ``x.shape + (FIELD,)`` whose last
    axis is contiguous; slot 31 of each row is kept. ``work``, if given, is
    a uint64 array of shape ``(2, n, WORDS)`` with n >= x.size, reused from
    call to call. Every value of ``x`` must be finite. The decimal exponent e
    of |v| comes from log10 with one correction pass, and its 9-digit
    significand from |v|·10^(8−e), rounded to nearest. Then e ∈ [−4, 9)
    gives fixed notation and any other e the d.dddddddde±XX form, without
    trailing zeros and a bare point. Zeros are encoded as "0" and "-0". A
    significand within 1e-6 of a rounding tie is rounded by the exact
    comparison of :func:`_tie_side`. Each field is built in ``work`` as
    WORDS words, from one row of the layout table and one of each digit
    group's table, and copied into ``fields`` with its sign and separator.
    The rest are formatted by :func:`fmt` and spliced in: magnitudes
    outside [1e-290, 1e290], and exact ties, which %g rounds to even.
    """
    (pow10, pow10_lo, stripped_zeros, hi_words, mid_words, lo_words, or_words,
     minus, separator) = _encoder_tables()
    if work is None:
        work = np.empty((2, x.size, WORDS), np.uint64)
    words, part = work[:, : x.size]
    a = np.abs(x)
    zero = a == 0.0
    by_fmt = ~zero & ((a < 1e-290) | (a > 1e290))
    a[zero | by_fmt] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # one off at most, near 10**e
    m = a * pow10.take(308 - e)  # |v|·10^(8−e)
    e += m >= 1e9
    e -= m < 1e8
    m = a * pow10.take(308 - e)
    # m carries two roundings (the table's and the product's), so it is
    # within 2**-52 of |v|·10^(8−e) relative: under 2.3e-7 below 1e9. Its
    # nearest integer is the exact one unless m lies that close to a tie;
    # within a margin of 1e-6, over four times the bound, the side of the
    # tie is decided exactly, and only an exact tie goes to fmt.
    r = np.floor(m)
    frac = m - r
    up = frac > 0.5
    near = np.nonzero(np.abs(frac - 0.5) < _TIE_MARGIN)
    if near[0].size:
        k = 308 - e[near]
        side = _tie_side(a[near], pow10.take(k), pow10_lo.take(k), r[near] + 0.5)
        up[near] = side > 0
        by_fmt[near] |= side == 0
    r += up
    carry = r >= 1e9  # 999999999.5 and up round to 1.00000000e(e+1)
    e += carry
    r[carry] = 1e8
    r[zero] = 0.0  # every group stripped: or_words writes the "0"
    lo = r.astype(np.intp).ravel()  # the groups are split off in place
    mid = lo // 1000
    hi = mid // 1000
    lo -= mid * 1000
    mid -= hi * 1000
    lo += 1000  # the last group's row is always a stripped one
    mid += (lo == 1000) * 1000  # a group's stripped row follows a stripped 0
    hi += (mid == 1000) * 1000
    zeros = stripped_zeros.take(hi) + stripped_zeros.take(mid)
    zeros += stripped_zeros.take(lo)
    # every row index is in range by construction, which mode="clip" takes
    # for granted: it skips the bounds check and writes to out= directly
    or_words.take((e.ravel() - _E_MIN) * 10 + zeros, axis=0, out=words, mode="clip")
    for table, group in ((hi_words, hi), (mid_words, mid), (lo_words, lo)):
        table.take(group, axis=0, out=part, mode="clip")
        words |= part
    words[:, 0] |= np.signbit(x.ravel()) * minus
    dest = fields.view(np.uint64)
    words[:, -1] |= (dest[..., -1] & separator).ravel()
    dest[...] = words.reshape(dest.shape)
    if by_fmt.any():
        where = np.nonzero(by_fmt)
        text = np.array([fmt(v) for v in x[where].tolist()], f"S{FIELD - 1}")
        text = text.view(np.uint8).reshape(-1, FIELD - 1)
        fields[where + (slice(FIELD - 1),)] = text


def _tie_side(a, hi, lo, tie):
    """Sign of a·(hi + lo) − tie, with 0 where they are equal up to rounding.

    ``hi + lo`` is a pair of :func:`_pow10_pair`, and a·hi lies within 1e-6
    of ``tie`` = r + 1/2 with r in [1e8, 1e9). Dekker's product gives a·hi
    exactly as p + err, and p − tie is exact (Sterbenz), so the sum below
    is off by about 2**-104 of ``tie`` at most. A gap that small is treated
    as an exact tie.
    """
    p = a * hi
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    h_hi = _SPLIT * hi
    h_hi -= h_hi - hi
    a_lo, h_lo = a - a_hi, hi - h_hi
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    gap = (p - tie) + (err + a * lo)
    return np.where(np.abs(gap) > tie * 2.0**-96, np.sign(gap), 0.0)


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


@dataclass(frozen=True, eq=False)
class _Sent:
    """A sinc's band on its grid (:func:`make_sinc_band`), and its width.

    ``reference`` is the band's :func:`band_reference`, which measures every
    band near it, such as the stage search's converging outputs, without a
    coarse transform of its own; ``width`` is measured through it too.
    """

    grid: FrequencyGrid
    band: np.ndarray
    reference: BandReference | None
    width: float


def _sent_band(grid: FrequencyGrid, band: np.ndarray) -> _Sent:
    """The sent band of :func:`make_sinc_band`, measured once per run."""
    reference = band_reference(grid, band)
    return _Sent(grid, band, reference, band_intensity_fwhm(grid, band, reference))


def _propagate_band(sent: _Sent, fiber: FiberParams, spec):
    """The received band over ``fiber``, and the pcf response of ``spec`` at its bins.

    ``sent`` is a sinc's band and width; no N-point array is built. The
    propagation keeps the wraparound guards of the full-grid path: the
    span's, on the sent pulse (:func:`propagate`), and, with a
    :class:`CompensatorSpec`, the K stages', on the received one
    (:func:`compensate`). Where ``spec`` is None the pcf response is too.
    """
    grid, tx_band = sent.grid, sent.band
    check_band_wraparound(grid, tx_band, fiber.beta2 * fiber.length_m, sent.width)
    offsets = band_offsets(grid, tx_band.size // 2)
    rx_band = tx_band * dispersion_response(fiber, offsets)
    if spec is None:
        return rx_band, None
    rx_width = band_intensity_fwhm(grid, rx_band, sent.reference)
    check_band_wraparound(grid, rx_band, spec.stage_gvd, rx_width)
    return rx_band, dispersion_response(spec.subsystem.pcf, offsets)


def _stage_search(cfg: ExperimentConfig, sent: _Sent, z_m, alphas):
    """Yield ``(alpha, [Stage per K of cfg.k_list])`` for each alpha on one span.

    Everything runs on the bins of the sent sinc's band; no N-point array
    is built. The span is propagated and guarded once
    (:func:`_propagate_band`, to the last K), at its first converging
    alpha, and never when every alpha diverges; a diverged alpha builds no
    response. The pcf response is built once per span, as the matched
    length does not depend on alpha; then each alpha's
    :func:`stage_responses` and the width of every K's output. The output
    spectrum is the one :func:`compensate` forms there, and
    :func:`band_intensity_fwhm` measures it as :func:`intensity_fwhm` would
    measure its inverse transform. As K grows the output nears the sent
    band, and from there on the sent band's reference bounds it, so those
    widths take no coarse transform.
    """
    beta2, bandwidth = cfg.fiber_beta2, cfg.bandwidth_hz
    fiber = FiberParams(beta2, z_m)
    rx_band = None
    for alpha in alphas:
        factors = [None] * len(cfg.k_list)
        if stable(alpha, beta2, bandwidth, z_m):
            sub = match_pcf(fiber, cfg.pcf_beta2, alpha=alpha)
            if rx_band is None:
                spec = CompensatorSpec(sub, cfg.k_list[-1])
                rx_band, h_pcf = _propagate_band(sent, fiber, spec)
            factors = [
                band_intensity_fwhm(sent.grid, rx_band * response, sent.reference)
                / sent.width
                for response in stage_responses(sub, h_pcf, cfg.k_list)
            ]
        worst = edge_error(alpha, beta2, bandwidth, z_m)
        yield alpha, [
            Stage(k, factor, worst ** (k + 1)) for k, factor in zip(cfg.k_list, factors)
        ]


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> int:
    """Broadening factor against stage count for each (xi, alpha) pair.

    The pulse's band is built and measured once per run (:func:`_sent_band`);
    each xi's span runs one :func:`_stage_search` over the sorted alphas.
    """
    if cfg.pcf_beta2 is None:
        raise ConfigError("pcf section is required for the sweep-k command")
    if cfg.pulse != "sinc":
        raise ConfigError("sweep-k runs on sinc pulses")
    grid = _grid(cfg)
    sent = _sent_band(grid, make_sinc_band(grid, cfg.pulse_width_s))
    lines = [SWEEP_CSV_HEADER]
    diverged = 0
    for xi in cfg.xi_values:
        z_m = span_length(xi, cfg.fiber_beta2, cfg.bandwidth_hz)
        search = _stage_search(cfg, sent, z_m, sorted(cfg.alphas))
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
    sent = _sent_band(grid, tx_band)
    [(_, stages)] = _stage_search(cfg, sent, cfg.z_m, [alpha])
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
    without its NULs. Every call of the encoder builds its words in one work
    array, allocated here. Every value reads as :func:`fmt` writes it.
    """
    t = next(iter(envelopes.values())).grid.time_axis
    rows = np.zeros((min(ENVELOPE_BLOCK, t.size), 3, FIELD), np.uint8)
    rows[:, :, -1] = np.frombuffer(b",,\n", np.uint8)
    work = np.empty((2, 2 * len(rows), WORDS), np.uint64)  # fits re and im
    with contextlib.ExitStack() as stack:
        files = []
        for name, e in envelopes.items():
            handle = stack.enter_context((outdir / name).open("wb"))
            handle.write(ENVELOPE_CSV_HEADER.encode() + b"\n")
            files.append((handle, e.samples.view(np.float64).reshape(-1, 2)))
        for lo in range(0, t.size, ENVELOPE_BLOCK):
            hi = lo + ENVELOPE_BLOCK
            block = rows[: t.size - lo]
            _encode_9g(t[lo:hi], block[:, 0], work)
            for handle, re_im in files:
                _encode_9g(re_im[lo:hi], block[:, 1:], work)
                handle.write(block.tobytes().translate(None, b"\0"))


def _sinc_envelopes(cfg: ExperimentConfig, fiber: FiberParams, spec) -> dict:
    """The dispersed and, unless ``spec`` is None, compensated sinc, on its band bins.

    The sent band is :func:`make_sinc_band`, propagated and guarded by
    :func:`_propagate_band`; the compensated band is the received one times
    :func:`stage_responses` of the one K. Only the last step leaves the
    band: each envelope is the N-point inverse transform of its band
    (:func:`band_samples`). No bin outside the band holds rounding noise
    for the cascade to amplify, whatever K.
    """
    grid = _grid(cfg)
    sent = _sent_band(grid, make_sinc_band(grid, cfg.pulse_width_s))
    rx_band, h_pcf = _propagate_band(sent, fiber, spec)
    bands = {"envelope_dispersed.csv": rx_band}
    if spec is not None:
        [response] = stage_responses(spec.subsystem, h_pcf, [spec.k_stages])
        bands["envelope_compensated.csv"] = rx_band * response
    return {name: Envelope(grid, band_samples(grid, b)) for name, b in bands.items()}


def run_propagate(cfg: ExperimentConfig, outdir: Path) -> int:
    """Dump the envelopes before/after the fiber (and compensator), all or none.

    A sinc is propagated on its band bins (:func:`_sinc_envelopes`), a
    gaussian, which has no band, on the full grid (:func:`propagate` and
    :func:`compensate`). The input envelope is :func:`build_pulse` either way.
    """
    if cfg.z_m is None:
        raise ConfigError("fiber.z_km is required for the propagate command")
    tx = build_pulse(cfg)
    w_sq = (np.pi / cfg.dt_s) * (np.pi / cfg.dt_s)  # the full grid's largest dw**2
    # its responses form beta2 / 2 * dw**2, which may underflow but not overflow
    half_beta2 = max(1.0, abs(cfg.fiber_beta2) / 2, abs(cfg.pcf_beta2 or 0.0) / 2)
    require_normal([
        ("(pi / dt_s)**2", w_sq),
        ("max(1, |beta2| / 2) * (pi / dt_s)**2", half_beta2 * w_sq),
    ])
    if cfg.pcf_beta2 is not None and cfg.bandwidth_hz:  # a gaussian has no band
        _require_convergence(cfg, cfg.alphas[0])
    fiber = FiberParams(cfg.fiber_beta2, cfg.z_m)
    spec = None
    extra = {"compensated": False}
    if cfg.pcf_beta2 is not None:
        sub = match_pcf(fiber, cfg.pcf_beta2, alpha=cfg.alphas[0])
        spec = CompensatorSpec(sub, cfg.k_list[-1])
        extra = {"compensated": True, "k_stages": cfg.k_list[-1]}
    envelopes = {"envelope_input.csv": tx}
    if cfg.pulse == "sinc":
        envelopes.update(_sinc_envelopes(cfg, fiber, spec))
    else:
        envelopes["envelope_dispersed.csv"] = rx = propagate(tx, fiber)
        if spec is not None:
            envelopes["envelope_compensated.csv"] = compensate(rx, spec)
    _envelope_csv(outdir, envelopes)
    write_meta(outdir, "propagate", cfg, extra)
    return 0
