"""Experiment runners behind the CLI: deterministic CSV/JSON emission.

All numeric CSV fields use 9 significant digits (:func:`fmt`, ``%.9g``)
and LF line endings so a fixed configuration reproduces byte-identical
output. Every run also emits a ``meta.json`` holding the raw
configuration, its SI resolution and the pulse-width metric in use.
Those emit helpers and the ``region`` runner, which needs no numpy, live
in :mod:`dispersim.base`.

The sinc commands run on the sinc's band bins: ``sweep-k`` and
``scenario`` through :func:`_stage_search`, ``propagate`` through
:func:`_sinc_envelopes`. The matched pcf's response is the span's own, so
each span has one, and the pcf's D sets only ``scenario``'s lengths and
latency. Each command measures every width of its run in one
:func:`band_outcomes` call and reports the outcomes in its own order,
with a wraparound guard (:func:`_guard_span`) between them. The
envelope CSVs are written by :func:`_envelope_csv`, with the encoder
:func:`_encode_9g`.
"""

import contextlib
import functools
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .base import (
    WIDTH_METRIC,
    DivergenceError,
    _write_json,
    _write_text,
    dcf_path,
    fmt,
    write_meta,
)
from .compensator import (
    CompensatorSpec,
    compensate,
    compensation_latency,
    match_pcf,
    stage_responses,
)
from .config import ExperimentConfig
from .convergence import dispersion_strength, edge_error, span_length, stable
from .fiber import FiberParams, dispersion_response, propagate
from .signal import (
    FrequencyGrid,
    BandReference,
    band_outcomes,
    band_reference,
    band_samples,
    check_wraparound,
    make_gaussian_pulse,
    make_sinc_band,
    report_outcomes,
)

ENVELOPE_CSV_HEADER = "t_s,re,im"
ENVELOPE_BLOCK = 4096  # samples per _envelope_csv block: about 1.2 MB of arrays at peak


# _encode_9g builds each value as one row of FIELD NUL-padded byte slots, held
# as WORDS uint64 words; the NULs are dropped when the rows are joined, so a
# slot %g leaves out simply stays NUL. Where the 9 significant digits go
# depends on the decimal exponent e, through the point:
#
#   slot 0        sign                                        word 0
#   slots 1-5     lead "0." to "0.000", below 1 in fixed      word 0
#                 notation (e < 0); the digits follow in
#                 slots 6-14
#   slots 1-10    otherwise the digits and the point, which   words 0-1
#                 follows digit 1 in the d.dddddddde±XX form
#                 and digit e + 1 in fixed notation (e >= 0)
#   slots 11-15   exponent "e+XX" or "e-XXX"                  word 1
#
# The longest fields, such as -1.23456789e-100, fill all 16 slots. Each
# 3-digit group's row holds its digits at their slots and, where the point
# falls in or just before the group, the point. The column separators lie
# outside the fields (_envelope_csv).
FIELD = 16
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
    - ``binade_exponent``: floor(log10(2**p)) at the biased binary exponent
      p + 1023 of a double, for p in [-1023, 1024]. (p * 78913) >> 18 is
      that floor, exactly, for |p| <= 1650;
    - ``group_words``: 16 blocks, one per placement of each 3-digit group
      (hi, mid, lo) that a value reaches. A placement sets the slots of the
      group's digits and whether the point is the group's to write: 0 to 3
      of its digits before the point, or all of them after a lead. Row j
      of a block holds group value j, and row j + 1000 the same without
      the trailing zeros after the point, for a group whose later groups
      are all zero; lo's blocks hold only these, at rows j. A row that
      keeps a digit after the point also holds the point, if it lies in or
      just before the group;
    - ``group_base``: row g, column e - _E_MIN holds the first row of the
      block of group g at decimal exponent e;
    - ``or_words``: row ``(e - _E_MIN) + 581 * s`` holds the sign (s = 1
      for "-"), the lead and the exponent of a value with decimal
      exponent e.
    """
    pow10, pow10_lo = np.array([_pow10_pair(k) for k in range(-300, 301)]).T.copy()
    binade_exponent = (np.arange(-1023, 1025) * 78913) >> 18
    j = np.arange(2000) % 1000  # each row's group value
    digits = np.stack([j // 100, j // 10 % 10, j % 10], axis=1).astype(np.uint8)
    digits += ord("0")
    # the digits up to the last nonzero one in the stripped rows, all 3 above
    nonzero = np.sign(j) + np.sign(j % 100) + np.sign(j % 10)
    nonzero[:1000] = 3
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 9)
    point_after = np.where(fixed, e, 0)  # the digit index the point follows
    # placement p of group g: 0 where the point lies before one of its
    # earlier groups, 1 to 3 where 0 to 2 of its digits come before the
    # point (the point is the group's), 4 where all 3 do, 5 after a lead
    group = np.arange(3)[:, None]
    ahead = np.minimum(np.maximum(point_after + 1 - 3 * group, -1), 3)  # digits before it
    # the blocks a value reaches: hi's placements 2 to 5 (it has a digit before
    # the point or follows a lead), mid's six, and lo's stripped rows alone
    sizes = np.array([[0, 0] + [2000] * 4, [2000] * 6, [1000] * 6])
    block_start = (np.cumsum(sizes) - sizes.ravel()).reshape(3, 6)
    group_base = block_start[group, np.where(point_after < 0, 5, ahead + 1)]
    group_rows = np.zeros((sizes.sum(), FIELD), np.uint8)
    i = np.arange(3)
    for p, before in enumerate([0, 0, 1, 2, 3, 0]):  # its digits before the point
        # the hi group's rows; mid's and lo's are the same 3 and 6 slots on
        rows = np.zeros((2000, FIELD), np.uint8)
        kept = np.maximum(nonzero, before)[:, None]
        slots = 6 + i if p == 5 else 1 + i + (i >= before)
        rows[:, slots] = np.where(i < kept, digits, 0)
        if 1 <= p <= 3:  # the point is the group's
            rows[:, 1 + before] = (kept[:, 0] > before) * ord(".")
        for g in range(3):  # a 1000-row block holds the last 1000, the stripped rows
            block = group_rows[block_start[g, p] :][: sizes[g, p]]
            block[:, 3 * g :] = rows[2000 - len(block) :, : FIELD - 3 * g]
    group_words = _words(group_rows)
    text = np.zeros((2, e.size, FIELD), np.uint8)
    lead = [("0." + "0" * (-v - 1)) if -4 <= v < 0 else "" for v in e.tolist()]
    expo = ["" if f else f"e{v:+03d}" for v, f in zip(e.tolist(), fixed)]
    text[1, :, 0] = ord("-")
    text[:, :, 1:6] = np.array(lead, "S5").view(np.uint8).reshape(-1, 5)
    text[:, :, 11:16] = np.array(expo, "S5").view(np.uint8).reshape(-1, 5)
    or_words = _words(text.reshape(-1, FIELD))
    tables = (pow10, pow10_lo, binade_exponent, group_words, group_base, or_words)
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _encode_9g(
    x: np.ndarray, fields: np.ndarray, work: np.ndarray | None = None
) -> None:
    """Write the bytes of :func:`fmt` of each value of ``x`` into ``fields``.

    ``fields`` is a uint8 array of shape ``x.shape + (FIELD,)`` whose last
    axis is contiguous; its rows need not be aligned. ``work``, if given, is
    a uint64 array of shape ``(2, n, WORDS)`` with n >= x.size, reused from
    call to call. Every value of ``x`` must be finite. The decimal exponent e
    of |v| is that of the least power of two of its binade, from its biased
    binary exponent, or one above it: e goes up by one where |v|·10^(8−e)
    reaches 1e9. The 9-digit significand is |v|·10^(8−e), rounded to
    nearest. Then e ∈ [−4, 9)
    gives fixed notation and any other e the d.dddddddde±XX form, without
    trailing zeros and a bare point. Zeros are encoded as "0" and "-0". A
    significand within 1e-6 of a rounding tie is rounded by the exact
    comparison of :func:`_tie_side`. Each field is built in ``work`` as
    WORDS words, from one row of the layout table (sign, lead, exponent)
    and one of each digit group's table at the placement e gives it, and
    copied into ``fields`` as 16-byte items. The rest are formatted by
    :func:`fmt` and spliced in: magnitudes outside [1e-290, 1e290], and
    exact ties, which %g rounds to even.
    """
    pow10, pow10_lo, binade_exponent, group_words, group_base, or_words = (
        _encoder_tables()
    )
    if work is None:
        work = np.empty((2, x.size, WORDS), np.uint64)
    words, part = work[:, : x.size]
    a = np.abs(x)
    zero = a == 0.0
    by_fmt = ~zero & ((a < 1e-290) | (a > 1e290))
    a[zero | by_fmt] = 1.0
    # every |v| left is a normal double, whose binade [2**p, 2**(p+1)) spans
    # under a decade: its decimal exponent is floor(log10(2**p)) or one more
    e = binade_exponent.take(a.view(np.uint64) >> 52)
    m = a * pow10.take(308 - e)  # |v|·10^(8−e)
    e += m >= 1e9
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
    r[zero] = 0.0  # a zero's hi group keeps its one "0", before the point
    groups = np.empty((3, x.size), np.intp)
    hi, mid, lo = groups
    lo[...] = r.ravel()  # the groups are split off in place
    np.floor_divide(lo, 1000, out=mid)
    np.floor_divide(mid, 1000, out=hi)
    lo -= mid * 1000
    mid -= hi * 1000
    mid += (lo == 0) * 1000  # a group's stripped row follows a stripped 0
    hi += (mid == 1000) * 1000
    e = e.ravel() - _E_MIN
    groups += group_base.take(e, axis=1)  # each group's block at this e
    e += np.signbit(x.ravel()) * (_E_MAX - _E_MIN + 1)  # the rows with a sign
    # every row index is in range by construction, which mode="clip" takes
    # for granted: it skips the bounds check and writes to out= directly
    or_words.take(e, axis=0, out=words, mode="clip")
    for group in groups:
        group_words.take(group, axis=0, out=part, mode="clip")
        words |= part
    item = f"V{FIELD}"  # 16-byte items copy as fast unaligned as aligned
    fields.view(item)[...] = words.view(item).reshape(fields.shape[:-1] + (1,))
    if by_fmt.any():
        where = np.nonzero(by_fmt)
        text = np.array([fmt(v) for v in x[where].tolist()], f"S{FIELD}")
        fields[where] = text.view(np.uint8).reshape(-1, FIELD)


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


def _require_convergence(cfg: ExperimentConfig, alpha: float) -> None:
    """Raise :class:`DivergenceError` when (B, z, alpha) lies outside the region."""
    if not stable(alpha, cfg.fiber_beta2, cfg.bandwidth_hz, cfg.z_m):
        raise DivergenceError(
            f"(B={cfg.bandwidth_hz:.6g} Hz, z={cfg.z_m:.6g} m, alpha={alpha:.6g}) "
            "lies outside the convergence region"
        )


class Stage(NamedTuple):
    """One K of a stage search; the factor is None where the pair diverges.

    The fields are ``sweep.csv``'s per-K columns and a ``k_table`` entry's keys.
    """

    k: int
    broadening_factor: float | None
    residual_max: float

SWEEP_CSV_HEADER = ",".join(("xi", "alpha", "K", *Stage._fields[1:]))  # K: Stage.k


def _report(outcomes, lo: int, hi: int) -> np.ndarray:
    """:func:`report_outcomes` of bands lo..hi-1 of a run's :func:`band_outcomes`."""
    return report_outcomes(*(values[lo:hi] for values in outcomes))


def _guard_span(sent, sent_width, gvd, k, rx_band, outcomes, at) -> None:
    """The wraparound guards of the full-grid path for one span, on the band's offsets.

    They run in its order: the span's, of GVD ``gvd`` = beta2 * z, on the
    sent pulse of width ``sent_width`` (:func:`propagate`), and, unless
    ``k`` is None, the K matched stages', K * |gvd|, on the received band
    (:func:`compensate`), whose width is reported between the two, from
    band ``at`` of the run's ``outcomes``.
    """
    grid, offsets = sent.grid, sent.offsets
    check_wraparound(grid, offsets, sent.band, sent_width, gvd)
    if k is not None:
        [rx_width] = _report(outcomes, at, at + 1)
        check_wraparound(grid, offsets, rx_band, rx_width, k * abs(gvd))


def _stage_search(cfg: ExperimentConfig, sent: BandReference, spans, alphas) -> list:
    """``[(alpha, [Stage per K of cfg.k_list]) per alpha]`` for each span of ``spans``.

    ``spans`` holds the span lengths z_m. Everything runs on the bins of the
    sent sinc's band; no N-point array is built. Each span where some alpha
    converges gets one :func:`dispersion_response`, the matched pcf's too,
    and its received band, built up front: two band-sized arrays per such
    span. Each converging alpha's :func:`stage_responses` gives the output
    of every K, the spectrum :func:`compensate` forms there. A generator
    yields every band of the run to one :func:`band_outcomes` call: the sent
    band, then, for each converging span, its received band and the outputs
    of its converging alphas and K. So the memory does not grow with the
    alphas and K, and a run whose every span diverges measures nothing. The
    outcomes are then reported one span after the other: the sent width
    (once), the span's guards (:func:`_guard_span`), which report the
    received width between them, then the span's outputs, each as
    :func:`intensity_fwhm` would measure its inverse transform, with the
    same bits, warnings and first error. As K grows the outputs near the
    sent band, and from there on the reference's bounds stand in for their
    coarse transforms.
    """
    beta2, bandwidth, count = cfg.fiber_beta2, cfg.bandwidth_hz, len(cfg.k_list)
    k_max = cfg.k_list[-1]
    received = {}  # span index -> (alphas, response, received band), if any converge
    for i, z_m in enumerate(spans):
        converging = [a for a in alphas if stable(a, beta2, bandwidth, z_m)]
        if converging:
            h_span = dispersion_response(FiberParams(beta2, z_m), sent.offsets)
            received[i] = converging, h_span, sent.band * h_span

    def bands():
        yield sent.band
        for span_alphas, h_span, rx_band in received.values():
            yield rx_band
            for alpha in span_alphas:
                for response in stage_responses(alpha, h_span, cfg.k_list):
                    yield rx_band * response

    if received:
        outcomes = band_outcomes(sent, bands())
        [sent_width] = _report(outcomes, 0, 1)
    factors, at = {}, 1
    for i, (span_alphas, _, rx_band) in received.items():
        _guard_span(sent, sent_width, beta2 * spans[i], k_max, rx_band, outcomes, at)
        end = at + 1 + len(span_alphas) * count
        widths = _report(outcomes, at + 1, end) / sent_width
        at = end
        factors[i] = dict(zip(span_alphas, widths.reshape(-1, count).tolist()))
    searches = []
    for i, z_m in enumerate(spans):
        search = []
        for alpha in alphas:
            worst = edge_error(alpha, beta2, bandwidth, z_m)
            stages = zip_longest(cfg.k_list, factors.get(i, {}).get(alpha, ()))
            search.append((alpha, [Stage(k, f, worst ** (k + 1)) for k, f in stages]))
        searches.append(search)
    return searches


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> int:
    """Broadening factor against stage count for each (xi, alpha) pair.

    The pulse's band and its :func:`band_reference` are built once per run,
    and one :func:`_stage_search` runs every xi's span over the sorted
    alphas, with one :func:`band_outcomes` call for the whole run. ``cfg``
    has passed :func:`~dispersim.config.require_parts`: it has a pcf, a
    sinc pulse and a signal section.
    """
    grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
    sent = band_reference(grid, make_sinc_band(grid, cfg.pulse_width_s))
    spans = [span_length(xi, cfg.fiber_beta2, cfg.bandwidth_hz) for xi in cfg.xi_values]
    searches = _stage_search(cfg, sent, spans, sorted(cfg.alphas))
    lines = [SWEEP_CSV_HEADER]
    diverged = 0
    for xi, search in zip(cfg.xi_values, searches):
        for alpha, stages in search:
            for s in stages:
                diverged += s.broadening_factor is None
                cells = (xi, alpha, *s)
                lines.append(",".join("diverged" if v is None else fmt(v) for v in cells))
    _write_text(outdir / "sweep.csv", lines)
    write_meta(
        outdir, "sweep-k", cfg, {"rows": len(lines) - 1, "diverged_rows": diverged}
    )
    return 0


def run_scenario(cfg: ExperimentConfig, outdir: Path) -> int:
    """Single-link design report: strength, matched lengths, stage search.

    The stage search (:func:`_stage_search`) runs the one span over the
    first alpha, with one :func:`band_outcomes` call for the run. ``cfg``
    has passed :func:`~dispersim.config.require_parts`: it has
    ``fiber.z_km``, a pcf, a sinc pulse and a signal section.
    """
    grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
    tx_band = make_sinc_band(grid, cfg.pulse_width_s)
    bandwidth = cfg.bandwidth_hz
    alpha = cfg.alphas[0]
    _require_convergence(cfg, alpha)
    xi = dispersion_strength(cfg.fiber_beta2, cfg.z_m, bandwidth)
    sub = match_pcf(FiberParams(cfg.fiber_beta2, cfg.z_m), cfg.pcf_beta2, alpha=alpha)
    [[(_, stages)]] = _stage_search(
        cfg, band_reference(grid, tx_band), [cfg.z_m], [alpha]
    )
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
            "k_table": [s._asdict() for s in stages],
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
            "path_m": dcf_path(cfg.z_m, cfg.fiber_beta2, cfg.dcf_beta2),
            "formula": "z * |beta2_fib| / |beta2_dcf|",
        }
        if cfg.dcf_quoted_path_m is not None:
            dcf["quoted_path_m"] = cfg.dcf_quoted_path_m
        report["dcf_comparison"] = dcf
    _write_json(outdir / "scenario.json", report)
    write_meta(outdir, "scenario", cfg, {"required_k": required_k})
    return 0


def _envelope_csv(outdir: Path, grid: FrequencyGrid, envelopes: dict) -> None:
    """Write each ``file name -> samples`` as ``t_s,re,im`` lines, all together.

    The samples are complex128 arrays on ``grid``'s time axis. Each block
    of ``ENVELOPE_BLOCK`` lines is one array of ``t,re,im`` rows, each
    column a :func:`_encode_9g` field and the separator after it, set once
    per dump: the time column is encoded once and kept for every file, each
    file's re and im columns are encoded over the last file's, and the
    block is written without its NULs. Every call of the encoder builds its
    words in one work array, allocated here. Every value reads as
    :func:`fmt` writes it.
    """
    t = grid.time_axis
    rows = np.zeros((min(ENVELOPE_BLOCK, t.size), 3, FIELD + 1), np.uint8)
    rows[:, :, FIELD] = np.frombuffer(b",,\n", np.uint8)
    work = np.empty((2, 2 * len(rows), WORDS), np.uint64)  # fits re and im
    with contextlib.ExitStack() as stack:
        files = []
        for name, samples in envelopes.items():
            handle = stack.enter_context((outdir / name).open("wb"))
            handle.write(ENVELOPE_CSV_HEADER.encode() + b"\n")
            files.append((handle, samples.view(np.float64).reshape(-1, 2)))
        for lo in range(0, t.size, ENVELOPE_BLOCK):
            hi = lo + ENVELOPE_BLOCK
            block = rows[: t.size - lo]
            _encode_9g(t[lo:hi], block[:, 0, :FIELD], work)
            for handle, re_im in files:
                _encode_9g(re_im[lo:hi], block[:, 1:, :FIELD], work)
                handle.write(block.tobytes().translate(None, b"\0"))


def _sinc_envelopes(
    sent: BandReference, fiber: FiberParams, alpha: float, k: int | None
) -> dict:
    """The sent, dispersed and, unless ``k`` is None, compensated sinc.

    ``sent`` is the :func:`band_reference` of the sent band. One
    :func:`dispersion_response` of ``fiber`` on its bins gives the received
    band and, as the matched pcf's, :func:`stage_responses` of ``alpha`` at
    K = ``k``. The sent band and, with a K, the received one are
    measured in one :func:`band_outcomes` call; the sent width is reported,
    then :func:`_guard_span` runs. Only the last step leaves the band: each
    envelope is the samples of :func:`band_samples` of its band, so the
    input envelope is :func:`make_sinc_pulse` bit for bit. No bin outside
    the band holds rounding noise for the cascade to amplify, whatever K.
    """
    h_span = dispersion_response(fiber, sent.offsets)
    rx_band = sent.band * h_span
    measured = [sent.band] if k is None else [sent.band, rx_band]
    outcomes = band_outcomes(sent, measured)
    [sent_width] = _report(outcomes, 0, 1)
    _guard_span(sent, sent_width, fiber.beta2 * fiber.length_m, k, rx_band, outcomes, 1)
    bands = {"envelope_input.csv": sent.band, "envelope_dispersed.csv": rx_band}
    if k is not None:
        [response] = stage_responses(alpha, h_span, [k])
        bands["envelope_compensated.csv"] = rx_band * response
    return {name: band_samples(sent.grid, b) for name, b in bands.items()}


def run_propagate(cfg: ExperimentConfig, outdir: Path) -> int:
    """Dump the envelopes before/after the fiber (and compensator), all or none.

    A sinc is built once, as its band (:func:`make_sinc_band`), and propagated
    on its bins (:func:`_sinc_envelopes`); a gaussian, which has no band, on
    the full grid (:func:`propagate` and :func:`compensate`). ``cfg`` has
    passed :func:`~dispersim.config.require_parts`: it has ``fiber.z_km``
    and a signal section; and :func:`~dispersim.base.check_full_grid`: every
    phase its responses form is a double.
    """
    grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
    make_sent = make_sinc_band if cfg.pulse == "sinc" else make_gaussian_pulse
    sent = make_sent(grid, cfg.pulse_width_s)  # a sinc's band, a gaussian's Envelope
    if cfg.pcf_beta2 is not None and cfg.bandwidth_hz:  # a gaussian has no band
        _require_convergence(cfg, cfg.alphas[0])
    fiber, alpha, k = FiberParams(cfg.fiber_beta2, cfg.z_m), cfg.alphas[0], None
    extra = {"compensated": False}
    if cfg.pcf_beta2 is not None:
        k = cfg.k_list[-1]
        extra = {"compensated": True, "k_stages": k}
    if cfg.pulse == "sinc":
        envelopes = _sinc_envelopes(band_reference(grid, sent), fiber, alpha, k)
    else:
        rx = propagate(sent, fiber)
        envelopes = {"envelope_input.csv": sent.samples}
        envelopes["envelope_dispersed.csv"] = rx.samples
        if k is not None:
            spec = CompensatorSpec(match_pcf(fiber, cfg.pcf_beta2, alpha=alpha), k)
            envelopes["envelope_compensated.csv"] = compensate(rx, spec).samples
    _envelope_csv(outdir, grid, envelopes)
    write_meta(outdir, "propagate", cfg, extra)
    return 0
