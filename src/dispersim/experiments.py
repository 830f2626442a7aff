"""Experiment runners behind the CLI: deterministic CSV/JSON emission.

All numeric CSV fields use 9 significant digits and LF line endings so a
fixed configuration reproduces byte-identical output. Every run also emits
a ``meta.json`` holding the raw configuration, its SI resolution and the
pulse-width metric in use.
"""

import contextlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .compensator import (
    CompensatorSpec,
    compensate,
    compensate_stages,
    compensation_latency,
    match_pcf,
)
from .config import ConfigError, ExperimentConfig
from .convergence import dispersion_strength, edge_error, span_length, stable, z_max
from .fiber import FiberParams, propagate
from .signal import (
    Envelope,
    FrequencyGrid,
    WIDTH_METRIC,
    intensity_fwhm,
    make_gaussian_pulse,
    make_sinc_pulse,
)

REGION_CSV_HEADER = "B_hz,z_max_m,alpha,beta2_si"
SWEEP_CSV_HEADER = "xi,alpha,K,broadening_factor,residual_max"
ENVELOPE_CSV_HEADER = "t_s,re,im"
ENVELOPE_BLOCK = 1024  # samples per _envelope_csv block: one % format per file


class DivergenceError(RuntimeError):
    """The requested operating point lies outside the convergence region."""


def fmt(x: float) -> str:
    return f"{float(x):.9g}"


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


def build_pulse(cfg: ExperimentConfig) -> Envelope:
    """The transmitted pulse on the configured grid (``tx.grid``)."""
    if cfg.pulse_width_s is None:
        raise ConfigError("signal section is required")
    grid = FrequencyGrid(cfg.n_samples, cfg.dt_s)
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


def _stage_search(cfg: ExperimentConfig, tx: Envelope, tx_width: float, z_m, alphas):
    """Yield ``(alpha, [Stage per K of cfg.k_list])`` for each alpha on one span.

    The span is propagated once, at its first converging alpha, and never when
    every alpha diverges; a diverged alpha builds no response.
    """
    beta2, bandwidth = cfg.fiber_beta2, cfg.bandwidth_hz
    fiber = FiberParams(beta2, z_m)
    rx = None
    for alpha in alphas:
        factors = [None] * len(cfg.k_list)
        if stable(alpha, beta2, bandwidth, z_m):
            if rx is None:
                rx = propagate(tx, fiber)
            sub = match_pcf(fiber, cfg.pcf_beta2, alpha=alpha)
            outputs = compensate_stages(rx, sub, cfg.k_list)
            factors = [intensity_fwhm(out) / tx_width for _, out in outputs]
        worst = edge_error(alpha, beta2, bandwidth, z_m)
        yield alpha, [
            Stage(k, factor, worst ** (k + 1)) for k, factor in zip(cfg.k_list, factors)
        ]


def run_sweep(cfg: ExperimentConfig, outdir: Path) -> int:
    """Broadening factor against stage count for each (xi, alpha) pair.

    The pulse is built and its width measured once per run; each xi's span
    runs one :func:`_stage_search` over the sorted alphas.
    """
    if cfg.pcf_beta2 is None:
        raise ConfigError("pcf section is required for the sweep-k command")
    if cfg.pulse != "sinc":
        raise ConfigError("sweep-k runs on sinc pulses")
    tx = build_pulse(cfg)
    tx_width = intensity_fwhm(tx)
    lines = [SWEEP_CSV_HEADER]
    diverged = 0
    for xi in cfg.xi_values:
        z_m = span_length(xi, cfg.fiber_beta2, cfg.bandwidth_hz)
        for alpha, stages in _stage_search(cfg, tx, tx_width, z_m, sorted(cfg.alphas)):
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
    tx = build_pulse(cfg)
    bandwidth = cfg.bandwidth_hz
    alpha = cfg.alphas[0]
    _require_convergence(cfg, alpha)
    xi = dispersion_strength(cfg.fiber_beta2, cfg.z_m, bandwidth)
    sub = match_pcf(FiberParams(cfg.fiber_beta2, cfg.z_m), cfg.pcf_beta2, alpha=alpha)
    [(_, stages)] = _stage_search(cfg, tx, intensity_fwhm(tx), cfg.z_m, [alpha])
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

    The envelopes share one grid; each block of ``ENVELOPE_BLOCK`` time values
    is formatted once and reused in every file, and each file's block is one
    ``%`` format. ``%.9g`` and :func:`fmt` format a float identically.
    """
    t = next(iter(envelopes.values())).grid.time_axis
    with contextlib.ExitStack() as stack:
        files = []
        for name, e in envelopes.items():
            path = outdir / name
            handle = stack.enter_context(path.open("w", encoding="utf-8", newline="\n"))
            handle.write(ENVELOPE_CSV_HEADER + "\n")
            files.append((handle, e.samples))
        for lo in range(0, t.size, ENVELOPE_BLOCK):
            hi = lo + ENVELOPE_BLOCK
            times = [format(x, ".9g") for x in t[lo:hi].tolist()]
            block = "%s,%.9g,%.9g\n" * len(times)
            fields = [None] * (3 * len(times))
            fields[0::3] = times
            for handle, s in files:
                fields[1::3] = s[lo:hi].real.tolist()
                fields[2::3] = s[lo:hi].imag.tolist()
                handle.write(block % tuple(fields))


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
