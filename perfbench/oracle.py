"""Independent reference for the outputs of one benchmark op.

A compact numpy restatement of the model, written from the formulas and not
from ``dispersim``: a sinc pulse synthesized on a bin-aligned band, the span
response exp(-j*beta2*z/2*dw^2), the compensator response sqrt(alpha) *
sum_{k=0..K} E_D^k with E_D = 1 - sqrt(alpha)*exp(-j*beta2_pcf*L/2*dw^2), the
closed-form stability test at the band edge and an intensity FWHM with linear
interpolation. Nothing here imports ``dispersim``.

Structure (row order, K values, ``diverged`` flags, required stage count) must
match exactly; numbers must match within a relative tolerance ``rtol``.
Compensated envelopes are compared by spectral magnitude and width, so the
bulk delay K*L*beta1, which only shifts the pulse, is not part of the check.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0
SMF_BETA1 = 1.4682 / SPEED_OF_LIGHT
STABILITY_MARGIN = 1e-9
WINDOW_FACTOR = 64.0
# Times are printed with 9 significant digits.
TIME_RTOL = 1e-8


class OracleMismatch(AssertionError):
    """An output disagrees with the reference."""


def _beta2_si(section: dict, lambda0_m: float) -> float:
    if "beta2_ps2_km" in section:
        return section["beta2_ps2_km"] * 1e-27
    d_si = section["d_ps_nm_km"] * 1e-6
    return -d_si * lambda0_m**2 / (2.0 * math.pi * SPEED_OF_LIGHT)


class Model:
    """Reference quantities for one config document (sinc pulse, default gain)."""

    def __init__(self, doc: dict):
        lambda0 = doc["fiber"].get("lambda0_m", 1.55e-6)
        self.beta2 = _beta2_si(doc["fiber"], lambda0)
        self.beta2_pcf = _beta2_si(doc["pcf"], lambda0)
        self.beta2_dcf = _beta2_si(doc["dcf"], lambda0) if "dcf" in doc else None
        self.k_max = doc["compensator"]["k_max"]
        self.bandwidth = doc["signal"]["bandwidth_hz"]
        self.n = doc["signal"]["n_samples"]
        width = 2.0 / self.bandwidth
        self.dt = WINDOW_FACTOR * width / self.n
        self.dw = 2.0 * math.pi * np.fft.fftfreq(self.n, self.dt)
        bins = np.abs(np.rint(np.fft.fftfreq(self.n) * self.n))
        half_band = round(1.0 / (width / (self.n * self.dt)))
        weights = np.where(bins < half_band, 1.0, 0.0)
        weights[bins == half_band] = 0.5
        centre = self.n // 2
        spectrum = weights * np.exp(-1j * self.dw * centre * self.dt)
        # Unit peak at the window centre, as the CLI's default sinc amplitude.
        self.tx_spectrum = spectrum / np.fft.ifft(spectrum)[centre].real
        self.in_band = np.abs(self.dw) <= math.pi * self.bandwidth * (1 + 1e-12)
        self.z_m = doc["fiber"]["z_km"] * 1e3 if "z_km" in doc["fiber"] else None

    def xi(self, z_m: float) -> float:
        return abs(self.beta2) * z_m * (2.0 * math.pi * self.bandwidth) ** 2

    def z_from_xi(self, xi: float) -> float:
        return xi / (abs(self.beta2) * (2.0 * math.pi * self.bandwidth) ** 2)

    def branch_length(self, z_m: float) -> float:
        return self.beta2 * z_m / self.beta2_pcf

    def stable(self, alpha: float, z_m: float) -> bool:
        theta = abs(self.beta2) / 2.0 * (math.pi * self.bandwidth) ** 2 * z_m
        if theta >= math.pi:
            return False
        edge = math.sqrt(1.0 + alpha - 2.0 * math.sqrt(alpha) * math.cos(theta))
        return edge < 1.0 - STABILITY_MARGIN

    def span_response(self, z_m: float) -> np.ndarray:
        return np.exp(-1j * self.beta2 * z_m / 2.0 * self.dw**2)

    def error_response(self, alpha: float, z_m: float) -> np.ndarray:
        length = self.branch_length(z_m)
        pcf = np.exp(-1j * self.beta2_pcf * length / 2.0 * self.dw**2)
        return 1.0 - math.sqrt(alpha) * pcf

    def residual(self, e_d: np.ndarray, k: int) -> float:
        return float(np.max(np.abs(e_d[self.in_band]))) ** (k + 1)

    def compensated_spectra(self, alpha: float, z_m: float, k_values):
        """Yield (K, spectrum) of the compensated pulse, retarded frame."""
        e_d = self.error_response(alpha, z_m)
        received = self.tx_spectrum * self.span_response(z_m) * math.sqrt(alpha)
        partial = np.ones(self.n, dtype=complex)
        term = np.ones(self.n, dtype=complex)
        wanted = set(k_values)
        for k in range(max(wanted) + 1):
            if k > 0:
                term *= e_d
                partial += term
            if k in wanted:
                yield k, received * partial


def fwhm(samples: np.ndarray, dt: float) -> float:
    """Intensity FWHM, outermost half-maximum crossings, linear interpolation.

    The peak is rolled to the window centre first, so the width does not
    depend on where a circular shift left the pulse.
    """
    intensity = np.abs(samples) ** 2
    n = intensity.size
    intensity = np.roll(intensity, n // 2 - int(np.argmax(intensity)))
    half = intensity.max() / 2.0
    idx = np.flatnonzero(intensity >= half)
    lo, hi = idx[0], idx[-1]
    left = (intensity[lo] - half) / (intensity[lo] - intensity[lo - 1])
    right = (intensity[hi] - half) / (intensity[hi] - intensity[hi + 1])
    return float((hi - lo + left + right) * dt)


class Check:
    """Comparison helpers that also keep the worst relative deviation seen."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.worst = 0.0

    def close(self, got: float, want: float, what: str) -> None:
        if want != 0:
            self.worst = max(self.worst, abs(got - want) / abs(want))
        if not math.isclose(got, want, rel_tol=self.rtol, abs_tol=0.0):
            raise OracleMismatch(f"{what}: got {got!r}, reference {want!r}")

    def close_arrays(self, got: np.ndarray, want: np.ndarray, what: str) -> None:
        """Max deviation measured against the reference's peak magnitude."""
        scale = float(np.max(np.abs(want)))
        err = float(np.max(np.abs(got - want)))
        self.worst = max(self.worst, err / scale)
        if not err <= self.rtol * scale:
            raise OracleMismatch(
                f"{what}: max deviation {err:.3e} > {self.rtol:g} x {scale:.3e}"
            )


def _same(got, want, what: str) -> None:
    if got != want:
        raise OracleMismatch(f"{what}: got {got!r}, reference {want!r}")


def check_sweep(doc: dict, outdir: Path, c: Check) -> int:
    m = Model(doc)
    with open(outdir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _same(rows[0], ["xi", "alpha", "K", "broadening_factor", "residual_max"], "header")
    body = iter(rows[1:])
    tx_width = fwhm(np.fft.ifft(m.tx_spectrum), m.dt)
    k_values = range(m.k_max + 1)
    for xi in doc["sweep"]["xi"]:
        z_m = m.z_from_xi(xi)
        for alpha in sorted(doc["compensator"]["alphas"]):
            e_d = m.error_response(alpha, z_m)
            spectra = (
                m.compensated_spectra(alpha, z_m, k_values)
                if m.stable(alpha, z_m) else ((k, None) for k in k_values)
            )
            for k, spectrum in spectra:
                row = next(body, None)
                where = f"sweep row xi={xi:.6g} alpha={alpha} K={k}"
                if row is None:
                    raise OracleMismatch(f"{where}: missing")
                _same(len(row), 5, f"{where} field count")
                c.close(float(row[0]), xi, f"{where} xi")
                c.close(float(row[1]), alpha, f"{where} alpha")
                _same(row[2], str(k), f"{where} K")
                if spectrum is None:
                    _same(row[3], "diverged", f"{where} flag")
                else:
                    _same(row[3] == "diverged", False, f"{where} flag")
                    width = fwhm(np.fft.ifft(spectrum), m.dt)
                    c.close(float(row[3]), width / tx_width, f"{where} factor")
                c.close(float(row[4]), m.residual(e_d, k), f"{where} residual")
    extra = sum(1 for _ in body)
    _same(extra, 0, "surplus sweep rows")
    return len(rows) - 1


def check_scenario(doc: dict, outdir: Path, c: Check) -> int:
    m = Model(doc)
    report = json.loads((outdir / "scenario.json").read_text(encoding="utf-8"))
    alpha = doc["compensator"]["alphas"][0]
    z_m = m.z_m
    length = m.branch_length(z_m)
    c.close(report["dispersion_strength"]["value"], m.xi(z_m), "xi")
    c.close(report["matched_subsystem"]["length_m"], length, "branch length")
    search = report["stage_search"]
    table = search["k_table"]
    _same([row["k"] for row in table], list(range(m.k_max + 1)), "k_table stages")
    tx_width = fwhm(np.fft.ifft(m.tx_spectrum), m.dt)
    e_d = m.error_response(alpha, z_m)
    for row, (k, spectrum) in zip(
        table, m.compensated_spectra(alpha, z_m, range(m.k_max + 1))
    ):
        width = fwhm(np.fft.ifft(spectrum), m.dt)
        c.close(row["broadening_factor"], width / tx_width, f"K={k} factor")
        c.close(row["residual_max"], m.residual(e_d, k), f"K={k} residual")
    target = search["target_broadening"]
    required = next(
        (row["k"] for row in table if row["broadening_factor"] <= target), None
    )
    _same(search["required_k"], required, "required_k")
    if required is not None:
        path = report["compensator_path"]
        c.close(path["length_m"], required * length, "compensator length")
        c.close(path["latency_s"], required * length * SMF_BETA1, "latency")
    else:
        _same("compensator_path" in report, False, "compensator_path present")
    if m.beta2_dcf is not None:
        dcf_path = z_m * abs(m.beta2) / abs(m.beta2_dcf)
        c.close(report["dcf_comparison"]["path_m"], dcf_path, "dcf path")
    return len(table)


def _envelope(path: Path, m: Model) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        _same(fh.readline().rstrip("\n"), "t_s,re,im", f"{path.name} header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _same(data.shape, (m.n, 3), f"{path.name} shape")
    t = np.arange(m.n) * m.dt
    if not np.allclose(data[:, 0], t, rtol=TIME_RTOL, atol=0.0):
        raise OracleMismatch(f"{path.name}: time axis differs from k*dt")
    return data[:, 1] + 1j * data[:, 2]


def check_propagate(doc: dict, outdir: Path, c: Check) -> int:
    m = Model(doc)
    z_m = m.z_m
    sent = _envelope(outdir / "envelope_input.csv", m)
    c.close_arrays(sent, np.fft.ifft(m.tx_spectrum), "input envelope")
    received = _envelope(outdir / "envelope_dispersed.csv", m)
    want = np.fft.ifft(m.tx_spectrum * m.span_response(z_m))
    c.close_arrays(received, want, "dispersed envelope")
    alpha = doc["compensator"]["alphas"][0]
    (_, spectrum), = m.compensated_spectra(alpha, z_m, [m.k_max])
    out = _envelope(outdir / "envelope_compensated.csv", m)
    c.close_arrays(np.abs(np.fft.fft(out)), np.abs(spectrum), "compensated |spectrum|")
    c.close(fwhm(out, m.dt), fwhm(np.fft.ifft(spectrum), m.dt), "compensated width")
    return 3 * m.n


CHECKS = {"sweep-k": check_sweep, "scenario": check_scenario, "propagate": check_propagate}


def check(command: str, doc: dict, outdir: Path, c: Check) -> int:
    """Verify one op's outputs; return its row count or raise OracleMismatch."""
    meta = json.loads((outdir / "meta.json").read_text(encoding="utf-8"))
    _same(meta.get("command"), command, "meta.json command")
    return CHECKS[command](doc, outdir, c)


def output_hashes(outdir: Path) -> dict:
    """sha256 of every file an op wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }
