"""Optical dispersion-compensating structure built from two-branch sub-systems.

One sub-system splits the field between an ordinary fiber (up branch) and a
strongly dispersive fiber of the same length (down branch, attenuated by
alpha) and recombines the branches with opposite signs. Both branches are
assumed to share one group index (:data:`SMF_GROUP_INDEX`), so its response
factors into a common delay times the error response
``E_D = 1 - sqrt(alpha) * H_pcf`` of the down branch, and a cascade of K
such blocks realizes the truncated geometric sum that inverts the
accumulated dispersion of a target span (see :mod:`dispersim.iterative`).

Like :func:`dispersim.fiber.propagate`, every sampled response here is in
the retarded frame: only beta2 enters it. The common delay carries no
dispersion and is reported as :func:`compensation_latency` instead of
shifting the time window.

The splitter/combiner bookkeeping is an amplitude factor 1/sqrt(2) per
split with no excess loss; the single output amplifier G (default
``alpha * 2**(K+1)``) restores the level, leaving every other element
passive.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.fft import fft, ifft

from .fiber import FiberParams, dispersion_tf
from .iterative import error_tf, partial_sums
from .signal import (
    Envelope,
    FrequencyGrid,
    TransferFunction,
    check_wraparound,
)

#: Group index shared by both compensator branches; their beta1 (s/m) follows.
SMF_GROUP_INDEX = 1.4682
DEFAULT_SMF_BETA1 = SMF_GROUP_INDEX / SPEED_OF_LIGHT


@dataclass(frozen=True)
class SubsystemSpec:
    """One two-branch block: up-branch fiber, down-branch fiber, attenuator."""

    smf: FiberParams
    pcf: FiberParams
    alpha: float

    def __post_init__(self):
        if self.smf.length_m != self.pcf.length_m:
            raise ValueError("branch fibers must have equal length")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def length_m(self) -> float:
        return self.smf.length_m


@dataclass(frozen=True)
class CompensatorSpec:
    """K cascaded sub-systems followed by one output amplifier of power gain G."""

    subsystem: SubsystemSpec
    k_stages: int
    gain: float | None = None

    def __post_init__(self):
        if not isinstance(self.k_stages, (int, np.integer)) or isinstance(
            self.k_stages, bool
        ):
            raise ValueError("k_stages must be an integer")
        if self.k_stages < 0:
            raise ValueError("k_stages must be non-negative")
        if self.gain is None:
            object.__setattr__(
                self, "gain", default_gain(self.subsystem.alpha, self.k_stages)
            )
        if not (np.isfinite(self.gain) and self.gain > 0):
            raise ValueError("gain must be positive")

    @property
    def prefactor(self) -> float:
        """Amplitude scale sqrt(G)/2**((K+1)/2) of the splitters and amplifier.

        With the default gain it is exactly sqrt(alpha).
        """
        return math.sqrt(self.gain) / 2.0 ** ((self.k_stages + 1) / 2.0)


def default_gain(alpha: float, k_stages: int) -> float:
    """Amplifier power gain alpha * 2**(K+1) that restores unit DC level."""
    return alpha * 2.0 ** (k_stages + 1)


def subsystem_error_tf(sub: SubsystemSpec, grid: FrequencyGrid) -> TransferFunction:
    """Error response E_D = 1 - sqrt(alpha) * H_pcf of the down branch.

    Only the down-branch beta2 contributes; the common delay is left out
    (retarded frame). The value at delta_omega = 0 is exactly
    ``1 - sqrt(alpha)``.
    """
    return error_tf(dispersion_tf(sub.pcf, grid), math.sqrt(sub.alpha))


def subsystem_tf(sub: SubsystemSpec, grid: FrequencyGrid) -> TransferFunction:
    """Response (H_smf - sqrt(alpha)*H_pcf) / sqrt(2) of one physical sub-system.

    Both branches carry their beta2 (retarded frame). For an up branch with
    beta2 = 0 this equals ``subsystem_error_tf / sqrt(2)``.
    """
    up = dispersion_tf(sub.smf, grid)
    down = dispersion_tf(sub.pcf, grid)
    values = (up.values - math.sqrt(sub.alpha) * down.values) / math.sqrt(2.0)
    return TransferFunction(grid, values)


def match_pcf(
    target: FiberParams, pcf_beta2: float, alpha: float = 1.0
) -> SubsystemSpec:
    """Size a sub-system so one pass cancels the target span's dispersion.

    The branch length follows from beta2_pcf * L = beta2_target * z; the up
    branch carries the target's beta2. The down-branch beta2 must be nonzero
    and share the target's sign: a strongly dispersive fiber of the same
    sign, run in an error-feedback cascade, replaces the conventional
    opposite-sign span.
    """
    if pcf_beta2 == 0:
        raise ValueError("pcf_beta2 must be nonzero")
    if pcf_beta2 * target.beta2 <= 0:
        raise ValueError(
            "pcf_beta2 must have the same sign as the target fiber's beta2"
        )
    length = target.beta2 * target.length_m / pcf_beta2
    smf = FiberParams(target.beta2, length)
    pcf = FiberParams(pcf_beta2, length)
    return SubsystemSpec(smf=smf, pcf=pcf, alpha=alpha)


def compensator_tf(
    spec: CompensatorSpec, grid: FrequencyGrid, form: str = "factored"
) -> TransferFunction:
    """Total response of the K-stage cascade plus output amplifier.

    Factored form: ``spec.prefactor * sum_{k=0..K} E_D^k``. The bulk delay
    K*L*beta1 is left out (retarded frame, see :func:`compensation_latency`).

    Exact form: each stage's identity path is the physical up-branch fiber
    and each error pass is the exact two-branch sub-system, i.e. the sum
    runs over (H_smf - sqrt(alpha)*H_pcf)^k * H_smf^(K-k).
    """
    sub = spec.subsystem
    k_stages = spec.k_stages
    if form == "factored":
        for partial in partial_sums(subsystem_error_tf(sub, grid).values, k_stages):
            pass
        return TransferFunction(grid, spec.prefactor * partial)
    if form == "exact":
        stage = math.sqrt(2.0) * subsystem_tf(sub, grid).values
        ident = dispersion_tf(sub.smf, grid).values
        # sum_{k=0..K} stage^k * ident^(K-k); |ident| = 1 so the division is safe
        term = ident**k_stages
        acc = term.copy()
        for _ in range(k_stages):
            term = term * stage / ident
            acc = acc + term
        return TransferFunction(grid, spec.prefactor * acc)
    raise ValueError(f"unknown form {form!r}")


def compensate_stages(
    e: Envelope, sub: SubsystemSpec, k_list, gain=None, bandwidth_hz=None
):
    """Yield ``(spec, envelope, residual)`` for each K of increasing ``k_list``.

    One forward FFT (which also feeds the wraparound check at the largest K,
    where the guard is widest), one E_D and one running partial sum serve
    every K, plus one inverse FFT per K. ``spec`` is
    ``CompensatorSpec(sub, k, gain)``, the envelope equals
    ``apply_tf(e, compensator_tf(spec, e.grid))`` bit for bit, and
    ``residual`` bounds the in-band error of the matched cascade by
    max|E_D|^(K+1) over ``bandwidth_hz`` (None without a bandwidth).
    """
    if not k_list or k_list[0] < 0 or any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be non-negative and strictly increasing")
    spectrum = fft(e.samples)
    check_wraparound(e, spectrum, k_list[-1] * abs(sub.pcf.beta2) * sub.length_m)
    e_d = subsystem_error_tf(sub, e.grid)
    worst = None if bandwidth_hz is None else band_error_max(e_d, bandwidth_hz)
    for k, partial in enumerate(partial_sums(e_d.values, k_list[-1])):
        if k not in k_list:
            continue
        spec = CompensatorSpec(sub, k, gain)
        # spectrum * response in this order, as in apply_tf: with FMA the
        # complex product is not bitwise commutative.
        response = spec.prefactor * partial
        np.multiply(spectrum, response, out=response)
        out = Envelope(e.grid, ifft(response, overwrite_x=True))
        yield spec, out, None if worst is None else worst ** (k + 1)


def compensate(e: Envelope, spec: CompensatorSpec) -> Envelope:
    """Run an envelope through the compensating structure.

    The one-K case of :func:`compensate_stages`: it applies
    :func:`compensator_tf` and rejects window-wrapping configurations.
    """
    [(_, out, _)] = compensate_stages(e, spec.subsystem, (spec.k_stages,), spec.gain)
    return out


def compensation_latency(spec: CompensatorSpec) -> float:
    """Bulk group delay K*L*beta1 of the cascade, seconds.

    Reported only: sampled responses are in the retarded frame.
    """
    return spec.k_stages * spec.subsystem.length_m * DEFAULT_SMF_BETA1


def band_error_max(e_d: TransferFunction, bandwidth_hz: float) -> float:
    """Worst in-band magnitude max|E_D| over |delta_omega| <= pi*B.

    This is the operator norm of the error response on the band: the
    truncated sums converge there iff it is below 1 (see
    :data:`~dispersim.iterative.CONTRACTION_MARGIN` for a strict test).
    """
    mask = np.abs(e_d.grid.delta_omega) <= np.pi * bandwidth_hz * (1 + 1e-12)
    return float(np.max(np.abs(e_d.values[mask])))
