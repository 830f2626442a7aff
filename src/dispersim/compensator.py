"""Optical dispersion-compensating structure built from two-branch sub-systems.

One sub-system splits the field between an ordinary fiber (up branch) and a
strongly dispersive fiber of the same length (down branch, attenuated by
alpha) and recombines the branches with opposite signs. Both branches are
assumed to share one group index (:data:`SMF_GROUP_INDEX`), and the up
branch to carry no beta2. Only then does its response factor into a
common delay times the error response ``E_D = 1 - sqrt(alpha) * H_pcf`` of
the down branch, and a cascade of K such blocks realizes the truncated
geometric sum that inverts the accumulated dispersion of a target span
(see :mod:`dispersim.iterative`).

:func:`match_pcf` gives the up branch the span's beta2, and every cascade
here (:func:`compensator_tf`, :func:`stage_responses`, :func:`compensate`)
uses E_D, which drops it. The physical sub-system (:func:`subsystem_tf`)
keeps it: a cascade of those leaves a residual dispersion of
(K+1)*L*beta2_smf that no stage removes.

Like :func:`dispersim.fiber.propagate`, every sampled response here is in
the retarded frame: only beta2 enters it. The common delay carries no
dispersion and is reported as :func:`compensation_latency` instead of
shifting the time window.

The splitter/combiner bookkeeping is an amplitude factor 1/sqrt(2) per
split with no excess loss; the single output amplifier G =
``alpha * 2**(K+1)`` restores the level, leaving every other element
passive.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fiber import SPEED_OF_LIGHT, FiberParams, dispersion_response, dispersion_tf
from .iterative import IterationSpec, error_tf, neumann_sum_tf, partial_sums
from .signal import (
    Envelope,
    FrequencyGrid,
    TransferFunction,
    check_wraparound,
    fft,
    ifft,
    intensity_fwhm,
    is_integer,
)

#: Group index shared by both compensator branches; their beta1 (s/m) follows.
SMF_GROUP_INDEX = 1.4682
DEFAULT_SMF_BETA1 = SMF_GROUP_INDEX / SPEED_OF_LIGHT

#: Largest stage count K for which the gain alpha * 2**(K+1) is a finite
#: double.
MAX_STAGES = 1022


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

    def __post_init__(self):
        if not is_integer(self.k_stages):
            raise ValueError("k_stages must be an integer")
        if not 0 <= self.k_stages <= MAX_STAGES:
            raise ValueError(f"k_stages must lie in 0..{MAX_STAGES}")

    @property
    def gain(self) -> float:
        """Amplifier power gain, always :func:`default_gain` of (alpha, K)."""
        return default_gain(self.subsystem.alpha, self.k_stages)

    @property
    def prefactor(self) -> float:
        """Amplitude scale sqrt(G)/2**((K+1)/2) of the splitters and amplifier.

        It equals sqrt(alpha) up to rounding.
        """
        return math.sqrt(self.gain) / 2.0 ** ((self.k_stages + 1) / 2.0)

    @property
    def stage_gvd(self) -> float:
        """GVD K*|beta2_pcf|*L (s^2) of the K down branches, for the window guard."""
        sub = self.subsystem
        return self.k_stages * abs(sub.pcf.beta2) * sub.length_m


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
    if not target.beta2 or (pcf_beta2 > 0) != (target.beta2 > 0):
        raise ValueError(
            "pcf_beta2 must have the same sign as the target fiber's beta2"
        )
    length = target.beta2 * target.length_m / pcf_beta2
    smf = FiberParams(target.beta2, length)
    pcf = FiberParams(pcf_beta2, length)
    return SubsystemSpec(smf=smf, pcf=pcf, alpha=alpha)


def compensator_tf(spec: CompensatorSpec, grid: FrequencyGrid) -> TransferFunction:
    """Total response ``spec.prefactor * sum_{k=0..K} E_D^k`` of the cascade.

    The sum is :func:`neumann_sum_tf` of H_pcf with mu = sqrt(alpha): the
    cascade implements the iterative algorithm. The bulk delay K*L*beta1 is
    left out (retarded frame, see :func:`compensation_latency`).
    """
    sub = spec.subsystem
    iteration = IterationSpec(spec.k_stages, math.sqrt(sub.alpha))
    total = neumann_sum_tf(dispersion_tf(sub.pcf, grid), iteration)
    return TransferFunction(grid, spec.prefactor * total.values)


def stage_responses(sub: SubsystemSpec, h_pcf: np.ndarray, k_list):
    """Yield the cascade response ``prefactor(K) * sum_{k=0..K} E_D^k`` per K.

    ``h_pcf`` holds the down branch's response at any set of bins (a grid's
    or a band's), and ``k_list`` is a strictly increasing list of stage
    counts. E_D = 1 - sqrt(alpha) * H_pcf and its running partial sum are
    formed once for all of them, and each yield is a fresh array equal, bit
    for bit, to :func:`compensator_tf` of that K at those bins.
    """
    wanted = set(k_list)
    e_d = 1.0 - math.sqrt(sub.alpha) * h_pcf
    del h_pcf  # a caller that passes the response inline holds one array less
    for k, partial in enumerate(partial_sums(e_d, k_list[-1])):
        if k in wanted:
            yield CompensatorSpec(sub, k).prefactor * partial


def compensate(e: Envelope, spec: CompensatorSpec) -> Envelope:
    """Run an envelope through the compensating structure.

    One forward transform of the envelope feeds the wraparound check over
    the K stages' down-branch dispersion, which rejects window-wrapping
    configurations, and the product with the cascade response. The result
    equals ``apply_tf(e, compensator_tf(spec, e.grid))`` bit for bit; the
    response is :func:`stage_responses` of the one K on the grid's bins.
    """
    sub, dw = spec.subsystem, e.grid.delta_omega
    spectrum = fft(e.samples)
    check_wraparound(e.grid, dw, spectrum, intensity_fwhm(e), spec.stage_gvd)
    [response] = stage_responses(sub, dispersion_response(sub.pcf, dw), [spec.k_stages])
    # spectrum * response in this order, as in apply_tf: with FMA the complex
    # product is not bitwise commutative
    spectrum *= response
    return Envelope(e.grid, ifft(spectrum))


def compensation_latency(spec: CompensatorSpec) -> float:
    """Bulk group delay K*L*beta1 of the cascade, seconds.

    Reported only: sampled responses are in the retarded frame.
    """
    return spec.k_stages * spec.subsystem.length_m * DEFAULT_SMF_BETA1
