"""Optical dispersion-compensating structure built from two-branch sub-systems.

One sub-system splits the field between an ordinary fiber (up branch) and a
strongly dispersive fiber of the same length (down branch, attenuated by
alpha) and recombines the branches with opposite signs. With the branches
matched in beta0/beta1, its response factors into a common delay times the
error response ``E_D = 1 - sqrt(alpha) * H_pcf`` of the down branch, so a
cascade of K such blocks realizes the truncated geometric sum that inverts
the accumulated dispersion of a target span (see :mod:`dispersim.iterative`).

Like :func:`dispersim.fiber.propagate`, every sampled response here is in
the retarded frame: only dispersion orders i >= 2 enter it. The common
delay carries no dispersion and is reported as
:func:`compensation_latency` instead of shifting the time window.

The splitter/combiner bookkeeping is an amplitude factor 1/sqrt(2) per
split with no excess loss; the single output amplifier G (default
``alpha * 2**(K+1)``) restores the level, leaving every other element
passive.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .fiber import FiberParams, dispersion_tf
from .iterative import IterationSpec, error_tf, feedback_run, neumann_sum_tf
from .signal import (
    Envelope,
    FrequencyGrid,
    TransferFunction,
    apply_tf,
    check_wraparound,
)

#: Group index used for the compensator fibers' default beta1.
SMF_GROUP_INDEX = 1.4682
DEFAULT_SMF_BETA1 = SMF_GROUP_INDEX / SPEED_OF_LIGHT
DEFAULT_SMF_BETA0 = 0.0


def _relative_mismatch(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


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
        for i, name in ((0, "beta0"), (1, "beta1")):
            if _relative_mismatch(self.smf.betas[i], self.pcf.betas[i]) > 1e-12:
                raise ValueError(
                    f"branch {name} values must match (factored form premise)"
                )

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

    Only orders i >= 2 of the down-branch fiber contribute; the common
    beta0/beta1 delay is left out (retarded frame). The value at
    delta_omega = 0 is exactly ``1 - sqrt(alpha)``.
    """
    return error_tf(dispersion_tf(sub.pcf, grid), math.sqrt(sub.alpha))


def subsystem_tf(
    sub: SubsystemSpec, grid: FrequencyGrid, form: str = "factored"
) -> TransferFunction:
    """Response of one sub-system in the retarded frame.

    ``form="exact"`` evaluates the two physical branches with all their
    orders i >= 2: (H_smf - sqrt(alpha)*H_pcf) / sqrt(2). The default
    ``form="factored"`` returns E_D / sqrt(2), which drops the up branch's
    own orders i >= 2. The two coincide when the up branch has no
    dispersion beyond beta1.
    """
    if form == "exact":
        up = dispersion_tf(sub.smf, grid)
        down = dispersion_tf(sub.pcf, grid)
        values = (up.values - math.sqrt(sub.alpha) * down.values) / math.sqrt(2.0)
        return TransferFunction(grid, values)
    if form == "factored":
        values = subsystem_error_tf(sub, grid).values / math.sqrt(2.0)
        return TransferFunction(grid, values)
    raise ValueError(f"unknown form {form!r}")


def match_pcf(
    target: FiberParams,
    pcf_beta2: float,
    alpha: float = 1.0,
    orders: tuple | None = None,
    smf_beta0: float = DEFAULT_SMF_BETA0,
    smf_beta1: float = DEFAULT_SMF_BETA1,
) -> SubsystemSpec:
    """Size a sub-system so one pass cancels the target span's dispersion.

    The branch length follows from beta2_pcf * L = beta2_target * z, and the
    down branch's higher orders (all present in the target by default, or
    the subset in ``orders``) are set to beta_i_target * z / L so every
    matched order accumulates identically. The down-branch beta2 must be
    nonzero and share the target's sign: a strongly dispersive fiber of the
    same sign, run in an error-feedback cascade, replaces the conventional
    opposite-sign span.
    """
    if pcf_beta2 == 0:
        raise ValueError("pcf_beta2 must be nonzero")
    if pcf_beta2 * target.beta2 <= 0:
        raise ValueError(
            "pcf_beta2 must have the same sign as the target fiber's beta2"
        )
    length = target.beta2 * target.length_m / pcf_beta2
    if orders is None:
        orders = tuple(range(3, len(target.betas)))
    pcf_betas = [smf_beta0, smf_beta1, pcf_beta2]
    for i in orders:
        if i < 3:
            raise ValueError("only orders >= 3 can be matched explicitly")
        while len(pcf_betas) <= i:
            pcf_betas.append(0.0)
        pcf_betas[i] = target.betas[i] * target.length_m / length
    smf_betas = [smf_beta0, smf_beta1] + list(target.betas[2:])
    smf = FiberParams(tuple(smf_betas), length, label="subsystem-up")
    pcf = FiberParams(tuple(pcf_betas), length, label="subsystem-down")
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
        partial = neumann_sum_tf(
            dispersion_tf(sub.pcf, grid),
            IterationSpec(k_stages, math.sqrt(sub.alpha)),
        )
        return TransferFunction(grid, spec.prefactor * partial.values)
    if form == "exact":
        stage = math.sqrt(2.0) * subsystem_tf(sub, grid, form="exact").values
        ident = dispersion_tf(sub.smf, grid).values
        # sum_{k=0..K} stage^k * ident^(K-k); |ident| = 1 so the division is safe
        term = ident**k_stages
        acc = term.copy()
        for _ in range(k_stages):
            term = term * stage / ident
            acc = acc + term
        return TransferFunction(grid, spec.prefactor * acc)
    raise ValueError(f"unknown form {form!r}")


def compensate(
    e: Envelope, spec: CompensatorSpec, realization: str = "direct"
) -> Envelope:
    """Run an envelope through the compensating structure.

    ``realization="direct"`` applies :func:`compensator_tf`;
    ``realization="feedback"`` cycles the input through the closed-loop
    equivalent instead. Both reject window-wrapping configurations.
    """
    sub = spec.subsystem
    accumulated = spec.k_stages * abs(sub.pcf.beta2) * sub.length_m
    check_wraparound(e, accumulated)
    if realization == "direct":
        return apply_tf(e, compensator_tf(spec, e.grid))
    if realization == "feedback":
        looped = feedback_run(
            e,
            dispersion_tf(sub.pcf, e.grid),
            IterationSpec(spec.k_stages, math.sqrt(sub.alpha)),
        )
        return Envelope(
            e.grid, spec.prefactor * looped.samples, e.carrier_wavelength
        )
    raise ValueError(f"unknown realization {realization!r}")


def compensation_latency(spec: CompensatorSpec) -> float:
    """Bulk group delay K*L*beta1 of the cascade, seconds.

    Reported only: sampled responses are in the retarded frame.
    """
    return spec.k_stages * spec.subsystem.length_m * spec.subsystem.smf.beta1


def band_residual(
    spec: CompensatorSpec, grid: FrequencyGrid, bandwidth_hz: float
) -> float:
    """Worst-case compensation residual max|E_D|^(K+1) over the band.

    For a matched spec with default gain, the cascaded response times the
    span's response deviates from identity by at most this amount at every
    bin with |delta_omega| <= pi*B.
    """
    e_d = subsystem_error_tf(spec.subsystem, grid)
    mask = np.abs(grid.delta_omega) <= np.pi * bandwidth_hz * (1 + 1e-12)
    worst = float(np.max(np.abs(e_d.values[mask])))
    return worst ** (spec.k_stages + 1)
