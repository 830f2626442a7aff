"""Frequency-domain fiber dispersion simulator with an iterative
dispersion-compensating structure built from strongly dispersive
same-sign fiber sub-systems."""

__version__ = "0.1.0"

from .compensator import (
    CompensatorSpec,
    SubsystemSpec,
    compensate,
    compensation_latency,
    compensator_tf,
    default_gain,
    match_pcf,
    subsystem_error_tf,
    subsystem_tf,
)
from .convergence import stable, z_max
from .fiber import (
    FiberParams,
    beta2_to_d,
    d_to_beta2,
    dispersion_tf,
    propagate,
)
from .iterative import (
    CONTRACTION_MARGIN,
    IterationSpec,
    error_tf,
    feedback_run,
    neumann_sum_tf,
)
from .signal import (
    Envelope,
    FrequencyGrid,
    GridMismatchError,
    TransferFunction,
    WIDTH_METRIC,
    WidthMetricError,
    WindowError,
    WraparoundError,
    apply_tf,
    broadening_factor,
    check_wraparound,
    intensity_fwhm,
    make_gaussian_pulse,
    make_sinc_pulse,
    occupied_bandwidth,
)

__all__ = [
    "CONTRACTION_MARGIN",
    "CompensatorSpec",
    "Envelope",
    "FiberParams",
    "FrequencyGrid",
    "GridMismatchError",
    "IterationSpec",
    "SubsystemSpec",
    "TransferFunction",
    "WIDTH_METRIC",
    "WidthMetricError",
    "WindowError",
    "WraparoundError",
    "apply_tf",
    "beta2_to_d",
    "broadening_factor",
    "check_wraparound",
    "compensate",
    "compensation_latency",
    "compensator_tf",
    "d_to_beta2",
    "default_gain",
    "dispersion_tf",
    "error_tf",
    "feedback_run",
    "intensity_fwhm",
    "make_gaussian_pulse",
    "make_sinc_pulse",
    "match_pcf",
    "neumann_sum_tf",
    "occupied_bandwidth",
    "propagate",
    "stable",
    "subsystem_error_tf",
    "subsystem_tf",
    "z_max",
]
