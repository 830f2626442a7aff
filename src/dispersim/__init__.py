"""Frequency-domain fiber dispersion simulator with an iterative
dispersion-compensating structure built from strongly dispersive
same-sign fiber sub-systems.

Every name in ``__all__`` is imported from its submodule on first access
(PEP 562), so importing the package, or :mod:`dispersim.cli`, loads no
numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: exported name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "base": (
            "WIDTH_METRIC",
            "WidthMetricError",
            "WindowError",
            "WraparoundError",
            "beta2_to_d",
            "d_to_beta2",
        ),
        "compensator": (
            "CompensatorSpec",
            "SubsystemSpec",
            "compensate",
            "compensation_latency",
            "compensator_tf",
            "default_gain",
            "match_pcf",
            "subsystem_error_tf",
            "subsystem_tf",
        ),
        "convergence": ("CONTRACTION_MARGIN", "stable", "z_max"),
        "fiber": ("FiberParams", "dispersion_tf", "propagate"),
        "iterative": ("IterationSpec", "error_tf", "feedback_run", "neumann_sum_tf"),
        "signal": (
            "Envelope",
            "FrequencyGrid",
            "GridMismatchError",
            "TransferFunction",
            "apply_tf",
            "broadening_factor",
            "check_wraparound",
            "intensity_fwhm",
            "make_gaussian_pulse",
            "make_sinc_pulse",
            "occupied_bandwidth",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
