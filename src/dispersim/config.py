"""Experiment configuration: one UTF-8 JSON document, validated fail-closed.

Unknown keys are refused, and every number must lie in its key's domain
(:data:`DOMAINS`), in the conventional units of this boundary; values are
resolved to SI here. :func:`check_run` then makes every closed-form refusal
of a run command, without numpy.
"""

import json
import math
from typing import NamedTuple

from .base import _BETA2_CONVENTIONAL, MAX_STAGES, ConfigError, DivergenceError
from .base import check_window, d_to_beta2, width_grids
from .convergence import stable


_TOP_KEYS = {
    "scenario",
    "fiber",
    "pcf",
    "dcf",
    "compensator",
    "signal",
    "sweep",
    "region",
    "output",
}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {path}: {', '.join(unknown)}")


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


class Domain(NamedTuple):
    """The closed range of a numeric configuration key, in ``unit``.

    A ``signed`` key bounds its magnitude. Zero lies in a domain only where
    ``zero`` is set, so ``lo`` 0 reads ``[0, hi]`` with it and ``(0, hi]``
    without it. A key whose bounds are ints takes integers only.
    """

    unit: str
    lo: float
    hi: float
    zero: bool = False
    signed: bool = False

    def holds(self, value) -> bool:
        """True iff ``value``, a number as given (NaN, inf or any int), lies here."""
        v = abs(value) if self.signed else value
        return (v == 0 and self.zero) or (v != 0 and self.lo <= v <= self.hi)

    def __str__(self) -> str:
        lo, hi = (f"{b:g}" if isinstance(b, float) else str(b) for b in (self.lo, self.hi))
        if self.lo == 0:
            return f"{'[' if self.zero else '('}0, {hi}] {self.unit}".rstrip()
        interval = f"{'0 or ' if self.zero else ''}{'±' if self.signed else ''}[{lo}, {hi}]"
        return f"{interval} {self.unit}".rstrip()


_DISPERSION = {"zero": True, "signed": True}
_BANDWIDTH = Domain("Hz", 1e3, 1e15)
_STAGES = Domain("", 0, MAX_STAGES, zero=True)

#: key -> the domain of its values, checked on each value as given, before
#: it is converted. The bounds lie decades beyond any fiber or pulse, and
#: within them every quantity a run forms is a normal double, or an exact
#: zero where one of its factors is (tests/test_config.py checks the corners).
#: MAX_STAGES is the largest K whose gain alpha * 2**(K+1) is a finite double.
DOMAINS = {
    "beta2_ps2_km": Domain("ps^2/km", 1e-6, 1e7, **_DISPERSION),
    "d_ps_nm_km": Domain("ps/nm/km", 1e-6, 1e7, **_DISPERSION),
    "lambda0_m": Domain("m", 1e-7, 1e-4),
    "z_km": Domain("km", 1e-6, 1e6, zero=True),
    "quoted_path_km": Domain("km", 1e-6, 1e6),
    "alphas": Domain("", 0.0, 1.0),
    "k_max": _STAGES,
    "k_list": _STAGES,
    "target_broadening": Domain("", 1.0, 1e6),
    "bandwidth_hz": _BANDWIDTH,
    "width_s": Domain("s", 1e-16, 1e-3),
    "n_samples": Domain("", 2, 2**30),
    "window_factor": Domain("", 1.0, 1e6),
    "xi": Domain("", 1e-6, 1e6),
    "bandwidths_hz": _BANDWIDTH,
    "count": Domain("", 2, 10**6),
}


def check_domain(value, name: str, key: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` lies in ``DOMAINS[key]``."""
    domain = DOMAINS[key]
    if not domain.holds(value):
        raise ConfigError(f"{name} = {value!r} is outside its domain {domain}")


def _number(value, path: str, key: str):
    """``value`` in the domain of ``key``: an int for an integer key, else a float."""
    integer = isinstance(DOMAINS[key].hi, int)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{path} must be {'an integer' if integer else 'a number'}")
    check_domain(value, path, key)
    return value if integer else float(value)


def _numbers(raw, path: str, key: str) -> tuple:
    """The non-empty, strictly increasing list ``raw`` of ``key`` values."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path} must be a non-empty list")
    values = tuple(_number(v, f"{path}[{i}]", key) for i, v in enumerate(raw))
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{path} must be strictly increasing")
    return values


def _beta2_from(section: dict, path: str, lambda0_m: float) -> float:
    has_d = "d_ps_nm_km" in section
    has_b = "beta2_ps2_km" in section
    if has_d == has_b:
        raise ConfigError(
            f"{path} must give exactly one of d_ps_nm_km or beta2_ps2_km"
        )
    key = "d_ps_nm_km" if has_d else "beta2_ps2_km"
    value = _number(section[key], f"{path}.{key}", key)
    # + 0.0 writes a zero beta2 as 0, as d_to_beta2 writes a zero D's
    return d_to_beta2(value, lambda0_m) if has_d else value * _BETA2_CONVENTIONAL + 0.0


def _bandwidth_axis(spec, path: str) -> tuple:
    """The region axis: a list, or ``count`` points from ``min`` to ``max``.

    A range is spaced as ``numpy.linspace`` or ``numpy.geomspace`` spaces it,
    in pure Python: ``lo + i * step``, on the base-10 logarithms for a log
    axis, with both ends exact.
    """
    if isinstance(spec, list):
        return _numbers(spec, path, "bandwidths_hz")
    if isinstance(spec, dict):
        _check_keys(spec, {"min", "max", "count", "spacing"}, path)
        lo = _number(spec.get("min"), f"{path}.min", "bandwidths_hz")
        hi = _number(spec.get("max"), f"{path}.max", "bandwidths_hz")
        count = _number(spec.get("count"), f"{path}.count", "count")
        spacing = spec.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing must be 'linear' or 'log'")
        if hi <= lo:
            raise ConfigError(f"{path}.max must exceed {path}.min")
        a, b = (math.log10(lo), math.log10(hi)) if spacing == "log" else (lo, hi)
        step = (b - a) / (count - 1)
        inner = [i * step + a for i in range(1, count - 1)]
        if spacing == "log":
            inner = [10.0**x for x in inner]
        return (lo, *inner, hi)
    raise ConfigError(f"{path} must be a list or a min/max/count object")


class ExperimentConfig(NamedTuple):
    """Validated configuration with SI-resolved physical values."""

    scenario: str
    fiber_beta2: float
    lambda0_m: float
    z_m: float | None
    pcf_beta2: float | None
    dcf_beta2: float | None
    dcf_quoted_path_m: float | None
    alphas: tuple
    k_list: tuple
    target_broadening: float
    pulse: str
    pulse_width_s: float | None
    bandwidth_hz: float | None
    n_samples: int
    dt_s: float | None
    window_factor: float
    xi_values: tuple
    region_bandwidths_hz: tuple | None
    output_dir: str
    raw: dict

    def resolved(self) -> dict:
        """SI view of the configuration, for meta emission.

        Every field but ``scenario`` and ``raw``, tuples as lists, each
        dispersion under its SI name, and no region axis when none is set.
        """
        out = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self._asdict().items()
            if key not in ("scenario", "raw")
        }
        for name in ("fiber", "pcf", "dcf"):
            out[f"{name}_beta2_s2_m"] = out.pop(f"{name}_beta2")
        if self.region_bandwidths_hz is None:
            del out["region_bandwidths_hz"]
        return out


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate ``doc`` and resolve it to SI.

    Each number is checked against its key's domain (:data:`DOMAINS`) as it
    is read, and the pcf's and the dcf's dispersion rules once every number
    has been.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "configuration")

    scenario = doc.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ConfigError("scenario must be a non-empty string")

    if "fiber" not in doc:
        raise ConfigError("fiber section is required")
    fiber = _section(doc, "fiber")
    _check_keys(fiber, {"d_ps_nm_km", "beta2_ps2_km", "lambda0_m", "z_km"}, "fiber")
    lambda0_m = _number(fiber.get("lambda0_m", 1.55e-6), "fiber.lambda0_m", "lambda0_m")
    fiber_beta2 = _beta2_from(fiber, "fiber", lambda0_m)
    z_m = None
    if "z_km" in fiber:
        z_m = _number(fiber["z_km"], "fiber.z_km", "z_km") * 1e3

    pcf_beta2 = None
    if "pcf" in doc:
        pcf = _section(doc, "pcf")
        _check_keys(pcf, {"d_ps_nm_km", "beta2_ps2_km"}, "pcf")
        pcf_beta2 = _beta2_from(pcf, "pcf", lambda0_m)

    dcf_beta2 = None
    dcf_quoted_path_m = None
    if "dcf" in doc:
        dcf = _section(doc, "dcf")
        _check_keys(dcf, {"d_ps_nm_km", "beta2_ps2_km", "quoted_path_km"}, "dcf")
        dcf_beta2 = _beta2_from(dcf, "dcf", lambda0_m)
        if "quoted_path_km" in dcf:
            quoted = _number(dcf["quoted_path_km"], "dcf.quoted_path_km", "quoted_path_km")
            dcf_quoted_path_m = quoted * 1e3

    comp = _section(doc, "compensator")
    _check_keys(comp, {"alphas", "k_max", "k_list", "target_broadening"}, "compensator")
    alphas_raw = comp.get("alphas", [1.0])
    if not isinstance(alphas_raw, list) or not alphas_raw:
        raise ConfigError("compensator.alphas must be a non-empty list")
    alphas = tuple(
        _number(a, f"compensator.alphas[{i}]", "alphas") for i, a in enumerate(alphas_raw)
    )
    if len(set(alphas)) < len(alphas):
        raise ConfigError("compensator.alphas must not repeat a value")
    if "k_max" in comp and "k_list" in comp:
        raise ConfigError("compensator must give at most one of k_max or k_list")
    if "k_list" in comp:
        k_list = _numbers(comp["k_list"], "compensator.k_list", "k_list")
    else:
        k_max = _number(comp.get("k_max", 12), "compensator.k_max", "k_max")
        k_list = tuple(range(k_max + 1))
    target = comp.get("target_broadening", 1.1)
    target_broadening = _number(
        target, "compensator.target_broadening", "target_broadening"
    )

    signal = _section(doc, "signal")
    pulse = signal.get("pulse", "sinc")
    if pulse not in ("sinc", "gaussian"):
        raise ConfigError("signal.pulse must be 'sinc' or 'gaussian'")
    # a sinc pulse is set by its bandwidth B (zero-to-zero width 2/B), a
    # gaussian by its 1/e-intensity half-width and has no bandwidth
    width_key = "bandwidth_hz" if pulse == "sinc" else "width_s"
    _check_keys(signal, {"pulse", width_key, "n_samples", "window_factor"}, "signal")
    n_samples = _number(signal.get("n_samples", 16384), "signal.n_samples", "n_samples")
    if n_samples & (n_samples - 1):
        raise ConfigError("signal.n_samples must be a power of two")
    window = signal.get("window_factor", 64.0)
    window_factor = _number(window, "signal.window_factor", "window_factor")
    pulse_width_s = bandwidth_hz = dt_s = None
    if "signal" in doc:
        if width_key not in signal:
            raise ConfigError(f"signal.{width_key} is required for {pulse} pulses")
        width = _number(signal[width_key], f"signal.{width_key}", width_key)
        if pulse == "sinc":
            bandwidth_hz, pulse_width_s = width, 2.0 / width
        else:
            pulse_width_s = width
        dt_s = window_factor * pulse_width_s / n_samples

    sweep = _section(doc, "sweep")
    _check_keys(sweep, {"xi"}, "sweep")
    xi_values = _numbers(sweep.get("xi", [0.5, 1.0, 2.0]), "sweep.xi", "xi")

    region_bandwidths = None
    if "region" in doc:
        region = _section(doc, "region")
        _check_keys(region, {"bandwidths_hz"}, "region")
        if "bandwidths_hz" not in region:
            raise ConfigError("region.bandwidths_hz is required")
        region_bandwidths = _bandwidth_axis(
            region["bandwidths_hz"], "region.bandwidths_hz"
        )

    output = _section(doc, "output")
    _check_keys(output, {"dir"}, "output")
    output_dir = output.get("dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output.dir must be a non-empty string")

    # after every number, so that one outside its domain is refused first
    if pcf_beta2 is not None and not pcf_beta2 * fiber_beta2 > 0:
        raise ConfigError("pcf and fiber dispersion must be nonzero and of the same sign")
    if dcf_beta2 == 0:
        raise ConfigError("dcf dispersion must be nonzero")
    return ExperimentConfig(
        scenario=scenario,
        fiber_beta2=fiber_beta2,
        lambda0_m=lambda0_m,
        z_m=z_m,
        pcf_beta2=pcf_beta2,
        dcf_beta2=dcf_beta2,
        dcf_quoted_path_m=dcf_quoted_path_m,
        alphas=alphas,
        k_list=k_list,
        target_broadening=target_broadening,
        pulse=pulse,
        pulse_width_s=pulse_width_s,
        bandwidth_hz=bandwidth_hz,
        n_samples=n_samples,
        dt_s=dt_s,
        window_factor=window_factor,
        xi_values=xi_values,
        region_bandwidths_hz=region_bandwidths,
        output_dir=output_dir,
        raw=doc,
    )


#: config part -> (the field a config without it leaves None, its refusal).
#: Only a sinc's signal section gives a bandwidth, so "sinc" follows "signal"
#: in a command's parts: a config without a signal section has a sinc pulse.
PARTS = {
    "fiber.z_km": ("z_m", "fiber.z_km is required for the {} command"),
    "pcf": ("pcf_beta2", "pcf section is required for the {} command"),
    "signal": ("pulse_width_s", "signal section is required"),
    "sinc": ("bandwidth_hz", "{} runs on sinc pulses"),
    "region.bandwidths_hz": (
        "region_bandwidths_hz", "region.bandwidths_hz is required for the {} command"
    ),
}


#: run command -> the config parts (:data:`PARTS`) its runner takes as given
REQUIRED_PARTS = {
    "region": ("region.bandwidths_hz",),
    "sweep-k": ("pcf", "signal", "sinc"),
    "scenario": ("fiber.z_km", "pcf", "signal", "sinc"),
    "propagate": ("fiber.z_km", "signal"),
}


def check_run(cfg: ExperimentConfig, command: str) -> None:
    """Refuse ``cfg`` for run ``command`` by the first closed-form rule it fails.

    The CLI calls this once, before the output directory is made and before
    numpy loads; each runner takes ``cfg`` as checked here. In order:

    1. the parts ``command`` needs (:data:`REQUIRED_PARTS`), ConfigError;
    2. for a command that builds a pulse (one that needs a signal section),
       the pulse's window rules (:func:`~dispersim.base.check_window`),
       WindowError;
    3. for a sinc, the width metric's table rule
       (:func:`~dispersim.base.width_grids`), WindowError;
    4. for ``scenario`` and a compensated sinc ``propagate``, the first
       alpha's convergence on the span (:func:`stable`), DivergenceError.
    """
    parts = REQUIRED_PARTS[command]
    for field, refusal in (PARTS[part] for part in parts):
        if getattr(cfg, field) is None:
            raise ConfigError(refusal.format(command))
    if "signal" not in parts:  # region builds no pulse
        return
    h = check_window(cfg.pulse, cfg.pulse_width_s, cfg.n_samples, cfg.dt_s)
    if h is None:  # a gaussian has no band to measure or to converge on
        return
    width_grids(cfg.n_samples, h)
    alpha = cfg.alphas[0]
    # sweep-k reports a diverged span in its rows instead
    compensated = command != "sweep-k" and cfg.pcf_beta2 is not None
    if compensated and not stable(alpha, cfg.fiber_beta2, cfg.bandwidth_hz, cfg.z_m):
        raise DivergenceError(
            f"(B={cfg.bandwidth_hz:.6g} Hz, z={cfg.z_m:.6g} m, alpha={alpha:.6g}) "
            "lies outside the convergence region"
        )


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` that refuses a key repeated within one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from exc
    # ValueError also covers an integer past int()'s digit limit and the
    # ConfigError of a repeated key, and RecursionError arrays or objects
    # nested too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return parse_config(doc)
