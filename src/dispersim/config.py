"""Experiment configuration: one UTF-8 JSON document, validated fail-closed.

Unknown keys are rejected everywhere so typos cannot silently fall back to
defaults. Physical values use conventional units at this boundary (D in
ps/nm/km, beta2 in ps^2/km, lengths in km) and are resolved to SI here.
"""

import json
import math
import sys
from typing import NamedTuple

from .base import _BETA2_CONVENTIONAL, MAX_STAGES, ConfigError, d_to_beta2
from .base import dcf_path, matched_length
from .convergence import span_length


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


def _number(value, path: str, positive: bool = False, nonnegative: bool = False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer past the double range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path} must be finite")
    if positive and value <= 0:
        raise ConfigError(f"{path} must be positive")
    if nonnegative and value < 0:
        raise ConfigError(f"{path} must be non-negative")
    return value


def _integer(value, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    if value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return value


def _stage_count(value, path: str) -> int:
    k = _integer(value, path)
    if k > MAX_STAGES:
        raise ConfigError(
            f"{path} must be <= {MAX_STAGES}: the gain alpha * 2**(K+1) "
            "overflows past it"
        )
    return k


def _beta2_from(section: dict, path: str, lambda0_m: float) -> float:
    has_d = "d_ps_nm_km" in section
    has_b = "beta2_ps2_km" in section
    if has_d == has_b:
        raise ConfigError(
            f"{path} must give exactly one of d_ps_nm_km or beta2_ps2_km"
        )
    if has_d:
        d = _number(section["d_ps_nm_km"], f"{path}.d_ps_nm_km")
        try:
            beta2 = d_to_beta2(d, lambda0_m)
        except ValueError as exc:
            raise ConfigError(f"{path}.d_ps_nm_km: {exc}") from exc
        return _number(beta2, f"{path}.d_ps_nm_km in s^2/m")
    return (
        _number(section["beta2_ps2_km"], f"{path}.beta2_ps2_km")
        * _BETA2_CONVENTIONAL
    )


def _bandwidth_axis(spec, path: str) -> tuple:
    if isinstance(spec, list):
        values = tuple(_number(v, path, positive=True) for v in spec)
        if len(values) == 0:
            raise ConfigError(f"{path} must not be empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{path} must be strictly increasing")
        return values
    if isinstance(spec, dict):
        _check_keys(spec, {"min", "max", "count", "spacing"}, path)
        lo = _number(spec.get("min"), f"{path}.min", positive=True)
        hi = _number(spec.get("max"), f"{path}.max", positive=True)
        count = _integer(spec.get("count"), f"{path}.count", minimum=2)
        spacing = spec.get("spacing", "linear")
        if spacing not in ("linear", "log"):
            raise ConfigError(f"{path}.spacing must be 'linear' or 'log'")
        if hi <= lo:
            raise ConfigError(f"{path}.max must exceed {path}.min")
        if count > sys.maxsize // 8:  # numpy refuses an array past the address space
            raise ConfigError(
                f"{path}.count must be at most {sys.maxsize // 8}: {count} doubles "
                "do not fit in memory"
            )
        import numpy as np  # only a range axis loads numpy at start-up

        if spacing == "log":
            return tuple(np.geomspace(lo, hi, count))
        return tuple(np.linspace(lo, hi, count))
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


def require_normal(quantities) -> None:
    """Raise :class:`ConfigError` naming the first quantity out of range.

    ``quantities`` yields ``(key, value, *factors)``. The value must be a
    normal finite double, or an exact zero where one of its factors (the
    inputs that can make it zero) is zero, however its float rounds.
    """
    for key, value, *factors in quantities:
        if 0 not in factors and not sys.float_info.min <= abs(value) < math.inf:
            raise ConfigError(f"{key} is out of range: {value:g}, not a normal double")


def _formed(cfg: ExperimentConfig):
    """Yield ``(key, value, *factors)`` for each quantity a run forms from ``cfg``.

    Each is formed once those before it pass, so a span may divide by a
    strength. In order:

    - each beta2 in s^2/m, resolved from ``beta2_ps2_km`` or
      ``d_ps_nm_km``, with the given number as its factor: zero only where
      that number is zero (``beta2_ps2_km`` -1e-290 is -1e-317 s^2/m, a
      subnormal);
    - the time step ``dt_s = window_factor * pulse_width_s / n_samples``;
    - for the sinc bandwidth and every region bandwidth B, the fiber's
      strength per meter ``|beta2| * (2*pi*B)^2``, zero where beta2 is;
    - each span z: ``fiber.z_km``, and the :func:`span_length` that
      ``sweep-k`` derives from each xi; with a pcf, each span's matched
      branch ``L = beta2 * z / beta2_pcf`` and its cascade path ``K * L``
      at the last stage count;
    - with a dcf and ``fiber.z_km``, the dcf path ``z * |beta2| /
      |beta2_dcf|`` that ``scenario`` reports, and the quoted path in m;
    - a gaussian's ``width_s**2`` and squared half window
      ``(window_factor * width_s / 2)**2``: the pulse divides the squared
      time offsets, up to the squared half window, by ``2 * width_s**2``,
      and :func:`~dispersim.signal.make_gaussian_pulse` raises ValueError
      for the same squares.

    Only ``propagate`` forms the full grid's ``(pi / dt_s)**2``, and it
    checks that and ``max(1, |beta2| / 2) * (pi / dt_s)**2`` over the
    fiber's and the pcf's beta2 itself. A gaussian's responses form
    ``beta2 / 2 * dw**2`` out to ``dw = pi / dt_s``, which may underflow
    without harm but must not overflow. A sinc's are formed on its band
    bins, out to the band edge ``pi * B`` below ``pi / dt_s``; the strength
    rule keeps that edge's square finite for a nonzero beta2 but exempts a
    zero one: a fiber beta2 of 0 with a ``bandwidth_hz`` of 1e156 at 1024
    samples squares the band edge to inf, and the responses would be
    ``0 * inf`` = NaN. The full-grid rule refuses that configuration, so
    ``propagate`` checks both quantities for either pulse. A sinc's span
    then multiplies each ``beta2 / 2 * dw**2`` by ``fiber.z_km``, up to an
    eighth of the span's dispersion strength xi: a ``z_km`` and a
    ``bandwidth_hz`` of 1.5e110 each overflow that product to inf and the
    response to NaN. So ``propagate`` also checks ``max(1, xi)`` for a sinc,
    which lets a span's phase underflow. ``sweep-k`` and ``scenario`` need
    a pcf, which is accepted only beside a nonzero fiber beta2 of its sign;
    they form neither grid quantity and check neither, and they form a
    span's responses only where it converges, which bounds its phase.
    """
    beta2, bandwidth, z_m = cfg.fiber_beta2, cfg.bandwidth_hz, cfg.z_m
    for name in ("fiber", "pcf", "dcf"):
        value, section = getattr(cfg, f"{name}_beta2"), cfg.raw.get(name)
        if value is not None:
            key = "beta2_ps2_km" if "beta2_ps2_km" in section else "d_ps_nm_km"
            yield f"{name}.{key} in s^2/m", value, section[key]
    if cfg.dt_s is not None:
        yield "dt_s = window_factor * pulse_width_s / n_samples", cfg.dt_s
    bands = [("signal.bandwidth_hz", bandwidth)] if bandwidth else []
    bands += [("region.bandwidths_hz", b) for b in cfg.region_bandwidths_hz or ()]
    for name, b in bands:
        w = 2.0 * math.pi * float(b)
        yield f"{name} {b:g}: |beta2| * (2*pi*B)^2", abs(beta2) * (w * w), beta2
    spans = [] if z_m is None else [("fiber.z_km", z_m, z_m)]
    if bandwidth and beta2:
        for x in cfg.xi_values:
            spans.append((f"sweep.xi {x:g}", span_length(x, beta2, bandwidth), x))
    for name, z, factor in spans:
        yield f"{name} span z", z, factor
        if cfg.pcf_beta2 is not None:
            length, k = matched_length(beta2, z, cfg.pcf_beta2), cfg.k_list[-1]
            yield f"{name} matched branch L = beta2 * z / beta2_pcf", length, factor
            yield f"{name} cascade path K * L", k * length, k, factor
    if cfg.dcf_beta2 is not None and z_m is not None:
        path = dcf_path(z_m, beta2, cfg.dcf_beta2)
        yield "fiber.z_km dcf path z * |beta2| / |beta2_dcf|", path, z_m, beta2
    if cfg.dcf_quoted_path_m is not None:
        yield "dcf.quoted_path_km as dcf_quoted_path_m", cfg.dcf_quoted_path_m
    if cfg.pulse == "gaussian" and cfg.pulse_width_s is not None:
        width, window = cfg.pulse_width_s, cfg.window_factor * cfg.pulse_width_s
        yield "signal.width_s squared", width * width
        yield "signal.width_s half window squared", (window / 2) * (window / 2)


def parse_config(doc: dict) -> ExperimentConfig:
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
    lambda0_m = _number(fiber.get("lambda0_m", 1.55e-6), "fiber.lambda0_m", positive=True)
    fiber_beta2 = _beta2_from(fiber, "fiber", lambda0_m)
    z_m = None
    if "z_km" in fiber:
        z_m = _number(fiber["z_km"], "fiber.z_km", nonnegative=True) * 1e3

    pcf_beta2 = None
    if "pcf" in doc:
        pcf = _section(doc, "pcf")
        _check_keys(pcf, {"d_ps_nm_km", "beta2_ps2_km"}, "pcf")
        pcf_beta2 = _beta2_from(pcf, "pcf", lambda0_m)
        # signs compared: the product of two small values can underflow to zero
        if not (pcf_beta2 and fiber_beta2 and (pcf_beta2 > 0) == (fiber_beta2 > 0)):
            raise ConfigError(
                "pcf and fiber dispersion must be nonzero and of the same sign"
            )

    dcf_beta2 = None
    dcf_quoted_path_m = None
    if "dcf" in doc:
        dcf = _section(doc, "dcf")
        _check_keys(dcf, {"d_ps_nm_km", "beta2_ps2_km", "quoted_path_km"}, "dcf")
        dcf_beta2 = _beta2_from(dcf, "dcf", lambda0_m)
        if dcf_beta2 == 0:
            raise ConfigError("dcf dispersion must be nonzero")
        if "quoted_path_km" in dcf:
            quoted = _number(dcf["quoted_path_km"], "dcf.quoted_path_km", positive=True)
            dcf_quoted_path_m = quoted * 1e3

    comp = _section(doc, "compensator")
    _check_keys(comp, {"alphas", "k_max", "k_list", "target_broadening"}, "compensator")
    alphas_raw = comp.get("alphas", [1.0])
    if not isinstance(alphas_raw, list) or not alphas_raw:
        raise ConfigError("compensator.alphas must be a non-empty list")
    alphas = tuple(_number(a, "compensator.alphas[]") for a in alphas_raw)
    if any(not (0 < a <= 1) for a in alphas):
        raise ConfigError("compensator.alphas values must lie in (0, 1]")
    if len(set(alphas)) < len(alphas):
        raise ConfigError("compensator.alphas must not repeat a value")
    if "k_max" in comp and "k_list" in comp:
        raise ConfigError("compensator must give at most one of k_max or k_list")
    if "k_list" in comp:
        k_raw = comp["k_list"]
        if not isinstance(k_raw, list) or not k_raw:
            raise ConfigError("compensator.k_list must be a non-empty list")
        k_list = tuple(_stage_count(k, "compensator.k_list[]") for k in k_raw)
        if any(b <= a for a, b in zip(k_list, k_list[1:])):
            raise ConfigError("compensator.k_list must be strictly increasing")
    else:
        k_max = _stage_count(comp.get("k_max", 12), "compensator.k_max")
        k_list = tuple(range(k_max + 1))
    target = comp.get("target_broadening", 1.1)
    target_broadening = _number(target, "compensator.target_broadening", positive=True)

    signal = _section(doc, "signal")
    pulse = signal.get("pulse", "sinc")
    if pulse not in ("sinc", "gaussian"):
        raise ConfigError("signal.pulse must be 'sinc' or 'gaussian'")
    # a sinc pulse is set by its bandwidth B (zero-to-zero width 2/B), a
    # gaussian by its 1/e-intensity half-width and has no bandwidth
    width_key = "bandwidth_hz" if pulse == "sinc" else "width_s"
    _check_keys(signal, {"pulse", width_key, "n_samples", "window_factor"}, "signal")
    n_samples = _integer(signal.get("n_samples", 16384), "signal.n_samples", minimum=2)
    if n_samples & (n_samples - 1):
        raise ConfigError("signal.n_samples must be a power of two")
    window = signal.get("window_factor", 64.0)
    window_factor = _number(window, "signal.window_factor", positive=True)
    pulse_width_s = bandwidth_hz = dt_s = None
    if "signal" in doc:
        if width_key not in signal:
            raise ConfigError(f"signal.{width_key} is required for {pulse} pulses")
        width = _number(signal[width_key], f"signal.{width_key}", positive=True)
        if pulse == "sinc":
            bandwidth_hz, pulse_width_s = width, 2.0 / width
        else:
            pulse_width_s = width
        try:
            dt_s = window_factor * pulse_width_s / n_samples
        except OverflowError:  # n_samples past the double range: the rule refuses 0
            dt_s = 0.0

    sweep = _section(doc, "sweep")
    _check_keys(sweep, {"xi"}, "sweep")
    xi_raw = sweep.get("xi", [0.5, 1.0, 2.0])
    if not isinstance(xi_raw, list) or not xi_raw:
        raise ConfigError("sweep.xi must be a non-empty list")
    xi_values = tuple(_number(x, "sweep.xi[]", positive=True) for x in xi_raw)
    if any(b <= a for a, b in zip(xi_values, xi_values[1:])):
        raise ConfigError("sweep.xi must be strictly increasing")

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

    cfg = ExperimentConfig(
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
    require_normal(_formed(cfg))
    return cfg


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


def require_parts(cfg: ExperimentConfig, command: str, parts) -> None:
    """Raise :class:`ConfigError` for the first of ``parts`` that ``cfg`` lacks."""
    for field, refusal in (PARTS[part] for part in parts):
        if getattr(cfg, field) is None:
            raise ConfigError(refusal.format(command))


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
