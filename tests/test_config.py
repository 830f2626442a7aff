import copy
import importlib.util
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispersim import d_to_beta2, default_gain
from dispersim.base import dcf_path, matched_length
from dispersim.config import (
    DOMAINS,
    MAX_STAGES,
    ConfigError,
    check_run,
    load_config,
    parse_config,
)
from dispersim.convergence import dispersion_strength, span_length

ROOT = Path(__file__).resolve().parent.parent


def base_doc(**overrides):
    doc = {
        "scenario": "unit-test",
        "fiber": {"beta2_ps2_km": -21.0, "lambda0_m": 1.55e-6, "z_km": 130.0},
        "pcf": {"d_ps_nm_km": 2200.0},
        "compensator": {"alphas": [1.0], "k_max": 3},
        "signal": {"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 4096},
        "sweep": {"xi": [0.5, 1.0]},
        "output": {"dir": "out"},
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_document(self):
        cfg = parse_config({"scenario": "s", "fiber": {"d_ps_nm_km": 17.0}})
        assert cfg.fiber_beta2 == pytest.approx(d_to_beta2(17.0, 1.55e-6))
        assert cfg.lambda0_m == 1.55e-6
        assert cfg.z_m is None
        assert cfg.alphas == (1.0,)
        assert cfg.k_list == tuple(range(13))
        assert cfg.target_broadening == 1.1
        assert cfg.pulse == "sinc"
        assert cfg.n_samples == 16384
        assert cfg.window_factor == 64.0
        assert cfg.xi_values == (0.5, 1.0, 2.0)
        assert cfg.output_dir == "out"

    def test_full_document(self):
        cfg = parse_config(base_doc())
        assert cfg.fiber_beta2 == -21.0e-27
        assert cfg.z_m == 130e3
        assert cfg.pcf_beta2 == pytest.approx(d_to_beta2(2200.0, 1.55e-6))
        assert cfg.k_list == (0, 1, 2, 3)
        assert cfg.bandwidth_hz == 3e9
        assert cfg.pulse_width_s == pytest.approx(2 / 3e9)
        # default grid: window = window_factor * width
        assert cfg.dt_s == pytest.approx(64 * (2 / 3e9) / 4096)

    def test_dcf_section(self):
        doc = base_doc(dcf={"d_ps_nm_km": -250.0, "quoted_path_km": 7.0})
        cfg = parse_config(doc)
        assert cfg.dcf_beta2 == pytest.approx(d_to_beta2(-250.0, 1.55e-6))
        assert cfg.dcf_quoted_path_m == 7000.0

    def test_gaussian_signal(self):
        doc = base_doc(signal={"pulse": "gaussian", "width_s": 100e-12})
        cfg = parse_config(doc)
        assert cfg.pulse_width_s == 100e-12
        assert cfg.bandwidth_hz is None

    def test_region_axis_list_and_range(self):
        doc = base_doc(region={"bandwidths_hz": [1e9, 2e9, 4e9]})
        assert parse_config(doc).region_bandwidths_hz == (1e9, 2e9, 4e9)
        doc = base_doc(
            region={
                "bandwidths_hz": {
                    "min": 1e9,
                    "max": 1e10,
                    "count": 5,
                    "spacing": "log",
                }
            }
        )
        axis = parse_config(doc).region_bandwidths_hz
        assert len(axis) == 5
        assert axis[0] == pytest.approx(1e9)
        assert axis[-1] == pytest.approx(1e10)
        ratios = [b / a for a, b in zip(axis, axis[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_resolved_meta_view(self):
        resolved = parse_config(base_doc()).resolved()
        assert resolved["fiber_beta2_s2_m"] == -21.0e-27
        assert resolved["bandwidth_hz"] == 3e9
        assert resolved["dt_s"] == pytest.approx(64 * (2 / 3e9) / 4096)


class TestFailClosed:
    @pytest.mark.parametrize(
        "doc",
        [
            base_doc(extra_section={}),
            base_doc(fiber={"beta2_ps2_km": -21.0, "zz_km": 1.0}),
            base_doc(pcf={"d_ps_nm_km": 2200.0, "color": "blue"}),
            base_doc(compensator={"alphas": [1.0], "kmax": 3}),
            base_doc(signal={"pulse": "sinc", "bandwidth_hz": 3e9, "win": 2}),
            base_doc(sweep={"xis": [1.0]}),
            base_doc(output={"path": "x"}),
            base_doc(compensator={"alphas": [1.0], "gain": 3.0}),
            # each pulse kind takes one width key, and the step follows from
            # window_factor alone
            base_doc(signal={"pulse": "sinc", "width_s": 1e-10}),
            base_doc(signal={"pulse": "sinc", "bandwidth_hz": 3e9, "width_s": 1e-10}),
            base_doc(signal={"pulse": "gaussian", "width_s": 1e-10, "bandwidth_hz": 3e9}),
            base_doc(signal={"pulse": "sinc", "bandwidth_hz": 3e9, "dt_s": 1e-12}),
        ],
    )
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(doc)

    @pytest.mark.parametrize("signal", [{"pulse": "sinc"}, {"n_samples": 256}])
    def test_sinc_requires_bandwidth(self, signal):
        with pytest.raises(ConfigError, match="bandwidth_hz is required for sinc"):
            parse_config(base_doc(signal=signal))

    def test_fiber_requires_exactly_one_dispersion_value(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(base_doc(fiber={"d_ps_nm_km": 17.0, "beta2_ps2_km": -21.0}))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(base_doc(fiber={"lambda0_m": 1.55e-6}))

    def test_gaussian_rules(self):
        with pytest.raises(ConfigError):
            parse_config(base_doc(signal={"pulse": "gaussian", "bandwidth_hz": 3e9}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(signal={"pulse": "gaussian"}))

    def test_k_options_are_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config(
                base_doc(compensator={"k_max": 3, "k_list": [0, 1]})
            )
        with pytest.raises(ConfigError):
            parse_config(base_doc(compensator={"k_list": [2, 1]}))

    @pytest.mark.parametrize("k_list", [[], [-1, 2], [3, 3], [4, 2], [0, 2.5, 3]])
    def test_bad_k_list_rejected(self, k_list):
        with pytest.raises(ConfigError, match="k_list"):
            parse_config(base_doc(compensator={"k_list": k_list}))

    def test_stage_counts_past_float_range_rejected(self):
        assert math.isfinite(default_gain(1.0, MAX_STAGES))
        with pytest.raises(OverflowError):
            default_gain(1.0, MAX_STAGES + 1)
        for comp in ({"k_max": MAX_STAGES + 1}, {"k_list": [0, 1100]}):
            with pytest.raises(ConfigError, match=str(MAX_STAGES)):
                parse_config(base_doc(compensator=comp))
        cfg = parse_config(base_doc(compensator={"k_list": [MAX_STAGES]}))
        assert cfg.k_list == (MAX_STAGES,)

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            parse_config(base_doc(compensator={"alphas": [0.0]}))
        with pytest.raises(ConfigError):
            parse_config(base_doc(compensator={"alphas": [1.2]}))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError):
            parse_config(base_doc(fiber={"beta2_ps2_km": True}))

    def test_power_of_two_grid(self):
        with pytest.raises(ConfigError):
            parse_config(
                base_doc(
                    signal={"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": 1000}
                )
            )

    def test_xi_strictly_increasing(self):
        with pytest.raises(ConfigError):
            parse_config(base_doc(sweep={"xi": [1.0, 1.0]}))

    def test_bad_spacing(self):
        with pytest.raises(ConfigError):
            parse_config(
                base_doc(
                    region={
                        "bandwidths_hz": {
                            "min": 1e9,
                            "max": 2e9,
                            "count": 3,
                            "spacing": "cubic",
                        }
                    }
                )
            )

    @pytest.mark.parametrize(
        "doc, message",
        [
            (base_doc(pcf={"d_ps_nm_km": 0.0}), "pcf"),
            (base_doc(pcf={"d_ps_nm_km": -100.0}), "same sign"),
            (base_doc(fiber={"beta2_ps2_km": 0.0, "z_km": 130.0}), "pcf"),
            (base_doc(dcf={"d_ps_nm_km": 0.0}), "dcf"),
            # and documents that give no dispersion to use
            ([base_doc()], "configuration root must be a JSON object"),
            ({"scenario": "s"}, "fiber section is required"),
            (base_doc(pcf=[{"d_ps_nm_km": 2200.0}]), "pcf must be an object"),
            (base_doc(region={}), "region.bandwidths_hz is required"),
            (
                base_doc(region={"bandwidths_hz": [3e9, 1e9]}),
                "region.bandwidths_hz must be strictly increasing",
            ),
            (
                base_doc(region={"bandwidths_hz": []}),
                "region.bandwidths_hz must be a non-empty list",
            ),
        ],
        ids=[
            "zero-pcf", "opposite-sign-pcf", "zero-fiber-with-pcf", "zero-dcf",
            "root-not-object", "no-fiber", "section-not-object", "region-no-axis",
            "region-not-increasing", "region-empty-axis",
        ],
    )
    def test_unusable_dispersion_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_small_dispersions_of_one_sign_accepted(self, sign):
        # the smallest of the domains: beta2 1e-6 ps^2/km, and D 1e-6
        # ps/nm/km at a lambda0 of 1e-7 m, whose beta2 is about 5.3e-36 s^2/m
        doc = {
            "scenario": "tiny",
            "fiber": {"beta2_ps2_km": sign * -1e-6, "lambda0_m": 1e-7},
            "pcf": {"d_ps_nm_km": sign * 1e-6},
        }
        cfg = parse_config(doc)
        assert cfg.fiber_beta2 == sign * -1e-33
        assert cfg.pcf_beta2 == pytest.approx(sign * -5.3e-36, rel=1e-2)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                base_doc(fiber={"d_ps_nm_km": 17.0, "lambda0_m": 1e200}),
                r"fiber\.lambda0_m = 1e\+200 is outside its domain \[1e-07, 0\.0001\] m",
            ),
            (
                base_doc(fiber={"beta2_ps2_km": -21.0, "z_km": 1e306}),
                r"fiber\.z_km = 1e\+306 is outside",
            ),
            # D * lambda0**2 overflows, though lambda0**2 does not
            (
                base_doc(fiber={"d_ps_nm_km": 1e308, "lambda0_m": 1e6}),
                r"fiber\.lambda0_m = 1000000\.0 is outside",
            ),
            (
                base_doc(dcf={"d_ps_nm_km": -250.0, "quoted_path_km": 1e307}),
                r"dcf\.quoted_path_km = 1e\+307 is outside its domain \[1e-06, 1e\+06\] km",
            ),
            # the pulse width 2/B overflows to inf
            (
                base_doc(signal={"pulse": "sinc", "bandwidth_hz": 1e-320}),
                r"signal\.bandwidth_hz = 1e-320 is outside its domain \[1000, 1e\+15\] Hz",
            ),
            (
                base_doc(
                    signal={
                        "pulse": "sinc",
                        "bandwidth_hz": 1e308,
                        "window_factor": 1e-300,
                    }
                ),
                r"signal\.window_factor = 1e-300 is outside its domain \[1, 1e\+06\]$",
            ),
            # n_samples past the double range
            *(
                (
                    base_doc(signal={"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": n}),
                    rf"signal\.n_samples = {n} is outside its domain \[2, 1073741824\]",
                )
                for n in (2**1023, 2**1024, 2**1100)
            ),
        ],
        ids=[
            "lambda0", "z_km", "d_to_beta2", "quoted_path_km", "width_s", "dt_underflow",
            "n_samples-2**1023", "n_samples-2**1024", "n_samples-2**1100",
        ],
    )
    def test_resolved_values_must_be_finite(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            base_doc(signal={"pulse": "sinc", "bandwidth_hz": 2e200, "n_samples": 256}),
            base_doc(region={"bandwidths_hz": {"min": 1e9, "max": 1e160, "count": 3}}),
            base_doc(region={"bandwidths_hz": [1.1e-143, 1e9]}),
        ],
        ids=["sinc-width-tiny", "region-axis-huge", "region-subnormal"],
    )
    def test_bandwidth_range_rule(self, doc):
        with pytest.raises(ConfigError, match=r"is outside its domain \[1000, 1e\+15\] Hz"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                base_doc(fiber={"beta2_ps2_km": -1e-290, "z_km": 130.0}),
                r"fiber\.beta2_ps2_km = -1e-290 is outside its domain "
                r"0 or ±\[1e-06, 1e\+07\] ps\^2/km",
            ),
            (
                {"scenario": "s", "fiber": {"beta2_ps2_km": -1e-300}},
                r"fiber\.beta2_ps2_km = -1e-300 is outside",
            ),
            (
                base_doc(pcf={"d_ps_nm_km": 1e-290}),
                r"pcf\.d_ps_nm_km = 1e-290 is outside its domain "
                r"0 or ±\[1e-06, 1e\+07\] ps/nm/km",
            ),
            (
                base_doc(dcf={"beta2_ps2_km": 1e-290}),
                r"dcf\.beta2_ps2_km = 1e-290 is outside",
            ),
        ],
        ids=["fiber-subnormal", "fiber-underflows", "pcf-d-subnormal", "dcf-subnormal"],
    )
    def test_beta2_range_rule(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    def test_beta2_range_rule_skips_zero(self):
        # zero lies in a dispersion's domain
        cfg = parse_config({"scenario": "s", "fiber": {"beta2_ps2_km": 0}})
        assert cfg.fiber_beta2 == 0

    def test_span_without_pcf_must_be_finite(self):
        doc = base_doc(fiber={"beta2_ps2_km": -21.0, "z_km": 1e306})
        del doc["pcf"]
        with pytest.raises(ConfigError, match=r"fiber\.z_km = 1e\+306 is outside"):
            parse_config(doc)

    def test_bandwidth_range_rule_skips_zero_beta2(self):
        # a zero beta2 takes every band of the domain
        doc = base_doc(
            fiber={"beta2_ps2_km": 0.0}, signal={"pulse": "sinc", "bandwidth_hz": 1e15}
        )
        del doc["pcf"]
        assert parse_config(doc).bandwidth_hz == 1e15

    def test_scenario_required(self):
        with pytest.raises(ConfigError):
            parse_config({"fiber": {"d_ps_nm_km": 17.0}})


class TestLoadConfig:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_doc()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.scenario == "unit-test"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(base_doc()).encode("utf-16-le"))
        with pytest.raises(ConfigError, match="utf16.json is not UTF-8"):
            load_config(path)


def _replace_targets():
    """(section, key) paths of a full document, optional keys included."""
    doc = base_doc(
        dcf={"d_ps_nm_km": -250.0, "quoted_path_km": 7.0},
        region={"bandwidths_hz": {"min": 1e9, "max": 1e10, "count": 5}},
    )
    optional = {
        "fiber": ["d_ps_nm_km"],
        "compensator": ["k_list", "target_broadening"],
        "signal": ["window_factor"],
    }
    targets = [
        (section, key)
        for section, body in doc.items()
        if isinstance(body, dict)
        for key in [*body, *optional.get(section, [])]
    ]
    return doc, targets


_FULL_DOC, _TARGETS = _replace_targets()
# integers are capped so that no draw allocates a large region axis; the two
# past the double range are neither powers of two nor stage counts
_SCALARS = st.one_of(
    st.sampled_from([1e308, -1e308, 1e-320, 5e-324, 10**400, -(10**400)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-4096, max_value=4096),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
)


@settings(max_examples=300)
@given(
    target=st.sampled_from(_TARGETS),
    value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4)),
)
def test_replaced_key_is_rejected_or_resolves_finite(target, value):
    doc = copy.deepcopy(_FULL_DOC)
    section, key = target
    doc[section][key] = value
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    for name, resolved in cfg.resolved().items():
        values = resolved if isinstance(resolved, list) else [resolved]
        assert all(
            math.isfinite(v) for v in values if isinstance(v, float)
        ), name


def _bounds(key):
    """The magnitudes on the bounds of ``key``'s domain, and 0 where it holds 0."""
    domain = DOMAINS[key]
    return [domain.lo, domain.hi] + [0] * domain.zero


def _resolved(**sections):
    return parse_config({"scenario": "corner", **sections})


def test_every_formed_quantity_is_normal_at_every_corner_of_the_domains():
    # each quantity a command forms from its config, at every corner of the
    # domains of the keys it is formed from, is a normal double with 10
    # decades to spare at either end, or an exact zero where one of its
    # factors is zero. Every such quantity is monotone in each factor, so
    # its extremes over the domain box lie on these corners
    lo, hi = sys.float_info.min * 1e10, sys.float_info.max / 1e10
    bad = []

    def check(name, value, *factors):
        if not (lo <= abs(value) <= hi or (value == 0 and 0 in factors)):
            bad.append((name, value, factors))

    # each beta2 in s^2/m: as given, and from D at both lambda0_m bounds
    resolved = [(b, _resolved(fiber={"beta2_ps2_km": b})) for b in _bounds("beta2_ps2_km")]
    resolved += [
        (d, _resolved(fiber={"d_ps_nm_km": d, "lambda0_m": lam}))
        for d, lam in itertools.product(_bounds("d_ps_nm_km"), _bounds("lambda0_m"))
    ]
    for given, cfg in resolved:
        check("beta2 in s^2/m", cfg.fiber_beta2, given)
    beta2s = sorted({abs(cfg.fiber_beta2) for _, cfg in resolved})
    nonzero = [b for b in beta2s if b]
    assert len(nonzero) == 6

    # the time step of either pulse, and the full grid's squares over it
    steps = []
    for width, window, n in itertools.product(
        _bounds("bandwidth_hz") + _bounds("width_s"),
        _bounds("window_factor"),
        _bounds("n_samples"),
    ):
        pulse, key = ("sinc", "bandwidth_hz") if width >= 1 else ("gaussian", "width_s")
        signal = {"pulse": pulse, key: width, "window_factor": window, "n_samples": n}
        steps.append(_resolved(fiber={"beta2_ps2_km": 1}, signal=signal).dt_s)
    for dt_s, beta2 in itertools.product(steps, beta2s):
        w_sq = (math.pi / dt_s) * (math.pi / dt_s)
        check("dt_s", dt_s)
        check("(pi / dt_s)**2", w_sq)
        check("max(1, |beta2| / 2) * (pi / dt_s)**2", max(1.0, beta2 / 2) * w_sq)

    # a gaussian's squares
    for width, window in itertools.product(_bounds("width_s"), _bounds("window_factor")):
        check("width_s**2", width * width)
        check("(window_factor * width_s / 2)**2", (window * width / 2) ** 2)

    # the strength |beta2| * (2*pi*B)**2 of the sinc's and the region's bands
    bands = _bounds("bandwidth_hz") + _bounds("bandwidths_hz")
    for beta2, band in itertools.product(beta2s, bands):
        w = 2.0 * math.pi * band
        check("|beta2| * (2*pi*B)**2", beta2 * (w * w), beta2)

    # each span: fiber.z_km, and each sweep.xi's on a nonzero beta2, with a
    # pcf's branch L = beta2 * z / beta2_pcf and cascade path K * L
    spans = [_resolved(fiber={"beta2_ps2_km": 1, "z_km": z}).z_m for z in _bounds("z_km")]
    spans += [
        span_length(xi, beta2, band)
        for xi, beta2, band in itertools.product(_bounds("xi"), nonzero, bands)
    ]
    for z in spans:
        check("span z", z, z)
        for beta2, pcf_beta2, k in itertools.product(nonzero, nonzero, _bounds("k_max")):
            length = matched_length(beta2, z, pcf_beta2)
            check("L = beta2 * z / beta2_pcf", length, z)
            check("K * L", k * length, k, z)

    # the dcf path beside fiber.z_km, and the quoted path in m
    for z_km, beta2, dcf_beta2 in itertools.product(_bounds("z_km"), beta2s, nonzero):
        check("z * |beta2| / |beta2_dcf|", dcf_path(z_km * 1e3, beta2, dcf_beta2), z_km, beta2)
    for quoted in _bounds("quoted_path_km"):
        dcf = {"beta2_ps2_km": 1, "quoted_path_km": quoted}
        check("dcf_quoted_path_m", _resolved(fiber={"beta2_ps2_km": 1}, dcf=dcf).dcf_quoted_path_m)

    # a sinc's span phase max(1, xi), and a gaussian's on the full grid
    for beta2, z_km, band in itertools.product(beta2s, _bounds("z_km"), bands):
        check("max(1, xi)", max(1.0, dispersion_strength(beta2, z_km * 1e3, band)))
    for beta2, z_km, dt_s in itertools.product(beta2s, _bounds("z_km"), steps):
        phase = z_km * 1e3 * beta2 / 2 * (math.pi / dt_s) ** 2
        check("z * |beta2| / 2 * (pi / dt_s)**2", phase, z_km, beta2)
    assert not bad


def _load(path: Path):
    """The module at ``path``, loaded from its file without changing it."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traffic():
    """(command, config) of what runs: the benchmark, the README, CI and golden."""
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(1, 6):
            for doc in itertools.islice(workloads.config_docs(name, seed), 100):
                yield workload.command, doc
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [readme] = re.findall(r"```json\n(.*?)```", text, re.S)
    workflow = _load(ROOT / "tests" / "test_workflow.py")
    [smoke] = [body for _, s in workflow.STEPS for body in workflow._json_heredocs(s)]
    for body in (readme, smoke):
        for command in ("region", "sweep-k", "scenario", "propagate"):
            yield command, json.loads(body)
    golden = _load(ROOT / "tests" / "test_golden.py")
    for command, doc in [
        ("sweep-k", golden.SWEEP), ("sweep-k", golden.K_LIST), ("region", golden.REGION),
        ("region", golden.README_REGION), ("scenario", golden.SCENARIO),
    ]:
        yield command, doc


def test_benchmark_and_pinned_configs_lie_inside_the_domains():
    # the first 100 configs of each benchmark workload for seeds 1-5, the
    # README's and CI's configs and every golden config pass every check
    # before a run: a bound tightened past any of them fails here
    traffic = list(_traffic())
    assert len(traffic) == 3 * 5 * 100 + 2 * 4 + 5
    for command, doc in traffic:
        check_run(parse_config(doc), command)


_AXIS_BOUNDS = st.floats(DOMAINS["bandwidths_hz"].lo, DOMAINS["bandwidths_hz"].hi)


@settings(max_examples=300)
@given(ends=st.lists(_AXIS_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       count=st.integers(2, 2000))
def test_linear_axis_is_numpy_linspace(ends, count):
    lo, hi = ends
    axis = {"min": lo, "max": hi, "count": count, "spacing": "linear"}
    resolved = parse_config(base_doc(region={"bandwidths_hz": axis})).region_bandwidths_hz
    assert resolved == tuple(np.linspace(lo, hi, count).tolist())
