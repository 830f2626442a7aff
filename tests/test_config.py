import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from dispersim import d_to_beta2, default_gain
from dispersim.config import MAX_STAGES, ConfigError, load_config, parse_config


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
                "region.bandwidths_hz must not be empty",
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
        # in SI units the product of the two beta2 values underflows to zero
        doc = {
            "scenario": "tiny",
            "fiber": {"beta2_ps2_km": sign * -1e-143},
            "pcf": {"beta2_ps2_km": sign * -1e-133},
        }
        cfg = parse_config(doc)
        assert cfg.fiber_beta2 * cfg.pcf_beta2 == 0
        assert cfg.pcf_beta2 == pytest.approx(sign * -1e-160)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (base_doc(fiber={"d_ps_nm_km": 17.0, "lambda0_m": 1e200}), "overflows"),
            (base_doc(fiber={"beta2_ps2_km": -21.0, "z_km": 1e306}), "fiber.z_km"),
            # D * lambda0**2 overflows, though lambda0**2 does not
            (
                base_doc(fiber={"d_ps_nm_km": 1e308, "lambda0_m": 1e6}),
                "fiber.d_ps_nm_km in s.2/m must be finite",
            ),
            (
                base_doc(dcf={"d_ps_nm_km": -250.0, "quoted_path_km": 1e307}),
                "dcf_quoted_path_m",
            ),
            # the pulse width 2/B overflows to inf
            (
                base_doc(signal={"pulse": "sinc", "bandwidth_hz": 1e-320}),
                "pulse_width_s",
            ),
            (
                base_doc(
                    signal={
                        "pulse": "sinc",
                        "bandwidth_hz": 1e308,
                        "window_factor": 1e-300,
                    }
                ),
                "dt_s",
            ),
            # n_samples past the double range: dt_s is refused, not an OverflowError
            *(
                (
                    base_doc(signal={"pulse": "sinc", "bandwidth_hz": 3e9, "n_samples": n}),
                    "dt_s",
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
            # |beta2| * (2*pi*B)^2 is a positive subnormal here
            base_doc(region={"bandwidths_hz": [1.1e-143, 1e9]}),
        ],
        ids=["sinc-width-tiny", "region-axis-huge", "region-subnormal"],
    )
    def test_bandwidth_range_rule(self, doc):
        with pytest.raises(ConfigError, match="out of range"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            # -1e-317 s^2/m: a subnormal
            (
                base_doc(fiber={"beta2_ps2_km": -1e-290, "z_km": 130.0}),
                r"fiber\.beta2_ps2_km in s\^2/m is out of range: -1e-317",
            ),
            # a nonzero beta2 that underflows to zero, with no pcf to refuse it
            (
                {"scenario": "s", "fiber": {"beta2_ps2_km": -1e-300}},
                r"fiber\.beta2_ps2_km in s\^2/m is out of range: -0,",
            ),
            (
                base_doc(pcf={"d_ps_nm_km": 1e-290}),
                r"pcf\.d_ps_nm_km in s\^2/m is out of range",
            ),
            (
                base_doc(dcf={"beta2_ps2_km": 1e-290}),
                r"dcf\.beta2_ps2_km in s\^2/m is out of range",
            ),
        ],
        ids=["fiber-subnormal", "fiber-underflows", "pcf-d-subnormal", "dcf-subnormal"],
    )
    def test_beta2_range_rule(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    def test_beta2_range_rule_skips_zero(self):
        # an exact zero is the input's own value: only an underflow is refused
        cfg = parse_config({"scenario": "s", "fiber": {"beta2_ps2_km": 0}})
        assert cfg.fiber_beta2 == 0

    def test_span_without_pcf_must_be_finite(self):
        # with a pcf section the matched branch overflows too; without one the
        # span alone carries the rule
        doc = base_doc(fiber={"beta2_ps2_km": -21.0, "z_km": 1e306})
        del doc["pcf"]
        with pytest.raises(ConfigError, match=r"fiber\.z_km span z is out of range"):
            parse_config(doc)

    def test_bandwidth_range_rule_skips_zero_beta2(self):
        doc = base_doc(
            fiber={"beta2_ps2_km": 0.0}, signal={"pulse": "sinc", "bandwidth_hz": 1e200}
        )
        del doc["pcf"]
        assert parse_config(doc).bandwidth_hz == 1e200

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
