from dataclasses import replace

import pytest

from conftest import enumerate_conditional_rates
from biphoton.bench import (
    BenchConfig,
    ConfigError,
    DetectorParams,
    DriverPolicy,
    NoClosedFormError,
    PockelsParams,
    PulseShape,
    TacParams,
    predict_coincidence_visibility,
    predict_singles_rate,
    predict_singles_visibility,
)
from biphoton.polarization import Projector


def cfg_with(**kwargs) -> BenchConfig:
    base = BenchConfig()
    nested = {}
    for key in ("eta1", "eta2", "q", "failure_model"):
        kwargs.setdefault(key, None)
    eta1 = kwargs.pop("eta1")
    eta2 = kwargs.pop("eta2")
    q = kwargs.pop("q")
    model = kwargs.pop("failure_model")
    if eta1 is not None:
        nested["det1"] = replace(base.det1, eta=eta1)
    if eta2 is not None:
        nested["det2"] = replace(base.det2, eta=eta2)
    pockels = base.pockels
    if q is not None:
        pockels = replace(pockels, q=q)
    if model is not None:
        pockels = replace(pockels, failure_model=model)
    nested["pockels"] = pockels
    return replace(base, **nested, **kwargs)


# ---------------------------------------------------------------------------
# pulse shape


def test_pulse_amplitude_piecewise():
    p = PulseShape()
    assert p.amplitude(-1.0) == 0.0
    assert p.amplitude(0.0) == 0.0
    assert p.amplitude(2.5) == pytest.approx(0.5)
    assert p.amplitude(5.0) == 1.0
    assert p.amplitude(60.0) == 1.0
    assert p.amplitude(105.0) == 1.0
    assert p.amplitude(105.0 + 1750.0) == pytest.approx(0.5)
    assert p.amplitude(3605.0) == 0.0
    assert p.amplitude(1e6) == 0.0


def test_pulse_amplitude_piecewise_continuous():
    p = PulseShape()
    for knot in (0.0, 5.0, 105.0, 3605.0):
        lo = p.amplitude(knot - 1e-6)
        hi = p.amplitude(knot + 1e-6)
        assert abs(hi - lo) < 1e-5


def test_pulse_total_and_validation():
    assert PulseShape().total_ns == 3605.0
    with pytest.raises(ConfigError):
        PulseShape(rise_ns=-1.0)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="eta"):
        DetectorParams(eta=1.5)
    with pytest.raises(ConfigError, match="rate_threshold"):
        DriverPolicy(rate_threshold_hz=0.0)
    with pytest.raises(ConfigError, match="q ="):
        PockelsParams(q=-0.1)
    with pytest.raises(ConfigError, match="failure_model"):
        PockelsParams(failure_model="sometimes")
    with pytest.raises(ConfigError, match="window_ns"):
        TacParams(window_ns=0.0)
    with pytest.raises(ConfigError, match="source_kind"):
        BenchConfig(source_kind="thermal")
    for rate in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="pair_rate_hz"):
            BenchConfig(pair_rate_hz=rate)
    with pytest.raises(ConfigError, match="state_visibility"):
        BenchConfig(state_visibility=1.2)
    with pytest.raises(ConfigError, match="idler_path_loss"):
        BenchConfig(idler_path_loss=-0.2)
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf):
        with pytest.raises(ConfigError, match="dark rate"):
            DetectorParams(dark_rate_hz=bad)
        with pytest.raises(ConfigError, match="dead time"):
            DetectorParams(dead_time_ns=bad)
        with pytest.raises(ConfigError, match="background_rate_hz"):
            BenchConfig(background_rate_hz=bad)
        with pytest.raises(ConfigError, match="delays"):
            BenchConfig(fiber_delay_ns=bad)
        with pytest.raises(ConfigError, match="delays"):
            BenchConfig(electronic_delay_ns=bad)
        with pytest.raises(ConfigError, match="window_ns"):
            TacParams(window_ns=bad)
        with pytest.raises(ConfigError, match="stop_delay_ns"):
            TacParams(stop_delay_ns=bad)
        with pytest.raises(ConfigError, match="PulseShape"):
            PulseShape(fall_ns=bad)
    for bad in (nan, inf, -inf):
        with pytest.raises(ConfigError, match="rotation_angle_deg"):
            PockelsParams(rotation_angle_deg=bad)
        with pytest.raises(ValueError, match="angle_deg"):
            Projector(bad)
    with pytest.raises(ConfigError, match="rate_threshold"):
        DriverPolicy(rate_threshold_hz=nan)
    with pytest.raises(ConfigError, match="disable_duration"):
        DriverPolicy(disable_duration_s=nan)


def test_bernoulli_success_probability():
    assert PockelsParams(q=0.832).success_probability == pytest.approx(0.916)


def test_pulse_amplitude_at_idler_uses_both_delays():
    cfg = BenchConfig(fiber_delay_ns=50.0, electronic_delay_ns=2000.0)
    assert cfg.pulse_amplitude_at_idler() == pytest.approx(cfg.pulse.amplitude(2050.0))
    assert cfg.pulse_amplitude_at_idler() == pytest.approx(1.0 - 1945.0 / 3500.0)


# ---------------------------------------------------------------------------
# singles rate prediction


def test_rate_vanishes_at_h_for_perfect_gate():
    cfg = cfg_with(eta1=1.0, q=1.0)
    assert predict_singles_rate(cfg, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_rate_flat_without_trigger_efficiency():
    cfg = cfg_with(eta1=0.0, q=1.0)
    rates = [predict_singles_rate(cfg, th) for th in range(0, 180, 20)]
    assert max(rates) == pytest.approx(min(rates), rel=1e-12)


def test_rate_modulation_frozen_value():
    cfg = cfg_with(eta1=0.45, q=0.832)
    scale = cfg.pair_rate_hz * cfg.idler_path_loss * cfg.det2.eta / 2.0
    assert predict_singles_rate(cfg, 90.0) / scale == pytest.approx(1.3744, abs=1e-12)


def test_rate_scales_linearly_and_has_period_180():
    cfg = cfg_with(eta1=0.45, q=0.832)
    doubled_n0 = replace(cfg, pair_rate_hz=2 * cfg.pair_rate_hz)
    doubled_eta2 = replace(cfg, det2=replace(cfg.det2, eta=2 * cfg.det2.eta))
    for theta in (0.0, 33.0, 90.0):
        base = predict_singles_rate(cfg, theta)
        assert predict_singles_rate(doubled_n0, theta) == pytest.approx(2 * base)
        assert predict_singles_rate(doubled_eta2, theta) == pytest.approx(2 * base)
        assert predict_singles_rate(cfg, theta + 180.0) == pytest.approx(base)


def test_rate_respects_h_trigger_mirror():
    v_trig = cfg_with(eta1=0.45, q=0.832)
    h_trig = replace(v_trig, trigger_projector=Projector(0.0))
    assert predict_singles_rate(h_trig, 0.0) == pytest.approx(
        predict_singles_rate(v_trig, 90.0)
    )


def test_rate_no_closed_form_cases():
    with pytest.raises(NoClosedFormError, match="failure model"):
        predict_singles_rate(cfg_with(failure_model="bernoulli_identity"), 0.0)
    with pytest.raises(NoClosedFormError, match="source kind"):
        predict_singles_rate(replace(BenchConfig(), source_kind="psi_plus"), 0.0)
    with pytest.raises(NoClosedFormError, match="triggered at"):
        predict_singles_rate(replace(BenchConfig(), trigger_projector=Projector(45.0)), 0.0)
    with pytest.raises(NoClosedFormError, match="flat top"):
        predict_singles_rate(replace(BenchConfig(), electronic_delay_ns=500.0), 0.0)


# ---------------------------------------------------------------------------
# visibility predictions


def test_singles_visibility_values():
    assert predict_singles_visibility(cfg_with(eta1=0.45, q=1.0)) == pytest.approx(0.45)
    assert predict_singles_visibility(cfg_with(eta1=0.486, q=0.832)) == pytest.approx(
        0.4044, abs=5e-5
    )
    assert predict_singles_visibility(cfg_with(eta1=0.0, q=1.0)) == 0.0


def test_coincidence_visibility_values():
    assert predict_coincidence_visibility(cfg_with(q=1.0)) == pytest.approx(1.0)
    assert predict_coincidence_visibility(cfg_with(q=0.832)) == pytest.approx(0.832)
    bern = cfg_with(q=0.832, failure_model="bernoulli_identity")
    assert predict_coincidence_visibility(bern) == pytest.approx(0.832)


def test_visibility_includes_state_and_polarizer_factors():
    cfg = cfg_with(eta1=0.5, q=0.8, state_visibility=0.9)
    cfg = replace(cfg, trigger_projector=Projector(90.0, transmittance=0.95))
    assert predict_singles_visibility(cfg) == pytest.approx(0.5 * 0.95 * 0.9 * 0.8)
    assert predict_coincidence_visibility(cfg) == pytest.approx(0.8 * 0.9)


@pytest.mark.parametrize("eta1", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("q", [0.6, 0.832, 1.0])
def test_visibility_ratio_is_exactly_eta1_for_depolarizer(eta1, q):
    cfg = cfg_with(eta1=eta1, q=q)
    ratio = predict_singles_visibility(cfg) / predict_coincidence_visibility(cfg)
    assert ratio == pytest.approx(eta1, rel=1e-12)
    # and the closed forms agree with brute-force branch enumeration
    rates = enumerate_conditional_rates(eta1, 0.4, q, "uniform_depolarizer")
    vis_s = (rates["n_v"] - rates["n_h"]) / (rates["n_v"] + rates["n_h"])
    vis_c = (rates["nc_v"] - rates["nc_h"]) / (rates["nc_v"] + rates["nc_h"])
    assert vis_s == pytest.approx(predict_singles_visibility(cfg), rel=1e-12)
    assert vis_c == pytest.approx(predict_coincidence_visibility(cfg), rel=1e-12)


def test_visibility_ratio_bias_for_bernoulli_model():
    eta1, q = 0.45, 0.832
    p_ok = (1.0 + q) / 2.0
    cfg = cfg_with(eta1=eta1, q=q, failure_model="bernoulli_identity")
    ratio = predict_singles_visibility(cfg) / predict_coincidence_visibility(cfg)
    assert ratio == pytest.approx(eta1 * p_ok / (2 * p_ok - 1), rel=1e-12)
    rates = enumerate_conditional_rates(eta1, 0.4, q, "bernoulli_identity")
    vis_s = (rates["n_v"] - rates["n_h"]) / (rates["n_v"] + rates["n_h"])
    vis_c = (rates["nc_v"] - rates["nc_h"]) / (rates["nc_v"] + rates["nc_h"])
    assert vis_s / vis_c == pytest.approx(ratio, rel=1e-12)


def test_rate_agrees_with_enumeration_oracle():
    eta1, eta2, q = 0.45, 0.4, 0.832
    cfg = cfg_with(eta1=eta1, eta2=eta2, q=q)
    rates = enumerate_conditional_rates(eta1, eta2, q, "uniform_depolarizer")
    for theta, key in ((0.0, "n_h"), (90.0, "n_v")):
        per_pair = predict_singles_rate(cfg, theta) / cfg.pair_rate_hz
        assert per_pair == pytest.approx(rates[key], rel=1e-12)
