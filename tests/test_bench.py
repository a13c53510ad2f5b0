import math
from dataclasses import fields, replace

import pytest

from conftest import enumerate_conditional_rates
from biphoton.bench import (
    FAILURE_MODELS,
    MAX_DELAY_NS,
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
from biphoton.calibrate import CalibrationError, CountSummary, Estimate, KlyshkoCounts
from biphoton.polarization import STATE_KINDS, Projector
from biphoton.uncertainty import DISTRIBUTIONS, UncertainInput


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
    with pytest.raises(ValueError, match="t_ns = nan"):  # used to return 0.0
        p.amplitude(math.nan)


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
        with pytest.raises(ConfigError, match="dark_rate_hz"):
            DetectorParams(dark_rate_hz=bad)
        with pytest.raises(ConfigError, match="dead_time_ns"):
            DetectorParams(dead_time_ns=bad)
        with pytest.raises(ConfigError, match="background_rate_hz"):
            BenchConfig(background_rate_hz=bad)
        with pytest.raises(ConfigError, match="fiber_delay_ns"):
            BenchConfig(fiber_delay_ns=bad)
        with pytest.raises(ConfigError, match="electronic_delay_ns"):
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
    # a delay is valid up to MAX_DELAY_NS; above it the float event times
    # would round coarser than the TAC window
    BenchConfig(fiber_delay_ns=MAX_DELAY_NS, electronic_delay_ns=MAX_DELAY_NS)
    TacParams(stop_delay_ns=MAX_DELAY_NS)
    for bad in (math.nextafter(MAX_DELAY_NS, inf), 1e17, 1e300):
        with pytest.raises(ConfigError, match="fiber_delay_ns"):
            BenchConfig(fiber_delay_ns=bad)
        with pytest.raises(ConfigError, match="electronic_delay_ns"):
            BenchConfig(electronic_delay_ns=bad)
        with pytest.raises(ConfigError, match="stop_delay_ns"):
            TacParams(stop_delay_ns=bad)


# The admitted set of every float and string field of the checked records,
# written out apart from the ranges the records declare.  NaN compares false,
# and -0.0 == 0.0.
_count = lambda v: 0.0 <= v < math.inf
_ADMITTED = {
    "PulseShape.rise_ns": lambda v: 0.0 <= v < math.inf,
    "PulseShape.flat_ns": lambda v: 0.0 <= v < math.inf,
    "PulseShape.fall_ns": lambda v: 0.0 <= v < math.inf,
    "DriverPolicy.rate_threshold_hz": lambda v: v > 0.0,
    "DriverPolicy.disable_duration_s": lambda v: v >= 0.0,
    "DetectorParams.eta": lambda v: 0.0 <= v <= 1.0,
    "DetectorParams.dead_time_ns": lambda v: 0.0 <= v < math.inf,
    "DetectorParams.dark_rate_hz": lambda v: 0.0 <= v < math.inf,
    "PockelsParams.q": lambda v: 0.0 <= v <= 1.0,
    "PockelsParams.failure_model": lambda v: v in FAILURE_MODELS,
    "PockelsParams.rotation_angle_deg": math.isfinite,
    "TacParams.window_ns": lambda v: 0.0 < v < math.inf,
    "TacParams.stop_delay_ns": lambda v: 0.0 <= v <= MAX_DELAY_NS,
    "BenchConfig.pair_rate_hz": lambda v: 0.0 <= v < math.inf,
    "BenchConfig.source_kind": lambda v: v in STATE_KINDS,
    "BenchConfig.state_visibility": lambda v: 0.0 <= v <= 1.0,
    "BenchConfig.idler_path_loss": lambda v: 0.0 <= v <= 1.0,
    "BenchConfig.fiber_delay_ns": lambda v: 0.0 <= v <= MAX_DELAY_NS,
    "BenchConfig.electronic_delay_ns": lambda v: 0.0 <= v <= MAX_DELAY_NS,
    "BenchConfig.background_rate_hz": lambda v: 0.0 <= v < math.inf,
    "Projector.angle_deg": math.isfinite,
    "Projector.transmittance": lambda v: 0.0 <= v <= 1.0,
    **{
        f"CountSummary.{name}": _count
        for name in ("n_h", "n_v", "nc_h", "nc_v", "background_h", "background_v")
    },
    **{
        f"KlyshkoCounts.{name}": _count
        for name in ("n_signal", "n_idler", "n_coincidence", "tau_ns", "t_ns")
    },
    "Estimate.value": math.isfinite,
    "Estimate.u": _count,
    "UncertainInput.value": math.isfinite,
    "UncertainInput.std_dev": _count,
    "UncertainInput.distribution": lambda v: v in DISTRIBUTIONS,
}
# Valid values of the fields without a default; each case varies one field.
_BASE = {
    Projector: dict(angle_deg=30.0),
    CountSummary: dict(n_h=76.6, n_v=165.9, nc_h=4.4, nc_v=48.7),
    KlyshkoCounts: dict(n_signal=1e3, n_idler=1e3, n_coincidence=1e2, tau_ns=40.0, t_ns=10.0),
    Estimate: dict(value=0.5),
    UncertainInput: dict(name="n_h", value=76.6, std_dev=4.2),
}
_CONFIGS = (PulseShape, DriverPolicy, DetectorParams, PockelsParams, TacParams, BenchConfig)
_ERROR = {
    **dict.fromkeys(_CONFIGS, ConfigError),
    **dict.fromkeys((CountSummary, KlyshkoCounts), CalibrationError),
    **dict.fromkeys((Projector, Estimate, UncertainInput), ValueError),
}


def _klyshko_cross_error(k: dict) -> str | None:
    """The message of the KlyshkoCounts check across fields that in-range ``k`` fails, if any."""
    if k["n_coincidence"] > min(k["n_signal"], k["n_idler"]):
        return "KlyshkoCounts: coincidences exceed a singles rate"
    if not 1.0 - k["n_signal"] * k["tau_ns"] * 1e-9 > 0.0:
        return "KlyshkoCounts: n_signal * tau must be < 1"
    if not 1.0 - k["n_signal"] * k["t_ns"] * 1e-9 > 0.0:
        return "KlyshkoCounts: n_signal * T must be < 1"
    return None


_EDGE_NUMBERS = (
    -math.inf, -1e300, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, math.nextafter(1.0, math.inf), 3.0,
    1e9, math.nextafter(1e9, math.inf), 1e300, math.inf, math.nan,
)
_EDGE_STRINGS = STATE_KINDS + FAILURE_MODELS + DISTRIBUTIONS + ("", "Mixed_HV", "Gaussian")
_CHECKED_FIELDS = [
    (cls, f)
    for cls in _ERROR
    for f in fields(cls)
    # an input's name labels its messages and may be any string
    if f.type in ("float", "str") and (cls, f.name) != (UncertainInput, "name")
]


@pytest.mark.parametrize(
    "cls, f", _CHECKED_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in _CHECKED_FIELDS]
)
def test_config_field_declares_and_admits_its_set(cls, f):
    assert "admits" in f.metadata, "the field declares no range or choices"
    admitted = _ADMITTED[f"{cls.__name__}.{f.name}"]
    label = "UncertainInput n_h" if cls is UncertainInput else cls.__name__
    for value in _EDGE_STRINGS if f.type == "str" else _EDGE_NUMBERS:
        kwargs = {**_BASE.get(cls, {}), f.name: value}
        cross = admitted(value) and cls is KlyshkoCounts and _klyshko_cross_error(kwargs)
        if admitted(value) and not cross:
            assert getattr(cls(**kwargs), f.name) is value
            continue
        with pytest.raises(ValueError) as err:
            cls(**kwargs)
        assert type(err.value) is _ERROR[cls]
        if cross:
            assert str(err.value) == cross
        else:
            assert str(err.value).startswith(f"{label}: {f.name} = {value!r} must be ")


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
