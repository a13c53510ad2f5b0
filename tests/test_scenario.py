from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biphoton.bench import (
    FAILURE_MODELS,
    MAX_DELAY_NS,
    BenchConfig,
    ConfigError,
    DetectorParams,
    DriverPolicy,
    PockelsParams,
    PulseShape,
    TacParams,
)
from biphoton.polarization import STATE_KINDS, Projector
from biphoton.scenario import (
    CONFIG_KEYS,
    parse_config,
    parse_counts,
    parse_keyvalues,
    render_config,
)

DEMO_SCENARIO = Path(__file__).resolve().parents[1] / "demos" / "data" / "bench_calibration.cfg"

_unit = st.floats(0.0, 1.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_nonneg = st.floats(min_value=0.0, allow_infinity=False)
_delays = st.floats(0.0, MAX_DELAY_NS)
_projectors = st.builds(Projector, _finite, _unit)
_detectors = st.builds(DetectorParams, _unit, _nonneg, _nonneg)
# Every valid BenchConfig, including the infinite driver settings it accepts.
valid_configs = st.builds(
    BenchConfig,
    pair_rate_hz=_nonneg,
    source_kind=st.sampled_from(STATE_KINDS),
    state_visibility=_unit,
    idler_path_loss=_unit,
    trigger_projector=_projectors,
    analyzer=_projectors,
    pockels=st.builds(PockelsParams, _unit, st.sampled_from(FAILURE_MODELS), _finite),
    fiber_delay_ns=_delays,
    electronic_delay_ns=_delays,
    pulse=st.builds(PulseShape, _nonneg, _nonneg, _nonneg),
    driver=st.builds(
        DriverPolicy, st.floats(min_value=0.0, exclude_min=True), st.floats(min_value=0.0)
    ),
    det1=_detectors,
    det2=_detectors,
    tac=st.builds(
        TacParams, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), _delays
    ),
    background_rate_hz=_nonneg,
)


def test_round_trip_default_config():
    cfg = BenchConfig()
    assert parse_config(render_config(cfg)) == cfg


def test_round_trip_modified_config():
    cfg = BenchConfig(
        pair_rate_hz=2.708e5,
        source_kind="psi_plus",
        state_visibility=0.872,
        idler_path_loss=0.35,
        trigger_projector=Projector(45.0, 0.9842),
        analyzer=Projector(135.0, 0.99),
        pockels=PockelsParams(q=0.832, failure_model="bernoulli_identity"),
        fiber_delay_ns=1000.0,
        electronic_delay_ns=200.0,
        det1=DetectorParams(eta=0.486, dead_time_ns=40.0, dark_rate_hz=150.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0, dark_rate_hz=220.0),
        tac=TacParams(window_ns=2.0, stop_delay_ns=9.3),
        background_rate_hz=312.5,
    )
    assert parse_config(render_config(cfg)) == cfg


@given(valid_configs)
def test_round_trip_any_valid_config(cfg):
    assert parse_config(render_config(cfg)) == cfg


def test_render_emits_every_key_once():
    text = render_config(BenchConfig())
    keys = [line.split("=", 1)[0] for line in text.strip().splitlines()]
    assert keys == list(CONFIG_KEYS)
    assert len(set(keys)) == len(keys)
    # The keys follow the dataclasses' field order, so reordering a field
    # would reorder every rendered file; the shipped scenario pins the order.
    shipped = parse_keyvalues(DEMO_SCENARIO.read_text(encoding="utf-8"))
    del shipped["pockels.basis"]
    assert list(shipped) == list(CONFIG_KEYS)


def test_parse_partial_override_keeps_defaults():
    cfg = parse_config("det1.eta=0.486\npockels.q=0.832\n")
    assert cfg.det1.eta == 0.486
    assert cfg.det1.dead_time_ns == BenchConfig().det1.dead_time_ns
    assert cfg.pockels.q == 0.832
    assert cfg.analyzer == BenchConfig().analyzer


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\npair_rate_hz=5e4  # trailing comment\n"
    assert parse_config(text).pair_rate_hz == 5e4


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'det3.eta'"):
        parse_config("det3.eta=0.5\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'det1.eta'"):
        parse_config("det1.eta=0.5\ndet1.eta=0.6\n")


def test_parse_rejects_bad_number_and_garbage():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config("det1.eta=high\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("=5\n")


def test_parse_validates_through_config_invariants():
    with pytest.raises(ConfigError, match="eta"):
        parse_config("det1.eta=1.5\n")
    with pytest.raises(ConfigError, match="source_kind"):
        parse_config("source_kind=laser\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("background_rate_hz=nan", "background_rate_hz"),
        ("fiber_delay_ns=inf", "fiber_delay_ns"),
        ("electronic_delay_ns=-inf", "electronic_delay_ns"),
        ("tac.window_ns=nan", "window_ns"),
        ("tac.stop_delay_ns=inf", "stop_delay_ns"),
        ("det1.dark_rate_hz=nan", "dark_rate_hz"),
        ("det2.dead_time_ns=inf", "dead_time_ns"),
        ("pulse.fall_ns=nan", "fall_ns"),
        ("pockels.rotation_angle_deg=inf", "rotation_angle_deg"),
    ],
)
def test_parse_rejects_non_finite_values(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(line + "\n")


def test_parse_ignores_legacy_basis_key():
    text = "det1.eta=0.486\n"
    for basis in ("hv", "diag"):
        assert parse_config(text + f"pockels.basis={basis}\n") == parse_config(text)
    with pytest.raises(ConfigError, match="pockels.basis"):
        parse_config(text + "pockels.basis=circular\n")


def test_parse_keyvalues_preserves_strings():
    kv = parse_keyvalues("a=1\nb = two words \n")
    assert kv == {"a": "1", "b": "two words"}


def test_parse_counts_restricts_keys():
    out = parse_counts("n_h=76.6\nn_v=165.9\n", ("n_h", "n_v"))
    assert out == {"n_h": 76.6, "n_v": 165.9}
    with pytest.raises(ConfigError, match="unknown key"):
        parse_counts("n_x=1\n", ("n_h",))
    with pytest.raises(ConfigError, match="not a number"):
        parse_counts("n_h=many\n", ("n_h",))


def test_round_trip_is_stable_under_reparse():
    cfg = replace(BenchConfig(), pair_rate_hz=12345.6789)
    once = render_config(cfg)
    twice = render_config(parse_config(once))
    assert once == twice
