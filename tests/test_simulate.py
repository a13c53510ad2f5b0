import math
import re
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import conditional_run_reference, tac_loop_reference, tac_reference, traced_peak
from biphoton import simulate
from biphoton.bench import (
    MAX_DELAY_NS,
    BenchConfig,
    DetectorParams,
    PockelsParams,
    TacParams,
    predict_coincidence_visibility,
    predict_singles_rate,
    predict_singles_visibility,
)
from biphoton.calibrate import (
    CalibrationError,
    CountSummary,
    KlyshkoCounts,
    fit_theta_curve,
    visibility,
    visibility_sigma,
)
from biphoton.polarization import Projector
from biphoton.scenario import load_config
from biphoton.simulate import (
    DelayScanPoint,
    EventRecords,
    RunTooLargeError,
    SimResult,
    ThetaScanPoint,
    conditional_counts,
    driver_gate,
    hv_counts,
    klyshko_counts,
    run_conditional_experiment,
    run_klyshko_experiment,
    scan_delay,
    scan_theta,
    subseed,
    tac_coincidences,
    write_event_csv,
)
from biphoton.uncertainty import MIN_MC_TRIALS, UncertainInput, monte_carlo_uncertainty


CALIBRATION_CFG = Path(__file__).resolve().parents[1] / "demos" / "data" / "bench_calibration.cfg"
KLYSHKO_HIGHRATE_CFG = (
    Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "klyshko_highrate.cfg"
)


def closure_config(eta1=0.45, eta2=0.40, q=1.0, **kwargs) -> BenchConfig:
    """Low-rate bench (trigger rate well under the driver threshold)."""
    base = BenchConfig()
    return BenchConfig(
        pair_rate_hz=2.0e4,
        det1=replace(base.det1, eta=eta1),
        det2=replace(base.det2, eta=eta2),
        pockels=replace(base.pockels, q=q),
        **kwargs,
    )


def counts(res):
    return res.singles_trigger, res.singles_analyzer, res.coincidences


# ---------------------------------------------------------------------------
# determinism and trivia


def test_identical_seed_reproduces_bit_identical_results():
    cfg = closure_config()
    a = run_conditional_experiment(cfg, 2.0, 1234, keep_records=True)
    b = run_conditional_experiment(cfg, 2.0, 1234, keep_records=True)
    assert (a.singles_trigger, a.singles_analyzer, a.coincidences) == (
        b.singles_trigger,
        b.singles_analyzer,
        b.coincidences,
    )
    assert a.records == b.records
    c = run_conditional_experiment(cfg, 2.0, 1235)
    assert (a.singles_trigger, a.singles_analyzer) != (c.singles_trigger, c.singles_analyzer)


def test_zero_duration_and_zero_rate_give_zero_counts():
    cfg = closure_config()
    for res in (
        run_conditional_experiment(cfg, 0.0, 1),
        run_conditional_experiment(replace(cfg, pair_rate_hz=0.0), 5.0, 1),
        run_klyshko_experiment(replace(cfg, pair_rate_hz=0.0), 5.0, 1),
    ):
        assert res.singles_trigger == res.singles_analyzer == res.coincidences == 0


@pytest.mark.parametrize("run", [run_conditional_experiment, run_klyshko_experiment])
def test_run_beyond_the_event_bound_is_refused_before_any_draw(run, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew events for a refused run")

    with monkeypatch.context() as m:
        m.setattr(simulate, "_poisson_stream", no_draw)
        with pytest.raises(RunTooLargeError, match="more than the limit"):
            run(BenchConfig(pair_rate_hz=1.0e12), 1.0e6, 0)
    # pairs, darks on either detector and background all count; a run that
    # expects exactly the bound goes ahead
    monkeypatch.setattr(simulate, "MAX_EXPECTED_EVENTS", 1000.0)
    base = BenchConfig(pair_rate_hz=0.0)
    for cfg in (
        replace(base, pair_rate_hz=1000.0),
        replace(base, det1=replace(base.det1, dark_rate_hz=1000.0)),
        replace(base, det2=replace(base.det2, dark_rate_hz=1000.0)),
        replace(base, background_rate_hz=1000.0),
    ):
        res = run(cfg, 1.0, 0)
        assert res.singles_trigger + res.singles_analyzer > 0
        with pytest.raises(RunTooLargeError):
            run(cfg, 1.001, 0)


def test_result_echoes_config_and_seed():
    cfg = closure_config()
    res = run_conditional_experiment(cfg, 0.5, 77)
    assert res.config is cfg
    assert res.seed == 77
    assert res.duration_s == 0.5


# each engine, a scan, whose points' seeds come from subseed, subseed's seed
# and path elements and the Monte Carlo: the name their errors give the seed,
# and a callable of the seed that returns what it decides
SEEDED = {
    "conditional": (
        "seed", lambda seed: counts(run_conditional_experiment(closure_config(), 0.05, seed))
    ),
    "klyshko": ("seed", lambda seed: counts(run_klyshko_experiment(closure_config(), 0.05, seed))),
    "scan_theta": ("seed", lambda seed: scan_theta(closure_config(), (0.0, 90.0), 0.05, seed)),
    "subseed": ("seed", lambda seed: subseed(seed, 3)),
    "subseed-path": ("path[1]", lambda seed: subseed(0, 3, seed)),  # used to take "1" and True
    "monte_carlo": (  # used to take "3", [1, 2] and True
        "seed",
        lambda seed: monte_carlo_uncertainty(
            lambda x: x, [UncertainInput("x", 1.0, 0.1)], MIN_MC_TRIALS, seed=seed
        ),
    ),
}


@pytest.mark.parametrize("name, run", SEEDED.values(), ids=SEEDED.keys())
@pytest.mark.parametrize(
    "seed, error",
    [
        (None, TypeError),  # used to draw from OS entropy
        (1.5, TypeError),
        ("3", TypeError),
        ([1, 2], TypeError),
        (True, TypeError),  # used to run as seed 1
        (np.bool_(False), TypeError),
        (-1, ValueError),
        (np.int64(-1), ValueError),
    ],
    ids=["None", "float", "str", "list", "bool", "numpy-bool", "negative", "numpy-negative"],
)
def test_a_seed_that_is_not_an_integer_from_0_raises_naming_it(name, run, seed, error):
    with pytest.raises(error, match=rf"^{re.escape(name)} = {re.escape(repr(seed))} must be "):
        run(seed)


@pytest.mark.parametrize("run", [run for _, run in SEEDED.values()], ids=SEEDED.keys())
def test_a_numpy_integer_seed_decides_as_the_equal_int(run):
    want = run(7)
    for seed in (np.int64(7), np.uint32(7), np.uint64(7)):
        assert run(seed) == want


def test_coincidences_bounded_by_singles():
    cfg = closure_config(q=0.832)
    res = run_conditional_experiment(cfg, 10.0, 3)
    assert res.coincidences <= min(res.singles_trigger, res.singles_analyzer)


# ---------------------------------------------------------------------------
# closure against the analytic bench


def test_singles_rates_match_prediction():
    cfg = closure_config(q=0.832)
    duration = 25.0
    c = conditional_counts(cfg, duration, 42)
    for theta, singles in ((0.0, c.n_h), (90.0, c.n_v)):
        expected = predict_singles_rate(cfg, theta) * duration
        assert abs(singles - expected) < 3.0 * math.sqrt(expected)


def test_singles_visibility_matches_prediction():
    cfg = closure_config(q=1.0)
    c = conditional_counts(cfg, 25.0, 7)
    vis = visibility(c.n_v, c.n_h)
    sigma = visibility_sigma(c.n_v, c.n_h)
    assert abs(vis - predict_singles_visibility(cfg)) < 3.0 * sigma


def test_coincidence_visibility_matches_prediction():
    cfg = closure_config(q=0.832)
    c = conditional_counts(cfg, 25.0, 8)
    vis = visibility(c.nc_v, c.nc_h)
    sigma = visibility_sigma(c.nc_v, c.nc_h)
    assert abs(vis - predict_coincidence_visibility(cfg)) < 3.0 * sigma


def test_zero_trigger_efficiency_gives_flat_scan():
    cfg = closure_config(eta1=0.0, q=1.0)
    points = scan_theta(cfg, np.arange(0.0, 181.0, 20.0), 4.0, 5)
    assert all(p.coincidences == 0 for p in points)
    fit = fit_theta_curve([(p.theta_deg, p.singles) for p in points])
    assert abs(fit.modulation) < 3.0 * fit.u_modulation


def test_scan_recovers_modulation_within_two_sigma():
    cfg = closure_config(eta1=0.45, q=0.832)
    points = scan_theta(cfg, np.arange(0.0, 181.0, 10.0), 3.0, 15)
    fit = fit_theta_curve([(p.theta_deg, p.singles) for p in points])
    assert abs(fit.modulation - 0.45 * 0.832) < 2.0 * fit.u_modulation


def test_coincidence_maximum_shifts_90_degrees_when_rotation_is_off():
    angles = np.arange(0.0, 180.0, 15.0)
    on = closure_config(eta1=0.45, q=1.0)
    off = replace(on, pockels=replace(on.pockels, rotation_angle_deg=0.0))
    pts_on = scan_theta(on, angles, 4.0, 31)
    pts_off = scan_theta(off, angles, 4.0, 32)
    peak_on = angles[int(np.argmax([p.coincidences for p in pts_on]))]
    peak_off = angles[int(np.argmax([p.coincidences for p in pts_off]))]
    assert abs(((peak_on - peak_off) % 180.0) - 90.0) <= 15.0


def test_state_visibility_dilutes_coincidence_contrast():
    cfg = closure_config(eta1=0.45, q=1.0, state_visibility=0.8)
    c = conditional_counts(cfg, 25.0, 9)
    vis = visibility(c.nc_v, c.nc_h)
    sigma = visibility_sigma(c.nc_v, c.nc_h)
    assert abs(vis - 0.8) < 3.0 * sigma


def test_entangled_source_heralds_through_any_basis():
    # triggering the entangled state at 45 deg heralds a 45-deg partner,
    # which the conditional rotation sends to 135 deg: full contrast there
    cfg = replace(
        closure_config(eta1=0.45, q=1.0),
        source_kind="psi_plus",
        trigger_projector=Projector(45.0),
    )
    res_max = run_conditional_experiment(
        replace(cfg, analyzer=Projector(135.0)), 20.0, 61
    )
    res_min = run_conditional_experiment(
        replace(cfg, analyzer=Projector(45.0)), 20.0, 62
    )
    assert res_max.coincidences > res_min.coincidences
    vis = visibility(res_max.coincidences, res_min.coincidences)
    sigma = visibility_sigma(res_max.coincidences, res_min.coincidences)
    assert abs(vis - predict_coincidence_visibility(cfg)) < 3.0 * sigma


# ---------------------------------------------------------------------------
# records, dead time, driver


def test_records_time_ordered_and_tagged():
    cfg = replace(
        closure_config(),
        det1=DetectorParams(eta=0.45, dead_time_ns=40.0, dark_rate_hz=500.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0, dark_rate_hz=500.0),
        background_rate_hz=500.0,
    )
    res = run_conditional_experiment(cfg, 5.0, 17, keep_records=True)
    per_channel = {"trigger": [], "analyzer": []}
    for rec in res.records:
        per_channel[rec.channel].append(rec)
    origins = {r.origin for r in res.records}
    assert origins == {"pair", "dark", "background"}
    for channel, recs in per_channel.items():
        times = [r.time_ns for r in recs]
        assert times == sorted(times)
        assert all(b - a > 0 for a, b in zip(times, times[1:]))
    assert len(per_channel["trigger"]) == res.singles_trigger
    assert len(per_channel["analyzer"]) == res.singles_analyzer
    assert all(r.origin != "background" for r in per_channel["trigger"])


@pytest.mark.parametrize("run", [run_conditional_experiment, run_klyshko_experiment])
def test_keep_records_leaves_counts_unchanged(run):
    cfg = replace(
        closure_config(),
        det1=DetectorParams(eta=0.45, dead_time_ns=40.0, dark_rate_hz=500.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0, dark_rate_hz=500.0),
        background_rate_hz=500.0,
    )
    kept = run(cfg, 1.0, 5, keep_records=True)
    plain = run(cfg, 1.0, 5)
    counts = (kept.singles_trigger, kept.singles_analyzer, kept.coincidences)
    assert counts == (plain.singles_trigger, plain.singles_analyzer, plain.coincidences)
    assert plain.records is None
    rec = kept.records
    assert (rec.channel.dtype, rec.time_ns.dtype, rec.origin.dtype) == (np.int8, np.float64, np.int8)
    assert len(rec) == len(rec.channel) == len(rec.origin) == counts[0] + counts[1]
    assert np.count_nonzero(rec.channel == 0) == kept.singles_trigger
    assert np.count_nonzero(rec.channel == 1) == kept.singles_analyzer
    assert not np.any(rec.channel[1:] < rec.channel[:-1])  # trigger rows first


def test_event_records_compare_every_column():
    base = {
        "channel": np.array([0, 1], dtype=np.int8),
        "time_ns": np.array([1.0, 2.0]),
        "origin": np.array([0, 2], dtype=np.int8),
    }
    records = EventRecords(**base)
    assert records == EventRecords(**{k: v.copy() for k, v in base.items()})
    for name, other in (("channel", [0, 0]), ("time_ns", [1.0, 2.5]), ("origin", [0, 1])):
        assert records != EventRecords(**{**base, name: np.array(other, dtype=base[name].dtype)})
    assert records != EventRecords(**{k: v[:1] for k, v in base.items()})
    assert (records == object()) is False


@pytest.mark.parametrize(
    "singles_trigger, singles_analyzer, coincidences, message",
    [(-1, 5, 0, "must be >= 0"), (5, 5, -1, "must be >= 0"), (5, 3, 4, "exceed a singles count")],
)
def test_sim_result_rejects_impossible_counts(
    singles_trigger, singles_analyzer, coincidences, message
):
    with pytest.raises(ValueError, match=message):
        SimResult(
            1.0, singles_trigger, singles_analyzer, coincidences, BenchConfig(), 0, "conditional"
        )


def test_sim_result_names_the_engine_that_made_it():
    cfg = closure_config()
    assert run_conditional_experiment(cfg, 0.01, 1).experiment == "conditional"
    assert run_klyshko_experiment(cfg, 0.01, 1).experiment == "klyshko"
    with pytest.raises(ValueError, match="experiment must be one of"):
        SimResult(1.0, 5, 5, 0, BenchConfig(), 0, "Klyshko")


def test_dead_time_enforced_on_each_channel():
    cfg = replace(
        closure_config(),
        det1=DetectorParams(eta=1.0, dead_time_ns=2000.0, dark_rate_hz=2.0e5),
        det2=DetectorParams(eta=1.0, dead_time_ns=2000.0, dark_rate_hz=2.0e5),
    )
    res = run_conditional_experiment(cfg, 0.5, 23, keep_records=True)
    for channel in ("trigger", "analyzer"):
        times = [r.time_ns for r in res.records if r.channel == channel]
        gaps = np.diff(times)
        assert len(times) > 100
        assert gaps.min() >= 2000.0


def test_driver_gate_unit_behavior():
    # a detection after the disable window and with an empty trailing second fires
    times = [i * 1.0e6 for i in range(14)] + [13e6 + 1.5e9]
    fired = driver_gate(times, rate_threshold_hz=10.0, disable_duration_s=1.0)
    # threshold is exceeded on the 11th detection inside the trailing second
    assert fired.tolist() == [True] * 10 + [False] * 4 + [True]


def test_driver_gate_reenables_only_after_disable_duration():
    times = [
        0.0,
        1.0e3,
        2.0e3,  # third event in the second: disable
        0.5e9,  # still disabled
        2.0e3 + 1.1e9,
    ]
    fired = driver_gate(times, rate_threshold_hz=2.0, disable_duration_s=1.0)
    assert fired.tolist() == [True, True, False, False, True]


def test_driver_gate_rejects_unordered_detections_and_bad_policy():
    with pytest.raises(ValueError, match="time-ordered"):
        driver_gate([1.0, 0.0], 10.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        driver_gate([0.0, math.nan], 10.0, 1.0)
    for rate, disable in ((0.0, 1.0), (math.nan, 1.0), (10.0, -1.0), (10.0, math.nan)):
        with pytest.raises(ValueError, match="rate_threshold_hz"):
            driver_gate([0.0], rate, disable)
    for times in ([[0.0, 1.0]], 0.0):
        with pytest.raises(ValueError, match="detection stream must be 1-D"):
            driver_gate(times, 10.0, 1.0)


def test_high_trigger_rate_suppresses_rotation():
    high = replace(closure_config(eta1=0.45, q=1.0), pair_rate_hz=1.0e5)
    res_h = run_conditional_experiment(high, 3.0, subseed(19, 0))  # conditional_counts' H run
    assert res_h.singles_trigger / 3.0 > high.driver.rate_threshold_hz
    c = conditional_counts(high, 3.0, 19)
    vis_high = visibility(c.n_v, c.n_h)
    c = conditional_counts(closure_config(eta1=0.45, q=1.0), 15.0, 19)
    vis_low = visibility(c.n_v, c.n_h)
    assert vis_high < 0.5 * vis_low


# ---------------------------------------------------------------------------
# TAC


def test_tac_identical_streams_all_match():
    t = np.arange(100, dtype=float) * 1000.0
    assert tac_coincidences(t, t, window_ns=4.0, stop_delay_ns=0.0) == 100


def test_tac_empty_stops():
    assert tac_coincidences(np.arange(5.0), np.array([]), 4.0, 0.0) == 0


def test_tac_rejects_unordered_streams_and_bad_window():
    good = np.array([0.0, 1.0])
    bad = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="time-ordered"):
        tac_coincidences(bad, good, 4.0, 0.0)
    with pytest.raises(ValueError, match="time-ordered"):
        tac_coincidences(good, bad, 4.0, 0.0)
    with pytest.raises(ValueError, match="window_ns"):
        tac_coincidences(good, good, 0.0, 0.0)
    for bad_times in ([0.0, math.nan, 5.0], [0.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ValueError, match="start stream has non-finite"):
            tac_coincidences(bad_times, good, 4.0, 0.0)
        with pytest.raises(ValueError, match="stop stream has non-finite"):
            tac_coincidences(good, bad_times, 4.0, 0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="window_ns"):
            tac_coincidences(good, good, value, 0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="stop_delay_ns"):
            tac_coincidences(good, good, 4.0, value)
    # a window opening beyond every float would meet the merge's +inf sentinel
    with pytest.raises(ValueError, match="start time \\+ stop_delay_ns overflows"):
        tac_coincidences(np.array([0.0, 1.7e308]), good, 4.0, 1.0e308)
    for not_1d in (good.reshape(1, 2), np.array(0.0)):
        with pytest.raises(ValueError, match="start stream must be 1-D"):
            tac_coincidences(not_1d, good, 4.0, 0.0)
        with pytest.raises(ValueError, match="stop stream must be 1-D"):
            tac_coincidences(good, not_1d, 4.0, 0.0)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_streams_are_checked_across_every_slice_edge(rows):
    # the order is compared a slice at a time; a step back or a NaN at any
    # place, slice edges included, still raises
    with mock.patch.object(simulate, "_ROWS_PER_CHUNK", rows):
        for i in range(1, 7):
            for value, message in ((i - 1.5, "is not time-ordered"), (math.nan, "has non-finite")):
                times = np.arange(7.0)
                times[i] = value
                with pytest.raises(ValueError, match="start stream " + message):
                    tac_coincidences(times, np.arange(7.0), 4.0, 0.0)
                with pytest.raises(ValueError, match="detection stream " + message):
                    driver_gate(times, 10.0, 1.0)


def test_tac_stop_delay_centers_the_window():
    starts = np.array([100.0])
    assert tac_coincidences(starts, np.array([109.0]), 4.0, 9.3) == 1
    assert tac_coincidences(starts, np.array([100.0]), 4.0, 9.3) == 0
    assert tac_coincidences(starts, np.array([111.4]) , 4.0, 9.3) == 0  # above window


def test_tac_each_stop_used_once():
    starts = np.array([0.0, 1.0])
    stops = np.array([0.5])
    assert tac_coincidences(starts, stops, 4.0, 0.0) == 1


def test_tac_busy_swallows_starts_until_window_end():
    # first start finds no stop and stays busy through its whole window
    # (until t=10), so the second start at t=5 is discarded even though the
    # stop at 15 would have been inside its window
    starts = np.array([0.0, 5.0])
    stops = np.array([15.0])
    assert tac_coincidences(starts, stops, window_ns=20.0, stop_delay_ns=0.0) == 0
    # a third start after the busy period picks that stop up
    assert tac_coincidences(np.array([0.0, 5.0, 20.0]), stops, 20.0, 0.0) == 1
    # once the first start matches early, the converter frees up in time
    stops = np.array([1.0, 5.5])
    assert tac_coincidences(starts, stops, window_ns=20.0, stop_delay_ns=0.0) == 2


def test_tac_matches_reference_implementation_on_random_streams():
    rng = np.random.default_rng(3)
    for _ in range(20):
        starts = np.sort(rng.uniform(0, 2000.0, rng.integers(0, 60)))
        stops = np.sort(rng.uniform(0, 2000.0, rng.integers(0, 60)))
        for delay in (0.0, 9.3):
            assert tac_coincidences(starts, stops, 8.0, delay) == tac_reference(
                starts.tolist(), stops.tolist(), 8.0, delay
            )


@pytest.mark.parametrize("dead_time_ns", [5.0, 0.0])
def test_tac_replays_dependent_starts_of_a_klyshko_run_as_the_loop(dead_time_ns):
    # with det1's dead time under the TAC's busy time (stop delay + window/2,
    # 11.3 ns) some starts share a busy converter and are replayed: about
    # 1250 and 2308 per second at 5 and 0 ns; 0.05 s give two slices
    base = load_config(KLYSHKO_HIGHRATE_CFG)
    cfg = replace(base, det1=replace(base.det1, dead_time_ns=dead_time_ns))
    res = run_klyshko_experiment(cfg, 0.05, 4, keep_records=True)
    starts = res.records.time_ns[res.records.channel == 0]
    stops = res.records.time_ns[res.records.channel == 1] + cfg.tac.stop_delay_ns
    d, half = cfg.tac.stop_delay_ns, cfg.tac.window_ns / 2.0
    hi = starts + d + half
    dependent = (starts[1:] < np.maximum(starts[:-1], hi[:-1])) | (starts[1:] + d - half <= hi[:-1])
    assert np.count_nonzero(dependent) > 25
    assert res.coincidences == tac_loop_reference(
        starts.tolist(), stops.tolist(), cfg.tac.window_ns, d
    )


def test_tac_accidental_rate_formula():
    rng = np.random.default_rng(8)
    duration_ns = 1.0e9
    r1, r2 = 5.0e4, 8.0e4  # per second
    starts = np.sort(rng.uniform(0, duration_ns, rng.poisson(r1)))
    stops = np.sort(rng.uniform(0, duration_ns, rng.poisson(r2)))
    window = 50.0
    expected = r1 * r2 * window * 1e-9  # accidental counts over one second
    got = tac_coincidences(starts, stops, window, 0.0)
    assert abs(got - expected) < 4.0 * math.sqrt(expected)


def test_end_to_end_accidentals_from_darks_and_background():
    # No pairs: every coincidence is an accidental between independent
    # Poisson streams, N1 * N2 * window / T.  A start that arrives while the
    # converter waits for its stop is swallowed; that loses a fraction
    # R1 * (stop_delay + window / 2) of about 2e-3 of the starts, under a
    # tenth of the 5 sigma bound.
    cfg = BenchConfig(
        pair_rate_hz=0.0,
        det1=DetectorParams(eta=0.45, dead_time_ns=0.0, dark_rate_hz=2.0e5),
        det2=DetectorParams(eta=0.40, dead_time_ns=0.0, dark_rate_hz=1.0e5),
        background_rate_hz=1.0e5,
    )
    duration_s = 10.0
    res = run_klyshko_experiment(cfg, duration_s, 41)
    busy_fraction = cfg.det1.dark_rate_hz * (cfg.tac.stop_delay_ns + cfg.tac.window_ns / 2) * 1e-9
    assert busy_fraction < 2.5e-3
    expected = (
        res.singles_trigger * res.singles_analyzer * cfg.tac.window_ns * 1e-9 / duration_s
    )
    assert abs(res.coincidences - expected) < 5.0 * math.sqrt(expected)


# ---------------------------------------------------------------------------
# klyshko runs


def test_klyshko_ratio_recovers_efficiency_without_dead_time():
    cfg = BenchConfig(
        pair_rate_hz=1.0e5,
        det1=DetectorParams(eta=0.48, dead_time_ns=0.0),
        det2=DetectorParams(eta=0.60, dead_time_ns=0.0),
    )
    res = run_klyshko_experiment(cfg, 10.0, 13)
    ratio = res.coincidences / res.singles_analyzer
    sigma = math.sqrt(0.48 * 0.52 / res.singles_analyzer)
    assert abs(ratio - 0.48) < 3.0 * sigma


def test_klyshko_dead_time_biases_ratio_low():
    cfg = BenchConfig(
        pair_rate_hz=2.7e5,
        det1=DetectorParams(eta=0.48, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=0.0),
        tac=TacParams(window_ns=2.0, stop_delay_ns=9.3),
    )
    res = run_klyshko_experiment(cfg, 5.0, 21)
    n_s = res.singles_trigger / res.duration_s
    ratio = res.coincidences / res.singles_analyzer
    # loss dominated by the dead-time fraction of the device under test
    assert ratio < 0.48
    bias = 1.0 - ratio / 0.48
    sigma_bias = math.sqrt(ratio * (1 - ratio) / res.singles_analyzer) / 0.48
    assert abs(bias - n_s * 40.0e-9) < 3.0 * sigma_bias + 1e-3


def test_klyshko_singles_follow_non_paralyzable_throughput():
    # r * tau = 0.5 on both arms: most dead events sit in chains of two or
    # more close events, where being close to a dead predecessor does not
    # make an event dead.  A paralyzable detector would give r T exp(-r tau),
    # about 35 standard deviations lower.
    cfg = BenchConfig(
        pair_rate_hz=1.0e6,
        idler_path_loss=0.8,
        det1=DetectorParams(eta=0.45, dead_time_ns=1000.0, dark_rate_hz=5.0e4),
        det2=DetectorParams(eta=0.5, dead_time_ns=1200.0, dark_rate_hz=1.0e4),
        background_rate_hz=2.0e4,
    )
    duration_s = 0.2
    res = run_klyshko_experiment(cfg, duration_s, 31)
    arms = (
        (res.singles_trigger, cfg.pair_rate_hz * cfg.det1.eta + cfg.det1.dark_rate_hz,
         cfg.det1.dead_time_ns),
        (res.singles_analyzer,
         cfg.pair_rate_hz * cfg.idler_path_loss * cfg.det2.eta + cfg.det2.dark_rate_hz
         + cfg.background_rate_hz,
         cfg.det2.dead_time_ns),
    )
    for singles, rate, dead_ns in arms:
        x = 1.0 + rate * dead_ns * 1e-9
        assert x >= 1.1
        expected = rate * duration_s / x
        sigma = math.sqrt(rate * duration_s / x**3)
        assert abs(singles - expected) < 5.0 * sigma


def test_klyshko_counts_polarization_independent():
    a = run_klyshko_experiment(BenchConfig(pair_rate_hz=5e4), 5.0, 5)
    b = run_klyshko_experiment(
        replace(BenchConfig(pair_rate_hz=5e4), analyzer=Projector(57.0)), 5.0, 5
    )
    assert (a.singles_trigger, a.singles_analyzer, a.coincidences) == (
        b.singles_trigger,
        b.singles_analyzer,
        b.coincidences,
    )


# ---------------------------------------------------------------------------
# scans and dumps


def test_scan_theta_rows_match_input_order_and_subseeds():
    cfg = closure_config()
    angles = [10.0, 0.0, 90.0]
    points = scan_theta(cfg, angles, 1.0, 3)
    assert [p.theta_deg for p in points] == angles
    direct = run_conditional_experiment(
        replace(cfg, analyzer=Projector(90.0)), 1.0, subseed(3, 2)
    )
    assert points[2].singles == direct.singles_analyzer
    assert points[2].coincidences == direct.coincidences


def test_scan_rows_equal_fresh_runs_at_their_subseeds():
    # a scan's runs share one set of buffers; each row must still be the run
    # of its point alone
    cfg = closure_config(analyzer=Projector(0.0, 0.9))
    angles = [0.0, 45.0, 90.0, 135.0]
    for i, (angle, point) in enumerate(zip(angles, scan_theta(cfg, angles, 0.3, 7))):
        res = run_conditional_experiment(
            replace(cfg, analyzer=Projector(angle, 0.9)), 0.3, subseed(7, i)
        )
        assert (point.singles, point.coincidences) == (res.singles_analyzer, res.coincidences)
    delays = [0.0, 2000.0, 4000.0]
    for i, (delay, row) in enumerate(zip(delays, scan_delay(cfg, delays, 0.3, 8))):
        h, v = (
            run_conditional_experiment(
                replace(cfg, electronic_delay_ns=delay, analyzer=Projector(angle, 0.9)),
                0.3,
                subseed(8, i, k),
            )
            for k, angle in enumerate((0.0, 90.0))
        )
        assert row == DelayScanPoint(
            delay, h.singles_analyzer, v.singles_analyzer, h.coincidences, v.coincidences
        )


def test_scans_over_no_points_are_empty():
    cfg = closure_config()
    assert scan_theta(cfg, [], 1.0, 0) == []
    assert scan_delay(cfg, [], 1.0, 0) == []


def test_runs_sharing_buffers_equal_fresh_runs_and_keep_their_records():
    # pair counts rise and fall, so the shared block both grows and serves
    # smaller runs from views of it; no result may alias the block
    cfg = closure_config(background_rate_hz=500.0)
    buffers = simulate._RunBuffers()
    runs, sizes = [], []
    for rate_hz, duration_s, seed in [
        (2.0e4, 0.2, 1), (2.0e4, 0.6, 2), (5.0e3, 0.2, 3),
        (2.0e5, 0.1, 4), (2.0e4, 0.05, 5), (2.0e5, 0.15, 6),
    ]:
        run_cfg = replace(cfg, pair_rate_hz=rate_hz)
        shared = run_conditional_experiment(
            run_cfg, duration_s, seed, keep_records=True, _buffers=buffers
        )
        fresh = run_conditional_experiment(run_cfg, duration_s, seed, keep_records=True)
        assert counts(shared) == counts(fresh)
        assert shared.records == fresh.records
        runs.append((shared, fresh))
        sizes.append(len(buffers.times))
    assert sizes[0] < sizes[1] == sizes[2] < sizes[3] == sizes[4] < sizes[5]
    # the later runs left the earlier results as they were
    assert all(shared.records == fresh.records for shared, fresh in runs)


def test_conditional_counts_are_the_h_and_v_runs_on_their_subseeds():
    # an analyzer transmittance of 0.9 pins that both runs keep it
    cfg = closure_config(q=0.832, analyzer=Projector(30.0, 0.9))
    h, v = (
        run_conditional_experiment(replace(cfg, analyzer=Projector(a, 0.9)), 0.5, subseed(11, k))
        for k, a in enumerate((0.0, 90.0))
    )
    assert conditional_counts(cfg, 0.5, 11) == CountSummary(
        h.singles_analyzer, v.singles_analyzer, h.coincidences, v.coincidences
    )


def test_hv_counts_takes_the_0_and_90_degree_points_of_a_scan():
    points = [
        ThetaScanPoint(90.0, 70, 30), ThetaScanPoint(45.0, 50, 20), ThetaScanPoint(0.0, 110, 1)
    ]
    assert hv_counts(points) == CountSummary(n_h=110.0, n_v=70.0, nc_h=1.0, nc_v=30.0)
    with pytest.raises(CalibrationError, match="no point at 0 deg or none at 90 deg"):
        hv_counts(points[:2])
    # a repeated H or V point raises, naming its angle; other angles may repeat
    assert hv_counts(points + [ThetaScanPoint(45.0, 60, 25)]) == hv_counts(points)
    for angle in (0.0, -0.0, 90.0):
        with pytest.raises(CalibrationError, match=f"more than one point at {angle:g} deg"):
            hv_counts(points + [ThetaScanPoint(angle, 100, 2)])


def test_klyshko_counts_are_the_run_rates_with_det1_dead_time_and_tac_delay():
    # unequal dead times and a stop delay off its 9.3 ns default show a field read wrongly
    cfg = BenchConfig(
        pair_rate_hz=5.0e4, det1=DetectorParams(eta=0.5, dead_time_ns=45.0),
        det2=DetectorParams(eta=0.4, dead_time_ns=25.0), tac=TacParams(stop_delay_ns=6.5),
    )
    res = run_klyshko_experiment(cfg, 0.4, 5)
    n_s, n_i, n_c = (n / 0.4 for n in counts(res))
    assert len({n_s, n_i, n_c}) == 3
    assert klyshko_counts(res) == KlyshkoCounts(n_s, n_i, n_c, tau_ns=45.0, t_ns=6.5)
    with pytest.raises(CalibrationError, match="zero duration"):
        klyshko_counts(run_klyshko_experiment(cfg, 0.0, 5))


def test_klyshko_counts_rejects_a_conditional_run():
    # its singles and coincidences are not the two-detector rates eta_klyshko reads
    with pytest.raises(CalibrationError, match="a conditional run has no Klyshko rates"):
        klyshko_counts(run_conditional_experiment(BenchConfig(pair_rate_hz=2e4), 0.2, 1))


def test_scan_delay_tracks_pulse_tail():
    cfg = closure_config(eta1=0.45, q=1.0)
    delays = [0.0, 2000.0, 3700.0]
    rows = scan_delay(cfg, delays, 8.0, 99)
    shares = [r.coinc_v / max(1, r.coinc_v + r.coinc_h) for r in rows]
    amp = cfg.pulse.amplitude
    for row, share, delay in zip(rows, shares, delays):
        expected = math.sin(math.radians(90.0 * amp(cfg.fiber_delay_ns + delay))) ** 2
        n = row.coinc_v + row.coinc_h
        sigma = max(math.sqrt(expected * (1 - expected) / n), 1.0 / n)
        assert abs(share - expected) < 4.0 * sigma
    # V-dominant singles at zero delay, balanced when the pulse is over
    assert rows[0].singles_v > 1.5 * rows[0].singles_h
    late = rows[-1]
    assert abs(late.singles_v - late.singles_h) < 4.0 * math.sqrt(late.singles_v + late.singles_h)


def counted_calls(monkeypatch, *names):
    """Count calls of the engine's polarization functions and config rebuilds,
    starting from empty memos."""
    calls = Counter()
    for name in names:
        real = getattr(simulate, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(simulate, name, counting)
    simulate._idler_group_states.cache_clear()
    return calls


def test_scans_build_each_idler_state_once(monkeypatch):
    names = ("make_state", "depolarizer", "apply_channel", "replace", "_idler_detect_probabilities")
    cfg = closure_config()
    calls = counted_calls(monkeypatch, *names)
    scan_theta(cfg, np.arange(0.0, 181.0, 10.0), 0.01, 1)
    assert calls == {
        "make_state": 1, "depolarizer": 1, "apply_channel": 2, "replace": 19,
        "_idler_detect_probabilities": 1,
    }
    # No rotation angle enters a state: the pulse turns the analyzer, so the
    # depolarized perp and copol states are built once for the whole scan,
    # whatever the delays.  Each run's config is built in one step, from
    # analyzers built once, and the idler probabilities of all the scan's
    # runs in one call.
    calls = counted_calls(monkeypatch, *names)
    scan_delay(cfg, [0.0, 2000.0, 3700.0, 4000.0], 0.01, 1)
    assert calls == {
        "make_state": 1, "depolarizer": 1, "apply_channel": 2, "replace": 8,
        "_idler_detect_probabilities": 1,
    }
    bernoulli = replace(cfg, pockels=PockelsParams(q=0.3, failure_model="bernoulli_identity"))
    calls = counted_calls(monkeypatch, *names)
    scan_delay(bernoulli, [0.0, 2000.0, 3700.0, 4000.0], 0.01, 1)
    assert calls == {"make_state": 1, "replace": 8, "_idler_detect_probabilities": 1}


def test_zero_rate_stream_is_empty_and_draws_nothing():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    times = simulate._poisson_stream(rng, 0.0, 1.0)
    assert times.dtype == np.float64 and times.shape == (0,)
    assert rng.bit_generator.state == before


def test_delays_at_the_bound_keep_the_counts():
    # past the pulse phi = 0 at any delay, and the TAC compensates the idler's
    # path offset, so a delay at MAX_DELAY_NS gives the counts of a short one
    cfg = closure_config()
    short = counts(run_conditional_experiment(replace(cfg, electronic_delay_ns=3700.0), 0.5, 3))
    for fiber, electronic in ((cfg.fiber_delay_ns, MAX_DELAY_NS), (MAX_DELAY_NS, MAX_DELAY_NS)):
        far = replace(cfg, fiber_delay_ns=fiber, electronic_delay_ns=electronic)
        assert counts(run_conditional_experiment(far, 0.5, 3)) == short


@pytest.mark.parametrize(
    "change",
    [
        {"state_visibility": 0.6},
        {"source_kind": "psi_plus", "trigger_projector": Projector(45.0)},
        {"trigger_projector": Projector(45.0)},
        {"pockels": PockelsParams(q=0.8)},
        {"pockels": PockelsParams(q=0.3, failure_model="bernoulli_identity")},
        {"pockels": PockelsParams(q=0.3, rotation_angle_deg=45.0)},
        {"electronic_delay_ns": 2000.0},
    ],
)
def test_idler_states_follow_a_changed_input(change):
    cfg = closure_config(q=0.3)
    changed = replace(cfg, **change)
    before = counts(run_conditional_experiment(cfg, 0.5, 5))
    after = counts(run_conditional_experiment(changed, 0.5, 5))
    assert after == conditional_run_reference(changed, 0.5, 5)[0]
    assert before == conditional_run_reference(cfg, 0.5, 5)[0]
    assert after != before


def test_write_event_csv_without_records_leaves_the_file(tmp_path):
    res = run_conditional_experiment(closure_config(), 0.05, 2)  # no keep_records
    path = tmp_path / "events.csv"
    path.write_text("kept\n")
    with pytest.raises(TypeError, match="keep_records=True"):
        write_event_csv(res.records, path)
    assert path.read_text() == "kept\n"


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"channel": np.array([-1], np.int8)}, "channel must index"),
        ({"channel": np.array([7], np.int8)}, "channel must index"),
        ({"origin": np.array([-1], np.int8)}, "origin must index"),
        ({"origin": np.array([3], np.int8)}, "origin must index"),
        (
            {
                "time_ns": np.array([1.0, 2.0, 3.0]),
                "channel": np.array([0, 1], np.int8),
                "origin": np.array([0, 2], np.int8),
            },
            "one length",
        ),
        (
            {
                "time_ns": np.array([[1.0]]),
                "channel": np.array([[0]], np.int8),
                "origin": np.array([[0]], np.int8),
            },
            "1-D",
        ),
        ({"channel": np.array([1.0])}, "must be integer arrays"),
        ({"origin": np.array([True])}, "must be integer arrays"),
        ({"time_ns": np.array([70000], np.int64)}, "time_ns a float64 array"),
        ({"time_ns": np.array([5.0e5], np.float32)}, "time_ns a float64 array"),
        ({"channel": [1]}, "must be integer arrays"),
    ],
)
def test_event_records_reject_bad_columns_before_a_file_is_opened(tmp_path, columns, message):
    values = {
        "channel": np.array([1], np.int8),
        "time_ns": np.array([5.0e5]),
        "origin": np.array([2], np.int8),
        **columns,
    }
    path = tmp_path / "events.csv"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match=message):
        write_event_csv(EventRecords(**values), path)
    assert path.read_text() == "kept\n"


def test_write_event_csv_format(tmp_path):
    cfg = closure_config()
    res = run_conditional_experiment(cfg, 0.05, 2, keep_records=True)
    path = tmp_path / "events.csv"
    write_event_csv(res.records, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "channel,time_ns,origin"
    assert len(lines) == 1 + len(res.records)
    channel, time_ns, origin = lines[1].split(",")
    assert channel in ("trigger", "analyzer")
    assert origin in ("pair", "dark", "background")
    float(time_ns)


# ---------------------------------------------------------------------------
# memory: traced peaks; a current numpy's allocations set the `traced_memory` bounds


def test_tac_temporaries_do_not_grow_with_the_stream():
    # 64 bytes per start of one slice (1 MiB); the unsliced pass took 17.2
    # MiB at the 4.4e5 starts of a 1 s Klyshko run at 1e6 pairs/s
    bound = 64 * simulate._ROWS_PER_CHUNK
    rng = np.random.default_rng(21)
    warm = np.arange(100.0)  # numpy sets up about 1 MiB on a first np.union1d
    tac_coincidences(warm, warm, 4.0, 9.3)
    for n in (440_000, 1_320_000):
        starts = np.sort(rng.uniform(0.0, n * 2.27e3, n))  # 440 kHz, as at that run
        stops = np.sort(np.concatenate([starts[::2] + 9.3, rng.uniform(0.0, starts[-1], n // 3)]))
        assert traced_peak(tac_coincidences, starts, stops, 4.0, 9.3) < bound


@pytest.mark.traced_memory
def test_event_csv_writer_peak_does_not_grow_with_the_records(tmp_path):
    # it peaks while one chunk's digit columns and time cells are held, at
    # 162.5 bytes per chunk row at 1, 2, 4 and 16 chunks; 191.5 while the
    # time cells were written into strided slices of the rows
    rng = np.random.default_rng(8)

    def records(chunks):
        n = chunks * simulate._ROWS_PER_CHUNK
        return EventRecords(
            rng.integers(0, len(simulate.CHANNELS), n, dtype=np.int8),
            np.sort(rng.uniform(0.0, 4.0e9, n)),  # the times of a 4 s run
            rng.integers(0, len(simulate.ORIGINS), n, dtype=np.int8),
        )

    path = tmp_path / "events.csv"
    write_event_csv(records(1), path)
    few, many = (traced_peak(write_event_csv, records(chunks), path) for chunks in (2, 16))
    assert abs(many - few) < 0.01 * few
    assert max(few, many) < 170 * simulate._ROWS_PER_CHUNK


_KLYSHKO_BENCH = replace(
    BenchConfig(),
    pair_rate_hz=1.0e6,
    idler_path_loss=0.9,
    det1=DetectorParams(eta=0.45, dead_time_ns=45.0, dark_rate_hz=500.0),
    det2=DetectorParams(eta=0.4, dead_time_ns=40.0, dark_rate_hz=800.0),
    tac=TacParams(window_ns=4.0, stop_delay_ns=9.3),
    background_rate_hz=2000.0,
)
_CALIBRATION = load_config(CALIBRATION_CFG)
_CALIBRATION_1E6 = replace(_CALIBRATION, pair_rate_hz=1.0e6)
_THETA_POINT = replace(_CALIBRATION, analyzer=Projector(90.0, _CALIBRATION.analyzer.transmittance))


# Each row: the run, its warm-up, its expected pairs, its bound in traced bytes
# per pair and the peaks per pair on seeds 1-5 that set the bound.
@pytest.mark.traced_memory
@pytest.mark.parametrize("run, warm_up, pairs, bytes_per_pair, measured", [
    # the klyshko_highrate bench: 8 bytes per pair hold its emission times and
    # 8 more one uniform draw; it peaked at 47.3 while the stream merge tagged
    # every event with an int64 and the TAC was unsliced
    pytest.param(partial(run_klyshko_experiment, _KLYSHKO_BENCH, 1.0, 3),
                 partial(run_klyshko_experiment, _KLYSHKO_BENCH, 0.001, 1),
                 _KLYSHKO_BENCH.pair_rate_hz, 24.3, "23.68-23.80", id="klyshko_run"),
    # the calibration bench at 1e6 pairs/s: 8 bytes per pair hold its emission
    # times and 8 the one buffer its three per-pair draws refill; 27.37-27.47
    # when the trigger arm tagged its pair candidates with int64 pair indices,
    # and 30.1-30.2 when it held them through the idler arm
    pytest.param(partial(run_conditional_experiment, _CALIBRATION_1E6, 1.0, 3),
                 partial(run_conditional_experiment, _CALIBRATION_1E6, 0.001, 1),
                 _CALIBRATION_1E6.pair_rate_hz, 26.5, "26.05-26.15", id="conditional_run"),
    # one point of the theta_calibration workload, 90 deg for 5 s: a 1e6-pair
    # run peaks before its TAC, so only a run of this size sees the TAC's
    # slice; 35.9-36.3 when the TAC held its window bounds through the merge
    # instead of freeing and rebuilding them
    pytest.param(partial(run_conditional_experiment, _THETA_POINT, 5.0, 3),
                 partial(run_conditional_experiment, _THETA_POINT, 0.001, 1),
                 _THETA_POINT.pair_rate_hz * 5.0, 34, "33.04-33.38", id="theta_point_run"),
    # the points share one set of whole-length buffers, so a scan peaks as one
    # of its runs does, per pair of one point; a scan that kept each point's
    # arrays would pass 50
    pytest.param(partial(scan_theta, _CALIBRATION_1E6, (0.0, 45.0, 90.0), 1.0, 3),
                 partial(scan_theta, _CALIBRATION_1E6, (0.0,), 0.001, 1),
                 _CALIBRATION_1E6.pair_rate_hz, 26.6, "26.18-26.22", id="theta_scan"),
])
def test_run_peaks_per_expected_pair(run, warm_up, pairs, bytes_per_pair, measured):
    warm_up()
    peak = traced_peak(run)
    assert peak < bytes_per_pair * pairs, f"{peak / pairs:.2f} bytes per pair; measured {measured}"
