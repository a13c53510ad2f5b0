import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import enumerate_conditional_rates
from biphoton.bench import BenchConfig, DetectorParams, PockelsParams
from biphoton.calibrate import (
    CalibrationError,
    CountSummary,
    Estimate,
    FitError,
    KlyshkoCounts,
    apply_polarizer_correction,
    background_subtract,
    drift_rescale,
    eta_conditional,
    eta_klyshko,
    fit_theta_curve,
    visibility,
)
from biphoton.polarization import Projector
from biphoton.simulate import run_conditional_experiment, subseed

REFERENCE = CountSummary(n_h=76.6, n_v=165.9, nc_h=4.4, nc_v=48.7)


# ---------------------------------------------------------------------------
# visibility


def test_visibility_reference_values():
    assert visibility(165.9, 76.6) == pytest.approx(0.368247, abs=5e-7)
    assert visibility(48.7, 4.4) == pytest.approx(0.834275, abs=5e-7)


def test_visibility_zero_and_sign():
    assert visibility(10.0, 10.0) == 0.0
    assert visibility(10.0, 30.0) == -0.5
    with pytest.raises(CalibrationError):
        visibility(0.0, 0.0)


# ---------------------------------------------------------------------------
# conditional estimator


def test_eta_conditional_reference_counts():
    assert eta_conditional(REFERENCE).value == pytest.approx(0.441398, abs=5e-7)


def test_eta_conditional_perfect_contrast():
    c = CountSummary(n_h=0.0, n_v=120.0, nc_h=0.0, nc_v=40.0)
    assert eta_conditional(c).value == 1.0


def test_eta_conditional_zero_contrast_raises():
    with pytest.raises(CalibrationError, match="zero Pockels contrast"):
        eta_conditional(CountSummary(10.0, 20.0, 5.0, 5.0))


@pytest.mark.parametrize("k", [0.1, 3.0, 1e4])
def test_eta_conditional_scale_invariant(k):
    scaled = CountSummary(
        REFERENCE.n_h * k, REFERENCE.n_v * k, REFERENCE.nc_h * k, REFERENCE.nc_v * k
    )
    assert eta_conditional(scaled).value == pytest.approx(
        eta_conditional(REFERENCE).value, rel=1e-12
    )


def test_count_summary_rejects_negative():
    with pytest.raises(CalibrationError):
        CountSummary(-1.0, 2.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_counts_reject_non_finite_fields(bad):
    conditional = dict(n_h=100.0, n_v=10.0, nc_h=1.0, nc_v=1.0, background_h=0.0, background_v=0.0)
    for name in conditional:
        with pytest.raises(CalibrationError, match=f"{name} must be finite"):
            CountSummary(**{**conditional, name: bad})
    klyshko = dict(n_signal=100.0, n_idler=10.0, n_coincidence=1.0, tau_ns=0.0, t_ns=0.0)
    for name in klyshko:
        with pytest.raises(CalibrationError, match="must be finite"):
            KlyshkoCounts(**{**klyshko, name: bad})


# ---------------------------------------------------------------------------
# corrections


def test_polarizer_correction_reference():
    corrected = apply_polarizer_correction(eta_conditional(REFERENCE), 0.9842)
    assert corrected.value == pytest.approx(0.448484, abs=5e-7)


def test_polarizer_correction_identity_and_boundary():
    e = Estimate(0.5, 0.05)
    assert apply_polarizer_correction(e, 1.0) == e
    assert apply_polarizer_correction(Estimate(0.5), 0.5).value == pytest.approx(1.0)
    assert apply_polarizer_correction(e, 0.5).u == pytest.approx(0.1)
    with pytest.raises(CalibrationError):
        apply_polarizer_correction(e, 0.0)


def test_background_subtract_arithmetic():
    c = CountSummary(100.0, 200.0, 5.0, 40.0, background_h=10.0, background_v=10.0)
    out = background_subtract(c)
    assert (out.n_h, out.n_v) == (90.0, 190.0)
    assert (out.nc_h, out.nc_v) == (5.0, 40.0)
    assert out.background_h == out.background_v == 0.0


def test_background_subtract_identity_and_negative():
    c = CountSummary(100.0, 200.0, 5.0, 40.0)
    assert background_subtract(c) == c
    with pytest.raises(CalibrationError, match="negative"):
        background_subtract(replace(c, background_h=150.0))


def test_background_subtract_recovers_visibility_on_simulated_run():
    # paired runs: background raises both singles rates equally, washing the
    # visibility out; subtracting the known background rate restores it
    from biphoton.bench import PockelsParams as _P
    from biphoton.simulate import run_conditional_experiment as _run

    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=0.45, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=_P(q=0.832),
        background_rate_hz=3.0e3,
    )
    duration = 20.0
    res_h = _run(replace(cfg, analyzer=Projector(0.0)), duration, subseed(8, 0))
    res_v = _run(replace(cfg, analyzer=Projector(90.0)), duration, subseed(8, 1))
    raw = visibility(res_v.singles_analyzer, res_h.singles_analyzer)
    clean = background_subtract(
        CountSummary(
            n_h=res_h.singles_analyzer,
            n_v=res_v.singles_analyzer,
            nc_h=res_h.coincidences,
            nc_v=res_v.coincidences,
            background_h=cfg.background_rate_hz * duration,
            background_v=cfg.background_rate_hz * duration,
        )
    )
    recovered = visibility(clean.n_v, clean.n_h)
    expected = 0.45 * 0.832
    sigma = 2.0 * math.sqrt(
        clean.n_v * clean.n_h * (clean.n_v + clean.n_h)
    ) / (clean.n_v + clean.n_h) ** 2
    assert raw < expected - 5.0 * sigma  # background visibly dilutes
    assert abs(recovered - expected) < 2.0 * sigma


def test_background_counts_stay_flat_across_analyzer_angles():
    # a source-free bench: every analyzer count is background, so a scan
    # shows no angle dependence beyond statistics
    from biphoton.simulate import scan_theta as _scan

    cfg = BenchConfig(pair_rate_hz=0.0, background_rate_hz=2.0e3)
    points = _scan(cfg, np.arange(0.0, 181.0, 30.0), 5.0, 4)
    fit = fit_theta_curve([(p.theta_deg, p.singles) for p in points])
    assert abs(fit.modulation) < 3.0 * fit.u_modulation
    assert all(p.coincidences == 0 for p in points)


def test_drift_rescale_properties():
    c = CountSummary(100.0, 200.0, 5.0, 40.0, background_h=1.0)
    assert drift_rescale(c, 10.0, 10.0) == c
    doubled = drift_rescale(c, 20.0, 10.0)
    assert (doubled.n_h, doubled.n_v, doubled.nc_h, doubled.nc_v) == (200.0, 400.0, 10.0, 80.0)
    assert doubled.background_h == 2.0
    back = drift_rescale(drift_rescale(c, 7.0, 3.0), 3.0, 7.0)
    assert back.n_h == pytest.approx(c.n_h, rel=1e-12)
    assert back.nc_v == pytest.approx(c.nc_v, rel=1e-12)


# ---------------------------------------------------------------------------
# klyshko estimator


def test_eta_klyshko_reference_counts():
    k = KlyshkoCounts(
        n_signal=131777.0, n_idler=1832.8, n_coincidence=874.4, tau_ns=40.0, t_ns=9.3
    )
    assert eta_klyshko(k).value == pytest.approx(0.480201, abs=5e-7)


def test_eta_klyshko_without_corrections_is_plain_ratio():
    k = KlyshkoCounts(131777.0, 1832.8, 874.4, tau_ns=0.0, t_ns=0.0)
    assert eta_klyshko(k).value == pytest.approx(874.4 / 1832.8, rel=1e-12)


def test_eta_klyshko_unit_efficiency():
    k = KlyshkoCounts(1000.0, 800.0, 800.0, tau_ns=0.0, t_ns=0.0)
    assert eta_klyshko(k).value == 1.0


def test_eta_klyshko_scale_invariance_in_idler_and_coincidence():
    k = KlyshkoCounts(131777.0, 1832.8, 874.4, 40.0, 9.3)
    scaled = KlyshkoCounts(131777.0, 3.0 * 1832.8, 3.0 * 874.4, 40.0, 9.3)
    assert eta_klyshko(scaled).value == pytest.approx(eta_klyshko(k).value, rel=1e-12)


def test_klyshko_counts_invariants():
    with pytest.raises(CalibrationError, match="exceed"):
        KlyshkoCounts(1000.0, 500.0, 600.0, 40.0, 9.3)
    with pytest.raises(CalibrationError, match="tau"):
        KlyshkoCounts(3.0e7, 1000.0, 500.0, 40.0, 9.3)
    with pytest.raises(CalibrationError):
        KlyshkoCounts(-1.0, 10.0, 5.0, 40.0, 9.3)


# ---------------------------------------------------------------------------
# curve fit


def synthetic_curve(amplitude, m, theta0_deg, angles):
    return [
        (
            th,
            amplitude * (1.0 - m * math.cos(math.radians(2.0 * (th - theta0_deg)))),
        )
        for th in angles
    ]


def test_fit_recovers_noiseless_model_exactly():
    points = synthetic_curve(250.0, 0.4044, 0.0, np.arange(0.0, 181.0, 10.0))
    fit = fit_theta_curve(points)
    assert fit.modulation == pytest.approx(0.4044, abs=1e-10)
    assert fit.amplitude == pytest.approx(250.0, abs=1e-8)
    assert abs(fit.phase_deg % 180.0) < 1e-6 or abs(fit.phase_deg % 180.0 - 180.0) < 1e-6


def test_fit_recovers_phase():
    points = synthetic_curve(300.0, 0.3, 30.0, np.arange(0.0, 181.0, 12.5))
    fit = fit_theta_curve(points)
    assert fit.phase_deg % 180.0 == pytest.approx(30.0, abs=1e-8)
    assert fit.modulation == pytest.approx(0.3, abs=1e-10)


def test_fit_flat_data_gives_zero_modulation():
    points = [(th, 200.0) for th in np.arange(0.0, 181.0, 15.0)]
    fit = fit_theta_curve(points)
    assert fit.modulation == pytest.approx(0.0, abs=1e-8)


def test_fit_input_validation():
    with pytest.raises(FitError, match="at least 4"):
        fit_theta_curve([(0.0, 1.0), (45.0, 1.0), (90.0, 1.0)])
    with pytest.raises(FitError, match="span"):
        fit_theta_curve([(0.0, 1.0), (10.0, 2.0), (20.0, 1.0), (30.0, 2.0)])
    with pytest.raises(FitError, match="rank-deficient"):
        fit_theta_curve([(0.0, 10.0), (90.0, 12.0), (0.0, 11.0), (90.0, 13.0)])


def test_fit_poisson_coverage():
    # true modulation inside +-2 u(m) in at least 90% of repeated trials
    rng = np.random.default_rng(17)
    angles = np.arange(0.0, 181.0, 10.0)
    amplitude, m_true = 2000.0, 0.4044
    hits = 0
    trials = 100
    for _ in range(trials):
        pts = [
            (th, rng.poisson(mu))
            for th, mu in synthetic_curve(amplitude, m_true, 0.0, angles)
        ]
        fit = fit_theta_curve(pts)
        if abs(fit.modulation - m_true) <= 2.0 * fit.u_modulation:
            hits += 1
    assert hits >= 90


def test_fit_poisson_recovery_within_two_sigma():
    rng = np.random.default_rng(5)
    angles = np.arange(0.0, 181.0, 10.0)
    pts = [(th, rng.poisson(mu)) for th, mu in synthetic_curve(2000.0, 0.4044, 0.0, angles)]
    fit = fit_theta_curve(pts)
    assert abs(fit.modulation - 0.4044) < 2.0 * fit.u_modulation


# ---------------------------------------------------------------------------
# estimator consistency on simulated data (reduced scale; the criterion is
# expressed against the standard error of the mean, so it is scale-free)


def _simulated_summary(cfg: BenchConfig, duration_s: float, seed: int) -> CountSummary:
    res_h = run_conditional_experiment(
        replace(cfg, analyzer=Projector(0.0)), duration_s, subseed(seed, 0)
    )
    res_v = run_conditional_experiment(
        replace(cfg, analyzer=Projector(90.0)), duration_s, subseed(seed, 1)
    )
    return CountSummary(
        n_h=res_h.singles_analyzer,
        n_v=res_v.singles_analyzer,
        nc_h=res_h.coincidences,
        nc_v=res_v.coincidences,
    )


def test_estimator_consistent_under_depolarizer_model():
    eta1 = 0.45
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=0.832),
    )
    estimates = [
        eta_conditional(_simulated_summary(cfg, 3.0, seed)).value for seed in range(20)
    ]
    mean = float(np.mean(estimates))
    sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - eta1) < 3.0 * sem


def test_estimator_bias_under_bernoulli_model_matches_enumeration():
    eta1, q = 0.45, 0.832
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=q, failure_model="bernoulli_identity"),
    )
    rates = enumerate_conditional_rates(eta1, 0.40, q, "bernoulli_identity")
    target = eta_conditional(
        CountSummary(rates["n_h"], rates["n_v"], rates["nc_h"], rates["nc_v"])
    ).value
    p_ok = (1.0 + q) / 2.0
    assert target == pytest.approx(eta1 * p_ok / (2 * p_ok - 1), rel=1e-12)
    estimates = [
        eta_conditional(_simulated_summary(cfg, 3.0, 100 + seed)).value
        for seed in range(20)
    ]
    mean = float(np.mean(estimates))
    sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - target) < 3.0 * sem
