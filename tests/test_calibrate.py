import math
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import enumerate_conditional_rates
from biphoton.bench import BenchConfig, ConfigError, DetectorParams, PockelsParams
from biphoton.calibrate import (
    CalibrationError,
    CountSummary,
    Estimate,
    MAX_FIT_COUNTS,
    FitError,
    KlyshkoCounts,
    apply_polarizer_correction,
    background_subtract,
    drift_rescale,
    eta_conditional,
    eta_klyshko,
    fit_theta_curve,
    klyshko_corrections,
    visibility,
    visibility_sigma,
)
from biphoton.polarization import Projector
from biphoton.simulate import conditional_counts, run_conditional_experiment

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


def test_visibility_sigma_matches_the_spread_of_poisson_draws():
    # 200k draws put the sample sd within 0.2% (1 sigma) of the true one; the
    # first-order form is within 0.3% of it at these counts
    rng = np.random.default_rng(2024)
    for n_max, n_min in ((400.0, 100.0), (1000.0, 950.0), (3000.0, 60.0)):
        a, b = rng.poisson(n_max, 200_000), rng.poisson(n_min, 200_000)
        spread = float(np.std((a - b) / (a + b), ddof=1))
        assert visibility_sigma(n_max, n_min) == pytest.approx(spread, rel=0.01)
    assert visibility_sigma(100.0, 0.0) == 0.0
    assert visibility_sigma(1e200, 1e200) == pytest.approx(math.sqrt(0.5) * 1e-100, rel=1e-15)
    for n_max, n_min in ((0.0, 0.0), (-1.0, 5.0), (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(CalibrationError, match="visibility_sigma"):
            visibility_sigma(n_max, n_min)


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
    with pytest.raises(CalibrationError, match="zero singles rates"):
        eta_conditional(CountSummary(0.0, 0.0, 1.0, 2.0))


def test_sums_beyond_float_range_are_refused():
    with pytest.raises(CalibrationError, match="finite"):
        visibility(1.7e308, 1e308)
    for counts in ((76.6, 165.9, 1e308, 1.7e308), (1e308, 1.7e308, 4.4, 48.7)):
        with pytest.raises(CalibrationError, match="floating-point range"):
            eta_conditional(CountSummary(*counts))


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
        with pytest.raises(CalibrationError, match=f"{name} = {bad!r} must be finite"):
            CountSummary(**{**conditional, name: bad})
    klyshko = dict(n_signal=100.0, n_idler=10.0, n_coincidence=1.0, tau_ns=0.0, t_ns=0.0)
    for name in klyshko:
        with pytest.raises(CalibrationError, match=f"{name} = {bad!r} must be finite"):
            KlyshkoCounts(**{**klyshko, name: bad})


@pytest.mark.parametrize(
    "build, error, field",
    [
        (lambda v: BenchConfig(pair_rate_hz=v), ConfigError, "BenchConfig: pair_rate_hz"),
        (lambda v: DetectorParams(eta=v), ConfigError, "DetectorParams: eta"),
        (lambda v: CountSummary(v, 1.0, 1.0, 1.0), CalibrationError, "CountSummary: n_h"),
        (
            lambda v: KlyshkoCounts(100.0, 10.0, 1.0, tau_ns=v, t_ns=0.0),
            CalibrationError,
            "KlyshkoCounts: tau_ns",
        ),
    ],
)
@pytest.mark.parametrize("value", ["5", None, 1j])
def test_a_value_that_does_not_compare_raises_the_record_error(build, error, field, value):
    with pytest.raises(error) as caught:
        build(value)
    assert str(caught.value).startswith(field) and repr(value) in str(caught.value)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda v: BenchConfig(pair_rate_hz=v), ConfigError),
        (lambda v: DetectorParams(eta=v), ConfigError),
        (lambda v: CountSummary(v, 1.0, 1.0, 1.0), CalibrationError),
        (lambda v: KlyshkoCounts(100.0, 10.0, v, tau_ns=0.0, t_ns=0.0), CalibrationError),
    ],
)
@pytest.mark.parametrize("value", [1, True, np.float32(0.5), Decimal("0.5")])
def test_numbers_of_other_types_keep_their_verdict(build, error, value):
    build(value)
    with pytest.raises(error):
        build(-value)


@pytest.mark.parametrize("number", [Decimal, Fraction, np.int64])
def test_numbers_of_other_types_are_stored_as_floats(number):
    # integral values, which every one of the three types holds exactly
    conditional = (77.0, 166.0, 4.0, 49.0)
    klyshko = (20000.0, 30000.0, 4000.0, 40.0, 9.0)
    as_number = lambda values: [number(int(v)) for v in values]
    for estimator, record, values in [
        (eta_conditional, CountSummary, conditional),
        (eta_klyshko, KlyshkoCounts, klyshko),
    ]:
        given_numbers = estimator(record(*as_number(values))).value
        assert type(given_numbers) is float
        assert given_numbers.hex() == estimator(record(*values)).value.hex()

    def config(n):
        return BenchConfig(
            pair_rate_hz=n(20000),
            electronic_delay_ns=n(2000),
            analyzer=Projector(n(45)),
            det1=DetectorParams(eta=n(1), dead_time_ns=n(40), dark_rate_hz=n(200)),
            pockels=PockelsParams(q=n(1), rotation_angle_deg=n(90)),
        )

    given_numbers = run_conditional_experiment(config(number), 0.05, seed=3, keep_records=True)
    given_floats = run_conditional_experiment(config(float), 0.05, seed=3, keep_records=True)
    assert given_numbers.config == given_floats.config
    assert given_numbers.records == given_floats.records  # every click time, bit for bit
    assert given_numbers.coincidences == given_floats.coincidences > 0


def test_a_number_no_float_can_hold_raises_the_record_error():
    with pytest.raises(ConfigError, match="^BenchConfig: pair_rate_hz = 1000"):
        BenchConfig(pair_rate_hz=10**400)
    with pytest.raises(CalibrationError, match="^KlyshkoCounts: t_ns = Fraction"):
        KlyshkoCounts(100.0, 10.0, 1.0, tau_ns=0.0, t_ns=Fraction(10**400))
    # more digits than str() writes by default (4300 on Python >= 3.11)
    with pytest.raises(ConfigError, match="^BenchConfig: pair_rate_hz = .* float can hold$"):
        BenchConfig(pair_rate_hz=10**5000)
    with pytest.raises(CalibrationError, match="^KlyshkoCounts: t_ns = .* float can hold$"):
        KlyshkoCounts(100.0, 10.0, 1.0, tau_ns=0.0, t_ns=Fraction(10**5000, 3))


@pytest.mark.parametrize("u", [-1.0, math.nan])
def test_estimate_rejects_negative_or_nan_uncertainty(u):
    with pytest.raises(ValueError, match=f"u = {u!r} must be finite and >= 0"):
        Estimate(0.5, u)


@pytest.mark.parametrize(
    "value, u, message",
    [
        (math.nan, 0.1, "value = nan must be finite"),
        (math.inf, 0.0, "value = inf must be finite"),
        (-math.inf, 0.0, "value = -inf must be finite"),
        (0.5, math.inf, "u = inf must be finite and >= 0"),
    ],
    ids=[
        "nan-0.1-value must be finite",
        "inf-0.0-value must be finite",
        "-inf-0.0-value must be finite",
        "0.5-inf-u must be >= 0 and finite",
    ],
)
def test_estimate_rejects_non_finite_values(value, u, message):
    with pytest.raises(ValueError, match=message):
        Estimate(value, u)


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


@pytest.mark.parametrize(
    "e, epsilon",
    [(Estimate(0.5, 0.05), 1e-320), (Estimate(1e300), 1e-10), (Estimate(0.5, 1e300), 1e-10)],
)
def test_polarizer_correction_beyond_float_range_is_rejected(e, epsilon):
    # epsilon is in (0, 1], but value / epsilon or u / epsilon overflows to inf
    with pytest.raises(CalibrationError, match="epsilon"):
        apply_polarizer_correction(e, epsilon)


def test_klyshko_corrections_bound_the_counts():
    # KlyshkoCounts accepts exactly the rates whose gamma and alpha are > 0
    gamma, alpha = klyshko_corrections(1.0e6, 40.0, 9.3)
    assert (gamma, alpha) == (1.0 - 1.0e6 * 40.0 * 1e-9, 1.0 - 1.0e6 * 9.3 * 1e-9)
    for tau_ns, t_ns, word in ((40.0, 0.0, "tau"), (0.0, 40.0, "T")):
        KlyshkoCounts(2.5e7 * (1 - 2**-52), 1.0, 0.5, tau_ns=tau_ns, t_ns=t_ns)
        with pytest.raises(CalibrationError, match=f"n_signal \\* {word} must be < 1"):
            KlyshkoCounts(2.5e7, 1.0, 0.5, tau_ns=tau_ns, t_ns=t_ns)


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

    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=0.45, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=_P(q=0.832),
        background_rate_hz=3.0e3,
    )
    duration = 20.0
    c = conditional_counts(cfg, duration, 8)
    raw = visibility(c.n_v, c.n_h)
    background = cfg.background_rate_hz * duration
    clean = background_subtract(replace(c, background_h=background, background_v=background))
    recovered = visibility(clean.n_v, clean.n_h)
    expected = 0.45 * 0.832
    sigma = visibility_sigma(clean.n_v, clean.n_h)
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


def test_drift_rescale_scales_every_field():
    c = CountSummary(**{f.name: float(i + 1) for i, f in enumerate(fields(CountSummary))})
    scaled = drift_rescale(c, 5.0, 2.0)
    for f in fields(CountSummary):
        assert getattr(scaled, f.name) == getattr(c, f.name) * 2.5, f.name


@pytest.mark.parametrize(
    "reference, observed, message",
    [
        (1.0, math.inf, "observed_singles must be finite"),
        (math.inf, 1.0, "reference_singles must be finite"),
        (math.nan, 1.0, "reference_singles must be finite"),
        (1.0, math.nan, "observed_singles must be finite"),
        (0.0, 1.0, "reference_singles must be finite and > 0"),
        (1.0, -2.0, "observed_singles must be finite and > 0"),
        (1e300, 1e-300, "out of floating-point range"),
        (1e-300, 1e300, "out of floating-point range"),
        ("1", 2.0, "^drift_rescale: reference_singles must be finite and > 0"),
        (1.0, None, "^drift_rescale: observed_singles must be finite and > 0"),
        pytest.param(10**5000, 1.0, "reference_singles must be a number a float", id="10**5000"),
    ],
)
def test_drift_rescale_rejects_references_out_of_range(reference, observed, message):
    with pytest.raises(CalibrationError, match=message):
        drift_rescale(CountSummary(100.0, 200.0, 5.0, 40.0), reference, observed)


@pytest.mark.parametrize("number", [Decimal, Fraction, np.int64])
def test_drift_rescale_takes_numbers_of_other_types_as_floats(number):
    c = CountSummary(100.0, 200.0, 5.0, 40.0, background_h=3.0)
    given, floats = drift_rescale(c, number(7), number(3)), drift_rescale(c, 7.0, 3.0)
    for f in fields(CountSummary):
        assert getattr(given, f.name).hex() == getattr(floats, f.name).hex(), f.name


_rates = st.floats(1e-3, 1e7)


@given(_rates, _rates, _rates, _rates, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_eta_conditional_invariant_under_drift_rescale(n_h, n_v, nc_h, nc_v, reference, observed):
    # A common factor cancels in both contrasts.  Contrasts above 1e-2 keep
    # the rounding of the rescaled rates far below the tolerance.
    assume(abs(n_v - n_h) > 1e-2 * (n_v + n_h) and abs(nc_v - nc_h) > 1e-2 * (nc_v + nc_h))
    c = CountSummary(n_h, n_v, nc_h, nc_v)
    rescaled = eta_conditional(drift_rescale(c, reference, observed)).value
    assert rescaled == pytest.approx(eta_conditional(c).value, rel=1e-12, abs=0.0)


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
    # no heralds: the counts are valid, the estimate is not
    with pytest.raises(CalibrationError, match="n_idler must be > 0"):
        eta_klyshko(KlyshkoCounts(1000.0, 0.0, 0.0, 40.0, 9.3))


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
    with pytest.raises(FitError, match="negative counts"):
        fit_theta_curve([(0.0, 10.0), (45.0, -1.0), (90.0, 12.0), (135.0, 11.0)])
    with pytest.raises(FitError, match="non-physical fitted amplitude"):
        fit_theta_curve([(theta, 0.0) for theta in (0.0, 45.0, 90.0, 135.0)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(FitError, match="finite"):
            fit_theta_curve([(0.0, 10.0), (45.0, bad), (90.0, 12.0), (135.0, 11.0)])
        with pytest.raises(FitError, match="finite"):
            fit_theta_curve([(0.0, 10.0), (bad, 11.0), (90.0, 12.0), (135.0, 11.0)])


def test_fit_rejects_counts_above_the_bound():
    # the delta-method gradient overflowed here with a RuntimeWarning
    with pytest.raises(FitError, match="out of range"):
        fit_theta_curve([(0.0, 5e299), (45.0, 1e300), (90.0, 2e300), (135.0, 1e300)])
    top = MAX_FIT_COUNTS
    fit = fit_theta_curve([(0.0, 0.25 * top), (45.0, 0.625 * top), (90.0, top), (135.0, 0.625 * top)])
    assert fit.modulation == pytest.approx(0.6, rel=1e-12)
    assert math.isfinite(fit.u_modulation) and fit.u_modulation > 0.0


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


def test_estimator_consistent_under_depolarizer_model():
    eta1 = 0.45
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=0.832),
    )
    estimates = [
        eta_conditional(conditional_counts(cfg, 3.0, seed)).value for seed in range(20)
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
        eta_conditional(conditional_counts(cfg, 3.0, 100 + seed)).value
        for seed in range(20)
    ]
    mean = float(np.mean(estimates))
    sem = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    assert abs(mean - target) < 3.0 * sem
