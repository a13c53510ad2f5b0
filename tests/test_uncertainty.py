import math
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from hypothesis import assume, example, given, strategies as st

from conftest import (
    sensitivities_conditional_reference,
    sensitivities_klyshko_reference,
    sigfigs_ok,
    traced_peak,
)
from biphoton import uncertainty
from biphoton.calibrate import (
    CalibrationError,
    CountSummary,
    KlyshkoCounts,
    eta_conditional,
    eta_klyshko,
)
from biphoton.uncertainty import (
    Budget,
    UncertainInput,
    budget_conditional,
    budget_csv,
    budget_klyshko,
    conditional_estimator,
    format_budget,
    klyshko_estimator,
    monte_carlo_uncertainty,
    poisson_std,
)

REFERENCE = CountSummary(n_h=76.6, n_v=165.9, nc_h=4.4, nc_v=48.7)
REFERENCE_K = KlyshkoCounts(
    n_signal=131777.0, n_idler=1832.8, n_coincidence=874.4, tau_ns=40.0, t_ns=9.3
)


def coefficients(budget: Budget) -> list[float]:
    return [row.sensitivity for row in budget.rows]


def _inputs(scheme, counts, std_dev=1.0):
    """Budget inputs of a counts record's values, each with the same deviation."""
    return [UncertainInput(n, getattr(counts, n), std_dev) for n in uncertainty.INPUT_NAMES[scheme]]


def central_difference(func, args, index, rel_step=1e-4):
    step = rel_step * args[index]
    up = list(args)
    down = list(args)
    up[index] += step
    down[index] -= step
    return (func(*up) - func(*down)) / (2.0 * step)


# ---------------------------------------------------------------------------
# inputs


def test_uncertain_input_validation():
    with pytest.raises(ValueError, match="std_dev"):
        UncertainInput("x", 1.0, -0.1)
    with pytest.raises(ValueError, match="distribution"):
        UncertainInput("x", 1.0, 0.1, "triangular")
    non_finite = [(math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1), (1.0, math.nan), (1.0, math.inf)]
    for value, std_dev in non_finite:
        with pytest.raises(ValueError, match="finite"):
            UncertainInput("x", value, std_dev)
    for value, half_width in [(9.3, math.nan), (9.3, math.inf), (math.nan, 0.5)]:
        with pytest.raises(ValueError, match="finite"):
            UncertainInput.rectangular("t_ns", value, half_width)


def test_rectangular_half_width_conversion():
    t = UncertainInput.rectangular("t_ns", 9.3, 0.5)
    assert t.std_dev == pytest.approx(0.288675, abs=5e-7)
    assert t.distribution == "rectangular"


@pytest.mark.parametrize("half_width", [Decimal("0.5"), Fraction(1, 2), np.int64(2)])
def test_rectangular_takes_numbers_of_other_types_as_floats(half_width):
    given = UncertainInput.rectangular("t_ns", 9.3, half_width)
    floats = UncertainInput.rectangular("t_ns", 9.3, float(half_width))
    assert type(given.std_dev) is float
    assert given.std_dev.hex() == floats.std_dev.hex()


@pytest.mark.parametrize("half_width", ["0.5", None, -0.5, pytest.param(10**5000, id="10**5000")])
def test_rectangular_rejects_a_bad_half_width_naming_it(half_width):
    with pytest.raises(ValueError, match="^UncertainInput t_ns: half_width = "):
        UncertainInput.rectangular("t_ns", 9.3, half_width)


def test_poisson_std_helper():
    assert poisson_std(76.6, 10.0) == pytest.approx(math.sqrt(7.66))
    with pytest.raises(ValueError):
        poisson_std(1.0, 0.0)
    bad = [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    for rate, seconds in bad + [(1e308, 1e-308)]:  # the last quotient overflows
        with pytest.raises(ValueError, match="finite"):
            poisson_std(rate, seconds)


# ---------------------------------------------------------------------------
# sensitivities


def test_conditional_sensitivities_reference_values(reference_conditional_inputs):
    c1, c2, c3, c4 = coefficients(budget_conditional(reference_conditional_inputs))
    assert sigfigs_ok(c1, -0.006763, 3)
    assert sigfigs_ok(c2, 0.003123, 3)
    assert sigfigs_ok(c3, 0.01827, 3)
    assert sigfigs_ok(c4, -0.00165, 3)


def test_conditional_sensitivities_match_finite_differences(reference_conditional_inputs):
    def estimator(n_h, n_v, nc_h, nc_v):
        return eta_conditional(CountSummary(n_h, n_v, nc_h, nc_v)).value

    args = (REFERENCE.n_h, REFERENCE.n_v, REFERENCE.nc_h, REFERENCE.nc_v)
    analytic = coefficients(budget_conditional(reference_conditional_inputs))
    for i in range(4):
        fd = central_difference(estimator, args, i)
        assert analytic[i] == pytest.approx(fd, rel=1e-6)


def test_conditional_sensitivities_symmetric_counts():
    c = CountSummary(n_h=100.0, n_v=100.0, nc_h=4.4, nc_v=48.7)
    c1, c2, c3, c4 = coefficients(budget_conditional(_inputs("conditional", c)))
    contrast = (c.nc_v + c.nc_h) / (c.nc_v - c.nc_h)
    assert c1 == pytest.approx(-contrast / 200.0, rel=1e-12)
    assert c2 == pytest.approx(contrast / 200.0, rel=1e-12)
    assert c3 == 0.0 and c4 == 0.0


@pytest.mark.parametrize("c", [CountSummary(1, 1, 2, 2), CountSummary(0, 0, 1, 2)])
def test_conditional_sensitivities_reject_degenerate_counts(c):
    # equal coincidences (zero Pockels contrast) or zero singles
    with pytest.raises(CalibrationError, match="zero (Pockels contrast|singles rates)"):
        budget_conditional(_inputs("conditional", c))


def test_klyshko_sensitivities_match_finite_differences(reference_klyshko_inputs):
    def estimator(n_i, n_c, n_s, t_ns):
        return eta_klyshko(KlyshkoCounts(n_s, n_i, n_c, 40.0, t_ns)).value

    args = (REFERENCE_K.n_idler, REFERENCE_K.n_coincidence, REFERENCE_K.n_signal, 9.3)
    analytic = coefficients(budget_klyshko(reference_klyshko_inputs, tau_ns=40.0))
    for i in range(4):
        fd = central_difference(estimator, args, i)
        assert analytic[i] == pytest.approx(fd, rel=1e-6)


def test_klyshko_sensitivities_reject_zero_coincidences(reference_klyshko_inputs):
    # the estimate is 0, and the budget refuses it as a precondition
    k = replace(REFERENCE_K, n_coincidence=0.0)
    assert eta_klyshko(k).value == 0.0
    inputs = list(reference_klyshko_inputs)
    inputs[1] = UncertainInput("n_coincidence", 0.0, 5.2)
    with pytest.raises(CalibrationError, match="zero coincidences"):
        budget_klyshko(inputs, tau_ns=40.0)


def test_klyshko_sensitivities_reference_values(reference_klyshko_inputs):
    c_ni, c_nc, c_ns, c_t = coefficients(budget_klyshko(reference_klyshko_inputs, tau_ns=40.0))
    # quoted table coefficients derive from the uncorrected ratio (1/N_i =
    # 0.000546); the corrected propagation agrees with them to 2 figures
    assert sigfigs_ok(c_ni, -0.00026, 2)
    assert sigfigs_ok(c_nc, 0.000546, 2)
    assert c_nc == pytest.approx(eta_klyshko(REFERENCE_K).value / 874.4, rel=1e-12)
    # closed-form values for the device-rate and stop-delay rows
    eta = eta_klyshko(REFERENCE_K).value
    gamma = 1.0 - 131777.0 * 40.0e-9
    alpha = 1.0 - 131777.0 * 9.3e-9
    assert c_ns == pytest.approx(eta * (40e-9 / gamma + 9.3e-9 / alpha), rel=1e-12)
    assert c_t == pytest.approx(eta * 131777.0 / alpha * 1e-9, rel=1e-12)
    assert c_ns == pytest.approx(2.38e-8, rel=5e-3)
    assert c_t == pytest.approx(6.34e-5, rel=5e-3)


_counts = st.floats(1e-3, 1e9)


@given(_counts, _counts, _counts, _counts)
@example(n_h=76.6, n_v=165.9, nc_h=4.4, nc_v=48.7)
@example(n_h=1e-3, n_v=1e9, nc_h=1e9, nc_v=1e-3)
def test_conditional_budget_coefficients_match_hand_partials(n_h, n_v, nc_h, nc_v):
    # A complex quotient's imaginary part subtracts two products, so each
    # coefficient carries a rounding error of about eps * (x + y) / min(x, y)
    # of its pair of counts x, y: within 1e-11 up to a spread of about 1e4,
    # about 2e-4 at 1e-3 against 1e9.  The hand partials have no such loss.
    assume(nc_v != nc_h)
    c = CountSummary(n_h, n_v, nc_h, nc_v)
    got = coefficients(budget_conditional(_inputs("conditional", c)))
    spreads = 2 * [(n_h + n_v) / min(n_h, n_v)] + 2 * [(nc_h + nc_v) / min(nc_h, nc_v)]
    for a, b, spread in zip(got, sensitivities_conditional_reference(c), spreads):
        assert math.isclose(a, b, rel_tol=max(1e-11, 4 * sys.float_info.epsilon * spread))


# a product N_s tau or N_s T below 1; tau or T of 0, or small but of a normal
# step (a value under about 2e-278 raises, as the test below checks)
_dead_share = st.just(0.0) | st.floats(1e-9, 0.99)


@given(_counts, _counts, st.floats(1e-3, 1.0), _dead_share, _dead_share)
def test_klyshko_budget_coefficients_match_hand_partials(n_signal, n_idler, share, tau_s, t_s):
    # coincidences a share of the smaller singles rate, and N_s tau and N_s T
    # the shares tau_s and t_s
    n_coincidence = share * min(n_signal, n_idler)
    k = KlyshkoCounts(
        n_signal, n_idler, n_coincidence, tau_s / n_signal * 1e9, t_s / n_signal * 1e9
    )
    got = coefficients(budget_klyshko(_inputs("klyshko", k), tau_ns=k.tau_ns))
    for a, b in zip(got, sensitivities_klyshko_reference(k)):
        assert math.isclose(a, b, rel_tol=1e-11)


def test_budgets_raise_for_a_derivative_step_below_the_normal_floats(reference_klyshko_inputs):
    conditional = CountSummary(n_h=76.6, n_v=165.9, nc_h=1e-300, nc_v=2e-300)
    with pytest.raises(ArithmeticError):
        budget_conditional(_inputs("conditional", conditional))
    n_i, n_c, n_s, t = reference_klyshko_inputs
    # a step that underflows to 0, and a subnormal one, whose products with
    # N_i would give N_s and T coefficients 2% and 20% off
    for value in (1e-310, 1e-290):
        tiny = [replace(n_i, value=value), replace(n_c, value=value), n_s, t]
        with pytest.raises(ArithmeticError):
            budget_klyshko(tiny, tau_ns=40.0)


# ---------------------------------------------------------------------------
# budgets


def test_budget_conditional_reference(reference_conditional_inputs):
    budget = budget_conditional(reference_conditional_inputs)
    contributions = [r.contribution for r in budget.rows]
    for got, expected in zip(contributions, (0.02840, 0.01780, 0.02923, 0.00429)):
        assert sigfigs_ok(got, expected, 3)
    assert budget.combined_u == pytest.approx(0.0447, abs=5e-5)
    assert budget.estimate == pytest.approx(0.441398, abs=5e-7)


def test_budget_zero_std_gives_zero_combined(reference_conditional_inputs):
    inputs = [UncertainInput(i.name, i.value, 0.0) for i in reference_conditional_inputs]
    assert budget_conditional(inputs).combined_u == 0.0


def test_budget_doubling_one_std_doubles_its_contribution(reference_conditional_inputs):
    base = budget_conditional(reference_conditional_inputs)
    inputs = list(reference_conditional_inputs)
    inputs[2] = UncertainInput("nc_h", 4.4, 3.2)
    bumped = budget_conditional(inputs)
    assert bumped.rows[2].contribution == pytest.approx(2.0 * base.rows[2].contribution)
    for i in (0, 1, 3):
        assert bumped.rows[i].contribution == base.rows[i].contribution


def test_budget_combined_is_row_order_invariant(reference_conditional_inputs):
    budget = budget_conditional(reference_conditional_inputs)
    shuffled = Budget(budget.estimate, tuple(reversed(budget.rows)))
    assert shuffled.combined_u == pytest.approx(budget.combined_u, rel=1e-12)


def test_budget_rows_satisfy_contribution_identity(reference_conditional_inputs):
    for r in budget_conditional(reference_conditional_inputs).rows:
        assert r.contribution == pytest.approx(abs(r.sensitivity) * r.std_dev, rel=1e-9)


def test_budget_klyshko_reference(reference_klyshko_inputs):
    budget = budget_klyshko(reference_klyshko_inputs, tau_ns=40.0)
    assert budget.estimate == pytest.approx(0.480201, abs=5e-7)
    assert sigfigs_ok(budget.row("n_idler").contribution, 0.00234, 2)
    assert sigfigs_ok(budget.row("n_coincidence").contribution, 0.00284, 2)
    t_row = budget.row("t_ns")
    assert t_row.distribution == "rectangular"
    assert t_row.std_dev == pytest.approx(0.288675, abs=5e-7)
    assert t_row.contribution == pytest.approx(1.829e-5, rel=1e-3)
    with pytest.raises(KeyError, match="n_h"):
        budget.row("n_h")


def test_budget_klyshko_flags_deviating_reference_coefficients(reference_klyshko_inputs):
    # externally quoted coefficients for the device-rate and stop-delay rows
    # that our propagation does not reproduce: report both, use ours
    reference = {"n_signal": 5.88e-10, "t_ns": 1572.0, "n_idler": -0.00026}
    budget = budget_klyshko(
        reference_klyshko_inputs, tau_ns=40.0, reference_sensitivities=reference
    )
    assert "differs" in budget.row("n_signal").note
    assert "differs" in budget.row("t_ns").note
    assert budget.row("n_idler").note == ""  # within 10%: no flag
    assert "note [n_signal]" in format_budget(budget)


def test_budget_input_count_validation(reference_conditional_inputs, reference_klyshko_inputs):
    with pytest.raises(ValueError):
        budget_conditional(reference_conditional_inputs[:3])
    with pytest.raises(ValueError):
        budget_klyshko(reference_conditional_inputs[:2], tau_ns=40.0)
    # the names must match the scheme's order: a swap would flip the sign of eta
    n_h, n_v, nc_h, nc_v = reference_conditional_inputs
    misnamed = UncertainInput("n_hh", n_h.value, n_h.std_dev)
    for inputs in ([n_v, n_h, nc_h, nc_v], [misnamed, n_v, nc_h, nc_v]):
        with pytest.raises(ValueError, match="must be named"):
            budget_conditional(inputs)
    n_i, n_c, n_s, t = reference_klyshko_inputs
    with pytest.raises(ValueError, match="must be named"):
        budget_klyshko([n_s, n_i, n_c, t], tau_ns=40.0)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


def test_monte_carlo_matches_analytic_conditional(reference_conditional_inputs):
    analytic = budget_conditional(reference_conditional_inputs).combined_u
    mc = monte_carlo_uncertainty("conditional", reference_conditional_inputs, 100_000)
    assert abs(mc / analytic - 1.0) < 0.05


def test_monte_carlo_matches_analytic_klyshko(reference_klyshko_inputs):
    analytic = budget_klyshko(reference_klyshko_inputs, tau_ns=40.0).combined_u
    mc = monte_carlo_uncertainty(
        "klyshko", reference_klyshko_inputs, 100_000, tau_ns=40.0
    )
    assert abs(mc / analytic - 1.0) < 0.05


def test_monte_carlo_zero_variance_inputs():
    inputs = [
        UncertainInput("n_h", 76.6, 0.0),
        UncertainInput("n_v", 165.9, 0.0),
        UncertainInput("nc_h", 4.4, 0.0),
        UncertainInput("nc_v", 48.7, 0.0),
    ]
    assert monte_carlo_uncertainty("conditional", inputs, 10_000) == pytest.approx(
        0.0, abs=1e-12
    )


def test_monte_carlo_linear_estimator_matches_propagation():
    inputs = [UncertainInput("a", 10.0, 0.3), UncertainInput("b", -4.0, 0.7)]
    analytic = math.hypot(2.0 * 0.3, 3.0 * 0.7)
    mc = monte_carlo_uncertainty(lambda a, b: 2.0 * a + 3.0 * b, inputs, 200_000)
    assert mc == pytest.approx(analytic, rel=0.02)


def test_monte_carlo_rejects_an_estimator_of_another_length():
    inputs = [UncertainInput("a", 10.0, 0.3)]
    for func in (lambda a: a[:-1], lambda a: np.concatenate([a, a]), lambda a: 1.0):
        with pytest.raises(ValueError, match="the estimator returned"):
            monte_carlo_uncertainty(func, inputs, 40_000)


@pytest.mark.traced_memory
def test_monte_carlo_keeps_each_trial_in_one_array(reference_conditional_inputs):
    # the trial values (8 bytes each) and one temporary of np.std; a list of
    # blocks concatenated peaked at 25 bytes per trial
    trials = 1_000_000
    peak = traced_peak(monte_carlo_uncertainty, "conditional", reference_conditional_inputs, trials)
    assert peak < 20 * trials


def test_monte_carlo_deterministic_and_validated(
    reference_conditional_inputs, reference_klyshko_inputs
):
    a = monte_carlo_uncertainty("conditional", reference_conditional_inputs, 20_000, seed=5)
    b = monte_carlo_uncertainty("conditional", reference_conditional_inputs, 20_000, seed=5)
    assert a == b
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_uncertainty("conditional", reference_conditional_inputs, 100)
    with pytest.raises(ValueError, match="tau_ns"):
        monte_carlo_uncertainty("klyshko", reference_conditional_inputs, 10_000)
    with pytest.raises(ValueError, match="estimator id"):
        monte_carlo_uncertainty("bootstrap", reference_conditional_inputs, 10_000)
    n_h, n_v, nc_h, nc_v = reference_conditional_inputs
    with pytest.raises(ValueError, match="must be named"):
        monte_carlo_uncertainty("conditional", [n_v, n_h, nc_h, nc_v], 10_000)
    # a dead time the Klyshko budget rejects is rejected the same way here
    for tau_ns, message in [
        (math.nan, "tau_ns = nan must be finite"),
        (math.inf, "tau_ns = inf must be finite"),
        (-40.0, "tau_ns = -40.0 must be finite"),
        (1e6, r"n_signal \* tau must be < 1"),
    ]:
        with pytest.raises(CalibrationError, match=message):
            budget_klyshko(reference_klyshko_inputs, tau_ns=tau_ns)
        with pytest.raises(CalibrationError, match=message):
            monte_carlo_uncertainty("klyshko", reference_klyshko_inputs, 10_000, tau_ns=tau_ns)
    # and so are nominal counts whose estimate or sensitivities are undefined
    zero_contrast = [n_h, n_v, replace(nc_h, value=20.0), replace(nc_v, value=20.0)]
    n_i, n_c, n_s, t = reference_klyshko_inputs
    no_coincidences = [n_i, replace(n_c, value=0.0), n_s, t]
    for scheme, inputs, budget, message in [
        ("conditional", zero_contrast, budget_conditional, "zero Pockels contrast"),
        ("klyshko", no_coincidences, partial(budget_klyshko, tau_ns=40.0), "zero coincidences"),
    ]:
        with pytest.raises(CalibrationError, match=message):
            budget(inputs)
        with pytest.raises(CalibrationError, match=message):
            monte_carlo_uncertainty(scheme, inputs, 10_000, tau_ns=40.0)


def test_monte_carlo_trials_are_a_bounded_integer(monkeypatch, reference_conditional_inputs):
    inputs = reference_conditional_inputs
    at_bound = monte_carlo_uncertainty("conditional", inputs, 20_000, seed=5)
    # a small bound, so that no test allocates for the real one; a bad count
    # of trials raises before any input is sampled
    monkeypatch.setattr(uncertainty, "MAX_MC_TRIALS", 20_000)
    assert monte_carlo_uncertainty("conditional", inputs, 20_000, seed=5) == at_bound
    assert monte_carlo_uncertainty("conditional", inputs, np.int64(20_000), seed=5) == at_bound
    monkeypatch.setattr(uncertainty, "_sample", None)
    for trials in (20_001, 9_999, -1):
        with pytest.raises(ValueError, match=r"trials must be in \[10000, 20000\]"):
            monte_carlo_uncertainty("conditional", inputs, trials)
    for trials in (1e5, 20_000.0, "20000", None):
        with pytest.raises(TypeError, match="trials must be an integer"):
            monte_carlo_uncertainty("conditional", inputs, trials)


def test_vectorized_estimators_agree_with_scalar_reference():
    assert conditional_estimator(76.6, 165.9, 4.4, 48.7) == pytest.approx(
        eta_conditional(REFERENCE).value, rel=1e-12
    )
    assert klyshko_estimator(1832.8, 874.4, 131777.0, 9.3, 40.0) == pytest.approx(
        eta_klyshko(REFERENCE_K).value, rel=1e-12
    )


# ---------------------------------------------------------------------------
# rendering


def test_format_budget_layout(reference_conditional_inputs):
    text = format_budget(budget_conditional(reference_conditional_inputs))
    lines = text.splitlines()
    assert lines[0].startswith("Quantity")
    assert "Sensitivity" in lines[0] and "Contribution" in lines[0]
    assert any(line.startswith("n_h") for line in lines)
    assert lines[-1].startswith("estimate = ")


def test_budget_csv_layout(reference_conditional_inputs):
    budget = budget_conditional(reference_conditional_inputs)
    text = budget_csv(budget)
    lines = text.splitlines()
    assert lines[0] == "quantity,value,std_dev,distribution,sensitivity,contribution,note"
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].startswith("combined,")
    assert "\r" not in text
    # numeric cells parse back
    cells = lines[1].split(",")
    assert cells[0] == "n_h"
    float(cells[1]), float(cells[4]), float(cells[5])
