"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Statistical criteria run at fixed seeds, so the whole suite is
deterministic.  Run ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines on a passing suite.
"""

import math
import time

import numpy as np
import pytest

from conftest import enumerate_conditional_rates, sigfigs_ok
from biphoton.bench import BenchConfig, DetectorParams, PockelsParams, TacParams
from biphoton.calibrate import (
    CountSummary,
    KlyshkoCounts,
    apply_polarizer_correction,
    eta_conditional,
    eta_klyshko,
    visibility,
)
from biphoton.polarization import heralded_idler_state
from biphoton.polarization import degree_of_polarization, von_neumann_entropy
from biphoton.simulate import (
    conditional_counts,
    hv_counts,
    klyshko_counts,
    run_klyshko_experiment,
    scan_delay,
    scan_theta,
)
from biphoton.uncertainty import (
    UncertainInput,
    budget_conditional,
    budget_klyshko,
    monte_carlo_uncertainty,
    sensitivities_conditional,
    sensitivities_klyshko,
)

REFERENCE = CountSummary(n_h=76.6, n_v=165.9, nc_h=4.4, nc_v=48.7)
REFERENCE_K = KlyshkoCounts(
    n_signal=131777.0, n_idler=1832.8, n_coincidence=874.4, tau_ns=40.0, t_ns=9.3
)


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def poisson_budget(c: CountSummary):
    return budget_conditional(
        [
            UncertainInput("n_h", c.n_h, math.sqrt(max(c.n_h, 1.0))),
            UncertainInput("n_v", c.n_v, math.sqrt(max(c.n_v, 1.0))),
            UncertainInput("nc_h", c.nc_h, math.sqrt(max(c.nc_h, 1.0))),
            UncertainInput("nc_v", c.nc_v, math.sqrt(max(c.nc_v, 1.0))),
        ]
    )


def test_criterion_01_reference_estimate_and_polarizer_correction():
    est = eta_conditional(REFERENCE)
    corrected = apply_polarizer_correction(est, 0.9842)
    ok = abs(est.value - 0.441) <= 0.001 and abs(corrected.value - 0.448) <= 0.001
    report(
        1,
        "reference counts estimate",
        ok,
        f"eta = {est.value:.4f} (0.441 +- 0.001), corrected = {corrected.value:.4f} (0.448 +- 0.001)",
    )


def test_criterion_02_reference_budget(reference_conditional_inputs):
    coeffs = sensitivities_conditional(REFERENCE)
    budget = budget_conditional(reference_conditional_inputs)
    coeff_ok = all(
        sigfigs_ok(got, expected, 3)
        for got, expected in zip(coeffs, (-0.006763, 0.003123, 0.01827, -0.00165))
    )
    contrib_ok = all(
        sigfigs_ok(row.contribution, expected, 3)
        for row, expected in zip(budget.rows, (0.02840, 0.01780, 0.02923, 0.00429))
    )
    combined_ok = abs(budget.combined_u - 0.045) <= 0.001
    report(
        2,
        "reference uncertainty budget",
        coeff_ok and contrib_ok and combined_ok,
        f"coefficients 3sf {coeff_ok}, contributions 3sf {contrib_ok}, "
        f"combined u = {budget.combined_u:.4f} (0.045 +- 0.001)",
    )


def test_criterion_03_reference_visibilities():
    vis_singles = visibility(REFERENCE.n_v, REFERENCE.n_h)
    vis_coinc = visibility(REFERENCE.nc_v, REFERENCE.nc_h)
    ok = abs(vis_singles - 0.368) <= 0.001 and abs(vis_coinc - 0.832) <= 0.003
    report(
        3,
        "reference visibilities",
        ok,
        f"singles = {vis_singles:.4f} (0.368 +- 0.001), "
        f"coincidence = {vis_coinc:.4f} (within 0.003 of 0.832)",
    )


def test_criterion_04_klyshko_point_and_budget(reference_klyshko_inputs):
    est = eta_klyshko(REFERENCE_K)
    budget = budget_klyshko(
        reference_klyshko_inputs,
        tau_ns=40.0,
        reference_sensitivities={"n_signal": 5.88e-10, "t_ns": 1572.0},
    )
    value_ok = abs(est.value - 0.480) <= 0.001 and abs(est.value - 0.4812) <= 0.005
    contrib_ok = sigfigs_ok(budget.row("n_idler").contribution, 0.00234, 2) and sigfigs_ok(
        budget.row("n_coincidence").contribution, 0.00284, 2
    )
    # the quoted device-rate and stop-delay coefficients are not reproduced by
    # any propagation of this estimator: the budget must surface both values
    reported_ok = (
        "differs" in budget.row("n_signal").note and "differs" in budget.row("t_ns").note
    )
    report(
        4,
        "direct-calibration point and budget",
        value_ok and contrib_ok and reported_ok,
        f"eta = {est.value:.4f} (0.480 +- 0.001, within 0.005 of 0.4812); "
        f"N_i/N_c contributions 2sf {contrib_ok}; "
        f"N_s and T coefficient discrepancy reported: {reported_ok}",
    )


def test_criterion_05_simulation_pipeline_recovers_eta1():
    eta1, q = 0.486, 0.832
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=q),
    )
    angles = np.linspace(0.0, 180.0, 19)
    duration = (1.0e6 / len(angles)) / cfg.pair_rate_hz  # one million pairs total
    started = time.perf_counter()
    points = scan_theta(cfg, angles, duration, seed=0)
    elapsed = time.perf_counter() - started
    summary = hv_counts(points)
    est = eta_conditional(summary).value
    u = poisson_budget(summary).combined_u
    ok = abs(est - eta1) <= 3.0 * u and elapsed < 30.0
    report(
        5,
        "full pipeline closure",
        ok,
        f"eta = {est:.4f} vs {eta1} ({abs(est - eta1) / u:.2f} of 3 sigma, "
        f"u = {u:.4f}), scan took {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_06_klyshko_closure_with_dead_time():
    true_eta = 0.48
    cfg = BenchConfig(
        pair_rate_hz=2.708e5,  # device-under-test rate ~1.3e5/s
        det1=DetectorParams(eta=true_eta, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=0.0),
        tac=TacParams(window_ns=2.0, stop_delay_ns=9.3),
    )
    res = run_klyshko_experiment(cfg, 10.0, seed=8)
    counts = klyshko_counts(res)
    uncorrected = counts.n_coincidence / counts.n_idler
    corrected = eta_klyshko(counts).value
    bias = 1.0 - uncorrected / true_eta
    sigma = math.sqrt(corrected * (1.0 - corrected) / res.singles_analyzer)
    bias_ok = 0.003 <= bias <= 0.007
    corrected_ok = abs(corrected - true_eta) <= 3.0 * sigma
    report(
        6,
        "direct-calibration closure with dead time",
        bias_ok and corrected_ok,
        f"N_s = {counts.n_signal:.0f}/s, uncorrected low by {bias * 100:.2f}% "
        f"(0.5 +- 0.2%), corrected = {corrected:.4f} "
        f"({abs(corrected - true_eta) / sigma:.2f} of 3 sigma)",
    )


@pytest.mark.parametrize("eta1", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("q", [0.6, 0.832, 1.0])
def test_criterion_07_estimator_exact_under_depolarizer(eta1, q):
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=q),
    )
    summary = conditional_counts(cfg, 10.0, seed=int(1000 * eta1 + 10 * q))
    est = eta_conditional(summary).value
    u = poisson_budget(summary).combined_u
    ok = abs(est - eta1) <= 3.0 * u
    report(
        7,
        f"estimator exactness (eta1 = {eta1}, q = {q})",
        ok,
        f"eta = {est:.4f} ({abs(est - eta1) / u:.2f} of 3 sigma)",
    )


def test_criterion_07_estimator_bias_under_bernoulli():
    eta1, q = 0.45, 0.832
    p_ok = (1.0 + q) / 2.0  # 0.916
    rates = enumerate_conditional_rates(eta1, 0.40, q, "bernoulli_identity")
    target = eta_conditional(
        CountSummary(rates["n_h"], rates["n_v"], rates["nc_h"], rates["nc_v"])
    ).value
    assert target == pytest.approx(eta1 * p_ok / (2.0 * p_ok - 1.0), rel=1e-12)
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=eta1, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=q, failure_model="bernoulli_identity"),
    )
    summary = conditional_counts(cfg, 20.0, seed=3)
    est = eta_conditional(summary).value
    u = poisson_budget(summary).combined_u
    ok = abs(est - target) <= 3.0 * u
    report(
        7,
        "estimator bias under the rotate-or-nothing model (p = 0.916)",
        ok,
        f"eta = {est:.4f} vs enumerated target {target:.4f} "
        f"({abs(est - target) / u:.2f} of 3 sigma)",
    )


def test_criterion_08_delay_scan_shape():
    cfg = BenchConfig(
        pair_rate_hz=2.0e4,
        det1=DetectorParams(eta=0.486, dead_time_ns=40.0),
        det2=DetectorParams(eta=0.40, dead_time_ns=40.0),
        pockels=PockelsParams(q=1.0),
        fiber_delay_ns=50.0,
    )
    rows = scan_delay(cfg, [0.0, 2000.0, 3700.0], 10.0, seed=99)
    share = [r.coinc_v / (r.coinc_v + r.coinc_h) for r in rows]
    early, mid, late = rows
    singles_sigma = math.sqrt(late.singles_v + late.singles_h)
    ok = (
        share[0] >= 0.95
        and share[2] <= 0.05
        and share[0] > share[1] > share[2]
        and early.coinc_v > early.coinc_h
        and late.coinc_h > late.coinc_v
        and early.singles_v > early.singles_h
        and abs(late.singles_v - late.singles_h) <= 4.0 * singles_sigma
    )
    report(
        8,
        "delay-scan shape",
        ok,
        f"rotated fraction {share[0]:.3f} at 0 ns (>= 0.95), {share[1]:.3f} at "
        f"2000 ns, {share[2]:.3f} at 3700 ns (<= 0.05); coincidence dominance "
        f"V:{early.coinc_v}>H:{early.coinc_h} reversing to "
        f"H:{late.coinc_h}>V:{late.coinc_v}",
    )


def test_criterion_09_sensitivities_and_monte_carlo(
    reference_conditional_inputs, reference_klyshko_inputs
):
    def fd(func, args, index, rel_step=1e-4):
        step = rel_step * args[index]
        up, down = list(args), list(args)
        up[index] += step
        down[index] -= step
        return (func(*up) - func(*down)) / (2.0 * step)

    cond_args = (REFERENCE.n_h, REFERENCE.n_v, REFERENCE.nc_h, REFERENCE.nc_v)
    cond_fd = [
        fd(lambda *a: eta_conditional(CountSummary(*a)).value, cond_args, i)
        for i in range(4)
    ]
    cond_ok = all(
        abs(a / b - 1.0) < 1e-6
        for a, b in zip(sensitivities_conditional(REFERENCE), cond_fd)
    )
    k_args = (REFERENCE_K.n_idler, REFERENCE_K.n_coincidence, REFERENCE_K.n_signal, 9.3)
    k_fd = [
        fd(
            lambda ni, nc, ns, t: eta_klyshko(KlyshkoCounts(ns, ni, nc, 40.0, t)).value,
            k_args,
            i,
        )
        for i in range(4)
    ]
    k_ok = all(
        abs(a / b - 1.0) < 1e-6 for a, b in zip(sensitivities_klyshko(REFERENCE_K), k_fd)
    )

    cond_budget = budget_conditional(reference_conditional_inputs)
    cond_mc = monte_carlo_uncertainty("conditional", reference_conditional_inputs, 100_000)
    k_budget = budget_klyshko(reference_klyshko_inputs, tau_ns=40.0)
    k_mc = monte_carlo_uncertainty("klyshko", reference_klyshko_inputs, 100_000, tau_ns=40.0)
    mc_cond_rel = abs(cond_mc / cond_budget.combined_u - 1.0)
    mc_k_rel = abs(k_mc / k_budget.combined_u - 1.0)
    ok = cond_ok and k_ok and mc_cond_rel < 0.05 and mc_k_rel < 0.05
    report(
        9,
        "analytic sensitivities and Monte Carlo cross-check",
        ok,
        f"finite differences within 1e-6: {cond_ok and k_ok}; Monte Carlo vs "
        f"budget: {mc_cond_rel * 100:.1f}% and {mc_k_rel * 100:.1f}% (< 5%)",
    )


def test_criterion_10_entropy_and_polarization_degree():
    s_zero = von_neumann_entropy(heralded_idler_state(0.0))
    s_one = von_neumann_entropy(heralded_idler_state(1.0))
    s_half = von_neumann_entropy(heralded_idler_state(0.5))
    grid_ok = all(
        degree_of_polarization(heralded_idler_state(e)) == pytest.approx(e, abs=1e-14)
        for e in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    ok = s_zero == 1.0 and s_one == 0.0 and abs(s_half - 0.8113) <= 1e-4 and grid_ok
    report(
        10,
        "entropy and degree-of-polarization suite",
        ok,
        f"S(0) = {s_zero}, S(1) = {s_one}, S(0.5) = {s_half:.6f} "
        f"(0.8113 +- 1e-4), P = eta1 on 5-point grid: {grid_ok}",
    )
