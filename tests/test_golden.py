"""Golden counts: exact engine outputs for fixed (config, duration, seed).

Every other engine test checks statistics or compares a run with itself in
the same process.  These pins compare against numbers recorded once, so a
refactor or an optimisation of the engine that changes a single RNG draw,
event order or dead-time decision fails here.  Re-pin only in a change
that says why the counts had to move.
"""

import hashlib
from dataclasses import replace

import pytest

from biphoton.bench import BenchConfig, DetectorParams, PockelsParams
from biphoton.polarization import Projector
from biphoton.simulate import (
    run_conditional_experiment,
    run_klyshko_experiment,
    scan_delay,
    scan_theta,
    write_event_csv,
)
from biphoton.uncertainty import UncertainInput, monte_carlo_uncertainty

_BASE = BenchConfig()

# Below the 10 kHz driver threshold: the rotation stays enabled.
LOW_RATE = replace(_BASE, pair_rate_hz=2.0e4, pockels=replace(_BASE.pockels, q=0.832))

NOISY = replace(
    LOW_RATE,
    det1=DetectorParams(eta=0.45, dead_time_ns=40.0, dark_rate_hz=800.0),
    det2=DetectorParams(eta=0.40, dead_time_ns=40.0, dark_rate_hz=500.0),
    background_rate_hz=3000.0,
)

HIGH_RATE_NOISY = replace(
    NOISY,
    pair_rate_hz=1.0e6,
    det1=DetectorParams(eta=0.45, dead_time_ns=45.0, dark_rate_hz=800.0),
    idler_path_loss=0.6,
)

BERNOULLI = replace(
    LOW_RATE, pockels=PockelsParams(q=0.832, failure_model="bernoulli_identity")
)

# The idler samples the pulse's falling edge (amplitude 0.59).
OFF_FLAT_TOP = replace(LOW_RATE, electronic_delay_ns=1500.0)

RUNS = {
    # default bench: 22.5 kHz trigger singles trip the driver gate
    "conditional_default_gated": (run_conditional_experiment, _BASE, 1.5, 11),
    "klyshko_default": (run_klyshko_experiment, _BASE, 0.5, 12),
    "conditional_darks_background": (run_conditional_experiment, NOISY, 0.5, 13),
    "klyshko_highrate_darks_background": (run_klyshko_experiment, HIGH_RATE_NOISY, 0.05, 14),
    "conditional_bernoulli": (run_conditional_experiment, BERNOULLI, 0.5, 15),
    "conditional_off_flat_top": (run_conditional_experiment, OFF_FLAT_TOP, 0.5, 16),
    "conditional_v_analyzer_psi_plus": (
        run_conditional_experiment,
        replace(LOW_RATE, source_kind="psi_plus", analyzer=Projector(90.0),
                trigger_projector=Projector(45.0, 0.98)),
        0.5,
        17,
    ),
}

GOLDEN_RUNS = {
    "conditional_default_gated": (33328, 25652, 9346),
    "klyshko_default": (22569, 19952, 9111),
    "conditional_darks_background": (2783, 3131, 92),
    "klyshko_highrate_darks_background": (22082, 12062, 5271),
    "conditional_bernoulli": (2271, 1182, 69),
    "conditional_off_flat_top": (2256, 1487, 363),
    "conditional_v_analyzer_psi_plus": (2340, 2033, 422),
}

GOLDEN_THETA_SCAN = [
    (0.0, 649, 41),
    (45.0, 1011, 204),
    (90.0, 1342, 419),
    (135.0, 983, 228),
]

GOLDEN_DELAY_SCAN = [
    (0.0, 669, 1345, 50, 406),
    (1500.0, 776, 1269, 177, 276),
    (4000.0, 1017, 1029, 405, 48),
]

GOLDEN_CSV_SHA256 = {
    "conditional": "4056ffb302a875f72e0da68748c5b56acc56434ccdd837cbb1860d7a10c2b44d",
    "klyshko": "3508bb0e8cc0679fefb218b05c450cca7b8972b6069c539477cf4161af4b6032",
}

GOLDEN_MC_U = 0.04503735444988292


def _counts(res):
    return (res.singles_trigger, res.singles_analyzer, res.coincidences)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_run_counts(name):
    run, cfg, duration, seed = RUNS[name]
    assert _counts(run(cfg, duration, seed)) == GOLDEN_RUNS[name]


def test_golden_theta_scan():
    rows = scan_theta(LOW_RATE, (0.0, 45.0, 90.0, 135.0), 0.25, 21)
    assert [(p.theta_deg, p.singles, p.coincidences) for p in rows] == GOLDEN_THETA_SCAN


def test_golden_delay_scan():
    rows = scan_delay(LOW_RATE, (0.0, 1500.0, 4000.0), 0.25, 22)
    got = [(p.delay_ns, p.singles_h, p.singles_v, p.coinc_h, p.coinc_v) for p in rows]
    assert got == GOLDEN_DELAY_SCAN


@pytest.mark.parametrize(
    "kind, run, cfg, seed",
    [
        ("conditional", run_conditional_experiment, NOISY, 31),
        ("klyshko", run_klyshko_experiment, NOISY, 32),
    ],
)
def test_golden_event_csv(tmp_path, kind, run, cfg, seed):
    res = run(cfg, 0.1, seed, keep_records=True)
    path = tmp_path / f"{kind}.csv"
    write_event_csv(res.records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[kind]


def test_golden_monte_carlo_uncertainty():
    inputs = [
        UncertainInput("n_h", 76.6, 4.2),
        UncertainInput("n_v", 165.9, 5.7),
        UncertainInput("nc_h", 4.4, 1.6),
        UncertainInput("nc_v", 48.7, 2.6),
    ]
    assert monte_carlo_uncertainty("conditional", inputs, trials=20_000, seed=41) == GOLDEN_MC_U
