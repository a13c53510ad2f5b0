"""The public names of ``biphoton``, pinned.

Adding, renaming or removing an export changes this list, so every change to
the package's surface shows up as a reviewed diff here.  Removed names are
recorded in ``CHANGES.md`` and the README's API-change notes.
"""

import types

import biphoton

PUBLIC_NAMES = [
    "BenchConfig",
    "Budget",
    "BudgetRow",
    "CalibrationError",
    "ConfigError",
    "CountSummary",
    "DelayScanPoint",
    "DetectionRecord",
    "DetectorParams",
    "DriverPolicy",
    "Estimate",
    "EventRecords",
    "FitError",
    "FitResult",
    "ImpossibleOutcomeError",
    "JointDensity",
    "KlyshkoCounts",
    "NoClosedFormError",
    "PockelsParams",
    "PolarizationChannel",
    "PolarizationDensity",
    "Projector",
    "PulseShape",
    "SimResult",
    "TacParams",
    "ThetaScanPoint",
    "UncertainInput",
    "apply_channel",
    "apply_polarizer_correction",
    "background_subtract",
    "bloch_vector",
    "budget_conditional",
    "budget_csv",
    "budget_klyshko",
    "conditional_counts",
    "conditional_state",
    "degree_of_polarization",
    "depolarizer",
    "drift_rescale",
    "eta_conditional",
    "eta_klyshko",
    "fit_theta_curve",
    "format_budget",
    "heralded_idler_state",
    "hv_counts",
    "klyshko_counts",
    "linear_ket",
    "load_config",
    "make_state",
    "monte_carlo_uncertainty",
    "parse_config",
    "poisson_std",
    "predict_coincidence_visibility",
    "predict_singles_rate",
    "predict_singles_visibility",
    "render_config",
    "rotator",
    "run_conditional_experiment",
    "run_klyshko_experiment",
    "scan_delay",
    "scan_theta",
    "subseed",
    "tac_coincidences",
    "visibility",
    "visibility_sigma",
    "von_neumann_entropy",
    "write_event_csv",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(biphoton)
        if not name.startswith("_") and not isinstance(getattr(biphoton, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
