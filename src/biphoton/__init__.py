"""Event-level simulation and absolute calibration of heralded photon benches.

The package splits into five layers:

* :mod:`biphoton.polarization` - exact polarization-qubit algebra (density
  matrices, channels, the Bloch vector, entropy);
* :mod:`biphoton.bench` - static experiment descriptions and the analytic
  singles/coincidence predictions used as oracles;
* :mod:`biphoton.simulate` - the deterministic seeded Monte Carlo engine
  producing timestamped detections and coincidence counts;
* :mod:`biphoton.calibrate` - estimators turning count summaries into
  detector quantum efficiencies for both calibration schemes;
* :mod:`biphoton.uncertainty` - first-order uncertainty budgets with a
  Monte Carlo cross-check.

``biphoton.cli`` wraps everything in a command line (see the README).
"""

from .bench import (
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
from .calibrate import (
    CalibrationError,
    CountSummary,
    Estimate,
    FitError,
    FitResult,
    KlyshkoCounts,
    apply_polarizer_correction,
    background_subtract,
    drift_rescale,
    eta_conditional,
    eta_klyshko,
    fit_theta_curve,
    visibility,
    visibility_sigma,
)
from .polarization import (
    ImpossibleOutcomeError,
    JointDensity,
    PolarizationChannel,
    PolarizationDensity,
    Projector,
    apply_channel,
    bloch_vector,
    conditional_state,
    degree_of_polarization,
    depolarizer,
    heralded_idler_state,
    linear_ket,
    make_state,
    rotator,
    von_neumann_entropy,
)
from .scenario import load_config, parse_config, render_config
from .simulate import (
    DelayScanPoint,
    DetectionRecord,
    EventRecords,
    SimResult,
    ThetaScanPoint,
    conditional_counts,
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
from .uncertainty import (
    Budget,
    BudgetRow,
    UncertainInput,
    budget_conditional,
    budget_csv,
    budget_klyshko,
    format_budget,
    monte_carlo_uncertainty,
    poisson_std,
    sensitivities_conditional,
    sensitivities_klyshko,
)

__version__ = "0.1.0"
