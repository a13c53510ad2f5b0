"""Estimators turning count summaries into detector quantum efficiencies.

Two calibration routes are covered:

* conditional-rotation visibility: the H/V singles contrast on the analyzer
  arm, divided by the coincidence contrast that isolates the rotation
  apparatus, estimates the trigger detector's efficiency;
* direct coincidence (Klyshko) calibration: coincidences over heralding-arm
  singles, corrected for dead time and the stop-line delay of the
  coincidence converter.

All count inputs are rates (counts per second); integration time enters
only through the uncertainties handled in :mod:`biphoton.uncertainty`.
Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._checked import _Checked, _range, _stored

_NS_TO_S = 1.0e-9
# Largest count fit_theta_curve accepts.  Its delta-method gradient divides by
# amplitude * modulation depth, about counts**2, which overflows near 1.3e154.
MAX_FIT_COUNTS = 1.0e100


class CalibrationError(ValueError):
    """Estimator preconditions violated (degenerate or negative counts)."""


class FitError(RuntimeError):
    """Least-squares fit failed (rank deficiency or unusable data)."""


@dataclass(frozen=True)
class CountSummary(_Checked):
    """Analyzer-arm rates at the two principal polarizer settings.

    ``n_h``/``n_v`` are singles at 0 deg / 90 deg, ``nc_h``/``nc_v`` the
    coincidence rates at the same settings.  Optional background rates are
    held separately until :func:`background_subtract` removes them.
    """

    _error = CalibrationError
    n_h: float = field(metadata=_range(0.0))
    n_v: float = field(metadata=_range(0.0))
    nc_h: float = field(metadata=_range(0.0))
    nc_v: float = field(metadata=_range(0.0))
    background_h: float = field(default=0.0, metadata=_range(0.0))
    background_v: float = field(default=0.0, metadata=_range(0.0))


@dataclass(frozen=True)
class KlyshkoCounts(_Checked):
    """Rates of the direct calibration plus the correction parameters."""

    _error = CalibrationError
    n_signal: float = field(metadata=_range(0.0))
    n_idler: float = field(metadata=_range(0.0))
    n_coincidence: float = field(metadata=_range(0.0))
    tau_ns: float = field(metadata=_range(0.0))
    t_ns: float = field(metadata=_range(0.0))

    def __post_init__(self):
        super().__post_init__()  # each field's range, then the checks across fields
        if self.n_coincidence > min(self.n_signal, self.n_idler):
            raise CalibrationError("KlyshkoCounts: coincidences exceed a singles rate")
        gamma, alpha = klyshko_corrections(self.n_signal, self.tau_ns, self.t_ns)
        if not gamma > 0.0:
            raise CalibrationError("KlyshkoCounts: n_signal * tau must be < 1")
        if not alpha > 0.0:
            raise CalibrationError("KlyshkoCounts: n_signal * T must be < 1")


@dataclass(frozen=True)
class Estimate(_Checked):
    """A value with its standard uncertainty (0 when not yet evaluated)."""

    _error = ValueError
    value: float = field(metadata=_range())
    u: float = field(default=0.0, metadata=_range(0.0))


@dataclass(frozen=True)
class FitResult:
    """Parameters of the fitted modulation curve R * (1 - m cos 2(theta - theta0))."""

    amplitude: float
    modulation: float
    phase_deg: float
    u_modulation: float


def visibility(n_max: float, n_min: float) -> float:
    """(n_max - n_min) / (n_max + n_min); negative if the inputs are swapped."""
    total = n_max + n_min
    if not 0 < total < math.inf:
        raise CalibrationError("visibility undefined: n_max + n_min must be > 0 and finite")
    return (n_max - n_min) / total


def visibility_sigma(n_max: float, n_min: float) -> float:
    """Standard deviation of :func:`visibility` for independent Poisson counts,
    to first order: 2 sqrt(n_max n_min (n_max + n_min)) / (n_max + n_min)**2."""
    total = n_max + n_min
    if not (n_max >= 0 and n_min >= 0 and 0 < total < math.inf):
        raise CalibrationError("visibility_sigma undefined: need counts >= 0 with a finite sum > 0")
    # the same as the docstring's form, but no product of counts overflows
    return 2.0 * math.sqrt(n_max / total * (n_min / total)) / math.sqrt(total)


def eta_conditional(c: CountSummary) -> Estimate:
    """Trigger-detector efficiency from singles and coincidence contrasts.

    eta1 = [(N_V - N_H) / (N_V + N_H)] * [(Nc_V + Nc_H) / (Nc_V - Nc_H)]

    The singles contrast alone underestimates the efficiency by the rotation
    apparatus's own contrast; the coincidence factor removes it.  The result
    still contains the trigger polarizer's transmittance, removed separately
    by :func:`apply_polarizer_correction`.  The uncertainty field is filled
    by the budget machinery, not here.
    """
    if c.nc_v == c.nc_h:
        raise CalibrationError("uncalibratable: zero Pockels contrast")
    if c.n_v + c.n_h == 0:
        raise CalibrationError("eta_conditional: zero singles rates")
    value = conditional_estimator(c.n_h, c.n_v, c.nc_h, c.nc_v)
    # an overflowing singles sum gives a finite but wrong 0
    if not (math.isfinite(value) and c.n_v + c.n_h < math.inf):
        raise CalibrationError("eta_conditional: rates out of floating-point range")
    return Estimate(value)


def conditional_estimator(n_h, n_v, nc_h, nc_v):
    """The conditional estimator's formula; takes scalars or arrays, checks nothing."""
    return (n_v - n_h) / (n_v + n_h) * (nc_v + nc_h) / (nc_v - nc_h)


def apply_polarizer_correction(e: Estimate, epsilon: float) -> Estimate:
    """Remove the trigger polarizer transmittance: value and u scaled by 1/epsilon."""
    if not 0.0 < epsilon <= 1.0:
        raise CalibrationError(f"polarizer transmittance {epsilon} outside (0, 1]")
    value, u = e.value / epsilon, e.u / epsilon
    if not (math.isfinite(value) and math.isfinite(u)):
        raise CalibrationError(f"eta / epsilon out of range for epsilon = {epsilon:g}")
    return Estimate(value, u)


def background_subtract(c: CountSummary) -> CountSummary:
    """Remove the stored background rates from the singles.

    Coincidences are left untouched: the background is uncorrelated with
    the trigger, so its contribution inside the coincidence window is
    accidentals-level and neglected.
    """
    n_h = c.n_h - c.background_h
    n_v = c.n_v - c.background_v
    if n_h < 0 or n_v < 0:
        raise CalibrationError("background_subtract: negative singles after subtraction")
    return replace(c, n_h=n_h, n_v=n_v, background_h=0.0, background_v=0.0)


def drift_rescale(
    c: CountSummary, reference_singles: float, observed_singles: float
) -> CountSummary:
    """Rescale all rates by reference/observed to undo a source-power drift.

    The reference ratio is an explicit input; nothing here tries to infer
    it from the data.  Both references must be finite numbers > 0, with a
    ratio that is too; they are taken as floats, as the records take theirs.
    """
    references = {"reference_singles": reference_singles, "observed_singles": observed_singles}
    for name, value in references.items():
        references[name], description = _stored(value, _range(0.0, lo_open=True))
        if references[name] is None:
            raise CalibrationError(f"drift_rescale: {name} must be {description}")
    k = references["reference_singles"] / references["observed_singles"]
    if not 0 < k < math.inf:
        raise CalibrationError(
            "drift_rescale: reference_singles / observed_singles is out of floating-point range"
        )
    return CountSummary(**{f.name: getattr(c, f.name) * k for f in fields(c)})


def eta_klyshko(k: KlyshkoCounts) -> Estimate:
    """Efficiency of the device under test from the direct coincidence scheme.

    eta = N_c / (N_i * gamma * alpha), with gamma and alpha the dead-time and
    stop-delay corrections of :func:`klyshko_corrections`.  The corrections
    divide the denominator multiplicatively, which reproduces the expected
    sensitivity signs for N_i and N_c.
    """
    if k.n_idler <= 0:
        raise CalibrationError("eta_klyshko: n_idler must be > 0")
    return Estimate(
        klyshko_estimator(k.n_idler, k.n_coincidence, k.n_signal, k.t_ns, k.tau_ns)
    )


def klyshko_corrections(n_signal, tau_ns, t_ns):
    """Dead-time and stop-delay corrections (1 - N_s tau, 1 - N_s T); scalars or arrays."""
    return 1.0 - n_signal * tau_ns * _NS_TO_S, 1.0 - n_signal * t_ns * _NS_TO_S


def klyshko_estimator(n_idler, n_coincidence, n_signal, t_ns, tau_ns):
    """The direct-calibration estimator's formula; takes scalars or arrays, checks nothing."""
    gamma, alpha = klyshko_corrections(n_signal, tau_ns, t_ns)
    return n_coincidence / (n_idler * gamma * alpha)


def fit_theta_curve(points) -> FitResult:
    """Weighted least squares of R * (1 - m cos 2(theta - theta0)).

    ``points`` is a sequence of (theta_deg, counts) pairs; at least 4 points
    spanning at least 90 degrees are required.  The model is linear in
    (A, B, C) via R - R m cos 2theta0 * cos 2theta - R m sin 2theta0 *
    sin 2theta, so the normal equations are solved exactly - no iteration,
    no convergence failures.  Weights are 1/counts with the observed counts
    (floored at one event) standing in for the Poisson variance; parameter
    standard errors come from the inverse normal matrix, and u(m) follows by
    the delta method.  Counts above ``MAX_FIT_COUNTS`` raise FitError.
    """
    pts = [(float(t), float(y)) for t, y in points]
    if len(pts) < 4:
        raise FitError(f"need at least 4 points, got {len(pts)}")
    theta = np.array([t for t, _ in pts])
    y = np.array([v for _, v in pts])
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(y))):
        raise FitError("angles and counts must be finite")
    if theta.max() - theta.min() < 90.0:
        raise FitError("points must span at least 90 degrees")
    if np.any(y < 0):
        raise FitError("negative counts")
    if np.any(y > MAX_FIT_COUNTS):
        raise FitError(f"counts above {MAX_FIT_COUNTS:.0e} are out of range")

    two_theta = np.radians(2.0 * theta)
    design = np.column_stack([np.ones_like(theta), np.cos(two_theta), np.sin(two_theta)])
    w = 1.0 / np.maximum(y, 1.0)
    normal = design.T @ (design * w[:, None])
    rhs = design.T @ (w * y)
    # a rank below 3 gives cond >= 1/(3 eps), about 1.5e15
    if np.linalg.cond(normal) > 1e12:
        raise FitError("rank-deficient design (angles too degenerate)")
    beta = np.linalg.solve(normal, rhs)
    cov = np.linalg.inv(normal)

    amp, b, c = beta
    if amp <= 0:
        raise FitError(f"non-physical fitted amplitude {amp}")
    s = math.hypot(b, c)
    modulation = s / amp
    phase_deg = 0.5 * math.degrees(math.atan2(-c, -b))
    grad = np.array(
        [-modulation / amp, b / (amp * max(s, 1e-300)), c / (amp * max(s, 1e-300))]
    )
    u_m = math.sqrt(max(0.0, grad @ cov @ grad))
    return FitResult(float(amp), float(modulation), float(phase_deg), float(u_m))
