"""First-order uncertainty propagation and budget tables for both estimators.

Combined standard uncertainty follows the usual quadrature rule

    u^2(eta) = sum_i c_i^2 u^2(x_i)

with closed-form sensitivity coefficients c_i, assembled into per-input
budget rows (value, standard deviation, distribution, sensitivity,
contribution).  Input correlations are taken as zero.  A seeded Monte Carlo
cross-check samples the inputs from their stated distributions and returns
the sample standard deviation of the estimator, which should agree with the
analytic combined uncertainty in the first-order regime.

The budgets and the Monte Carlo check's scheme ids take inputs named as in
``INPUT_NAMES``, in that order: ``n_h, n_v, nc_h, nc_v`` (conditional) and
``n_idler, n_coincidence, n_signal, t_ns`` (Klyshko, T in ns).  Other names
or another order raise ValueError.  The values then build the scheme's
counts record (CountSummary or KlyshkoCounts).  The Monte Carlo check's ids
build the budget of the nominal inputs before sampling, so they reject, with
CalibrationError, every count and dead time the budget rejects, degenerate
ones included (zero Pockels contrast, zero Klyshko coincidences).

Count standard deviations are always taken as given: measured scatter often
exceeds the bare Poisson value, so nothing here silently substitutes
sqrt(rate).  Use :func:`poisson_std` when a plain counting deviation is
wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from ._checked import _admit, _Checked, _choices, _range
from .calibrate import (
    _NS_TO_S,
    CalibrationError,
    CountSummary,
    KlyshkoCounts,
    conditional_estimator,
    eta_conditional,
    eta_klyshko,
    klyshko_corrections,
    klyshko_estimator,
)

DISTRIBUTIONS = ("gaussian", "rectangular")

MIN_MC_TRIALS = 10_000
# Every trial's value is kept, in one array filled block by block, and then
# centred by the standard deviation: a tracemalloc peak of 16 bytes per trial,
# so this many trials peak near 1 GiB.
MAX_MC_TRIALS = 1 << 26
_MC_BLOCK = 1 << 15
_DEFAULT_MC_SEED = 7041

# Input names of each scheme, in the order of its sensitivities and estimator formula.
INPUT_NAMES = {
    "conditional": ("n_h", "n_v", "nc_h", "nc_v"),
    "klyshko": ("n_idler", "n_coincidence", "n_signal", "t_ns"),
}


@dataclass(frozen=True)
class UncertainInput(_Checked):
    """One estimator input: value, standard deviation, and distribution."""

    _error = ValueError
    name: str
    value: float = field(metadata=_range())
    std_dev: float = field(metadata=_range(0.0))
    distribution: str = field(default="gaussian", metadata=_choices(DISTRIBUTIONS))

    def _label(self) -> str:
        return f"UncertainInput {self.name}"

    @classmethod
    def rectangular(cls, name: str, value: float, half_width: float) -> "UncertainInput":
        """Rectangular input of half-width (a number >= 0); std_dev = half_width / sqrt(3)."""
        label = f"UncertainInput {name}"
        half_width = _admit(label, "half_width", half_width, _range(0.0), ValueError)
        return cls(name, value, half_width / math.sqrt(3.0), "rectangular")


@dataclass(frozen=True)
class BudgetRow:
    """One line of the budget: contribution = |sensitivity| * std_dev."""

    quantity: str
    value: float
    std_dev: float
    distribution: str
    sensitivity: float
    contribution: float
    note: str = ""


@dataclass(frozen=True)
class Budget:
    """Estimate plus its per-input budget rows, combined in quadrature."""

    estimate: float
    rows: tuple[BudgetRow, ...]

    @property
    def combined_u(self) -> float:
        return math.sqrt(sum(r.contribution**2 for r in self.rows))

    def row(self, quantity: str) -> BudgetRow:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise KeyError(quantity)


def poisson_std(rate_hz: float, integration_s: float) -> float:
    """Counting standard deviation of a rate: sqrt(rate / integration time)."""
    if not (0 <= rate_hz < math.inf and 0 < integration_s < math.inf):
        raise ValueError("poisson_std: need a finite rate >= 0 and a finite integration time > 0")
    std = math.sqrt(rate_hz / integration_s)
    if std == math.inf:
        raise ValueError("poisson_std: rate / integration time is not finite")
    return std


# ---------------------------------------------------------------------------
# sensitivity coefficients


def sensitivities_conditional(c: CountSummary) -> tuple[float, float, float, float]:
    """Closed-form partials of the conditional estimator.

    Returns (d/dN_H, d/dN_V, d/dNc_H, d/dNc_V) of

        eta1 = [(N_V - N_H)/(N_V + N_H)] * [(Nc_V + Nc_H)/(Nc_V - Nc_H)].
    """
    s = c.n_v + c.n_h
    d = c.nc_v - c.nc_h
    if s == 0 or d == 0:
        raise CalibrationError("sensitivities undefined: degenerate counts")
    vis = (c.n_v - c.n_h) / s
    con = (c.nc_v + c.nc_h) / d
    return (
        con * (-2.0 * c.n_v / s**2),
        con * (2.0 * c.n_h / s**2),
        vis * (2.0 * c.nc_v / d**2),
        vis * (-2.0 * c.nc_h / d**2),
    )


def sensitivities_klyshko(k: KlyshkoCounts) -> tuple[float, float, float, float]:
    """Closed-form partials of eta = N_c / (N_i * gamma * alpha).

    Returns (d/dN_i, d/dN_c, d/dN_s, d/dT) with the T derivative expressed
    per nanosecond, matching how the stop delay is quoted.
    """
    gamma, alpha = klyshko_corrections(k.n_signal, k.tau_ns, k.t_ns)
    eta = eta_klyshko(k).value
    if k.n_coincidence == 0:
        raise CalibrationError("sensitivities undefined: zero coincidences (d/dN_c = eta / N_c)")
    return (
        -eta / k.n_idler,
        eta / k.n_coincidence,
        eta * (k.tau_ns * _NS_TO_S / gamma + k.t_ns * _NS_TO_S / alpha),
        eta * k.n_signal / alpha * _NS_TO_S,
    )


# ---------------------------------------------------------------------------
# budgets


def _rows(
    inputs: Sequence[UncertainInput],
    coefficients: Sequence[float],
    reference: Mapping[str, float] | None = None,
) -> tuple[BudgetRow, ...]:
    rows = []
    for inp, c in zip(inputs, coefficients):
        note = ""
        if reference and inp.name in reference:
            ref = reference[inp.name]
            if ref != 0 and abs(c / ref - 1.0) > 0.1:
                note = (
                    f"computed sensitivity {c:.4g} differs from supplied "
                    f"reference {ref:.4g} (ratio {c / ref:.3g})"
                )
        rows.append(
            BudgetRow(
                quantity=inp.name,
                value=inp.value,
                std_dev=inp.std_dev,
                distribution=inp.distribution,
                sensitivity=c,
                contribution=abs(c) * inp.std_dev,
                note=note,
            )
        )
    return tuple(rows)


def _counts(scheme: str, inputs: Sequence[UncertainInput], tau_ns: float | None = None):
    """The scheme's checked counts record, from inputs named as in ``INPUT_NAMES``."""
    names = tuple(inp.name for inp in inputs)
    if names != INPUT_NAMES[scheme]:
        raise ValueError(f"{scheme} inputs must be named {INPUT_NAMES[scheme]}, got {names}")
    values = {inp.name: inp.value for inp in inputs}
    if scheme == "conditional":
        return CountSummary(**values)
    return KlyshkoCounts(tau_ns=tau_ns, **values)


def budget_conditional(inputs: Sequence[UncertainInput]) -> Budget:
    """Budget of the conditional estimator; inputs as in ``INPUT_NAMES["conditional"]``."""
    c = _counts("conditional", inputs)
    return Budget(eta_conditional(c).value, _rows(inputs, sensitivities_conditional(c)))


def budget_klyshko(
    inputs: Sequence[UncertainInput],
    tau_ns: float,
    reference_sensitivities: Mapping[str, float] | None = None,
) -> Budget:
    """Budget of the direct-calibration estimator.

    ``inputs`` are named as in ``INPUT_NAMES["klyshko"]`` (T in ns); the dead
    time ``tau_ns`` is treated as exact.  When ``reference_sensitivities`` maps
    an input name to an externally quoted coefficient, rows whose computed
    coefficient deviates by more than 10% carry a note reporting both
    values; the computed one is always the one used.
    """
    k = _counts("klyshko", inputs, tau_ns)
    coeffs = sensitivities_klyshko(k)
    return Budget(eta_klyshko(k).value, _rows(inputs, coeffs, reference_sensitivities))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


def _sample(inp: UncertainInput, rng: np.random.Generator, n: int) -> np.ndarray:
    if inp.distribution == "gaussian":
        return rng.normal(inp.value, inp.std_dev, n)
    hw = inp.std_dev * math.sqrt(3.0)
    return rng.uniform(inp.value - hw, inp.value + hw, n)


def monte_carlo_uncertainty(
    estimator: str | Callable,
    inputs: Sequence[UncertainInput],
    trials: int = 100_000,
    *,
    tau_ns: float | None = None,
    seed: int = _DEFAULT_MC_SEED,
) -> float:
    """Sample-based standard uncertainty of an estimator.

    ``estimator`` is either a vectorized callable taking one array per input
    (in the given order) or one of the ids ``"conditional"`` /
    ``"klyshko"``, which first build the scheme's budget of the nominal
    inputs and so raise what it raises; the latter needs ``tau_ns``.
    Trials run in fixed-size blocks with per-block subseeds, so blocks can
    be evaluated in any order (or in parallel) without changing the result.
    ``trials`` is an integer from MIN_MC_TRIALS to MAX_MC_TRIALS.
    """
    if not isinstance(trials, (int, np.integer)):
        raise TypeError(f"trials must be an integer, got {type(trials).__name__}")
    if not MIN_MC_TRIALS <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"trials must be in [{MIN_MC_TRIALS}, {MAX_MC_TRIALS}], got {trials}")
    if callable(estimator):
        func = estimator
    elif estimator == "conditional":
        budget_conditional(inputs)  # the nominal counts raise as the budget does
        func = conditional_estimator
    elif estimator == "klyshko":
        if tau_ns is None:
            raise ValueError("klyshko estimator needs tau_ns")
        budget_klyshko(inputs, tau_ns)
        func = lambda *cols: klyshko_estimator(*cols, tau_ns)
    else:
        raise ValueError(f"unknown estimator id {estimator!r}")

    values = np.empty(trials)
    for block, lo in enumerate(range(0, trials, _MC_BLOCK)):
        n = min(_MC_BLOCK, trials - lo)
        rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
        cols = [_sample(inp, rng, n) for inp in inputs]
        out = np.asarray(func(*cols), dtype=float)
        if out.size != n:
            raise ValueError(f"the estimator returned {out.size} values for {n} trials")
        values[lo : lo + n] = out.ravel()
    return float(np.std(values, ddof=1))


# ---------------------------------------------------------------------------
# rendering


_COLUMNS = ("Quantity", "Value", "Std Dev", "Distribution", "Sensitivity", "Contribution")


def format_budget(budget: Budget) -> str:
    """Fixed-column text table of the budget, one row per input."""
    table = [_COLUMNS]
    for r in budget.rows:
        table.append(
            (
                r.quantity,
                f"{r.value:g}",
                f"{r.std_dev:g}",
                r.distribution,
                f"{r.sensitivity:.6g}",
                f"{r.contribution:.5g}",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(_COLUMNS))]
    lines = [
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.insert(1, "-+-".join("-" * w for w in widths))
    lines.append(f"estimate = {budget.estimate:.6g}  combined u = {budget.combined_u:.4g}")
    for r in budget.rows:
        if r.note:
            lines.append(f"note [{r.quantity}]: {r.note}")
    return "\n".join(lines)


def budget_csv(budget: Budget) -> str:
    """CSV rendering: header, one row per input, then a combined row."""
    names = [f.name for f in fields(BudgetRow)]
    out = [",".join(names)]
    for r in budget.rows:
        cells = (getattr(r, n) for n in names)
        out.append(",".join(v if isinstance(v, str) else repr(v) for v in cells))
    out.append(f"combined,{budget.estimate!r},{budget.combined_u!r},,,,")
    return "\n".join(out) + "\n"
