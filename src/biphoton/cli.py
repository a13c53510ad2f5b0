"""Command-line front end.

Subcommands
-----------
simulate   one seeded run, summary CSV out
scan       theta or delay scan, tidy CSV out (plot with whatever you like)
calibrate  estimate + uncertainty budget from a counts file
fit        modulation-curve least squares on (theta, counts) CSV data
selftest   reduced-scale closure checks of the engine against the analytics

Exit codes: 0 success, 1 statistical/self-test failure, 2 usage or config
error.  The RNG seed resolves as flag > ``BIPHOTON_SEED`` env var > 0 and must
be >= 0.  All CSV output has a header line, LF endings, and ``.`` decimals
regardless of locale.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

from ._checked import _check_seed
from .bench import BenchConfig, ConfigError, predict_coincidence_visibility, predict_singles_visibility
from .calibrate import (
    CountSummary,
    Estimate,
    FitError,
    KlyshkoCounts,
    apply_polarizer_correction,
    background_subtract,
    eta_conditional,
    eta_klyshko,
    fit_theta_curve,
    visibility,
    visibility_sigma,
)
from .scenario import load_config, parse_counts
from .simulate import (
    EXPERIMENTS,
    conditional_counts,
    klyshko_counts,
    run_conditional_experiment,
    run_klyshko_experiment,
    scan_delay,
    scan_theta,
    subseed,
)
from .uncertainty import (
    INPUT_NAMES,
    UncertainInput,
    budget_conditional,
    budget_csv,
    budget_klyshko,
    format_budget,
    monte_carlo_uncertainty,
)

def _resolve_seed(seed: int | None) -> int:
    where = "--seed"
    if seed is None:
        where, env = "BIPHOTON_SEED", os.environ.get("BIPHOTON_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"BIPHOTON_SEED={env!r} is not an integer") from None
    _check_seed(seed, where)
    return seed


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(lines: list[str], out: str | None) -> None:
    """Write CSV lines to the ``out`` path, or to stdout when it is unset."""
    text = "\n".join(lines) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _require(counts: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in counts]
    if missing:
        raise ConfigError(f"{where}: missing keys {', '.join(missing)}")


def _read_counts(path: str, cls, budget_keys):
    """Build ``cls`` from a counts file; also return its budget values, or None.

    The file may set the fields of ``cls`` and ``budget_keys``; each field
    without a default is required, and the budget keys are all or none.
    """
    names = [f.name for f in fields(cls)]
    counts = parse_counts(_read_text(path), names + list(budget_keys))
    _require(counts, [f.name for f in fields(cls) if f.default is MISSING], path)
    budget = None
    if any(k in counts for k in budget_keys):
        _require(counts, budget_keys, f"{path} (budget keys are all or none)")
        budget = [counts[k] for k in budget_keys]
    return cls(**{name: counts[name] for name in names if name in counts}), budget


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed)
    run = run_klyshko_experiment if args.experiment == "klyshko" else run_conditional_experiment
    res = run(cfg, args.duration, seed)
    columns = ("singles_trigger", "singles_analyzer", "coincidences", "duration_s", "seed")
    _emit([",".join(columns), ",".join(repr(getattr(res, n)) for n in columns)], args.out)
    return 0


def _cmd_scan(args) -> int:
    cfg = load_config(args.config)
    seed = _resolve_seed(args.seed)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--values: {args.values!r} is not a comma-separated number list")
    if not values:
        raise ConfigError("--values: empty list")
    # looked up per call, so that a wrapper put on this module's names takes effect
    scan = {"theta": scan_theta, "delay": scan_delay}[args.scan]
    rows = scan(cfg, values, args.duration, seed)
    names = [f.name for f in fields(rows[0])]  # values is not empty
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(p, n)) for n in names) for p in rows]
    _emit(lines, args.out)
    return 0


def _rows(counts, u, scheme="conditional") -> list[UncertainInput]:
    """Gaussian budget inputs: the scheme's inputs read from ``counts``, std devs ``u``."""
    return [UncertainInput(n, getattr(counts, n), s) for n, s in zip(INPUT_NAMES[scheme], u)]


def _subtract_background(c: CountSummary, path: str | None) -> CountSummary:
    """Subtract the background of the ``--background`` file, else of the counts file."""
    if path:
        bg = parse_counts(_read_text(path), ("background_h", "background_v"))
        _require(bg, ("background_h", "background_v"), path)
        c = replace(c, **bg)
    return background_subtract(c)


@dataclass(frozen=True)
class _Scheme:
    """What one calibration scheme adds to the shared ``calibrate`` body."""

    counts: type
    budget_keys: tuple[str, ...]
    budget: Callable  # (counts, budget key values) -> Budget
    estimate: Callable  # counts -> Estimate
    label: str  # of the estimate line
    preface: Callable  # counts -> (label, value) lines printed before the estimate
    subtract_background: Callable  # (counts, --background path) -> counts


_SCHEMES = {
    "conditional": _Scheme(
        counts=CountSummary,
        budget_keys=("u_n_h", "u_n_v", "u_nc_h", "u_nc_v"),
        budget=lambda c, u: budget_conditional(_rows(c, u)),
        estimate=eta_conditional,
        label="eta (conditional)    ",
        preface=lambda c: [
            ("singles visibility   ", visibility(c.n_v, c.n_h)),
            ("coincidence visibility", visibility(c.nc_v, c.nc_h)),
        ],
        subtract_background=_subtract_background,
    ),
    "klyshko": _Scheme(
        counts=KlyshkoCounts,
        budget_keys=("u_n_idler", "u_n_coincidence", "u_n_signal", "t_half_width_ns"),
        budget=lambda k, u: budget_klyshko(  # T is rectangular, of half-width u[3]
            _rows(k, u[:3], "klyshko") + [UncertainInput.rectangular("t_ns", k.t_ns, u[3])],
            tau_ns=k.tau_ns,
        ),
        estimate=eta_klyshko,
        label="eta (klyshko)  ",
        preface=lambda k: [("eta uncorrected", k.n_coincidence / k.n_idler)],
        subtract_background=lambda k, path: k,  # a Klyshko counts file has no background keys
    ),
}


def _cmd_calibrate(args) -> int:
    scheme = _SCHEMES[args.scheme]
    stray = [f"--{n}" for n in ("epsilon", "background") if getattr(args, n) is not None]
    if stray and args.scheme != "conditional":
        raise ConfigError(f"{' and '.join(stray)}: only for --scheme conditional")
    counts, u = _read_counts(args.counts, scheme.counts, scheme.budget_keys)
    counts = scheme.subtract_background(counts, args.background)
    if args.out and u is None:
        raise ConfigError("--out needs a full budget; add the u_* keys to the counts file")
    try:
        estimate = scheme.estimate(counts)
        budget = None if u is None else scheme.budget(counts, u)
        # a non-finite sensitivity or contribution makes combined u non-finite
        finite = budget is None or math.isfinite(budget.combined_u)
    except ArithmeticError:  # a square or a quotient of the counts left the float range
        finite = False
    if not finite:
        raise ConfigError(f"{args.counts}: these counts give no finite estimate and budget")
    if budget is not None:
        estimate = replace(estimate, u=budget.combined_u)
    lines = [(label, Estimate(v)) for label, v in scheme.preface(counts)]
    lines.append((scheme.label, estimate))
    if args.epsilon is not None:
        corrected = apply_polarizer_correction(estimate, args.epsilon)
        lines.append((f"eta / epsilon({args.epsilon:g})", corrected))
    text = [f"{label} = {e.value:.6g}" + (f" +- {e.u:.3g}" if e.u else "") for label, e in lines]
    if budget is not None:
        text += ["", format_budget(budget)]
    sys.stdout.write("\n".join(text) + "\n")
    if args.out:
        _write_text(args.out, budget_csv(budget))
    return 0


def _cmd_fit(args) -> int:
    lines = _read_text(args.points).splitlines()
    if not lines or "," not in lines[0]:
        raise ConfigError(f"{args.points}: expected CSV with a header line")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{args.points} line {lineno}: expected theta,counts")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(
                f"{args.points} line {lineno}: {line!r} is not numeric"
            ) from None
    fit = fit_theta_curve(points)
    sys.stdout.write(
        f"amplitude    = {fit.amplitude:.6g}\n"
        f"modulation   = {fit.modulation:.6g}\n"
        f"phase_deg    = {fit.phase_deg:.6g}\n"
        f"u_modulation = {fit.u_modulation:.3g}\n"
    )
    return 0


def _cmd_selftest(args) -> int:
    seed = _resolve_seed(args.seed)
    # (name, value, limit): a check passes when value < limit
    checks: list[tuple[str, float, float]] = []

    cfg = BenchConfig(pair_rate_hz=2.0e4, pockels=replace(BenchConfig().pockels, q=0.832))
    summary = conditional_counts(cfg, 6.0, seed)
    for kind, n_max, n_min, predicted in (
        ("singles", summary.n_v, summary.n_h, predict_singles_visibility(cfg)),
        ("coincidence", summary.nc_v, summary.nc_h, predict_coincidence_visibility(cfg)),
    ):
        z = abs(visibility(n_max, n_min) - predicted) / visibility_sigma(n_max, n_min)
        checks.append((f"{kind} visibility vs closed form", z, 4.0))

    poisson = [math.sqrt(getattr(summary, n)) for n in INPUT_NAMES["conditional"]]
    budget = budget_conditional(_rows(summary, poisson))
    z = abs(eta_conditional(summary).value - cfg.det1.eta) / budget.combined_u
    checks.append(("conditional estimator recovers eta1", z, 4.0))

    kcfg = BenchConfig(
        pair_rate_hz=1.0e5,
        det1=replace(BenchConfig().det1, eta=0.48, dead_time_ns=40.0),
        det2=replace(BenchConfig().det2, eta=0.60, dead_time_ns=0.0),
    )
    kres = run_klyshko_experiment(kcfg, 4.0, subseed(seed, 2))
    est = eta_klyshko(klyshko_counts(kres))
    sigma = math.sqrt(est.value * (1 - est.value) / kres.singles_analyzer)
    z = abs(est.value - kcfg.det1.eta) / sigma
    checks.append(("klyshko corrected estimator recovers eta", z, 4.0))

    mc = monte_carlo_uncertainty("conditional", _reference_inputs(), trials=20_000, seed=seed)
    analytic = budget_conditional(_reference_inputs()).combined_u
    checks.append(("budget vs Monte Carlo uncertainty", abs(mc / analytic - 1.0), 0.07))

    ok = True
    for name, value, limit in checks:
        passed = value < limit
        ok &= passed
        sys.stdout.write(
            f"{'PASS' if passed else 'FAIL'}  {name}  (margin {value / limit:.2f} of limit)\n"
        )
    return 0 if ok else 1


def _reference_inputs() -> list[UncertainInput]:
    # bundled example budget used by the self-test
    reference = CountSummary(76.6, 165.9, 4.4, 48.7)
    return _rows(reference, (4.2, 5.7, 1.6, 2.6))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Heralded polarization-rotation bench: simulation and calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one seeded experiment")
    p.add_argument("--config", required=True, help="scenario file (key=value)")
    p.add_argument("--duration", type=float, required=True, help="run length in seconds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="summary CSV path (default: stdout)")
    p.add_argument(
        "--experiment",
        choices=EXPERIMENTS,
        default="conditional",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scan", help="scan analyzer angle or electronic delay")
    p.add_argument("--config", required=True)
    p.add_argument("--scan", choices=("theta", "delay"), required=True)
    p.add_argument("--values", required=True, help="comma-separated scan values")
    p.add_argument("--duration", type=float, required=True, help="seconds per point")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("calibrate", help="estimate efficiency from a counts file")
    p.add_argument("--scheme", choices=tuple(_SCHEMES), required=True)
    p.add_argument("--counts", required=True, help="counts file (key=value)")
    p.add_argument("--epsilon", type=float, default=None, help="trigger polarizer transmittance")
    p.add_argument("--background", default=None, help="background counts file")
    p.add_argument("--out", default=None, help="budget CSV path")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fit", help="fit the modulation curve to (theta, counts) CSV")
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("selftest", help="reduced-scale closure checks")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
