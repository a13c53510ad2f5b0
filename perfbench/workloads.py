"""The four benchmark workloads: set-up, one iteration, and its output oracle.

Each workload drives biphoton only through its Python entry points, looked
up as module attributes at call time so that the tracer in ``spans.py`` can
wrap them.  ``iterate`` is the timed part; ``check`` runs untimed afterwards
and returns one message per failed check.  README.md says why each workload
was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from biphoton import bench, calibrate, cli, scenario, simulate, uncertainty

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION_CFG = ROOT / "demos" / "data" / "bench_calibration.cfg"
SCENARIOS = HERE / "scenarios"

# Statistical checks allow 6 standard deviations.  The 184 runs of 25 s needed
# to compare two commits make about 1.5e4 such checks; at 6 sigma the chance
# that any of them fails by chance is below 1e-4, while a defect in a stage
# moves the figures far more.
SIGMA_BOUND = 6.0


def _outside(failures: list[str], what: str, got: float, want: float, sigma: float) -> None:
    if not (sigma > 0 and math.isfinite(got)):
        failures.append(f"{what}: value {got!r} or sigma {sigma!r} unusable")
    elif abs(got - want) > SIGMA_BOUND * sigma:
        failures.append(
            f"{what}: {got:.6g} vs oracle {want:.6g} is "
            f"{abs(got - want) / sigma:.2f} sigma (bound {SIGMA_BOUND:g})"
        )


# ---------------------------------------------------------------------------
# theta_calibration


@dataclass
class ThetaOutput:
    points: list
    fit_singles: calibrate.FitResult
    fit_coincidences: calibrate.FitResult
    eta: float
    budget: uncertainty.Budget
    u_monte_carlo: float


class ThetaCalibration:
    """The paper's headline pipeline: scan, fits, estimator, budget, Monte Carlo."""

    name = "theta_calibration"
    angles_deg = tuple(float(a) for a in range(0, 181, 10))
    point_s = 5.0

    def setup(self, workdir: Path) -> None:
        self.cfg = scenario.load_config(CALIBRATION_CFG)

    def iterate(self, seed: int) -> ThetaOutput:
        points = simulate.scan_theta(self.cfg, self.angles_deg, self.point_s, seed)
        fit_s = calibrate.fit_theta_curve([(p.theta_deg, p.singles) for p in points])
        fit_c = calibrate.fit_theta_curve([(p.theta_deg, p.coincidences) for p in points])
        by_angle = {p.theta_deg: p for p in points}
        h, v = by_angle[0.0], by_angle[90.0]
        t = self.point_s
        inputs = [
            uncertainty.UncertainInput(name, n / t, math.sqrt(n) / t)
            for name, n in (
                ("n_h", h.singles),
                ("n_v", v.singles),
                ("nc_h", h.coincidences),
                ("nc_v", v.coincidences),
            )
        ]
        eta = calibrate.eta_conditional(calibrate.CountSummary(*(i.value for i in inputs)))
        budget = uncertainty.budget_conditional(inputs)
        u_mc = uncertainty.monte_carlo_uncertainty("conditional", inputs, seed=seed)
        return ThetaOutput(points, fit_s, fit_c, eta.value, budget, u_mc)

    def check(self, out: ThetaOutput) -> list[str]:
        failures: list[str] = []
        cfg = self.cfg
        _outside(
            failures,
            "singles modulation",
            out.fit_singles.modulation,
            bench.predict_singles_visibility(cfg),
            out.fit_singles.u_modulation,
        )
        _outside(
            failures,
            "coincidence modulation",
            out.fit_coincidences.modulation,
            bench.predict_coincidence_visibility(cfg),
            out.fit_coincidences.u_modulation,
        )
        _outside(
            failures,
            "eta_conditional",
            out.eta,
            cfg.det1.eta * cfg.trigger_projector.transmittance,
            out.budget.combined_u,
        )
        if not (math.isfinite(out.u_monte_carlo) and out.u_monte_carlo > 0):
            failures.append(f"monte_carlo_uncertainty returned {out.u_monte_carlo!r}")
        return failures


# ---------------------------------------------------------------------------
# klyshko_highrate


def live_counts(rate_hz: float, dead_ns: float, duration_s: float) -> tuple[float, float]:
    """Mean and standard deviation of a non-paralyzable detector's counts.

    N = r T / (1 + r tau); the counts of this renewal process have variance
    r T / (1 + r tau)^3.
    """
    x = 1.0 + rate_hz * dead_ns * 1e-9
    return rate_hz * duration_s / x, math.sqrt(rate_hz * duration_s / x**3)


@dataclass
class KlyshkoOutput:
    result: simulate.SimResult
    eta: float


class KlyshkoHighRate:
    """run_klyshko_experiment at 1e6 pairs/s with dead time, darks and background."""

    name = "klyshko_highrate"
    duration_s = 1.0

    def setup(self, workdir: Path) -> None:
        self.cfg = scenario.load_config(SCENARIOS / "klyshko_highrate.cfg")

    def iterate(self, seed: int) -> KlyshkoOutput:
        cfg = self.cfg
        res = simulate.run_klyshko_experiment(cfg, self.duration_s, seed)
        t = res.duration_s
        counts = calibrate.KlyshkoCounts(
            n_signal=res.singles_trigger / t,
            n_idler=res.singles_analyzer / t,
            n_coincidence=res.coincidences / t,
            tau_ns=cfg.det1.dead_time_ns,
            t_ns=cfg.tac.stop_delay_ns,
        )
        return KlyshkoOutput(res, calibrate.eta_klyshko(counts).value)

    def arm_rates(self) -> tuple[float, float]:
        """Detection-candidate rates before dead time on the two arms."""
        cfg = self.cfg
        r1 = cfg.pair_rate_hz * cfg.det1.eta + cfg.det1.dark_rate_hz
        r2 = (
            cfg.pair_rate_hz * cfg.idler_path_loss * cfg.det2.eta
            + cfg.det2.dark_rate_hz
            + cfg.background_rate_hz
        )
        return r1, r2

    def findings(self, out: KlyshkoOutput) -> dict[str, float]:
        """(eta_klyshko - eta1) in binomial standard deviations: reported, not bounded.

        At this rate the estimator's first-order corrections read high, so
        the figure is a finding, not a check.
        """
        eta1 = self.cfg.det1.eta
        sigma = math.sqrt(eta1 * (1.0 - eta1) / out.result.singles_analyzer)
        return {"eta_klyshko_bias_sigma": (out.eta - eta1) / sigma}

    def check(self, out: KlyshkoOutput) -> list[str]:
        failures: list[str] = []
        res, cfg = out.result, self.cfg
        r1, r2 = self.arm_rates()
        for arm, got, rate, dead in (
            ("trigger singles", res.singles_trigger, r1, cfg.det1.dead_time_ns),
            ("analyzer singles", res.singles_analyzer, r2, cfg.det2.dead_time_ns),
        ):
            mean, sd = live_counts(rate, dead, res.duration_s)
            _outside(failures, arm, float(got), mean, sd)
        if not math.isfinite(out.eta):
            failures.append(f"eta_klyshko returned {out.eta!r}")
        return failures


# ---------------------------------------------------------------------------
# event_dump


@dataclass
class EventDumpOutput:
    result: simulate.SimResult
    csv_path: Path


class EventDump:
    """A default-config run that keeps its event records and writes them as CSV."""

    name = "event_dump"
    duration_s = 4.0

    def setup(self, workdir: Path) -> None:
        self.cfg = scenario.load_config(SCENARIOS / "default.cfg")
        if self.cfg != bench.BenchConfig():
            raise RuntimeError("scenarios/default.cfg no longer matches BenchConfig()")
        self.csv_path = workdir / "events.csv"

    def iterate(self, seed: int) -> EventDumpOutput:
        res = simulate.run_conditional_experiment(
            self.cfg, self.duration_s, seed, keep_records=True
        )
        simulate.write_event_csv(res.records, self.csv_path)
        return EventDumpOutput(res, self.csv_path)

    def check(self, out: EventDumpOutput) -> list[str]:
        failures: list[str] = []
        res = out.result
        records = res.records or ()
        for channel, singles in (
            ("trigger", res.singles_trigger),
            ("analyzer", res.singles_analyzer),
        ):
            times = [r.time_ns for r in records if r.channel == channel]
            if len(times) != singles:
                failures.append(f"{channel}: {len(times)} records, {singles} singles")
            if any(b < a for a, b in zip(times, times[1:])):
                failures.append(f"{channel}: record times decrease")
        with open(out.csv_path, encoding="utf-8") as fh:
            header = fh.readline()
            lines = 1 + sum(1 for _ in fh)
        if header != "channel,time_ns,origin\n":
            failures.append(f"event CSV header {header!r}")
        if lines != len(records) + 1:
            failures.append(f"event CSV has {lines} lines for {len(records)} records")
        return failures


# ---------------------------------------------------------------------------
# delay_scan_short


@dataclass
class DelayScanOutput:
    exit_code: int
    csv_path: Path


class DelayScanShort:
    """`biphoton scan --scan delay` in-process: many tiny runs, set-up bound."""

    name = "delay_scan_short"
    delays_ns = tuple(float(d) for d in range(0, 3701, 100))
    point_s = 0.02

    def setup(self, workdir: Path) -> None:
        self.csv_path = workdir / "delay_scan.csv"
        self.values = ",".join(repr(d) for d in self.delays_ns)

    def iterate(self, seed: int) -> DelayScanOutput:
        code = cli.main(
            [
                "scan",
                "--config", str(CALIBRATION_CFG),
                "--scan", "delay",
                "--values", self.values,
                "--duration", repr(self.point_s),
                "--seed", str(seed),
                "--out", str(self.csv_path),
            ]
        )
        return DelayScanOutput(code, self.csv_path)

    def check(self, out: DelayScanOutput) -> list[str]:
        if out.exit_code != 0:
            return [f"biphoton scan exited with {out.exit_code}"]
        lines = out.csv_path.read_text(encoding="utf-8").splitlines()
        if lines[:1] != ["delay_ns,singles_h,singles_v,coinc_h,coinc_v"]:
            return [f"delay CSV header {lines[:1]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(self.delays_ns) or any(len(r) != 5 for r in rows):
            return [f"delay CSV has {len(rows)} rows, want {len(self.delays_ns)} of 5 columns"]
        failures = []
        for row, delay in zip(rows, self.delays_ns):
            if float(row[0]) != delay:
                failures.append(f"row delay {row[0]} != {delay!r}")
            singles_h, singles_v, coinc_h, coinc_v = (int(x) for x in row[1:])
            if coinc_h > singles_h or coinc_v > singles_v:
                failures.append(f"delay {delay!r}: coincidences exceed singles in {row}")
        return failures


WORKLOADS = {
    w.name: w
    for w in (ThetaCalibration, KlyshkoHighRate, EventDump, DelayScanShort)
}
