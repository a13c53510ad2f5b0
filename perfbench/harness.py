"""One workload in one process: set-up, timed iterations, output checks, metrics.

Every iteration's seed derives from the workload seed alone.  The counts of
every engine run in an iteration, ``(singles_trigger, singles_analyzer,
coincidences)``, form its digest; for the default seed the first iterations'
digests are pinned in ``pins.json`` and compared bit for bit.  The warm-up
iteration is always default-seed iteration 0, so every run checks a pin.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from biphoton import simulate

import spans
import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
DEFAULT_SEED = 0


def iteration_seed(seed: int, index: int) -> int:
    """Seed of iteration ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


class RunTap:
    """Collects the counts and simulated pairs of every engine run.

    It wraps the two experiment functions in ``biphoton.simulate``, the name
    that the scans and the CLI look up, for as long as it is installed.
    """

    NAMES = ("run_conditional_experiment", "run_klyshko_experiment")

    def __init__(self):
        self.digest: list[tuple[int, int, int]] = []
        self.pairs = 0.0
        self._originals: dict[str, object] = {}

    def install(self) -> None:
        for name in self.NAMES:
            original = getattr(simulate, name)
            self._originals[name] = original
            setattr(simulate, name, self._wrap(original))

    def _wrap(self, original):
        def tapped(*args, **kwargs):
            res = original(*args, **kwargs)
            self.digest.append((res.singles_trigger, res.singles_analyzer, res.coincidences))
            self.pairs += res.config.pair_rate_hz * res.duration_s
            return res

        return tapped

    def take(self) -> tuple[tuple[tuple[int, int, int], ...], float]:
        out = tuple(self.digest), self.pairs
        self.digest, self.pairs = [], 0.0
        return out

    def restore(self) -> bool:
        """Put the originals back; True when each attribute is the original again."""
        for name, original in self._originals.items():
            setattr(simulate, name, original)
        return all(getattr(simulate, n) is o for n, o in self._originals.items())


@dataclass
class Iteration:
    index: int
    wall_s: float
    digest: tuple
    pairs: float
    failures: list[str]
    findings: dict[str, float] = field(default_factory=dict)
    # the reference kernel's time around this iteration (see speed.py)
    kernel_s: float = speed.REFERENCE_S

    @property
    def scaled_s(self) -> float:
        """The wall time at the reference speed."""
        return speed.scaled(self.wall_s, self.kernel_s)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pin_failures(pins: dict | None, name: str, seed: int, index: int, digest) -> list[str]:
    """Messages for a digest that differs from its pin; none when nothing is pinned."""
    if pins is None or seed != pins["seed"]:
        return []
    pinned = pins["digests"].get(name)
    if pinned is None:
        return [f"no pinned digests for workload {name}"]
    if index >= len(pinned):
        return []
    got = [list(d) for d in digest]
    if got == pinned[index]:
        return []
    runs = max(len(got), len(pinned[index]))
    first = next(k for k in range(runs) if got[k:k + 1] != pinned[index][k:k + 1])
    return [
        f"iteration {index} run {first}: counts {got[first:first + 1]} "
        f"differ from pin {pinned[index][first:first + 1]} "
        f"({len(got)} runs, pin has {len(pinned[index])})"
    ]


def run_iteration(workload, seed: int, index: int, tap: RunTap, pins: dict | None) -> Iteration:
    """Time one iteration, then check its output; an exception is a failed operation."""
    tap.take()
    start = time.perf_counter()
    try:
        output = workload.iterate(iteration_seed(seed, index))
    except Exception:
        wall = time.perf_counter() - start
        tap.take()
        return Iteration(index, wall, (), 0.0, [traceback.format_exc(limit=4)])
    wall = time.perf_counter() - start
    digest, pairs = tap.take()
    findings = {}
    try:
        failures = workload.check(output)
        if hasattr(workload, "findings"):
            findings = workload.findings(output)
    except Exception:
        failures = [traceback.format_exc(limit=4)]
    failures += pin_failures(pins, workload.name, seed, index, digest)
    return Iteration(index, wall, digest, pairs, failures, findings)


def timed_loop(workload, seed, seconds, tap, pins, tracer=None) -> list[Iteration]:
    """Iterations 0, 1, ... until ``seconds`` of wall time have passed.

    The reference kernel runs before the first iteration and after each one;
    an iteration's kernel time is the mean of the two runs beside it.
    """
    done: list[Iteration] = []
    before = speed.probe()
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.iteration = len(done)
        it = run_iteration(workload, seed, len(done), tap, pins)
        after = speed.probe()
        it.kernel_s = 0.5 * (before + after)
        before = after
        done.append(it)
    return done


def set_up(name: str, workdir: Path, tap: RunTap, pins: dict | None):
    """Load the scenario, build the configs and run the warm-up iteration."""
    workload = WORKLOADS[name]()
    workload.setup(workdir)
    warm_up = run_iteration(workload, DEFAULT_SEED, 0, tap, pins)
    return workload, warm_up


def end_to_end(iterations: list[Iteration], setup_samples: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed iterations, and the figures behind them.

    Times are at the reference speed (``speed.py``); ``setup_samples`` are
    scaled already.  The details keep the raw wall times' median.
    """
    walls = sorted(it.scaled_s for it in iterations)
    n = len(walls)
    # the highest percentile with at least ten iterations beyond it
    tail_rank = max(n - 11, 0)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "iter_s.p50": (statistics.median(walls), "s"),
        "iter_s.tail": (walls[tail_rank], "s"),
        "pairs_per_s": (statistics.median(it.pairs / it.scaled_s for it in iterations), "pairs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    details = {
        "iterations": n,
        "tail_percentile": 100.0 * (n - 10) / n if n > 10 else 100.0,
        "setup_samples_s": setup_samples,
        "wall_s.p50": statistics.median(it.wall_s for it in iterations),
        "kernel_s.p50": statistics.median(it.kernel_s for it in iterations),
    }
    return metrics, details


def _findings(iterations: list[Iteration]) -> dict[str, float]:
    keys = sorted({k for it in iterations for k in it.findings})
    return {
        f"{k}.median": statistics.median(it.findings[k] for it in iterations if k in it.findings)
        for k in keys
    }


@dataclass
class RunResult:
    iterations: list[Iteration]
    metrics: dict[str, tuple[float, str]]
    details: dict
    problems: list[str]
    spans: list[list] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.iterations if it.failures)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_untraced(name, seed, seconds, workdir, setup_samples, pins) -> RunResult:
    tap, problems = RunTap(), []
    tap.install()
    try:
        workload, warm_up = set_up(name, workdir, tap, pins)
        timed = timed_loop(workload, seed, seconds, tap, pins)
    finally:
        if not tap.restore():
            problems.append("the run tap did not restore biphoton.simulate")
    metrics, details = end_to_end(timed, setup_samples)
    details.update(_findings(timed))
    return RunResult([warm_up] + timed, metrics, details, problems)


def run_traced(name, seed, seconds, workdir, pins) -> RunResult:
    """Half the time untraced, half traced, over the same iteration seeds."""
    tap, tracer, problems = RunTap(), spans.Tracer(), []
    tap.install()
    try:
        tracer.install()
        try:
            workload, warm_up = set_up(name, workdir, tap, pins)
        finally:
            restored = tracer.restore()
        untraced = timed_loop(workload, seed, seconds / 2.0, tap, pins)
        tracer.install()
        try:
            traced = timed_loop(workload, seed, seconds / 2.0, tap, pins, tracer)
        finally:
            restored &= tracer.restore()
    finally:
        if not tap.restore():
            problems.append("the run tap did not restore biphoton.simulate")
    if not restored:
        problems.append("a traced attribute was not restored")
    for plain, seen in zip(untraced, traced):
        if plain.digest != seen.digest:
            seen.failures.append(f"iteration {seen.index}: traced counts differ from untraced")

    metrics = spans.layer_metrics(tracer.spans, [it.index for it in traced])
    plain_p50 = statistics.median(it.scaled_s for it in untraced)
    traced_p50 = statistics.median(it.scaled_s for it in traced)
    metrics["trace.overhead_s"] = (traced_p50 - plain_p50, "s")
    details = {
        "untraced_iterations": len(untraced),
        "traced_iterations": len(traced),
        "untraced_iter_s.p50": plain_p50,
        "traced_iter_s.p50": traced_p50,
        "absent": tracer.absent,
        **_findings(untraced + traced),
    }
    return RunResult([warm_up] + untraced + traced, metrics, details, problems, tracer.spans)
