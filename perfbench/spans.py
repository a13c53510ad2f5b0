"""Outside-in tracing: spans around biphoton's entry points, from the benchmark's side.

The tracer replaces module attributes with timing wrappers, at the name
through which the caller looks them up (``biphoton.simulate._trigger_pass``
for the conditional run, ``biphoton.cli.scan_delay`` for the CLI, ...).
Nothing inside biphoton changes.  Spans are kept in memory, one list each:
``[name, start, end, parent, iteration, counts]``; a span's self time is its
duration minus that of its direct children.

Several engine stages have no public function and are wrapped by their
private names.  A name that a refactor has removed is reported as absent,
and its metrics read 0.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _count_trigger_pass(args: dict, result, gate) -> dict:
    accepted = result[0]
    counts = {"trigger_events": len(args["times"]), "trigger_accepted": int(accepted.sum())}
    if gate is not None:
        # Replay the accepted times through an unused copy of the driver gate,
        # outside the span, instead of wrapping its per-event method.
        fired = sum(1 for t in args["times"][accepted].tolist() if gate.on_detection(t))
        counts.update(gate_calls=counts["trigger_accepted"], gate_fired=fired)
    return counts


def _copy_gate(args: dict):
    return copy.deepcopy(args["gate"])


def _count_dead_time(args: dict, result, _) -> dict:
    return {"dead_time_events": len(args["times"]), "dead_time_kept": int(result.sum())}


def _count_tac(args: dict, result, _) -> dict:
    return {
        "tac_starts": len(args["starts"]),
        "tac_stops": len(args["stops"]),
        "tac_matches": int(result),
    }


def _count_records(args: dict, result, _) -> dict:
    return {"records": len(result)}


def _count_event_csv(args: dict, result, _) -> dict:
    return {"csv_bytes": os.path.getsize(args["path"])}


def _count_mc(args: dict, result, _) -> dict:
    return {"mc_trials": args["trials"]}


@dataclass(frozen=True)
class Probe:
    """One wrapped attribute: the span it records and the counts it reads.

    ``params`` names the arguments ``count`` and ``before`` read; a callee
    without them is reported absent rather than wrapped.
    """

    span: str
    module: str
    attr: str
    count: Callable | None = None
    params: tuple[str, ...] = ()
    before: Callable | None = None


PROBES = (
    Probe("simulate.run", "biphoton.simulate", "run_conditional_experiment"),
    Probe("simulate.run", "biphoton.simulate", "run_klyshko_experiment"),
    Probe("simulate.scan", "biphoton.simulate", "scan_theta"),
    Probe("simulate.scan", "biphoton.cli", "scan_delay"),
    Probe(
        "simulate.trigger_pass", "biphoton.simulate", "_trigger_pass",
        _count_trigger_pass, ("times", "gate"), _copy_gate,
    ),
    Probe(
        "simulate.dead_time", "biphoton.simulate", "_dead_time_filter",
        _count_dead_time, ("times",),
    ),
    Probe("simulate.tac", "biphoton.simulate", "tac_coincidences", _count_tac, ("starts", "stops")),
    Probe("simulate.streams", "biphoton.simulate", "_poisson_stream"),
    Probe("simulate.streams", "biphoton.simulate", "_merge_streams"),
    Probe("simulate.records", "biphoton.simulate", "_records_for", _count_records),
    Probe(
        "simulate.event_csv", "biphoton.simulate", "write_event_csv",
        _count_event_csv, ("path",),
    ),
    Probe("simulate.group_states", "biphoton.simulate", "_idler_group_states"),
    Probe("polarization", "biphoton.simulate", "make_state"),
    Probe("polarization", "biphoton.simulate", "conditional_state"),
    Probe("polarization", "biphoton.simulate", "apply_channel"),
    Probe("polarization", "biphoton.simulate", "rotator"),
    Probe("polarization", "biphoton.simulate", "depolarizer"),
    Probe("bench.config", "biphoton.simulate", "replace"),
    Probe("calibrate", "biphoton.calibrate", "fit_theta_curve"),
    Probe("calibrate", "biphoton.calibrate", "eta_conditional"),
    Probe("calibrate", "biphoton.calibrate", "eta_klyshko"),
    Probe("calibrate", "biphoton.uncertainty", "eta_conditional"),
    Probe("uncertainty.budget", "biphoton.uncertainty", "budget_conditional"),
    Probe(
        "uncertainty.mc", "biphoton.uncertainty", "monte_carlo_uncertainty",
        _count_mc, ("trials",),
    ),
    Probe("scenario.load", "biphoton.scenario", "load_config"),
    Probe("scenario.load", "biphoton.cli", "load_config"),
    Probe("cli", "biphoton.cli", "main"),
)


# Per-layer metrics: (metric, unit, kind, span or count keys).  "s" is the
# median over traced iterations of the span time summed within one iteration,
# "self_s" the same for self time, "calls" and "count" are means per
# iteration, and "ratio" pools the counts of every traced iteration.
LAYER_METRICS = (
    ("simulate.trigger_pass.s", "s", "s", "simulate.trigger_pass"),
    ("simulate.trigger_pass.events", "count", "count", "trigger_events"),
    ("simulate.trigger_pass.accepted_ratio", "ratio", "ratio",
     ("trigger_accepted", "trigger_events")),
    ("simulate.gate.calls", "count", "count", "gate_calls"),
    ("simulate.gate.fired_ratio", "ratio", "ratio", ("gate_fired", "gate_calls")),
    ("simulate.dead_time.s", "s", "s", "simulate.dead_time"),
    ("simulate.dead_time.events", "count", "count", "dead_time_events"),
    ("simulate.dead_time.kept_ratio", "ratio", "ratio", ("dead_time_kept", "dead_time_events")),
    ("simulate.tac.s", "s", "s", "simulate.tac"),
    ("simulate.tac.starts", "count", "count", "tac_starts"),
    ("simulate.tac.stops", "count", "count", "tac_stops"),
    ("simulate.tac.match_ratio", "ratio", "ratio", ("tac_matches", "tac_starts")),
    ("simulate.streams.s", "s", "s", "simulate.streams"),
    ("simulate.run.calls", "count", "calls", "simulate.run"),
    ("simulate.run.self_s", "s", "self_s", "simulate.run"),
    ("simulate.records.s", "s", "s", "simulate.records"),
    ("simulate.records.count", "count", "count", "records"),
    ("simulate.event_csv.s", "s", "s", "simulate.event_csv"),
    ("simulate.event_csv.bytes", "bytes", "count", "csv_bytes"),
    ("simulate.group_states.s", "s", "s", "simulate.group_states"),
    ("simulate.group_states.calls", "count", "calls", "simulate.group_states"),
    ("polarization.s", "s", "s", "polarization"),
    ("polarization.calls", "count", "calls", "polarization"),
    ("bench.config.s", "s", "s", "bench.config"),
    ("bench.config.count", "count", "calls", "bench.config"),
    ("calibrate.s", "s", "s", "calibrate"),
    ("calibrate.calls", "count", "calls", "calibrate"),
    ("uncertainty.budget.s", "s", "s", "uncertainty.budget"),
    ("uncertainty.mc.s", "s", "s", "uncertainty.mc"),
    ("uncertainty.mc.trials", "count", "count", "mc_trials"),
    ("cli.self_s", "s", "self_s", "cli"),
)


def _accepts(func, params: tuple[str, ...]) -> bool:
    return set(params) <= set(inspect.signature(func).parameters)


class Tracer:
    """Installs the probes, records spans, and puts every attribute back."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[list] = []
        self.iteration = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for probe in self.probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr, None)
            if original is None or not _accepts(original, probe.params):
                self.absent.append(f"{probe.module}.{probe.attr}")
                continue
            setattr(module, probe.attr, self._wrap(probe, original))
            self._patched.append((module, probe.attr, original))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        patched, self._patched = self._patched, []
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
        return all(getattr(module, attr) is original for module, attr, original in patched)

    def _wrap(self, probe: Probe, original):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(original) if probe.count else None

        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            before = probe.before(bound.arguments) if probe.before else None
            span = [probe.span, 0.0, 0.0, stack[-1] if stack else -1, self.iteration, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe.count:
                span[5] = probe.count(bound.arguments, result, before)
            return result

        return traced


def layer_metrics(spans: list[list], iterations: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of the given traced iterations."""
    busy: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(iterations))
    own: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(iterations))
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    slot = {it: k for k, it in enumerate(iterations)}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, it, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, parent, it, span_counts) in enumerate(spans):
        if it not in slot:
            continue
        busy[name][slot[it]] += end - start
        own[name][slot[it]] += end - start - child_time[k]
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[key] += value

    n = len(iterations)
    out: dict[str, tuple[float, str]] = {}
    for metric, unit, kind, key in LAYER_METRICS:
        if kind == "s":
            value = statistics.median(busy[key]) if key in busy else 0.0
        elif kind == "self_s":
            value = statistics.median(own[key]) if key in own else 0.0
        elif kind == "calls":
            value = calls[key] / n
        elif kind == "count":
            value = counts[key] / n
        else:
            num, den = key
            value = counts[num] / counts[den] if counts[den] else 0.0
        out[metric] = (float(value), unit)
    loads = [end - start for name, start, end, *_ in spans if name == "scenario.load"]
    out["scenario.load.s"] = (statistics.median(loads) if loads else 0.0, "s")
    return out
