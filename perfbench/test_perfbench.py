"""Self-tests of the benchmark: its checks catch wrong counts, and it prints
every metric that BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from biphoton import simulate  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert names == list(run.WORKLOADS)


def test_pins_cover_every_workload():
    pins = harness.load_pins()
    assert pins["seed"] == harness.DEFAULT_SEED
    assert set(pins["digests"]) == set(workloads.WORKLOADS)


def _perturbed_pins(name):
    pins = copy.deepcopy(harness.load_pins())
    pins["digests"][name][0][0][2] += 1
    return pins


def test_perturbed_pin_is_a_failed_operation(tmp_path):
    name = "klyshko_highrate"
    clean = harness.run_untraced(name, 0, 0.01, tmp_path, [0.1], harness.load_pins())
    assert clean.correct and clean.failed == 0
    bad = harness.run_untraced(name, 0, 0.01, tmp_path, [0.1], _perturbed_pins(name))
    # the warm-up and timed iteration 0 of seed 0 both meet the perturbed pin
    assert bad.failed == 2 and not bad.correct
    assert "differ from pin" in bad.iterations[0].failures[0]


@pytest.mark.parametrize("change, caught_by", [(1, "pin"), (5000, "oracle")])
def test_perturbed_count_is_a_failed_operation(tmp_path, monkeypatch, change, caught_by):
    real = simulate.run_klyshko_experiment

    def off_by(cfg, duration_s, seed, keep_records=False):
        res = real(cfg, duration_s, seed, keep_records)
        return dataclasses.replace(res, singles_trigger=res.singles_trigger + change)

    monkeypatch.setattr(simulate, "run_klyshko_experiment", off_by)
    seed = 0 if caught_by == "pin" else 11
    pins = harness.load_pins()
    result = harness.run_untraced("klyshko_highrate", seed, 0.01, tmp_path, [0.1], pins)
    assert result.failed == len(result.iterations) == 2
    message = result.iterations[-1].failures[0]
    assert ("differ from pin" in message) == (caught_by == "pin")


def test_delay_scan_check_catches_excess_coincidences(tmp_path):
    w = workloads.DelayScanShort()
    path = tmp_path / "scan.csv"

    def check(rows):
        header = "delay_ns,singles_h,singles_v,coinc_h,coinc_v"
        path.write_text("\n".join([header] + rows) + "\n")
        return w.check(workloads.DelayScanOutput(0, path))

    good = [f"{d!r},100,200,10,20" for d in w.delays_ns]
    assert check(good) == []
    bad = list(good)
    bad[3] = f"{w.delays_ns[3]!r},100,200,101,20"
    assert check(bad)
    assert check(good[:-1])


def test_event_dump_check_catches_a_lost_line(tmp_path):
    w = workloads.EventDump()
    w.setup(tmp_path)
    res = simulate.run_conditional_experiment(w.cfg, 0.05, 3, keep_records=True)
    simulate.write_event_csv(res.records, w.csv_path)
    assert w.check(workloads.EventDumpOutput(res, w.csv_path)) == []
    lines = w.csv_path.read_text().splitlines(keepends=True)
    w.csv_path.write_text("".join(lines[:-1]))
    assert w.check(workloads.EventDumpOutput(res, w.csv_path))


def _printed_metrics(metrics):
    parsed = json.loads(run.result_line(True, 1, 0, metrics))
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    text = "\n".join(run.summary_lines(metrics))
    for name, (_, unit) in metrics.items():
        assert f"{name} " in text and text.count(f" {unit}") >= 1
    return {k: m["unit"] for k, m in parsed["metrics"].items()}


def test_printer_emits_every_end_to_end_metric():
    its = [harness.Iteration(i, 0.1 + 0.001 * i, (), 1e5, []) for i in range(30)]
    metrics, details = harness.end_to_end(its, [0.3, 0.2, 0.4])
    assert _printed_metrics(metrics) == _units("end_to_end")
    assert details["tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert metrics["iter_s.tail"][0] == its[19].wall_s


def test_times_are_scaled_by_the_reference_kernel():
    slow = harness.Iteration(0, 0.4, (), 1e5, [], kernel_s=2 * speed.REFERENCE_S)
    assert slow.scaled_s == pytest.approx(0.2)
    assert harness.Iteration(1, 0.4, (), 1e5, []).scaled_s == pytest.approx(0.4)
    metrics, details = harness.end_to_end([slow] * 3, [0.3])
    assert metrics["iter_s.p50"][0] == pytest.approx(0.2)
    assert metrics["pairs_per_s"][0] == pytest.approx(5e5)
    assert details["wall_s.p50"] == pytest.approx(0.4)
    assert speed.probe(2) > 0


def test_traced_run_reports_every_layer_and_restores(tmp_path):
    before = {(p.module, p.attr): getattr(sys.modules[p.module], p.attr) for p in spans.PROBES}
    before_tap = [getattr(simulate, n) for n in harness.RunTap.NAMES]
    result = harness.run_traced("klyshko_highrate", 5, 0.01, tmp_path, harness.load_pins())
    assert result.correct and result.failed == 0 and not result.problems
    assert result.details["absent"] == []
    assert _printed_metrics(result.metrics) == _units("per_layer")
    after = {(p.module, p.attr): getattr(sys.modules[p.module], p.attr) for p in spans.PROBES}
    assert all(after[k] is v for k, v in before.items())
    assert [getattr(simulate, n) for n in harness.RunTap.NAMES] == before_tap
    assert result.metrics["simulate.run.calls"][0] == 1
    assert result.metrics["simulate.dead_time.events"][0] > 0


def test_a_removed_stage_is_absent_not_an_error():
    probes = spans.PROBES + (spans.Probe("simulate.gone", "biphoton.simulate", "_no_such_stage"),)
    tracer = spans.Tracer(probes)
    tracer.install()
    assert tracer.restore()
    assert tracer.absent == ["biphoton.simulate._no_such_stage"]
