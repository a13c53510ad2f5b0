#!/usr/bin/env python3
"""Benchmark of biphoton: four workloads, end-to-end metrics and a per-layer trace.

Run from the root of a biphoton source tree (it imports ``src/biphoton``):

    python3 perfbench/run.py --workload theta_calibration --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that reports the per-layer metrics of ``spans.py``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in its own
process, one after another.  Results, spans and provenance also go to
``perfbench/out/``.  README.md describes the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread in the benchmark's own processes; set before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("theta_calibration", "klyshko_highrate", "event_dump", "delay_scan_short")
# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_PROBES = 5
# Runs of the reference kernel on either side of each set-up probe.
SETUP_KERNEL_RUNS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print 'ready' and exit (times set-up in a fresh process)",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final JSON line; ``metrics`` maps a name to ``(value, unit)``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def summary_lines(metrics: dict) -> list[str]:
    width = max(len(k) for k in metrics)
    return [f"  {k:<{width}}  {v:.6g} {u}" for k, (v, u) in metrics.items()]


def write_spans(path: Path, spans: list[list]) -> None:
    """Spans as gzipped JSON rows, times in integer ns from the first span's start."""
    t0 = min((s[1] for s in spans), default=0.0)
    rows = [[n, round((a - t0) * 1e9), round((b - t0) * 1e9), *rest] for n, a, b, *rest in spans]
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(rows, fh)


def probe_setup(args) -> list[float]:
    """Time set-up in fresh processes, from spawn until the first iteration could start.

    Each time is scaled to the reference speed with the kernel runs made
    just before the spawn and just after the process ends.
    """
    import speed

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.probe(SETUP_KERNEL_RUNS)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}, said {line!r}")
        after = speed.probe(SETUP_KERNEL_RUNS)
        samples.append(speed.scaled(elapsed, 0.5 * (before + after)))
    return samples


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["correct"]
        for k, m in result["metrics"].items():
            metrics[f"{name}.{k}"] = (m["value"], m["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            tap = harness.RunTap()
            tap.install()
            harness.set_up(args.workload, workdir, tap, None)
            tap.restore()
            print("ready", flush=True)
            return 0
        pins = harness.load_pins()
        if args.trace:
            run = harness.run_traced(args.workload, args.seed, args.seconds, workdir, pins)
        else:
            setup_samples = probe_setup(args)
            run = harness.run_untraced(
                args.workload, args.seed, args.seconds, workdir, setup_samples, pins
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": run.metrics,
        "details": run.details,
        "problems": run.problems,
        "failures": [f for it in run.iterations for f in it.failures][:20],
        "iteration_wall_s": [it.wall_s for it in run.iterations],
        "iteration_kernel_s": [it.kernel_s for it in run.iterations],
        "provenance": prov,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        write_spans(OUT / "results" / f"{stem}-spans.json.gz", run.spans)

    for message in record["failures"] + run.problems:
        print(f"failure: {message}", file=sys.stderr)
    print(
        f"biphoton benchmark: {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}"
    )
    print("\n".join(summary_lines(run.metrics)))
    print(f"  ops.attempted  {run.attempted}\n  ops.failed     {run.failed}")
    print("details: " + json.dumps(run.details))
    print("provenance: " + json.dumps(prov))
    print(result_line(run.correct, run.attempted, run.failed, run.metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
