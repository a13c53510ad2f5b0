"""The machine's speed, measured with a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, for the same code.  So the harness runs the
reference kernel between iterations and scales every timing to the
reference speed, at which the kernel takes ``REFERENCE_S`` seconds:

    scaled = wall * REFERENCE_S / kernel time measured around the wall time

A change to biphoton moves the scaled times as it moves the wall times; a
change of the machine's speed moves the kernel time with them and cancels.
The kernel is the benchmark's own code and never calls biphoton.  Its mix
follows the workloads'; see ``kernel``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

# The kernel's time at the reference speed: a round figure near its median
# on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4).  Scaled times are in
# seconds at that speed.
REFERENCE_S = 0.005

_rng = np.random.default_rng(20040909)
_ARRAY = _rng.random(80_000)
_VALUES = _rng.random(8_000).tolist()
_MATRIX = _rng.random((4, 4))


@dataclass(frozen=True)
class _Settings:
    rate_hz: float = 2e4
    delay_ns: float = 0.0
    label: str = "point"


def kernel() -> float:
    """Fixed work of about ``REFERENCE_S`` seconds; returns a checksum.

    Four parts: numpy and object sorting, an interpreted float loop, small
    numpy calls, and dataclass and dict churn.  The workloads' speed on a
    busy host tracks a mix of these better than any one of them.
    """
    a = np.sort(_ARRAY)
    b = sorted(_VALUES)
    acc = float(a[0] + b[0])
    for i in range(8_000):
        acc += (i * 0.5) % 3.0
    for i in range(150):
        acc += float(np.trace(_MATRIX @ _MATRIX.T + np.eye(4) * i))
    settings, rows = _Settings(), []
    for i in range(500):
        settings = replace(settings, delay_ns=float(i))
        rows.append({"delay_ns": settings.delay_ns, "label": f"{settings.label}{i}"})
    return acc + len(rows)


def probe(repeats: int = 1) -> float:
    """Mean wall time of ``repeats`` runs of the kernel."""
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - start) / repeats


def scaled(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` at the reference speed, given the kernel time around it."""
    return wall_s * REFERENCE_S / kernel_s
