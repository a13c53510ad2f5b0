"""Shared test helpers: independent oracles and tolerance utilities.

The oracles here deliberately avoid the package's own algebra paths: the
branch enumeration builds its states with raw numpy kron/reshape calls and
applies the depolarizer as a direct convex mixture, so closure tests compare
two genuinely different computations.  The engine's vectorized dead-time,
driver-gate and TAC passes and its column event-CSV writer are checked
against the plain event loops below.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import settings

# Property tests run a fixed sequence of examples and keep no example
# database, so the suite is deterministic and needs nothing outside the tree.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def sigfigs_ok(value: float, reference: float, n: int) -> bool:
    """True when ``value`` matches ``reference`` to n significant figures.

    Implemented as half a unit in the n-th significant digit of the
    reference, which is how a table rounded to n figures constrains the
    underlying number.
    """
    if reference == 0:
        return abs(value) < 10.0 ** (-n)
    scale = math.floor(math.log10(abs(reference)))
    return abs(value - reference) <= 0.5 * 10.0 ** (scale - n + 1)


def _ket(angle_deg: float) -> np.ndarray:
    t = math.radians(angle_deg)
    return np.array([math.cos(t), math.sin(t)], dtype=complex)


def _trace_out_first(m: np.ndarray) -> np.ndarray:
    r = m.reshape(2, 2, 2, 2)
    return r[0, :, 0, :] + r[1, :, 1, :]


def enumerate_conditional_rates(
    eta1: float,
    eta2: float,
    q: float,
    model: str = "uniform_depolarizer",
    *,
    visibility: float = 1.0,
    eps_trigger: float = 1.0,
    eps_analyzer: float = 1.0,
    path_loss: float = 1.0,
    trigger_deg: float = 90.0,
    source: str = "mixed_hv",
) -> dict[str, float]:
    """Exact per-pair expected rates by brute-force branch enumeration.

    Returns expected analyzer singles and coincidence counts per emitted
    pair at analyzer angles 0 and 90 degrees, summing over the discrete
    outcome tree (trigger-photon projection x detection x rotation branch)
    with exact probabilities.
    """
    h, v = _ket(0.0), _ket(90.0)
    if source == "mixed_hv":
        hv, vh = np.kron(h, v), np.kron(v, h)
        ideal = (np.outer(hv, hv.conj()) + np.outer(vh, vh.conj())) / 2.0
    elif source == "psi_plus":
        ket = (np.kron(h, v) + np.kron(v, h)) / math.sqrt(2.0)
        ideal = np.outer(ket, ket.conj())
    else:
        raise ValueError(source)
    joint = visibility * ideal + (1.0 - visibility) * np.eye(4) / 4.0

    def conditioned(angle_deg: float) -> tuple[float, np.ndarray]:
        k = _ket(angle_deg)
        proj = np.kron(np.outer(k, k.conj()), np.eye(2))
        sub = proj @ joint @ proj
        p = sub.trace().real
        return p, _trace_out_first(sub) / p

    p_pass, rho_c = conditioned(trigger_deg)
    _, rho_perp = conditioned(trigger_deg + 90.0)

    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90-degree plane rotation

    def depolarize(rho: np.ndarray) -> np.ndarray:
        return q * rho + (1.0 - q) * np.eye(2) / 2.0

    p_fire = eps_trigger * eta1
    if model == "uniform_depolarizer":
        branches = [
            (p_pass * p_fire, depolarize(rot @ rho_c @ rot.T), True),
            (p_pass * (1.0 - p_fire), depolarize(rho_c), False),
            (1.0 - p_pass, depolarize(rho_perp), False),
        ]
    elif model == "bernoulli_identity":
        p_ok = (1.0 + q) / 2.0
        branches = [
            (p_pass * p_fire * p_ok, rot @ rho_c @ rot.T, True),
            (p_pass * p_fire * (1.0 - p_ok), rho_c, True),
            (p_pass * (1.0 - p_fire), rho_c, False),
            (1.0 - p_pass, rho_perp, False),
        ]
    else:
        raise ValueError(model)

    def rate(angle_deg: float, coincidence: bool) -> float:
        k = _ket(angle_deg)
        total = 0.0
        for prob, rho, fired in branches:
            if coincidence and not fired:
                continue
            malus = (k.conj() @ rho @ k).real
            total += prob * path_loss * eps_analyzer * malus * eta2
        return total

    return {
        "n_h": rate(0.0, False),
        "n_v": rate(90.0, False),
        "nc_h": rate(0.0, True),
        "nc_v": rate(90.0, True),
    }


def dead_time_reference(times, dead_ns: float) -> np.ndarray:
    """Non-paralyzable dead time, one event at a time: keep an event iff live."""
    keep = np.ones(len(times), dtype=bool)
    if dead_ns <= 0:
        return keep
    next_live = -math.inf
    for i, t in enumerate(np.asarray(times, dtype=float).tolist()):
        if t < next_live:
            keep[i] = False
        else:
            next_live = t + dead_ns
    return keep


class StreamingDriverGate:
    """The driver's rate protection fed one trigger detection at a time.

    :meth:`on_detection` returns whether a pulse is scheduled.  When a
    detection pushes the trailing-one-second count above
    ``rate_threshold_hz * 1 s`` the gate disables for the configured
    duration, starting with that detection's own pulse.  Detections during
    the disabled stretch still count toward the rate.
    """

    def __init__(self, rate_threshold_hz: float, disable_duration_s: float):
        self._limit = rate_threshold_hz * 1.0
        self._disable_ns = disable_duration_s * 1.0e9
        self._window: deque[float] = deque()
        self._disabled_until = -math.inf

    def on_detection(self, t_ns: float) -> bool:
        w = self._window
        w.append(t_ns)
        cutoff = t_ns - 1.0e9
        while w and w[0] <= cutoff:
            w.popleft()
        if t_ns < self._disabled_until:
            return False
        if len(w) > self._limit:
            self._disabled_until = t_ns + self._disable_ns
            return False
        return True


def tac_loop_reference(starts, stops, window_ns: float, stop_delay_ns: float) -> int:
    """Start-stop TAC as one pass over the starts with a moving stop cursor."""
    half = window_ns / 2.0
    stops = list(stops)
    m = len(stops)
    count = 0
    j = 0
    busy_until = -math.inf
    for t in starts:
        if t < busy_until:
            continue
        lo = t + stop_delay_ns - half
        hi = t + stop_delay_ns + half
        while j < m and stops[j] < lo:
            j += 1
        if j < m and stops[j] <= hi:
            count += 1
            busy_until = max(t, stops[j])
            j += 1
        else:
            busy_until = hi
    return count


def tac_reference(starts, stops, window_ns: float, stop_delay_ns: float) -> int:
    """O(n*m) reference coincidence counter for small streams."""
    half = window_ns / 2.0
    used = [False] * len(stops)
    busy_until = -math.inf
    count = 0
    for t in starts:
        if t < busy_until:
            continue
        lo, hi = t + stop_delay_ns - half, t + stop_delay_ns + half
        matched = None
        for j, s in enumerate(stops):
            if used[j] or s < lo:
                continue
            if s > hi:
                break
            matched = j
            break
        if matched is None:
            busy_until = hi
        else:
            used[matched] = True
            count += 1
            busy_until = max(t, stops[matched])
    return count


def event_csv_reference(records, path) -> None:
    """Event CSV written one record at a time from ``DetectionRecord`` rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write("channel,time_ns,origin\n")
        for r in records:
            fh.write(f"{r.channel},{r.time_ns!r},{r.origin}\n")


def poisson_visibility_sigma(n_max: float, n_min: float) -> float:
    """Standard deviation of (a-b)/(a+b) for independent Poisson counts."""
    s = n_max + n_min
    return 2.0 * math.sqrt(n_max * n_min * s) / s**2


@pytest.fixture(scope="session")
def reference_conditional_inputs():
    """The worked example count set used throughout the docs and tests."""
    from biphoton.uncertainty import UncertainInput

    return [
        UncertainInput("n_h", 76.6, 4.2),
        UncertainInput("n_v", 165.9, 5.7),
        UncertainInput("nc_h", 4.4, 1.6),
        UncertainInput("nc_v", 48.7, 2.6),
    ]


@pytest.fixture(scope="session")
def reference_klyshko_inputs():
    from biphoton.uncertainty import UncertainInput

    return [
        UncertainInput("n_idler", 1832.8, 9.0),
        UncertainInput("n_coincidence", 874.4, 5.2),
        UncertainInput("n_signal", 131777.0, 185.0),
        UncertainInput.rectangular("t_ns", 9.3, 0.5),
    ]
