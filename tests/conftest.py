"""Shared test helpers: independent oracles and tolerance utilities.

The oracles here deliberately avoid the package's own algebra paths: the
branch enumeration builds its states with raw numpy kron/reshape calls and
applies the depolarizer as a direct convex mixture, so closure tests compare
two genuinely different computations.  The engine's vectorized dead-time,
driver-gate and TAC passes and its column event-CSV writer are checked
against the plain event loops below, its stream merge against the stable
sort it replaces, its memoized idler states against the unmemoized per-run
construction they replace, and its conditional and Klyshko run bodies
against run bodies built from these references, which draw their own event
times as sorted ``Generator.uniform`` draws.
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


def idler_group_states_reference(cfg):
    """Pre-analyzer idler states for the groups (perp, copol, copol+pulse).

    Also returns the trigger-pass probability (transmittance excluded).
    The pulse amplitude sampled by the idler is constant within a run, so
    the rotation angle is amplitude * rotation_angle_deg for every pulsed
    pair; the bernoulli_identity success branch is folded in as an exact
    mixture.  Every state is built afresh on each call, through the
    ``biphoton.polarization`` functions rather than the engine's names.
    """
    from biphoton.polarization import (
        PolarizationDensity,
        Projector,
        apply_channel,
        conditional_state,
        depolarizer,
        make_state,
        rotator,
    )

    joint = make_state(cfg.source_kind, cfg.state_visibility)
    axis = cfg.trigger_projector.angle_deg
    p_pass, rho_copol = conditional_state(joint, Projector(axis))
    _, rho_perp = conditional_state(joint, Projector(axis + 90.0))

    phi = cfg.pulse_amplitude_at_idler() * cfg.pockels.rotation_angle_deg

    def transformed(rho, pulsed):
        if cfg.pockels.failure_model == "uniform_depolarizer":
            out = apply_channel(rho, rotator(phi)) if pulsed else rho
            return apply_channel(out, depolarizer(cfg.pockels.q))
        if not pulsed:
            return rho
        p_ok = cfg.pockels.success_probability
        rotated = apply_channel(rho, rotator(phi))
        return PolarizationDensity(
            p_ok * rotated.matrix + (1.0 - p_ok) * rho.matrix
        )

    groups = [
        transformed(rho_perp, False),
        transformed(rho_copol, False),
        transformed(rho_copol, True),
    ]
    return groups, p_pass


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


def merge_streams_reference(*streams):
    """Time-ordered (times, int64 tags) of (times, tag) streams by one stable sort.

    A tag is one integer for the whole stream or an array with one per event.
    """
    times = np.concatenate([t for t, _ in streams])
    tags = np.concatenate([np.full(len(t), tag, dtype=np.int64) for t, tag in streams])
    order = np.argsort(times, kind="stable")
    return times[order], tags[order]


def detect_reference(dead_ns: float, *streams):
    """One detector: streams merged by :func:`merge_streams_reference`, then
    :func:`dead_time_reference`; returns the detected (times, tags)."""
    times, tags = merge_streams_reference(*streams)
    keep = dead_time_reference(times, dead_ns)
    return times[keep], tags[keep]


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


def idler_detect_probabilities_reference(cfg, states) -> np.ndarray:
    """Per-group idler detection probabilities of the analyzer and det2."""
    ana = cfg.analyzer
    return np.clip(
        np.array(
            [
                cfg.idler_path_loss
                * ana.transmittance
                * (ana.matrix() @ s.matrix).trace().real
                * cfg.det2.eta
                for s in states
            ]
        ),
        0.0,
        1.0,
    )


def poisson_times_reference(rng, rate_hz: float, duration_s: float) -> np.ndarray:
    """Sorted times in ns of a Poisson process over the run: a Poisson count n,
    then ``np.sort(uniform(0.0, d * 1e9, n))``.  A zero rate draws nothing."""
    if not rate_hz > 0:
        return np.empty(0)
    return np.sort(rng.uniform(0.0, duration_s * 1.0e9, rng.poisson(rate_hz * duration_s)))


def conditional_run_reference(cfg, duration_s: float, seed: int):
    """The conditional run with its idler probability looked up per pair group.

    Each pair gets a group index (perp 0, copol 1, pulsed 2) from two boolean
    scatters, and its idler probability is that group's.  Detection is
    :func:`detect_reference`, the driver gate is a
    :class:`StreamingDriverGate` and the coincidences come
    from :func:`tac_loop_reference`.  Pair, dark and background times come
    from :func:`poisson_times_reference`, and every draw comes in the
    engine's order.  Returns ``(singles_trigger, singles_analyzer,
    coincidences)`` and the records.
    """
    rng = np.random.default_rng(seed)
    t_pairs = poisson_times_reference(rng, cfg.pair_rate_hz, duration_s)
    n_pairs = len(t_pairs)
    states, p_pass = idler_group_states_reference(cfg)
    p_detect2 = idler_detect_probabilities_reference(cfg, states)

    copol = rng.random(n_pairs) < p_pass
    cand1 = copol & (rng.random(n_pairs) < cfg.trigger_projector.transmittance * cfg.det1.eta)
    dark1 = poisson_times_reference(rng, cfg.det1.dark_rate_hz, duration_s)
    t1, pair1 = detect_reference(
        cfg.det1.dead_time_ns, (t_pairs[cand1], np.flatnonzero(cand1)), (dark1, -1)
    )
    gate = StreamingDriverGate(cfg.driver.rate_threshold_hz, cfg.driver.disable_duration_s)
    fired = np.array([gate.on_detection(t) for t in t1.tolist()], dtype=bool)
    pulsed = np.zeros(n_pairs, dtype=bool)
    pulsed[pair1[fired & (pair1 >= 0)]] = True

    group = np.zeros(n_pairs, dtype=np.int64)
    group[copol] = 1
    group[pulsed] = 2
    cand2 = rng.random(n_pairs) < p_detect2[group]
    offset = cfg.fiber_delay_ns + cfg.electronic_delay_ns
    dark2 = poisson_times_reference(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = poisson_times_reference(rng, cfg.background_rate_hz, duration_s)
    t2, origin2 = detect_reference(
        cfg.det2.dead_time_ns, (t_pairs[cand2] + offset, 0), (dark2, 1), (backgr, 2)
    )
    return _run_reference_result(cfg, (t1, np.where(pair1 < 0, 1, 0)), (t2, origin2), offset)


def klyshko_run_reference(cfg, duration_s: float, seed: int):
    """The Klyshko run from the references: each arm's pair candidates selected
    by a boolean mask, detection by :func:`detect_reference` and coincidences
    by :func:`tac_loop_reference`.  Pair, dark and background times come
    from :func:`poisson_times_reference`, and every draw comes in the
    engine's order.  Returns ``(singles_trigger, singles_analyzer,
    coincidences)`` and the records.
    """
    rng = np.random.default_rng(seed)
    t_pairs = poisson_times_reference(rng, cfg.pair_rate_hz, duration_s)
    n_pairs = len(t_pairs)
    cand1 = rng.random(n_pairs) < cfg.det1.eta
    cand2 = rng.random(n_pairs) < cfg.idler_path_loss * cfg.det2.eta
    dark1 = poisson_times_reference(rng, cfg.det1.dark_rate_hz, duration_s)
    dark2 = poisson_times_reference(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = poisson_times_reference(rng, cfg.background_rate_hz, duration_s)
    trigger = detect_reference(cfg.det1.dead_time_ns, (t_pairs[cand1], 0), (dark1, 1))
    analyzer = detect_reference(
        cfg.det2.dead_time_ns, (t_pairs[cand2], 0), (dark2, 1), (backgr, 2)
    )
    return _run_reference_result(cfg, trigger, analyzer, 0.0)


def _run_reference_result(cfg, trigger, analyzer, start_offset_ns: float):
    """Counts and records of the detected (times, origin tags) arms, with the
    TAC start line delayed by ``start_offset_ns``."""
    from biphoton.simulate import EventRecords

    (t1, origin1), (t2, origin2) = trigger, analyzer
    coincidences = tac_loop_reference(
        (t1 + start_offset_ns).tolist(),
        (t2 + cfg.tac.stop_delay_ns).tolist(),
        cfg.tac.window_ns,
        cfg.tac.stop_delay_ns,
    )
    records = EventRecords(
        channel=np.repeat(np.arange(2, dtype=np.int8), [len(t1), len(t2)]),
        time_ns=np.concatenate([t1, t2]),
        origin=np.concatenate([origin1, origin2]).astype(np.int8),
    )
    return (len(t1), len(t2), coincidences), records


def event_csv_reference(records, path) -> None:
    """Event CSV written one record at a time from ``DetectionRecord`` rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write("channel,time_ns,origin\n")
        for r in records:
            fh.write(f"{r.channel},{r.time_ns!r},{r.origin}\n")


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
