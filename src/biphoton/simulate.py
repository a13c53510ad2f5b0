"""Deterministic seeded Monte Carlo engine for the photon-pair bench.

Produces timestamped detection streams and singles/coincidence counts for
both experiment types:

* :func:`run_conditional_experiment` - trigger detections drive a
  high-voltage rotation pulse on the delayed idler photon, which is then
  analyzed by a polarizer and a second detector.
* :func:`run_klyshko_experiment` - both photons of each pair are detected
  directly; coincidences against the heralding arm give the absolute
  detection efficiency.

A run is a pure function of ``(config, duration, seed)``: identical inputs
give bit-identical results.  One engine call is single-threaded; independent
runs (different seeds or scan values) may execute concurrently and their
counts merge by summation.

Per pair, outcome probabilities come from the exact conditional states of
:mod:`biphoton.polarization` (no small-angle shortcuts).  The idler samples
the amplitude of its *own* trigger's pulse; overlap of a photon with a pulse
fired by a different pair is outside this model, which keeps the engine
consistent with the closed forms of :mod:`biphoton.bench` and is a small
correction at the sub-10-kHz trigger rates the driver policy enforces.
Detector dead time is non-paralyzable, and dark/background events are
injected as ready-made detection rates on their channel, subject only to
dead time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bench import BenchConfig
from .polarization import (
    PolarizationDensity,
    Projector,
    apply_channel,
    conditional_state,
    depolarizer,
    make_state,
    rotator,
)

CHANNELS = ("trigger", "analyzer")
ORIGINS = ("pair", "dark", "background")

_NS_PER_S = 1.0e9
# At about 42 bytes per pair, a run of this many expected events peaks near 2 GiB.
MAX_EXPECTED_EVENTS = 5.0e7


class RunTooLargeError(ValueError):
    """A run would expect more than MAX_EXPECTED_EVENTS pair, dark and background events."""


class DetectionRecord(NamedTuple):
    """One detector click: channel, time in ns, and what produced it."""

    channel: str
    time_ns: float
    origin: str


_CHANNEL_NAMES = np.array(CHANNELS, dtype=object)
_ORIGIN_NAMES = np.array(ORIGINS, dtype=object)
# Rows are turned into Python objects, or into the event CSV writer's byte
# matrix, this many at a time, so that a large record set never holds a
# Python object or a padded text row for every row at once.
_ROWS_PER_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class EventRecords:
    """The detector clicks of one run, stored as columns.

    ``channel`` (int8) indexes :data:`CHANNELS`, ``time_ns`` (float64) is
    the detection time and ``origin`` (int8) indexes :data:`ORIGINS`.  Rows
    hold every trigger click in time order, then every analyzer click in
    time order.  Iterating yields :class:`DetectionRecord` rows.  Columns of
    another kind (a list, a float index, integer times) raise ValueError.
    """

    channel: np.ndarray
    time_ns: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        columns = [getattr(self, name) for name in DetectionRecord._fields]
        kinds = (np.integer, np.float64, np.integer)  # of channel, time_ns, origin
        if not all(
            isinstance(c, np.ndarray) and np.issubdtype(c.dtype, k) for c, k in zip(columns, kinds)
        ):
            raise ValueError(
                "EventRecords: channel and origin must be integer arrays, time_ns a float64 array"
            )
        if any(c.ndim != 1 for c in columns) or len({len(c) for c in columns}) > 1:
            raise ValueError("EventRecords: channel, time_ns and origin must be 1-D and of one length")
        for name, names in (("channel", CHANNELS), ("origin", ORIGINS)):
            index = getattr(self, name)
            if np.any((index < 0) | (index >= len(names))):
                raise ValueError(f"EventRecords: {name} must index {names}")

    def __len__(self) -> int:
        return len(self.time_ns)

    def _chunks(self):
        """(channel, time_ns, origin) column slices of at most _ROWS_PER_CHUNK rows."""
        for lo in range(0, len(self), _ROWS_PER_CHUNK):
            rows = slice(lo, lo + _ROWS_PER_CHUNK)
            yield self.channel[rows], self.time_ns[rows], self.origin[rows]

    def __iter__(self):
        for channel, time_ns, origin in self._chunks():
            yield from map(
                DetectionRecord._make,
                zip(
                    _CHANNEL_NAMES[channel].tolist(),
                    time_ns.tolist(),
                    _ORIGIN_NAMES[origin].tolist(),
                ),
            )

    def __eq__(self, other):
        if not isinstance(other, EventRecords):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in DetectionRecord._fields
        )


@dataclass(frozen=True, eq=False)
class SimResult:
    """Aggregated counts of one run, plus the inputs that produced them.

    For the Klyshko experiment the device under test maps onto the
    ``trigger`` channel and the heralding arm onto ``analyzer``.
    """

    duration_s: float
    singles_trigger: int
    singles_analyzer: int
    coincidences: int
    config: BenchConfig
    seed: int
    records: EventRecords | None = None

    def __post_init__(self):
        if min(self.singles_trigger, self.singles_analyzer, self.coincidences) < 0:
            raise ValueError("SimResult: counts must be >= 0")
        if self.coincidences > min(self.singles_trigger, self.singles_analyzer):
            raise ValueError("SimResult: coincidences exceed a singles count")


@dataclass(frozen=True)
class ThetaScanPoint:
    theta_deg: float
    singles: int
    coincidences: int


@dataclass(frozen=True)
class DelayScanPoint:
    delay_ns: float
    singles_h: int
    singles_v: int
    coinc_h: int
    coinc_v: int


def subseed(seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for scan point ``path``."""
    state = np.random.SeedSequence((seed, *path)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _check_stream(what: str, times: np.ndarray) -> None:
    """Raise ValueError unless ``times`` is finite and time-ordered."""
    if times.size and not (
        (times[1:] >= times[:-1]).all()  # False next to a NaN
        and math.isfinite(times[0])
        and math.isfinite(times[-1])
    ):
        if not np.isfinite(times).all():
            raise ValueError(f"{what} has non-finite times")
        raise ValueError(f"{what} is not time-ordered")


def driver_gate(times_ns, rate_threshold_hz: float, disable_duration_s: float) -> np.ndarray:
    """Sliding-window rate protection for the high-voltage driver.

    ``times_ns`` are the time-ordered trigger detections (photon or dark);
    returns whether each one schedules a pulse.  When a detection pushes the
    trailing-one-second count above ``rate_threshold_hz * 1 s`` the gate
    disables for the configured duration, starting with that detection's own
    pulse.  Detections during the disabled stretch still count toward the
    rate.  Only the disable episodes are walked in Python: none below the
    threshold.
    """
    t = np.asarray(times_ns, dtype=float)
    if not (rate_threshold_hz > 0 and disable_duration_s >= 0):
        raise ValueError("driver_gate: need rate_threshold_hz > 0 and disable_duration_s >= 0")
    _check_stream("driver_gate: detection stream", t)
    n = len(t)
    # (t - 1 s, t] holds more than the threshold, i.e. at least back + 1
    # detections, exactly when the detection ``back`` places back is inside it
    back = n if rate_threshold_hz >= n else math.floor(rate_threshold_hz)
    over = back + np.flatnonzero(t[: n - back] > t[back:] - _NS_PER_S)
    disable_ns = disable_duration_s * _NS_PER_S
    fired = np.ones(n, dtype=bool)
    k = 0
    while k < len(over):
        # the gate is live at over[k]: it disables until t + disable_ns
        i = int(over[k])
        live_again = max(int(np.searchsorted(t, t[i] + disable_ns, side="left")), i + 1)
        fired[i:live_again] = False
        k = int(np.searchsorted(over, live_again, side="left"))
    return fired


def tac_coincidences(
    starts, stops, window_ns: float, stop_delay_ns: float
) -> int:
    """Count start-stop coincidences with TAC + single-channel-analyzer logic.

    A start at time t (if the converter is idle) accepts the first stop in
    ``[t + stop_delay - window/2, t + stop_delay + window/2]``.  Each start
    and each stop is used at most once, and the converter stays busy from
    the start until the matching stop arrives or the window closes; starts
    arriving while busy are discarded.  Stop times are arrival times at the
    stop input, i.e. any inserted stop-line delay is already included by the
    caller.
    """
    starts = np.asarray(starts, dtype=float)
    stops = np.asarray(stops, dtype=float)
    _check_stream("tac_coincidences: start stream", starts)
    _check_stream("tac_coincidences: stop stream", stops)
    if not 0 < window_ns < math.inf:
        raise ValueError("tac_coincidences: window_ns must be finite and > 0")
    if not math.isfinite(stop_delay_ns):
        raise ValueError("tac_coincidences: stop_delay_ns must be finite")
    m = len(stops)
    if not starts.size or not m:
        return 0
    half = window_ns / 2.0
    hi = starts + stop_delay_ns  # the window centre, until widened in place
    lo = hi - half
    hi += half
    # first stop >= lo, searched from the stops' side: a stop is below lo[i]
    # exactly for the i at and after its insertion point in lo, so first[i]
    # counts the insertion points at or before i
    first = np.bincount(np.searchsorted(lo, stops, side="right"), minlength=len(lo) + 1)[:-1]
    np.cumsum(first, out=first)
    # what each start counts when the converter is idle and no earlier stop
    # is taken at or beyond ``first``
    matched = (first < m) & (stops[np.minimum(first, m - 1)] <= hi)
    # After start i-1 the converter is busy until at most max(t, hi) of i-1
    # and has taken no stop beyond hi of i-1, so start i is independent of
    # every earlier start unless it falls inside either bound.
    dependent = 1 + np.flatnonzero(
        (starts[1:] < np.maximum(starts[:-1], hi[:-1])) | (lo[1:] <= hi[:-1])
    )
    count = int(np.count_nonzero(matched))
    if not dependent.size:
        return count
    # replay each run of dependent starts from an idle converter, starting at
    # the independent start just before the run
    replay = np.union1d(dependent - 1, dependent)
    count -= int(np.count_nonzero(matched[replay]))
    prev = -2
    for i, t, t_hi, f in zip(
        replay.tolist(), starts[replay].tolist(), hi[replay].tolist(), first[replay].tolist()
    ):
        if i != prev + 1:
            busy_until, j = -math.inf, f
        prev = i
        if t < busy_until:
            continue
        j = max(j, f)
        if j < m and stops[j] <= t_hi:
            count += 1
            busy_until = max(t, float(stops[j]))
            j += 1
        else:
            busy_until = t_hi
    return count


# ---------------------------------------------------------------------------
# internal stream machinery


def _poisson_stream(rng: np.random.Generator, rate_hz: float, duration_s: float) -> np.ndarray:
    n = rng.poisson(rate_hz * duration_s) if rate_hz > 0 else 0
    return np.sort(rng.uniform(0.0, duration_s * _NS_PER_S, n))


def _pair_stream(
    cfg: BenchConfig, duration_s: float, seed: int
) -> tuple[np.random.Generator, np.ndarray]:
    """Seeded generator of one run and the sorted emission times of its pairs."""
    if not 0.0 <= duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and >= 0, got {duration_s!r}")
    expected = duration_s * (
        cfg.pair_rate_hz + cfg.det1.dark_rate_hz + cfg.det2.dark_rate_hz + cfg.background_rate_hz
    )
    if expected > MAX_EXPECTED_EVENTS:
        raise RunTooLargeError(
            f"the run expects {expected:.3g} events, more than the limit of {MAX_EXPECTED_EVENTS:.3g}"
        )
    rng = np.random.default_rng(seed)
    return rng, _poisson_stream(rng, cfg.pair_rate_hz, duration_s)


def _merge_streams(
    *streams: tuple[np.ndarray, int | np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge time-ordered (times, tag) streams into one time-ordered (times, tags) pair.

    A tag is one integer for the whole stream or an array with one per event.
    """
    times = np.concatenate([t for t, _ in streams])
    tags = np.concatenate(
        [np.full(len(t), tag, dtype=np.int64) for t, tag in streams]
    )
    if sum(1 for t, _ in streams if len(t)) <= 1:
        return times, tags  # one stream with events is already in order
    order = np.argsort(times, kind="stable")
    return times[order], tags[order]


def _dead_time_filter(times: np.ndarray, dead_ns: float) -> np.ndarray:
    """Non-paralyzable dead time: keep an event iff the detector is live.

    An event at least ``dead_ns`` after its predecessor is live, and one
    closer to a live predecessor is dead, whatever came before.  Only runs
    of two or more consecutive close events need the sequential rule.
    """
    n = len(times)
    keep = np.ones(n, dtype=bool)
    if dead_ns <= 0 or n == 0:
        return keep
    close = times[1:] < times[:-1] + dead_ns
    keep[1:] = ~close
    # events close to a close predecessor: replay each run of them from the
    # live event two places before its first one
    chained = 2 + np.flatnonzero(close[1:] & close[:-1])
    if not chained.size:
        return keep
    prev = -2
    for i, t, t_head in zip(
        chained.tolist(), times[chained].tolist(), times[chained - 2].tolist()
    ):
        if i != prev + 1:
            next_live = t_head + dead_ns
        prev = i
        if t >= next_live:
            keep[i] = True
            next_live = t + dead_ns
    return keep


def _detect(
    dead_ns: float, *streams: tuple[np.ndarray, int | np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One detector: its candidate (times, tag) streams merged, then dead time.

    Returns the detected times and their tags.
    """
    times, tags = _merge_streams(*streams)
    keep = _dead_time_filter(times, dead_ns)
    return times[keep], tags[keep]


def _records_for(*arms: tuple[np.ndarray, np.ndarray]) -> EventRecords:
    """Records of the detected (times, origin tags) arms, in CHANNELS order."""
    return EventRecords(
        channel=np.repeat(
            np.arange(len(arms), dtype=np.int8), [len(t) for t, _ in arms]
        ),
        time_ns=np.concatenate([t for t, _ in arms]),
        origin=np.concatenate([tags for _, tags in arms]).astype(np.int8),
    )


def _result(
    cfg: BenchConfig,
    duration_s: float,
    seed: int,
    trigger: tuple[np.ndarray, np.ndarray],
    analyzer: tuple[np.ndarray, np.ndarray],
    start_offset_ns: float,
    keep_records: bool,
) -> SimResult:
    """Coincidences of the two detected (times, origin tags) arms, as a SimResult.

    The TAC start line is delayed by ``start_offset_ns``, the constant path
    offset of the analyzer arm, so that pair partners meet in its window.
    """
    t1, t2 = trigger[0], analyzer[0]
    coincidences = tac_coincidences(
        t1 + start_offset_ns,
        t2 + cfg.tac.stop_delay_ns,
        cfg.tac.window_ns,
        cfg.tac.stop_delay_ns,
    )
    return SimResult(
        duration_s=duration_s,
        singles_trigger=int(len(t1)),
        singles_analyzer=int(len(t2)),
        coincidences=int(coincidences),
        config=cfg,
        seed=seed,
        records=_records_for(trigger, analyzer) if keep_records else None,
    )


# ---------------------------------------------------------------------------
# experiments


@lru_cache(maxsize=1)
def _trigger_conditioned(source_kind: str, state_visibility: float, trigger_angle_deg: float):
    """(p_pass, rho_perp, rho_copol): the trigger-pass probability (transmittance
    excluded) and the idler state behind a blocked and a passed trigger photon."""
    joint = make_state(source_kind, state_visibility)
    p_pass, rho_copol = conditional_state(joint, Projector(trigger_angle_deg))
    _, rho_perp = conditional_state(joint, Projector(trigger_angle_deg + 90.0))
    return p_pass, rho_perp, rho_copol


@lru_cache(maxsize=1)
def _group_states(trigger: tuple, phi: float, failure_model: str, q: float, p_ok: float):
    """Idler states of the groups (perp, copol, copol rotated by phi) and p_pass; the
    bernoulli_identity success branch (probability p_ok) is an exact mixture."""
    p_pass, rho_perp, rho_copol = _trigger_conditioned(*trigger)
    rotated = apply_channel(rho_copol, rotator(phi))
    if failure_model == "uniform_depolarizer":
        depol = depolarizer(q)
        return tuple(apply_channel(rho, depol) for rho in (rho_perp, rho_copol, rotated)), p_pass
    mixed = p_ok * rotated.matrix + (1.0 - p_ok) * rho_copol.matrix
    return (rho_perp, rho_copol, PolarizationDensity(mixed)), p_pass


def _idler_group_states(cfg: BenchConfig) -> tuple[tuple[PolarizationDensity, ...], float]:
    """Pre-analyzer idler group states of one run and the trigger-pass probability.

    Every pulsed pair is rotated by the one pulse amplitude the idler samples
    times rotation_angle_deg.  The one-entry memos rebuild states only when
    an input changes.  Keys that differ only as 0.0 and -0.0 share an entry:
    the states then differ only in the sign of a zero entry, which no count sees.
    """
    p = cfg.pockels
    trigger = (cfg.source_kind, cfg.state_visibility, cfg.trigger_projector.angle_deg)
    phi = cfg.pulse_amplitude_at_idler() * p.rotation_angle_deg
    return _group_states(trigger, phi, p.failure_model, p.q, p.success_probability)


def run_conditional_experiment(
    cfg: BenchConfig, duration_s: float, seed: int, keep_records: bool = False
) -> SimResult:
    """Simulate the measurement-conditioned rotation experiment.

    Event chain per pair: the trigger photon is sorted by the trigger
    polarizer (projecting its partner), reaches the detector with the
    polarizer transmittance, and fires with probability eta1 if the
    detector is live; accepted clicks schedule a rotation pulse unless the
    driver gate is disabled.  The idler arrives at emission + fiber delay +
    electronic delay, samples its pulse's instantaneous amplitude v (so the
    applied rotation is v * 90 deg for the default rotation angle), passes
    the imperfection model and the analyzer, and is detected with eta2
    under dead time.  Coincidences are counted by the TAC with the known
    constant path offset compensated in the start line.
    """
    rng, t_pairs = _pair_stream(cfg, duration_s, seed)
    n_pairs = len(t_pairs)

    group_states, p_pass = _idler_group_states(cfg)
    ana_proj, gain = cfg.analyzer.matrix(), cfg.idler_path_loss * cfg.analyzer.transmittance
    p_detect2 = np.clip(
        [gain * (ana_proj @ s.matrix).trace().real * cfg.det2.eta for s in group_states], 0.0, 1.0
    )

    # trigger arm: each detection is tagged with its pair's index, -1 for a dark
    copol = rng.random(n_pairs) < p_pass
    cand1 = np.flatnonzero(
        copol & (rng.random(n_pairs) < cfg.trigger_projector.transmittance * cfg.det1.eta)
    )
    dark1 = _poisson_stream(rng, cfg.det1.dark_rate_hz, duration_s)
    t_det1, pair_det1 = _detect(cfg.det1.dead_time_ns, (t_pairs[cand1], cand1), (dark1, -1))
    fired = driver_gate(
        t_det1, cfg.driver.rate_threshold_hz, cfg.driver.disable_duration_s
    )

    # idler arm: pulsed pairs are copolarized ones, so their probability goes on last
    p_pair = np.where(copol, p_detect2[1], p_detect2[0])
    p_pair[pair_det1[fired & (pair_det1 >= 0)]] = p_detect2[2]
    cand2 = rng.random(n_pairs) < p_pair
    idler_offset_ns = cfg.fiber_delay_ns + cfg.electronic_delay_ns
    dark2 = _poisson_stream(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = _poisson_stream(rng, cfg.background_rate_hz, duration_s)
    analyzer = _detect(
        cfg.det2.dead_time_ns,
        (t_pairs[cand2] + idler_offset_ns, 0),
        (dark2, 1),
        (backgr, 2),
    )
    trigger = (t_det1, np.where(pair_det1 < 0, 1, 0))
    return _result(cfg, duration_s, seed, trigger, analyzer, idler_offset_ns, keep_records)


def run_klyshko_experiment(
    cfg: BenchConfig, duration_s: float, seed: int, keep_records: bool = False
) -> SimResult:
    """Simulate the direct two-detector calibration experiment.

    The rotation element is out of the path and no polarizers are scanned,
    so polarization plays no role: each pair's photon on the device under
    test (``det1``, mapped to the ``trigger`` channel) is detected with
    eta1, and the heralding photon (``det2`` behind the idler path loss,
    mapped to ``analyzer``) with alpha * eta2, both under dead time.
    Coincidences use the TAC with the configured stop-line delay.
    """
    rng, t_pairs = _pair_stream(cfg, duration_s, seed)
    n_pairs = len(t_pairs)

    cand1 = rng.random(n_pairs) < cfg.det1.eta
    cand2 = rng.random(n_pairs) < cfg.idler_path_loss * cfg.det2.eta
    dark1 = _poisson_stream(rng, cfg.det1.dark_rate_hz, duration_s)
    dark2 = _poisson_stream(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = _poisson_stream(rng, cfg.background_rate_hz, duration_s)
    trigger = _detect(cfg.det1.dead_time_ns, (t_pairs[cand1], 0), (dark1, 1))
    analyzer = _detect(
        cfg.det2.dead_time_ns, (t_pairs[cand2], 0), (dark2, 1), (backgr, 2)
    )
    return _result(cfg, duration_s, seed, trigger, analyzer, 0.0, keep_records)


# ---------------------------------------------------------------------------
# scans


def scan_theta(
    cfg: BenchConfig, angles_deg, duration_s: float, seed: int
) -> list[ThetaScanPoint]:
    """One conditional run per analyzer angle, with deterministic subseeds.

    Output row order matches the input angle order; rows feed
    :func:`biphoton.calibrate.fit_theta_curve` directly.
    """
    points = []
    for i, angle in enumerate(angles_deg):
        cfg_i = replace(
            cfg, analyzer=Projector(float(angle), cfg.analyzer.transmittance)
        )
        res = run_conditional_experiment(cfg_i, duration_s, subseed(seed, i))
        points.append(
            ThetaScanPoint(float(angle), res.singles_analyzer, res.coincidences)
        )
    return points


def scan_delay(
    cfg: BenchConfig, delays_ns, duration_s: float, seed: int
) -> list[DelayScanPoint]:
    """H- and V-analyzer singles and coincidences versus electronic delay.

    Each delay value runs the experiment twice (analyzer at 0 deg and at
    90 deg), matching a physical polarizer that sits at one angle per run.
    """
    points = []
    for i, delay in enumerate(delays_ns):
        cfg_d = replace(cfg, electronic_delay_ns=float(delay))
        res_h, res_v = (
            run_conditional_experiment(
                replace(cfg_d, analyzer=Projector(angle, cfg.analyzer.transmittance)),
                duration_s,
                subseed(seed, i, k),
            )
            for k, angle in enumerate((0.0, 90.0))
        )
        points.append(
            DelayScanPoint(
                float(delay),
                res_h.singles_analyzer,
                res_v.singles_analyzer,
                res_h.coincidences,
                res_v.coincidences,
            )
        )
    return points


# The event CSV writer builds each chunk as a matrix of fixed-width byte
# cells, NUL where a cell is shorter than its column: "channel,", the time,
# ",origin\n".  A time cell holds 16 integer digits (2**52 has 16), the point
# and 12 fraction digits, which is also room for any float's repr.
_INT_DIGITS, _FRACTION_DIGITS = 16, 12
_TIME_CELL = _INT_DIGITS + 1 + _FRACTION_DIGITS


def _byte_cells(texts, width: int) -> np.ndarray:
    """ASCII ``texts`` as the rows of a NUL-padded (len(texts), width) uint8 matrix."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


_CHANNEL_CELLS = _byte_cells([f"{name}," for name in CHANNELS], 1 + max(map(len, CHANNELS)))
_ORIGIN_CELLS = _byte_cells([f",{name}\n" for name in ORIGINS], 2 + max(map(len, ORIGINS)))
_TIME_START = _CHANNEL_CELLS.shape[1]
_TIME_END = _TIME_START + _TIME_CELL
_ROW_BYTES = _TIME_END + _ORIGIN_CELLS.shape[1]
# "0000" to "9999", four ASCII digits per uint32
_DIGIT_QUADS = np.frombuffer("".join(f"{i:04d}" for i in range(10_000)).encode(), dtype=np.uint32)
_POW10 = np.array([10**n for n in range(_INT_DIGITS + 1)], dtype=np.uint64)
_POW5 = np.array([5**q for q in range(_FRACTION_DIGITS + 1)], dtype=np.uint64)
# fewest fraction digits q that read back any float with s fraction bits:
# 10**q > 2**s, so a q-digit decimal lies inside every rounding interval
_DIGITS_FOR_BITS = np.array([len(str(2**s)) for s in range(37)])
# _TIME_MASKS[n, q] keeps n integer digits, the point and q fraction digits
_TIME_MASKS = np.where(
    (np.arange(_TIME_CELL) >= _INT_DIGITS - np.arange(_INT_DIGITS + 1)[:, None, None])
    & (np.arange(_TIME_CELL) <= _INT_DIGITS + np.arange(_FRACTION_DIGITS + 1)[:, None]),
    0xFF,
    0,
).astype(np.uint8)


def _nearest_fraction(k, s, q):
    """Nearest (ties to even) q-digit fraction j to k / 2**s, and whether it reads back.

    j / 10**q reads back as the float when it lies inside the float's
    rounding interval: 2 |j 2**(s-q) - k 5**q| < 5**q.  5**q is odd, so a
    candidate never sits on the interval's edge.  All operands are uint64:
    mixed with int64, numpy 1.x promotes to float64.
    """
    p5 = _POW5[q]
    shift = s - q.astype(np.uint64)
    twice_err = k * p5  # k 5**q < 2**62 for s <= 36 and q <= ceil(s log10 2)
    j = twice_err >> shift
    twice_err -= j << shift  # the remainder, doubled next
    twice_err <<= np.uint64(1)
    one = np.uint64(1) << shift
    up = (twice_err > one) | ((twice_err == one) & ((j & np.uint64(1)) == 1))
    np.subtract(one << np.uint64(1), twice_err, out=twice_err, where=up)
    j += up
    return j, twice_err < p5


def _ascii_digits(v: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` (12 or 16) low decimal digits of uint64 ``v`` < 10**16 as ASCII rows."""
    halves = np.stack(np.divmod(v, np.uint64(10**8)), axis=1).astype(np.uint32)
    quads = np.stack(np.divmod(halves, np.uint32(10**4)), axis=2).reshape(len(v), 4)
    return _DIGIT_QUADS[quads[:, 4 - width // 4 :]].view(np.uint8)


def _shortest_fixed(x: np.ndarray):
    """repr's digits of times 2**16 <= x < 2**52: (integer part, its digit count, j, q).

    In that range the float's spacing is at most 1/2, so repr writes every
    integer digit and the q fraction digits j of the fewest that read back,
    up to 17 significant digits.  Powers of two there are integers, read
    back at q = 0, so their lopsided rounding interval never matters.
    """
    bits = x.view(np.uint64)
    s = np.uint64(1075) - (bits >> np.uint64(52))  # fraction bits, 1 to 36
    k = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)  # the 53-bit significand
    integer = k >> s
    k -= integer << s
    n_int = np.searchsorted(_POW10, integer, side="right")
    # each bound alone makes q digits read back: 10**q > 2**s, or 17
    # significant digits, which read back any float
    q = np.minimum(_DIGITS_FOR_BITS[s], 17 - n_int)
    j, _ = _nearest_fraction(k, s, q)
    # if q - 1 digits read back so do q, so step down until they do not
    live = np.flatnonzero(q > 0)
    while live.size:
        fewer = q[live] - 1
        j_fewer, ok = _nearest_fraction(k[live], s[live], fewer)
        live = live[ok]
        q[live], j[live] = fewer[ok], j_fewer[ok]
        live = live[q[live] > 0]
    return integer, n_int, j, q


def _write_time_cells(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the repr of each time into a row of ``cells``, NUL-padded."""
    fixed = (x >= 2.0**16) & (x < 2.0**52)  # False for NaN
    integer, n_int, j, q = _shortest_fixed(np.where(fixed, x, 2.0**16))
    q = np.maximum(q, 1)  # an integer is written "I.0"
    cells[:, :_INT_DIGITS] = _ascii_digits(integer, _INT_DIGITS)
    cells[:, _INT_DIGITS] = ord(".")
    # j left-aligned in the fraction's columns
    cells[:, _INT_DIGITS + 1 :] = _ascii_digits(j * _POW10[_FRACTION_DIGITS - q], _FRACTION_DIGITS)
    cells &= _TIME_MASKS[n_int, q]
    # negative, zero, small, large, subnormal and non-finite times
    rest = np.flatnonzero(~fixed)
    cells[rest] = _byte_cells([repr(t) for t in x[rest].tolist()], _TIME_CELL)


def write_event_csv(records: EventRecords, path) -> None:
    """Dump detection records as CSV: header ``channel,time_ns,origin``.

    Times are written as Python's float ``repr`` writes them, the shortest
    string that reads back as the same float; times from 2**16 to 2**52 ns
    get those digits from integer arithmetic over whole columns.  A run
    without ``keep_records=True`` has no records (None); anything but
    :class:`EventRecords` raises TypeError before ``path`` is opened.
    """
    if not isinstance(records, EventRecords):
        raise TypeError(
            f"write_event_csv: records is {type(records).__name__}, not EventRecords;"
            " run the experiment with keep_records=True"
        )
    with open(path, "wb") as fh:
        fh.write((",".join(DetectionRecord._fields) + "\n").encode())
        for channel, time_ns, origin in records._chunks():
            rows = np.empty((len(time_ns), _ROW_BYTES), np.uint8)
            rows[:, :_TIME_START] = _CHANNEL_CELLS[channel]
            _write_time_cells(time_ns, rows[:, _TIME_START:_TIME_END])
            rows[:, _TIME_END:] = _ORIGIN_CELLS[origin]
            fh.write(rows.tobytes().translate(None, b"\0"))
