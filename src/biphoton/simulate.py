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
counts merge by summation.  A scan makes one set of whole-length run buffers
and hands it to each of its points in turn, with that point's row of idler
detection probabilities, computed for all its points in one batch; no
buffer or row is kept between calls.  Concurrent scans and runs share one
thing: ``_idler_group_states``, a process-wide one-entry ``lru_cache`` of
idler states, whose arrays are read-only and which ``lru_cache`` keeps
thread-safe.  Pair times are drawn into such a buffer with the bits of
``Generator.uniform``.

Per pair, outcome probabilities come from the exact conditional states of
:mod:`biphoton.polarization` (no small-angle shortcuts).  A pulse that turns
the idler by phi is applied as the analyzer turned by -phi, which gives the
same probability exactly, so no state is built per pulse amplitude.  The
idler samples the amplitude of its *own* trigger's pulse only, which keeps
the engine consistent with the closed forms of :mod:`biphoton.bench`.
Idlers inside a pulse fired for another pair are outside this model.  That
hides a bias a standalone model (ROADMAP item 13) puts at -0.9% of eta_cond
at 4.8 kHz of triggers (about 3 sigma of a 120 s sample) and -1.8% at the
10 kHz gate.  Detector dead time is non-paralyzable, and dark/background
events are injected as ready-made detection rates on their channel, subject
only to dead time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._checked import _FLOAT_MAX, _check_seed
from .bench import BenchConfig
from .calibrate import CalibrationError, CountSummary, KlyshkoCounts
from .polarization import (
    Projector, _jones, apply_channel, conditional_state, depolarizer, make_state,
)

CHANNELS = ("trigger", "analyzer")
ORIGINS = ("pair", "dark", "background")
# the engines, by the name a SimResult records
EXPERIMENTS = ("conditional", "klyshko")

_NS_PER_S = 1.0e9
_INF = np.array([math.inf])  # the TAC merge's closing stop
# A run's traced bytes per expected pair are pinned by the rows conditional_run
# and klyshko_run of tests/test_simulate.py::test_run_peaks_per_expected_pair
# (about 3 more with records), so a run of this many expected events peaks
# near 1.2 GiB, or 1.4 GiB with records.
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
# Long columns are walked this many rows at a time: records turned into
# Python objects or into the event CSV writer's byte matrix, the TAC's starts
# and the stream checks' comparisons.  So no temporary, Python object or
# padded text row is held for every row of a run at once.
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

    ``experiment`` names the engine that made the run, one of
    :data:`EXPERIMENTS`.  For the Klyshko experiment the device under test
    maps onto the ``trigger`` channel and the heralding arm onto ``analyzer``.
    """

    duration_s: float
    singles_trigger: int
    singles_analyzer: int
    coincidences: int
    config: BenchConfig
    seed: int
    experiment: str
    records: EventRecords | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"SimResult: experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
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
    """Deterministic 64-bit child seed for scan point ``path``; all are ints >= 0."""
    _check_seed(seed)
    for i, element in enumerate(path):
        _check_seed(element, f"path[{i}]")
    state = np.random.SeedSequence((seed, *path)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _ordered(times: np.ndarray) -> bool:
    """Whether ``times`` never steps back (False next to a NaN), compared a slice
    at a time, so that the mask is the size of a slice, not of the stream."""
    if len(times) <= _ROWS_PER_CHUNK + 1:
        steps = times[1:] >= times[:-1]
        return np.count_nonzero(steps) == len(steps)  # a third of steps.all()'s cost
    # slices that overlap by one event
    return all(
        _ordered(times[a : a + _ROWS_PER_CHUNK + 1])
        for a in range(0, len(times) - 1, _ROWS_PER_CHUNK)
    )


def _check_stream(what: str, times: np.ndarray) -> None:
    """Raise ValueError unless ``times`` is 1-D, finite and time-ordered."""
    if times.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got {times.ndim} dimensions")
    if times.size and not (
        _ordered(times)
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
    try:
        disable_ns = disable_duration_s * _NS_PER_S
    except OverflowError:  # an int no float can hold
        disable_ns = math.nan
    if not (rate_threshold_hz > 0 and disable_ns >= 0):
        raise ValueError("driver_gate: need rate_threshold_hz > 0 and disable_duration_s >= 0")
    _check_stream("driver_gate: detection stream", t)
    n = len(t)
    # (t - 1 s, t] holds more than the threshold, i.e. at least back + 1
    # detections, exactly when the detection ``back`` places back is inside it
    back = n if rate_threshold_hz >= n else math.floor(rate_threshold_hz)
    over = back + (t[: n - back] > t[back:] - _NS_PER_S).nonzero()[0]
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
    if not 0 < window_ns <= _FLOAT_MAX:
        raise ValueError("tac_coincidences: window_ns must be finite and > 0")
    if not -_FLOAT_MAX <= stop_delay_ns <= _FLOAT_MAX:
        raise ValueError("tac_coincidences: stop_delay_ns must be finite")
    n, m = len(starts), len(stops)
    # the merge's +inf sentinel lies above every window opening only while
    # the openings are finite
    if n and float(starts[-1]) + stop_delay_ns == math.inf:
        raise ValueError("tac_coincidences: the last start time + stop_delay_ns overflows")
    half = window_ns / 2.0
    count = 0
    prev = -2  # the last start replayed
    for a in range(0, n, _ROWS_PER_CHUNK):
        # the slice and, after the first, the start before it
        lead = min(a, 1)
        sliced = starts[a - lead : a + _ROWS_PER_CHUNK]
        k = len(sliced)
        hi = sliced + stop_delay_ns  # the window centre, until widened in place
        lo = hi - half
        hi += half
        # After start i-1 the converter is busy until at most max(t, hi) of
        # i-1 and has taken no stop beyond hi of i-1, so start i is
        # independent of every earlier start unless it falls inside either
        # bound.  Start i is never below t of i-1 (the stream is ordered), so
        # only hi of i-1 is compared.
        dependent = 1 + ((sliced[1:] < hi[:-1]) | (lo[1:] <= hi[:-1])).nonzero()[0]
        # the stops from the first >= the slice's first window opening through
        # the first >= its last (two scalar searches, across several slices),
        # then +inf, which an opening above every stop meets
        f0, f1 = 0, m
        if k < n:
            f0, f1 = np.searchsorted(stops, lo[0]), np.searchsorted(stops, lo[-1])
        both = np.concatenate((lo, stops[f0 : f1 + 1], _INF))
        # Each array is freed once read and ``hi`` is built again after the
        # merge: the windows, the merge and its order are never held at
        # once, which keeps a slice's peak, and so a theta run's, low.
        del hi, lo
        # One stable merge of the two sorted runs puts each opening before
        # any stop equal to it, so opening i's place less i counts the
        # stops below it; ``first`` indexes each start's first stop in ``both``.
        first = (np.argsort(both, kind="stable") < k).nonzero()[0]
        first -= np.arange(-k, 0)
        stop = both[first]  # each start's first stop, or +inf
        del both
        hi = sliced + stop_delay_ns
        hi += half
        # what each start counts when the converter is idle and no earlier
        # stop is taken at or beyond its first stop
        matched = stop <= hi
        del stop
        count += int(np.count_nonzero(matched[lead:]))
        if not dependent.size:
            continue
        # replay each run of dependent starts from an idle converter, starting
        # at the independent start just before the run; a run that the slice
        # before left open goes on from where it stopped
        replay = np.union1d(dependent - 1, dependent)
        if a - lead + int(replay[0]) == prev:
            replay = replay[1:]
        count -= int(np.count_nonzero(matched[replay]))
        for i, t, t_hi, f in zip(
            (replay + (a - lead)).tolist(),
            sliced[replay].tolist(),
            hi[replay].tolist(),
            (first[replay] + (f0 - k)).tolist(),
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


def _poisson_stream(
    rng: np.random.Generator, rate_hz: float, duration_s: float, empty=np.empty
) -> np.ndarray:
    """Sorted times of a Poisson process over the run, drawn into the array ``empty(n)``.

    ``random(out=t)`` scaled in place by D = duration_s * 1e9 gives the bits of
    ``uniform(0.0, D, n)``, which numpy computes as ``0.0 + D * u``: adding
    0.0 to D * u >= 0 is exact, and both draw n doubles.
    """
    if not rate_hz > 0:
        return np.empty(0)
    times = rng.random(out=empty(rng.poisson(rate_hz * duration_s)))
    times *= duration_s * _NS_PER_S
    times.sort()
    return times


class _RunBuffers:
    """The whole-length arrays of conditional runs: pair times, the draw buffer
    and the ``copol`` and ``hit`` masks, views of one block.

    The block grows to the largest pair count served so far, with room for
    the scatter of later counts, and a run works in ``[:n]`` views of the
    arrays.  So a scan that hands one holder to all its points allocates
    them about once, not once per point.  Nothing in it outlives the scan
    or run that made it.
    """

    def __init__(self):
        self.times = self.draws = np.empty(0)
        self.copol = self.hit = np.empty(0, dtype=bool)

    def pair_times(self, n: int) -> np.ndarray:
        """The pair-time view of ``n`` entries, every array grown to ``n`` first."""
        if n > len(self.times):
            # freed before the larger block is made, so that a growing holder
            # never holds both
            del self.times, self.draws, self.copol, self.hit
            # a scan's pair counts scatter by about sqrt(n) around one mean
            size = n + 5 * math.isqrt(n)
            block = np.empty(18 * size, dtype=np.uint8)
            self.times, self.draws = block[: 16 * size].view(np.float64).reshape(2, size)
            self.copol, self.hit = block[16 * size :].view(bool).reshape(2, size)
        return self.times[:n]


def _pair_stream(
    cfg: BenchConfig, duration_s: float, seed: int, empty=np.empty
) -> tuple[np.random.Generator, np.ndarray]:
    """Seeded generator of one run and the sorted emission times of its pairs,
    drawn into ``empty(n)``."""
    _check_seed(seed)
    if not 0.0 <= duration_s <= _FLOAT_MAX:
        raise ValueError(f"duration_s must be finite and >= 0, got {duration_s!r}")
    expected = duration_s * (
        cfg.pair_rate_hz + cfg.det1.dark_rate_hz + cfg.det2.dark_rate_hz + cfg.background_rate_hz
    )
    if expected > MAX_EXPECTED_EVENTS:
        raise RunTooLargeError(
            f"the run expects {expected:.3g} events, more than the limit of {MAX_EXPECTED_EVENTS:.3g}"
        )
    # what default_rng(seed) returns, without its dispatch on the seed's type
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng, _poisson_stream(rng, cfg.pair_rate_hz, duration_s, empty)


def _merge_streams(*streams: tuple[np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
    """Merge time-ordered (times, tag) streams into one time-ordered (times, tags) pair.

    A tag is one integer for the whole stream, and tags are int8, the dtype
    of :attr:`EventRecords.origin`.  Events at equal times keep stream order.
    Empty streams are dropped, and a lone stream's times are returned as
    they are, not copied: the dead-time selection copies them anyway.  The
    later streams (darks, background) are sorted among themselves and
    inserted into the first (the pair candidates) in one pass, which is
    cheap while they are few.
    """
    streams = [(t, tag) for t, tag in streams if len(t)]
    if len(streams) < 2:
        times, tag = streams[0] if streams else (np.empty(0), 0)
        return times, np.full(len(times), tag, dtype=np.int8)
    times = [t for t, _ in streams]
    tags = [np.full(len(t), tag, dtype=np.int8) for t, tag in streams]
    later_times, later_tags = np.concatenate(times[1:]), np.concatenate(tags[1:])
    order = np.argsort(later_times, kind="stable")
    later_times, later_tags = later_times[order], later_tags[order]
    # after the first-stream events at or before it; np.insert keeps ties in order
    at = np.searchsorted(times[0], later_times, side="right")
    return np.insert(times[0], at, later_times), np.insert(tags[0], at, later_tags)


def _dead_time_filter(times: np.ndarray, dead_ns: float) -> np.ndarray:
    """Non-paralyzable dead time: keep an event iff the detector is live.

    An event at least ``dead_ns`` after its predecessor is live, and one
    closer to a live predecessor is dead, whatever came before.  Only runs
    of two or more consecutive close events need the sequential rule.
    """
    keep = np.empty(len(times), dtype=bool)
    keep[:1] = True
    close = np.less(times[1:], times[:-1] + dead_ns, out=keep[1:])
    # events close to a close predecessor: replay each run of them from the
    # live event two places before its first one
    chained = 2 + (close[1:] & close[:-1]).nonzero()[0]
    np.logical_not(close, out=close)
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


def _detect(dead_ns: float, *streams: tuple[np.ndarray, int]) -> tuple[np.ndarray, np.ndarray]:
    """One detector: its candidate (times, tag) streams merged, then dead time.

    Returns the detected times and their tags.
    """
    times, tags = _merge_streams(*streams)
    keep = _dead_time_filter(times, dead_ns)
    return times[keep], tags[keep]


def _records_for(*arms: tuple[np.ndarray, np.ndarray]) -> EventRecords:
    """Records of the detected (times, int8 origin tags) arms, in CHANNELS order."""
    return EventRecords(
        channel=np.repeat(
            np.arange(len(arms), dtype=np.int8), [len(t) for t, _ in arms]
        ),
        time_ns=np.concatenate([t for t, _ in arms]),
        origin=np.concatenate([tags for _, tags in arms]),
    )


def _result(
    cfg: BenchConfig,
    duration_s: float,
    seed: int,
    experiment: str,
    trigger: tuple[np.ndarray, np.ndarray],
    analyzer: tuple[np.ndarray, np.ndarray],
    starts: np.ndarray,
    keep_records: bool,
) -> SimResult:
    """Coincidences of the two detected (times, origin tags) arms, as ``experiment``'s SimResult.

    ``starts`` are the TAC start times: the trigger times, delayed by any
    constant path offset of the analyzer arm so that pair partners meet in
    the TAC's window.
    """
    t2 = analyzer[0]
    coincidences = tac_coincidences(
        starts, t2 + cfg.tac.stop_delay_ns, cfg.tac.window_ns, cfg.tac.stop_delay_ns
    )
    return SimResult(
        duration_s=duration_s,
        singles_trigger=len(trigger[0]),
        singles_analyzer=len(t2),
        coincidences=coincidences,
        config=cfg,
        seed=seed,
        experiment=experiment,
        records=_records_for(trigger, analyzer) if keep_records else None,
    )


# ---------------------------------------------------------------------------
# experiments


@lru_cache(maxsize=1)
def _idler_group_states(trigger: tuple, failure_model: str, q: float):
    """(p_pass, groups): the trigger-pass probability (transmittance excluded) and the
    read-only (3, 2, 2) stack of the matrices of the groups perp, copol and pulsed: the
    idler states behind a blocked and a passed trigger photon, depolarized under
    uniform_depolarizer (a pulsed idler is a copol one).  Keys that differ only as 0.0
    and -0.0 share an entry: the states then differ only in the sign of a zero entry,
    which no count sees."""
    source_kind, state_visibility, trigger_angle_deg = trigger
    joint = make_state(source_kind, state_visibility)
    p_pass, copol = conditional_state(joint, Projector(trigger_angle_deg))
    _, perp = conditional_state(joint, Projector(trigger_angle_deg + 90.0))
    if failure_model == "uniform_depolarizer":
        depol = depolarizer(q)
        perp, copol = apply_channel(perp, depol), apply_channel(copol, depol)
    groups = np.stack((perp.matrix, copol.matrix, copol.matrix))
    groups.setflags(write=False)
    return p_pass, groups


def _idler_detect_probabilities(cfgs) -> list[tuple[float, list[float]]]:
    """p_pass and the idler detection probabilities of the groups perp, copol and pulsed,
    for each of the configs ``cfgs``.

    An idler turned by phi (the sampled pulse amplitude times rotation_angle_deg) passes
    exactly as the memo's state passes the analyzer turned by -phi: the depolarizer
    commutes with the turn.  Under bernoulli_identity the turn succeeds with p_ok.  The
    projectors of each config's analyzer (for perp and copol) and turned analyzer are
    formed from one complex array of kets, built from the entries :func:`linear_ket`
    writes, and traced against the groups' states in one matmul, which computes each
    2x2 product as a lone ``@`` does.
    """
    p_pass, states, kets, gain, eta = [], [], [], [], []
    for cfg in cfgs:
        p = cfg.pockels
        trigger = (cfg.source_kind, cfg.state_visibility, cfg.trigger_projector.angle_deg)
        p_pass_i, groups = _idler_group_states(trigger, p.failure_model, p.q)
        p_pass.append(p_pass_i)
        states.append(groups)
        phi = cfg.pulse_amplitude_at_idler() * p.rotation_angle_deg
        analyzer = _jones(cfg.analyzer.angle_deg)
        kets += (*analyzer, *analyzer, *_jones(cfg.analyzer.angle_deg - phi))
        gain.append(cfg.idler_path_loss * cfg.analyzer.transmittance)
        eta.append(cfg.det2.eta)
    # from a flat list of floats, which numpy converts far faster than nested tuples
    kets = np.array(kets, dtype=complex).reshape(-1, 3, 2)  # (0, 3, 2) for no configs
    projectors = kets[..., :, None] * kets[..., None, :].conj()
    traces = np.matmul(projectors, np.array(states).reshape(-1, 3, 2, 2)).trace(axis1=2, axis2=3)
    rows = (np.array(gain)[:, None] * traces.real * np.array(eta)[:, None]).tolist()
    for cfg, row in zip(cfgs, rows):
        if cfg.pockels.failure_model != "uniform_depolarizer":
            p_ok = cfg.pockels.success_probability
            row[2] = p_ok * row[2] + (1.0 - p_ok) * row[1]
    return list(zip(p_pass, rows))


def _below_group_probability(
    u: np.ndarray, copol: np.ndarray, p_copol: float, p_perp: float, out: np.ndarray
) -> np.ndarray:
    """``u < np.where(copol, p_copol, p_perp)`` written into the bool array ``out``.

    Each draw meets the same double as in the float form, so the bits agree,
    but no float array is built: choosing between two scalars per element is
    slow in ``np.where``, and fast as boolean arithmetic.
    """
    np.less(u, p_copol, out=out)
    out &= copol
    out |= (u < p_perp) & ~copol
    return out


def run_conditional_experiment(
    cfg: BenchConfig, duration_s: float, seed: int, keep_records: bool = False, *,
    _buffers=None, _idler=None,
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

    ``_buffers`` and ``_idler`` are internal: a scan hands all its runs one
    :class:`_RunBuffers`, whose whole-length arrays each run works in, and
    each run its row of :func:`_idler_detect_probabilities` over the scan's
    configs.  A run without them makes its own.
    """
    buffers = _RunBuffers() if _buffers is None else _buffers
    rng, t_pairs = _pair_stream(cfg, duration_s, seed, buffers.pair_times)
    n_pairs = len(t_pairs)

    if _idler is None:
        (_idler,) = _idler_detect_probabilities([cfg])
    # used only as draws in [0, 1) < p, where a p outside [0, 1] acts as its clip
    p_pass, (p_perp, p_copol, p_turned) = _idler

    # One buffer holds each per-pair draw in turn: random(out=u) gives the
    # bits of random(n) in the same generator order.
    u = rng.random(out=buffers.draws[:n_pairs])
    copol = np.less(u, p_pass, out=buffers.copol[:n_pairs])

    # trigger arm: its pair candidates (origin 0) and darks (1) merged, then
    # dead time, as in _detect; `detected` marks the candidates that survive,
    # in cand1 order, since the merge keeps the first stream's order
    hit = np.less(
        rng.random(out=u),
        cfg.trigger_projector.transmittance * cfg.det1.eta,
        out=buffers.hit[:n_pairs],
    )
    hit &= copol
    cand1 = hit.nonzero()[0]
    dark1 = _poisson_stream(rng, cfg.det1.dark_rate_hz, duration_s)
    times, tags = _merge_streams((t_pairs[cand1], 0), (dark1, 1))
    keep = _dead_time_filter(times, cfg.det1.dead_time_ns)
    trigger = (times[keep], tags[keep])
    detected = keep[tags == 0]
    del times, tags, keep
    fired = driver_gate(trigger[0], cfg.driver.rate_threshold_hz, cfg.driver.disable_duration_s)

    # idler arm: each pair's draw is compared with its group's probability;
    # pulsed pairs are copolarized ones, so their comparison goes on last
    cand2 = _below_group_probability(rng.random(out=u), copol, p_copol, p_perp, out=hit)
    pulsed = cand1[detected][fired[trigger[1] == 0]]
    cand2[pulsed] = u[pulsed] < p_turned
    # The pair indices go before the idler arm's detector and the TAC run,
    # which keeps a run's peak, and so the heap a scan's points leave above
    # its buffers, low.
    del cand1, detected, fired, pulsed
    idler_offset_ns = cfg.fiber_delay_ns + cfg.electronic_delay_ns
    dark2 = _poisson_stream(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = _poisson_stream(rng, cfg.background_rate_hz, duration_s)
    analyzer = _detect(
        cfg.det2.dead_time_ns,
        (t_pairs.compress(cand2) + idler_offset_ns, 0),
        (dark2, 1),
        (backgr, 2),
    )
    starts = trigger[0] + idler_offset_ns
    return _result(cfg, duration_s, seed, "conditional", trigger, analyzer, starts, keep_records)


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

    # one array holds both per-pair draws: random(out=u) gives the bits of random(n)
    u = rng.random(len(t_pairs))
    cand1 = u < cfg.det1.eta
    cand2 = rng.random(out=u) < cfg.idler_path_loss * cfg.det2.eta
    del u
    dark1 = _poisson_stream(rng, cfg.det1.dark_rate_hz, duration_s)
    dark2 = _poisson_stream(rng, cfg.det2.dark_rate_hz, duration_s)
    backgr = _poisson_stream(rng, cfg.background_rate_hz, duration_s)
    trigger = _detect(cfg.det1.dead_time_ns, (t_pairs.compress(cand1), 0), (dark1, 1))
    analyzer = _detect(
        cfg.det2.dead_time_ns, (t_pairs.compress(cand2), 0), (dark2, 1), (backgr, 2)
    )
    return _result(cfg, duration_s, seed, "klyshko", trigger, analyzer, trigger[0], keep_records)


# ---------------------------------------------------------------------------
# scans


def _conditional_runs(duration_s: float, runs):
    """The conditional runs of ``(config, seed)`` pairs, made lazily in one :class:`_RunBuffers`,
    with the idler probabilities of all their configs computed at once."""
    runs = list(runs)
    buffers = _RunBuffers()
    rows = _idler_detect_probabilities([cfg for cfg, _ in runs])
    for (cfg, seed), row in zip(runs, rows):
        # looked up by module name at each run: the benchmark's run tap wraps it
        yield run_conditional_experiment(cfg, duration_s, seed, _buffers=buffers, _idler=row)


def scan_theta(
    cfg: BenchConfig, angles_deg, duration_s: float, seed: int
) -> list[ThetaScanPoint]:
    """One conditional run per analyzer angle, with deterministic subseeds.

    Output row order matches the input angle order; rows feed
    :func:`biphoton.calibrate.fit_theta_curve` directly.
    """
    runs = _conditional_runs(duration_s, (
        (replace(cfg, analyzer=Projector(a, cfg.analyzer.transmittance)), subseed(seed, i))
        for i, a in enumerate(angles_deg)
    ))
    # each angle as its Projector checked and stored it
    return [
        ThetaScanPoint(r.config.analyzer.angle_deg, r.singles_analyzer, r.coincidences)
        for r in runs
    ]


def scan_delay(
    cfg: BenchConfig, delays_ns, duration_s: float, seed: int
) -> list[DelayScanPoint]:
    """H- and V-analyzer singles and coincidences versus electronic delay.

    Each delay value runs the experiment twice (analyzer at 0 deg and at
    90 deg), matching a physical polarizer that sits at one angle per run.
    """
    analyzers = [Projector(angle, cfg.analyzer.transmittance) for angle in (0.0, 90.0)]
    runs = _conditional_runs(duration_s, (
        (replace(cfg, electronic_delay_ns=d, analyzer=a), subseed(seed, i, k))
        for i, d in enumerate(delays_ns)
        for k, a in enumerate(analyzers)
    ))
    # each delay takes its H run, then its V run, and is as its config checked and stored it
    return [
        DelayScanPoint(h.config.electronic_delay_ns, h.singles_analyzer, v.singles_analyzer,
                       h.coincidences, v.coincidences)
        for h, v in zip(runs, runs)
    ]


def hv_counts(points) -> CountSummary:
    """The conditional estimator's counts: the 0-deg (H) and 90-deg (V) points of a theta scan."""
    by_angle = {}
    for p in points:
        if p.theta_deg in (0.0, 90.0) and p.theta_deg in by_angle:
            raise CalibrationError(
                f"hv_counts: the scan has more than one point at {p.theta_deg:g} deg"
            )
        by_angle[p.theta_deg] = p
    if not {0.0, 90.0} <= by_angle.keys():
        raise CalibrationError("hv_counts: the scan has no point at 0 deg or none at 90 deg")
    h, v = by_angle[0.0], by_angle[90.0]
    return CountSummary(n_h=h.singles, n_v=v.singles, nc_h=h.coincidences, nc_v=v.coincidences)


def conditional_counts(cfg: BenchConfig, duration_s: float, seed: int) -> CountSummary:
    """:func:`hv_counts` of the theta scan over (0, 90) deg: subseeds (seed, 0) and (seed, 1)."""
    return hv_counts(scan_theta(cfg, (0.0, 90.0), duration_s, seed))


def klyshko_counts(res: SimResult) -> KlyshkoCounts:
    """The direct calibration's rates of a Klyshko run: the device under test is
    the trigger channel, tau its dead time and T the TAC's stop-line delay."""
    if res.experiment != "klyshko":
        raise CalibrationError(
            f"klyshko_counts: a {res.experiment} run has no Klyshko rates;"
            " use run_klyshko_experiment"
        )
    d = res.duration_s
    if not d > 0:
        raise CalibrationError("klyshko_counts: a run of zero duration has no rates")
    return KlyshkoCounts(
        n_signal=res.singles_trigger / d, n_idler=res.singles_analyzer / d,
        n_coincidence=res.coincidences / d,
        tau_ns=res.config.det1.dead_time_ns, t_ns=res.config.tac.stop_delay_ns,
    )


# The event CSV writer builds each chunk as a matrix of fixed-width byte
# cells, NUL where a cell is shorter than its column: "channel,", the time,
# ",origin\n".  A time cell is eight four-byte quads: 16 integer digits
# (2**52 has 16), "\0\0\0." and 12 fraction digits, room for any float's repr.
_INT_DIGITS, _FRACTION_DIGITS = 16, 12
_TIME_CELL = _INT_DIGITS + 4 + _FRACTION_DIGITS


def _byte_cells(texts, width: int) -> np.ndarray:
    """ASCII ``texts`` as the rows of a NUL-padded (len(texts), width) uint8 matrix."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


_CHANNEL_CELLS = _byte_cells([f"{name}," for name in CHANNELS], 1 + max(map(len, CHANNELS)))
_ORIGIN_CELLS = _byte_cells([f",{name}\n" for name in ORIGINS], 2 + max(map(len, ORIGINS)))
# "0000" to "9999", four ASCII digits per uint32, then the point quad
_POINT = 10_000
_DIGIT_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(_POINT)) + b"\0\0\0.", np.uint32)
_POW10 = np.array([10**n for n in range(_INT_DIGITS + 1)], dtype=np.uint64)
_POW5 = np.array([5**q for q in range(_FRACTION_DIGITS + 1)], dtype=np.uint64)
# fewest fraction digits q that read back any float with s fraction bits:
# 10**q > 2**s, so a q-digit decimal lies inside every rounding interval
_DIGITS_FOR_BITS = np.array([len(str(2**s)) for s in range(37)])
# row n * (_FRACTION_DIGITS + 1) + q keeps n integer digits, the point, q fraction digits
_TIME_MASKS = np.where(
    (np.arange(_TIME_CELL) >= _INT_DIGITS - np.arange(_INT_DIGITS + 1)[:, None, None])
    & (np.arange(_TIME_CELL) < _INT_DIGITS + 4 + np.arange(_FRACTION_DIGITS + 1)[:, None]),
    0xFF,
    0,
).astype(np.uint8).reshape(-1, _TIME_CELL)


def _nearest_fraction(k, s, q):
    """Nearest (ties to even) q-digit fraction j to k / 2**s: k 5**q / 2**(s-q) rounded.

    All operands are uint64: mixed with int64, numpy 1.x promotes to float64.
    """
    shift = s - q.astype(np.uint64)
    twice_rem = k * _POW5[q]  # k 5**q < 2**62 for s <= 36 and q <= ceil(s log10 2)
    j = twice_rem >> shift
    twice_rem -= j << shift  # the remainder, doubled next
    twice_rem <<= np.uint64(1)
    one = np.uint64(1) << shift
    j += (twice_rem > one) | ((twice_rem == one) & ((j & np.uint64(1)) == 1))
    return j


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
    q[k == 0] = 0  # an integer, kept out of the passes below: 2k - 1 would wrap
    # In units of 10**-q the fraction's rounding interval runs from
    # (2k - 1) 5**q / 2**(s-q+1) to (2k + 1) 5**q / 2**(s-q+1), and 5**q is
    # odd, so neither end is an integer.  With lo and hi the floors of the
    # ends, q - d digits read back iff a multiple of 10**d lies in (lo, hi].
    # Each pass drops one digit from the rows where one more can go.
    live = np.flatnonzero(k)
    shift = s[live] + np.uint64(1) - q[live].astype(np.uint64)
    twice_k, p5 = k[live] << np.uint64(1), _POW5[q[live]]  # 2k < 2**37, 5**q < 2**26
    hi = ((twice_k + np.uint64(1)) * p5) >> shift
    lo = ((twice_k - np.uint64(1)) * p5) >> shift
    while live.size:
        hi //= np.uint64(10)
        lo //= np.uint64(10)
        # about half the rows stay, where compress is several times faster than a boolean index
        fewer = lo < hi
        live, hi, lo = live.compress(fewer), hi.compress(fewer), lo.compress(fewer)
        q[live] -= 1
    return integer, n_int, _nearest_fraction(k, s, q), q


def _time_cells(x: np.ndarray) -> np.ndarray:
    """The repr of each time as a NUL-padded row of a (len(x), _TIME_CELL) uint8 matrix."""
    fixed = (x >= 2.0**16) & (x < 2.0**52)  # False for NaN
    integer, n_int, j, q = _shortest_fixed(np.where(fixed, x, 2.0**16))
    q = np.maximum(q, 1)  # an integer is written "I.0"
    # integer // 10**8, integer % 10**8, then the same of j left-aligned in 12 digits
    halves = np.empty((len(x), 4), np.uint32)
    np.divmod(integer, np.uint64(10**8), out=(halves[:, 0], halves[:, 1]))
    np.divmod(j * _POW10[_FRACTION_DIGITS - q], np.uint64(10**8), out=(halves[:, 2], halves[:, 3]))
    halves[:, 2] += np.uint32(_POINT * 10**4)  # the point quad before the fraction's
    quads = np.empty((len(x), 4, 2), np.uint32)
    np.divmod(halves, np.uint32(10**4), out=(quads[:, :, 0], quads[:, :, 1]))
    cells = _DIGIT_QUADS[quads.reshape(len(x), 8)].view(np.uint8)
    cells &= _TIME_MASKS.take(n_int * (_FRACTION_DIGITS + 1) + q, 0, mode="clip")
    # negative, zero, small, large, subnormal and non-finite times
    rest = np.flatnonzero(~fixed)
    cells[rest] = _byte_cells([repr(t) for t in x[rest].tolist()], _TIME_CELL)
    return cells


def _csv_lines(channel: np.ndarray, time_ns: np.ndarray, origin: np.ndarray) -> bytes:
    """One chunk of records as CSV lines: its row matrix without the NULs."""
    cells = [_CHANNEL_CELLS.take(channel, 0, mode="clip"), _time_cells(time_ns)]
    cells.append(_ORIGIN_CELLS.take(origin, 0, mode="clip"))
    return np.concatenate(cells, axis=1).tobytes().translate(None, b"\0")


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
        fh.writelines(_csv_lines(*chunk) for chunk in records._chunks())
