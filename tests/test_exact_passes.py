"""The engine's vectorized event passes equal the plain event loops exactly.

Dead time, the driver gate and the TAC run as numpy calls with Python only
over the events that interact, and the event CSV is written from columns in
one pass; each is compared here with the one-event-at-a-time loop it
replaces (in ``conftest``).  The stream merge inserts the later streams into
the first and is compared with the stable sort it replaces.  Times on a
coarse grid make ties and exact hits on a window edge common.  The memoized
idler states are compared with the per-run construction they replace in the
same way, and the conditional and Klyshko runs, records included, with run
bodies built from the references.  The conditional run refills one draw
buffer and picks each pair's idler comparison with boolean arithmetic; both
are compared with the fresh draws and the float ``np.where`` they replace.
Event times drawn into a given array, a scan's shared one included, are
compared bit for bit with the sorted ``Generator.uniform`` draws they replace.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    StreamingDriverGate,
    conditional_run_reference,
    dead_time_reference,
    event_csv_reference,
    idler_detect_probabilities_reference,
    idler_group_states_reference,
    klyshko_run_reference,
    merge_streams_reference,
    tac_loop_reference,
    tac_reference,
)
from biphoton import simulate
from biphoton.bench import (
    FAILURE_MODELS,
    BenchConfig,
    DetectorParams,
    DriverPolicy,
    PockelsParams,
    TacParams,
)
from biphoton.polarization import STATE_KINDS, Projector
from biphoton.simulate import (
    CHANNELS,
    ORIGINS,
    DetectionRecord,
    EventRecords,
    _ROWS_PER_CHUNK,
    _dead_time_filter,
    _merge_streams,
    driver_gate,
    tac_coincidences,
    write_event_csv,
)


def grid_times(max_size: int, span: int, step: float, offset=st.just(0.0)):
    """Sorted event times ``offset + k * step`` with ties allowed."""
    return st.tuples(st.lists(st.integers(0, span), max_size=max_size), offset).map(
        lambda drawn: drawn[1] + np.array(sorted(drawn[0]), dtype=float) * step
    )


@st.composite
def chained_stream(draw):
    """Chains of 1 to 16 events, closer than the dead time inside a chain."""
    dead_ns = draw(st.sampled_from([1.0, 4.0, 40.0, 45.5]))
    t = draw(st.floats(0.0, 1.0e9))
    times = []
    for length in draw(st.lists(st.integers(1, 16), max_size=10)):
        t += dead_ns * draw(st.sampled_from([1.0, 1.5, 4.0]))
        times.append(t)
        for _ in range(length - 1):
            # a gap of exactly dead_ns is live; 0 is a tie
            t += dead_ns * draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
            times.append(t)
    return np.array(times), dead_ns


@given(
    grid_times(80, 60, 0.5, st.floats(0.0, 1.0e10)),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
)
# no dead time on tied times, an empty stream and a lone event
@example(times=np.array([1.0, 1.0, 1.0, 2.0]), dead_ns=0.0)
@example(times=np.empty(0), dead_ns=0.0)
@example(times=np.empty(0), dead_ns=3.7)
@example(times=np.array([5.0]), dead_ns=3.7)
def test_dead_time_matches_loop_on_tied_streams(times, dead_ns):
    assert _dead_time_filter(times, dead_ns).tolist() == dead_time_reference(times, dead_ns).tolist()


@settings(max_examples=300)
@given(chained_stream())
def test_dead_time_matches_loop_on_chains_of_every_length(stream):
    times, dead_ns = stream
    keep = _dead_time_filter(times, dead_ns)
    assert keep.tolist() == dead_time_reference(times, dead_ns).tolist()
    kept = times[keep]
    # what survives is spaced by at least the dead time, so a second pass keeps it all
    assert not np.any(kept[1:] < kept[:-1] + dead_ns)
    assert _dead_time_filter(kept, dead_ns).all()


@st.composite
def tagged_streams(draw):
    """One to four grid-time streams, often empty, each tagged by one integer or
    by an array of one integer per event (-1 included)."""
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        times = draw(grid_times(30, 20, 0.5))
        per_event = st.lists(st.integers(-1, 10**6), min_size=len(times), max_size=len(times))
        tag = draw(st.one_of(st.integers(-1, 3), per_event.map(np.array)))
        streams.append((times, tag))
    return streams


EMPTY = np.array([])
_rng = np.random.default_rng(5)
# on a grid of 200 times, so ties within and across streams are common
LARGE = [np.sort(_rng.integers(0, 200, n)).astype(float) for n in (3000, 50, 2000)]


@settings(max_examples=300)
@given(tagged_streams())
@example(streams=[(EMPTY, 0)])
@example(streams=[(EMPTY, 0), (EMPTY, 1), (EMPTY, 2)])
@example(streams=[(np.array([1.0, 1.0, 2.0]), np.array([-1, 7, -1]))])
@example(streams=[(EMPTY, 0), (np.array([1.0, 2.0]), 1), (np.array([0.5, 2.0]), 2)])
@example(streams=[(np.array([1.0, 2.0]), 0), (EMPTY, 1), (np.array([2.0, 2.0]), 2)])
@example(streams=[(np.array([1.0, 2.0]), 0), (np.array([2.0, 3.0]), 1), (EMPTY, 2)])
# one later event takes np.insert's scalar branch: tied with a pair time, before
# and after every pair.  An empty first stream takes the insertion path only
# with events in two later streams, here one each.
@example(streams=[(np.array([1.0, 2.0, 2.0, 3.0]), 0), (np.array([2.0]), 1)])
@example(streams=[(np.array([1.0, 2.0]), np.array([4, 9])), (np.array([0.5]), -1)])
@example(streams=[(np.array([1.0, 2.0]), 0), (EMPTY, 1), (np.array([2.5]), 2)])
@example(streams=[(EMPTY, 0), (np.array([1.0]), 1), (np.array([0.5]), 2)])
@example(streams=[(LARGE[0], np.arange(3000)), (LARGE[1], -1)])
@example(streams=[(LARGE[1], 0), (LARGE[0], 1), (LARGE[2], 2)])
@example(streams=[(LARGE[2], 0), (EMPTY, 1), (LARGE[0], 2)])
def test_merge_matches_the_stable_sort(streams):
    times, tags = _merge_streams(*streams)
    expected_times, expected_tags = merge_streams_reference(*streams)
    # origin tags are one byte, as EventRecords stores them; pair indices need int64
    pair_indices = any(isinstance(tag, np.ndarray) for _, tag in streams)
    assert times.dtype == np.float64 and tags.dtype == (np.int64 if pair_indices else np.int8)
    assert np.array_equal(times, expected_times)
    assert np.array_equal(tags, expected_tags)


@settings(max_examples=400)
@given(
    grid_times(120, 100, 1.0e8),
    st.data(),
    st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]),
)
def test_driver_gate_matches_streaming_gate(times, data, disable_s):
    # integer and fractional limits, limits next to, at and above the number
    # of detections, and no limit at all
    n = len(times)
    limit = data.draw(
        st.one_of(
            st.integers(1, 6).map(float),
            st.sampled_from([0.5, 2.5, 3.7, math.inf]),
            st.sampled_from([n - 1.0, n - 0.5, float(n), n + 0.5, n + 1.0]).filter(lambda x: x > 0),
        )
    )
    gate = StreamingDriverGate(limit, disable_s)
    expected = [gate.on_detection(t) for t in times.tolist()]
    assert driver_gate(times, limit, disable_s).tolist() == expected


def test_driver_gate_walks_several_disable_episodes():
    # three bursts of 8 detections, 3 s apart, against a 5-per-second limit;
    # each burst's 6th detection disables the gate for 1 s, and a detection
    # exactly 1 s later finds it live again
    burst = np.append(np.arange(8) * 1.0e7, 5.0e7 + 1.0e9)
    times = np.concatenate([b * 3.0e9 + burst for b in range(3)])
    fired = driver_gate(times, 5.0, 1.0)
    gate = StreamingDriverGate(5.0, 1.0)
    assert fired.tolist() == [gate.on_detection(t) for t in times.tolist()]
    assert fired.tolist() == ([True] * 5 + [False] * 3 + [True]) * 3


TAC_STREAMS = (
    grid_times(50, 120, 0.5),
    grid_times(50, 120, 0.5, st.sampled_from([0.0, 0.25, 0.3])),
    st.sampled_from([0.5, 1.0, 4.0, 9.0, 30.0]),
    st.one_of(
        st.sampled_from([-40.0, -9.3, -2.0, 0.0, 2.0, 9.3, 45.0]),
        st.floats(-60.0, 60.0),
    ),
)


@settings(max_examples=400)
@given(*TAC_STREAMS)
# no starts against stops, and no stops
@example(starts=EMPTY, stops=np.array([1.0, 2.0]), window_ns=4.0, stop_delay_ns=0.0)
@example(starts=np.array([1.0, 2.0]), stops=EMPTY, window_ns=4.0, stop_delay_ns=0.0)
def test_tac_matches_loops_for_any_stop_delay(starts, stops, window_ns, stop_delay_ns):
    got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
    assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
    assert got == tac_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
    assert got <= min(len(starts), len(stops))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@settings(max_examples=200)
@given(*TAC_STREAMS)
# no stops, with runs of dependent starts (0.5 and 1.0 after 0.0, 10.5 after
# 10.0) on every side of a slice edge: each slice takes the one pass
@example(
    starts=np.array([0.0, 0.5, 1.0, 10.0, 10.5, 20.0]), stops=EMPTY, window_ns=4.0, stop_delay_ns=0.0
)
@example(
    starts=np.array([0.0, 0.5, 1.0, 10.0, 10.5, 20.0]), stops=EMPTY, window_ns=4.0, stop_delay_ns=-9.3
)
def test_tac_matches_loops_in_slices_of_a_few_starts(rows, starts, stops, window_ns, stop_delay_ns):
    # runs of dependent starts, and the start before each run, fall on every
    # side of a slice edge
    with mock.patch.object(simulate, "_ROWS_PER_CHUNK", rows):
        got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
    assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
    assert got == tac_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_tac_merge_ties_and_window_ends_in_slices(rows):
    # windows [t - 2, t + 2] on an integer grid: the stops on the openings
    # of 0, 30 and 60 and on the closing of 10 match; 20's stop lies past
    # its window and 21 arrives while 20 is busy, so 23 takes that stop; the
    # first stop of 40 and 50 is 60's, past their windows, and 70 and 80
    # have none (the merge's +inf).  A slice's last start has the last stop
    # of the slice's merge range as its first stop: with 2 rows the tie at
    # 28 for slice 21-23-30, with 7 rows 58 for slice 0..40
    starts = np.array([0.0, 10.0, 20.0, 21.0, 23.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0])
    stops = np.array([-2.0, 12.0, 23.0, 28.0, 58.0])
    with mock.patch.object(simulate, "_ROWS_PER_CHUNK", rows):
        got = tac_coincidences(starts, stops, 4.0, 0.0)
    assert got == tac_loop_reference(starts.tolist(), stops.tolist(), 4.0, 0.0) == 5
    assert got == tac_reference(starts.tolist(), stops.tolist(), 4.0, 0.0)


def test_tac_matches_loop_on_dense_random_streams():
    rng = np.random.default_rng(11)
    # (starts, stops taken from starts[::step], further random stops): about
    # 5:4 as at the bench, then stops outnumbering starts 10:1, and the reverse
    for n_starts, step, n_random in ((20_000, 2, 15_000), (2_000, 1, 18_000), (20_000, 20, 1_000)):
        for window_ns, stop_delay_ns in ((4.0, 9.3), (20.0, -15.0), (8.0, 0.0), (2.0, 50.0)):
            starts = np.sort(rng.uniform(0.0, 2.0e5, n_starts))
            stops = np.sort(
                np.concatenate([starts[::step] + stop_delay_ns, rng.uniform(0.0, 2.0e5, n_random)])
            )
            got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
            assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
            assert got > 0


def test_tac_matches_loop_across_slice_edges():
    # several full slices of bench-like starts, with a burst of starts closer
    # than the window at three slice edges: one whose head is the last start
    # of a slice, one that straddles the edge, and one that ends before it
    rng = np.random.default_rng(12)
    gaps = rng.exponential(2.0e3, 3 * _ROWS_PER_CHUNK + 5_000)  # gaps[i] leads to start i
    for k, (first, last) in enumerate(((0, 6), (-4, 5), (-7, 0)), start=1):
        edge = k * _ROWS_PER_CHUNK
        gaps[edge + first : edge + last] = rng.choice([0.0, 1.0, 2.5], last - first)
    starts = np.cumsum(gaps)
    stops = np.sort(np.concatenate([starts[::2] + 9.3, rng.uniform(0.0, starts[-1], 20_000)]))
    for window_ns, stop_delay_ns in ((4.0, 9.3), (8.0, 0.0), (20.0, -15.0)):
        got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
        assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
        assert got > 0


def test_tac_with_every_stop_outside_every_window():
    # the stops-side search puts a stop below every lo in bin 0 and one above
    # every hi in bin len(lo)
    starts = np.arange(50) * 3.0
    below, above = starts - 1.0e3, starts + 1.0e3
    for stops in (below, above, np.concatenate([below, above])):
        for stop_delay_ns in (0.0, 9.3):
            got = tac_coincidences(starts, stops, 4.0, stop_delay_ns)
            assert got == tac_loop_reference(starts.tolist(), stops.tolist(), 4.0, stop_delay_ns) == 0


# times whose repr takes every form: 0.0, integer-valued, below 1e-4 and from
# 1e16 up (exponent form), negative, and full 17-digit mantissas; and times
# from 2**16 to 2**52, whose digits the writer finds by integer arithmetic
event_times = st.one_of(
    st.sampled_from([0.0, -0.0, 3.0, 1.0e-5, 5.0e-324, 9.999e15, 1.0e16, 1.5e17, 1.0e22]),
    st.integers(0, 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(2**16, 2**52),
)


def assert_columns_match_rows(rows, out):
    """Columns built from (channel, time, origin) index rows iterate and write as the rows."""
    channel, time_ns, origin = zip(*rows) if rows else ((), (), ())
    records = EventRecords(
        np.array(channel, dtype=np.int8),
        np.array(time_ns, dtype=float),
        np.array(origin, dtype=np.int8),
    )
    expected = [DetectionRecord(CHANNELS[c], t, ORIGINS[o]) for c, t, o in rows]
    assert list(records) == expected
    write_event_csv(records, out / "columns.csv")
    event_csv_reference(expected, out / "rows.csv")
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(st.integers(0, len(CHANNELS) - 1), event_times, st.integers(0, len(ORIGINS) - 1)),
        max_size=40,
    )
)
@example(rows=[])
@example(rows=[(0, 0.0, 0), (0, 3.0, 1), (1, 1.0e-5, 2), (1, 1.0e16, 0), (1, 2.5e-7, 1)])
def test_event_csv_matches_row_writer(tmp_path_factory, rows):
    assert_columns_match_rows(rows, tmp_path_factory.mktemp("csv"))


def test_event_csv_matches_row_writer_across_chunks(tmp_path):
    n = 2 * _ROWS_PER_CHUNK + 5
    rng = np.random.default_rng(3)
    rows = zip(
        rng.integers(0, len(CHANNELS), n).tolist(),
        rng.uniform(0.0, 4.0e9, n).tolist(),
        rng.integers(0, len(ORIGINS), n).tolist(),
    )
    assert_columns_match_rows(list(rows), tmp_path)


def test_event_csv_times_match_repr_in_every_binade(tmp_path):
    # 2**20 random significands spread over the binades from 2**16 to 2**52,
    # and in each binade: ties, I + m / 2**t with m odd and t up to 20,
    # whose last digit 5 puts a shorter decimal exactly halfway; times one
    # ulp below the next integer, where rounding carries; and the power of
    # two with its neighbours; plus both edges of the range the writer
    # formats without repr
    rng = np.random.default_rng(12)
    exponents = np.arange(16, 52)
    per_binade = -(-(1 << 20) // len(exponents))
    mantissas = (1 << 52) + rng.integers(0, 1 << 52, (len(exponents), per_binade), dtype=np.int64)
    random_times = np.ldexp(mantissas.astype(float), exponents[:, None] - 52)
    integers = np.floor(random_times[:, :64])
    # I + m / 2**t is a float when t is at most the binade's 52 - e fraction bits
    bits = 1 + rng.integers(0, 1 << 20, integers.shape) % np.minimum(20, 52 - exponents)[:, None]
    fractions = (2 * rng.integers(0, 1 << 19, integers.shape) + 1) % (1 << bits) / 2.0**bits
    ties = integers + fractions
    assert np.all(ties - integers == fractions)  # each tie is exact
    powers = np.ldexp(1.0, exponents)
    edges = [2.0**16, np.nextafter(2.0**16, 0), 2.0**52, np.nextafter(2.0**52, 0)]
    times = np.concatenate(
        [
            random_times.ravel(),
            ties.ravel(),
            np.nextafter(integers + 1, 0).ravel(),
            powers,
            np.nextafter(powers, 0),
            np.nextafter(powers, np.inf),
            edges,
        ]
    )
    assert random_times.size >= 10**6
    records = EventRecords(
        np.zeros(len(times), np.int8), times, np.zeros(len(times), np.int8)
    )
    write_event_csv(records, tmp_path / "events.csv")
    lines = (tmp_path / "events.csv").read_text().splitlines()
    expected = ["channel,time_ns,origin", *map("trigger,{!r},pair".format, times.tolist())]
    assert len(lines) == len(expected)
    assert [(got, want) for got, want in zip(lines, expected) if got != want][:5] == []


# idler states: signed zeros, negative angles, and idler delays on the pulse
# rise, flat top (0 to 55 ns after the default 50 ns fiber delay), fall and
# after it
signed_angles = st.one_of(
    st.sampled_from([0.0, -0.0, 90.0, -90.0, 45.0, -45.0, 180.0]),
    st.floats(-360.0, 360.0),
)


@st.composite
def idler_configs(draw):
    return BenchConfig(
        source_kind=draw(st.sampled_from(STATE_KINDS)),
        state_visibility=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        trigger_projector=Projector(draw(signed_angles), draw(st.sampled_from([1.0, 0.9]))),
        analyzer=Projector(draw(signed_angles)),
        pockels=PockelsParams(
            q=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            failure_model=draw(st.sampled_from(FAILURE_MODELS)),
            rotation_angle_deg=draw(signed_angles),
        ),
        fiber_delay_ns=draw(st.sampled_from([0.0, 2.5, 50.0])),
        electronic_delay_ns=draw(
            st.one_of(st.sampled_from([0.0, 55.0, 2000.0, 3555.0, 3700.0]), st.floats(0.0, 5000.0))
        ),
    )


def counts(res):
    return res.singles_trigger, res.singles_analyzer, res.coincidences


OFF_PULSE = BenchConfig(electronic_delay_ns=4000.0)


@settings(max_examples=150)
@given(st.lists(idler_configs(), min_size=1, max_size=4), st.lists(st.integers(0, 3), max_size=6))
@example(
    # off the pulse, rotation angles of 90 and -90 give phi = 0.0 and -0.0, one analyzer turn
    cfgs=[OFF_PULSE, replace(OFF_PULSE, pockels=PockelsParams(rotation_angle_deg=-90.0))],
    order=[0, 1, 0],
)
@example(
    cfgs=[BenchConfig(trigger_projector=Projector(0.0)), BenchConfig(trigger_projector=Projector(-0.0))],
    order=[0, 1],
)
def test_memoized_idler_states_equal_the_reference(cfgs, order):
    # each config is asked for twice in a row, so the second call is a memo hit
    for cfg in [cfgs[i % len(cfgs)] for i in order] or cfgs:
        expected, p_expected = idler_group_states_reference(cfg)
        reference = idler_detect_probabilities_reference(cfg, expected)
        for _ in range(2):
            hits = simulate._idler_group_states.cache_info().hits
            p_pass, probabilities = simulate._idler_detect_probabilities(cfg)
            assert p_pass == p_expected
        assert simulate._idler_group_states.cache_info().hits == hits + 1
        # the memo's entry holds the states of groups 0 and 1 bit for bit
        trigger = (cfg.source_kind, cfg.state_visibility, cfg.trigger_projector.angle_deg)
        _, *states = simulate._idler_group_states(trigger, cfg.pockels.failure_model, cfg.pockels.q)
        assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(states, expected[:2]))
        assert np.array_equal(np.clip(probabilities[:2], 0.0, 1.0), reference[:2])
        # no rotated state is left to compare, so group 2 is compared as a
        # probability: the analyzer turned by -phi sums its products in another
        # order, within 16 ulps of gain * eta2, the probability's upper bound
        # (at most 10 in 90,000 random configs)
        scale = cfg.idler_path_loss * cfg.analyzer.transmittance * cfg.det2.eta
        assert abs(np.clip(probabilities[2], 0.0, 1.0) - reference[2]) <= 16 * math.ulp(scale)
        assert counts(simulate.run_conditional_experiment(cfg, 0.002, 7)) == (
            conditional_run_reference(cfg, 0.002, 7)[0]
        )


@st.composite
def conditional_run_configs(draw):
    """Configs over gate tripping, darks and background, both failure models and
    idler delays on and off the pulse.

    In the 0.02 s runs below, 3e6 pairs/s gives about 13,000 trigger detections,
    more than the 10 kHz gate allows in its one-second window; 2e4 and 2e5 do not.
    """
    rates = st.sampled_from([0.0, 2.0e4])
    return BenchConfig(
        pair_rate_hz=draw(st.sampled_from([2.0e4, 2.0e5, 3.0e6])),
        source_kind=draw(st.sampled_from(STATE_KINDS)),
        state_visibility=draw(st.sampled_from([0.7, 1.0])),
        trigger_projector=Projector(90.0, draw(st.sampled_from([1.0, 0.9]))),
        analyzer=Projector(draw(st.sampled_from([0.0, 45.0, 90.0]))),
        pockels=PockelsParams(
            q=draw(st.sampled_from([0.832, 1.0])),
            failure_model=draw(st.sampled_from(FAILURE_MODELS)),
        ),
        electronic_delay_ns=draw(st.sampled_from([0.0, 55.0, 2000.0, 4000.0])),
        driver=DriverPolicy(disable_duration_s=draw(st.sampled_from([0.0, 0.004, 1.0]))),
        det1=DetectorParams(
            eta=0.45, dead_time_ns=draw(st.sampled_from([0.0, 40.0])), dark_rate_hz=draw(rates)
        ),
        det2=DetectorParams(eta=0.4, dead_time_ns=40.0, dark_rate_hz=draw(rates)),
        background_rate_hz=draw(rates),
    )


def turned_analyzer_config(failure_model):
    """The analyzer at 45 deg and phi about 40 deg (2000 ns into the pulse's fall),
    where the sign of the turn and the bernoulli_identity weight each change counts."""
    return BenchConfig(
        pair_rate_hz=2.0e5,
        analyzer=Projector(45.0),
        pockels=PockelsParams(q=0.832, failure_model=failure_model),
        electronic_delay_ns=2000.0,
    )


@settings(max_examples=60)
@given(conditional_run_configs(), st.integers(0, 2**32))
@example(cfg=turned_analyzer_config("uniform_depolarizer"), seed=0)
@example(cfg=turned_analyzer_config("uniform_depolarizer"), seed=1)
@example(cfg=turned_analyzer_config("bernoulli_identity"), seed=0)
@example(cfg=turned_analyzer_config("bernoulli_identity"), seed=1)
@example(cfg=BenchConfig(pair_rate_hz=3.0e6, driver=DriverPolicy(disable_duration_s=0.004)), seed=1)
@example(
    # fired dark trigger clicks, whose pair index -1 must not pulse the last pair
    cfg=BenchConfig(pair_rate_hz=2.0e4, det1=DetectorParams(eta=0.45, dead_time_ns=40.0, dark_rate_hz=2.0e4)),
    seed=2,
)
@example(
    # no pairs, so an empty draw buffer, next to dark and background streams on both arms
    cfg=BenchConfig(
        pair_rate_hz=0.0,
        det1=DetectorParams(eta=0.45, dead_time_ns=40.0, dark_rate_hz=2.0e4),
        det2=DetectorParams(eta=0.4, dead_time_ns=40.0, dark_rate_hz=2.0e4),
        background_rate_hz=2.0e4,
    ),
    seed=3,
)
def test_conditional_run_matches_the_group_reference(cfg, seed):
    res = simulate.run_conditional_experiment(cfg, 0.02, seed, keep_records=True)
    expected_counts, expected_records = conditional_run_reference(cfg, 0.02, seed)
    assert counts(res) == expected_counts
    assert res.records == expected_records


@settings(max_examples=50)
@given(st.integers(0, 2**32), st.integers(0, 50_000))
@example(seed=0, n=0)
def test_refilled_draw_buffer_gives_the_bits_of_fresh_draws(seed, n):
    fresh = np.random.default_rng(seed)
    expected = [fresh.random(n) for _ in range(3)]
    refill = np.random.default_rng(seed)
    u = refill.random(n)
    draws = [u.copy()] + [refill.random(out=u).copy() for _ in range(2)]
    assert all(np.array_equal(a, b) for a, b in zip(draws, expected))
    # the generator is left in the same state too
    assert refill.random() == fresh.random()


# draws and probabilities on one grid, so a probability often equals a drawn
# value; probabilities also below 0 and above 1
GRID = [k / 8 for k in range(8)]
PROBABILITIES = st.sampled_from(GRID + [-0.5, -0.0, 1.0, 1.5, math.nextafter(0.5, 1.0)])


@settings(max_examples=100)
@given(
    st.floats(0.5, 1.0e6),
    st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    st.integers(0, 2**32),
    st.sampled_from(["fresh", "holder", "grown holder"]),
)
@example(rate_hz=2.0e4, duration_s=0.0, seed=0, into="holder")
@example(rate_hz=1.0e6, duration_s=0.05, seed=1, into="grown holder")
def test_pair_times_drawn_into_an_array_are_the_bits_of_sorted_uniform_draws(
    rate_hz, duration_s, seed, into
):
    # random(out=t), scaled in place, against numpy's 0.0 + D * u; into a
    # fresh array, a holder's first block or a view of a larger one
    buffers = simulate._RunBuffers()
    if into == "grown holder":
        buffers.pair_times(60_000)
    empty = np.empty if into == "fresh" else buffers.pair_times
    rng = np.random.default_rng(seed)
    times = simulate._poisson_stream(rng, rate_hz, duration_s, empty)
    ref = np.random.default_rng(seed)
    expected = np.sort(ref.uniform(0.0, duration_s * 1.0e9, ref.poisson(rate_hz * duration_s)))
    assert times.dtype == np.float64
    assert np.array_equal(times.view(np.uint64), expected.view(np.uint64))
    # the generator is left in the same state, so the run's later draws line up
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.sampled_from(GRID), st.booleans()), max_size=40),
    PROBABILITIES,
    PROBABILITIES,
)
@example(draws=[], p_copol=0.5, p_perp=0.5)
@example(draws=[(0.5, True), (0.5, False), (0.25, True), (0.25, False)], p_copol=0.5, p_perp=0.25)
def test_group_selection_equals_the_float_choice(draws, p_copol, p_perp):
    u = np.array([d for d, _ in draws], dtype=float)
    copol = np.array([c for _, c in draws], dtype=bool)
    out = np.empty(len(u), dtype=bool)
    got = simulate._below_group_probability(u, copol, p_copol, p_perp, out=out)
    assert got is out
    assert np.array_equal(got, u < np.where(copol, p_copol, p_perp))


@st.composite
def klyshko_run_configs(draw):
    """Configs over pair rates, dead times (none, the bench's, and long enough to
    chain at 1e6 pairs/s), darks and background on either arm, and TAC windows."""
    rates = st.sampled_from([0.0, 2.0e4])
    dead_times = st.sampled_from([0.0, 45.0, 400.0])
    return BenchConfig(
        pair_rate_hz=draw(st.sampled_from([2.0e4, 2.0e5, 1.0e6])),
        idler_path_loss=draw(st.sampled_from([0.9, 1.0])),
        det1=DetectorParams(
            eta=draw(st.sampled_from([0.45, 1.0])),
            dead_time_ns=draw(dead_times),
            dark_rate_hz=draw(rates),
        ),
        det2=DetectorParams(eta=0.4, dead_time_ns=draw(dead_times), dark_rate_hz=draw(rates)),
        tac=TacParams(
            window_ns=draw(st.sampled_from([4.0, 50.0])),
            stop_delay_ns=draw(st.sampled_from([0.0, 9.3, 45.0])),
        ),
        background_rate_hz=draw(rates),
    )


@settings(max_examples=60)
@given(klyshko_run_configs(), st.integers(0, 2**32))
@example(
    # the klyshko_highrate bench, shortened
    cfg=BenchConfig(
        pair_rate_hz=1.0e6,
        idler_path_loss=0.9,
        det1=DetectorParams(eta=0.45, dead_time_ns=45.0, dark_rate_hz=500.0),
        det2=DetectorParams(eta=0.4, dead_time_ns=40.0, dark_rate_hz=800.0),
        background_rate_hz=2000.0,
    ),
    seed=0,
)
def test_klyshko_run_matches_the_reference(cfg, seed):
    res = simulate.run_klyshko_experiment(cfg, 0.02, seed, keep_records=True)
    expected_counts, expected_records = klyshko_run_reference(cfg, 0.02, seed)
    assert counts(res) == expected_counts
    assert res.records == expected_records
