"""The engine's vectorized event passes equal the plain event loops exactly.

Dead time, the driver gate and the TAC run as numpy calls with Python only
over the events that interact, and the event CSV is written from columns in
one pass; each is compared here with the one-event-at-a-time loop it
replaces (in ``conftest``).  Times on a coarse grid make ties and exact hits
on a window edge common.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    StreamingDriverGate,
    dead_time_reference,
    event_csv_reference,
    tac_loop_reference,
    tac_reference,
)
from biphoton.simulate import (
    CHANNELS,
    ORIGINS,
    DetectionRecord,
    EventRecords,
    _ROWS_PER_CHUNK,
    _dead_time_filter,
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


@settings(max_examples=300)
@given(
    grid_times(120, 100, 1.0e8),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5]),
)
def test_driver_gate_matches_streaming_gate(times, limit, disable_s):
    gate = StreamingDriverGate(float(limit), disable_s)
    expected = [gate.on_detection(t) for t in times.tolist()]
    assert driver_gate(times, float(limit), disable_s).tolist() == expected


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


@settings(max_examples=400)
@given(
    grid_times(50, 120, 0.5),
    grid_times(50, 120, 0.5, st.sampled_from([0.0, 0.25, 0.3])),
    st.sampled_from([0.5, 1.0, 4.0, 9.0, 30.0]),
    st.one_of(
        st.sampled_from([-40.0, -9.3, -2.0, 0.0, 2.0, 9.3, 45.0]),
        st.floats(-60.0, 60.0),
    ),
)
def test_tac_matches_loops_for_any_stop_delay(starts, stops, window_ns, stop_delay_ns):
    got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
    assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
    assert got == tac_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
    assert got <= min(len(starts), len(stops))


def test_tac_matches_loop_on_dense_random_streams():
    rng = np.random.default_rng(11)
    for window_ns, stop_delay_ns in ((4.0, 9.3), (20.0, -15.0), (8.0, 0.0), (2.0, 50.0)):
        starts = np.sort(rng.uniform(0.0, 2.0e5, 20_000))
        stops = np.sort(np.concatenate([starts[::2] + stop_delay_ns, rng.uniform(0.0, 2.0e5, 15_000)]))
        got = tac_coincidences(starts, stops, window_ns, stop_delay_ns)
        assert got == tac_loop_reference(starts.tolist(), stops.tolist(), window_ns, stop_delay_ns)
        assert got > 0


# times whose repr takes every form: 0.0, integer-valued, below 1e-4 and from
# 1e16 up (exponent form), negative, and full 17-digit mantissas
event_times = st.one_of(
    st.sampled_from([0.0, -0.0, 3.0, 1.0e-5, 5.0e-324, 9.999e15, 1.0e16, 1.5e17, 1.0e22]),
    st.integers(0, 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
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
