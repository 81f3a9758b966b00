"""Tests of the window filter behind call_tail_ms.

Run from the repository root: python -m pytest benchmark/test_quiet.py
"""
from run import WINDOW_S, quiet_calls


def test_slow_spell_is_dropped_and_a_lone_slow_call_kept():
    # Ten calls per window over four windows; windows 2 and 3 are a spell in
    # which every call takes 1.6 times as long, and window 0 holds one slow call.
    step = WINDOW_S / 10
    starts = [i * step for i in range(40)]
    durations = [1.0] * 20 + [1.6] * 20
    durations[5] = 3.0
    quiet = quiet_calls([(t, d, 1) for t, d in zip(starts, durations)])
    assert sorted(d for _, d, _ in quiet) == [1.0] * 19 + [3.0]

def test_odd_window_count_keeps_the_larger_half():
    calls = [(0.0, 2.0, 1), (WINDOW_S, 1.0, 1), (2 * WINDOW_S, 3.0, 1)]
    assert sorted(quiet_calls(calls)) == [(0.0, 2.0, 1), (WINDOW_S, 1.0, 1)]
