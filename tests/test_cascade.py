"""Exit rule, caption loop, and speedup accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim import TraceFormatError, speedup_ratio
from exitsim.cascade import exit_layer_indices

from reference import (
    CaptionRun,
    TokenTrace,
    decide_exit,
    run_caption,
)

from conftest import make_trace


# ---------------------------------------------------------------------------
# decide_exit


def test_exit_at_first_clearing_layer():
    trace = make_trace([0.3, 0.65, 0.9])
    decision = decide_exit(trace, 0.6)
    assert decision.exit_layer == 2
    assert decision.confidence == 0.65
    assert decision.token_id == 2
    assert decision.first_layer_confidence == 0.3


def test_final_layer_is_unconditional_fallback():
    # No layer clears 0.6, including the last one: exit at N regardless.
    trace = make_trace([0.2, 0.3, 0.4])
    decision = decide_exit(trace, 0.6)
    assert decision.exit_layer == 3
    assert decision.confidence == 0.4


def test_zero_threshold_always_exits_at_layer_one():
    trace = make_trace([0.0, 0.5, 0.9])
    assert decide_exit(trace, 0.0).exit_layer == 1


def test_threshold_one_needs_exact_full_confidence():
    assert decide_exit(make_trace([0.999999, 0.5]), 1.0).exit_layer == 2
    assert decide_exit(make_trace([1.0, 0.5]), 1.0).exit_layer == 1


def test_comparison_is_inclusive():
    trace = make_trace([0.6, 0.9])
    assert decide_exit(trace, 0.6).exit_layer == 1


def test_token_comes_from_the_exiting_layer():
    trace = make_trace([0.1, 0.8, 0.9], token_ids=[7, 11, 13])
    assert decide_exit(trace, 0.5).token_id == 11
    assert decide_exit(trace, 0.95).token_id == 13


@pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan])
def test_threshold_outside_unit_interval_rejected(alpha):
    with pytest.raises(ValueError):
        decide_exit(make_trace([0.5, 0.5]), alpha)
    with pytest.raises(ValueError):
        exit_layer_indices(np.array([[0.5, 0.5]]), alpha)


def test_exit_layer_indices_takes_a_threshold_grid():
    rng = np.random.default_rng(3)
    conf = rng.random((60, 6))
    conf[::7, 2] = 0.5  # ties with a grid point exit (>= is inclusive)
    conf[::11, 0] = 1.0
    alphas = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    table = exit_layer_indices(conf, alphas)
    assert table.shape == (60, 5)
    for k, alpha in enumerate(alphas):
        np.testing.assert_array_equal(table[:, k], exit_layer_indices(conf, alpha))
    assert exit_layer_indices(conf, [0.5]).shape == (60, 1)
    for bad in ([0.2, math.nan], [0.2, 1.5], np.array([-0.1, 0.5])):
        with pytest.raises(ValueError, match="outside"):
            exit_layer_indices(conf, bad)


def first_clearing_exits(conf, alpha):
    """0-based exit of each row by a plain scan: the first layer before
    the last whose confidence is >= alpha, else the last."""
    exits = []
    for row in conf:
        i = 0
        while i < len(row) - 1 and not row[i] >= alpha:
            i += 1
        exits.append(i)
    return np.array(exits)


@pytest.mark.parametrize("n_layers", [2, 7, 200])
def test_exit_layer_indices_equal_a_first_clearing_scan(n_layers):
    rng = np.random.default_rng(n_layers)
    conf = rng.random((150, n_layers))
    conf[rng.random(conf.shape) < 0.2] = np.nan  # NaN never clears
    conf[::13] = np.nan  # nothing clears: the final layer
    conf[::3, 0] = 0.25  # exact ties with grid points
    conf[::4, n_layers - 2] = 0.7
    conf[::17, n_layers // 2] = 1.0
    grid = np.array([0.7, 0.0, 1.0, 0.25, 0.5])  # unsorted, both ends
    before = conf.tobytes()
    table = exit_layer_indices(conf, grid)
    assert table.shape == (150, 5)
    for k, alpha in enumerate(grid):
        want = first_clearing_exits(conf, alpha)
        np.testing.assert_array_equal(table[:, k], want)
        np.testing.assert_array_equal(exit_layer_indices(conf, alpha), want)
        np.testing.assert_array_equal(exit_layer_indices(conf.T.copy().T, alpha), want)
    assert conf.tobytes() == before  # the caller's array is not overwritten


def test_trace_needs_two_layers():
    with pytest.raises(TraceFormatError):
        TokenTrace.from_arrays([0.5], [1])


def test_trace_rejects_bad_confidence_and_token():
    with pytest.raises(TraceFormatError):
        make_trace([0.5, 1.2])
    with pytest.raises(TraceFormatError):
        make_trace([-0.1, 0.5])
    with pytest.raises(TraceFormatError):
        TokenTrace.from_arrays([0.5, 0.5], [1, -2])
    with pytest.raises(TraceFormatError):
        TokenTrace.from_arrays([0.5, 0.5, 0.5], [1, 2])


@given(
    confs=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12
    ),
    a_lo=st.floats(min_value=0.0, max_value=1.0),
    a_hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_exit_layer_monotone_in_threshold(confs, a_lo, a_hi):
    # Raising the threshold can only push the exit deeper.
    if a_lo > a_hi:
        a_lo, a_hi = a_hi, a_lo
    trace = make_trace(confs)
    assert decide_exit(trace, a_lo).exit_layer <= decide_exit(trace, a_hi).exit_layer


@given(
    confs=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12
    ),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_exit_matches_brute_force_scan(confs, alpha):
    trace = make_trace(confs)
    expected = len(confs)
    for i, c in enumerate(confs[:-1], start=1):
        if c >= alpha:
            expected = i
            break
    assert decide_exit(trace, alpha).exit_layer == expected


def test_decide_exit_is_deterministic():
    trace = make_trace([0.31, 0.62, 0.93])
    assert decide_exit(trace, 0.6) == decide_exit(trace, 0.6)


# ---------------------------------------------------------------------------
# run_caption


def test_caption_stops_on_eos():
    traces = [
        make_trace([0.9, 0.5], token_ids=[0, 3]),  # layer 1 emits eos
        make_trace([0.9, 0.5], token_ids=[4, 5]),
    ]
    run = run_caption(traces, alpha=0.5, eos_id=0)
    assert len(run) == 1
    assert run.terminated_by_eos
    assert not run.truncated
    assert run.tokens[0].token_id == 0


def test_caption_hits_length_cap_without_eos():
    def endless():
        while True:
            yield make_trace([0.9, 0.5], token_ids=[3, 4])

    run = run_caption(endless(), alpha=0.5, max_caption_length=20)
    assert len(run) == 20
    assert not run.terminated_by_eos
    assert not run.truncated


def test_caption_marks_truncation_when_source_runs_dry():
    traces = [make_trace([0.9, 0.5], token_ids=[3, 4])] * 2
    run = run_caption(traces, alpha=0.5, max_caption_length=20)
    assert len(run) == 2
    assert run.truncated
    assert not run.terminated_by_eos


def test_caption_scripted_exits():
    # Hand-checked: layers clearing 0.7 are (2, 1, fallback 3).
    traces = [
        make_trace([0.4, 0.8, 0.9], token_ids=[1, 2, 3]),
        make_trace([0.7, 0.1, 0.9], token_ids=[4, 5, 6]),
        make_trace([0.2, 0.3, 0.5], token_ids=[7, 8, 0]),
    ]
    run = run_caption(traces, alpha=0.7, eos_id=0, image_id="img-9")
    assert [d.exit_layer for d in run.tokens] == [2, 1, 3]
    assert [d.token_id for d in run.tokens] == [2, 4, 0]
    assert run.terminated_by_eos
    assert run.image_id == "img-9"
    assert len(run) == 3


def test_caption_takes_a_per_trace_policy():
    traces = [make_trace([0.4, 0.8, 0.9]), make_trace([0.2, 0.3, 0.5])]
    seen = []

    def policy(trace):
        seen.append(trace)
        return decide_exit(trace, 0.7)

    assert run_caption(traces, policy) == run_caption(traces, 0.7)
    assert seen == traces


def test_caption_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        run_caption([], alpha=0.5, max_caption_length=0)


def test_caption_run_is_reproducible():
    traces = [make_trace([0.4, 0.8, 0.9]), make_trace([0.2, 0.3, 0.5])]
    assert run_caption(traces, 0.7) == run_caption(traces, 0.7)


def test_caption_run_is_a_plain_record():
    run = CaptionRun(image_id=1, tokens=(), terminated_by_eos=False)
    assert len(run) == 0
    assert not run.truncated


# ---------------------------------------------------------------------------
# Exit counts and speedup_ratio


def test_speedup_all_final_layer_is_one():
    counts = [0] * 11 + [50]
    assert speedup_ratio(counts) == pytest.approx(1.0, abs=1e-12)


def test_speedup_all_half_depth_is_two():
    counts = [0] * 12
    counts[5] = 50
    assert speedup_ratio(counts) == pytest.approx(2.0, abs=1e-12)


def test_speedup_mixed_hand_value():
    # 10 tokens at layer 3 and 10 at layer 12 of a 12-layer stack:
    # (20 * 12) / (10 * 3 + 10 * 12) = 240 / 150 = 1.6 exactly.
    counts = [0] * 12
    counts[2] = 10
    counts[11] = 10
    assert abs(speedup_ratio(counts) - 1.6) < 1e-12


def test_speedup_everything_at_layer_one_is_n():
    counts = [13] + [0] * 6
    assert speedup_ratio(counts) == pytest.approx(7.0, abs=1e-12)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=16),
    scale=st.integers(min_value=1, max_value=50),
)
def test_speedup_bounds_and_scale_invariance(counts, scale):
    if sum(counts) == 0:
        counts[0] = 1
    value = speedup_ratio(counts)
    assert 1.0 <= value <= len(counts) + 1e-12
    scaled = [c * scale for c in counts]
    assert speedup_ratio(scaled) == pytest.approx(value, rel=1e-12)


def test_speedup_rejects_empty_histogram():
    with pytest.raises(ValueError):
        speedup_ratio([0] * 12)


def test_histogram_record_validates_layer():
    # Counts are indexed by the exit rule's own 0-based layers, which stay
    # in [0, N - 1] at the threshold extremes and on NaN confidences, so
    # counting them never lands outside the N layers.
    conf = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [math.nan, math.nan, 0.5]])
    for alpha in (0.0, 0.5, 1.0):
        counts = np.bincount(exit_layer_indices(conf, alpha), minlength=3).tolist()
        assert len(counts) == 3
        assert sum(counts) == 3


def test_histogram_from_decisions():
    traces = [make_trace([0.9, 0.2]), make_trace([0.1, 0.2])]
    counts = [0, 0]
    for trace in traces:
        counts[decide_exit(trace, 0.5).exit_layer - 1] += 1
    assert counts == [1, 1]
    conf = np.array([trace.confidences for trace in traces])
    assert np.bincount(exit_layer_indices(conf, 0.5), minlength=2).tolist() == counts


@settings(max_examples=30)
@given(
    confs=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
        min_size=1,
        max_size=30,
    ),
    alpha=st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_total_matches_caption_length(confs, alpha):
    traces = [make_trace(row) for row in confs]
    run = run_caption(traces, alpha, max_caption_length=100, eos_id=-1)
    counts = [0] * 4
    for decision in run.tokens:
        counts[decision.exit_layer - 1] += 1
    assert sum(counts) == len(run)
