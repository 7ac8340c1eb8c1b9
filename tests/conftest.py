"""Shared helpers for the test suite."""

from itertools import islice

import numpy as np
import pytest
from hypothesis import strategies as st

from exitsim import OracleEstimate, bandit

from reference import (
    ListSink,
    TokenTrace,
    decide_exit,
    image_from_traces,
    image_stream,
    initialize,
    reward,
    run_caption,
    token_traces,
    ucb_select,
    update,
)


# The failure message of every byte pin: the environment its bytes were
# recorded in, and what else may move them.
PINNED_ON = (
    "pinned bytes were recorded on Python 3.11.7 with numpy 2.4.6; another "
    "numpy may change them (NEP 19 lets Generator streams change between "
    "releases, and the oracle rests on numpy's private pairwise-sum tree), "
    "and so may another Python"
)


# Any JSON value: the fuzz input for every JSON reader.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


def make_trace(confidences, token_ids=None):
    """Build a TokenTrace; token ids default to the layer index."""
    if token_ids is None:
        token_ids = list(range(1, len(confidences) + 1))
    return TokenTrace.from_arrays(confidences, token_ids)


def make_image(conf_rows, image_id=0, targets=None):
    traces = tuple(make_trace(row) for row in conf_rows)
    return image_from_traces(image_id, traces, targets)


def span_scored(block, actions, params):
    """The oracle's estimates for one layer-major (layers, samples) block,
    scored as ``shared_oracles`` scores its draw: ``bandit._span_sums``
    over each of ``bandit._pairwise_spans``, added by
    ``bandit._pairwise_sum``."""
    samples = block.shape[1]
    edges = np.cumsum([0, *bandit._pairwise_spans(samples)])
    sums = (
        bandit._span_sums(block[:, lo:hi], actions, params)
        for lo, hi in zip(edges, edges[1:])
    )
    means = bandit._pairwise_sum(samples, sums) / samples
    return [
        OracleEstimate(actions.thresholds, tuple(m.tolist()), samples) for m in means
    ]


def reference_oracle_means(conf, thresholds, params):
    """The per-arm argmax oracle the running-max kernel replaced: for
    each threshold, the exits of a (samples, layers) ``conf`` from a
    fresh (samples, layers) bool block, then each reward shape's mean.
    ``result[j][k]`` is arm k's mean under ``params[j]``."""
    rows = np.arange(len(conf))
    means = [[] for _ in params]
    for alpha in thresholds:
        clears = conf >= alpha
        clears[:, -1] = True
        exits = clears.argmax(axis=1)
        gain = conf[rows, exits] - conf[rows, 0]
        for p, row in zip(params, means):
            latency = np.asarray(p.latency)[exits]
            row.append(float((gain - p.mu * latency).mean()))
    return means


def reference_adaptive_run(images, actions, params, gamma, max_len, eos_id, budget):
    """The scalar adaptive loop the driver is checked against: initialize,
    then one ``run_caption`` per image with a closure that selects an arm,
    applies the scalar exit rule, scores the reward and folds it."""
    log = ListSink()
    image_iter = iter(images)
    state = initialize(actions, next(image_iter), params, gamma, log)
    captions = []
    for image in image_iter:
        if state.t >= budget:
            break

        def adapt(trace):
            alpha = ucb_select(state)
            decision = decide_exit(trace, alpha)
            r = reward(decision, params)
            update(state, alpha, r)
            log.append(state.t, alpha, decision.exit_layer, r)
            return decision

        traces = islice(token_traces(image), budget - state.t)
        caption = run_caption(traces, adapt, max_len, eos_id, image.image_ids[0])
        if len(caption):
            captions.append(caption)
    return captions, log, state


def assert_cell_matches_reference(cell, base, sigma, gamma, max_len, budget):
    """Check an ``AdaptiveCell`` played on ``base``'s stream at level
    ``sigma`` against ``reference_adaptive_run`` over ``image_stream(base,
    sigma)``: state, exit histogram, left-to-right reward sum, hits,
    emitted count, and the rounds when the cell's sink is a ``ListSink``.
    Returns the reference captions."""
    images = {}
    stream = image_stream(base, sigma, base.stream_rng(0), max_len)
    captions, log, state = reference_adaptive_run(
        (images.setdefault(image.image_ids[0], image) for image in stream),
        cell.actions, cell.params, gamma, max_len, base.eos_id, budget,
    )
    hist = [0] * cell.params.n_layers
    for layer in log.exit_layers:
        hist[layer - 1] += 1
    reward_sum = 0.0
    for r in log.rewards:
        reward_sum += r
    hits = sum(
        decision.token_id == images[caption.image_id].targets[pos]
        for caption in captions
        for pos, decision in enumerate(caption.tokens)
    )
    assert (cell.q, cell.pulls, cell.t) == (state.q, state.pulls, state.t)
    assert cell.hist == hist
    assert cell.reward_sum == reward_sum
    assert cell.hits == hits
    assert cell.emitted == sum(len(caption) for caption in captions)
    if cell.sink is not None:
        assert cell.sink == log
    return captions


@pytest.fixture
def rng():
    return np.random.default_rng(0)
