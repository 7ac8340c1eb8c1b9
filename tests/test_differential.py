"""The lockstep driver, the oracle, the exit kernel, the stream and the toy
cascade's heads against their references, on drawn cases.

Each driver case runs ``run_lockstep`` over one shared stream and checks
every cell against ``reference_adaptive_run`` (via
``assert_cell_matches_reference``): the scalar exit rule, reward and UCB
round of ``tests/reference.py`` applied one ``TokenTrace`` at a time to
the same images.  Each oracle case scores one confidence block span by
span, as ``shared_oracles`` does, and with ``reference_oracle_means``,
the per-arm argmax.  Each exit case runs the kernel over a block with NaN
cells and exact ties and checks every token against ``decide_exit``; each
stream case finishes a stack of drawn blocks and each block alone.  Each
head case checks ``head_confidences`` and ``layer_accuracies`` against
the stacked ``forward``.  Seeding is fixed, so the suite stays
deterministic.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitsim import (
    IMAGE_CHUNK,
    ActionSet,
    AdaptiveCell,
    RewardParams,
    SyntheticConfidenceModel,
    SyntheticExample,
    ToyConfig,
    draw_tokens,
    finish_tokens,
    head_confidences,
    init_cascade,
    layer_accuracies,
    run_lockstep,
)
from exitsim.cascade import LayerOutcome, exit_counts, exit_layer_indices, running_max

from conftest import assert_cell_matches_reference, reference_oracle_means, span_scored
from reference import ListSink, decide_exit, forward

GRID = ActionSet.default_grid().thresholds
SIGMAS = (0.0, 0.5, 3.0)

# 0.0 and the smallest double exit at layer 1 on any positive layer-1
# confidence, for a reward of exactly 0: two such arms tie exactly
# whenever their pulls match.
TIED = (0.0, 5e-324)

# On-grid, tying and off-grid thresholds; adding 0.0 turns -0.0 into 0.0.
arm_values = st.sampled_from(GRID + TIED) | st.floats(0.0, 1.0).map(lambda a: a + 0.0)


@st.composite
def lockstep_cases(draw):
    alphas = tuple(sorted(set(draw(st.lists(arm_values, min_size=1, max_size=5)))))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        # No eos lets captions run to the cap, so chunks fill sooner.
        "eos_prob": draw(st.sampled_from((0.08, 0.0))),
        "alphas": alphas,
        "gamma": draw(st.floats(1.0, 1e3)),
        "max_len": draw(st.integers(len(alphas), 8)),
        # Initialization spends one round per arm, and one must follow.
        "budget": draw(st.integers(len(alphas) + 1, 400)),
        "sigmas": draw(
            st.lists(st.sampled_from(SIGMAS), min_size=1, max_size=3, unique=True)
        ),
        "lam": draw(st.floats(0.0, 5.0)),
        "mu": draw(st.none() | st.floats(1e-3, 10.0)),
        "keep_log": draw(st.booleans()),
    }


def fixed_case(alphas, max_len, budget, eos_prob=0.0):
    return {
        "seed": 5, "eos_prob": eos_prob, "alphas": alphas, "gamma": 1.0,
        "max_len": max_len, "budget": budget, "sigmas": SIGMAS, "lam": 1.0,
        "mu": None, "keep_log": True,
    }


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(lockstep_cases())
# Budgets that end past one chunk: at eos_prob 0 every caption runs to
# the cap, so a chunk holds IMAGE_CHUNK * max_len rounds.
@example(fixed_case((0.5,), 1, 3 * IMAGE_CHUNK + 1))
@example(fixed_case((0.2, 0.5, 0.8), 3, 2 * 3 * IMAGE_CHUNK))
@example(fixed_case((0.1, 0.35, 0.6, 0.65, 1.0), 5, 400, eos_prob=0.08))
@example(fixed_case((*TIED, 0.5), 4, 300, eos_prob=0.08))
def test_lockstep_cells_match_the_scalar_reference(case):
    base = SyntheticConfidenceModel(seed=case["seed"], eos_prob=case["eos_prob"])
    actions = ActionSet(case["alphas"])
    params = RewardParams(n_layers=base.n_layers, mu=case["mu"], lam=case["lam"])
    gamma, max_len, budget = case["gamma"], case["max_len"], case["budget"]

    def cells(sigma):
        log = ListSink() if case["keep_log"] else None
        # The drawn grid, and a fixed threshold on its first arm.
        return [
            AdaptiveCell(actions, params, sigma, log),
            AdaptiveCell(ActionSet(case["alphas"][:1]), params, sigma),
        ]

    played = [cell for sigma in case["sigmas"] for cell in cells(sigma)]
    run_lockstep(base, played, gamma, budget, max_len)
    for cell in played:
        assert_cell_matches_reference(cell, base, cell.sigma, gamma, max_len, budget)
        assert cell.state.t == budget


@st.composite
def oracle_cases(draw):
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n_layers": draw(st.integers(2, 12)),
        "sigma": draw(st.sampled_from(SIGMAS)),
        # One span, or several: the oracle's spans hold at most 4096.
        "samples": draw(st.integers(1, 400) | st.integers(4090, 9000)),
        "thresholds": tuple(sorted(draw(st.sets(st.sampled_from(GRID), min_size=1)))),
        "shapes": draw(
            st.lists(
                st.tuples(st.floats(0.0, 5.0), st.none() | st.floats(1e-3, 10.0)),
                min_size=1,
                max_size=3,
            )
        ),
        # The share of cells moved onto a grid point, to tie exactly.
        "ties": draw(st.sampled_from((0.0, 0.1, 0.5))),
    }


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(oracle_cases())
def test_oracle_estimates_match_the_per_arm_argmax_reference(case):
    n_layers, samples = case["n_layers"], case["samples"]
    model = SyntheticConfidenceModel(n_layers=n_layers)
    rng = np.random.default_rng(case["seed"])
    conf = np.array(model.confidence_matrix(case["sigma"], samples, rng), order="C")
    tied = rng.random(conf.shape) < case["ties"]
    conf[tied] = rng.choice(GRID, int(tied.sum()))
    actions = ActionSet(case["thresholds"])
    params = [RewardParams(n_layers, mu=mu, lam=lam) for lam, mu in case["shapes"]]
    want = reference_oracle_means(conf, actions.thresholds, params)
    # A row-major matrix's transpose and a C-order layer-major block.
    for block in (conf.T, np.array(conf.T, order="C")):
        got = span_scored(block, actions, params)
        assert [list(e.expected_rewards) for e in got] == want
        assert [e.samples for e in got] == [samples] * len(params)


# Grid points, tying thresholds, NaN and anything else in [0, 1].
cell_values = st.sampled_from(GRID + TIED + (math.nan,)) | st.floats(0.0, 1.0)


@st.composite
def exit_cases(draw):
    n_layers = draw(st.integers(2, 12))
    rows = draw(
        st.lists(
            st.lists(cell_values, min_size=n_layers, max_size=n_layers),
            min_size=1,
            max_size=30,
        )
    )
    # Unsorted, possibly repeated thresholds.
    return np.array(rows), draw(st.lists(arm_values, min_size=1, max_size=6))


def reference_exits(conf, alpha):
    """0-based exits from ``decide_exit``, one token at a time.  A
    TokenTrace refuses NaN, and decide_exit reads only ``layers``."""
    return [
        decide_exit(
            SimpleNamespace(layers=tuple(LayerOutcome(c, 0) for c in row)), alpha
        ).exit_layer - 1
        for row in conf.tolist()
    ]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(exit_cases())
@example((np.array([[math.nan] * 4, [0.5, 0.5, math.nan, 1.0]]), [1.0, 0.5, 0.0, 0.5]))
def test_exit_kernel_matches_decide_exit(case):
    conf, grid = case
    table = exit_layer_indices(conf, grid)
    # The oracle's call: np.float64 thresholds over a C-order running max.
    top = running_max(np.array(conf[:, :-1].T, order="C"))
    assert table.shape == (len(conf), len(grid))
    for k, alpha in enumerate(grid):
        want = reference_exits(conf, alpha)
        assert table[:, k].tolist() == want
        assert exit_layer_indices(conf, alpha).tolist() == want
        assert exit_counts(top, np.float64(alpha)).tolist() == want


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_blocks=st.integers(1, 4),
    max_len=st.integers(1, 25),
    sigma=st.sampled_from(SIGMAS),
)
def test_finishing_a_stack_equals_finishing_each_block(seed, n_blocks, max_len, sigma):
    base = SyntheticConfidenceModel(seed=seed)
    stack = draw_tokens(base, max_len, base.stream_rng(0), n_blocks)
    stacked = finish_tokens(base, sigma, stack)
    rng = base.stream_rng(0)
    alone = [
        finish_tokens(base, sigma, draw_tokens(base, max_len, rng))
        for _ in range(n_blocks)
    ]
    for field in ("confidences", "token_ids", "targets"):
        got = getattr(stacked, field)
        want = np.concatenate([getattr(batch, field) for batch in alone])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@st.composite
def head_cases(draw):
    config = ToyConfig(
        input_dim=draw(st.integers(1, 8)),
        hidden_dim=draw(st.integers(1, 8)),
        n_layers=draw(st.integers(2, 5)),
        vocab_size=draw(st.integers(2, 6)),
    )
    rows = draw(st.sampled_from((1, 2)) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_cascade(config, rng)
    # Zero exit heads tie every logit; drawn ones spread them.
    if draw(st.booleans()):
        for w in model.exit_weights:
            w[:] = rng.normal(0.0, 3.0, w.shape)
    example = SyntheticExample(
        features=rng.normal(size=(rows, config.input_dim)),
        targets=rng.integers(0, config.vocab_size, rows),
    )
    return model, example


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(head_cases())
def test_head_confidences_and_accuracies_match_the_stacked_forward(case):
    model, example = case
    probs = forward(model, example)
    confidences, token_ids = head_confidences(model, example)
    assert confidences.tobytes() == probs.max(axis=2).tobytes()
    assert np.array_equal(token_ids, probs.argmax(axis=2))
    hits = probs.argmax(axis=2) == example.targets[:, None]
    assert layer_accuracies(model, example) == tuple(hits.mean(axis=0).tolist())
