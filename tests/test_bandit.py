"""Reward shape, UCB selection, online loop, oracle, and regret accounting."""

import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim import (
    IMAGE_CHUNK,
    ActionSet,
    AdaptiveCell,
    OracleEstimate,
    RewardParams,
    StepSchedule,
    SyntheticConfidenceModel,
    TraceBatch,
    draw_tokens,
    finish_tokens,
    run_lockstep,
    shared_oracles,
)

from reference import (
    ListSink,
    UcbState,
    UnplayedArmError,
    decide_exit,
    image_stream,
    oracle_estimates,
    regret_curve,
    reward,
    run_caption,
    token_traces,
    ucb1_curve,
    ucb_select,
    update,
)

from exitsim import bandit
from exitsim.synth import confidence_blocks
from conftest import (
    PINNED_ON,
    assert_cell_matches_reference,
    make_image,
    make_trace,
    reference_oracle_means,
    span_scored,
)


# ---------------------------------------------------------------------------
# ActionSet and RewardParams


def test_action_set_default_grid():
    grid = ActionSet.default_grid()
    assert grid.thresholds == tuple(i / 10 for i in range(1, 11))
    assert len(grid) == 10


def test_action_set_validation():
    with pytest.raises(ValueError):
        ActionSet(())
    with pytest.raises(ValueError):
        ActionSet((0.2, 0.2))
    with pytest.raises(ValueError):
        ActionSet((0.5, 0.3))
    with pytest.raises(ValueError):
        ActionSet((0.5, 1.2))


def test_reward_params_defaults():
    params = RewardParams(n_layers=12)
    assert params.mu == pytest.approx(1.0 / 12.0, abs=0)
    assert params.latency == (0.0,) + tuple(float(i) for i in range(2, 13))
    assert params.bounds() == (-2.0, 1.0)


def test_reward_params_custom_latency_and_validation():
    # The schedule follows lam; it cannot be passed in.
    params = RewardParams(n_layers=3, mu=0.5, lam=2.5)
    assert params.latency == (0.0, 5.0, 7.5)
    assert params.bounds() == (-1.0 - 0.5 * 7.5, 1.0)
    with pytest.raises(TypeError):
        RewardParams(n_layers=3, latency=(0.0, 1.0, 5.0))
    with pytest.raises(ValueError):
        RewardParams(n_layers=3, mu=0.0)
    with pytest.raises(ValueError):
        RewardParams(n_layers=3, lam=-1.0)
    with pytest.raises(ValueError):
        RewardParams(n_layers=1)


def test_lam_scales_deep_latency():
    params = RewardParams(n_layers=4, lam=2.0)
    assert params.latency == (0.0, 4.0, 6.0, 8.0)


# ---------------------------------------------------------------------------
# reward


def test_layer_one_exit_pays_nothing_and_gains_nothing():
    decision = decide_exit(make_trace([0.9, 0.1, 0.1]), 0.5)
    assert decision.exit_layer == 1
    assert reward(decision, RewardParams(n_layers=3)) == 0.0


def test_reward_worked_example_mid_stack():
    # N=12, mu=1/12, lam=1: exit at layer 4 with C4=0.9, C1=0.3
    # gives (0.9 - 0.3) - (1/12) * 4 = 0.2667.
    confs = [0.3, 0.5, 0.6, 0.9] + [0.95] * 8
    decision = decide_exit(make_trace(confs), 0.9)
    assert decision.exit_layer == 4
    r = reward(decision, RewardParams(n_layers=12))
    assert abs(r - ((0.9 - 0.3) - 4.0 / 12.0)) < 1e-12
    assert r == pytest.approx(0.2667, abs=5e-5)


def test_reward_worked_example_final_layer():
    # Exit at layer 12 with C12=0.95, C1=0.15: (0.95-0.15) - 1 = -0.2.
    confs = [0.15] + [0.2] * 10 + [0.95]
    decision = decide_exit(make_trace(confs), 0.99)
    assert decision.exit_layer == 12
    r = reward(decision, RewardParams(n_layers=12))
    assert abs(r - (-0.2)) < 1e-12


def test_reward_rejects_out_of_range_layer():
    decision = decide_exit(make_trace([0.1, 0.2, 0.9]), 0.5)
    with pytest.raises(ValueError):
        reward(decision, RewardParams(n_layers=2))


@given(
    confs=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=12, max_size=12
    ),
    alpha=st.sampled_from([i / 10 for i in range(1, 11)]),
)
def test_reward_stays_within_hard_bounds(confs, alpha):
    params = RewardParams(n_layers=12)
    lo, hi = params.bounds()
    r = reward(decide_exit(make_trace(confs), alpha), params)
    assert lo - 1e-12 <= r <= hi + 1e-12


# ---------------------------------------------------------------------------
# ucb_select and update


def test_ucb_prefers_underexplored_arm():
    # Two arms at t=12, gamma=1: Q=0.5 with 10 pulls scores
    # 0.5 + sqrt(ln 12 / 10) = 0.9985 while Q=0.4 with 2 pulls scores
    # 0.4 + sqrt(ln 12 / 2) = 1.5147, so the weaker-mean arm wins.
    state = UcbState(
        actions=ActionSet((0.4, 0.8)), q=[0.5, 0.4], pulls=[10, 2], t=12, gamma=1.0
    )
    index_a = 0.5 + math.sqrt(math.log(12) / 10)
    index_b = 0.4 + math.sqrt(math.log(12) / 2)
    assert index_a == pytest.approx(0.9985, abs=5e-5)
    assert index_b == pytest.approx(1.5147, abs=5e-5)
    assert ucb_select(state) == 0.8


def test_ucb_tie_goes_to_smallest_threshold():
    # Dyadic values keep the two indices bit-for-bit identical.
    state = UcbState(
        actions=ActionSet((0.25, 0.5, 0.75)),
        q=[0.25, 0.25, 0.25],
        pulls=[4, 4, 4],
        t=12,
        gamma=1.0,
    )
    assert ucb_select(state) == 0.25


def test_ucb_argmax_is_shift_invariant():
    actions = ActionSet((0.2, 0.4, 0.6))
    base = UcbState(actions, q=[0.25, 0.75, 0.5], pulls=[3, 3, 3], t=9, gamma=1.0)
    shifted = UcbState(
        actions, q=[q + 0.125 for q in base.q], pulls=[3, 3, 3], t=9, gamma=1.0
    )
    assert ucb_select(base) == ucb_select(shifted)


def test_ucb_index_of_a_one_arm_state_is_zero():
    # A scan over one arm always picks it, so its index is never formed:
    # not even ln 0, a division by zero pulls or a run's unset gamma.
    cell = AdaptiveCell(ActionSet((0.6,)), RewardParams(n_layers=3), 0.0)
    assert bandit._ucb_index(cell) == 0
    cell.q[0], cell.pulls[0], cell.t = math.nan, 3, 2**80
    assert bandit._ucb_index(cell) == 0
    state = UcbState(ActionSet((0.6,)), q=[math.nan], pulls=[3], t=2**80, gamma=1.0)
    assert ucb_select(state) == 0.6


def test_ucb_requires_initialization():
    state = UcbState.fresh(ActionSet((0.2, 0.4)))
    with pytest.raises(UnplayedArmError):
        ucb_select(state)
    state.pulls = [1, 0]
    with pytest.raises(UnplayedArmError):
        ucb_select(state)


def test_update_running_mean_worked_example():
    state = UcbState.fresh(ActionSet((0.3, 0.6)))
    update(state, 0.3, 0.4)
    assert state.q[0] == 0.4 and state.pulls[0] == 1 and state.t == 1
    update(state, 0.3, 0.0)
    assert abs(state.q[0] - 0.2) < 1e-12
    assert state.pulls[0] == 2 and state.t == 2


def test_update_mean_of_three():
    state = UcbState.fresh(ActionSet((0.5,)))
    for r in (0.1, 0.2, 0.3):
        update(state, 0.5, r)
    assert abs(state.q[0] - 0.2) < 1e-12
    assert state.pulls[0] == 3


def test_update_rejects_unknown_arm():
    state = UcbState.fresh(ActionSet((0.5,)))
    with pytest.raises(ValueError):
        update(state, 0.6, 0.1)
    assert state.pulls == [0] and state.q == [0.0] and state.t == 0


@settings(max_examples=50)
@given(
    rewards=st.lists(
        st.floats(min_value=-2.0, max_value=1.0), min_size=1, max_size=60
    ),
    picks=st.data(),
)
def test_update_bookkeeping_invariants(rewards, picks):
    # After any pull sequence: pulls sum to t and each Q is the exact
    # running mean of that arm's observed rewards.
    actions = ActionSet((0.2, 0.5, 0.8))
    state = UcbState.fresh(actions)
    seen = {a: [] for a in actions.thresholds}
    for r in rewards:
        arm = picks.draw(st.sampled_from(actions.thresholds))
        update(state, arm, r)
        seen[arm].append(r)
    assert sum(state.pulls) == state.t == len(rewards)
    for k, arm in enumerate(actions.thresholds):
        if seen[arm]:
            assert state.q[k] == pytest.approx(
                sum(seen[arm]) / len(seen[arm]), abs=1e-12
            )
        else:
            assert state.q[k] == 0.0


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: RewardParams(n_layers=3, lam=NAN), id="lam-nan"),
        pytest.param(lambda: RewardParams(n_layers=3, lam=math.inf), id="lam-inf"),
        pytest.param(lambda: RewardParams(n_layers=3, mu=NAN), id="mu-nan"),
        pytest.param(lambda: RewardParams(n_layers=3, lam=1e308), id="lam-overflow"),
        pytest.param(
            lambda: run_lockstep(
                SyntheticConfidenceModel(),
                [AdaptiveCell(ActionSet((0.5,)), RewardParams(n_layers=12), NAN)],
                1.0, 10, 20,
            ),
            id="sigma-nan",
        ),
        pytest.param(lambda: SyntheticConfidenceModel(growth=NAN), id="growth-nan"),
        pytest.param(
            lambda: SyntheticConfidenceModel(noise_scale=NAN), id="noise-scale-nan"
        ),
        pytest.param(
            lambda: SyntheticConfidenceModel(difficulty_low=NAN),
            id="difficulty-low-nan",
        ),
        pytest.param(
            lambda: SyntheticConfidenceModel(difficulty_high=math.inf),
            id="difficulty-high-inf",
        ),
        pytest.param(
            lambda: SyntheticConfidenceModel(
                difficulty_low=-1e308, difficulty_high=1e308
            ),
            id="difficulty-range-overflow",
        ),
        pytest.param(
            lambda: run_lockstep(
                SyntheticConfidenceModel(),
                [AdaptiveCell(ActionSet((0.5,)), RewardParams(12, mu=1e307), 0.0)],
                1.0, 2000, 20,
            ),
            id="run-reward-sum-overflow",
        ),
        pytest.param(
            lambda: shared_oracles(
                SyntheticConfidenceModel(), [0.0], ActionSet.default_grid(),
                [RewardParams(12, mu=1e307)], samples=2000,
            ),
            id="oracle-reward-sum-overflow",
        ),
        pytest.param(lambda: StepSchedule(initial=NAN), id="schedule-initial-nan"),
    ],
)
def test_library_rejects_non_finite_numbers(build):
    with pytest.raises(ValueError, match="finite"):
        build()


# ---------------------------------------------------------------------------
# initialize: a fresh cell's first pulls, one per arm


def _initialized(actions, image, params, sink=None):
    """A fresh cell played on ``image`` alone: its initialization spends
    the image, so no UCB round follows."""
    targets = np.zeros(len(image), dtype=np.int64)
    batch = TraceBatch(image.confidences, image.token_ids, targets)
    cell = AdaptiveCell(actions, params, 0.0, sink)
    cell.play(batch, 1.0, len(actions) + 1, len(image), eos_id=0)
    return cell


def test_initialize_plays_every_arm_once():
    actions = ActionSet((0.2, 0.5, 0.8))
    image = make_image([[0.3, 0.6, 0.9]] * 4)
    params = RewardParams(n_layers=3)
    log = ListSink()
    cell = _initialized(actions, image, params, log)
    assert cell.pulls == [1, 1, 1]
    assert cell.t == 3
    assert len(log) == 3
    assert log.rounds == [1, 2, 3]
    assert log.arms == [0.2, 0.5, 0.8]
    assert log.exit_layers == [1, 2, 3]
    assert cell.hist == [1, 1, 1]
    assert cell.reward_sum == log.rewards[0] + log.rewards[1] + log.rewards[2]
    assert cell.emitted == 0


def test_initialize_q_values_are_the_observed_rewards():
    # Same token for all arms, so rewards are hand-checkable:
    # alpha=0.2 exits layer 1 (r=0); alpha=0.5 exits layer 2
    # (0.6-0.3 - 2/3 = -0.3667); alpha=0.8 falls through to layer 3
    # (0.9-0.3 - 1 = -0.4).
    actions = ActionSet((0.2, 0.5, 0.8))
    image = make_image([[0.3, 0.6, 0.9]] * 3)
    cell = _initialized(actions, image, RewardParams(n_layers=3))
    assert cell.q[0] == 0.0
    assert cell.q[1] == pytest.approx((0.6 - 0.3) - 2.0 / 3.0, abs=1e-12)
    assert cell.q[2] == pytest.approx((0.9 - 0.3) - 1.0, abs=1e-12)


def test_initialize_plays_arm_k_on_token_k():
    # Each token exits at a different layer for each arm, so the log
    # shows which token every arm was played on.
    actions = ActionSet((0.5, 0.7))
    rows = [[0.6, 0.8, 0.9], [0.1, 0.2, 0.95], [0.9, 0.9, 0.9]]
    log = ListSink()
    cell = _initialized(actions, make_image(rows), RewardParams(n_layers=3), log)
    assert log.exit_layers == [1, 3]  # token 1 at 0.5, token 2 at 0.7
    assert cell.q[0] == 0.0
    assert cell.q[1] == pytest.approx((0.95 - 0.1) - 1.0, abs=1e-12)


def test_initialize_single_arm_consumes_one_trace():
    log = ListSink()
    cell = _initialized(
        ActionSet((0.5,)), make_image([[0.3, 0.6], [0.7, 0.4]]),
        RewardParams(n_layers=2), log,
    )
    assert cell.t == 1 and log.exit_layers == [2]  # token 2 never played
    assert cell.q == [(0.6 - 0.3) - 0.5 * 2.0]


# ---------------------------------------------------------------------------
# The adaptive driver: AdaptiveCell and run_lockstep


def _drive(model, actions, params, budget, max_len, gamma=1.0, sigma=0.0):
    """One cell with a ``ListSink`` played on ``model``'s images at level
    ``sigma``."""
    cell = AdaptiveCell(actions, params, sigma, ListSink())
    run_lockstep(model, [cell], gamma, budget, max_len)
    return cell


def test_adaptive_run_spends_first_image_on_initialization():
    # Without eos every caption runs to the cap of 5: image 0 plays each
    # arm once and captions nothing, images 1 to 3 caption.
    model = SyntheticConfidenceModel(seed=3, eos_prob=0.0)
    actions = ActionSet((0.2, 0.5))
    params = RewardParams(n_layers=model.n_layers)
    cell = _drive(model, actions, params, budget=2 + 3 * 5, max_len=5)
    init_log = ListSink()
    first = next(image_stream(model, 0.0, model.stream_rng(0), 5))
    _initialized(actions, first, params, init_log)
    assert cell.sink.arms[:2] == [0.2, 0.5]
    assert cell.sink.exit_layers[:2] == init_log.exit_layers
    assert cell.sink.rewards[:2] == init_log.rewards
    assert cell.t == len(cell.sink) == 2 + 3 * 5
    assert cell.emitted == 3 * 5
    assert sum(cell.hist) == cell.t


def test_adaptive_run_rejects_nonpositive_caption_cap(monkeypatch):
    draws = []
    monkeypatch.setattr(bandit, "draw_tokens", lambda *args: draws.append(args))
    model = SyntheticConfidenceModel()
    cell = AdaptiveCell(ActionSet((0.5,)), RewardParams(n_layers=model.n_layers), 0.0)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            run_lockstep(model, [cell], 1.0, 50, cap)
    assert draws == [] and cell.t == 0


def _assert_refused_before_any_draw(
    monkeypatch, budget, max_len, message, sigma=0.0, gamma=1.0
):
    """``run_lockstep`` at ``gamma`` over a one-arm and a three-arm cell at
    sigma 0.0 and 2.0, plus a one-arm cell at ``sigma``, raises ValueError
    matching ``message`` with no draw made and no cell started."""
    draws = []
    monkeypatch.setattr(bandit, "draw_tokens", lambda *args: draws.append(args))
    base = SyntheticConfidenceModel()
    params = RewardParams(n_layers=base.n_layers)
    cells = [
        AdaptiveCell(actions, params, level)
        for level in (0.0, 2.0)
        for actions in (ActionSet((0.5,)), ActionSet((0.2, 0.5, 0.8)))
    ]
    cells.append(AdaptiveCell(ActionSet((0.5,)), params, sigma))
    with pytest.raises(ValueError, match=message):
        run_lockstep(base, cells, gamma, budget, max_len)
    assert draws == []
    assert all(cell.t == 0 for cell in cells)


def test_adaptive_run_rejects_a_caption_cap_below_the_arm_count(monkeypatch):
    # Initialization plays arm k on token k of the first image, so the
    # widest cell at any level sets the smallest cap.
    _assert_refused_before_any_draw(monkeypatch, 50, 2, "one token per arm: 2 < 3")


@pytest.mark.parametrize("budget", [0, 2, 3])
def test_adaptive_run_rejects_a_budget_below_the_arm_count(monkeypatch, budget):
    # Initialization alone plays one round per arm and at least one round
    # must follow, so the widest cell sets the smallest budget.
    message = f"one pull per arm and one round after: {budget} <= 3"
    _assert_refused_before_any_draw(monkeypatch, budget, 20, message)


def test_adaptive_run_rejects_a_negative_sigma_on_any_cell(monkeypatch):
    # Every level is checked before the first draw.
    message = "sigma must be >= 0, got -0.5"
    _assert_refused_before_any_draw(monkeypatch, 50, 20, message, sigma=-0.5)


@pytest.mark.parametrize("gamma", [NAN, 0.5])
def test_adaptive_run_rejects_a_bad_gamma_before_any_draw(monkeypatch, gamma):
    message = f"gamma must be finite and >= 1, got {gamma}"
    _assert_refused_before_any_draw(monkeypatch, 50, 20, message, gamma=gamma)


@pytest.mark.parametrize(
    "tokens, max_len, gamma, mu, message",
    [
        (10, 20, 1.0, None, "one pull per arm and one round after: 10 <= 10"),
        (100, 5, 1.0, None, "one token per arm: 5 < 10"),
        (100, 20, 0.5, None, "gamma must be finite and >= 1, got 0.5"),
        (100, 20, 1.0, 1e307, "a sum of 100 rewards .* is not finite"),
    ],
    ids=[
        "tokens-equal-arms", "max-len-below-arms", "gamma-below-1",
        "reward-sum-overflow",
    ],
)
def test_a_cell_played_directly_refuses_what_check_run_refuses(
    tokens, max_len, gamma, mu, message
):
    # A budget of one round per arm would leave metrics() dividing by no
    # emitted token, a cap below the arm count would spread
    # initialization across image boundaries, and a reward shape whose
    # sums overflow would leave a mean reward of -inf.
    model = SyntheticConfidenceModel()
    draws = draw_tokens(model, max_len, model.stream_rng(0), IMAGE_CHUNK)
    batch = finish_tokens(model, 0.0, draws)
    cell = AdaptiveCell(
        ActionSet.default_grid(), RewardParams(model.n_layers, mu), 0.0
    )
    with pytest.raises(ValueError, match=message):
        cell.play(batch, gamma, tokens, max_len, model.eos_id)
    assert cell.t == 0


def test_single_arm_adaptive_run_matches_fixed_threshold():
    # With one arm the driver must reproduce the plain caption loop at
    # that threshold decision for decision, a budget cut included.
    model = SyntheticConfidenceModel(seed=11)
    alpha, max_len, budget = 0.5, 8, 300
    cell = _drive(
        model, ActionSet((alpha,)), RewardParams(n_layers=model.n_layers),
        budget, max_len,
    )
    images = image_stream(model, 0.0, model.stream_rng(0), max_len)
    first = next(images)
    layers = [decide_exit(token_traces(first)[0], alpha).exit_layer]
    hits = 0
    for image in images:
        if len(layers) >= budget:
            break
        traces = islice(token_traces(image), budget - len(layers))
        caption = run_caption(traces, alpha, max_len, model.eos_id, image.image_ids[0])
        layers += [decision.exit_layer for decision in caption.tokens]
        hits += sum(
            decision.token_id == target
            for decision, target in zip(caption.tokens, image.targets)
        )
    assert cell.sink.exit_layers == layers
    assert (cell.hits, cell.emitted) == (hits, budget - 1)


def test_adaptive_run_matches_per_token_reference_loop():
    # The chunk arm tables must replay the plain per-token loop (select,
    # exit rule, reward, update) bit for bit on a distorted finish of the
    # drawn stream, including a caption cut part-way by the token budget.
    base = SyntheticConfidenceModel(seed=5)
    max_len, budget, gamma = 7, 101, 1.3
    actions = ActionSet((0.2, 0.4, 0.6, 0.8, 1.0))
    params = RewardParams(n_layers=base.n_layers, lam=0.7)
    cell = _drive(base, actions, params, budget, max_len, gamma, sigma=2.0)

    images = image_stream(base, 2.0, base.stream_rng(0), max_len)
    log = ListSink()
    state = UcbState.fresh(actions, gamma)
    for alpha, trace in zip(actions.thresholds, token_traces(next(images))):
        decision = decide_exit(trace, alpha)
        r = reward(decision, params)
        update(state, alpha, r)
        log.append(state.t, alpha, decision.exit_layer, r)
    caption_lengths = []
    for img in images:
        if state.t >= budget:
            break
        caption_lengths.append(0)
        for trace in token_traces(img)[: min(max_len, budget - state.t)]:
            alpha = ucb_select(state)
            decision = decide_exit(trace, alpha)
            r = reward(decision, params)
            update(state, alpha, r)
            log.append(state.t, alpha, decision.exit_layer, r)
            caption_lengths[-1] += 1
            if decision.token_id == base.eos_id:
                break

    assert len(set(log.arms)) > 1
    assert cell.sink == log
    assert (cell.q, cell.pulls, cell.t) == (state.q, state.pulls, budget)
    assert cell.emitted == sum(caption_lengths)
    assert decision.token_id != base.eos_id and caption_lengths[-1] < max_len


@pytest.mark.parametrize("budget", [23, 58, 97, 10_000])
def test_round_kernel_matches_the_run_caption_reference(budget):
    # The smaller budgets cut a caption part-way; the largest runs over
    # several chunks of the stream.
    model = SyntheticConfidenceModel(seed=8)
    max_len, gamma = 7, 1.1
    actions = ActionSet((0.3, 0.55, 0.7, 0.9))
    params = RewardParams(n_layers=model.n_layers, lam=0.8)
    cell = _drive(model, actions, params, budget, max_len, gamma)
    captions = assert_cell_matches_reference(cell, model, 0.0, gamma, max_len, budget)
    assert any(c.terminated_by_eos and len(c) < max_len for c in captions)
    if budget < 10_000:
        assert cell.t == budget
        assert captions[-1].truncated
    else:
        assert captions[-1].image_id >= IMAGE_CHUNK


@pytest.mark.parametrize("n_layers", [14, 11], ids=["deeper", "shallower"])
def test_every_entry_point_refuses_a_reward_schedule_of_another_depth(n_layers):
    # At alpha = 1.0 every token of the seed-7 model runs all 12 layers.
    # Every such exit lies within a 14-layer schedule, which would report
    # speedup 14/12, so only a check on the depth itself refuses it.
    model = SyntheticConfidenceModel(seed=7)
    actions, params = ActionSet((1.0,)), RewardParams(n_layers=n_layers)
    refused = f"model emits 12 layers, reward params expect {n_layers}"
    batch = next(image_stream(model, 0.0, model.stream_rng(0), 20))
    cell = AdaptiveCell(actions, params, 0.0)
    with pytest.raises(ValueError, match=refused):
        cell.play(batch, 1.0, 100, 20, model.eos_id)
    assert cell.t == 0
    cell = AdaptiveCell(actions, params, 0.0)
    with pytest.raises(ValueError, match=refused):
        run_lockstep(model, [cell], 1.0, 100, 20)
    assert cell.t == 0
    with pytest.raises(ValueError, match=refused):
        shared_oracles(model, [0.0], actions, [params], samples=10)
    matched = _drive(model, actions, RewardParams(n_layers=12), 100, 20)
    assert matched.metrics()["speedup"] == 1.0


def test_adaptive_run_is_deterministic():
    model = SyntheticConfidenceModel(seed=4)
    args = (model, ActionSet((0.2, 0.5, 0.8)), RewardParams(n_layers=model.n_layers))
    a, b = _drive(*args, 500, 12), _drive(*args, 500, 12)
    assert a.sink == b.sink
    assert (a.q, a.pulls, a.t) == (b.q, b.pulls, b.t)
    assert (a.hist, a.reward_sum, a.hits, a.emitted) == (
        b.hist, b.reward_sum, b.hits, b.emitted
    )


def test_adaptive_run_honors_token_budget():
    # Without eos image 1 captions all 10 tokens and image 2 the first 5.
    model = SyntheticConfidenceModel(seed=3, eos_prob=0.0)
    cell = _drive(
        model, ActionSet((0.2, 0.5)), RewardParams(n_layers=model.n_layers), 17, 10
    )
    assert cell.t == len(cell.sink) == 17
    assert cell.emitted == 15


def test_a_run_keeps_the_gamma_it_started_with():
    # The exploration width belongs to the run: a later chunk played at
    # another gamma plays the rounds the starting gamma gives.
    model = SyntheticConfidenceModel(seed=6)
    max_len = 12
    budget = 2 * IMAGE_CHUNK * max_len
    rng = model.stream_rng(0)
    chunks = [
        finish_tokens(model, 0.0, draw_tokens(model, max_len, rng, IMAGE_CHUNK))
        for _ in range(2)
    ]
    params = RewardParams(n_layers=model.n_layers)
    kept, changed = (AdaptiveCell(ActionSet.default_grid(), params, 0.0) for _ in "ab")
    for cell, second_gamma in ((kept, 1.0), (changed, 3.0)):
        cell.play(chunks[0], 1.0, budget, max_len, model.eos_id)
        first_rounds = cell.t
        cell.play(chunks[1], second_gamma, budget, max_len, model.eos_id)
        assert first_rounds < cell.t < budget
    assert (changed.q, changed.pulls, changed.t, changed.hist) == (
        kept.q, kept.pulls, kept.t, kept.hist
    )


def test_cell_hands_each_chunk_its_rounds_in_one_call():
    # Without eos every caption runs to the cap of 3, so a chunk holds
    # IMAGE_CHUNK * 3 rounds; the first spends its first image on two
    # initialization rounds.
    model = SyntheticConfidenceModel(seed=3, eos_prob=0.0)
    calls = []
    cell = AdaptiveCell(
        ActionSet((0.2, 0.5)), RewardParams(n_layers=model.n_layers), 0.0, calls.append
    )
    budget = 2 + 3 * IMAGE_CHUNK * 3 - 3 + 10
    run_lockstep(model, [cell], 1.0, budget, 3)
    chunk = IMAGE_CHUNK * 3
    assert [len(rows) for rows in calls] == [2 + chunk - 3, chunk, chunk, 10]
    rows = [row for rows in calls for row in rows]
    assert [t for t, _, _, _ in rows] == list(range(1, budget + 1))
    assert [arm for _, arm, _, _ in rows[:2]] == [0.2, 0.5]
    assert all(type(layer) is int and type(r) is float for _, _, layer, r in rows)


# ---------------------------------------------------------------------------
# ListSink: the reference record of a run's rounds


def test_log_append_requires_increasing_rounds():
    log = ListSink()
    log.append(1, 0.5, 1, 0.0)
    with pytest.raises(ValueError):
        log.append(1, 0.5, 1, 0.0)


def test_log_arm_counts_window():
    log = ListSink()
    for t, arm in enumerate([0.2, 0.2, 0.5, 0.2], start=1):
        log.append(t, arm, 1, 0.0)
    assert log.arm_counts() == {0.2: 3, 0.5: 1}
    assert log.arm_counts(last=2) == {0.5: 1, 0.2: 1}


# ---------------------------------------------------------------------------
# oracle and regret


def _tiled_block(rows, samples):
    """``samples`` samples that cycle through the (n, layers) ``rows``, as
    a layer-major block for ``span_scored``."""
    rows = np.asarray(rows, dtype=float)
    reps = -(-samples // len(rows))
    return np.ascontiguousarray(np.tile(rows, (reps, 1))[:samples].T)


def test_oracle_degenerate_model_every_arm_exits_layer_one():
    # All confidences exactly 1.0: every threshold exits at layer 1, so
    # every arm's expected reward is 0 and the tie resolves to the
    # smallest threshold.
    [oracle] = span_scored(
        _tiled_block(np.ones((4, 6)), 100),
        ActionSet.default_grid(),
        [RewardParams(n_layers=6)],
    )
    assert oracle.expected_rewards == (0.0,) * 10
    assert oracle.best_threshold == 0.1
    assert oracle.gaps == (0.0,) * 10


def test_oracle_scripted_three_trace_hand_average():
    rows = [
        [0.2, 0.8, 0.9],
        [0.5, 0.6, 0.7],
        [0.9, 0.95, 1.0],
    ]
    params = RewardParams(n_layers=3)  # mu=1/3, latency (0, 2, 3)
    [oracle] = span_scored(_tiled_block(rows, 3), ActionSet((0.5, 0.85)), [params])
    # alpha=0.5: exits (2, 1, 1) -> rewards ((0.8-0.2)-2/3, 0, 0).
    # alpha=0.85: exits (3, 3, 1) -> ((0.9-0.2)-1, (0.7-0.5)-1, 0).
    want_a = ((0.8 - 0.2) - 2.0 / 3.0) / 3.0
    want_b = (((0.9 - 0.2) - 1.0) + ((0.7 - 0.5) - 1.0)) / 3.0
    assert oracle.expected_rewards[0] == pytest.approx(want_a, abs=1e-12)
    assert oracle.expected_rewards[1] == pytest.approx(want_b, abs=1e-12)
    assert oracle.best_threshold == 0.5
    assert oracle.gaps[0] == 0.0
    assert oracle.gaps[1] == pytest.approx(want_a - want_b, abs=1e-12)


def test_oracle_common_random_numbers_are_reproducible():
    model = SyntheticConfidenceModel()
    args = (model, [0.0], ActionSet.default_grid(), [RewardParams(n_layers=12)])
    a = shared_oracles(*args, samples=2000)
    b = shared_oracles(*args, samples=2000)
    assert a == b


def test_shared_oracles_equal_one_oracle_per_sigma_and_lambda():
    base = SyntheticConfidenceModel(seed=3)
    sigmas = (0.0, 1.0, 2.5)
    actions = ActionSet.default_grid()
    params = [RewardParams(n_layers=12, lam=lam) for lam in (0.5, 1.0, 2.0)]
    params.append(RewardParams(n_layers=12, mu=0.3))
    for samples, seed in ((3000, 17), (1, 5), (2000, None)):
        kwargs = {} if seed is None else {"seed": seed}
        got = shared_oracles(base, sigmas, actions, params, samples=samples, **kwargs)
        assert len(got) == len(sigmas)
        for sigma, estimates in zip(sigmas, got):
            assert estimates == [
                shared_oracles(
                    base, [sigma], actions, [p], samples=samples, **kwargs
                )[0][0]
                for p in params
            ]


def test_shared_oracles_score_the_one_shot_matrices():
    # Scored span by span, every estimate is bitwise the whole-sample
    # reference's over the blocks one span of the same draw gives.
    base = SyntheticConfidenceModel(seed=8)
    sigmas = (0.0, 2.0)
    actions = ActionSet.default_grid()
    params = [RewardParams(n_layers=12, lam=lam) for lam in (0.5, 2.0)]
    for samples in (2 * bandit._ORACLE_SPAN + 3, 50_000):
        rng = np.random.default_rng(5)
        blocks = confidence_blocks(base, sigmas, samples, rng, [samples])
        want = [oracle_estimates(block, actions, params) for block in blocks]
        got = shared_oracles(base, sigmas, actions, params, samples=samples, seed=5)
        assert got == want


SPAN = bandit._ORACLE_SPAN


@pytest.mark.parametrize(
    "n",
    [1, 7, 8, 9, 127, 128, 129, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 3, 50_000,
     200_003],
)
def test_pairwise_span_sums_are_numpys_reduce_and_mean(n):
    # The oracle's means rest on this: numpy's pairwise summation of a
    # contiguous float64 vector is the sum, in tree order, of its nodes'
    # own reductions.  A numpy that sums otherwise fails here.
    values = np.random.default_rng(n).uniform(-2.0, 1.0, n)
    spans = list(bandit._pairwise_spans(n))
    assert sum(spans) == n and max(spans) <= SPAN
    edges = np.cumsum([0, *spans])
    sums = (np.add.reduce(values[lo:hi]) for lo, hi in zip(edges, edges[1:]))
    total = bandit._pairwise_sum(n, sums)
    assert total.tobytes() == np.add.reduce(values).tobytes(), PINNED_ON
    assert (total / n).tobytes() == values.mean().tobytes(), PINNED_ON


def test_oracle_peak_memory_stays_under_one_matrix():
    # No (samples, layers) matrix and no whole noise block: the
    # per-sample variates and one span's blocks and temporaries.
    base = SyntheticConfidenceModel()
    samples = 50_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        shared_oracles(
            base, (0.0, 2.0), ActionSet.default_grid(), [RewardParams(12)],
            samples=samples,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * samples * base.n_layers * 8


def test_oracle_estimates_equal_the_per_arm_argmax_reference():
    # Bitwise, over one span and over several, from the transpose of a
    # row-major matrix and from a layer-major block.
    actions = ActionSet.default_grid()
    params = [RewardParams(n_layers=12, lam=lam) for lam in (0.5, 1.0, 2.0)]
    params.append(RewardParams(n_layers=12, mu=0.3))
    base = SyntheticConfidenceModel(seed=5)
    for sigma, samples in ((0.0, 3001), (2.0, 3001), (2.0, 9001)):
        conf = base.confidence_matrix(sigma, samples, np.random.default_rng(2))
        conf = np.array(conf, order="C")
        conf[::97, 3] = 0.5  # exact ties with a grid point
        conf[::89, 0] = 1.0
        want = reference_oracle_means(conf, actions.thresholds, params)
        for block in (conf.T, np.array(conf.T, order="C")):
            whole = oracle_estimates(block, actions, params)
            got = span_scored(block, actions, params)
            assert [list(e.expected_rewards) for e in got] == want
            assert got == whole
            assert {e.samples for e in got} == {samples}


def test_shared_oracles_validation():
    model = SyntheticConfidenceModel()
    with pytest.raises(ValueError, match="samples"):
        shared_oracles(model, [0.0], ActionSet((0.5,)), [RewardParams(12)], samples=0)
    with pytest.raises(ValueError, match="layers"):
        shared_oracles(model, [0.0], ActionSet((0.5,)), [RewardParams(6)], samples=10)


def test_oracle_rejects_layer_mismatch():
    block = _tiled_block(np.ones((2, 6)), 10)
    with pytest.raises(ValueError):
        span_scored(block, ActionSet((0.5,)), [RewardParams(n_layers=4)])


def test_oracle_unknown_arm_lookup_raises():
    # The oracle looks arms up only for regret, by threshold.
    oracle = OracleEstimate((0.5,), (0.0,), samples=1)
    log = ListSink()
    log.append(1, 0.7, 1, 0.0)
    with pytest.raises(ValueError, match="not covered by the oracle"):
        regret_curve(log, oracle)


def test_regret_zero_when_always_playing_the_best_arm():
    oracle = OracleEstimate((0.5, 0.6), (0.3, 0.2), samples=1)
    log = ListSink()
    for t in range(1, 101):
        log.append(t, 0.5, 1, 0.0)
    curve = regret_curve(log, oracle)
    assert curve[-1] == 0.0
    assert np.all(curve == 0.0)


def test_regret_alternating_arms_hand_value():
    # 100 rounds alternating best / second-best with gap 0.1: the
    # suboptimal arm is played 50 times, so total pseudo-regret is 5.0.
    oracle = OracleEstimate((0.5, 0.6), (0.3, 0.2), samples=1)
    log = ListSink()
    for t in range(1, 101):
        log.append(t, 0.5 if t % 2 else 0.6, 1, 0.0)
    curve = regret_curve(log, oracle)
    assert curve[-1] == pytest.approx(5.0, abs=1e-9)
    assert np.all(np.diff(curve) >= 0.0)


def test_regret_curve_rejects_uncovered_arm():
    oracle = OracleEstimate((0.5,), (0.3,), samples=1)
    log = ListSink()
    log.append(1, 0.7, 1, 0.0)
    with pytest.raises(ValueError):
        regret_curve(log, oracle)


def test_regret_bound_hand_value():
    oracle = OracleEstimate(
        (0.3, 0.5, 0.7), (0.4, 0.3, 0.2), samples=1
    )  # gaps (0, 0.1, 0.2)
    got = ucb1_curve(oracle, horizon=1000, gamma=1.5)
    log_t = math.log(1000)
    gaps = oracle.gaps
    want = 4.0 * 1.5 * (log_t / gaps[1] + log_t / gaps[2])
    want += (math.pi**2 / 3.0 + 1.0) * (gaps[1] + gaps[2])
    assert got == pytest.approx(want, rel=1e-12)


def test_regret_bound_skips_co_optimal_arms():
    oracle = OracleEstimate((0.3, 0.5, 0.7), (0.3, 0.3, 0.2), samples=1)
    got = ucb1_curve(oracle, horizon=100, gamma=1.0)
    gap = oracle.gaps[2]
    want = 4.0 * math.log(100) / gap + (math.pi**2 / 3.0 + 1.0) * gap
    assert got == pytest.approx(want, rel=1e-12)

