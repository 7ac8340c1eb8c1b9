"""Reward shape, UCB selection, online loop, oracle, and regret accounting."""

import json
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim import (
    ActionSet,
    BanditError,
    BanditLog,
    BanditState,
    CaptionRun,
    ImageTraces,
    OracleEstimate,
    RewardParams,
    StepSchedule,
    SyntheticConfidenceModel,
    decide_exit,
    expected_reward_oracle,
    initialize,
    regret_bound,
    regret_curve,
    reward,
    run_adaptive_captioning,
    distort,
    run_caption,
    shared_oracles,
    ucb_select,
    update,
)

from conftest import FixedTraceModel, make_image, make_trace


# ---------------------------------------------------------------------------
# ActionSet and RewardParams


def test_action_set_default_grid():
    grid = ActionSet.default_grid()
    assert grid.thresholds == tuple(i / 10 for i in range(1, 11))
    assert len(grid) == 10
    assert grid.index(0.3) == 2


def test_action_set_validation():
    with pytest.raises(ValueError):
        ActionSet(())
    with pytest.raises(ValueError):
        ActionSet((0.2, 0.2))
    with pytest.raises(ValueError):
        ActionSet((0.5, 0.3))
    with pytest.raises(ValueError):
        ActionSet((0.5, 1.2))
    with pytest.raises(ValueError):
        ActionSet.default_grid().index(0.35)


def test_reward_params_defaults():
    params = RewardParams(n_layers=12)
    assert params.mu == pytest.approx(1.0 / 12.0, abs=0)
    assert params.latency == (0.0,) + tuple(float(i) for i in range(2, 13))
    assert params.bounds() == (-2.0, 1.0)


def test_reward_params_custom_latency_and_validation():
    params = RewardParams(n_layers=3, mu=0.5, latency=(0.0, 1.0, 5.0))
    assert params.bounds() == (-1.0 - 0.5 * 5.0, 1.0)
    with pytest.raises(ValueError):
        RewardParams(n_layers=3, latency=(1.0, 2.0, 3.0))  # layer 1 must be free
    with pytest.raises(ValueError):
        RewardParams(n_layers=3, latency=(0.0, 3.0, 2.0))  # must be nondecreasing
    with pytest.raises(ValueError):
        RewardParams(n_layers=3, latency=(0.0, 1.0))  # wrong length
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
    state = BanditState(
        actions=ActionSet((0.4, 0.8)), q=[0.5, 0.4], pulls=[10, 2], t=12, gamma=1.0
    )
    index_a = 0.5 + math.sqrt(math.log(12) / 10)
    index_b = 0.4 + math.sqrt(math.log(12) / 2)
    assert index_a == pytest.approx(0.9985, abs=5e-5)
    assert index_b == pytest.approx(1.5147, abs=5e-5)
    assert ucb_select(state) == 0.8


def test_ucb_tie_goes_to_smallest_threshold():
    # Dyadic values keep the two indices bit-for-bit identical.
    state = BanditState(
        actions=ActionSet((0.25, 0.5, 0.75)),
        q=[0.25, 0.25, 0.25],
        pulls=[4, 4, 4],
        t=12,
        gamma=1.0,
    )
    assert ucb_select(state) == 0.25


def test_ucb_argmax_is_shift_invariant():
    actions = ActionSet((0.2, 0.4, 0.6))
    base = BanditState(actions, q=[0.25, 0.75, 0.5], pulls=[3, 3, 3], t=9, gamma=1.0)
    shifted = BanditState(
        actions, q=[q + 0.125 for q in base.q], pulls=[3, 3, 3], t=9, gamma=1.0
    )
    assert ucb_select(base) == ucb_select(shifted)


def test_ucb_requires_initialization():
    state = BanditState.fresh(ActionSet((0.2, 0.4)))
    with pytest.raises(BanditError):
        ucb_select(state)
    state.pulls = [1, 0]
    with pytest.raises(BanditError):
        ucb_select(state)


def test_update_running_mean_worked_example():
    state = BanditState.fresh(ActionSet((0.3, 0.6)))
    update(state, 0.3, 0.4)
    assert state.q[0] == 0.4 and state.pulls[0] == 1 and state.t == 1
    update(state, 0.3, 0.0)
    assert abs(state.q[0] - 0.2) < 1e-12
    assert state.pulls[0] == 2 and state.t == 2


def test_update_mean_of_three():
    state = BanditState.fresh(ActionSet((0.5,)))
    for r in (0.1, 0.2, 0.3):
        update(state, 0.5, r)
    assert abs(state.q[0] - 0.2) < 1e-12
    assert state.pulls[0] == 3


def test_update_rejects_unknown_arm():
    state = BanditState.fresh(ActionSet((0.5,)))
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
    state = BanditState.fresh(actions)
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


def test_state_gamma_floor():
    with pytest.raises(ValueError):
        BanditState.fresh(ActionSet((0.5,)), gamma=0.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: RewardParams(n_layers=3, lam=NAN), id="lam-nan"),
        pytest.param(lambda: RewardParams(n_layers=3, lam=math.inf), id="lam-inf"),
        pytest.param(lambda: RewardParams(n_layers=3, mu=NAN), id="mu-nan"),
        pytest.param(
            lambda: RewardParams(n_layers=3, latency=(0.0, NAN, 2.0)),
            id="latency-nan",
        ),
        pytest.param(
            lambda: BanditState.fresh(ActionSet((0.5,)), gamma=NAN), id="gamma-nan"
        ),
        pytest.param(
            lambda: BanditState(ActionSet((0.5,)), [NAN], [1], 1, 1.0), id="q-nan"
        ),
        pytest.param(
            lambda: regret_bound(OracleEstimate((0.5,), (0.0,), 1), 10, NAN),
            id="regret-bound-gamma-nan",
        ),
        pytest.param(lambda: SyntheticConfidenceModel(sigma=NAN), id="sigma-nan"),
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
        pytest.param(lambda: StepSchedule(initial=NAN), id="schedule-initial-nan"),
    ],
)
def test_library_rejects_non_finite_numbers(build):
    with pytest.raises(ValueError, match="finite"):
        build()


# ---------------------------------------------------------------------------
# initialize


def test_initialize_plays_every_arm_once():
    actions = ActionSet((0.2, 0.5, 0.8))
    image = make_image([[0.3, 0.6, 0.9]] * 4)
    params = RewardParams(n_layers=3)
    log = BanditLog()
    state = initialize(actions, image, params, log=log)
    assert state.pulls == [1, 1, 1]
    assert state.t == 3
    assert state.initialized
    assert len(log) == 3
    assert log.rounds == [1, 2, 3]
    assert log.arms == [0.2, 0.5, 0.8]
    assert log.exit_layers == [1, 2, 3]


def test_initialize_q_values_are_the_observed_rewards():
    # Same token for all arms, so rewards are hand-checkable:
    # alpha=0.2 exits layer 1 (r=0); alpha=0.5 exits layer 2
    # (0.6-0.3 - 2/3 = -0.3667); alpha=0.8 falls through to layer 3
    # (0.9-0.3 - 1 = -0.4).
    actions = ActionSet((0.2, 0.5, 0.8))
    image = make_image([[0.3, 0.6, 0.9]] * 3)
    state = initialize(actions, image, RewardParams(n_layers=3))
    assert state.q[0] == 0.0
    assert state.q[1] == pytest.approx((0.6 - 0.3) - 2.0 / 3.0, abs=1e-12)
    assert state.q[2] == pytest.approx((0.9 - 0.3) - 1.0, abs=1e-12)


def test_initialize_plays_arm_k_on_token_k():
    # Each token exits at a different layer for each arm, so the log
    # shows which token every arm was played on.
    actions = ActionSet((0.5, 0.7))
    rows = [[0.6, 0.8, 0.9], [0.1, 0.2, 0.95], [0.9, 0.9, 0.9]]
    log = BanditLog()
    state = initialize(actions, make_image(rows), RewardParams(n_layers=3), log=log)
    assert log.exit_layers == [1, 3]  # token 1 at 0.5, token 2 at 0.7
    assert state.q[0] == 0.0
    assert state.q[1] == pytest.approx((0.95 - 0.1) - 1.0, abs=1e-12)


def test_initialize_single_arm_consumes_one_trace():
    log = BanditLog()
    state = initialize(
        ActionSet((0.5,)), make_image([[0.3, 0.6], [0.7, 0.4]]),
        RewardParams(n_layers=2), log=log,
    )
    assert state.t == 1 and log.exit_layers == [2]  # token 2 never played
    assert state.q == [(0.6 - 0.3) - 0.5 * 2.0]


def test_initialize_exhausted_source_raises():
    with pytest.raises(BanditError, match="needs one per arm"):
        initialize(
            ActionSet((0.2, 0.5)), make_image([[0.3, 0.6]]), RewardParams(n_layers=2)
        )


def test_initialize_rejects_an_exit_past_the_reward_layers():
    with pytest.raises(ValueError, match="exit layer 4"):
        initialize(
            ActionSet((0.5,)), make_image([[0.1, 0.1, 0.1, 0.9]]),
            RewardParams(n_layers=3),
        )


# ---------------------------------------------------------------------------
# run_adaptive_captioning


def _images(rows_per_image, n_images):
    return [
        make_image(rows_per_image, image_id=i) for i in range(n_images)
    ]


def test_adaptive_run_spends_first_image_on_initialization():
    rows = [[0.3, 0.6, 0.9]] * 5
    images = _images(rows, 4)
    run = run_adaptive_captioning(
        images, ActionSet((0.2, 0.5)), RewardParams(n_layers=3), eos_id=-1
    )
    # Init consumed image 0; captions start at image 1.
    assert [c.image_id for c in run.captions] == [1, 2, 3]
    assert run.state.t == 2 + 3 * 5
    assert len(run.log) == run.state.t


def test_adaptive_run_empty_stream_raises():
    with pytest.raises(BanditError):
        run_adaptive_captioning(
            [], ActionSet((0.5,)), RewardParams(n_layers=2)
        )


def test_adaptive_run_rejects_nonpositive_caption_cap():
    actions, params = ActionSet((0.5,)), RewardParams(n_layers=2)
    with pytest.raises(ValueError):
        run_adaptive_captioning(
            _images([[0.3, 0.6]], 3), actions, params, max_caption_length=0
        )
    pulled = []

    def stream():
        # Stands in for an endless image stream, bounded so that a loop
        # which never rejects the cap ends instead of hanging.
        while len(pulled) < 1000:
            pulled.append(len(pulled))
            yield make_image([[0.3, 0.6]], image_id=pulled[-1])

    with pytest.raises(ValueError):
        run_adaptive_captioning(stream(), actions, params, max_caption_length=0)
    assert pulled == []


def test_adaptive_run_rejects_uninitialized_resume():
    state = BanditState.fresh(ActionSet((0.5,)))
    with pytest.raises(BanditError):
        run_adaptive_captioning(
            _images([[0.3, 0.6]], 2),
            ActionSet((0.5,)),
            RewardParams(n_layers=2),
            state=state,
        )


def test_single_arm_adaptive_run_matches_fixed_threshold():
    # With one arm the adaptive loop must reproduce the plain caption
    # loop decision for decision.
    from exitsim import ImageTraces

    rng = np.random.default_rng(11)
    images = []
    for i in range(6):
        conf = rng.random((8, 4))
        ids = rng.integers(0, 5, (8, 4))
        traces = tuple(
            make_trace(conf[j].tolist(), token_ids=ids[j].tolist())
            for j in range(8)
        )
        images.append(ImageTraces.from_traces(i, traces))
    alpha = 0.5
    run = run_adaptive_captioning(
        images,
        ActionSet((alpha,)),
        RewardParams(n_layers=4),
        max_caption_length=8,
        eos_id=0,
    )
    for caption in run.captions:
        fixed = run_caption(
            images[caption.image_id].traces,
            alpha,
            max_caption_length=8,
            eos_id=0,
            image_id=caption.image_id,
        )
        assert caption == fixed


def test_adaptive_run_matches_per_token_reference_loop():
    # The per-image arm table must replay the plain per-token loop
    # (select, exit rule, reward, update) bit for bit, including a
    # caption cut part-way by the token budget.
    rng = np.random.default_rng(5)
    n_layers, max_len, budget, gamma = 6, 7, 101, 1.3
    images = [
        ImageTraces(i, rng.random((9, n_layers)), rng.integers(0, 4, (9, n_layers)))
        for i in range(40)
    ]
    actions = ActionSet((0.2, 0.4, 0.6, 0.8, 1.0))
    params = RewardParams(n_layers=n_layers, lam=0.7)
    run = run_adaptive_captioning(
        images,
        actions,
        params,
        gamma=gamma,
        max_caption_length=max_len,
        eos_id=0,
        max_tokens=budget,
    )

    log = BanditLog()
    state = BanditState.fresh(actions, gamma)
    for alpha, trace in zip(actions.thresholds, images[0].traces):
        decision = decide_exit(trace, alpha)
        r = reward(decision, params)
        update(state, alpha, r)
        log.append(state.t, alpha, decision.exit_layer, r)
    captions = []
    for img in images[1:]:
        if state.t >= budget:
            break
        decisions = []
        for trace in img.traces[: min(max_len, budget - state.t)]:
            alpha = ucb_select(state)
            decision = decide_exit(trace, alpha)
            r = reward(decision, params)
            update(state, alpha, r)
            log.append(state.t, alpha, decision.exit_layer, r)
            decisions.append(decision)
            if decision.token_id == 0:
                break
        eos = decisions[-1].token_id == 0
        truncated = not eos and len(decisions) < max_len
        captions.append(CaptionRun(img.image_id, tuple(decisions), eos, truncated))

    assert run.captions[-1].truncated and len(run.captions[-1]) > 0
    assert len(set(log.arms)) > 1
    assert run.log.arms == log.arms
    assert run.log.exit_layers == log.exit_layers
    assert run.log.rewards == log.rewards
    assert run.state.q == state.q
    assert run.state.pulls == state.pulls
    assert run.captions == captions


def reference_adaptive_run(images, actions, params, gamma, max_len, eos_id, budget):
    """The loop the round kernel replaced: initialize, then one
    ``run_caption`` per image with a closure that selects an arm,
    applies the scalar exit rule, scores the reward and folds it."""
    log = BanditLog()
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

        traces = islice(image.traces, budget - state.t)
        caption = run_caption(traces, adapt, max_len, eos_id, image.image_id)
        if len(caption):
            captions.append(caption)
    return captions, log, state


@pytest.mark.parametrize("budget", [23, 58, 97, 10_000])
def test_round_kernel_matches_the_run_caption_reference(budget):
    # Images of 1 to 11 tokens against a cap of 7, so some end before the
    # cap without eos; image 3 emits eos at position 0 on every arm; the
    # smaller budgets cut a caption part-way.
    rng = np.random.default_rng(8)
    n_layers, max_len, gamma = 5, 7, 1.1
    images = []
    for i in range(30):
        n = 4 if i == 0 else 1 + (i * 7) % 11
        ids = rng.integers(0, 6, (n, n_layers))
        if i == 3:
            ids[0] = 0
        images.append(ImageTraces(i, rng.random((n, n_layers)), ids))
    actions = ActionSet((0.3, 0.55, 0.7, 0.9))
    params = RewardParams(n_layers=n_layers, lam=0.8)
    run = run_adaptive_captioning(
        images, actions, params, gamma=gamma, max_caption_length=max_len,
        eos_id=0, max_tokens=budget,
    )
    captions, log, state = reference_adaptive_run(
        images, actions, params, gamma, max_len, 0, budget
    )
    assert run.captions == captions
    assert (run.log.rounds, run.log.arms) == (log.rounds, log.arms)
    assert (run.log.exit_layers, run.log.rewards) == (log.exit_layers, log.rewards)
    assert (run.state.q, run.state.pulls, run.state.t) == (state.q, state.pulls, state.t)
    by_id = {caption.image_id: caption for caption in run.captions}
    assert by_id[3].terminated_by_eos and len(by_id[3]) == 1
    assert any(
        c.truncated and len(c) == len(images[c.image_id]) < max_len
        for c in run.captions
    )
    if budget < 10_000:
        last = run.captions[-1]
        assert run.state.t == budget
        assert last.truncated and len(last) < len(images[last.image_id])


def test_adaptive_run_rejects_an_exit_past_the_reward_layers_when_played():
    params = RewardParams(n_layers=3)
    actions = ActionSet((0.5,))
    state = initialize(actions, make_image([[0.3, 0.6, 0.9]]), params)
    # Token 2 would exit at layer 4, but eos at token 1 ends the caption.
    ends_early = ImageTraces(
        0, np.array([[0.9] * 4, [0.1] * 4]), np.array([[0] * 4, [1] * 4])
    )
    run = run_adaptive_captioning([ends_early], actions, params, state=state)
    assert len(run.captions[0]) == 1
    with pytest.raises(ValueError, match="exit layer 4"):
        run_adaptive_captioning(
            [make_image([[0.1, 0.1, 0.1, 0.1]])], actions, params, state=state
        )


def test_adaptive_run_is_deterministic():
    images = _images([[0.3, 0.6, 0.9], [0.8, 0.2, 0.5], [0.1, 0.9, 0.4]], 5)
    kwargs = dict(
        actions=ActionSet((0.2, 0.5, 0.8)),
        params=RewardParams(n_layers=3),
        eos_id=-1,
    )
    a = run_adaptive_captioning(images, **kwargs)
    b = run_adaptive_captioning(images, **kwargs)
    assert a.log.arms == b.log.arms
    assert a.log.rewards == b.log.rewards
    assert a.state.q == b.state.q


def test_adaptive_run_honors_token_budget():
    images = _images([[0.3, 0.6, 0.9]] * 10, 50)
    run = run_adaptive_captioning(
        images,
        ActionSet((0.2, 0.5)),
        RewardParams(n_layers=3),
        eos_id=-1,
        max_tokens=17,
    )
    assert run.state.t == 17
    assert len(run.log) == 17
    assert run.captions[-1].truncated


def test_adaptive_run_resumes_from_snapshot_identically():
    images = _images([[0.3, 0.6, 0.9], [0.7, 0.4, 0.8]] * 3, 12)
    actions = ActionSet((0.2, 0.5, 0.8))
    params = RewardParams(n_layers=3)
    first = run_adaptive_captioning(
        images[:6], actions, params, eos_id=-1
    )
    snapshot = first.state.to_snapshot()
    restored = BanditState.from_snapshot(json.loads(json.dumps(snapshot)))
    rest = images[6:]
    cont_a = run_adaptive_captioning(
        rest, actions, params, state=first.state, eos_id=-1
    )
    cont_b = run_adaptive_captioning(
        rest, actions, params, state=restored, eos_id=-1
    )
    assert cont_a.state.q == cont_b.state.q
    assert cont_a.state.pulls == cont_b.state.pulls
    assert cont_a.state.t == cont_b.state.t
    assert cont_a.log.arms == cont_b.log.arms


# ---------------------------------------------------------------------------
# BanditState snapshots


def test_state_snapshot_round_trip(tmp_path):
    state = BanditState(
        ActionSet((0.1, 0.9)), q=[0.25, -0.5], pulls=[3, 4], t=7, gamma=1.5
    )
    path = tmp_path / "state.json"
    state.save(str(path))
    loaded = BanditState.load(str(path))
    assert loaded == state


def test_state_save_refuses_non_finite_values(tmp_path):
    # q is mutable, so a NaN reward folded in after construction can
    # reach save(); it must raise and leave no file behind.
    state = BanditState.fresh(ActionSet((0.1, 0.9)))
    update(state, 0.1, float("nan"))
    path = tmp_path / "state.json"
    with pytest.raises(BanditError, match="not finite"):
        state.save(str(path))
    assert not path.exists()


def test_state_snapshot_rejects_future_version(tmp_path):
    state = BanditState.fresh(ActionSet((0.5,)))
    snapshot = state.to_snapshot()
    snapshot["version"] = 99
    path = tmp_path / "state.json"
    path.write_text(json.dumps(snapshot))
    with pytest.raises(ValueError, match="version"):
        BanditState.load(str(path))


def test_state_snapshot_rejects_wrong_format():
    with pytest.raises(ValueError, match="format"):
        BanditState.from_snapshot({"format": "something-else", "version": 1})


# ---------------------------------------------------------------------------
# BanditLog


def test_log_append_requires_increasing_rounds():
    log = BanditLog()
    log.append(1, 0.5, 1, 0.0)
    with pytest.raises(ValueError):
        log.append(1, 0.5, 1, 0.0)


def test_log_arm_counts_window():
    log = BanditLog()
    for t, arm in enumerate([0.2, 0.2, 0.5, 0.2], start=1):
        log.append(t, arm, 1, 0.0)
    assert log.arm_counts() == {0.2: 3, 0.5: 1}
    assert log.arm_counts(last=2) == {0.5: 1, 0.2: 1}


# ---------------------------------------------------------------------------
# oracle and regret


def test_oracle_degenerate_model_every_arm_exits_layer_one():
    # All confidences exactly 1.0: every threshold exits at layer 1, so
    # every arm's expected reward is 0 and the tie resolves to the
    # smallest threshold.
    model = FixedTraceModel(np.ones((4, 6)))
    oracle = expected_reward_oracle(
        model, ActionSet.default_grid(), RewardParams(n_layers=6), samples=100
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
    model = FixedTraceModel(rows)
    params = RewardParams(n_layers=3)  # mu=1/3, latency (0, 2, 3)
    oracle = expected_reward_oracle(
        model, ActionSet((0.5, 0.85)), params, samples=3
    )
    # alpha=0.5: exits (2, 1, 1) -> rewards ((0.8-0.2)-2/3, 0, 0).
    # alpha=0.85: exits (3, 3, 1) -> ((0.9-0.2)-1, (0.7-0.5)-1, 0).
    want_a = ((0.8 - 0.2) - 2.0 / 3.0) / 3.0
    want_b = (((0.9 - 0.2) - 1.0) + ((0.7 - 0.5) - 1.0)) / 3.0
    assert oracle.expected(0.5) == pytest.approx(want_a, abs=1e-12)
    assert oracle.expected(0.85) == pytest.approx(want_b, abs=1e-12)
    assert oracle.best_threshold == 0.5
    assert oracle.gap(0.5) == 0.0
    assert oracle.gap(0.85) == pytest.approx(want_a - want_b, abs=1e-12)


def test_oracle_common_random_numbers_are_reproducible():
    model = SyntheticConfidenceModel()
    args = (model, ActionSet.default_grid(), RewardParams(n_layers=12))
    a = expected_reward_oracle(*args, samples=2000)
    b = expected_reward_oracle(*args, samples=2000)
    assert a == b


def test_shared_oracles_equal_one_oracle_per_sigma_and_lambda():
    base = SyntheticConfidenceModel(seed=3)
    models = [distort(base, sigma) for sigma in (0.0, 1.0, 2.5)]
    actions = ActionSet.default_grid()
    params = [RewardParams(n_layers=12, lam=lam) for lam in (0.5, 1.0, 2.0)]
    params.append(RewardParams(n_layers=12, mu=0.3))
    for samples, seed in ((3000, 17), (1, 5), (2000, None)):
        kwargs = {} if seed is None else {"seed": seed}
        got = shared_oracles(models, actions, params, samples=samples, **kwargs)
        assert len(got) == len(models)
        for model, estimates in zip(models, got):
            assert estimates == [
                expected_reward_oracle(model, actions, p, samples=samples, **kwargs)
                for p in params
            ]


def test_shared_oracles_validation():
    model = SyntheticConfidenceModel()
    with pytest.raises(ValueError, match="samples"):
        shared_oracles([model], ActionSet((0.5,)), [RewardParams(12)], samples=0)
    with pytest.raises(ValueError, match="layers"):
        shared_oracles([model], ActionSet((0.5,)), [RewardParams(6)], samples=10)


def test_oracle_rejects_layer_mismatch():
    model = FixedTraceModel(np.ones((2, 6)))
    with pytest.raises(ValueError):
        expected_reward_oracle(
            model, ActionSet((0.5,)), RewardParams(n_layers=4), samples=10
        )


def test_oracle_unknown_arm_lookup_raises():
    oracle = OracleEstimate((0.5,), (0.0,), samples=1)
    with pytest.raises(ValueError):
        oracle.expected(0.7)


def test_regret_zero_when_always_playing_the_best_arm():
    oracle = OracleEstimate((0.5, 0.6), (0.3, 0.2), samples=1)
    log = BanditLog()
    for t in range(1, 101):
        log.append(t, 0.5, 1, 0.0)
    curve = regret_curve(log, oracle)
    assert curve[-1] == 0.0
    assert np.all(curve == 0.0)


def test_regret_alternating_arms_hand_value():
    # 100 rounds alternating best / second-best with gap 0.1: the
    # suboptimal arm is played 50 times, so total pseudo-regret is 5.0.
    oracle = OracleEstimate((0.5, 0.6), (0.3, 0.2), samples=1)
    log = BanditLog()
    for t in range(1, 101):
        log.append(t, 0.5 if t % 2 else 0.6, 1, 0.0)
    curve = regret_curve(log, oracle)
    assert curve[-1] == pytest.approx(5.0, abs=1e-9)
    assert np.all(np.diff(curve) >= 0.0)


def test_regret_curve_rejects_uncovered_arm():
    oracle = OracleEstimate((0.5,), (0.3,), samples=1)
    log = BanditLog()
    log.append(1, 0.7, 1, 0.0)
    with pytest.raises(ValueError):
        regret_curve(log, oracle)


def test_regret_bound_hand_value():
    oracle = OracleEstimate(
        (0.3, 0.5, 0.7), (0.4, 0.3, 0.2), samples=1
    )  # gaps (0, 0.1, 0.2)
    got = regret_bound(oracle, horizon=1000, gamma=1.5)
    log_t = math.log(1000)
    gaps = oracle.gaps
    want = 4.0 * 1.5 * (log_t / gaps[1] + log_t / gaps[2])
    want += (math.pi**2 / 3.0 + 1.0) * (gaps[1] + gaps[2])
    assert got == pytest.approx(want, rel=1e-12)


def test_regret_bound_skips_co_optimal_arms():
    oracle = OracleEstimate((0.3, 0.5, 0.7), (0.3, 0.3, 0.2), samples=1)
    got = regret_bound(oracle, horizon=100, gamma=1.0)
    gap = oracle.gap(0.7)
    want = 4.0 * math.log(100) / gap + (math.pi**2 / 3.0 + 1.0) * gap
    assert got == pytest.approx(want, rel=1e-12)


def test_regret_bound_validation():
    oracle = OracleEstimate((0.5,), (0.0,), samples=1)
    with pytest.raises(ValueError):
        regret_bound(oracle, horizon=0, gamma=1.0)
    with pytest.raises(ValueError):
        regret_bound(oracle, horizon=10, gamma=0.9)
