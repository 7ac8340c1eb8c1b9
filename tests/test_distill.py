"""Toy cascade: forward pass, losses, manual gradients, two-stage training."""

import copy
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exitsim import (
    CheckpointError,
    StepSchedule,
    SyntheticExample,
    ToyConfig,
    TrainingError,
    finetune_loss,
    head_confidences,
    init_cascade,
    layer_accuracies,
    load_cascade,
    make_task,
    save_cascade,
    train_backbone,
    train_exits,
)
from exitsim import distill
from exitsim.distill import softmax

from reference import (
    LossBreakdown,
    backbone_objective,
    exit_loss,
    exit_objective,
    forward,
    gradient_check,
    kl_divergence,
)

from conftest import json_values

SMALL = ToyConfig(input_dim=6, hidden_dim=8, n_layers=3, vocab_size=5)


def small_model(seed=0):
    return init_cascade(SMALL, np.random.default_rng(seed))


def stack(draws):
    """One row block from (features, targets) draws, in draw order."""
    features, targets = zip(*draws)
    return SyntheticExample(
        features=np.concatenate(features), targets=np.concatenate(targets)
    )


def small_examples(seed=1, n=4, tokens=3):
    rng = np.random.default_rng(seed)
    return stack(
        (
            rng.normal(size=(tokens, SMALL.input_dim)),
            rng.integers(0, SMALL.vocab_size, tokens),
        )
        for _ in range(n)
    )


def blob_task(seed=2, n_examples=64, tokens=4):
    """Two well-separated gaussian clusters, labeled 1 and 2."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_examples):
        signs = rng.choice([-1.0, 1.0], size=tokens)
        feats = rng.normal(scale=0.3, size=(tokens, SMALL.input_dim))
        feats[:, 0] += 2.0 * signs
        draws.append((feats, np.where(signs > 0, 1, 2)))
    return stack(draws)


# ---------------------------------------------------------------------------
# Allocating reference formulas.  The training code works in per-call
# buffers and in place; it must reproduce these one-expression forms bit
# for bit, so every test below compares with np.array_equal.

FLOOR = distill.DEFAULT_PROB_FLOOR


def reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def reference_kl_rows(p, q):
    diff = np.log(np.maximum(p, FLOOR)) - np.log(np.maximum(q, FLOOR))
    kl = np.where(p > 0.0, p * diff, 0.0).sum(axis=-1)
    return kl, p * (diff - kl[..., None])


def reference_ce_grad(probs, targets):
    grad = probs.copy()
    grad[np.arange(len(targets)), targets] -= 1.0
    return grad / len(targets)


def reference_states(model, features):
    states = []
    h = features
    for w, b in zip(model.layer_weights, model.layer_biases):
        h = np.tanh(h @ w + b)
        states.append(h)
    return states


def reference_backbone_backward(model, example):
    features, targets = example.features, example.targets
    states = reference_states(model, features)
    probs = reference_softmax(states[-1] @ model.teacher_weight + model.teacher_bias)
    loss = -np.log(np.maximum(probs[np.arange(len(targets)), targets], FLOOR)).mean()
    g_logits = reference_ce_grad(probs, targets)
    g_teacher_w = states[-1].T @ g_logits
    g_teacher_b = g_logits.sum(axis=0)
    g_h = g_logits @ model.teacher_weight.T
    n = len(model.layer_weights)
    g_weights, g_biases = [None] * n, [None] * n
    for i in range(n - 1, -1, -1):
        g_z = g_h * (1.0 - states[i] ** 2)
        below = features if i == 0 else states[i - 1]
        g_weights[i] = below.T @ g_z
        g_biases[i] = g_z.sum(axis=0)
        g_h = g_z @ model.layer_weights[i].T
    return float(loss), g_weights, g_biases, g_teacher_w, g_teacher_b


def reference_exits_backward(model, example, terms):
    targets = example.targets
    states = reference_states(model, example.features)
    teacher = reference_softmax(states[-1] @ model.teacher_weight + model.teacher_bias)
    total = 0.0
    g_weights, g_biases = [], []
    for i in range(model.config.n_layers - 1):
        logits = states[i] @ model.exit_weights[i] + model.exit_biases[i]
        probs = reference_softmax(logits)
        g_logits = np.zeros_like(logits)
        if terms in ("ce", "both"):
            total += float(-np.log(np.maximum(
                probs[np.arange(len(targets)), targets], FLOOR)).mean())
            g_logits += reference_ce_grad(probs, targets)
        if terms in ("kl", "both"):
            kl_rows, kl_grad = reference_kl_rows(probs, teacher)
            total += float(np.maximum(kl_rows, 0.0).mean())
            g_logits += kl_grad / len(targets)
        g_weights.append(states[i].T @ g_logits)
        g_biases.append(g_logits.sum(axis=0))
    return total, g_weights, g_biases


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


DATASETS = {"small": small_examples, "blob": blob_task}


# ---------------------------------------------------------------------------
# forward pass


def test_zero_parameters_give_uniform_heads():
    model = small_model()
    for w in model.layer_weights:
        w[:] = 0.0
    for b in model.layer_biases:
        b[:] = 0.0
    model.teacher_weight[:] = 0.0
    model.teacher_bias[:] = 0.0
    probs = forward(model, small_examples(n=1))
    assert np.allclose(probs, 1.0 / SMALL.vocab_size, atol=0)


def test_probabilities_sum_to_one():
    model = small_model()
    probs = forward(model, small_examples(n=1))
    assert probs.shape == (3, SMALL.n_layers, SMALL.vocab_size)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(probs >= 0.0)


def test_fresh_exit_heads_start_uniform():
    # Exit heads are zero-initialized, so before stage two every exit
    # emits the uniform distribution no matter what the backbone does.
    model = small_model()
    example = small_examples(n=1)
    confidences = forward(model, example).max(axis=2)
    assert np.allclose(confidences[:, :-1], 1.0 / SMALL.vocab_size, rtol=1e-6)


def test_forward_exposes_all_heads():
    # The stacked form of the (tokens, layers) confidence and token-id
    # arrays that sweep-threshold --model reads from head_confidences.
    model = small_model()
    example = small_examples(n=1)
    probs = forward(model, example)
    confidences, token_ids = probs.max(axis=2), probs.argmax(axis=2)
    shape = (len(example.targets), SMALL.n_layers)
    assert confidences.shape == token_ids.shape == shape
    assert np.all((confidences > 0.0) & (confidences <= 1.0))
    assert np.all((token_ids >= 0) & (token_ids < SMALL.vocab_size))


def reference_forward(model, example):
    """Every layer's state, then an allocating softmax per head, stacked:
    what the per-head pass must reproduce bit for bit."""
    states = reference_states(model, example.features)
    heads = zip(
        [*model.exit_weights, model.teacher_weight],
        [*model.exit_biases, model.teacher_bias],
    )
    return np.stack(
        [reference_softmax(h @ w + b) for h, (w, b) in zip(states, heads)], axis=1
    )


def reference_layer_accuracies(model, example):
    """Accuracy from the stacked block's argmax: what layer_accuracies
    must reproduce exactly."""
    hits = forward(model, example).argmax(axis=2) == example.targets[:, None]
    return tuple(float(v) for v in hits.mean(axis=0))


def head_cases():
    """(model, block) pairs: random and zero (all logits tied) heads, a
    1-row block, two layers, and a two-token vocabulary."""
    configs = (
        SMALL,
        ToyConfig(input_dim=6, hidden_dim=8, n_layers=2, vocab_size=5),
        ToyConfig(input_dim=6, hidden_dim=8, n_layers=3, vocab_size=2),
    )
    for seed, config in enumerate(configs):
        rng = np.random.default_rng(seed)
        for rows in (1, 37):
            example = SyntheticExample(
                features=rng.normal(size=(rows, config.input_dim)),
                targets=rng.integers(0, config.vocab_size, rows),
            )
            fresh = init_cascade(config, rng)  # zero exit heads
            yield fresh, example
            drawn = copy.deepcopy(fresh)
            for w in drawn.exit_weights:
                w[:] = rng.normal(size=w.shape)
            yield drawn, example


def test_head_pass_matches_the_stacked_reference_bitwise():
    for model, example in head_cases():
        want = reference_forward(model, example)
        heads = [p.copy() for p in distill._head_probs(model, example)]
        assert len(heads) == model.config.n_layers
        for i, probs in enumerate(heads):
            assert np.array_equal(probs, want[:, i])
        assert np.array_equal(forward(model, example), want)


def test_layer_accuracies_match_the_stacked_formula():
    for model, example in head_cases():
        assert layer_accuracies(model, example) == reference_layer_accuracies(
            model, example
        )


def test_head_confidences_match_the_stacked_max_and_argmax():
    for model, example in head_cases():
        probs = forward(model, example)
        confidences, token_ids = head_confidences(model, example)
        assert np.array_equal(confidences, probs.max(axis=2))
        assert np.array_equal(token_ids, probs.argmax(axis=2))
        assert token_ids.dtype == probs.argmax(axis=2).dtype


def test_layer_accuracies_peak_below_one_stacked_block():
    # The held-out pass keeps one head's probabilities at a time, never a
    # (rows, n_layers, vocab) block.
    config = ToyConfig()
    heldout = make_task(config, np.random.default_rng(0)).heldout
    model = init_cascade(config, np.random.default_rng(1))
    block = heldout.features.shape[0] * config.n_layers * config.vocab_size * 8
    tracemalloc.start()
    try:
        layer_accuracies(model, heldout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(heldout.targets) == 8192
    assert peak < block


def test_init_is_deterministic():
    a = init_cascade(SMALL, np.random.default_rng(42))
    b = init_cascade(SMALL, np.random.default_rng(42))
    assert a.backbone_bytes() == b.backbone_bytes()
    for wa, wb in zip(a.exit_weights, b.exit_weights):
        assert np.array_equal(wa, wb)


def test_softmax_is_shift_stable():
    rng = np.random.default_rng(4)
    for logits in (
        np.array([[1000.0, 1000.0, 999.0]]),
        1000.0 + rng.normal(size=(6, 33)),  # an odd width
        -1000.0 + rng.normal(size=(2, 3, 5)),  # 3-D, far below zero
    ):
        probs = softmax(logits)
        assert np.isfinite(probs).all()
        assert np.allclose(probs.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 5, 32, 33])
def test_softmax_matches_the_reference_bitwise(width):
    rng = np.random.default_rng(width)
    logits = 4.0 * rng.normal(size=(17, width))
    logits[3] = 7.0  # a row of ties
    logits[5, -1] = logits[5].max() + 1.0  # the max in the odd leftover slot
    for block in (logits, logits.reshape(17, 1, width), np.stack([logits, -logits])):
        assert np.array_equal(softmax(block), reference_softmax(block))


# ---------------------------------------------------------------------------
# losses


def test_finetune_loss_on_certain_predictions_is_zero():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert finetune_loss(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)


def test_finetune_loss_on_uniform_is_log_vocab():
    probs = np.full((5, 4), 0.25)
    targets = np.array([0, 1, 2, 3, 0])
    assert finetune_loss(probs, targets) == pytest.approx(math.log(4), abs=1e-12)


def test_finetune_loss_worked_example():
    # Two tokens with target probabilities 0.5 and 0.25:
    # (ln 2 + ln 4) / 2 = 1.0397.
    probs = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25]])
    loss = finetune_loss(probs, np.array([0, 0]))
    assert loss == pytest.approx((math.log(2) + math.log(4)) / 2.0, abs=1e-12)
    assert loss == pytest.approx(1.0397, abs=5e-5)


def test_kl_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p.copy()) == 0.0
    assert kl_divergence(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert kl_divergence(p, np.array([0.5, 0.3, 0.2])) > 0.0


def test_kl_worked_example():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    want = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    got = kl_divergence(p, q)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.5108, abs=5e-5)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(10_000):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, q) >= 0.0


def test_kl_handles_zero_reference_mass():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    value = kl_divergence(p, q)
    assert np.isfinite(value)
    assert value > 10.0  # mass where the floored reference has ~none
    # zero mass on both sides, and a student that is exactly one-hot
    for p, q in ((np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.0, 0.5])),
                 (np.array([0.0, 1.0]), np.array([1.0, 0.0]))):
        value = kl_divergence(p, q)
        assert np.isfinite(value) and value >= 0.0
        assert value == max(float(reference_kl_rows(p, q)[0]), 0.0)


def test_kl_rows_match_the_reference_bitwise():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(7), size=9)
    q = rng.dirichlet(np.ones(7), size=9)
    q[0, 2] = 0.0
    masked = np.where(p < 0.1, 0.0, p)
    # A zero-mass term is 0 * finite either way; the mask shows on a NaN
    # entry, which it drops from that row's divergence.
    masked[1, 3] = np.nan
    for student in (p, masked):
        kl, grad = distill._kl_rows(student, distill._floored_log(q))
        want_kl, want_grad = reference_kl_rows(student, q)
        assert np.array_equal(kl, want_kl)
        assert np.array_equal(grad, want_grad, equal_nan=True)
    assert np.isfinite(kl[1])


def test_exit_loss_composition():
    student = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
    teacher = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1]])
    targets = np.array([0, 1])
    breakdown = exit_loss(student, teacher, targets)
    assert breakdown.total == breakdown.ce + breakdown.kl
    want_ce = -(math.log(0.7) + math.log(0.8)) / 2.0
    want_kl = (
        kl_divergence(student[0], teacher[0]) + kl_divergence(student[1], teacher[1])
    ) / 2.0
    assert breakdown.ce == pytest.approx(want_ce, abs=1e-12)
    assert breakdown.kl == pytest.approx(want_kl, abs=1e-12)


def test_exit_loss_vanishing_kl_when_student_matches_teacher():
    probs = np.array([[0.7, 0.2, 0.1]])
    breakdown = exit_loss(probs, probs.copy(), np.array([0]))
    assert breakdown.kl == 0.0
    assert breakdown.total == breakdown.ce


def test_exit_loss_shape_mismatch():
    with pytest.raises(ValueError):
        exit_loss(np.ones((2, 3)) / 3, np.ones((3, 3)) / 3, np.array([0, 1]))


def test_loss_breakdown_record():
    assert LossBreakdown(ce=1.5, kl=0.25).total == 1.75


# ---------------------------------------------------------------------------
# schedule


def test_step_schedule_decays_in_plateaus():
    schedule = StepSchedule(initial=1.0, decay=0.5, every=200)
    assert schedule.rate(0) == 1.0
    assert schedule.rate(199) == 1.0
    assert schedule.rate(200) == 0.5
    assert schedule.rate(399) == 0.5
    assert schedule.rate(400) == 0.25


def test_step_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(initial=0.0)
    with pytest.raises(ValueError):
        StepSchedule(decay=0.0)
    with pytest.raises(ValueError):
        StepSchedule(decay=1.5)
    with pytest.raises(ValueError):
        StepSchedule(every=0)


# ---------------------------------------------------------------------------
# gradients


def test_backbone_gradient_matches_finite_differences():
    model = small_model()
    x0, objective = backbone_objective(model, small_examples())
    assert gradient_check(objective, x0, n_probes=100) < 1e-4


@pytest.mark.parametrize("terms", ["ce", "kl", "both"])
def test_exit_gradient_matches_finite_differences(terms):
    model = small_model()
    train_backbone(model, small_examples(), epochs=5, schedule=StepSchedule(0.2))
    # nudge the heads off the uniform stationary point first
    rng = np.random.default_rng(3)
    for w in model.exit_weights:
        w += 0.05 * rng.normal(size=w.shape)
    x0, objective = exit_objective(model, small_examples(), loss_terms=terms)
    assert gradient_check(objective, x0, n_probes=100) < 1e-4


@pytest.mark.parametrize("data", sorted(DATASETS))
def test_backbone_gradient_matches_the_reference_bitwise(data):
    model = small_model()
    example = DATASETS[data]()
    x0, objective = backbone_objective(model, example)
    loss, grad = objective(x0)
    want_loss, g_w, g_b, g_tw, g_tb = reference_backbone_backward(model, example)
    assert loss == want_loss
    assert np.array_equal(grad, flat(g_w + g_b + [g_tw, g_tb]))


@pytest.mark.parametrize("terms", ["ce", "kl", "both"])
@pytest.mark.parametrize("data", sorted(DATASETS))
def test_exit_gradient_matches_the_reference_bitwise(terms, data):
    model = small_model()
    example = DATASETS[data]()
    train_backbone(model, example, 5, StepSchedule(0.2))
    rng = np.random.default_rng(3)
    for w in model.exit_weights:
        w += 0.05 * rng.normal(size=w.shape)
    x0, objective = exit_objective(model, example, loss_terms=terms)
    loss, grad = objective(x0)
    want_loss, g_w, g_b = reference_exits_backward(model, example, terms)
    assert loss == want_loss
    assert np.array_equal(grad, flat(g_w + g_b))


@pytest.mark.parametrize("terms", ["ce", "kl", "both"])
@pytest.mark.parametrize("data", sorted(DATASETS))
def test_training_matches_the_reference_bitwise(terms, data):
    example = DATASETS[data]()
    schedule = StepSchedule(0.5, 0.5, 3)
    model, reference = small_model(), small_model()
    history = train_backbone(model, example, 6, schedule)
    want = []
    for epoch in range(6):
        loss, g_w, g_b, g_tw, g_tb = reference_backbone_backward(reference, example)
        want.append(loss)
        lr = schedule.rate(epoch)
        for i in range(len(reference.layer_weights)):
            reference.layer_weights[i] -= lr * g_w[i]
            reference.layer_biases[i] -= lr * g_b[i]
        reference.teacher_weight -= lr * g_tw
        reference.teacher_bias -= lr * g_tb
    assert history == want
    assert model.backbone_bytes() == reference.backbone_bytes()

    history = train_exits(model, example, 6, schedule, loss_terms=terms)
    want = []
    for epoch in range(6):
        loss, g_w, g_b = reference_exits_backward(reference, example, terms)
        want.append(loss)
        lr = schedule.rate(epoch)
        for i in range(len(reference.exit_weights)):
            reference.exit_weights[i] -= lr * g_w[i]
            reference.exit_biases[i] -= lr * g_b[i]
    assert history == want
    for got, ref in zip(
        model.exit_weights + model.exit_biases,
        reference.exit_weights + reference.exit_biases,
    ):
        assert got.tobytes() == ref.tobytes()


def test_objectives_do_not_reuse_returned_gradients():
    # The objectives keep per-call buffers; a later call must not write
    # into the gradient an earlier call returned.
    model = small_model()
    example = small_examples()
    train_backbone(model, example, 0, StepSchedule())
    rng = np.random.default_rng(6)
    for x0, objective in (
        backbone_objective(model, example),
        exit_objective(model, example, loss_terms="both"),
    ):
        _, first = objective(x0)
        kept = first.copy()
        _, second = objective(x0 + 0.1 * rng.normal(size=x0.shape))
        assert not np.array_equal(second, kept)
        assert np.array_equal(first, kept)


def _kl_grad_logits(student, teacher):
    """Gradient of mean KL(student || teacher) w.r.t. student logits."""
    return distill._kl_rows(student, distill._floored_log(teacher))[1] / len(student)


def test_kl_gradient_vanishes_at_matching_distributions():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(5), size=8)
    grad = _kl_grad_logits(probs, probs.copy())
    assert np.max(np.abs(grad)) < 1e-8


def test_gradient_check_flags_a_wrong_gradient():
    model = small_model()
    x0, objective = backbone_objective(model, small_examples())

    def broken(x):
        loss, grad = objective(x)
        return loss, 2.0 * grad

    assert gradient_check(broken, x0, n_probes=20) > 0.1


# ---------------------------------------------------------------------------
# two-stage training


def test_zero_epochs_freezes_without_touching_parameters():
    model = small_model()
    before = model.backbone_bytes()
    history = train_backbone(model, small_examples(), 0, StepSchedule())
    assert history == []
    assert model.frozen
    assert model.backbone_bytes() == before


def test_backbone_cannot_train_twice():
    model = small_model()
    train_backbone(model, small_examples(), 1, StepSchedule())
    with pytest.raises(TrainingError):
        train_backbone(model, small_examples(), 1, StepSchedule())


def test_exits_require_frozen_backbone():
    model = small_model()
    with pytest.raises(TrainingError):
        train_exits(model, small_examples(), 1, StepSchedule())


def test_backbone_training_solves_separable_blobs():
    model = small_model()
    examples = blob_task()
    history = train_backbone(
        model, examples, epochs=200, schedule=StepSchedule(0.5, 0.5, 100)
    )
    assert history[-1] < history[0]
    teacher_acc = layer_accuracies(model, examples)[-1]
    assert teacher_acc > 0.95


def test_backbone_loss_is_nonincreasing_at_small_steps():
    model = small_model()
    history = train_backbone(
        model, blob_task(), epochs=60, schedule=StepSchedule(0.01, 1.0, 10_000)
    )
    diffs = np.diff(history)
    assert np.all(diffs <= 1e-6)


def test_training_is_deterministic():
    hist_a = train_backbone(small_model(), blob_task(), 30, StepSchedule(0.2))
    hist_b = train_backbone(small_model(), blob_task(), 30, StepSchedule(0.2))
    assert hist_a == hist_b


def test_exit_training_leaves_backbone_untouched():
    model = small_model()
    examples = blob_task()
    train_backbone(model, examples, 50, StepSchedule(0.5))
    frozen_bytes = model.backbone_bytes()
    before_heads = [w.copy() for w in model.exit_weights]
    history = train_exits(model, examples, 40, StepSchedule(0.5), loss_terms="both")
    assert model.backbone_bytes() == frozen_bytes
    assert any(
        not np.array_equal(w, before)
        for w, before in zip(model.exit_weights, before_heads)
    )
    assert history[-1] < history[0]


def test_exit_training_improves_shallow_accuracy():
    model = small_model()
    examples = blob_task()
    train_backbone(model, examples, 100, StepSchedule(0.5, 0.5, 50))
    uniform_acc = layer_accuracies(model, examples)[0]
    train_exits(model, examples, 80, StepSchedule(0.5, 0.5, 40))
    trained_acc = layer_accuracies(model, examples)[0]
    assert trained_acc > uniform_acc


def test_non_finite_loss_is_reported():
    model = small_model()
    model.teacher_weight[:] = 1e308  # force an overflow on the first epoch
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="non-finite"):
            train_backbone(model, blob_task(), 3, StepSchedule(1.0))


def test_unknown_loss_terms_rejected():
    model = small_model()
    train_backbone(model, small_examples(), 0, StepSchedule())
    with pytest.raises(ValueError):
        train_exits(model, small_examples(), 1, StepSchedule(), loss_terms="mse")
    # checked before any epoch, and before the objective is first called
    with pytest.raises(ValueError):
        train_exits(model, small_examples(), 0, StepSchedule(), loss_terms="mse")
    with pytest.raises(ValueError):
        exit_objective(model, small_examples(), loss_terms="mse")


@pytest.mark.parametrize("epochs", [0, 1, 7])
def test_exit_training_runs_the_backbone_once(epochs, monkeypatch):
    model = small_model()
    train_backbone(model, small_examples(), 0, StepSchedule())
    calls = []
    real = distill._hidden_states

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distill, "_hidden_states", counting)
    train_exits(model, small_examples(), epochs, StepSchedule())
    assert len(calls) == 1


def test_target_outside_vocab_rejected():
    model = small_model()
    bad = SyntheticExample(
        features=np.zeros((2, SMALL.input_dim)),
        targets=np.array([0, SMALL.vocab_size]),
    )
    with pytest.raises(ValueError):
        train_backbone(model, bad, 1, StepSchedule())


# ---------------------------------------------------------------------------
# task construction


def test_make_task_is_deterministic():
    config = ToyConfig()
    a = make_task(config, np.random.default_rng(5), n_train=16, n_heldout=16)
    b = make_task(config, np.random.default_rng(5), n_train=16, n_heldout=16)
    for x, y in ((a.train, b.train), (a.heldout, b.heldout)):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.targets, y.targets)


def test_make_task_labels_and_margins():
    config = ToyConfig()
    task = make_task(
        config, np.random.default_rng(8), n_train=64, n_heldout=256, n_classes=4
    )
    # one block per split: examples times the default 8 tokens each
    assert task.train.features.shape == (64 * 8, config.input_dim)
    assert len(task.heldout.targets) == 256 * 8

    def parity_labels(features):
        b0 = (features[:, 0] > 0) ^ (features[:, 1] > 0)
        b1 = (features[:, 2] > 0) ^ (features[:, 3] > 0)
        return (b0.astype(int) << 1) | b1.astype(int)

    heldout = task.heldout
    # defining coordinates keep a clear margin around zero
    assert np.all(np.abs(heldout.features[:, :4]) >= 0.3)
    # held-out labels are exactly the parity rule
    assert np.array_equal(heldout.targets, parity_labels(heldout.features))
    mismatches = parity_labels(task.train.features) != task.train.targets
    # train labels carry the injected noise: about 7.5% disagree
    assert 0.02 < mismatches.mean() < 0.15


def test_make_task_validation():
    config = ToyConfig()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_task(config, rng, n_classes=3)
    with pytest.raises(ValueError):
        make_task(config, rng, n_classes=64)
    with pytest.raises(ValueError):
        make_task(config, rng, margin=-0.1)
    with pytest.raises(ValueError, match="share of drawn rows"):
        make_task(config, rng, margin=3.0)
    with pytest.raises(ValueError):
        make_task(config, rng, label_noise=1.5)
    with pytest.raises(ValueError):
        make_task(config, rng, tokens_per_example=0)
    with pytest.raises(ValueError):
        make_task(config, rng, n_train=0)


def test_synthetic_example_validation():
    with pytest.raises(ValueError):
        SyntheticExample(features=np.zeros(4), targets=np.array([0]))
    with pytest.raises(ValueError):
        SyntheticExample(features=np.zeros((2, 4)), targets=np.array([0]))
    with pytest.raises(ValueError):
        SyntheticExample(features=np.zeros((1, 4)), targets=np.array([-1]))
    with pytest.raises(ValueError, match="at least one row"):
        SyntheticExample(features=np.zeros((0, 4)), targets=np.zeros(0, dtype=int))


def test_toy_config_validation():
    with pytest.raises(ValueError):
        ToyConfig(n_layers=1)
    with pytest.raises(ValueError):
        ToyConfig(vocab_size=1)
    with pytest.raises(ValueError):
        ToyConfig(input_dim=0)
    with pytest.raises(ValueError):
        ToyConfig(hidden_dim=0)
    with pytest.raises(ValueError, match="n_layers must be an int"):
        ToyConfig(n_layers=6.0)
    with pytest.raises(ValueError, match="hidden_dim must be an int"):
        ToyConfig(hidden_dim=True)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    model = small_model()
    train_backbone(model, small_examples(), 5, StepSchedule(0.2))
    train_exits(model, small_examples(), 5, StepSchedule(0.2))
    path = str(tmp_path / "model.json")
    save_cascade(model, path)
    loaded = load_cascade(path)
    assert loaded.config == model.config
    assert loaded.frozen == model.frozen
    assert loaded.backbone_bytes() == model.backbone_bytes()
    for a, b in zip(loaded.exit_weights, model.exit_weights):
        assert np.array_equal(a, b)
    example = small_examples(n=1)
    assert np.array_equal(forward(loaded, example), forward(model, example))


def test_checkpoint_bytes_are_stable(tmp_path):
    model = small_model()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_cascade(model, p1)
    save_cascade(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]  # no temp file


def test_checkpoint_save_refuses_non_finite_parameters(tmp_path):
    model = small_model()
    model.exit_weights[0][0, 0] = float("nan")
    path = tmp_path / "model.json"
    with pytest.raises(TrainingError, match="non-finite"):
        save_cascade(model, str(path))
    assert not path.exists()


def test_checkpoint_rejects_foreign_and_future_files(tmp_path):
    model = small_model()
    path = str(tmp_path / "model.json")
    save_cascade(model, path)
    blob = json.load(open(path))

    blob_bad = dict(blob, format="other-format")
    bad_path = str(tmp_path / "bad.json")
    json.dump(blob_bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="format"):
        load_cascade(bad_path)

    blob_v9 = dict(blob, version=9)
    json.dump(blob_v9, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="version"):
        load_cascade(bad_path)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = small_model()
    path = str(tmp_path / "model.json")
    save_cascade(model, path)
    blob = json.load(open(path))
    blob["exit_weights"][0] = [[0.0, 0.0], [0.0, 0.0]]
    json.dump(blob, open(path, "w"))
    with pytest.raises(CheckpointError):
        load_cascade(path)


def test_checkpoint_rejects_a_layer_count_no_memory_could_hold(tmp_path):
    # The layer count is compared before any per-layer shape is built.
    path = str(tmp_path / "model.json")
    save_cascade(small_model(), path)
    blob = json.load(open(path))
    blob["config"]["n_layers"] = 10**15
    json.dump(blob, open(path, "w"))
    with pytest.raises(CheckpointError, match="backbone layers"):
        load_cascade(path)


def _key_paths(value, path=()):
    """The path of ``value`` itself and of everything nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from _key_paths(child, path + (key,))


def _tiny_checkpoint():
    """A saved 2-layer cascade two units wide, as the JSON it parses to."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        model = init_cascade(ToyConfig(2, 2, 2, 2), np.random.default_rng(0))
        save_cascade(model, path)
        with open(path) as fh:
            return json.load(fh)


@st.composite
def _checkpoint_like(draw, valid):
    """``valid`` with up to three of its values, at any depth and the
    whole included, dropped or replaced by a JSON value, a number too
    large for a float or a layer count no memory could hold."""
    blob = copy.deepcopy(valid)
    paths = list(_key_paths(valid))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(paths))
        new = draw(json_values | st.sampled_from([10**400, -(10**400), 2**63, 10**15]))
        try:
            parent = blob
            for key in path[:-1]:
                parent = parent[key]
            if not path:
                blob = new
            elif draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path
    return blob


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(blob=_checkpoint_like(_tiny_checkpoint()))
def test_load_cascade_parses_or_raises_checkpoint_error(tmp_path, blob):
    path = str(tmp_path / "model.json")
    with open(path, "w") as fh:
        json.dump(blob, fh)
    try:
        model = load_cascade(path)
    except CheckpointError:
        return
    save_cascade(model, path)
    assert load_cascade(path).backbone_bytes() == model.backbone_bytes()

