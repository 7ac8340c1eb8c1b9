"""Acceptance gate: one test per shipping criterion, one verdict line each.

Each test prints a single CRITERION line (visible with pytest -s or -rA)
and then asserts, so a red run names exactly which guarantee broke.
Derived thresholds come from a one-time calibration run committed below;
they are fixtures, not knobs to retune when a run drifts.
"""

import json
import time

import numpy as np
import pytest

from exitsim import (
    ActionSet,
    AdaptiveCell,
    BanditState,
    RewardParams,
    StepSchedule,
    SyntheticConfidenceModel,
    SyntheticExample,
    TraceFormatError,
    init_cascade,
    read_traces,
    regret_bound,
    run_lockstep,
    shared_oracles,
    speedup_ratio,
    train_backbone,
    write_traces,
)
from exitsim.cascade import exit_layer_indices
from exitsim.cli import ABLATION_SCHEMA, _train_ablation, main as cli_main
from exitsim.distill import ToyConfig

from reference import (
    ListSink,
    TokenTrace,
    backbone_bytes,
    backbone_objective,
    decide_exit,
    exit_loss,
    exit_objective,
    gradient_check,
    kl_divergence,
    regret_curve,
    sample_image,
    split_images,
    token_traces,
)

# One-time calibration constants (committed, generator seed 7).
COMMITTED_SPEEDUP_06 = 1.6508664985534283  # fixed 0.6, sigma=0, 200k tokens
DEEP_EXIT_EPSILON = 0.02  # ablation variants must agree at the deepest exit
HORIZON = 100_000
FINAL_WINDOW = 10_000


def report(number, ok, label, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:02d} {verdict} - {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def ucb_run():
    """The shared 100k-token adaptive run over the default model."""
    model = SyntheticConfidenceModel()
    actions = ActionSet.default_grid()
    params = RewardParams(n_layers=model.n_layers)
    started = time.monotonic()
    log = ListSink()
    cell = AdaptiveCell(actions, params, 0.0, log)
    run_lockstep(model, [cell], 1.0, HORIZON, 20)
    oracle = shared_oracles(model, [0.0], actions, [params], samples=200_000)[0][0]
    elapsed = time.monotonic() - started
    return log, oracle, params, elapsed


def test_criterion_01_ucb_convergence(ucb_run):
    log, oracle, _, elapsed = ucb_run
    counts = log.arm_counts(last=FINAL_WINDOW)
    share = counts.get(oracle.best_threshold, 0) / FINAL_WINDOW
    regret = float(regret_curve(log, oracle)[-1])
    cap = 0.10 * max(oracle.gaps)
    ok = share > 0.90 and regret / HORIZON <= cap and elapsed < 120.0
    report(
        1,
        ok,
        "UCB convergence",
        f"final-{FINAL_WINDOW} share of alpha*={oracle.best_threshold} is "
        f"{share:.4f} (>0.90), R(T)/T={regret / HORIZON:.6f} <= {cap:.6f}, "
        f"{elapsed:.1f}s",
    )
    assert share > 0.90
    assert regret / HORIZON <= cap
    assert elapsed < 120.0


def test_criterion_02_regret_bound(ucb_run):
    log, oracle, _, _ = ucb_run
    regret = float(regret_curve(log, oracle)[-1])
    bound = regret_bound(oracle, HORIZON, gamma=1.0)
    ok = regret <= bound
    report(
        2,
        ok,
        "logarithmic regret bound",
        f"R(T)={regret:.1f} <= bound {bound:.1f} at T={HORIZON}",
    )
    assert ok


def test_criterion_03_reward_bounds(ucb_run):
    log, _, params, _ = ucb_run
    lo, hi = params.bounds()
    rewards = np.array(log.rewards)
    ok = bool(np.all(rewards >= lo) and np.all(rewards <= hi))
    ok = ok and (lo, hi) == (-2.0, 1.0)
    report(
        3,
        ok,
        "hard reward bounds",
        f"{len(rewards)} rewards in [{rewards.min():.4f}, {rewards.max():.4f}] "
        f"within [{lo}, {hi}]",
    )
    assert (lo, hi) == (-2.0, 1.0)
    assert np.all(rewards >= lo) and np.all(rewards <= hi)


def test_criterion_04_exit_rule_matches_brute_force():
    rng = np.random.default_rng(123)
    conf = rng.random((10_000, 12))
    alphas = rng.random(10)
    mismatches = 0
    for alpha in alphas:
        fast = exit_layer_indices(conf, alpha) + 1
        for i in range(conf.shape[0]):
            row = conf[i]
            scan = 12
            for layer in range(11):
                if row[layer] >= alpha:
                    scan = layer + 1
                    break
            decision = decide_exit(TokenTrace.from_arrays(row, range(12)), alpha)
            if decision.exit_layer != scan or fast[i] != scan:
                mismatches += 1
    ok = mismatches == 0
    report(
        4,
        ok,
        "exit rule vs brute force",
        f"10k traces x 10 alphas, {mismatches} mismatches",
    )
    assert ok


def test_criterion_05_threshold_monotonicity(tmp_path):
    model = SyntheticConfidenceModel()
    conf = model.confidence_matrix(10_000, model.stream_rng(1))
    grid = ActionSet.default_grid().thresholds
    layers = np.stack([exit_layer_indices(conf, a) for a in grid])
    per_token_monotone = bool(np.all(np.diff(layers, axis=0) >= 0))

    out = str(tmp_path)
    assert cli_main(["gen-traces", "--n-images", "500", "--out-dir", out]) == 0
    assert (
        cli_main(
            ["sweep-threshold", "--traces", f"{out}/traces.txt", "--out-dir", out]
        )
        == 0
    )
    rows = [
        line.split(",")
        for line in open(f"{out}/sweep_threshold.csv")
        if not line.startswith("#") and not line.startswith("alpha")
    ]
    speedups = [float(r[1]) for r in rows]
    sweep_monotone = all(a >= b for a, b in zip(speedups, speedups[1:]))
    ok = per_token_monotone and sweep_monotone
    report(
        5,
        ok,
        "threshold monotonicity",
        f"per-token exit layers nondecreasing over 10k traces: "
        f"{per_token_monotone}; sweep speedup column weakly decreasing "
        f"({speedups[0]:.3f} -> {speedups[-1]:.3f}): {sweep_monotone}",
    )
    assert ok


def test_criterion_06_speedup_hand_cases():
    all_final = [0] * 12
    half_depth = [0] * 12
    mixed = [0] * 12
    for _ in range(10):
        all_final[11] += 1
        half_depth[5] += 1
        mixed[2] += 1
        mixed[11] += 1
    errors = (
        abs(speedup_ratio(all_final) - 1.0),
        abs(speedup_ratio(half_depth) - 2.0),
        abs(speedup_ratio(mixed) - 1.6),
    )
    ok = all(e < 1e-12 for e in errors)
    report(
        6,
        ok,
        "speedup metric hand cases",
        f"|errors| = {tuple(f'{e:.2e}' for e in errors)} all < 1e-12",
    )
    assert ok


def _toy_fixture():
    config = ToyConfig(input_dim=6, hidden_dim=8, n_layers=3, vocab_size=5)
    model = init_cascade(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    draws = [
        (rng.normal(size=(3, config.input_dim)), rng.integers(0, config.vocab_size, 3))
        for _ in range(4)
    ]
    examples = SyntheticExample(
        features=np.concatenate([f for f, _ in draws]),
        targets=np.concatenate([t for _, t in draws]),
    )
    return model, examples


def test_criterion_07_gradient_checks():
    model, examples = _toy_fixture()
    results = {}
    x0, objective = backbone_objective(model, examples)
    results["backbone"] = gradient_check(objective, x0, n_probes=100)

    train_backbone(model, examples, 5, StepSchedule(0.2))
    rng = np.random.default_rng(3)
    for w in model.exit_weights:
        w += 0.05 * rng.normal(size=w.shape)
    for terms in ("ce", "kl", "both"):
        x0, objective = exit_objective(model, examples, loss_terms=terms)
        results[f"exit-{terms}"] = gradient_check(objective, x0, n_probes=100)

    ok = all(v < 1e-4 for v in results.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items())
    report(7, ok, "analytic gradients vs finite differences", detail)
    assert ok


def test_criterion_08_two_stage_training_contract():
    model, examples = _toy_fixture()
    train_backbone(model, examples, 10, StepSchedule(0.2))
    frozen = backbone_bytes(model)
    from exitsim import train_exits

    train_exits(model, examples, 10, StepSchedule(0.2))
    backbone_intact = backbone_bytes(model) == frozen

    rng = np.random.default_rng(5)
    additive = True
    kl_nonneg = True
    for _ in range(10_000):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        if kl_divergence(p, q) < 0.0:
            kl_nonneg = False
        breakdown = exit_loss(p[None, :], q[None, :], np.array([0]))
        if breakdown.total != breakdown.ce + breakdown.kl:
            additive = False
    ok = backbone_intact and additive and kl_nonneg
    report(
        8,
        ok,
        "two-stage training contract",
        f"backbone bytes intact: {backbone_intact}; total=ce+kl exact: "
        f"{additive}; KL >= 0 on 10k pairs: {kl_nonneg}",
    )
    assert ok


def test_criterion_09_ablation_direction():
    config = {key: default for key, (_, default) in ABLATION_SCHEMA.items()}
    config["seed"] = 7
    started = time.monotonic()
    accuracies = _train_ablation(config)
    elapsed = time.monotonic() - started
    layer1_margin = accuracies["both"][0] - accuracies["ce"][0]
    deepest = len(accuracies["ce"]) - 2
    spread = max(
        abs(accuracies["both"][deepest] - accuracies["ce"][deepest]),
        abs(accuracies["kl"][deepest] - accuracies["ce"][deepest]),
    )
    ok = layer1_margin >= 0.0 and spread <= DEEP_EXIT_EPSILON and elapsed < 300.0
    report(
        9,
        ok,
        "distillation ablation direction",
        f"layer-1 both-vs-ce margin {layer1_margin:+.4f} >= 0, deepest-exit "
        f"spread {spread:.4f} <= {DEEP_EXIT_EPSILON}, teacher accuracy "
        f"{accuracies['ce'][-1]:.4f}, {elapsed:.0f}s",
    )
    assert layer1_margin >= 0.0
    assert spread <= DEEP_EXIT_EPSILON
    assert elapsed < 300.0


def test_criterion_10_distortion_adaptation():
    base = SyntheticConfidenceModel()
    adaptive = ActionSet.default_grid()
    fixed = ActionSet((0.6,))
    params = RewardParams(n_layers=base.n_layers)
    tokens = 200_000
    started = time.monotonic()
    sigmas = (1.0, 2.0)
    cells = [
        [AdaptiveCell(arms, params, sigma) for arms in (adaptive, fixed)]
        for sigma in sigmas
    ]
    run_lockstep(base, [cell for pair in cells for cell in pair], 1.0, tokens, 20)
    margins = {}
    for sigma, pair in zip(sigmas, cells):
        adaptive_reward, fixed_reward = (c.metrics()["mean_reward"] for c in pair)
        margins[sigma] = adaptive_reward - fixed_reward
    best_clean = shared_oracles(base, [0.0], adaptive, [params])[0][0].best_threshold
    best_noisy = shared_oracles(base, [2.0], adaptive, [params])[0][0].best_threshold
    elapsed = time.monotonic() - started
    ok = (
        all(m >= 0.0 for m in margins.values())
        and best_noisy != best_clean
        and elapsed < 180.0
    )
    report(
        10,
        ok,
        "adaptation under distortion",
        f"adaptive-minus-fixed margins sigma=1: {margins[1.0]:+.4f}, "
        f"sigma=2: {margins[2.0]:+.4f} (both >= 0); oracle alpha* moves "
        f"{best_clean} -> {best_noisy}; {elapsed:.0f}s",
    )
    assert margins[1.0] >= 0.0 and margins[2.0] >= 0.0
    assert best_noisy != best_clean
    assert elapsed < 180.0


def test_criterion_11_calibration_bracket():
    model = SyntheticConfidenceModel()
    conf = model.confidence_matrix(200_000, model.stream_rng(0))
    idx = exit_layer_indices(conf, 0.6)
    value = speedup_ratio(np.bincount(idx, minlength=model.n_layers).tolist())
    # the vectorized rule must agree with decide_exit on a slice
    agree = all(
        decide_exit(TokenTrace.from_arrays(conf[i], range(12)), 0.6).exit_layer
        == int(idx[i]) + 1
        for i in range(2000)
    )
    ok = 1.5 <= value <= 2.0 and value == COMMITTED_SPEEDUP_06 and agree
    report(
        11,
        ok,
        "speedup calibration bracket",
        f"fixed-0.6 speedup {value!r} in [1.5, 2.0], equals committed "
        f"{COMMITTED_SPEEDUP_06!r}: {value == COMMITTED_SPEEDUP_06}",
    )
    assert 1.5 <= value <= 2.0
    assert value == COMMITTED_SPEEDUP_06
    assert agree


def test_criterion_12_serialization_round_trips(tmp_path):
    model = SyntheticConfidenceModel()
    images = [
        sample_image(model, model.stream_rng(0), max_len=4, image_id=i)
        for i in range(10)
    ]
    trace_path = str(tmp_path / "traces.txt")
    write_traces(trace_path, images, model.n_layers, model.vocab_size)
    loaded = split_images(read_traces(trace_path))
    traces_ok = [token_traces(img) for img in loaded] == [
        token_traces(img) for img in images
    ]
    targets_ok = [img.targets.tolist() for img in loaded] == [
        img.targets.tolist() for img in images
    ]

    lines = open(trace_path).read().splitlines()
    lines[0] = lines[0].replace("exitsim-traces 1", "exitsim-traces 2")
    bumped = tmp_path / "v2.txt"
    bumped.write_text("\n".join(lines) + "\n")
    try:
        list(read_traces(str(bumped)))
        version_rejected = False
    except TraceFormatError:
        version_rejected = True

    state = BanditState(
        ActionSet((0.2, 0.8)), q=[0.5, -0.25], pulls=[3, 4], t=7, gamma=1.5
    )
    state_path = str(tmp_path / "state.json")
    state.save(state_path)
    state_ok = BanditState.load(state_path) == state
    snapshot = json.load(open(state_path))
    snapshot["version"] = 99
    json.dump(snapshot, open(state_path, "w"))
    try:
        BanditState.load(state_path)
        state_version_rejected = False
    except ValueError:
        state_version_rejected = True

    ok = (
        traces_ok
        and targets_ok
        and version_rejected
        and state_ok
        and state_version_rejected
    )
    report(
        12,
        ok,
        "serialization round trips",
        f"trace file round-trip: {traces_ok and targets_ok}, version bump "
        f"rejected: {version_rejected}; bandit state round-trip: {state_ok}, "
        f"version bump rejected: {state_version_rejected}",
    )
    assert ok
