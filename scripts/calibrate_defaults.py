#!/usr/bin/env python3
"""One-time calibration run behind the committed test constants.

The acceptance tests pin several derived numbers (the fixed-0.6 speedup,
the UCB convergence share, the ablation margins, the distortion-shift
margins).  This script re-derives every one of them from scratch so the
pins can be audited or regenerated after a deliberate generator change.
It is not part of the test suite and never runs in CI; rerun it by hand
and update tests/test_acceptance.py only when the generator or the toy
task is deliberately redesigned.

Full run takes a few minutes on a laptop. `--quick` trades sample count
for speed and is useful only for smoke-checking edits to this script.
"""

import argparse
import time
from collections import deque

import numpy as np

from exitsim import (
    ActionSet,
    AdaptiveCell,
    RewardParams,
    SyntheticConfidenceModel,
    run_lockstep,
    shared_oracles,
    speedup_ratio,
)
from exitsim.cascade import exit_layer_indices
from exitsim.cli import ABLATION_SCHEMA, _train_ablation


def oracle_landscapes(base, actions, params, samples):
    print("== oracle reward landscapes ==")
    sigmas = (0.0, 1.0, 2.0)
    oracles = shared_oracles(base, sigmas, actions, [params], samples=samples)
    for sigma, [oracle] in zip(sigmas, oracles):
        gaps = sorted(oracle.gaps)
        print(
            f"sigma={sigma}: alpha*={oracle.best_threshold} "
            f"runner-up gap={gaps[1]:.6f} max gap={gaps[-1]:.6f}"
        )
        for alpha, expected in zip(oracle.thresholds, oracle.expected_rewards):
            print(f"    alpha={alpha:.1f}  E[r]={expected:+.6f}")


def committed_speedup(base, tokens):
    print("== committed fixed-0.6 speedup (sigma=0) ==")
    conf = base.confidence_matrix(tokens, base.stream_rng(0))
    idx = exit_layer_indices(conf, 0.6)
    counts = np.bincount(idx, minlength=base.n_layers).tolist()
    print(f"COMMITTED_SPEEDUP_06 = {speedup_ratio(counts)!r}  ({tokens} tokens)")


def ucb_convergence(actions, params, horizon, oracle_samples):
    print("== UCB convergence across run seeds ==")
    window = max(horizon // 10, 1)
    for seed in (7, 8, 9):
        model = SyntheticConfidenceModel(seed=seed)
        started = time.monotonic()
        [[oracle]] = shared_oracles(
            model, [0.0], actions, [params], samples=oracle_samples
        )
        gap_of = dict(zip(oracle.thresholds, oracle.gaps))
        last_arms = deque(maxlen=window)
        regret = 0.0

        def sink(rows):
            nonlocal regret
            for _, arm, _, _ in rows:
                last_arms.append(arm)
                regret += gap_of[arm]

        cell = AdaptiveCell(actions, params, 0.0, sink)
        run_lockstep(model, [cell], 1.0, horizon, 20)
        share = last_arms.count(oracle.best_threshold) / window
        print(
            f"seed={seed}: alpha*={oracle.best_threshold} "
            f"final-{window} share={share:.4f} R/T={regret / horizon:.6f} "
            f"({time.monotonic() - started:.0f}s)"
        )


def distortion_margins(base, actions, params, tokens):
    print("== adaptive minus fixed-0.6 mean-reward margins ==")
    fixed = ActionSet((0.6,))
    sigmas = (0.0, 1.0, 2.0)
    cells = [
        [AdaptiveCell(arm_set, params, sigma) for arm_set in (actions, fixed)]
        for sigma in sigmas
    ]
    run_lockstep(base, [cell for pair in cells for cell in pair], 1.0, tokens, 20)
    for sigma, pair in zip(sigmas, cells):
        adaptive, fixed_arm = (cell.metrics()["mean_reward"] for cell in pair)
        margin = adaptive - fixed_arm
        print(f"sigma={sigma}: margin={margin:+.6f}  ({tokens} tokens/cell)")


def ablation_constants(quick):
    print("== toy distillation ablation (canonical config, seed 7) ==")
    config = {key: default for key, (_, default) in ABLATION_SCHEMA.items()}
    config["seed"] = 7
    if quick:
        config.update(stage1_epochs=100, stage2_epochs=80, decay_every=40)
        print("(quick mode: epochs reduced, numbers NOT commit-grade)")
    started = time.monotonic()
    accuracies = _train_ablation(config)
    deepest = len(accuracies["ce"]) - 2
    spread = max(
        abs(accuracies["both"][deepest] - accuracies["ce"][deepest]),
        abs(accuracies["kl"][deepest] - accuracies["ce"][deepest]),
    )
    print(f"teacher_accuracy      = {accuracies['ce'][-1]!r}")
    print(f"layer1_both_minus_ce  = {accuracies['both'][0] - accuracies['ce'][0]!r}")
    print(f"deepest_exit_spread   = {spread!r}")
    print(f"(suggested DEEP_EXIT_EPSILON: ~10x the spread, currently 0.02)")
    print(f"({time.monotonic() - started:.0f}s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller samples, smoke test only"
    )
    args = parser.parse_args()

    oracle_samples = 20_000 if args.quick else 200_000
    horizon = 10_000 if args.quick else 100_000
    speed_tokens = 20_000 if args.quick else 200_000
    margin_tokens = 20_000 if args.quick else 200_000

    base = SyntheticConfidenceModel()
    actions = ActionSet.default_grid()
    params = RewardParams(n_layers=base.n_layers)

    oracle_landscapes(base, actions, params, oracle_samples)
    committed_speedup(base, speed_tokens)
    ucb_convergence(actions, params, horizon, oracle_samples)
    distortion_margins(base, actions, params, margin_tokens)
    ablation_constants(args.quick)


if __name__ == "__main__":
    main()
