"""Command-line experiment runner.

Every subcommand reads an optional JSON config file, applies flag
overrides on top, echoes the effective configuration into its outputs,
and writes CSV data plus a JSON summary into --out-dir.  Outputs carry
no timestamps and use sorted keys, so a rerun at the same seed is
byte-identical.

Exit codes: 0 success, 2 configuration problems, 3 unreadable or
malformed inputs, 4 runtime failures.  Failures print one line to
stderr of the form ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .bandit import (
    ActionSet,
    AdaptiveCell,
    BanditError,
    BanditLog,
    OracleEstimate,
    RewardParams,
    regret_bound,
    regret_curve,
    run_lockstep,
    shared_oracles,
)
from .cascade import (
    DEFAULT_MAX_CAPTION_LENGTH,
    ExitHistogram,
    TraceValidationError,
    exit_layer_indices,
    speedup_ratio,
)
from .distill import (
    LOSS_TERM_CHOICES,
    CheckpointError,
    StepSchedule,
    ToyConfig,
    ToyCascade,
    ToyTask,
    TrainingError,
    head_confidences,
    init_cascade,
    layer_accuracies,
    load_cascade,
    make_task,
    save_cascade,
    train_backbone,
    train_exits,
)
from .synth import (
    DEFAULT_SEED,
    ImageTraces,
    SyntheticConfidenceModel,
    TraceFormatError,
    distort,
    image_stream,
    read_traces,
    write_traces,
)
from .staging import staged


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration values."""


class OutputError(RuntimeError):
    """A result cannot be written faithfully, such as a non-finite number
    in a JSON summary."""


# ---------------------------------------------------------------------------
# Config plumbing: defaults < config file < explicit flags


def _floats(value: object, key: str) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        value = parts
    if isinstance(value, (list, tuple)):
        try:
            out = tuple(float(v) for v in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected numbers, got {value!r}") from None
        if not out:
            raise ConfigError(f"{key}: list must not be empty")
        return out
    raise ConfigError(f"{key}: expected a list of numbers, got {value!r}")


def _coerce(key: str, value: object, kind: str) -> object:
    if value is None:
        return None
    if kind not in ("int", "float", "str", "floatlist"):
        raise ConfigError(f"unknown option kind {kind!r} for {key}")
    try:
        if kind == "int":
            if isinstance(value, bool) or int(value) != float(value):
                raise ValueError
            return int(value)
        if kind == "str":
            if not isinstance(value, str):
                raise ValueError
            return value
        coerced = float(value) if kind == "float" else _floats(value, key)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected {kind}, got {value!r}") from None
    numbers = coerced if kind == "floatlist" else (coerced,)
    if not all(math.isfinite(x) for x in numbers):
        raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
    return coerced


def effective_config(
    args: argparse.Namespace, schema: dict[str, tuple[str, object]]
) -> dict:
    """Merge defaults, config-file values, and flag overrides, in that order."""
    config = {key: default for key, (_, default) in schema.items()}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown keys {unknown}; valid keys are "
                f"{sorted(schema)}"
            )
        for key, value in loaded.items():
            config[key] = _coerce(key, value, schema[key][0])
    for key, (kind, _) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            config[key] = _coerce(key, flag_value, kind)
    config["seed"] = args.seed
    return config


def _echo_lines(config: dict) -> list[str]:
    return [f"{key}={json.dumps(config[key])}" for key in sorted(config)]


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# Row fields whose repr is what csv.writer writes for them (repr for floats).
_PLAIN_NUMBER = frozenset((int, float))


def _write_outputs(
    args: argparse.Namespace,
    config: dict,
    fields: dict,
    first: str,
    header: Sequence[str] | None = None,
    rows: Iterable[Sequence[object]] = (),
) -> None:
    """Write ``<command>_summary.json`` and echo it to stdout.

    The summary holds ``config``, ``fields`` and the output names:
    ``first``, the command's data file, then the summary itself.  With a
    ``header``, ``first`` is written here as a CSV of ``rows`` under the
    echoed config.  The summary is serialized as strict JSON before this
    opens any file, so a non-finite number raises OutputError and the
    CSV and summary are not written.  Each file is written in full to a
    temporary file beside it and then renamed into place, so a failure
    while writing (``rows`` raising, say) leaves neither behind.
    """
    name = f"{args.command.replace('-', '_')}_summary.json"
    summary = {"config": config, **fields, "outputs": [first, name]}
    try:
        text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"{name}: {exc}") from None
    names = [first, name] if header is not None else [name]
    with staged(*(_out_path(args, n) for n in names)) as temps:
        if header is not None:
            with open(temps[0], "w", encoding="ascii", newline="") as fh:
                for line in _echo_lines(config):
                    fh.write(f"# {line}\n")
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    if all(map(_PLAIN_NUMBER.__contains__, map(type, row))):
                        # The bytes csv.writer writes for these fields.
                        fh.write(",".join(map(repr, row)) + "\r\n")
                    else:
                        writer.writerow(
                            [repr(v) if isinstance(v, float) else v for v in row]
                        )
        with open(temps[-1], "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write("\n")
    print(json.dumps(summary, sort_keys=True))


# ---------------------------------------------------------------------------
# Shared evaluation helpers


def _check_positive(config: dict, *keys: str) -> None:
    """Reject counts below 1 before any work or output."""
    for key in keys:
        if config[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {config[key]}")


def _check_distinct(key: str, values: Sequence[float]) -> None:
    """Reject a repeated value: each value keys its own summary entry."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{key}: duplicate value {value!r}")


def _trace_arrays(
    images: Iterable[ImageTraces], source_name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens, layers) confidences and token ids, plus the targets."""
    confidences, token_ids, targets = [], [], []
    for image in images:
        if image.targets is None:
            raise TraceFormatError(
                f"{source_name}: image {image.image_id} has no targets; "
                f"accuracy cannot be computed"
            )
        confidences.append(image.confidences)
        token_ids.append(image.token_ids)
        targets.extend(image.targets)
    if not confidences:
        raise TraceFormatError(f"{source_name}: no traces found")
    return np.concatenate(confidences), np.concatenate(token_ids), np.array(targets)


# ---------------------------------------------------------------------------
# Subcommands


GEN_TRACES_SCHEMA = {
    "n_images": ("int", 200),
    "max_len": ("int", DEFAULT_MAX_CAPTION_LENGTH),
    "sigma": ("float", 0.0),
    "out": ("str", "traces.txt"),
}


def cmd_gen_traces(args: argparse.Namespace, config: dict) -> int:
    _check_positive(config, "n_images", "max_len")
    model = distort(
        SyntheticConfidenceModel(seed=config["seed"]), config["sigma"]
    )
    rng = model.stream_rng(0)
    images = image_stream(model, rng, config["max_len"])
    path = _out_path(args, config["out"])
    count = write_traces(
        path,
        islice(images, config["n_images"]),
        n_layers=model.n_layers,
        vocab_size=model.vocab_size,
        source=f"synthetic-seed{config['seed']}-sigma{config['sigma']}",
    )
    fields = {"n_images": count, "n_tokens": count * config["max_len"]}
    _write_outputs(args, config, fields, config["out"])
    return 0


SWEEP_SCHEMA = {
    "alphas": ("floatlist", ActionSet.default_grid().thresholds),
    "traces": ("str", None),
    "model": ("str", None),
}


def cmd_sweep_threshold(args: argparse.Namespace, config: dict) -> int:
    if (config["traces"] is None) == (config["model"] is None):
        raise ConfigError("provide exactly one of --traces or --model")
    if config["traces"] is not None:
        confidences, token_ids, targets = _trace_arrays(
            read_traces(config["traces"]), config["traces"]
        )
    else:
        model = load_cascade(config["model"])
        rng = np.random.default_rng(config["seed"])
        task = make_task(model.config, rng)
        confidences, token_ids = head_confidences(model, task.heldout)
        targets = task.heldout.targets

    n_tokens, n_layers = confidences.shape
    rows = []
    for alpha in config["alphas"]:
        exits = exit_layer_indices(confidences, alpha)
        hist = ExitHistogram(np.bincount(exits, minlength=n_layers).tolist())
        hits = int((token_ids[np.arange(n_tokens), exits] == targets).sum())
        mean_exit = (int(exits.sum()) + n_tokens) / n_tokens  # 1-based layers
        rows.append((alpha, speedup_ratio(hist), hits / n_tokens, mean_exit))
    _write_outputs(
        args,
        config,
        {"n_tokens": n_tokens},
        "sweep_threshold.csv",
        ["alpha", "speedup_ratio", "token_accuracy", "mean_exit_layer"],
        rows,
    )
    return 0


ADAPTIVE_SCHEMA = {
    "alphas": ("floatlist", ActionSet.default_grid().thresholds),
    "gamma": ("float", 1.0),
    "mu": ("float", None),
    "max_len": ("int", DEFAULT_MAX_CAPTION_LENGTH),
    "oracle_samples": ("int", 200_000),
}


def _run_adaptive(
    config: dict,
    sigmas: Sequence[float],
    lams: Sequence[float],
    policies: dict[str, Sequence[float]],
    logged: bool = False,
) -> list[tuple[float, float, dict[str, AdaptiveCell], OracleEstimate]]:
    """Run every policy at every distortion level and latency cost over
    one image stream, then estimate the oracle over the ``alphas`` grid.

    The flags of an ADAPTIVE_SCHEMA config plus ``tokens`` are checked
    before any work.  ``policies`` maps each policy name to its
    thresholds.  Returns one ``(sigma, lam, cells, oracle)`` per pair,
    sigma-major, where ``cells`` maps each policy name to its cell.  With
    ``logged`` every cell records its rounds in a ``BanditLog``.
    """
    _check_positive(config, "max_len", "oracle_samples")
    _check_distinct("sigmas", sigmas)
    _check_distinct("lambdas", lams)
    grid = ActionSet(tuple(config["alphas"]))
    actions = {name: ActionSet(tuple(a)) for name, a in policies.items()}
    # Initialization pulls every arm once, on the first image's tokens,
    # and at least one round must follow.
    arms = max(len(a) for a in actions.values())
    if config["tokens"] <= arms:
        raise ConfigError(
            f"tokens must cover one pull per arm and one round after: "
            f"{config['tokens']} <= {arms}"
        )
    if config["max_len"] < arms:
        raise ConfigError(
            f"max_len must cover one token per arm: {config['max_len']} < {arms}"
        )
    base = SyntheticConfidenceModel(seed=config["seed"])
    models = [distort(base, sigma) for sigma in sigmas]
    shapes = [RewardParams(base.n_layers, mu=config["mu"], lam=lam) for lam in lams]
    cells = [
        [
            {
                name: AdaptiveCell(a, params, BanditLog() if logged else None)
                for name, a in actions.items()
            }
            for params in shapes
        ]
        for _ in models
    ]
    run_lockstep(
        base,
        [
            (model, [cell for by_name in row for cell in by_name.values()])
            for model, row in zip(models, cells)
        ],
        config["gamma"],
        config["tokens"],
        config["max_len"],
    )
    oracles = shared_oracles(models, grid, shapes, samples=config["oracle_samples"])
    return [
        (sigma, lam, by_name, oracle)
        for sigma, row, estimates in zip(sigmas, cells, oracles)
        for lam, by_name, oracle in zip(lams, row, estimates)
    ]


BANDIT_SCHEMA = {
    **ADAPTIVE_SCHEMA,
    "sigma": ("float", 0.0),
    "tokens": ("int", 100_000),
    "lam": ("float", 1.0),
}


def cmd_bandit(args: argparse.Namespace, config: dict) -> int:
    [(_, _, cells, oracle)] = _run_adaptive(
        config,
        [config["sigma"]],
        [config["lam"]],
        {"adaptive": config["alphas"]},
        logged=True,
    )
    cell = cells["adaptive"]
    state, log = cell.state, cell.log
    regret = regret_curve(log, oracle).tolist()
    thresholds, pulls = state.actions.thresholds, state.pulls
    fields = {
        "rounds": state.t,
        "arm_frequencies": {repr(a): n for a, n in zip(thresholds, pulls)},
        "oracle_best_arm": oracle.best_threshold,
        "oracle_expected_rewards": {
            repr(a): e
            for a, e in zip(oracle.thresholds, oracle.expected_rewards)
        },
        # Thresholds increase, so a tie goes to the smallest.
        "empirical_best_arm": thresholds[pulls.index(max(pulls))],
        "mean_reward": cell.metrics()["mean_reward"],
        "pseudo_regret": regret[-1],
        "regret_bound": regret_bound(oracle, state.t, config["gamma"]),
    }
    _write_outputs(
        args,
        config,
        fields,
        "bandit_log.csv",
        ["t", "arm", "exit_layer", "reward", "cumulative_pseudo_regret"],
        zip(log.rounds, log.arms, log.exit_layers, log.rewards, regret),
    )
    return 0


COMPARE_SCHEMA = {
    **ADAPTIVE_SCHEMA,
    "sigmas": ("floatlist", (0.0, 1.0, 2.0)),
    "tokens": ("int", 200_000),
    "fixed_alpha": ("float", 0.6),
    "lam": ("float", 1.0),
}


def cmd_compare_distortion(args: argparse.Namespace, config: dict) -> int:
    fixed_name = f"fixed-{config['fixed_alpha']:g}"
    runs = _run_adaptive(
        config,
        config["sigmas"],
        [config["lam"]],
        {fixed_name: (config["fixed_alpha"],), "adaptive": config["alphas"]},
    )
    rows = []
    margins = {}
    oracle_best = {}
    for sigma, _, cells, oracle in runs:
        metrics = {policy: cell.metrics() for policy, cell in cells.items()}
        for policy, m in metrics.items():
            rows.append(
                (sigma, policy, m["speedup"], m["accuracy"], m["mean_reward"])
            )
        margins[repr(sigma)] = (
            metrics["adaptive"]["mean_reward"] - metrics[fixed_name]["mean_reward"]
        )
        oracle_best[repr(sigma)] = oracle.best_threshold
    _write_outputs(
        args,
        config,
        {"adaptive_minus_fixed_mean_reward": margins, "oracle_best_arm": oracle_best},
        "compare_distortion.csv",
        ["sigma", "policy", "speedup", "token_accuracy", "mean_reward"],
        rows,
    )
    return 0


TOY_SCHEMA = {
    "stage1_epochs": ("int", 800),
    "stage2_epochs": ("int", 600),
    "learning_rate": ("float", 1.0),
    "decay": ("float", 0.5),
    "decay_every": ("int", 200),
    "n_train": ("int", 512),
    "n_heldout": ("int", 1024),
    "tokens_per_example": ("int", 8),
    "n_classes": ("int", 4),
    "margin": ("float", 0.3),
    "label_noise": ("float", 0.1),
}
ABLATION_SCHEMA = TOY_SCHEMA


def _stage_one(
    config: dict,
) -> tuple[ToyTask, ToyCascade, StepSchedule, list[float]]:
    """Build the toy task, cascade and schedule from a TOY_SCHEMA config,
    then train and freeze the backbone."""
    toy = ToyConfig()
    rng = np.random.default_rng(config["seed"])
    task = make_task(
        toy,
        rng,
        n_train=config["n_train"],
        n_heldout=config["n_heldout"],
        tokens_per_example=config["tokens_per_example"],
        n_classes=config["n_classes"],
        margin=config["margin"],
        label_noise=config["label_noise"],
    )
    model = init_cascade(toy, rng)
    schedule = StepSchedule(
        initial=config["learning_rate"],
        decay=config["decay"],
        every=config["decay_every"],
    )
    history = train_backbone(model, task.train, config["stage1_epochs"], schedule)
    return task, model, schedule, history


def _train_ablation(config: dict) -> dict[str, tuple[float, ...]]:
    """Train the backbone once, then each loss variant from a fresh copy."""
    task, model, schedule, _ = _stage_one(config)
    accuracies = {}
    for terms in LOSS_TERM_CHOICES:
        variant = copy.deepcopy(model)
        train_exits(
            variant, task.train, config["stage2_epochs"], schedule, loss_terms=terms
        )
        accuracies[terms] = layer_accuracies(variant, task.heldout)
    return accuracies


def cmd_ablation(args: argparse.Namespace, config: dict) -> int:
    accuracies = _train_ablation(config)
    n_layers = len(accuracies["ce"])
    rows = [
        (
            layer + 1,
            accuracies["ce"][layer],
            accuracies["kl"][layer],
            accuracies["both"][layer],
        )
        for layer in range(n_layers)
    ]
    deepest = n_layers - 2
    fields = {
        "layer1_both_minus_ce": accuracies["both"][0] - accuracies["ce"][0],
        "deepest_exit_spread": max(
            abs(accuracies["both"][deepest] - accuracies["ce"][deepest]),
            abs(accuracies["kl"][deepest] - accuracies["ce"][deepest]),
        ),
        "teacher_accuracy": accuracies["ce"][-1],
    }
    _write_outputs(
        args,
        config,
        fields,
        "ablation.csv",
        ["layer", "accuracy_ce_only", "accuracy_kl_only", "accuracy_both"],
        rows,
    )
    return 0


LAMBDA_SCHEMA = {
    **ADAPTIVE_SCHEMA,
    "lambdas": ("floatlist", (0.5, 1.0, 2.0)),
    "sigma": ("float", 0.0),
    "tokens": ("int", 100_000),
}


def cmd_lambda_sweep(args: argparse.Namespace, config: dict) -> int:
    runs = _run_adaptive(
        config, [config["sigma"]], config["lambdas"], {"adaptive": config["alphas"]}
    )
    rows = []
    oracle_best = {}
    mean_rewards = {}
    for _, lam, cells, oracle in runs:
        metrics = cells["adaptive"].metrics()
        rows.append((lam, metrics["speedup"], metrics["accuracy"]))
        oracle_best[repr(lam)] = oracle.best_threshold
        mean_rewards[repr(lam)] = metrics["mean_reward"]
    _write_outputs(
        args,
        config,
        {"oracle_best_arm": oracle_best, "mean_reward": mean_rewards},
        "lambda_sweep.csv",
        ["lambda", "speedup", "token_accuracy"],
        rows,
    )
    return 0


TRAIN_TOY_SCHEMA = {
    **TOY_SCHEMA,
    "loss_terms": ("str", "both"),
    "checkpoint": ("str", "toy_cascade.json"),
}


def cmd_train_toy(args: argparse.Namespace, config: dict) -> int:
    if config["loss_terms"] not in LOSS_TERM_CHOICES:
        raise ConfigError(
            f"loss_terms must be one of {LOSS_TERM_CHOICES}, got "
            f"{config['loss_terms']!r}"
        )
    task, model, schedule, stage1 = _stage_one(config)
    stage2 = train_exits(
        model,
        task.train,
        config["stage2_epochs"],
        schedule,
        loss_terms=config["loss_terms"],
    )
    fields = {
        "stage1_loss": {
            "first": stage1[0] if stage1 else None,
            "last": stage1[-1] if stage1 else None,
        },
        "stage2_loss": {
            "first": stage2[0] if stage2 else None,
            "last": stage2[-1] if stage2 else None,
        },
        "heldout_accuracy": list(layer_accuracies(model, task.heldout)),
        "train_accuracy": list(layer_accuracies(model, task.train)),
    }
    # Scored first: a model whose heads cannot be scored is not saved.
    save_cascade(model, _out_path(args, config["checkpoint"]))
    _write_outputs(args, config, fields, config["checkpoint"])
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file", default=None)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--out-dir", default=".")


def _add_schema_flags(
    sub: argparse.ArgumentParser, schema: dict[str, tuple[str, object]]
) -> None:
    for key, (kind, default) in schema.items():
        flag = "--" + key.replace("_", "-")
        if kind == "int":
            sub.add_argument(flag, type=int, default=None, dest=key)
        elif kind == "float":
            sub.add_argument(flag, type=float, default=None, dest=key)
        else:
            sub.add_argument(flag, default=None, dest=key)


COMMANDS: dict[str, tuple[Callable, dict]] = {
    "gen-traces": (cmd_gen_traces, GEN_TRACES_SCHEMA),
    "sweep-threshold": (cmd_sweep_threshold, SWEEP_SCHEMA),
    "bandit": (cmd_bandit, BANDIT_SCHEMA),
    "compare-distortion": (cmd_compare_distortion, COMPARE_SCHEMA),
    "ablation": (cmd_ablation, ABLATION_SCHEMA),
    "lambda-sweep": (cmd_lambda_sweep, LAMBDA_SCHEMA),
    "train-toy": (cmd_train_toy, TRAIN_TOY_SCHEMA),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitsim",
        description="Early-exit inference experiments on synthetic traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in COMMANDS.items():
        sub = subparsers.add_parser(name)
        _add_common(sub)
        _add_schema_flags(sub, schema)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, schema = COMMANDS[args.command]
    try:
        return command(args, effective_config(args, schema))
    except (TraceFormatError, CheckpointError, TraceValidationError) as exc:
        return _fail("input", exc, 3)
    except OSError as exc:
        return _fail("input", exc, 3)
    except (TrainingError, BanditError, OutputError) as exc:
        return _fail("runtime", exc, 4)
    except (ConfigError, ValueError) as exc:
        return _fail("config", exc, 2)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
