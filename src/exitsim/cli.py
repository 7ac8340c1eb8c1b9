"""Command-line experiment runner.

Every subcommand reads an optional JSON config file, applies flag
overrides on top, echoes the effective configuration into its outputs,
and writes CSV data plus a JSON summary into --out-dir.  Outputs carry
no timestamps and use sorted keys, so a rerun at the same seed is
byte-identical.

Exit codes: 0 success, 2 configuration problems, 3 unreadable or
malformed inputs, 4 runtime failures.  Failures print one line to
stderr of the form ``error: <category>: <message>``.  Any other
exception is a bug and exits 1 with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import math
import os
import sys
from functools import partial
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .bandit import (
    ActionSet,
    AdaptiveCell,
    OracleEstimate,
    RewardParams,
    check_run,
    regret_bound,
    run_lockstep,
    shared_oracles,
)
from .cascade import (
    DEFAULT_MAX_CAPTION_LENGTH,
    TraceValidationError,
    check_thresholds,
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
    check_epochs,
    check_loss_terms,
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
    IMAGE_CHUNK,
    NO_TARGET,
    SyntheticConfidenceModel,
    TraceBatch,
    TraceFormatError,
    check_sigma,
    draw_tokens,
    finish_tokens,
    read_traces,
    write_traces,
)
from .staging import read_json, staged, write_json


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration values."""


class OutputError(RuntimeError):
    """A result cannot be written faithfully, such as a non-finite number
    in a JSON summary."""


_INPUT_ERRORS = (TraceFormatError, CheckpointError, TraceValidationError)


# ---------------------------------------------------------------------------
# Config plumbing: defaults < config file < explicit flags


def _floats(value: object) -> tuple[float, ...]:
    """A non-empty list of numbers, or a string of them split at commas
    and whitespace; anything else raises ValueError or TypeError."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError
    return tuple(float(v) for v in value)


def _coerce(key: str, value: object, kind: str) -> object:
    try:
        if kind == "int":
            if isinstance(value, bool) or int(value) != float(value):
                raise ValueError
            return int(value)
        if kind == "str":
            if not isinstance(value, str) or "\0" in value:  # no path holds NUL
                raise ValueError
            return value
        coerced = float(value) if kind == "float" else _floats(value)
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
        loaded = read_json(args.config, ConfigError)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(schema))
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown keys {unknown}; valid keys are "
                f"{sorted(schema)}"
            )
        for key, value in loaded.items():
            if value is not None:  # null keeps the default
                config[key] = _coerce(key, value, schema[key][0])
    for key, (kind, _) in schema.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            config[key] = _coerce(key, flag_value, kind)
    config["seed"] = _coerce("seed", args.seed, "int")
    if config["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {config['seed']}")
    return config


@contextlib.contextmanager
def _configuring(config: dict, *counts: str) -> Iterator[None]:
    """A command's configuration phase, run before any of its work: refuse
    each ``counts`` key of ``config`` below 1, then re-raise a library
    ValueError from the block as ConfigError with its message.  The input
    errors (malformed files, exit 3), also ValueErrors, pass unchanged."""
    for key in counts:
        if config[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {config[key]}")
    try:
        yield
    except (ConfigError, *_INPUT_ERRORS):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_distinct(key: str, values: Sequence[float]) -> None:
    """Reject a repeated value: each value keys its own summary entry."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{key}: duplicate value {value!r}")


def _summary_name(args: argparse.Namespace) -> str:
    return f"{args.command.replace('-', '_')}_summary.json"


def _check_out_name(args: argparse.Namespace, config: dict, key: str) -> None:
    """Refuse a ``key`` output name that would land on the summary."""
    def where(name: str) -> str:
        return os.path.normpath(os.path.join(args.out_dir, name))

    if where(config[key]) == where(_summary_name(args)):
        raise ConfigError(f"{key}: {config[key]!r} names the summary file")


@contextlib.contextmanager
def _csv_file(path: str, config: dict, header: Sequence[str]) -> Iterator[TextIO]:
    """``path`` opened for a CSV's rows, after one comment line per echoed
    config key and the ``header`` row."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for key in sorted(config):
            fh.write(f"# {key}={json.dumps(config[key])}\n")
        csv.writer(fh).writerow(header)
        yield fh


def _csv(
    config: dict, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> Callable[[str], None]:
    """A ``_write_outputs`` writer: ``rows`` as a ``_csv_file`` CSV under
    ``header``."""

    def write(path: str) -> None:
        with _csv_file(path, config, header) as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

    return write


def _write_outputs(
    args: argparse.Namespace,
    config: dict,
    fields: dict,
    name: str,
    write: Callable[[str], dict | None],
) -> None:
    """Write the data file ``name`` and ``<command>_summary.json`` into
    --out-dir, then echo the summary to stdout: the only way a command's
    files reach --out-dir.

    ``write(temp)`` writes the data file to a temporary path and may
    return more summary fields, those of work it ran while writing.  The
    summary holds ``config``, ``fields``, those and both output names; it
    is serialized as strict JSON into another temporary path, so a
    non-finite number raises OutputError.  Both are renamed into place
    only once both are written in full: a failure anywhere (``write``
    raising mid-stream, say) leaves neither behind.
    """
    summary_name = _summary_name(args)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = (os.path.join(args.out_dir, n) for n in (name, summary_name))
    with staged(*paths) as (data, summary_temp):
        summary = {
            "config": config,
            **fields,
            **(write(data) or {}),
            "outputs": [name, summary_name],
        }
        write_json(
            summary_temp,
            summary,
            lambda message: OutputError(f"{summary_name}: {message}"),
            indent=2,
        )
    print(json.dumps(summary, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands


GEN_TRACES_SCHEMA = {
    "n_images": ("int", 200),
    "max_len": ("int", DEFAULT_MAX_CAPTION_LENGTH),
    "sigma": ("float", 0.0),
    "out": ("str", "traces.txt"),
}


def cmd_gen_traces(args: argparse.Namespace, config: dict) -> int:
    with _configuring(config, "n_images", "max_len"):
        _check_out_name(args, config, "out")
        check_sigma(config["sigma"])
    model = SyntheticConfidenceModel(seed=config["seed"])
    rng = model.stream_rng(0)
    max_len, n_images = config["max_len"], config["n_images"]

    def blocks() -> Iterator[TraceBatch]:
        # Images are drawn one after another in stream order, so a short
        # last chunk holds the images a full one would.
        for lo in range(0, n_images, IMAGE_CHUNK):
            ids = range(lo, min(lo + IMAGE_CHUNK, n_images))
            draws = draw_tokens(model, max_len, rng, len(ids))
            batch = finish_tokens(model, config["sigma"], draws)
            offsets = np.arange(len(ids) + 1) * max_len
            yield dataclasses.replace(batch, image_ids=ids, offsets=offsets)

    write = partial(
        write_traces,
        blocks=blocks(),
        n_layers=model.n_layers,
        vocab_size=model.vocab_size,
        source=f"synthetic-seed{config['seed']}-sigma{config['sigma']}",
    )
    fields = {"n_images": n_images, "n_tokens": n_images * max_len}
    _write_outputs(args, config, fields, config["out"], write)
    return 0


SWEEP_SCHEMA = {
    "alphas": ("floatlist", ActionSet.default_grid().thresholds),
    "traces": ("str", None),
    "model": ("str", None),
}


def cmd_sweep_threshold(args: argparse.Namespace, config: dict) -> int:
    with _configuring(config):
        if (config["traces"] is None) == (config["model"] is None):
            raise ConfigError("provide exactly one of --traces or --model")
        alphas = check_thresholds(config["alphas"])
    if config["traces"] is not None:
        blocks = read_traces(config["traces"])
    else:
        model = load_cascade(config["model"])
        try:
            task = make_task(model.config, np.random.default_rng(config["seed"]))
        except ValueError as exc:  # the checkpoint cannot hold the task
            raise CheckpointError(f"{config['model']}: {exc}") from None
        confidences, token_ids = head_confidences(model, task.heldout)
        blocks = [TraceBatch(confidences, token_ids, task.heldout.targets)]

    # Integer sums per threshold, block by block: exits per layer and
    # hits.  Every printed number is a ratio of them.
    n_tokens = hists = hits = 0
    for batch in blocks:
        missing = np.flatnonzero(batch.targets == NO_TARGET)
        if len(missing):
            image = np.searchsorted(batch.offsets, missing[0], side="right") - 1
            raise TraceFormatError(
                f"{config['traces']}: image {batch.image_ids[image]} has no "
                f"targets; accuracy cannot be computed"
            )
        n_layers = batch.confidences.shape[1]
        exits = exit_layer_indices(batch.confidences, alphas)  # (tokens, alphas)
        n_tokens += len(batch)
        hists = hists + np.array(
            [np.bincount(column, minlength=n_layers) for column in exits.T]
        )
        emitted = np.take_along_axis(batch.token_ids, exits, axis=1)
        hits = hits + (emitted == batch.targets[:, None]).sum(axis=0)
    if not n_tokens:
        raise TraceFormatError(f"{config['traces']}: no traces found")
    rows = [
        (
            alpha, speedup_ratio(hist), hit / n_tokens,
            sum(layer * n for layer, n in enumerate(hist, 1)) / n_tokens,
        )
        for alpha, hist, hit in zip(config["alphas"], hists.tolist(), hits.tolist())
    ]
    columns = ["alpha", "speedup_ratio", "token_accuracy", "mean_exit_layer"]
    write = _csv(config, columns, rows)
    _write_outputs(args, config, {"n_tokens": n_tokens}, "sweep_threshold.csv", write)
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
) -> tuple[list[list[OracleEstimate]], Callable[..., list]]:
    """Check the flags of an ADAPTIVE_SCHEMA config plus ``tokens`` (the
    reward ranges they give included), then estimate the oracle over the
    ``alphas`` grid at every distortion level and latency cost.

    ``policies`` maps each policy name to its thresholds.  Returns
    ``(oracles, play)``: ``oracles[i][j]`` is the estimate at ``sigmas[i]``
    and ``lams[j]``, and ``play(sink=None)`` runs every policy at every
    pair over one image stream, each cell handing its rounds to ``sink``
    when given, and returns one ``(cells, oracle)`` per pair, sigma-major,
    where ``cells`` maps each policy name to its cell.
    """
    with _configuring(config, "oracle_samples"):
        _check_distinct("sigmas", sigmas)
        _check_distinct("lambdas", lams)
        grid = ActionSet(tuple(config["alphas"]))
        actions = {name: ActionSet(tuple(a)) for name, a in policies.items()}
        arms = max(len(a) for a in actions.values())
        check_run(arms, sigmas, config["gamma"], config["tokens"], config["max_len"])
        base = SyntheticConfidenceModel(seed=config["seed"])
        shapes = [RewardParams(base.n_layers, config["mu"], lam) for lam in lams]
        # Every reported sum adds at most this many rewards, each within
        # one reward range of the others.
        terms = max(config["tokens"], config["oracle_samples"])
        for params in shapes:
            lo, hi = params.bounds()
            if not math.isfinite(terms * (hi - lo)):
                raise ConfigError(
                    f"mu {params.mu!r} and lam {params.lam!r}: a sum of {terms} "
                    f"rewards in [{lo!r}, {hi!r}] is not finite"
                )
    # The oracle has its own seed, so scoring it first changes no output,
    # and a sample count too large to hold fails before any round.
    oracles = shared_oracles(base, sigmas, grid, shapes, config["oracle_samples"])

    def play(sink=None):
        runs = [
            ({name: AdaptiveCell(a, params, sigma, sink)
              for name, a in actions.items()}, oracle)
            for sigma, estimates in zip(sigmas, oracles)
            for params, oracle in zip(shapes, estimates)
        ]
        cells = [cell for by_name, _ in runs for cell in by_name.values()]
        run_lockstep(base, cells, config["gamma"], config["tokens"], config["max_len"])
        return runs

    return oracles, play


BANDIT_SCHEMA = {
    **ADAPTIVE_SCHEMA,
    "sigma": ("float", 0.0),
    "tokens": ("int", 100_000),
    "lam": ("float", 1.0),
}


def cmd_bandit(args: argparse.Namespace, config: dict) -> int:
    [[oracle]], play = _run_adaptive(
        config, [config["sigma"]], [config["lam"]], {"adaptive": config["alphas"]}
    )
    gap_of = dict(zip(oracle.thresholds, oracle.gaps))
    columns = ["t", "arm", "exit_layer", "reward", "cumulative_pseudo_regret"]

    def write(path: str) -> dict:
        regret = 0.0

        def sink(rows: list) -> None:
            # A running sum of the chosen arms' gaps has np.cumsum's bits,
            # and each line is the bytes _csv writes for its row.
            nonlocal regret
            lines = []
            for t, arm, layer, r in rows:
                regret += gap_of[arm]
                lines.append("%d,%r,%d,%r,%r\r\n" % (t, arm, layer, r, regret))
            fh.write("".join(lines))

        with _csv_file(path, config, columns) as fh:
            [(cells, _)] = play(sink)
        cell = cells["adaptive"]
        thresholds, pulls = cell.actions.thresholds, cell.pulls
        return {
            "rounds": cell.t,
            "arm_frequencies": {repr(a): n for a, n in zip(thresholds, pulls)},
            "oracle_best_arm": oracle.best_threshold,
            "oracle_expected_rewards": {
                repr(a): e
                for a, e in zip(oracle.thresholds, oracle.expected_rewards)
            },
            # Thresholds increase, so a tie goes to the smallest.
            "empirical_best_arm": thresholds[pulls.index(max(pulls))],
            "mean_reward": cell.metrics()["mean_reward"],
            "pseudo_regret": regret,
            "regret_bound": regret_bound(oracle, cell.t, config["gamma"]),
        }

    _write_outputs(args, config, {}, "bandit_log.csv", write)
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
    _, play = _run_adaptive(
        config,
        config["sigmas"],
        [config["lam"]],
        {fixed_name: (config["fixed_alpha"],), "adaptive": config["alphas"]},
    )
    runs = play()
    rows = []
    margins = {}
    oracle_best = {}
    for cells, oracle in runs:
        sigma = cells["adaptive"].sigma
        metrics = {policy: cell.metrics() for policy, cell in cells.items()}
        for policy, m in metrics.items():
            rows.append(
                (sigma, policy, m["speedup"], m["accuracy"], m["mean_reward"])
            )
        margins[repr(sigma)] = (
            metrics["adaptive"]["mean_reward"] - metrics[fixed_name]["mean_reward"]
        )
        oracle_best[repr(sigma)] = oracle.best_threshold
    columns = ["sigma", "policy", "speedup", "token_accuracy", "mean_reward"]
    _write_outputs(
        args,
        config,
        {"adaptive_minus_fixed_mean_reward": margins, "oracle_best_arm": oracle_best},
        "compare_distortion.csv",
        _csv(config, columns, rows),
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
    config: dict, *loss_terms: str
) -> tuple[ToyTask, ToyCascade, StepSchedule, list[float]]:
    """Check a TOY_SCHEMA config and the stage-two ``loss_terms``, build
    the toy task, cascade and schedule, then train and freeze the
    backbone."""
    toy = ToyConfig()
    rng = np.random.default_rng(config["seed"])
    task_keys = (
        "n_train", "n_heldout", "tokens_per_example", "n_classes", "margin",
        "label_noise",
    )
    with _configuring(config):
        for terms in loss_terms:
            check_loss_terms(terms)
        schedule = StepSchedule(
            config["learning_rate"], config["decay"], config["decay_every"]
        )
        for key in ("stage1_epochs", "stage2_epochs"):
            check_epochs(config[key])
        task = make_task(toy, rng, **{key: config[key] for key in task_keys})
    model = init_cascade(toy, rng)
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
        (layer + 1, *(accuracies[terms][layer] for terms in ("ce", "kl", "both")))
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
    columns = ["layer", "accuracy_ce_only", "accuracy_kl_only", "accuracy_both"]
    _write_outputs(args, config, fields, "ablation.csv", _csv(config, columns, rows))
    return 0


LAMBDA_SCHEMA = {
    **ADAPTIVE_SCHEMA,
    "lambdas": ("floatlist", (0.5, 1.0, 2.0)),
    "sigma": ("float", 0.0),
    "tokens": ("int", 100_000),
}


def cmd_lambda_sweep(args: argparse.Namespace, config: dict) -> int:
    _, play = _run_adaptive(
        config, [config["sigma"]], config["lambdas"], {"adaptive": config["alphas"]}
    )
    runs = play()
    rows = []
    oracle_best = {}
    mean_rewards = {}
    for cells, oracle in runs:
        lam = cells["adaptive"].params.lam
        metrics = cells["adaptive"].metrics()
        rows.append((lam, metrics["speedup"], metrics["accuracy"]))
        oracle_best[repr(lam)] = oracle.best_threshold
        mean_rewards[repr(lam)] = metrics["mean_reward"]
    fields = {"oracle_best_arm": oracle_best, "mean_reward": mean_rewards}
    write = _csv(config, ["lambda", "speedup", "token_accuracy"], rows)
    _write_outputs(args, config, fields, "lambda_sweep.csv", write)
    return 0


TRAIN_TOY_SCHEMA = {
    **TOY_SCHEMA,
    "loss_terms": ("str", "both"),
    "checkpoint": ("str", "toy_cascade.json"),
}


def cmd_train_toy(args: argparse.Namespace, config: dict) -> int:
    _check_out_name(args, config, "checkpoint")
    task, model, schedule, stage1 = _stage_one(config, config["loss_terms"])
    stage2 = train_exits(
        model,
        task.train,
        config["stage2_epochs"],
        schedule,
        loss_terms=config["loss_terms"],
    )
    fields = {
        f"stage{stage}_loss": {
            "first": history[0] if history else None,
            "last": history[-1] if history else None,
        }
        for stage, history in ((1, stage1), (2, stage2))
    }
    fields["heldout_accuracy"] = list(layer_accuracies(model, task.heldout))
    fields["train_accuracy"] = list(layer_accuracies(model, task.train))
    # Scored first: a model whose heads cannot be scored is not saved.
    _write_outputs(
        args, config, fields, config["checkpoint"], partial(save_cascade, model)
    )
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch


COMMANDS: dict[str, tuple[Callable, dict]] = {
    "gen-traces": (cmd_gen_traces, GEN_TRACES_SCHEMA),
    "sweep-threshold": (cmd_sweep_threshold, SWEEP_SCHEMA),
    "bandit": (cmd_bandit, BANDIT_SCHEMA),
    "compare-distortion": (cmd_compare_distortion, COMPARE_SCHEMA),
    "ablation": (cmd_ablation, ABLATION_SCHEMA),
    "lambda-sweep": (cmd_lambda_sweep, LAMBDA_SCHEMA),
    "train-toy": (cmd_train_toy, TRAIN_TOY_SCHEMA),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses bad argv with ConfigError, so the
    refusal leaves through ``main`` like any other."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The exitsim parser.  Flag values stay strings: ``effective_config``
    parses them with the config file's values."""
    parser = _Parser(
        prog="exitsim",
        description="Early-exit inference experiments on synthetic traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema) in COMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="JSON config file", default=None)
        sub.add_argument("--seed", default=DEFAULT_SEED)
        sub.add_argument("--out-dir", default=".")
        for key in schema:
            sub.add_argument("--" + key.replace("_", "-"), default=None, dest=key)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command, schema = COMMANDS[args.command]
        return command(args, effective_config(args, schema))
    except (*_INPUT_ERRORS, OSError) as exc:
        return _fail("input", exc, 3)
    except (TrainingError, OutputError, MemoryError) as exc:
        return _fail("runtime", exc, 4)
    except ConfigError as exc:
        return _fail("config", exc, 2)


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
