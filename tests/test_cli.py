"""Command-line interface: config precedence, outputs, exit codes."""

import argparse
import csv
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exitsim
from exitsim import (
    IMAGE_CHUNK,
    ActionSet,
    AdaptiveCell,
    RewardParams,
    SyntheticConfidenceModel,
    ToyConfig,
    TraceBatch,
    draw_tokens,
    finish_tokens,
    init_cascade,
    load_cascade,
    read_traces,
    run_lockstep,
    save_cascade,
    shared_oracles,
    write_traces,
)
from exitsim import bandit, cli
from exitsim.cli import main
from exitsim.synth import NO_TARGET
from exitsim.staging import staged

from reference import ListSink, forward, regret_curve

from conftest import PINNED_ON, assert_cell_matches_reference

FAST_BANDIT = ["--tokens", "200", "--oracle-samples", "500", "--max-len", "12"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_summary(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.reader(rows))


# ---------------------------------------------------------------------------
# configuration plumbing


def test_flags_override_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokens": 60, "gamma": 1.5}))
    out = str(tmp_path / "out")
    code, stdout, _ = run_cli(
        [
            "bandit",
            "--config",
            str(cfg),
            "--tokens",
            "80",
            "--oracle-samples",
            "400",
            "--max-len",
            "12",
            "--out-dir",
            out,
        ],
        capsys,
    )
    assert code == 0
    summary = read_summary(out, "bandit_summary.json")
    assert summary["config"]["tokens"] == 80  # flag beats file
    assert summary["config"]["gamma"] == 1.5  # file beats default
    assert summary["config"]["sigma"] == 0.0  # untouched default
    assert summary["rounds"] == 80
    # the one-line stdout summary is the file content
    assert json.loads(stdout.strip().splitlines()[-1]) == summary


def test_config_values_echo_into_csv_preamble(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(["bandit", *FAST_BANDIT, "--out-dir", out], capsys)
    assert code == 0
    preamble = [
        line
        for line in open(os.path.join(out, "bandit_log.csv"))
        if line.startswith("#")
    ]
    assert "# tokens=200\n" in preamble
    assert "# seed=7\n" in preamble


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokns": 60}))
    code, _, err = run_cli(
        ["bandit", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: config:")
    assert "tokns" in err and "tokens" in err  # names the valid keys


def test_invalid_json_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(
        ["bandit", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: config:")


def test_wrong_typed_config_value_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokens": "many"}))
    code, _, err = run_cli(
        ["bandit", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "tokens" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare-distortion", "--tokens", "abc"], "tokens: expected int, got 'abc'"),
        (["bandit", "--seed", "abc"], "seed: expected int, got 'abc'"),
        (["bandit", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["bandit", "--tokens"], "argument --tokens: expected one argument"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad-int", "bad-seed", "unknown-flag", "no-value", "unknown-command", "no-command"],
)
def test_argv_the_parser_refuses_exits_2_through_main(
    argv, message, tmp_path, capsys, monkeypatch
):
    # Refused argv leaves main as a return value and one error line, not
    # as SystemExit with a usage block; the default --out-dir is the cwd.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: config: {message}")
    assert len(err.splitlines()) == 1
    assert out == ""
    assert os.listdir(tmp_path) == []


def test_out_dir_is_created_on_demand(tmp_path, capsys):
    out = str(tmp_path / "a" / "b")
    code, _, _ = run_cli(
        ["gen-traces", "--n-images", "3", "--max-len", "4", "--out-dir", out],
        capsys,
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "traces.txt"))


# ---------------------------------------------------------------------------
# error exit codes


def test_missing_traces_file_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "sweep-threshold",
            "--traces",
            str(tmp_path / "nope.txt"),
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 3
    assert err.startswith("error: input:")


def test_malformed_traces_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a trace file\n")
    code, _, err = run_cli(
        ["sweep-threshold", "--traces", str(bad), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert err.startswith("error: input:")


def test_sweep_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep-threshold", "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert "exactly one" in err

    code2, _, _ = run_cli(
        [
            "sweep-threshold",
            "--traces",
            "a.txt",
            "--model",
            "b.json",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code2 == 2


def test_sweep_threshold_outside_unit_interval_exits_2(tmp_path, capsys):
    out = str(tmp_path)
    args = ["gen-traces", "--n-images", "3", "--max-len", "4", "--out-dir", out]
    assert run_cli(args, capsys)[0] == 0
    code, _, err = run_cli(
        [
            "sweep-threshold",
            "--traces",
            os.path.join(out, "traces.txt"),
            "--alphas",
            "1.5",
            "--out-dir",
            out,
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config:")


@pytest.mark.parametrize(
    "argv, first_work, message",
    [
        (["ablation", "--stage2-epochs", "-1"], "train_backbone", "epochs must be >= 0, got -1"),
        (["train-toy", "--stage2-epochs", "-2"], "train_backbone", "epochs must be >= 0, got -2"),
        (["bandit", "--gamma", "0.5"], "shared_oracles", "gamma must be finite and >= 1, got 0.5"),
        (["compare-distortion", "--gamma", "0.99"], "shared_oracles", "gamma must be finite and >= 1, got 0.99"),
        (["lambda-sweep", "--gamma", "0"], "shared_oracles", "gamma must be finite and >= 1, got 0.0"),
        (["sweep-threshold", "--alphas", "0.5,1.5"], "read_traces", "exit threshold 1.5 outside [0, 1]"),
        (["sweep-threshold", "--alphas", "-0.25"], "read_traces", "exit threshold -0.25 outside [0, 1]"),
        (["bandit", "--alphas", "0.5,0.5"], "shared_oracles", "thresholds must be strictly increasing, got 0.5 before 0.5"),
        (["bandit", "--mu", "-1"], "shared_oracles", "mu must be finite and positive, got -1.0"),
        (["compare-distortion", "--sigmas", "-1"], "shared_oracles", "sigma must be >= 0, got -1.0"),
        (["compare-distortion", "--fixed-alpha", "2"], "shared_oracles", "exit threshold 2.0 outside [0, 1]"),
        (["ablation", "--n-classes", "1"], "init_cascade", "n_classes must be a power of two >= 2, got 1"),
        (["ablation", "--decay", "2"], "make_task", "decay must be in (0, 1], got 2.0"),
        (["gen-traces", "--sigma", "-1"], "draw_tokens", "sigma must be >= 0, got -1.0"),
        (["gen-traces", "--seed", "-1"], "draw_tokens", "seed must be >= 0, got -1"),
        (["sweep-threshold", "--seed", "-2"], "read_traces", "seed must be >= 0, got -2"),
        (["bandit", "--seed", "-1"], "shared_oracles", "seed must be >= 0, got -1"),
        (["compare-distortion", "--seed", "-1"], "shared_oracles", "seed must be >= 0, got -1"),
        (["lambda-sweep", "--seed", "-3"], "shared_oracles", "seed must be >= 0, got -3"),
        (["ablation", "--seed", "-1"], "make_task", "seed must be >= 0, got -1"),
        (["train-toy", "--seed", "-1"], "make_task", "seed must be >= 0, got -1"),
        (["gen-traces", "--out", "gen_traces_summary.json"], "draw_tokens", "out: 'gen_traces_summary.json' names the summary file"),
        (["gen-traces", "--out", "./gen_traces_summary.json"], "draw_tokens", "out: './gen_traces_summary.json' names the summary file"),
        (["train-toy", "--checkpoint", "train_toy_summary.json"], "make_task", "checkpoint: 'train_toy_summary.json' names the summary file"),
        (["train-toy", "--checkpoint", "./train_toy_summary.json"], "make_task", "checkpoint: './train_toy_summary.json' names the summary file"),
    ],
    ids=[
        "ablation", "train-toy", "bandit", "compare-distortion", "lambda-sweep",
        "sweep-above-1", "sweep-below-0", "bandit-alphas", "bandit-mu",
        "compare-sigmas", "compare-fixed-alpha", "ablation-classes",
        "ablation-decay", "gen-traces-sigma", *(
            f"{command}-seed" for command in (
                "gen-traces", "sweep-threshold", "bandit", "compare-distortion",
                "lambda-sweep", "ablation", "train-toy",
            )
        ),
        "gen-traces-out-is-summary", "gen-traces-out-is-dot-summary",
        "train-toy-checkpoint-is-summary", "train-toy-checkpoint-is-dot-summary",
    ],
)
def test_late_checked_flags_exit_2_before_any_work(
    argv, first_work, message, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before the flags were checked")

    monkeypatch.setattr(cli, first_work, no_work)
    out = tmp_path / "out"
    if argv[0] == "sweep-threshold":
        argv = [*argv, "--traces", str(tmp_path / "traces.txt")]
    code, _, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 2
    assert err == f"error: config: {message}\n"
    assert not out.exists()


# compare-distortion checks its own --fixed-alpha before the shared
# adaptive checks, so with a bad fixed threshold that is the one fault
# reported.  While the shared setup also built the fixed policy's action
# set, between the grid and the run's bounds, three of these reported the
# shared fault instead:
#   --sigmas 0,0        sigmas: duplicate value 0.0
#   --alphas 0.5,0.4    thresholds must be strictly increasing, got 0.5 before 0.4
#   --oracle-samples 0  oracle_samples must be >= 1, got 0
@pytest.mark.parametrize(
    "flags, alone",
    [
        (["--sigmas", "0,0"], "sigmas: duplicate value 0.0"),
        (["--alphas", "0.5,0.4"], "thresholds must be strictly increasing, got 0.5 before 0.4"),
        (["--oracle-samples", "0"], "oracle_samples must be >= 1, got 0"),
        (["--tokens", "5"], "tokens must cover one pull per arm and one round after: 5 <= 10"),
        (["--mu", "1e308"], "mu 1e+308 and lam 1.0: a sum of 200000 rewards in [-inf, 1.0] is not finite"),
    ],
    ids=["sigmas", "alphas", "oracle-samples", "tokens", "mu"],
)
def test_compare_distortion_reports_a_bad_fixed_alpha_first(
    flags, alone, tmp_path, capsys
):
    argv = ["compare-distortion", *flags, "--out-dir", str(tmp_path / "out")]
    assert run_cli(argv, capsys) == (2, "", f"error: config: {alone}\n")
    both = run_cli([*argv, "--fixed-alpha", "2"], capsys)
    assert both == (2, "", "error: config: exit threshold 2.0 outside [0, 1]\n")
    assert not (tmp_path / "out").exists()


def test_sweep_adds_up_blocks_as_one_pass(tmp_path, monkeypatch, capsys):
    # 150 images are read as three blocks; summed block by block, every
    # printed ratio must be the one-block sweep's, bit for bit.
    gen = ["gen-traces", "--n-images", "150", "--max-len", "5"]
    assert run_cli([*gen, "--out-dir", str(tmp_path)], capsys)[0] == 0
    path = str(tmp_path / "traces.txt")
    blocks = list(read_traces(path))
    assert len(blocks) == 3

    def sweep(out):
        args = ["sweep-threshold", "--traces", path, "--alphas", "0.2,0.6,0.6,0.95,1"]
        assert run_cli([*args, "--out-dir", str(out)], capsys)[0] == 0
        return (out / "sweep_threshold.csv").read_bytes()

    got = sweep(tmp_path / "blocks")
    whole = TraceBatch(
        *(
            np.concatenate([getattr(block, name) for block in blocks])
            for name in ("confidences", "token_ids", "targets")
        )
    )
    monkeypatch.setattr(cli, "read_traces", lambda path: [whole])
    assert got == sweep(tmp_path / "whole")


def test_sweep_needs_targets_and_traces(tmp_path, capsys):
    # Image 66 lies in the second block the reader yields.
    model = SyntheticConfidenceModel()
    draws = draw_tokens(model, 3, model.stream_rng(0), n_images=70)
    batch = finish_tokens(model, 0.0, draws)
    targets = batch.targets.copy()
    targets[3 * 66 : 3 * 67] = NO_TARGET
    untargeted = TraceBatch(
        batch.confidences, batch.token_ids, targets, range(70), np.arange(71) * 3
    )
    for blocks, message in (
        ([untargeted], "image 66 has no targets; accuracy cannot be computed"),
        ([], "no traces found"),
    ):
        path = str(tmp_path / "traces.txt")
        write_traces(path, blocks, model.n_layers, model.vocab_size)
        out = tmp_path / "out"
        code, _, err = run_cli(
            ["sweep-threshold", "--traces", path, "--out-dir", str(out)], capsys
        )
        assert code == 3
        assert err == f"error: input: {path}: {message}\n"
        assert not out.exists()


# Initialization pulls each of the 10 default arms once, on the first
# image's tokens: a budget of 10 would leave no round after it, and a
# 5-token image cannot hold the ten pulls.
@pytest.mark.parametrize("command", ["bandit", "compare-distortion", "lambda-sweep"])
def test_token_budget_below_arm_count_exits_2_in_every_adaptive_command(
    command, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the flags were checked")

    monkeypatch.setattr(bandit, "draw_tokens", no_work)
    for flags, message in (
        (["--tokens", "5"], "tokens must cover one pull per arm"),
        (["--tokens", "10"], "tokens must cover one pull per arm"),
        (["--max-len", "5", "--tokens", "1000"], "max_len must cover one token"),
    ):
        code, _, err = run_cli(
            [command, *flags, "--out-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert err.startswith(f"error: config: {message}")
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (["gen-traces", "--max-len", "0"], "max_len"),
        (["gen-traces", "--max-len", "-3"], "max_len"),
        (["gen-traces", "--n-images", "0"], "n_images"),
        (["bandit", "--oracle-samples", "0"], "oracle_samples"),
        (["bandit", "--max-len", "0"], "max_len"),
        (["compare-distortion", "--oracle-samples", "0"], "oracle_samples"),
        (["compare-distortion", "--max-len", "0"], "max_len"),
        (["lambda-sweep", "--oracle-samples", "-1"], "oracle_samples"),
        (["lambda-sweep", "--max-len", "0"], "max_len"),
    ],
)
def test_nonpositive_counts_exit_2_before_any_work(
    argv, key, tmp_path, capsys, monkeypatch
):
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the flags were checked")

    monkeypatch.setattr(bandit, "draw_tokens", no_work)
    monkeypatch.setattr(cli, "draw_tokens", no_work)
    out = tmp_path / "out"
    code, _, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: config: {key} must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["bandit", "compare-distortion", "lambda-sweep"])
def test_oracle_too_large_to_hold_exits_4_before_any_round(
    command, tmp_path, capsys, monkeypatch
):
    # 10**15 float64 samples are 7 PiB, past any 48-bit address space, so
    # the allocation fails under every overcommit setting.
    def no_rounds(*args, **kwargs):
        raise AssertionError("rounds were played before the oracle was drawn")

    monkeypatch.setattr(cli, "run_lockstep", no_rounds)
    out = tmp_path / "out"
    code, _, err = run_cli(
        [command, "--oracle-samples", str(10**15), "--out-dir", str(out)], capsys
    )
    assert code == 4
    assert err.startswith("error: runtime: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


TOKENS_PAST_INTP = "100000000000000000000 tokens of 12 layers"


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["gen-traces", "--n-images", "1", "--max-len", str(10**20)], TOKENS_PAST_INTP),
        (["bandit", "--oracle-samples", str(10**20)], TOKENS_PAST_INTP),
        (
            ["lambda-sweep", "--max-len", str(10**20), "--oracle-samples", "100"],
            TOKENS_PAST_INTP,
        ),
        (
            ["train-toy", "--n-train", str(10**20)],
            "100000000000000000000 examples of 8 tokens of 16 features",
        ),
    ],
    ids=[
        "gen-traces-max-len", "bandit-oracle-samples", "lambda-sweep-max-len",
        "train-toy-n-train",
    ],
)
def test_counts_past_the_address_space_exit_4(argv, prefix, tmp_path, capsys):
    # numpy refuses such arrays with ValueError, not MemoryError, and the
    # toy task would draw rows until memory ran out; the draw refuses them
    # first, as too large to allocate.
    out = tmp_path / "out"
    code, stdout, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 4
    assert err.startswith(f"error: runtime: {prefix}")
    assert len(err.splitlines()) == 1
    assert stdout == ""
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (["compare-distortion", "--sigmas", "0,0"], "sigmas"),
        (["compare-distortion", "--sigmas", "0,1,0.0"], "sigmas"),
        (["lambda-sweep", "--lambdas", "1,1"], "lambdas"),
        (["lambda-sweep", "--lambdas", "0.5,2,2.0"], "lambdas"),
    ],
)
def test_duplicate_sweep_values_exit_2_before_any_work(
    argv, key, tmp_path, capsys, monkeypatch
):
    # Each value keys its own entry in the summary, so a repeat would
    # write more CSV rows than summary entries.
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the flags were checked")

    monkeypatch.setattr(bandit, "draw_tokens", no_work)
    out = tmp_path / "out"
    code, _, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: config: {key}: duplicate value")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bandit", "--gamma", "nan"],
        ["bandit", "--lam", "inf"],
        ["bandit", "--alphas", "0.1,nan"],
        ["gen-traces", "--sigma", "nan"],
        ["bandit", "--mu", "1e308"],
        ["bandit", "--mu", "1e305"],
        ["bandit", "--lam", "1e308"],
        ["compare-distortion", "--mu", "1e308", *FAST_BANDIT],
        ["lambda-sweep", "--mu", "1e307", *FAST_BANDIT],
    ],
)
def test_non_finite_numbers_exit_2(argv, tmp_path, capsys, monkeypatch):
    # A reward range counts too: a run reports sums of up to
    # max(tokens, oracle_samples) rewards, and one that could overflow
    # is refused before sampling.
    def no_work(*args, **kwargs):
        raise AssertionError("sampling started before the flags were checked")

    monkeypatch.setattr(bandit, "draw_tokens", no_work)
    out = tmp_path / "out"
    code, _, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: config:") and "finite" in err
    assert not out.exists()


def test_reward_range_with_finite_sums_runs(tmp_path, capsys):
    # 1000 rewards in [-1 - 1e303 * 12, 1] sum to at most ~1.2e307.
    code, _, err = run_cli(
        [
            "bandit", "--mu", "1e303", "--tokens", "1000",
            "--oracle-samples", "1000", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0, err
    assert math.isfinite(read_summary(tmp_path, "bandit_summary.json")["mean_reward"])


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tokens": Infinity, "gamma": NaN}')
    code, _, err = run_cli(
        ["bandit", "--config", str(cfg), "--out-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: config:")


def test_out_dir_naming_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code, _, err = run_cli(
        ["gen-traces", "--n-images", "2", "--out-dir", str(blocker)], capsys
    )
    assert code == 3
    assert err.startswith("error: input:")
    assert err.count("\n") == 1


def test_non_ascii_traces_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(
        b"exitsim-traces 1 layers=2 vocab=8 source=x\n"
        b"img 1 3 0.5:1 0.25:2\n"
        b"caf\xc3\xa9 1 3 0.5:1 0.25:2\n"
    )
    code, _, err = run_cli(
        ["sweep-threshold", "--traces", str(bad), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert err.startswith("error: input: line 3")


def test_non_utf8_checkpoint_exits_3(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_bytes(b'{"format": "\xff"}\n')
    code, _, err = run_cli(
        ["sweep-threshold", "--model", str(bad), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 3
    assert err.startswith("error: input:")


@pytest.mark.parametrize(
    "flag, code, category", [("--config", 2, "config"), ("--model", 3, "input")]
)
def test_deeply_nested_json_exits_without_a_traceback(
    flag, code, category, tmp_path, capsys
):
    # The parser recurses once per bracket, so nesting past the
    # interpreter's limit raises RecursionError inside json.load.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    got, _, err = run_cli(
        ["sweep-threshold", flag, str(nested), "--out-dir", str(out)], capsys
    )
    assert got == code
    assert err.startswith(f"error: {category}: {nested}: not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, content, code, category",
    [
        ("--config", b'{"gamma": "caf\xe9"}', 2, "config"),
        ("--config", b'{"gamma": ' + b"1" * 5000 + b"}", 2, "config"),
        ("--model", b'{"format": ' + b"1" * 5000 + b"}", 3, "input"),
    ],
    ids=["config-latin-1", "config-huge-int", "checkpoint-huge-int"],
)
def test_json_that_python_cannot_parse_exits_without_a_traceback(
    flag, content, code, category, tmp_path, capsys
):
    # Bad UTF-8 and integers past Python's digit limit raise plain
    # ValueError inside json.load.
    path = tmp_path / "file.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    got, _, err = run_cli(
        ["sweep-threshold", flag, str(path), "--out-dir", str(out)], capsys
    )
    assert got == code
    assert err.startswith(f"error: {category}: {path}: not valid JSON")
    assert not out.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_checkpoint_weight_exits_3(bad, tmp_path, capsys):
    path = tmp_path / "model.json"
    save_cascade(init_cascade(ToyConfig(), np.random.default_rng(0)), str(path))
    blob = json.loads(path.read_text())
    blob["teacher_weight"][0][0] = bad  # json writes NaN / Infinity
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sweep-threshold", "--model", str(path), "--out-dir", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("error: input:")
    assert "teacher_weight" in err
    assert not (out / "sweep_threshold.csv").exists()


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("n_layers", 6.0, "n_layers"),  # a float dimension
        ("hidden_dim", True, "hidden_dim"),  # bool is an int subclass
        ("frozen", "false", "frozen"),  # any non-empty string is truthy
        ("version", True, "version"),  # Python's True == 1
        ("version", 1.0, "version"),
    ],
)
def test_checkpoint_field_of_the_wrong_type_exits_3(
    key, value, named, tmp_path, capsys
):
    path = tmp_path / "model.json"
    save_cascade(init_cascade(ToyConfig(), np.random.default_rng(0)), str(path))
    blob = json.loads(path.read_text())
    (blob["config"] if key in blob["config"] else blob)[key] = value
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sweep-threshold", "--model", str(path), "--out-dir", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("error: input:")
    assert named in err
    assert not (out / "sweep_threshold.csv").exists()


def test_checkpoint_too_small_for_the_task_exits_3(tmp_path, capsys):
    # Four classes need four defining coordinates.
    model = init_cascade(ToyConfig(input_dim=3), np.random.default_rng(0))
    model.frozen = True
    path = str(tmp_path / "model.json")
    save_cascade(model, path)
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sweep-threshold", "--model", path, "--out-dir", str(out)], capsys
    )
    assert code == 3
    assert err == (
        f"error: input: {path}: 4 classes need 4 defining coordinates, "
        f"input_dim is 3\n"
    )
    assert not out.exists()


def test_checkpoint_weight_too_large_for_a_float_exits_3(tmp_path, capsys):
    path = tmp_path / "model.json"
    save_cascade(init_cascade(ToyConfig(), np.random.default_rng(0)), str(path))
    blob = json.loads(path.read_text())
    blob["teacher_bias"][0] = 10**400  # a 401-digit JSON integer
    path.write_text(json.dumps(blob))
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["sweep-threshold", "--model", str(path), "--out-dir", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("error: input:")
    assert "too large" in err
    assert not out.exists()


def test_runtime_failure_exits_4(tmp_path, capsys):
    # Ten arms cannot be initialized from a two-token first image: the
    # flag is refused before any work, as configuration.
    code, _, err = run_cli(
        [
            "bandit",
            "--max-len",
            "2",
            "--tokens",
            "50",
            "--oracle-samples",
            "100",
            "--out-dir",
            str(tmp_path),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config: max_len must cover one token per arm")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "work, argv",
    [
        ("run_lockstep", ["bandit", *FAST_BANDIT]),
        ("train_backbone", ["train-toy", "--n-train", "1", "--n-heldout", "1"]),
    ],
    ids=["run_lockstep", "train_backbone"],
)
def test_a_value_error_mid_run_is_not_a_config_error(
    work, argv, tmp_path, capsys, monkeypatch
):
    # Only the configuration phase reports ValueError as the user's
    # config; one raised by the work itself is a bug, with a traceback.
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, work, broken)
    with pytest.raises(ValueError, match="internal fault"):
        main([*argv, "--out-dir", str(tmp_path)])
    assert "error:" not in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_null_config_value_keeps_the_default_and_nul_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gamma": null, "mu": null}')
    out = tmp_path / "out"
    argv = ["bandit", "--config", str(cfg), *FAST_BANDIT, "--out-dir", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert read_summary(out, "bandit_summary.json")["config"]["gamma"] == 1.0
    cfg.write_text('{"out": "a\\u0000b"}')
    code, _, err = run_cli(
        ["gen-traces", "--config", str(cfg), "--out-dir", str(tmp_path / "nul")],
        capsys,
    )
    assert code == 2
    assert err == "error: config: out: expected str, got 'a\\x00b'\n"


def test_non_finite_summary_exits_4_and_writes_no_summary(
    tmp_path, monkeypatch, capsys
):
    metrics = bandit.AdaptiveCell.metrics
    monkeypatch.setattr(
        bandit.AdaptiveCell,
        "metrics",
        lambda cell: {**metrics(cell), "mean_reward": float("nan")},
    )
    code, out, err = run_cli(
        ["bandit", *FAST_BANDIT, "--out-dir", str(tmp_path)], capsys
    )
    assert code == 4
    assert err.startswith("error: runtime:")
    assert out == ""
    assert os.listdir(tmp_path) == []  # no bandit_log.csv either


def test_write_summary_refuses_non_finite_numbers(tmp_path, capsys):
    args = argparse.Namespace(command="bandit", out_dir=str(tmp_path))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(cli.OutputError):
            cli._write_outputs(
                args, {}, {"value": bad}, "bandit_log.csv", cli._csv({}, ["t"], [(1,)])
            )
        assert os.listdir(tmp_path) == []
    assert capsys.readouterr().out == ""


def test_failed_write_leaves_no_output(tmp_path, capsys):
    args = argparse.Namespace(command="bandit", out_dir=str(tmp_path))

    def rows():
        yield (1,)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        cli._write_outputs(args, {}, {}, "bandit_log.csv", cli._csv({}, ["t"], rows()))
    assert os.listdir(tmp_path) == []  # no CSV, no summary, no temp file
    assert capsys.readouterr().out == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: ``write`` or ``flush`` raises."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_failed_summary_echo_leaves_no_output(failing, tmp_path, monkeypatch, capsys):
    # The summary is echoed, flushed, before the outputs are renamed into
    # place, so a run refused for its echo leaves nothing in --out-dir.
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(failing))
    code = main(["gen-traces", "--n-images", "3", "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == "error: input: [Errno 32] Broken pipe\n"
    assert os.listdir(tmp_path) == []  # no traces, no summary, no temp file


def test_csv_rows_are_the_bytes_csv_writer_writes(tmp_path, capsys):
    # Every row goes through csv.writer, floats written as their repr.
    rows = [
        (1, 0.1, 12, -0.0, 1e-300),
        (2, float("nan"), -3, float("inf"), 2.5e16),
        (True, 0.5, np.int64(7), np.float64(0.25), 3),
        ("fixed-0.6", 0.5, None, 'a "quoted", field', 1),
        (),
    ]
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["t", "arm"])
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    args = argparse.Namespace(command="bandit", out_dir=str(tmp_path))
    cli._write_outputs(args, {}, {}, "bandit_log.csv", cli._csv({}, ["t", "arm"], rows))
    capsys.readouterr()
    got = (tmp_path / "bandit_log.csv").read_bytes()
    assert got == want.getvalue().encode("ascii")


def test_bandit_log_rows_are_the_bytes_csv_writer_writes(tmp_path, capsys):
    # The bandit sink formats each row itself; reading its rows back and
    # writing them through csv.writer, floats as their repr, gives the file.
    out = str(tmp_path)
    argv = ["bandit", "--seed", "1", "--tokens", "3000", "--oracle-samples", "500"]
    assert run_cli([*argv, "--out-dir", out], capsys)[0] == 0
    with open(os.path.join(out, "bandit_log.csv"), "rb") as fh:
        got = fh.read()
    lines = got.decode("ascii").splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = read_csv_rows(os.path.join(out, "bandit_log.csv"))
    assert len(rows) == 3000
    want = io.StringIO(newline="")
    want.write("".join(comments))
    writer = csv.writer(want)
    writer.writerow(header)
    kinds = (int, float, int, float, float)
    for row in rows:
        values = [kind(v) for kind, v in zip(kinds, row, strict=True)]
        writer.writerow([repr(v) if isinstance(v, float) else v for v in values])
    assert got == want.getvalue().encode("ascii")


def test_staged_replaces_only_after_the_block(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError, match="writer failed"):
        with staged(str(path)) as (temp,):
            with open(temp, "w") as fh:
                fh.write("half")
            raise RuntimeError("writer failed")
    assert os.listdir(tmp_path) == ["out.txt"]  # no temp file
    assert path.read_text() == "old"
    with staged(str(path)) as (temp,):
        with open(temp, "w") as fh:
            fh.write("new")
        assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "new"


def test_staged_removes_the_temps_not_yet_renamed(tmp_path, monkeypatch):
    first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.json")
    replace = os.replace

    def failing_second(src, dst):
        if dst == second:
            raise PermissionError("rename refused")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_second)
    with pytest.raises(PermissionError, match="rename refused"):
        with staged(first, second) as temps:
            for temp in temps:
                with open(temp, "w") as fh:
                    fh.write("x")
    assert os.listdir(tmp_path) == ["a.csv"]  # renamed before the failure


TOY_IN_A_BLINK = [
    "--stage1-epochs", "2", "--stage2-epochs", "2", "--n-train", "4",
    "--n-heldout", "4",
]


@pytest.mark.parametrize(
    "argv, blocker",
    [
        (["gen-traces", "--n-images", "2", "--out", "taken"], "taken"),
        (["gen-traces", "--n-images", "2", "--out", ""], None),
        (["lambda-sweep", *FAST_BANDIT], "lambda_sweep_summary.json"),
        (["gen-traces", "--n-images", "2"], "gen_traces_summary.json"),
        (["sweep-threshold"], "sweep_threshold_summary.json"),
        (["bandit", *FAST_BANDIT], "bandit_summary.json"),
        (["compare-distortion", *FAST_BANDIT], "compare_distortion_summary.json"),
        (["ablation", *TOY_IN_A_BLINK], "ablation_summary.json"),
        (["train-toy", *TOY_IN_A_BLINK], "train_toy_summary.json"),
    ],
    ids=[
        "out-is-a-directory", "empty-out", "summary-is-a-directory", *(
            f"{command}-summary-is-a-directory" for command in (
                "gen-traces", "sweep-threshold", "bandit", "compare-distortion",
                "ablation", "train-toy",
            )
        ),
    ],
)
def test_directory_at_an_output_name_exits_3_and_writes_nothing(
    argv, blocker, tmp_path, capsys
):
    if argv[0] == "sweep-threshold":  # its input lies in --out-dir too
        gen = ["gen-traces", "--n-images", "2", "--out-dir", str(tmp_path)]
        assert run_cli(gen, capsys)[0] == 0
        argv = [*argv, "--traces", str(tmp_path / "traces.txt")]
    if blocker is not None:
        (tmp_path / blocker).mkdir()
    before = sorted(os.listdir(tmp_path))
    code, out, err = run_cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("error: input: [Errno 21] Is a directory: ")
    assert out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "argv, names",
    [
        (["gen-traces", "--n-images", "2"], ["traces.txt", "gen_traces_summary.json"]),
        (
            ["train-toy", *TOY_IN_A_BLINK],
            ["toy_cascade.json", "train_toy_summary.json"],
        ),
    ],
    ids=["gen-traces", "train-toy"],
)
def test_each_output_file_is_renamed_once(argv, names, tmp_path, monkeypatch, capsys):
    # One staging layer: each file goes from <name>.<pid>.tmp to <name>
    # in one rename, and nothing else is renamed.
    renames = []
    replace = os.replace

    def recording(src, dst):
        renames.append((src, dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    assert run_cli([*argv, "--out-dir", str(tmp_path)], capsys)[0] == 0
    paths = [str(tmp_path / name) for name in names]
    assert renames == [(f"{path}.{os.getpid()}.tmp", path) for path in paths]


def test_out_into_a_missing_directory_names_one_temporary_file(tmp_path, capsys):
    out = os.path.join("sub", "t.txt")
    argv = ["gen-traces", "--n-images", "2", "--out", out, "--out-dir", str(tmp_path)]
    code, stdout, err = run_cli(argv, capsys)
    assert code == 3
    temp = os.path.join(str(tmp_path), f"{out}.{os.getpid()}.tmp")
    assert err == f"error: input: [Errno 2] No such file or directory: {temp!r}\n"
    assert stdout == ""
    assert os.listdir(tmp_path) == []


# Runs argv[2:] through the CLI under a file-size limit of argv[1] bytes,
# with SIGXFSZ ignored so that a write past the limit fails with EFBIG.
_CLI_UNDER_A_SIZE_LIMIT = """
import resource, signal, sys
from exitsim.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), hard))
sys.exit(main(sys.argv[2:]))
"""


def test_checkpoint_save_that_fails_leaves_the_previous_checkpoint(tmp_path, capsys):
    # A train-toy run whose checkpoint outgrows the file-size limit leaves
    # the previous run's checkpoint and summary byte for byte.
    argv = ["train-toy", *TOY_IN_A_BLINK, "--out-dir", str(tmp_path)]
    assert run_cli(argv, capsys)[0] == 0
    names = sorted(os.listdir(tmp_path))
    old = {name: (tmp_path / name).read_bytes() for name in names}
    limit = len(old["toy_cascade.json"]) // 2
    env = _child_env()
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # no .pyc write under the limit
    result = subprocess.run(
        [sys.executable, "-c", _CLI_UNDER_A_SIZE_LIMIT, str(limit), *argv,
         "--seed", "8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(
        f"error: input: [Errno {errno.EFBIG}] File too large"
    )
    assert sorted(os.listdir(tmp_path)) == names  # no temporary file
    assert {name: (tmp_path / name).read_bytes() for name in names} == old


def test_unreachable_margin_exits_2_at_once(tmp_path):
    # Each row would survive with probability ~5e-11: the task draw must
    # be refused before it starts, not loop forever.
    result = subprocess.run(
        [
            sys.executable, "-m", "exitsim.cli", "train-toy",
            "--margin", "3", "--n-train", "1", "--n-heldout", "1",
            "--stage1-epochs", "1", "--stage2-epochs", "1",
            "--out-dir", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: config: margin 3.0")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# gen-traces and sweep-threshold


def test_gen_traces_then_sweep(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        ["gen-traces", "--n-images", "30", "--max-len", "8", "--out-dir", out],
        capsys,
    )
    assert code == 0
    traces_path = os.path.join(out, "traces.txt")
    (block,) = read_traces(traces_path)
    assert len(block.image_ids) == 30 and len(block) == 240
    assert (block.targets != NO_TARGET).all()
    summary = read_summary(out, "gen_traces_summary.json")
    assert summary["n_images"] == 30
    assert summary["n_tokens"] == 240

    code, _, _ = run_cli(
        ["sweep-threshold", "--traces", traces_path, "--out-dir", out], capsys
    )
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "sweep_threshold.csv"))
    assert rows[0] == ["alpha", "speedup_ratio", "token_accuracy", "mean_exit_layer"]
    assert len(rows) == 11  # header + default 10-point grid

    speedups = [float(r[1]) for r in rows[1:]]
    depths = [float(r[3]) for r in rows[1:]]
    # raising the threshold pushes every token deeper, deterministically
    assert all(a >= b - 1e-12 for a, b in zip(speedups, speedups[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(depths, depths[1:]))
    assert all(1.0 <= s <= 12.0 for s in speedups)


def test_gen_traces_writes_exactly_n_images(tmp_path, capsys):
    # The stream draws whole chunks; the file must still stop at n_images.
    out = str(tmp_path)
    code, _, _ = run_cli(
        ["gen-traces", "--n-images", "70", "--max-len", "3", "--out-dir", out],
        capsys,
    )
    assert code == 0
    assert 70 % IMAGE_CHUNK != 0
    blocks = list(read_traces(os.path.join(out, "traces.txt")))
    assert [len(block) for block in blocks] == [3 * IMAGE_CHUNK, 3 * (70 - IMAGE_CHUNK)]
    assert [i for block in blocks for i in block.image_ids] == [str(i) for i in range(70)]
    assert read_summary(out, "gen_traces_summary.json")["n_images"] == 70


def test_gen_traces_seed_changes_bytes(tmp_path, capsys):
    out_a, out_b, out_c = (str(tmp_path / d) for d in "abc")
    args = ["gen-traces", "--n-images", "5", "--max-len", "6"]
    assert run_cli([*args, "--out-dir", out_a], capsys)[0] == 0
    assert run_cli([*args, "--out-dir", out_b], capsys)[0] == 0
    assert run_cli([*args, "--seed", "8", "--out-dir", out_c], capsys)[0] == 0
    read = lambda d: open(os.path.join(d, "traces.txt"), "rb").read()
    assert read(out_a) == read(out_b)
    assert read(out_a) != read(out_c)


# ---------------------------------------------------------------------------
# bandit


def test_bandit_reruns_are_byte_identical(tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out_a, out_b):
        code, _, _ = run_cli(["bandit", *FAST_BANDIT, "--out-dir", out], capsys)
        assert code == 0
    for name in ("bandit_log.csv", "bandit_summary.json"):
        bytes_a = open(os.path.join(out_a, name), "rb").read()
        bytes_b = open(os.path.join(out_b, name), "rb").read()
        assert bytes_a == bytes_b


def test_bandit_seeds_share_the_oracle_but_not_the_run(tmp_path, capsys):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    base = ["bandit", "--tokens", "150", "--oracle-samples", "2000", "--max-len", "12"]
    assert run_cli([*base, "--seed", "7", "--out-dir", out_a], capsys)[0] == 0
    assert run_cli([*base, "--seed", "8", "--out-dir", out_b], capsys)[0] == 0
    sum_a = read_summary(out_a, "bandit_summary.json")
    sum_b = read_summary(out_b, "bandit_summary.json")
    # the oracle verdict is a property of the model, not the run seed
    assert sum_a["oracle_best_arm"] == sum_b["oracle_best_arm"]
    assert sum_a["oracle_expected_rewards"] == sum_b["oracle_expected_rewards"]
    log_a = open(os.path.join(out_a, "bandit_log.csv")).read()
    log_b = open(os.path.join(out_b, "bandit_log.csv")).read()
    assert log_a != log_b


def test_bandit_single_arm_has_zero_regret(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "bandit",
            "--alphas",
            "0.6",
            "--tokens",
            "50",
            "--oracle-samples",
            "200",
            "--max-len",
            "12",
            "--out-dir",
            out,
        ],
        capsys,
    )
    assert code == 0
    summary = read_summary(out, "bandit_summary.json")
    assert summary["pseudo_regret"] == 0.0
    assert summary["arm_frequencies"] == {"0.6": 50}
    assert summary["oracle_best_arm"] == 0.6
    assert summary["empirical_best_arm"] == 0.6


def test_bandit_log_matches_summary_counts(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(["bandit", *FAST_BANDIT, "--out-dir", out], capsys)
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "bandit_log.csv"))
    assert rows[0] == ["t", "arm", "exit_layer", "reward", "cumulative_pseudo_regret"]
    assert len(rows) - 1 == 200
    summary = read_summary(out, "bandit_summary.json")
    assert summary["rounds"] == 200
    counted = sum(summary["arm_frequencies"].values())
    assert counted == 200
    last_regret = float(rows[-1][4])
    assert last_regret == pytest.approx(summary["pseudo_regret"], abs=1e-9)


def test_bandit_log_csv_layout(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        ["bandit", *FAST_BANDIT, "--alphas", "0.5,0.6", "--out-dir", out], capsys
    )
    assert code == 0
    lines = open(os.path.join(out, "bandit_log.csv")).read().splitlines()
    n_comments = sum(line.startswith("#") for line in lines)
    assert all(line.startswith("# ") for line in lines[:n_comments])
    assert "# alphas=[0.5, 0.6]" in lines[:n_comments]
    rows = list(csv.reader(lines[n_comments:]))
    assert rows[0] == ["t", "arm", "exit_layer", "reward", "cumulative_pseudo_regret"]
    assert [row[1] for row in rows[1:3]] == ["0.5", "0.6"]  # initialization
    summary = read_summary(out, "bandit_summary.json")
    expected = {float(a): e for a, e in summary["oracle_expected_rewards"].items()}
    best = max(expected.values())
    regret = 0.0
    for t, (round_, arm, layer, reward, cumulative) in enumerate(rows[1:], start=1):
        assert int(round_) == t
        assert float(arm) in expected and 1 <= int(layer) <= 12
        assert repr(float(reward)) == reward and repr(float(cumulative)) == cumulative
        regret += best - expected[float(arm)]
        assert float(cumulative) == pytest.approx(regret, abs=1e-12)


@st.composite
def tiny_bandit_runs(draw):
    grid = ActionSet.default_grid().thresholds
    alphas = sorted(draw(st.sets(st.sampled_from(grid), min_size=1, max_size=5)))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "alphas": alphas,
        "max_len": draw(st.integers(len(alphas), 10)),
        # Up to several chunks of IMAGE_CHUNK captions.
        "tokens": draw(st.integers(len(alphas) + 1, 3000)),
        "gamma": draw(st.floats(1.0, 5.0)),
        "lam": draw(st.floats(0.0, 3.0)),
        "oracle_samples": draw(st.integers(1, 3000)),
    }


def test_bandit_regret_column_is_the_reference_curve(tmp_path_factory, capsys):
    # The CSV's running sum against np.cumsum over a list sink's run of
    # the same config, bit for bit.
    @settings(max_examples=12, derandomize=True, database=None, deadline=None)
    @given(run=tiny_bandit_runs())
    # Captions of at most 3 tokens: a chunk holds at most 192 rounds.
    @example(
        run={"seed": 7, "alphas": [0.2, 0.5, 0.8], "max_len": 3, "tokens": 3000,
             "gamma": 1.0, "lam": 1.0, "oracle_samples": 2000}
    )
    def check(run):
        out = tmp_path_factory.mktemp("regret")
        argv = ["bandit", "--alphas", ",".join(map(repr, run["alphas"]))]
        for key in ("seed", "max_len", "tokens", "gamma", "lam", "oracle_samples"):
            argv += [f"--{key.replace('_', '-')}", repr(run[key])]
        assert run_cli([*argv, "--out-dir", str(out)], capsys)[0] == 0
        column = [row[4] for row in read_csv_rows(out / "bandit_log.csv")[1:]]

        base = SyntheticConfidenceModel(seed=run["seed"])
        actions = ActionSet(tuple(run["alphas"]))
        params = RewardParams(base.n_layers, lam=run["lam"])
        log = ListSink()
        cell = AdaptiveCell(actions, params, 0.0, log)
        gamma, tokens, max_len = run["gamma"], run["tokens"], run["max_len"]
        run_lockstep(base, [cell], gamma, tokens, max_len)
        [[oracle]] = shared_oracles(
            base, [0.0], actions, [params], run["oracle_samples"]
        )
        curve = regret_curve(log, oracle).tolist()
        assert column == [repr(x) for x in curve]
        assert read_summary(out, "bandit_summary.json")["pseudo_regret"] == curve[-1]

    check()


def test_bandit_failing_mid_stream_leaves_no_output(tmp_path, monkeypatch, capsys):
    # A sink that fails (a full disk, say) once the first chunk's rows
    # reached the temporary CSV: nothing lands in --out-dir.
    cell_type = cli.AdaptiveCell

    def cell_with_a_failing_sink(actions, params, sigma, sink=None):
        calls = []

        def failing(rows):
            if calls:
                [temp] = os.listdir(tmp_path)
                assert temp.endswith(".tmp") and os.path.getsize(tmp_path / temp) > 0
                raise OSError(errno.ENOSPC, "No space left on device")
            calls.append(len(rows))
            sink(rows)

        return cell_type(actions, params, sigma, failing)

    monkeypatch.setattr(cli, "AdaptiveCell", cell_with_a_failing_sink)
    argv = ["bandit", "--tokens", "2000", "--oracle-samples", "500", "--max-len", "12"]
    code, out, err = run_cli([*argv, "--out-dir", str(tmp_path)], capsys)
    assert code == 3
    assert err == "error: input: [Errno 28] No space left on device\n"
    assert out == ""
    assert os.listdir(tmp_path) == []  # no CSV, no summary, no temp file


def test_bandit_memory_does_not_grow_with_tokens(tmp_path, capsys):
    # 35,000 more rounds may not raise the traced peak by one chunk's arm
    # tables: IMAGE_CHUNK images of max_len 20 tokens times 10 arms, in
    # three flat lists of 8-byte slots (the list slots alone, 307,200
    # bytes).  A run that kept its rounds would hold about 100 bytes each.
    # The first run of a process also makes one-time allocations, about
    # 1 MB, so it is a warm-up and is not measured.
    bound = IMAGE_CHUNK * 20 * 10 * 3 * 8
    peaks = []
    for tokens in (5_000, 5_000, 40_000):
        argv = ["bandit", "--tokens", str(tokens), "--oracle-samples", "1000"]
        tracemalloc.start()
        try:
            code, _, _ = run_cli([*argv, "--out-dir", str(tmp_path)], capsys)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[2] - peaks[1]) < bound, peaks


# ---------------------------------------------------------------------------
# compare-distortion and lambda-sweep


def test_compare_distortion_structure(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "compare-distortion",
            "--sigmas",
            "0,1",
            "--tokens",
            "60",
            "--oracle-samples",
            "300",
            "--max-len",
            "12",
            "--out-dir",
            out,
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "compare_distortion.csv"))
    assert rows[0] == ["sigma", "policy", "speedup", "token_accuracy", "mean_reward"]
    assert [r[1] for r in rows[1:]] == ["fixed-0.6", "adaptive"] * 2
    summary = read_summary(out, "compare_distortion_summary.json")
    assert set(summary["adaptive_minus_fixed_mean_reward"]) == {"0.0", "1.0"}
    assert set(summary["oracle_best_arm"]) == {"0.0", "1.0"}


def test_lambda_sweep_structure(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "lambda-sweep",
            "--lambdas",
            "0.5,1.0",
            "--tokens",
            "60",
            "--oracle-samples",
            "300",
            "--max-len",
            "12",
            "--out-dir",
            out,
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "lambda_sweep.csv"))
    assert rows[0] == ["lambda", "speedup", "token_accuracy"]
    assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0]
    summary = read_summary(out, "lambda_sweep_summary.json")
    assert set(summary["oracle_best_arm"]) == {"0.5", "1.0"}


def test_lockstep_cells_match_independent_runs():
    for case in (
        "mid-chunk", "off-grid-fixed-arm", "max-len-equals-arms", "chunk-boundary",
        "interleaved-levels",
    ):
        _check_lockstep_case(case)


def _check_lockstep_case(case):
    # One shared stream, finished per sigma and fed chunk by chunk, must
    # leave each cell where a run of its own over the stream ends.
    # mid-chunk: the budget ends mid-chunk, and the cells close in
    # different chunks.  off-grid-fixed-arm: the fixed threshold is not
    # on the adaptive grid.  max-len-equals-arms: initialization uses the
    # whole first image.  chunk-boundary: without eos every caption runs
    # to the cap, so the adaptive cells' budget ends on the last token of
    # chunk 2 (the fixed cells, with one arm to initialize, go on into
    # chunk 3).  interleaved-levels: the cells' levels alternate, and one
    # spells 0.0 as the integer 0; each cell must end where a lockstep
    # over it alone ends.
    base = SyntheticConfidenceModel(seed=5)
    grid = (0.2, 0.5, 0.8, 1.0)
    policies = (ActionSet((0.6,)), ActionSet(grid))
    budget, max_len, gamma = 1001, 6, 1.2
    if case == "off-grid-fixed-arm":
        policies = (ActionSet((0.65,)), ActionSet(grid))
    elif case == "max-len-equals-arms":
        max_len = len(grid)
    elif case == "chunk-boundary":
        base = SyntheticConfidenceModel(seed=5, eos_prob=0.0)
        max_len = 5
        # Image 0 initializes; images 1 .. 2 * IMAGE_CHUNK - 1 caption.
        budget = len(grid) + (2 * IMAGE_CHUNK - 1) * max_len
    params = RewardParams(n_layers=base.n_layers, lam=0.7)
    levels = [(actions, sigma) for sigma in (0.0, 3.0) for actions in policies]
    if case == "interleaved-levels":
        fixed, adaptive = policies
        levels = [(fixed, 0), (adaptive, 3.0), (adaptive, 0.0), (fixed, 3.0)]
    cells = [AdaptiveCell(actions, params, sigma, ListSink()) for actions, sigma in levels]
    run_lockstep(base, cells, gamma, budget, max_len)

    closing_chunks = set()
    for cell in cells:
        captions = assert_cell_matches_reference(
            cell, base, cell.sigma, gamma, max_len, budget
        )
        assert cell.t == budget
        closing_chunks.add(captions[-1].image_id // IMAGE_CHUNK)
        if case == "chunk-boundary" and len(cell.actions) == len(grid):
            last = captions[-1]
            assert last.image_id == 2 * IMAGE_CHUNK - 1
            assert len(last) == max_len and not last.truncated
        if case == "interleaved-levels":
            alone = AdaptiveCell(cell.actions, params, cell.sigma, ListSink())
            run_lockstep(base, [alone], gamma, budget, max_len)
            aggregates = ("q", "pulls", "t", "hist", "reward_sum", "hits", "emitted", "sink")
            for name in aggregates:
                assert getattr(alone, name) == getattr(cell, name), name
    if case == "mid-chunk":
        assert len(closing_chunks) > 1


def test_lockstep_validates_each_finished_chunk(monkeypatch):
    finish = bandit.finish_tokens

    def corrupt(model, sigma, draws):
        batch = finish(model, sigma, draws)
        batch.confidences[7, 3] = np.nan
        return batch

    monkeypatch.setattr(bandit, "finish_tokens", corrupt)
    base = SyntheticConfidenceModel(seed=5)
    cells = [AdaptiveCell(ActionSet((0.5,)), RewardParams(n_layers=base.n_layers), 0.0)]
    with pytest.raises(exitsim.TraceFormatError, match="token 8 layer 4"):
        run_lockstep(base, cells, 1.0, 50, 6)
    assert cells[0].t == 0


# ---------------------------------------------------------------------------
# train-toy and ablation


TINY_TRAIN = [
    "--stage1-epochs", "60",
    "--stage2-epochs", "40",
    "--decay-every", "30",
    "--n-train", "48",
    "--n-heldout", "64",
]


def test_train_toy_checkpoint_drives_a_sweep(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(["train-toy", *TINY_TRAIN, "--out-dir", out], capsys)
    assert code == 0
    ckpt = os.path.join(out, "toy_cascade.json")
    model = load_cascade(ckpt)
    assert model.frozen
    summary = read_summary(out, "train_toy_summary.json")
    assert summary["stage1_loss"]["last"] < summary["stage1_loss"]["first"]
    assert len(summary["heldout_accuracy"]) == model.config.n_layers

    code, _, _ = run_cli(
        ["sweep-threshold", "--model", ckpt, "--out-dir", out], capsys
    )
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "sweep_threshold.csv"))
    assert len(rows) == 11


def test_model_sweep_matches_the_stacked_forward(tmp_path, monkeypatch, capsys):
    model = init_cascade(ToyConfig(), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for w in model.exit_weights:
        w[:] = rng.normal(size=w.shape)
    ckpt = str(tmp_path / "model.json")
    save_cascade(model, ckpt)

    def sweep(out):
        args = ["sweep-threshold", "--model", ckpt, "--out-dir", str(out)]
        assert run_cli(args, capsys)[0] == 0
        return (out / "sweep_threshold.csv").read_bytes()

    got = sweep(tmp_path / "heads")

    def stacked(model, example):
        probs = forward(model, example)
        return probs.max(axis=2), probs.argmax(axis=2)

    monkeypatch.setattr(cli, "head_confidences", stacked)
    assert got == sweep(tmp_path / "stacked")


def test_train_toy_refuses_unknown_loss_terms_before_training(
    tmp_path, monkeypatch, capsys
):
    def no_training(*args, **kwargs):
        raise AssertionError("stage one ran")

    monkeypatch.setattr(cli, "train_backbone", no_training)
    out = tmp_path / "out"
    code, _, err = run_cli(
        ["train-toy", "--loss-terms", "bogus", "--out-dir", str(out)], capsys
    )
    assert code == 2
    assert err.startswith("error: config: loss_terms must be one of")
    assert not out.exists()


# One step at this rate leaves parameters near the float maximum: finite,
# so a checkpoint would hold them, but every head's logits overflow (and
# numpy warns of it on the way).
OVERFLOWING_TRAIN = [
    "--stage1-epochs", "1",
    "--stage2-epochs", "1",
    "--n-train", "1",
    "--n-heldout", "1",
    "--learning-rate", "1e308",
]


def assert_unscorable_heads_exit_4(argv, out, capsys):
    code, stdout, err = run_cli([*argv, "--out-dir", str(out)], capsys)
    assert code == 4
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [errors[0]]
    assert errors[0].startswith("error: runtime: head ")
    assert "probabilities are not finite" in errors[0]
    assert stdout == ""
    assert not out.exists()


OVERFLOW_WARNINGS = pytest.mark.filterwarnings(
    "ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning"
)


@OVERFLOW_WARNINGS
@pytest.mark.parametrize("command", ["train-toy", "ablation"])
def test_training_to_unscorable_heads_exits_4_and_writes_nothing(
    command, tmp_path, capsys
):
    assert_unscorable_heads_exit_4(
        [command, *OVERFLOWING_TRAIN], tmp_path / "out", capsys
    )


@OVERFLOW_WARNINGS
def test_sweep_of_a_model_with_unscorable_heads_exits_4(tmp_path, capsys):
    model = init_cascade(ToyConfig(), np.random.default_rng(3))
    for w in (*model.exit_weights, model.teacher_weight):
        w[:] = 1e308
    ckpt = str(tmp_path / "model.json")
    save_cascade(model, ckpt)
    assert_unscorable_heads_exit_4(
        ["sweep-threshold", "--model", ckpt], tmp_path / "out", capsys
    )


def test_ablation_tiny_structure(tmp_path, capsys):
    out = str(tmp_path)
    code, _, _ = run_cli(
        [
            "ablation",
            "--stage1-epochs", "40",
            "--stage2-epochs", "30",
            "--decay-every", "20",
            "--n-train", "32",
            "--n-heldout", "32",
            "--out-dir", out,
        ],
        capsys,
    )
    assert code == 0
    rows = read_csv_rows(os.path.join(out, "ablation.csv"))
    assert rows[0] == ["layer", "accuracy_ce_only", "accuracy_kl_only", "accuracy_both"]
    assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5, 6]
    summary = read_summary(out, "ablation_summary.json")
    for key in ("layer1_both_minus_ce", "deepest_exit_spread", "teacher_accuracy"):
        assert key in summary
    assert 0.0 <= summary["teacher_accuracy"] <= 1.0


# ---------------------------------------------------------------------------
# pinned simulator outputs
#
# SHA-256 of every output file at seed 7 and tiny sizes.  The commands run
# with relative paths inside tmp_path, because the configs echo --traces
# into the outputs.  The toy-cascade commands (ablation, train-toy,
# sweep-threshold --model) are not pinned: their matmul bits may follow
# the BLAS thread count.

PINNED_OUTPUTS = {
    "bandit": (
        [["bandit", *FAST_BANDIT]],
        {
            "bandit_log.csv": "e629ce59b86afbbd29b5f066af0a63700b73f0e73c1da51674ab49f29cc78e66",
            "bandit_summary.json": "0262a355b9025fb841cae5b5eafc2c6925b5c83472ea0f2d8636c59f7323e789",
        },
    ),
    "compare-distortion": (
        [["compare-distortion", "--sigmas", "0,2", *FAST_BANDIT]],
        {
            "compare_distortion.csv": "a576654c8a34edd66b22063887a50c62cef9221744b4e52d0bd33deeda065bf3",
            "compare_distortion_summary.json": "c7e96db24f4fa91c8ce4cbbda37cdf6f4ded527bd0c2f7158e5ffc434bd2879b",
        },
    ),
    "lambda-sweep": (
        [["lambda-sweep", "--lambdas", "0.5,2", *FAST_BANDIT]],
        {
            "lambda_sweep.csv": "13beab363e506bd81c6775912f6e7bdad90349edf16fa8f4a101fa7e7d595c50",
            "lambda_sweep_summary.json": "b526ddc6062a14bd50848c826416f2a7d54eb5015a8ac94a50f8ed396fb381db",
        },
    ),
    "gen-traces+sweep-threshold": (
        [
            ["gen-traces", "--n-images", "20", "--max-len", "8"],
            ["sweep-threshold", "--traces", "out/traces.txt"],
        ],
        {
            "gen_traces_summary.json": "fb06ba59871a4c7da1442a5f1e17ee8dc58cdb9385171a339988f0f34bb854fe",
            "sweep_threshold.csv": "51008406d2cb96d38eece22095b494a07626712dbacd4fa1fc32493f4b00bcf4",
            "sweep_threshold_summary.json": "d5e5cb263f80fc881afc13098e6fac30f2530534d3cf25483896a444d73ecfc4",
            "traces.txt": "9b67aa8fbd807c41d366dd66a0b5d584098464fd2deb48e54c736d31e2dc9af1",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_simulator_outputs_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands, digests = PINNED_OUTPUTS[name]
    for argv in commands:
        assert run_cli([*argv, "--out-dir", "out"], capsys)[0] == 0
    got = {
        entry: hashlib.sha256(open(os.path.join("out", entry), "rb").read()).hexdigest()
        for entry in sorted(os.listdir("out"))
    }
    assert got == digests, PINNED_ON


# ---------------------------------------------------------------------------
# console entry point


def _child_env(bin_dir=None):
    """Environment for a subprocess that imports the checkout under test.

    ``PYTHONPATH`` is the directory holding the ``exitsim`` package this
    suite imported, so the child does not depend on the working directory.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(exitsim.__file__))
    if bin_dir is not None:
        env["PATH"] = str(bin_dir) + os.pathsep + env.get("PATH", "")
    return env


def test_console_script_help_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "exitsim.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert "exitsim" in result.stdout
    for command in (
        "gen-traces",
        "sweep-threshold",
        "bandit",
        "compare-distortion",
        "ablation",
        "lambda-sweep",
        "train-toy",
    ):
        assert command in result.stdout


def test_installed_script_runs(tmp_path):
    # Build the console script from [project.scripts] the way an installer
    # does, so the test needs no pip install and runs this checkout.
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["exitsim"]
    module, attr = target.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "exitsim"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    result = subprocess.run(
        [
            "exitsim",
            "gen-traces",
            "--n-images",
            "2",
            "--max-len",
            "4",
            "--out-dir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=_child_env(bin_dir),
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.strip())["n_images"] == 2


def test_run_all_experiments_quick_writes_every_output(tmp_path):
    script = os.path.join(
        os.path.dirname(__file__), os.pardir, "scripts", "run_all_experiments.py"
    )
    out = tmp_path / "results"
    result = subprocess.run(
        [sys.executable, script, "--quick", "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    expected = {
        "traces": ["traces.txt", "gen_traces_summary.json",
                   "sweep_threshold.csv", "sweep_threshold_summary.json"],
        "bandit": ["bandit_log.csv", "bandit_summary.json"],
        "compare": ["compare_distortion.csv", "compare_distortion_summary.json"],
        "ablation": ["ablation.csv", "ablation_summary.json"],
        "lambda": ["lambda_sweep.csv", "lambda_sweep_summary.json"],
        "toy": ["toy_cascade.json", "train_toy_summary.json",
                "sweep_threshold.csv", "sweep_threshold_summary.json"],
    }
    assert sorted(os.listdir(out)) == sorted(expected)
    for name, files in expected.items():
        assert sorted(os.listdir(out / name)) == sorted(files)
        for entry in files:
            assert (out / name / entry).stat().st_size > 0


def test_calibrate_defaults_runs_at_tiny_sizes(capsys):
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "scripts", "calibrate_defaults.py"
    )
    spec = importlib.util.spec_from_file_location("calibrate_defaults", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    base = SyntheticConfidenceModel()
    actions = ActionSet.default_grid()
    params = RewardParams(n_layers=base.n_layers)
    script.ucb_convergence(actions, params, horizon=200, oracle_samples=2000)
    script.distortion_margins(base, actions, params, tokens=200)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("seed=")] == [
        "seed=7", "seed=8", "seed=9"
    ]
    assert [line.split(":")[0] for line in lines if line.startswith("sigma=")] == [
        "sigma=0.0", "sigma=1.0", "sigma=2.0"
    ]
    assert all("share=" in line for line in lines if line.startswith("seed="))
    assert all("margin=" in line for line in lines if line.startswith("sigma="))
    script.oracle_landscapes(base, actions, params, samples=2000)
    script.committed_speedup(base, tokens=2000)
    lines = capsys.readouterr().out.splitlines()
    landscapes = [line for line in lines if line.startswith("sigma=")]
    assert [line.split(":")[0] for line in landscapes] == [
        "sigma=0.0", "sigma=1.0", "sigma=2.0"
    ]
    assert all(" alpha*=" in line for line in landscapes)
    assert sum(line.startswith("COMMITTED_SPEEDUP_06 = ") for line in lines) == 1


# ---------------------------------------------------------------------------
# BLAS threads

# Prints the OPENBLAS_NUM_THREADS that importing exitsim leaves and the
# thread count the loaded OpenBLAS reports (the probe of bench/run.py),
# or None for the count when no OpenBLAS library sits beside numpy.
_BLAS_PROBE = """
import ctypes, glob, json, os
import exitsim
import numpy

threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            get = getattr(lib, symbol)
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize("given, expected", [(None, 1), ("2", 2)])
def test_import_defaults_openblas_to_one_thread(given, expected):
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    variable, threads = json.loads(result.stdout)
    assert variable == str(expected)  # a user's own setting wins
    if threads is not None:  # OpenBLAS caps its pool at the usable cores
        assert threads == min(expected, len(os.sched_getaffinity(0)))


def test_toy_outputs_do_not_depend_on_blas_threads(tmp_path):
    # 128 examples of 8 tokens make 1,024-row products, large enough for
    # OpenBLAS to split them over two threads.  It splits a product over
    # output tiles, never over the summed dimension, so the bytes match.
    toy = [
        "--stage1-epochs", "2", "--stage2-epochs", "2",
        "--n-train", "128", "--n-heldout", "128",
    ]
    outputs = {}
    for threads in ("1", "2"):
        env = {**_child_env(), "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / threads
        for command in ("ablation", "train-toy"):
            result = subprocess.run(
                [sys.executable, "-m", "exitsim.cli", command, *toy,
                 "--out-dir", str(out)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(outputs["1"]) == [
        "ablation.csv", "ablation_summary.json",
        "toy_cascade.json", "train_toy_summary.json",
    ]
    assert outputs["1"] == outputs["2"]


# ---------------------------------------------------------------------------
# argv fuzz of the exit-code contract
#
# Each subcommand runs on drawn argv: every flag has values that are valid
# (boundaries, huge seeds, a toy learning rate that overflows at run time)
# and values that are not (zero, negative, nan/inf, non-numeric, empty,
# duplicated list entries, unusable paths and config files).  A draw takes
# valid values for a few flags, then bad ones for up to two, in any order;
# argparse keeps the last of a repeated flag.  Sizes stay tiny: every flag
# that counts tokens, images, samples, rows or epochs is always given, at
# most 200 tokens, 3 images, 2,000 oracle samples, 3 rows per split of 4
# tokens and 2 epochs.  Larger valid counts are left out of the draw: they
# only run longer or allocate more (an oracle too large to hold has its own
# test), and the exit-code contract does not depend on them.

BAD_COUNTS = ["0", "-1", "x", "1.5", "nan", ""]
ADAPTIVE_FLAGS = {
    "--tokens": (["11", "60", "200"], ["10", *BAD_COUNTS]),
    "--oracle-samples": (["1", "300", "2000"], BAD_COUNTS),
    "--max-len": (["10", "12", "40"], ["9", *BAD_COUNTS]),
    "--alphas": (["0.1,0.5,1", "0.6", "0,1"], ["0.5,0.5", "1,0.5", "1.5", "", "nan", "x"]),
    "--gamma": (["1", "2", "1e3"], ["0.5", "0", "-1", "nan", "inf", "x", ""]),
    "--mu": (["0.1", "1", "1e-320", "1e303"], ["0", "-1", "nan", "inf", "1e308", "x"]),
}
TOY_FLAGS = {
    "--stage1-epochs": (["0", "1", "2"], ["-1", "x", "1.5", "nan", ""]),
    "--stage2-epochs": (["0", "1", "2"], ["-1", "x", "1.5", "nan", ""]),
    "--n-train": (["1", "3"], BAD_COUNTS),
    "--n-heldout": (["1", "3"], BAD_COUNTS),
    "--tokens-per-example": (["1", "4"], BAD_COUNTS),
    "--learning-rate": (["0.5", "1", "1e308"], ["0", "-1", "nan", "inf", "x"]),
    "--decay": (["0.5", "1"], ["0", "2", "-1", "nan"]),
    "--decay-every": (["1", "3"], BAD_COUNTS),
    "--n-classes": (["2", "4", "8", "32"], ["1", "3", "64", "0", "-2", "x"]),
    "--margin": (["0", "0.3", "1"], ["-1", "3", "nan", "x"]),
    "--label-noise": (["0", "0.1", "1"], ["-0.1", "2", "nan"]),
}
FUZZ_FLAGS = {
    "gen-traces": {
        "--n-images": (["1", "3"], BAD_COUNTS),
        "--max-len": (["1", "5"], BAD_COUNTS),
        "--sigma": (["0", "0.5", "3"], ["-1", "nan", "inf", "x"]),
        "--out": (["t.txt", "gen_traces_summary.json"], ["", ".", "sub/t.txt"]),
    },
    "sweep-threshold": {
        "--alphas": (["0.2,0.6,0.6,1", "0", "1"], ["1.5", "-0.25", "", "nan", "x"]),
        "--traces": (["traces.txt"], ["untargeted.txt", "bad.txt", "missing"]),
        "--model": (["model.json"], ["narrow.json", "bad.txt", "missing"]),
    },
    "bandit": {
        **ADAPTIVE_FLAGS,
        "--sigma": (["0", "0.5", "3"], ["-1", "nan", "inf", "x"]),
        "--lam": (["0", "1", "2.5"], ["-1", "nan", "inf", "1e308", "x"]),
    },
    "compare-distortion": {
        **ADAPTIVE_FLAGS,
        "--sigmas": (["0", "0,1,2", "2,0"], ["0,0", "-1", "", "nan,1"]),
        "--fixed-alpha": (["0", "0.6", "1"], ["1.5", "-0.25", "nan", "x"]),
        "--lam": (["0", "1", "2.5"], ["-1", "nan", "inf", "1e308", "x"]),
    },
    "lambda-sweep": {
        **ADAPTIVE_FLAGS,
        "--lambdas": (["0.5,1,2", "0", "3,1"], ["1,1", "-1", "inf", ""]),
        "--sigma": (["0", "0.5", "3"], ["-1", "nan", "inf", "x"]),
    },
    "ablation": TOY_FLAGS,
    "train-toy": {
        **TOY_FLAGS,
        "--loss-terms": (["ce", "kl", "both"], ["bogus", ""]),
        "--checkpoint": (["toy.json", "train_toy_summary.json"], ["", ".", "sub/t.json"]),
    },
}
COMMON_FLAGS = {
    "--seed": (["0", "7", str(2**70)], ["-1", "x", ""]),
    # nulls-<command>.json sets every key to null, which keeps its default.
    "--config": (
        ["empty.json", "nulls-{}.json"],
        ["list.json", "broken.json", "unknown.json", "latin.json", "missing"],
    ),
}
# Given in every draw, so no default size applies.
FUZZ_SIZES = {
    "gen-traces": ["--n-images", "--max-len"],
    "sweep-threshold": [],
    "bandit": ["--tokens", "--oracle-samples", "--max-len"],
    "compare-distortion": ["--tokens", "--oracle-samples", "--max-len"],
    "lambda-sweep": ["--tokens", "--oracle-samples", "--max-len"],
    "ablation": ["--stage1-epochs", "--stage2-epochs", "--n-train", "--n-heldout",
                 "--tokens-per-example"],
    "train-toy": ["--stage1-epochs", "--stage2-epochs", "--n-train", "--n-heldout",
                  "--tokens-per-example"],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory of the files the fuzz names: trace files, checkpoints
    and config files, good and bad."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    model = SyntheticConfidenceModel()
    drawn = finish_tokens(model, 0.0, draw_tokens(model, 4, model.stream_rng(0), 3))
    conf, ids, offsets = drawn.confidences, drawn.token_ids, np.arange(4) * 4
    batch = TraceBatch(conf, ids, drawn.targets, range(3), offsets)
    write_traces(str(root / "traces.txt"), [batch], model.n_layers, model.vocab_size)
    untargeted = TraceBatch(conf, ids, np.full(12, NO_TARGET), range(3), offsets)
    write_traces(
        str(root / "untargeted.txt"), [untargeted], model.n_layers, model.vocab_size
    )
    for name, dims in (("model.json", ToyConfig()), ("narrow.json", ToyConfig(input_dim=3))):
        cascade = init_cascade(dims, np.random.default_rng(0))
        cascade.frozen = True
        save_cascade(cascade, str(root / name))
    for name, text in (
        ("bad.txt", "not a trace file\n"),
        ("empty.json", "{}"),
        ("list.json", "[]"),
        ("broken.json", "{"),
        ("unknown.json", '{"bogus": 1}'),
    ):
        (root / name).write_text(text)
    (root / "latin.json").write_bytes(b'{"seed": "caf\xe9"}')
    for command, (_, schema) in cli.COMMANDS.items():
        (root / f"nulls-{command}.json").write_text(json.dumps(dict.fromkeys(schema)))
    return root


@st.composite
def fuzz_argv(draw, command):
    """``(flag, value)`` pairs for ``command``: valid sizes (or a trace or
    model source), then valid values for up to four drawn flags, then bad
    values for up to two."""
    flags = {**FUZZ_FLAGS[command], **COMMON_FLAGS}
    given_first = FUZZ_SIZES[command] or [draw(st.sampled_from(["--traces", "--model"]))]
    names = st.sampled_from(sorted(flags))
    pairs = []
    for kind, chosen in (
        (0, given_first),
        (0, draw(st.lists(names, max_size=4))),
        (1, draw(st.lists(names, max_size=2))),
    ):
        pairs += [(flag, draw(st.sampled_from(flags[flag][kind]))) for flag in chosen]
    return pairs


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite number {name}")

    return json.loads(text, parse_constant=refuse)


@OVERFLOW_WARNINGS
@pytest.mark.parametrize("command", sorted(FUZZ_FLAGS))
def test_fuzzed_argv_keeps_the_exit_code_contract(
    command, fuzz_inputs, tmp_path_factory, capsys
):
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(pairs=fuzz_argv(command))
    def check(pairs):
        out = tmp_path_factory.mktemp("fuzz_out") / "out"
        argv = [command]
        for flag, value in pairs:
            if flag in ("--traces", "--model", "--config"):
                value = str(fuzz_inputs / value.format(command))
            argv.append(f"{flag}={value}")
        code = main([*argv, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == (code != 0), (argv, err)
        category = {2: "config", 3: "input", 4: "runtime"}.get(code)
        assert all(e.startswith(f"error: {category}: ") for e in errors), (argv, err)
        written = [name for _, _, names in os.walk(out) for name in names]
        if code:
            assert written == [], (argv, err)
        else:
            name = f"{command.replace('-', '_')}_summary.json"
            _strict_json((out / name).read_text())

    check()
