"""Benchmark of the exitsim command-line experiments.

Run from the repository root, one workload at a time:

    python3 bench/run.py --workload distortion-compare --seed 1 --seconds 56 --trace 0

or every workload in turn with ``--workload all`` (the default).
BENCHMARK.json lists distortion-compare and toy-ablation only: on a
shared 2-core machine the speed drifts over 30-60 s phases, so each run
must be long, and three workloads of long runs do not fit one check.
trace-file-sweep, the trace-file writer and parser, runs by hand.  Each
operation is one fresh child process (``bench/child.py``) that imports
exitsim from ``src`` and drives ``exitsim.cli.main`` in-process.  The
load is a closed loop: one operation at a time, started back to back
until ``--seconds`` have passed (at least three operations), with no
threads beyond numpy's BLAS default.  The seed reaches the program only
as ``--seed``.

Every operation's outputs are checked (see the ``check_*`` functions)
and digested; an operation fails on a non-zero CLI exit code, a failed
check, or a digest that differs from the first operation of the run,
because reruns at one seed are byte-identical by design.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's operations.  ``--trace 1`` alternates untraced operations with
operations traced by ``bench/tracer.py`` and reports the per-layer
metrics: timings as medians over the traced operations, counts only when
every traced operation produced exactly the same count.  The traced wall
time minus the untraced one is reported as ``trace.overhead_s``.  The
spans of the last traced operation are written to
``.bench_work/spans-<workload>-seed<seed>.json``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the
environment, the output digest and every metric with its unit.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

from tracer import LAYER_METRICS, TIME_UNITS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH_DIR, "child.py")
DEADLINE_S = 170  # a workload's run must end within 180 s
MIN_OPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


def _reject_constant(token: str) -> None:
    raise ValueError(f"non-finite number {token} in JSON")


def read_summary(path: str) -> dict:
    """Parse a summary strictly: NaN and Infinity are errors."""
    with open(path, "r", encoding="ascii") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def read_rows(path: str) -> list[dict]:
    """CSV rows after the '#' configuration preamble."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r} in CSV")
    return value


def check_distortion_compare(out: str) -> list[str]:
    summary = read_summary(os.path.join(out, "compare_distortion_summary.json"))
    rows = read_rows(os.path.join(out, "compare_distortion.csv"))
    config = summary["config"]
    problems = []
    policies = (f"fixed-{config['fixed_alpha']:g}", "adaptive")
    cells = [(finite(r["sigma"]), r["policy"]) for r in rows]
    expected = [(s, p) for s in config["sigmas"] for p in policies]
    if cells != expected:
        problems.append(f"CSV cells {cells} != one per sigma and policy {expected}")
    for row in rows:
        if not 1.0 <= finite(row["speedup"]) <= 12.0:
            problems.append(f"speedup {row['speedup']} outside [1, 12]")
        if not 0.0 <= finite(row["token_accuracy"]) <= 1.0:
            problems.append(f"accuracy {row['token_accuracy']} outside [0, 1]")
        finite(row["mean_reward"])
    best = summary["oracle_best_arm"]
    if sorted(best) != sorted(repr(s) for s in config["sigmas"]):
        problems.append(f"oracle best arms {best} do not cover every sigma")
    for sigma, arm in best.items():
        if arm not in config["alphas"]:
            problems.append(f"oracle best arm {arm} at sigma {sigma} is off the grid")
    return problems


def check_trace_file_sweep(out: str) -> list[str]:
    gen = read_summary(os.path.join(out, "gen_traces_summary.json"))
    sweep = read_summary(os.path.join(out, "sweep_threshold_summary.json"))
    rows = read_rows(os.path.join(out, "sweep_threshold.csv"))
    problems = []
    if gen["n_tokens"] != sweep["n_tokens"]:
        problems.append(
            f"gen wrote {gen['n_tokens']} tokens, sweep read {sweep['n_tokens']}"
        )
    alphas = [finite(r["alpha"]) for r in rows]
    if alphas != sweep["config"]["alphas"]:
        problems.append(f"CSV alphas {alphas} != grid {sweep['config']['alphas']}")
    for row in rows:
        if not 0.0 <= finite(row["token_accuracy"]) <= 1.0:
            problems.append(f"accuracy {row['token_accuracy']} outside [0, 1]")
    # On fixed traces a higher threshold can only exit later.
    for lo, hi in zip(rows, rows[1:]):
        if finite(hi["mean_exit_layer"]) < finite(lo["mean_exit_layer"]):
            problems.append(f"mean_exit_layer falls from alpha {lo['alpha']} to {hi['alpha']}")
        if finite(hi["speedup_ratio"]) > finite(lo["speedup_ratio"]):
            problems.append(f"speedup_ratio rises from alpha {lo['alpha']} to {hi['alpha']}")
    return problems


def check_toy_ablation(out: str) -> list[str]:
    summary = read_summary(os.path.join(out, "ablation_summary.json"))
    rows = read_rows(os.path.join(out, "ablation.csv"))
    problems = []
    layers = [int(r["layer"]) for r in rows]
    if len(layers) < 2 or layers != list(range(1, len(layers) + 1)):
        problems.append(f"CSV layers {layers} are not one row per layer 1..N")
    for row in rows:
        for key in ("accuracy_ce_only", "accuracy_kl_only", "accuracy_both"):
            if not 0.0 <= finite(row[key]) <= 1.0:
                problems.append(f"layer {row['layer']} {key} {row[key]} outside [0, 1]")
    if rows and summary["teacher_accuracy"] != finite(rows[-1]["accuracy_ce_only"]):
        problems.append("summary teacher_accuracy differs from the last CSV row")
    return problems


# ---------------------------------------------------------------------------
# Workloads


def _work_distortion_compare(out: str) -> int:
    """Bandit rounds over all cells: each cell stops at --tokens rounds."""
    config = read_summary(os.path.join(out, "compare_distortion_summary.json"))["config"]
    return len(config["sigmas"]) * 2 * config["tokens"]


def _work_trace_file_sweep(out: str) -> int:
    """Thresholds times tokens swept."""
    sweep = read_summary(os.path.join(out, "sweep_threshold_summary.json"))
    return len(sweep["config"]["alphas"]) * sweep["n_tokens"]


def _work_toy_ablation(out: str) -> int:
    """Training rows times epochs: stage one once, stage two per variant."""
    config = read_summary(os.path.join(out, "ablation_summary.json"))["config"]
    rows = config["n_train"] * config["tokens_per_example"]
    return rows * (config["stage1_epochs"] + 3 * config["stage2_epochs"])


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, str], list[list[str]]]  # (seed, size) -> argvs
    check: Callable[[str], list[str]]
    work: Callable[[str], int]


def _distortion_compare(seed: int, size: str) -> list[list[str]]:
    tokens, samples = {"full": (6000, 50_000), "tiny": (200, 2000)}[size]
    return [
        ["compare-distortion", "--seed", str(seed), "--sigmas", "0,2",
         "--tokens", str(tokens), "--oracle-samples", str(samples), "--out-dir", "."]
    ]


def _trace_file_sweep(seed: int, size: str) -> list[list[str]]:
    images = {"full": 1000, "tiny": 20}[size]
    return [
        ["gen-traces", "--seed", str(seed), "--n-images", str(images), "--out-dir", "."],
        ["sweep-threshold", "--seed", str(seed), "--traces", "traces.txt", "--out-dir", "."],
    ]


def _toy_ablation(seed: int, size: str) -> list[list[str]]:
    flags = {
        "full": ["--stage1-epochs", "20", "--stage2-epochs", "15"],
        "tiny": ["--stage1-epochs", "2", "--stage2-epochs", "2",
                 "--n-train", "8", "--n-heldout", "8"],
    }[size]
    return [["ablation", "--seed", str(seed), *flags, "--out-dir", "."]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("distortion-compare", _distortion_compare,
                 check_distortion_compare, _work_distortion_compare),
        Workload("trace-file-sweep", _trace_file_sweep,
                 check_trace_file_sweep, _work_trace_file_sweep),
        Workload("toy-ablation", _toy_ablation,
                 check_toy_ablation, _work_toy_ablation),
    )
}


# ---------------------------------------------------------------------------
# Environment


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop, timed beside each operation
    to tell machine-speed drift apart from program changes."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    return time.perf_counter() - start


def _blas_threads() -> int | str:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), "r", encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Running operations


@dataclass
class Op:
    traced: bool
    ref_s: float
    problems: list[str]
    result: dict | None = None  # the child's report
    setup_s: float = 0.0
    work: int = 0
    output_bytes: int = 0
    digest: str = ""


def digest_dir(path: str) -> tuple[str, int]:
    """SHA-256 over every output file's relative name and bytes."""
    h = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


def run_op(workload: Workload, commands: list[list[str]], out: str,
           traced: bool, spans: str, timeout: float) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    op = Op(traced=traced, ref_s=reference_loop(), problems=[])
    env = dict(os.environ)
    # Every operation compiles exitsim afresh, whatever the caller's
    # setting, so setup_s does not depend on a bytecode cache in src.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    spec = json.dumps({"commands": commands, "trace": traced, "spans": spans})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, spec], cwd=out, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        op.problems.append(f"timed out after {timeout:.0f} s")
        return op
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        op.problems.append(f"child exited {proc.returncode}: {stderr.strip()[-500:]}")
        return op
    op.result = json.loads(lines[-1])
    op.setup_s = op.result["ready"] - spawned
    if any(code != 0 for code in op.result["codes"]):
        op.problems.append(f"CLI exit codes {op.result['codes']}: {stderr.strip()[-500:]}")
        return op
    try:
        op.problems.extend(workload.check(out))
        op.work = workload.work(out)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        op.problems.append(f"unreadable output: {exc!r}")
    op.digest, op.output_bytes = digest_dir(out)
    return op


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 size: str) -> tuple[dict, list[Op], str]:
    """Run operations until ``seconds`` pass; returns metrics, ops, digest."""
    run_dir = os.path.join(WORK_DIR, f"{workload.name}-{os.getpid()}")
    out = os.path.join(run_dir, "out")
    spans = os.path.join(WORK_DIR, f"spans-{workload.name}-seed{seed}.json")
    commands = workload.commands(seed, size)
    ops: list[Op] = []
    begin = time.monotonic()
    try:
        while True:
            untraced = [op for op in ops if not op.traced]
            traced = [op for op in ops if op.traced]
            enough = len(traced) >= 2 if trace else len(untraced) >= MIN_OPS
            if enough and time.monotonic() - begin >= seconds:
                break
            want_traced = trace and len(traced) < len(untraced)
            timeout = max(1.0, DEADLINE_S - (time.monotonic() - begin))
            ops.append(run_op(workload, commands, out, want_traced, spans, timeout))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    first = next((op.digest for op in ops if op.digest), "")
    for op in ops:
        if op.digest and op.digest != first:
            op.problems.append(f"output digest {op.digest} != first run's {first}")
    if trace:
        metrics = layer_metrics(ops)
    else:
        metrics = end_to_end_metrics([op for op in ops if op.result is not None])
    return metrics, ops, first


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(ops: list[Op]) -> dict[str, float]:
    return {
        "setup_s": _median([op.setup_s for op in ops]),
        "wall_s": _median([op.result["wall_s"] for op in ops]),
        "work_per_s": _median([op.work / op.result["wall_s"] for op in ops]),
        "cpu_s": _median([op.result["cpu_s"] for op in ops]),
        "peak_rss_mb": _median([op.result["peak_rss_mb"] for op in ops]),
    }


def layer_metrics(ops: list[Op]) -> dict[str, float]:
    traced = [op for op in ops if op.traced and op.result is not None]
    untraced = [op for op in ops if not op.traced and op.result is not None]
    for op in traced:
        op.result["layers"]["cli.output_bytes"] = op.output_bytes
    trace_wall = _median([op.result["wall_s"] for op in traced])
    metrics: dict[str, float] = {
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - _median([op.result["wall_s"] for op in untraced]),
        "machine.ref_s": _median([op.ref_s for op in ops]),
    }
    for name, unit in LAYER_METRICS:
        values = [op.result["layers"][name] for op in traced if name in op.result["layers"]]
        if not values:
            continue
        if unit in TIME_UNITS:
            metrics[name] = _median(values)
            continue
        metrics[name] = values[0]
        for op, value in zip(traced[1:], values[1:]):
            if value != values[0]:
                op.problems.append(f"count {name} = {value}, first traced run had {values[0]}")
    return {name: metrics.get(name, 0) for name, _ in LAYER_METRICS}


# ---------------------------------------------------------------------------
# Entry point


def report(workload: Workload, metrics: dict[str, float], ops: list[Op],
           digest: str, trace: bool) -> dict:
    units = dict(LAYER_METRICS if trace else END_TO_END)
    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        for problem in op.problems:
            print(f"{workload.name}: FAILED: {problem}", file=sys.stderr)
    print(f"{workload.name} digest {digest}")
    print(f"{workload.name} error_rate {failed / len(ops)!r} ratio ({failed} of {len(ops)} operations failed)")
    if not trace:
        print(f"{workload.name} machine.ref_s {_median([op.ref_s for op in ops])!r} s")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value!r} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs in well under a second; for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "exitsim", "cli.py")):
        print(f"error: no exitsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        metrics, ops, digest = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.size
        )
        results[name] = report(workload, metrics, ops, digest, bool(args.trace))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
