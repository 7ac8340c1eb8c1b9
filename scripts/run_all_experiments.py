#!/usr/bin/env python3
"""Run every experiment end to end and collect the outputs under results/.

Drives the installed CLI in-process, one subdirectory per experiment:

    results/
      traces/      synthetic corpus + threshold sweep over it
      bandit/      online threshold adaptation log and summary
      compare/     adaptive vs fixed threshold across distortion levels
      ablation/    exit-training loss variants on the toy task
      lambda/      latency-cost sweep
      toy/         two-stage trained toy checkpoint + sweep over its exits

`--quick` shrinks horizons ~100x for a fast smoke pass; without it every
command runs at its CLI defaults, which reproduce the committed
experiment numbers in under a minute (47 s on a 2-core Xeon).
"""

import argparse
import os
import sys
import time

from exitsim.cli import main as cli


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output root")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quick", action="store_true", help="small horizons, smoke test only"
    )
    args = parser.parse_args()

    # Full mode runs every command at its CLI defaults.
    bandit = compare = toy = []
    if args.quick:
        bandit = ["--tokens", "1000", "--oracle-samples", "2000"]
        compare = ["--tokens", "2000", "--oracle-samples", "2000"]
        toy = ["--stage1-epochs", "100", "--stage2-epochs", "80", "--decay-every", "40"]
    traces = os.path.join(args.out, "traces", "traces.txt")
    checkpoint = os.path.join(args.out, "toy", "toy_cascade.json")

    # (label, subcommand, subdirectory, flags), run in this order.
    runs = [
        ("gen-traces", "gen-traces", "traces", []),
        ("sweep-threshold", "sweep-threshold", "traces", ["--traces", traces]),
        ("bandit", "bandit", "bandit", bandit),
        ("compare-distortion", "compare-distortion", "compare", compare),
        ("ablation", "ablation", "ablation", toy),
        ("lambda-sweep", "lambda-sweep", "lambda", bandit),
        ("train-toy", "train-toy", "toy", toy),
        ("sweep-toy-exits", "sweep-threshold", "toy", ["--model", checkpoint]),
    ]
    for label, command, subdirectory, flags in runs:
        started = time.monotonic()
        out_dir = os.path.join(args.out, subdirectory)
        code = cli([command, *flags, "--seed", str(args.seed), "--out-dir", out_dir])
        if code != 0:
            print(f"{label}: FAILED with exit code {code}", file=sys.stderr)
            sys.exit(code)
        print(f"{label}: done in {time.monotonic() - started:.0f}s")
    print(f"all outputs under {args.out}/")


if __name__ == "__main__":
    main()
