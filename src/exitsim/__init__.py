"""Early-exit inference simulator: threshold-gated decoding over
confidence traces, online UCB threshold adaptation with regret
accounting, and a toy distillation-trained exit cascade."""

import os

# Products top out at 8192x32x32 (the default held-out set), too small to
# share: a second OpenBLAS thread mostly spins.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cascade import TraceFormatError, speedup_ratio
from .bandit import (
    ActionSet,
    AdaptiveCell,
    OracleEstimate,
    RewardParams,
    run_lockstep,
    shared_oracles,
)
from .synth import (
    IMAGE_CHUNK,
    SyntheticConfidenceModel,
    TokenDraws,
    TraceBatch,
    TraceFileHeader,
    draw_tokens,
    finish_tokens,
    read_traces,
    write_traces,
)
from .staging import CheckpointError, TrainingError

# The toy cascade loads on first use (PEP 562), so the simulator
# commands never compile it.
_DISTILL_EXPORTS = frozenset({
    "StepSchedule", "SyntheticExample", "ToyCascade", "ToyConfig", "ToyTask",
    "finetune_loss", "head_confidences", "init_cascade", "layer_accuracies",
    "load_cascade", "make_task", "save_cascade", "train_backbone", "train_exits",
})


def __getattr__(name: str) -> object:
    if name not in _DISTILL_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import distill

    return getattr(distill, name)


__version__ = "0.1.0"
