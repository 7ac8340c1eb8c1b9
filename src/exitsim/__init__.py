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
from .distill import (
    CheckpointError,
    StepSchedule,
    SyntheticExample,
    ToyCascade,
    ToyConfig,
    ToyTask,
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

__version__ = "0.1.0"
