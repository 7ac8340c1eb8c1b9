"""Early-exit inference simulator: threshold-gated decoding over
confidence traces, online UCB threshold adaptation with regret
accounting, and a toy distillation-trained exit cascade."""

import os

# Products top out at 8192x32x32 (the default held-out set), too small to
# share: a second OpenBLAS thread mostly spins.  Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cascade import (
    CaptionRun,
    ExitDecision,
    ExitHistogram,
    LayerOutcome,
    TokenTrace,
    TraceValidationError,
    decide_exit,
    run_caption,
    speedup_ratio,
)
from .bandit import (
    ActionSet,
    AdaptiveCell,
    BanditError,
    BanditLog,
    BanditState,
    OracleEstimate,
    RewardParams,
    expected_reward_oracle,
    initialize,
    regret_bound,
    regret_curve,
    reward,
    run_lockstep,
    shared_oracles,
    ucb_select,
    update,
)
from .synth import (
    IMAGE_CHUNK,
    ImageTraces,
    SyntheticConfidenceModel,
    TokenDraws,
    TraceBatch,
    TraceFileHeader,
    TraceFormatError,
    distort,
    draw_tokens,
    finish_tokens,
    image_stream,
    read_header,
    read_traces,
    sample_batch,
    sample_image,
    write_traces,
)
from .distill import (
    CheckpointError,
    LossBreakdown,
    StepSchedule,
    SyntheticExample,
    ToyCascade,
    ToyConfig,
    ToyTask,
    TrainingError,
    backbone_objective,
    exit_loss,
    exit_objective,
    finetune_loss,
    forward,
    gradient_check,
    head_confidences,
    init_cascade,
    kl_divergence,
    layer_accuracies,
    load_cascade,
    make_task,
    save_cascade,
    train_backbone,
    train_exits,
)

__version__ = "0.1.0"
