"""Early-exit inference simulator: threshold-gated decoding over
confidence traces, online UCB threshold adaptation with regret
accounting, and a toy distillation-trained exit cascade."""

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
    AdaptiveRun,
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
    run_adaptive_captioning,
    ucb_select,
    update,
)
from .synth import (
    ImageTraces,
    SyntheticConfidenceModel,
    TraceBatch,
    TraceFileHeader,
    TraceFormatError,
    distort,
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
