"""Scalar references the array paths of ``exitsim`` are checked against.

Each name here is the per-token (or stacked, whole-sample or
finite-difference) form of something the package computes on whole
arrays or in pieces: the exit rule and caption loop over ``TokenTrace``
records, the bandit's reward, first pulls and UCB round, a list sink
that keeps every round and the whole-run regret curve over it, the
oracle scored over its whole sample at once, per-image sampling, the
stacked toy-cascade forward pass and the flat-vector gradient harness.
No production path calls them; the tests use them as the independent
answer.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from exitsim.bandit import (
    ActionSet,
    OracleEstimate,
    RewardParams,
    _check_layers,
    _rewards,
)
from exitsim.cascade import (
    DEFAULT_MAX_CAPTION_LENGTH,
    TokenTrace,
    TraceValidationError,
    exit_counts,
    running_max,
)
from exitsim.distill import (
    SyntheticExample,
    ToyCascade,
    _backbone_backward,
    _backbone_buffers,
    _exits_backward,
    _floored_log,
    _frozen_inputs,
    _head_probs,
    _kl_rows,
    finetune_loss,
)
from exitsim.synth import (
    NO_TARGET,
    SyntheticConfidenceModel,
    TraceBatch,
    TraceFileHeader,
    _ascii_lines,
    _parse_header,
    draw_tokens,
    finish_tokens,
)

DEFAULT_EOS_ID = 0


# ---------------------------------------------------------------------------
# The exit rule and the caption loop, one TokenTrace at a time


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of applying the exit rule to one trace.

    ``confidence`` belongs to the exiting layer; the first layer's
    confidence is kept alongside because reward computations need the
    confidence gain over layer 1.
    """

    exit_layer: int
    token_id: int
    confidence: float
    first_layer_confidence: float


@dataclass(frozen=True)
class CaptionRun:
    """All exit decisions for one image's emitted token sequence.

    ``truncated`` marks runs that stopped because the trace source ran
    dry (or an external budget cut in) before the end-of-sequence token
    and before the length cap.
    """

    image_id: int | str
    tokens: tuple[ExitDecision, ...]
    terminated_by_eos: bool
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.tokens)


def decide_exit(trace: TokenTrace, alpha: float) -> ExitDecision:
    """Return the first layer i < N whose confidence is >= ``alpha``.

    The comparison is >= so alpha = 0.0 always exits at layer 1, and
    alpha = 1.0 exits early only on an exact 1.0 confidence.  When no
    intermediate layer clears the threshold the final layer is used.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"exit threshold {alpha!r} outside [0, 1]")
    layers = trace.layers
    first_conf = layers[0].confidence
    for i in range(len(layers) - 1):
        conf, token = layers[i]
        if conf >= alpha:
            return ExitDecision(i + 1, token, conf, first_conf)
    conf, token = layers[-1]
    return ExitDecision(len(layers), token, conf, first_conf)


def run_caption(
    trace_source: Iterable,
    alpha: float | Callable[..., ExitDecision],
    max_caption_length: int = DEFAULT_MAX_CAPTION_LENGTH,
    eos_id: int = DEFAULT_EOS_ID,
    image_id: int | str = 0,
) -> CaptionRun:
    """Emit tokens from ``trace_source`` until eos or the length cap.

    ``alpha`` is either a fixed exit threshold applied to each
    ``TokenTrace`` of the source, or a policy called with each item of
    the source that decides its exit itself, such as an online
    threshold adapter.  Each emitted token comes from the exiting layer
    of its trace, which is what makes the threshold observable in the
    output sequence.
    """
    if max_caption_length < 1:
        raise ValueError(f"max_caption_length must be >= 1, got {max_caption_length}")
    decide = alpha if callable(alpha) else partial(decide_exit, alpha=alpha)
    source = iter(trace_source)
    decisions: list[ExitDecision] = []
    terminated = False
    truncated = False
    while len(decisions) < max_caption_length:
        trace = next(source, None)
        if trace is None:
            truncated = True
            break
        decision = decide(trace)
        decisions.append(decision)
        if decision.token_id == eos_id:
            terminated = True
            break
    return CaptionRun(
        image_id=image_id,
        tokens=tuple(decisions),
        terminated_by_eos=terminated,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# The bandit: reward, select, update, the pulls before the first round,
# the rounds of a run and their regret, and the oracle over a whole sample


@dataclass
class ListSink:
    """A row sink that keeps every round handed to it, one list per
    field: t, arm, exit layer and reward."""

    rounds: list[int] = field(default_factory=list)
    arms: list[float] = field(default_factory=list)
    exit_layers: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)

    def __call__(self, rows: Iterable[tuple[int, float, int, float]]) -> None:
        for row in rows:
            self.append(*row)

    def append(self, t: int, arm: float, exit_layer: int, reward_value: float) -> None:
        if self.rounds and t <= self.rounds[-1]:
            raise ValueError(
                f"round counter must increase: got {t} after {self.rounds[-1]}"
            )
        self.rounds.append(t)
        self.arms.append(arm)
        self.exit_layers.append(exit_layer)
        self.rewards.append(reward_value)

    def __len__(self) -> int:
        return len(self.rounds)

    def arm_counts(self, last: int | None = None) -> dict[float, int]:
        window = self.arms if last is None else self.arms[-last:]
        counts: dict[float, int] = {}
        for arm in window:
            counts[arm] = counts.get(arm, 0) + 1
        return counts


def regret_curve(log: ListSink, oracle: OracleEstimate) -> np.ndarray:
    """Cumulative pseudo-regret: running sum of the chosen arms' gaps."""
    gap_of = dict(zip(oracle.thresholds, oracle.gaps))
    gaps = np.empty(len(log))
    for i, arm in enumerate(log.arms):
        try:
            gaps[i] = gap_of[arm]
        except KeyError:
            raise ValueError(
                f"round {log.rounds[i]}: arm {arm!r} is not covered by the "
                f"oracle"
            ) from None
    return np.cumsum(gaps)


def reward(decision: ExitDecision, params: RewardParams) -> float:
    """Confidence gain over layer 1 minus the scaled latency of the exit."""
    i = decision.exit_layer
    if not 1 <= i <= params.n_layers:
        raise ValueError(f"exit layer {i} outside [1, {params.n_layers}]")
    gain = decision.confidence - decision.first_layer_confidence
    return gain - params.mu * params.latency[i - 1]


@dataclass
class UcbState:
    """The reference's UCB1 state: per-arm running means and pull counts,
    the round counter and the exploration width.  A plain record: the
    package keeps the same four in each ``AdaptiveCell``."""

    actions: ActionSet
    q: list[float]
    pulls: list[int]
    t: int
    gamma: float

    @classmethod
    def fresh(cls, actions: ActionSet, gamma: float = 1.0) -> "UcbState":
        k = len(actions)
        return cls(actions, [0.0] * k, [0] * k, 0, gamma)


class UnplayedArmError(RuntimeError):
    """A reference UCB round before every arm is played, or a first image
    too short to play them all."""


def ucb_select(state: UcbState) -> float:
    """Arm with the largest Q + gamma * sqrt(ln t / pulls); ties go to the
    smallest threshold."""
    if not all(n >= 1 for n in state.pulls):
        raise UnplayedArmError(
            "bandit state has unplayed arms: call initialize() before "
            "ucb_select()"
        )
    log_t = math.log(state.t)
    values = [
        q + state.gamma * math.sqrt(log_t / n)
        for q, n in zip(state.q, state.pulls)
    ]
    return state.actions.thresholds[values.index(max(values))]


def update(state: UcbState, alpha: float, observed_reward: float) -> None:
    """Fold one observed reward into the chosen arm's running mean."""
    k = state.actions.thresholds.index(alpha)
    state.pulls[k] += 1
    state.q[k] += (observed_reward - state.q[k]) / state.pulls[k]
    state.t += 1


def initialize(
    actions: ActionSet,
    image: TraceBatch,
    params: RewardParams,
    gamma: float = 1.0,
    log: ListSink | None = None,
) -> UcbState:
    """Play every arm exactly once, arm k on token k of ``image``: the
    pulls before the first ``ucb_select``.  An image with fewer tokens
    than arms raises UnplayedArmError."""
    traces = token_traces(image)
    if len(traces) < len(actions):
        raise UnplayedArmError(
            f"image {image.image_ids[0]!r} has {len(traces)} tokens: initialization "
            f"needs one per arm ({len(actions)})"
        )
    state = UcbState.fresh(actions, gamma)
    for alpha, trace in zip(actions.thresholds, traces):
        decision = decide_exit(trace, alpha)
        r = reward(decision, params)
        update(state, alpha, r)
        if log is not None:
            log.append(state.t, alpha, decision.exit_layer, r)
    return state


def oracle_estimates(
    block: np.ndarray, actions: ActionSet, params: Sequence[RewardParams]
) -> list[OracleEstimate]:
    """Every arm's mean reward under each of ``params`` over a whole
    layer-major (layers, samples) confidence block, scored in one piece:
    one running max, then per arm one gather and one ``.mean()`` of the
    full reward vector.  The block is not modified."""
    for p in params:
        _check_layers(block.T, p)
    block = np.array(block, order="C")
    samples = block.shape[1]
    top = running_max(block[:-1])
    flat, first = block.ravel(), block[0]
    offsets = np.arange(samples)
    expected = [[] for _ in params]
    for alpha in actions.thresholds:
        exits = exit_counts(top, np.float64(alpha))
        gain = flat.take(np.multiply(exits, samples, dtype=np.intp) + offsets)
        gain -= first
        for p, means in zip(params, expected):
            means.append(float(_rewards(gain, exits, p).mean()))
    return [
        OracleEstimate(actions.thresholds, tuple(means), samples)
        for means in expected
    ]


# ---------------------------------------------------------------------------
# Images as one-image batches and TokenTrace records, one image per draw


def image_from_traces(
    image_id: int | str,
    traces: Iterable[TokenTrace],
    targets: Sequence[int] | None = None,
) -> TraceBatch:
    """Stack per-token traces into a one-image batch; all need one layer
    count.  Without ``targets`` every token's target is ``NO_TARGET``."""
    traces = tuple(traces)
    widths = sorted({trace.n_layers for trace in traces})
    if len(widths) > 1:
        raise TraceValidationError(
            f"image {image_id!r}: traces mix layer counts {widths}"
        )
    shape = (len(traces), widths[0] if widths else 0)
    return TraceBatch(
        np.array([t.confidences for t in traces], dtype=np.float64).reshape(shape),
        np.array([t.token_ids for t in traces], dtype=np.int64).reshape(shape),
        np.array([NO_TARGET] * len(traces) if targets is None else targets, np.int64),
        (image_id,),
        np.array([0, len(traces)]),
    )


def token_traces(image: TraceBatch) -> tuple[TokenTrace, ...]:
    """The tokens of ``image`` as ``TokenTrace`` records."""
    return tuple(
        TokenTrace.from_arrays(conf, ids)
        for conf, ids in zip(image.confidences.tolist(), image.token_ids.tolist())
    )


def split_images(blocks: Iterable[TraceBatch]) -> list[TraceBatch]:
    """Every image of ``blocks`` as a one-image batch of row views."""
    images = []
    for batch in blocks:
        bounds = batch.offsets.tolist()
        for image_id, lo, hi in zip(batch.image_ids, bounds, bounds[1:]):
            rows = slice(lo, hi)
            images.append(
                TraceBatch(
                    batch.confidences[rows],
                    batch.token_ids[rows],
                    batch.targets[rows],
                    (image_id,),
                    np.array([0, hi - lo]),
                )
            )
    return images


def image_records(blocks: Iterable[TraceBatch]) -> list[tuple]:
    """Every image of ``blocks`` as ``(id as text, confidences, token ids,
    targets or None)`` in nested lists: equal iff the images are, however
    they are split into blocks."""
    records = []
    for image in split_images(blocks):
        targets = image.targets.tolist()
        records.append((
            str(image.image_ids[0]),
            image.confidences.tolist(),
            image.token_ids.tolist(),
            None if NO_TARGET in targets else targets,
        ))
    return records


def sample_image(
    base: SyntheticConfidenceModel,
    sigma: float,
    rng: np.random.Generator,
    max_len: int = DEFAULT_MAX_CAPTION_LENGTH,
    image_id: int | str = 0,
) -> TraceBatch:
    """Draw one image: ``max_len`` token positions with targets, the
    image the stream holds at that point of ``rng``, at level ``sigma``."""
    batch = finish_tokens(base, sigma, draw_tokens(base, max_len, rng))
    return dataclasses.replace(
        batch, image_ids=(image_id,), offsets=np.array([0, max_len])
    )


def image_stream(
    base: SyntheticConfidenceModel,
    sigma: float,
    rng: np.random.Generator,
    max_len: int = DEFAULT_MAX_CAPTION_LENGTH,
) -> Iterator[TraceBatch]:
    """Endless stream of one-image batches with ids 0, 1, 2, ... at level
    ``sigma``, drawn one image at a time: the images the product draws a
    chunk at a time."""
    for image_id in count():
        yield sample_image(base, sigma, rng, max_len, image_id)


def read_header(path: str) -> TraceFileHeader:
    """The parsed first line of a trace file."""
    _, line = next(_ascii_lines(path), (1, ""))
    return _parse_header(line)


# ---------------------------------------------------------------------------
# Toy cascade: stacked forward pass and scalar losses


@dataclass(frozen=True)
class LossBreakdown:
    """Cross-entropy and distillation parts of one exit loss."""

    ce: float
    kl: float

    @property
    def total(self) -> float:
        return self.ce + self.kl


def backbone_bytes(model: ToyCascade) -> bytes:
    """Concatenated raw bytes of backbone + teacher parameters."""
    parts = []
    for w, b in zip(model.layer_weights, model.layer_biases):
        parts.append(w.tobytes())
        parts.append(b.tobytes())
    parts.append(model.teacher_weight.tobytes())
    parts.append(model.teacher_bias.tobytes())
    return b"".join(parts)


def forward(model: ToyCascade, example: SyntheticExample) -> np.ndarray:
    """Probability vector from every head at every row of the block: the
    stacked form of the per-head pass.

    Returns an array of shape (rows, n_layers, vocab_size); the last
    layer slot is the teacher head.
    """
    cfg = model.config
    out = np.empty((len(example.targets), cfg.n_layers, cfg.vocab_size))
    for i, probs in enumerate(_head_probs(model, example)):
        out[:, i, :] = probs
    return out


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats, student distribution first.

    Zero-mass components of p contribute nothing; q is floored at
    DEFAULT_PROB_FLOOR so the value stays finite.  The floor inflates
    q's mass by at most vocab * 1e-12, which can pull the exact value
    a hair below zero; that rounding is clamped away.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"need matching vectors, got {p.shape} and {q.shape}")
    return max(float(_kl_rows(p, _floored_log(q))[0]), 0.0)


def exit_loss(
    student_probs: np.ndarray,
    teacher_probs: np.ndarray,
    targets: np.ndarray,
) -> LossBreakdown:
    """Hard-label CE plus mean KL toward the teacher, per token."""
    if student_probs.shape != teacher_probs.shape:
        raise ValueError(
            f"student shape {student_probs.shape} does not match teacher "
            f"shape {teacher_probs.shape}"
        )
    ce = finetune_loss(student_probs, targets)
    kl_rows, _ = _kl_rows(
        np.asarray(student_probs, float),
        _floored_log(np.asarray(teacher_probs, float)),
    )
    return LossBreakdown(ce=ce, kl=float(np.maximum(kl_rows, 0.0).mean()))


# ---------------------------------------------------------------------------
# Flat-vector objectives for finite-difference checking


def _flatten(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(vector: np.ndarray, templates: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    offset = 0
    for t in templates:
        out.append(vector[offset : offset + t.size].reshape(t.shape))
        offset += t.size
    if offset != vector.size:
        raise ValueError(f"vector has {vector.size} entries, expected {offset}")
    return out


def backbone_objective(
    model: ToyCascade, example: SyntheticExample
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[float, np.ndarray]]]:
    """Stage-one loss as a function of the flat backbone parameters.

    Returns the current flat parameter vector and a function mapping
    any such vector to (loss, flat analytic gradient).  The model
    itself is never mutated.
    """
    templates = (
        list(model.layer_weights)
        + list(model.layer_biases)
        + [model.teacher_weight, model.teacher_bias]
    )
    x0 = _flatten(templates)
    n = len(model.layer_weights)
    buffers = _backbone_buffers(model.config, len(example.targets))

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        parts = _unflatten(x, templates)
        probe = dataclasses.replace(
            model,
            layer_weights=parts[:n],
            layer_biases=parts[n : 2 * n],
            teacher_weight=parts[2 * n],
            teacher_bias=parts[2 * n + 1],
        )
        loss, g_w, g_b, g_tw, g_tb = _backbone_backward(probe, example, buffers)
        return loss, _flatten(g_w + g_b + [g_tw, g_tb])

    return x0, objective


def exit_objective(
    model: ToyCascade,
    example: SyntheticExample,
    loss_terms: str = "both",
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[float, np.ndarray]]]:
    """Stage-two summed exit loss as a function of the flat head params."""
    states, log_q = _frozen_inputs(model, example, loss_terms)
    buffers = np.empty((2,) + log_q.shape)
    templates = list(model.exit_weights) + list(model.exit_biases)
    x0 = _flatten(templates)
    n = len(model.exit_weights)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        parts = _unflatten(x, templates)
        probe = dataclasses.replace(
            model, exit_weights=parts[:n], exit_biases=parts[n:]
        )
        loss, g_w, g_b = _exits_backward(
            probe, states, log_q, example.targets, loss_terms, buffers
        )
        return loss, _flatten(g_w + g_b)

    return x0, objective


def gradient_check(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    n_probes: int = 100,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error of the analytic gradient on random coordinates.

    Central differences with the given step; relative error uses
    max(|analytic|, |numeric|, 1e-6) as the denominator so near-zero
    coordinates do not blow up the ratio.
    """
    rng = np.random.default_rng(seed)
    _, grad = objective(x0)
    worst = 0.0
    for _ in range(n_probes):
        j = int(rng.integers(0, x0.size))
        bumped = x0.copy()
        bumped[j] = x0[j] + step
        up, _ = objective(bumped)
        bumped[j] = x0[j] - step
        down, _ = objective(bumped)
        numeric = (up - down) / (2.0 * step)
        denom = max(abs(grad[j]), abs(numeric), 1e-6)
        worst = max(worst, abs(grad[j] - numeric) / denom)
    return worst
