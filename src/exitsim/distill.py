"""Toy cascade with per-layer exits and two-stage training.

The model is a stack of tanh layers with a classifier head on every
layer: intermediate heads are the exits, the final head is the teacher.
Training runs in two stages.  Stage one fits the backbone and teacher
with cross-entropy on the final head only.  Stage two freezes the
backbone and fits the exit heads against a summed per-exit loss of
cross-entropy on the hard targets plus a KL term pulling each exit's
distribution toward the teacher's.

Everything is plain full-batch gradient descent with hand-written
gradients, small enough that the tests check every gradient path
against central finite differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import cycle
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .staging import CheckpointError, TrainingError, check_format, read_json, write_json
from .synth import MAX_FLOATS

DEFAULT_PROB_FLOOR = 1e-12
CHECKPOINT_FORMAT = "exitsim-toy-cascade"
CHECKPOINT_VERSION = 1

LOSS_TERM_CHOICES = ("ce", "kl", "both")

# make_task refuses a margin that keeps fewer drawn rows than this share:
# its rejection loop would run ~1/share times longer than at no margin.
MIN_ROW_ACCEPTANCE = 1e-3


@dataclass(frozen=True)
class ToyConfig:
    """Dimensions of the toy cascade."""

    input_dim: int = 16
    hidden_dim: int = 32
    n_layers: int = 6
    vocab_size: int = 32

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{field.name} must be an int, got {value!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.n_layers < 2:
            raise ValueError(f"n_layers must be >= 2, got {self.n_layers}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")


@dataclass(frozen=True)
class SyntheticExample:
    """A block of token rows: one feature row per token plus its target."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(
                f"features must be (tokens, input_dim), got shape "
                f"{self.features.shape}"
            )
        if self.targets.ndim != 1 or len(self.targets) != len(self.features):
            raise ValueError(
                f"targets shape {self.targets.shape} does not match "
                f"{len(self.features)} feature rows"
            )
        if len(self.targets) == 0:
            raise ValueError("need at least one row")
        if self.targets.min() < 0:
            raise ValueError("targets must be non-negative token ids")


@dataclass
class ToyCascade:
    """Tanh stack with an exit head per intermediate layer.

    ``layer_weights[0]`` maps input_dim -> hidden_dim; the rest are
    hidden -> hidden.  Exit heads cover layers 1..n_layers-1; the
    final layer's head is the teacher.  ``frozen`` marks the end of
    stage one: after that, backbone and teacher bytes must not change.
    """

    config: ToyConfig
    layer_weights: list[np.ndarray]
    layer_biases: list[np.ndarray]
    exit_weights: list[np.ndarray]
    exit_biases: list[np.ndarray]
    teacher_weight: np.ndarray
    teacher_bias: np.ndarray
    frozen: bool = False


def init_cascade(config: ToyConfig, rng: np.random.Generator) -> ToyCascade:
    """Fan-in-scaled gaussian backbone, zero exit heads, zero biases.

    Exit heads start at zero so every exit opens at the uniform
    distribution.  A gaussian start can strand distillation-only
    training in a zero-forcing basin (components the student already
    ignores get no KL gradient); the uniform start does not.
    """
    layer_weights = []
    layer_biases = []
    fan_in = config.input_dim
    for _ in range(config.n_layers):
        scale = 1.0 / np.sqrt(fan_in)
        layer_weights.append(rng.normal(0.0, scale, (fan_in, config.hidden_dim)))
        layer_biases.append(np.zeros(config.hidden_dim))
        fan_in = config.hidden_dim
    head_shape = (config.hidden_dim, config.vocab_size)
    exit_weights = [np.zeros(head_shape) for _ in range(config.n_layers - 1)]
    exit_biases = [np.zeros(config.vocab_size) for _ in range(config.n_layers - 1)]
    teacher_weight = rng.normal(0.0, 1.0 / np.sqrt(config.hidden_dim), head_shape)
    teacher_bias = np.zeros(config.vocab_size)
    return ToyCascade(
        config=config,
        layer_weights=layer_weights,
        layer_biases=layer_biases,
        exit_weights=exit_weights,
        exit_biases=exit_biases,
        teacher_weight=teacher_weight,
        teacher_bias=teacher_bias,
    )


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` by pairwise halving.

    max rounds nothing, so any pairing gives the same bits.  The first
    halving writes the last axis to the front of a fresh array; every
    later one then compares two contiguous blocks in one long loop,
    where a reduction over narrow rows runs one short loop per row.
    """
    m = np.moveaxis(x, -1, 0)
    while len(m) > 1:
        half = len(m) // 2
        top = np.empty_like(m[:half], order="C")
        np.maximum(m[:half], m[half : 2 * half], out=top)
        if len(m) % 2:
            np.maximum(top[0], m[-1], out=top[0])
        m = top
    return m[0][..., None]


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-stable softmax over the last axis, written into ``out`` when
    given (``out`` may be ``logits`` itself)."""
    shifted = np.subtract(logits, _row_max(logits), out=out)
    exp = np.exp(shifted, out=out)
    exp /= exp.sum(axis=-1, keepdims=True)
    return exp


def _hidden_states(
    model: ToyCascade,
    features: np.ndarray,
    states: Iterable[np.ndarray] | None = None,
) -> Iterator[np.ndarray]:
    """Each layer's activations for a (rows, input_dim) feature block, in
    turn, written into the next (rows, hidden_dim) buffer of ``states``
    (a fresh one per layer when not given).  Training passes one buffer
    per layer, because backprop reads every layer; the per-head pass
    cycles two."""
    if features.ndim != 2 or features.shape[1] != model.config.input_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with input_dim "
            f"{model.config.input_dim}"
        )
    if states is None:
        shape = (len(features), model.config.hidden_dim)
        states = (np.empty(shape) for _ in model.layer_weights)
    h = features
    for w, b, out in zip(model.layer_weights, model.layer_biases, states):
        np.matmul(h, w, out=out)
        out += b
        h = np.tanh(out, out=out)
        yield h


def _head_probs(model: ToyCascade, example: SyntheticExample) -> Iterator[np.ndarray]:
    """Each head's (rows, vocab_size) probabilities in turn, exits first,
    teacher last.

    The hidden states alternate between two buffers, and one buffer holds
    each head's logits and then its softmax, so every head is yielded in
    the same array: read it before asking for the next.  A head whose
    probabilities are not all finite (its logits overflowed) raises
    TrainingError instead of being scored.
    """
    cfg = model.config
    rows = len(example.targets)
    pair = [np.empty((rows, cfg.hidden_dim)) for _ in range(2)]
    probs = np.empty((rows, cfg.vocab_size))
    heads = zip(
        [*model.exit_weights, model.teacher_weight],
        [*model.exit_biases, model.teacher_bias],
    )
    states = _hidden_states(model, example.features, cycle(pair))
    for layer, (h, (w, b)) in enumerate(zip(states, heads), start=1):
        np.matmul(h, w, out=probs)
        probs += b
        _softmax(probs, out=probs)
        if not np.isfinite(probs).all():
            raise TrainingError(f"head {layer} probabilities are not finite")
        yield probs


def head_confidences(
    model: ToyCascade, example: SyntheticExample
) -> tuple[np.ndarray, np.ndarray]:
    """Every head's top probability and its token id at every row: two
    (rows, n_layers) arrays, the teacher in the last column."""
    shape = (len(example.targets), model.config.n_layers)
    confidences = np.empty(shape)
    token_ids = np.empty(shape, dtype=np.intp)
    for i, probs in enumerate(_head_probs(model, example)):
        confidences[:, i] = probs.max(axis=1)
        token_ids[:, i] = probs.argmax(axis=1)
    return confidences, token_ids


def finetune_loss(final_probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of the final head against the hard targets."""
    if final_probs.ndim != 2 or len(final_probs) != len(targets):
        raise ValueError(
            f"probs shape {final_probs.shape} does not match "
            f"{len(targets)} targets"
        )
    if len(targets) == 0:
        raise ValueError("need at least one target")
    picked = final_probs[np.arange(len(targets)), targets]
    return float(-_floored_log(picked).mean())


def _floored_log(probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(max(probs, DEFAULT_PROB_FLOOR)), into ``out`` when given."""
    floored = np.maximum(probs, DEFAULT_PROB_FLOOR, out=out)
    return np.log(floored, out=floored)


def _kl_rows(
    p: np.ndarray, log_q: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise KL(p || q) over the last axis and its gradient with
    respect to p's logits, p * (log p - log q - KL).

    ``log_q`` is ``_floored_log(q)``; log p is floored the same way, and
    zero-mass components of p add nothing to the divergence.  The
    gradient is written into ``out`` when given.
    """
    diff = _floored_log(p, out=out)
    diff -= log_q
    terms = p * diff
    positive = p > 0.0
    if not positive.all():
        terms = np.where(positive, terms, 0.0)
    kl = terms.sum(axis=-1)
    diff -= kl[..., None]
    diff *= p
    return kl, diff


@dataclass(frozen=True)
class StepSchedule:
    """Constant learning rate halved every ``every`` epochs."""

    initial: float = 0.5
    decay: float = 0.5
    every: int = 50

    def __post_init__(self) -> None:
        if not math.isfinite(self.initial) or self.initial <= 0:
            raise ValueError(
                f"initial rate must be finite and positive, got {self.initial}"
            )
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")

    def rate(self, epoch: int) -> float:
        return self.initial * self.decay ** (epoch // self.every)


def _ce_grad_logits(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of mean CE with respect to the logits, (p - onehot)/rows,
    written over ``probs``."""
    probs[np.arange(len(targets)), targets] -= 1.0
    probs /= len(targets)
    return probs


# Per-layer states, teacher logits, g_h: see _backbone_buffers.
_BackboneBuffers = tuple[list[np.ndarray], np.ndarray, np.ndarray]


def _backbone_buffers(config: ToyConfig, rows: int) -> _BackboneBuffers:
    """Scratch for ``_backbone_backward`` on a block of ``rows`` rows: the
    per-layer states, the teacher logits, and the g_h rows."""
    hidden = (rows, config.hidden_dim)
    states = [np.empty(hidden) for _ in range(config.n_layers)]
    logits = np.empty((rows, config.vocab_size))
    return states, logits, np.empty(hidden)


def _backbone_backward(
    model: ToyCascade,
    example: SyntheticExample,
    buffers: _BackboneBuffers,
) -> tuple[float, list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Loss and gradients for stage one (backbone + teacher head).

    Every (rows, width) intermediate lives in ``buffers`` (from
    ``_backbone_buffers``); the returned gradients are fresh arrays.
    """
    states, logits, g_h = buffers
    features, targets = example.features, example.targets
    for _ in _hidden_states(model, features, states):
        pass
    np.matmul(states[-1], model.teacher_weight, out=logits)
    logits += model.teacher_bias
    probs = _softmax(logits, out=logits)
    loss = finetune_loss(probs, targets)

    g_logits = _ce_grad_logits(probs, targets)
    g_teacher_w = states[-1].T @ g_logits
    g_teacher_b = g_logits.sum(axis=0)
    np.matmul(g_logits, model.teacher_weight.T, out=g_h)

    g_weights: list[np.ndarray] = [None] * len(model.layer_weights)  # type: ignore[list-item]
    g_biases: list[np.ndarray] = [None] * len(model.layer_biases)  # type: ignore[list-item]
    for i in range(len(model.layer_weights) - 1, -1, -1):
        # g_h * (1 - s**2); s**2 is np.square(s), which is s * s.  Nothing
        # reads layer i's state after this, so g_z takes its buffer.
        g_z = np.multiply(states[i], states[i], out=states[i])
        np.subtract(1.0, g_z, out=g_z)
        g_z *= g_h
        below = features if i == 0 else states[i - 1]
        g_weights[i] = below.T @ g_z
        g_biases[i] = g_z.sum(axis=0)
        if i > 0:  # nothing reads the input's gradient
            np.matmul(g_z, model.layer_weights[i].T, out=g_h)
    return loss, g_weights, g_biases, g_teacher_w, g_teacher_b


def _frozen_inputs(
    model: ToyCascade, example: SyntheticExample, loss_terms: str
) -> tuple[list[np.ndarray], np.ndarray]:
    """Check ``loss_terms``, then run the frozen backbone once: the exit
    layers' states and the teacher's floored log-probabilities, the two
    things stage two reads."""
    check_loss_terms(loss_terms)
    states = list(_hidden_states(model, example.features))
    log_q = np.matmul(states.pop(), model.teacher_weight)
    log_q += model.teacher_bias
    return states, _floored_log(_softmax(log_q, out=log_q), out=log_q)


def _exits_backward(
    model: ToyCascade,
    states: Sequence[np.ndarray],
    log_q: np.ndarray,
    targets: np.ndarray,
    loss_terms: str,
    buffers: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Summed exit loss and per-head gradients for stage two.

    ``states`` and ``log_q`` come from ``_frozen_inputs``; ``buffers`` is
    a (2, rows, vocab) scratch array whose two blocks hold each head's
    logits and its KL term in turn.  The backbone is fixed, so gradients
    never flow below the heads and each head's gradient is independent
    of the others.
    """
    logits, kl_grad = buffers
    rows = len(targets)
    total = 0.0
    g_weights = []
    g_biases = []
    for i in range(model.config.n_layers - 1):
        np.matmul(states[i], model.exit_weights[i], out=logits)
        logits += model.exit_biases[i]
        probs = _softmax(logits, out=logits)
        if loss_terms in ("ce", "both"):
            total += finetune_loss(probs, targets)
        if loss_terms in ("kl", "both"):
            kl_rows, _ = _kl_rows(probs, log_q, out=kl_grad)
            total += float(np.maximum(kl_rows, 0.0).mean())
            kl_grad /= rows
        # The CE gradient overwrites probs, so it comes after the KL term.
        if loss_terms == "kl":
            g_logits = kl_grad
        else:
            g_logits = _ce_grad_logits(probs, targets)
            if loss_terms == "both":
                g_logits += kl_grad
        g_weights.append(states[i].T @ g_logits)
        g_biases.append(g_logits.sum(axis=0))
    return total, g_weights, g_biases


def check_epochs(epochs: int) -> None:
    """Refuse a negative epoch count."""
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")


def check_loss_terms(loss_terms: str) -> None:
    """Refuse a stage-two loss that is not one of ``LOSS_TERM_CHOICES``."""
    if loss_terms not in LOSS_TERM_CHOICES:
        raise ValueError(
            f"loss_terms must be one of {LOSS_TERM_CHOICES}, got {loss_terms!r}"
        )


def train_backbone(
    model: ToyCascade,
    example: SyntheticExample,
    epochs: int,
    schedule: StepSchedule,
) -> list[float]:
    """Stage one: descend the final-head CE, then freeze the backbone.

    Returns the per-epoch loss history (evaluated before each step).
    The model is mutated in place and comes out with frozen = True even
    for zero epochs.
    """
    if model.frozen:
        raise TrainingError("backbone is frozen; stage one already ran")
    check_epochs(epochs)
    if example.targets.max() >= model.config.vocab_size:
        raise ValueError("target id outside the model vocabulary")
    buffers = _backbone_buffers(model.config, len(example.targets))
    history = []
    for epoch in range(epochs):
        loss, g_w, g_b, g_tw, g_tb = _backbone_backward(model, example, buffers)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
        history.append(loss)
        lr = schedule.rate(epoch)
        for i in range(len(model.layer_weights)):
            model.layer_weights[i] -= lr * g_w[i]
            model.layer_biases[i] -= lr * g_b[i]
        model.teacher_weight -= lr * g_tw
        model.teacher_bias -= lr * g_tb
    model.frozen = True
    return history


def train_exits(
    model: ToyCascade,
    example: SyntheticExample,
    epochs: int,
    schedule: StepSchedule,
    loss_terms: str = "both",
) -> list[float]:
    """Stage two: descend the summed exit losses over heads 1..N-1.

    Requires a frozen backbone; only exit head parameters move.  The
    backbone runs once per call, not once per epoch.  Returns the
    per-epoch summed-loss history.
    """
    if not model.frozen:
        raise TrainingError("freeze the backbone (stage one) before exit training")
    check_epochs(epochs)
    targets = example.targets
    if targets.max() >= model.config.vocab_size:
        raise ValueError("target id outside the model vocabulary")
    states, log_q = _frozen_inputs(model, example, loss_terms)
    buffers = np.empty((2,) + log_q.shape)
    history = []
    for epoch in range(epochs):
        loss, g_w, g_b = _exits_backward(
            model, states, log_q, targets, loss_terms, buffers
        )
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
        history.append(loss)
        lr = schedule.rate(epoch)
        for i in range(len(model.exit_weights)):
            model.exit_weights[i] -= lr * g_w[i]
            model.exit_biases[i] -= lr * g_b[i]
    return history


def layer_accuracies(
    model: ToyCascade, example: SyntheticExample
) -> tuple[float, ...]:
    """Exact-match accuracy of every head, exits first, teacher last."""
    _, token_ids = head_confidences(model, example)
    return tuple((token_ids == example.targets[:, None]).mean(axis=0).tolist())


# ---------------------------------------------------------------------------
# Toy task construction


@dataclass(frozen=True)
class ToyTask:
    """Train/heldout split over one fixed parity labeling, one row block
    per split."""

    train: SyntheticExample
    heldout: SyntheticExample


def make_task(
    config: ToyConfig,
    rng: np.random.Generator,
    n_train: int = 512,
    n_heldout: int = 1024,
    tokens_per_example: int = 8,
    n_classes: int = 4,
    margin: float = 0.3,
    label_noise: float = 0.1,
) -> ToyTask:
    """Sign-parity labeling task over gaussian features.

    The class index is built from sign-XOR bits of consecutive feature
    pairs, so no single linear readout solves it but a few tanh layers
    do: exit accuracy then genuinely increases with depth.  Rows whose
    defining coordinates fall within ``margin`` of zero are rejected,
    keeping the boundary crisp.  A ``label_noise`` fraction of training
    targets is resampled uniformly; held-out targets stay clean, so
    held-out accuracy measures the true boundary and soft teacher
    labels carry real value over the corrupted hard ones.  Each split is
    one block of ``n * tokens_per_example`` rows.
    """
    if n_train < 1 or n_heldout < 1:
        raise ValueError("need at least one example per split")
    if tokens_per_example < 1:
        raise ValueError(
            f"tokens_per_example must be >= 1, got {tokens_per_example}"
        )
    n_bits = n_classes.bit_length() - 1
    if n_classes < 2 or n_classes != 1 << n_bits:
        raise ValueError(f"n_classes must be a power of two >= 2, got {n_classes}")
    if n_classes > config.vocab_size:
        raise ValueError(
            f"n_classes {n_classes} exceeds vocab_size {config.vocab_size}"
        )
    if 2 * n_bits > config.input_dim:
        raise ValueError(
            f"{n_classes} classes need {2 * n_bits} defining coordinates, "
            f"input_dim is {config.input_dim}"
        )
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    # A row survives when each of its 2 * n_bits defining coordinates is
    # at least ``margin`` from zero.
    acceptance = math.erfc(margin / math.sqrt(2.0)) ** (2 * n_bits)
    if acceptance < MIN_ROW_ACCEPTANCE:
        raise ValueError(
            f"margin {margin} keeps a {acceptance:.3g} share of drawn rows, "
            f"below the {MIN_ROW_ACCEPTANCE:g} floor"
        )
    if not 0.0 <= label_noise <= 1.0:
        raise ValueError(f"label_noise {label_noise} outside [0, 1]")
    for n in (n_train, n_heldout):  # else the draw runs until memory does
        if n * tokens_per_example * config.input_dim > MAX_FLOATS:
            raise MemoryError(
                f"{n} examples of {tokens_per_example} tokens of "
                f"{config.input_dim} features cannot fit"
            )

    def draw_rows(n_rows: int, noisy: bool) -> SyntheticExample:
        feats = []
        got = 0
        while got < n_rows:
            x = rng.normal(0.0, 1.0, (4096, config.input_dim))
            keep = np.abs(x[:, : 2 * n_bits]).min(axis=1) >= margin
            feats.append(x[keep])
            got += int(keep.sum())
        x = np.concatenate(feats)[:n_rows]
        y = np.zeros(n_rows, dtype=np.int64)
        for k in range(n_bits):
            bit = (x[:, 2 * k] > 0) ^ (x[:, 2 * k + 1] > 0)
            y |= bit.astype(np.int64) << (n_bits - 1 - k)
        if noisy and label_noise > 0:
            flip = rng.random(n_rows) < label_noise
            y = np.where(flip, rng.integers(0, n_classes, n_rows), y)
        return SyntheticExample(features=x, targets=y)

    # Train rows are drawn first: the split order is part of the task.
    train = draw_rows(n_train * tokens_per_example, noisy=True)
    heldout = draw_rows(n_heldout * tokens_per_example, noisy=False)
    return ToyTask(train=train, heldout=heldout)


# ---------------------------------------------------------------------------
# Checkpoint serialization


# A ToyCascade's parameter fields, in the order they are checked.  The
# teacher's two are one array each; the others are one per layer or head.
_PARAMETERS = (
    "layer_weights", "layer_biases", "exit_weights", "exit_biases",
    "teacher_weight", "teacher_bias",
)


def save_cascade(model: ToyCascade, path: str) -> None:
    """Write the model as a versioned JSON checkpoint.

    Parameters that ``load_cascade`` would refuse (``_check_parameters``)
    raise TrainingError before any file opens.  The file is written at
    ``path`` itself; a caller that wants a failed write to leave the
    previous file whole stages the write, as ``cli._write_outputs`` does.
    """
    _check_parameters(model, TrainingError)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": dataclasses.asdict(model.config),
        "frozen": model.frozen,
    }
    for name in _PARAMETERS:
        value = getattr(model, name)
        single = isinstance(value, np.ndarray)
        payload[name] = value.tolist() if single else [part.tolist() for part in value]
    write_json(path, payload, TrainingError)


def load_cascade(path: str) -> ToyCascade:
    """Read a checkpoint written by save_cascade.

    Raises CheckpointError on bytes that are not UTF-8 JSON (an integer
    longer than Python's digit limit included), a document that
    ``check_format`` refuses, a config dimension that is not an
    integer, a ``frozen`` flag that is not a JSON boolean, an integer
    parameter too large for a float, or parameters that
    ``_check_parameters`` refuses (``json`` parses ``NaN`` and
    ``Infinity``).
    """

    def error(message: str) -> CheckpointError:
        return CheckpointError(f"{path}: {message}")

    payload = read_json(path, CheckpointError)
    check_format(payload, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, error)
    try:
        config = ToyConfig(**payload["config"])
        if not isinstance(payload["frozen"], bool):
            raise TypeError(
                f"frozen must be true or false, got {payload['frozen']!r}"
            )
        model = ToyCascade(
            config=config,
            frozen=payload["frozen"],
            **{
                name: np.array(payload[name], dtype=float)
                if name.startswith("teacher")
                else [np.array(part, dtype=float) for part in payload[name]]
                for name in _PARAMETERS
            },
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint contents: {exc}") from exc
    _check_parameters(model, error)
    return model


def _check_parameters(model: ToyCascade, error: Callable[[str], Exception]) -> None:
    """Raise ``error(message)`` on a layer or head count or a shape that
    disagrees with the config, or a non-finite value.  Counts come first,
    so a config no memory could hold never builds its list of shapes."""
    cfg = model.config
    n, hidden, vocab = cfg.n_layers, cfg.hidden_dim, cfg.vocab_size
    if len(model.layer_weights) != n or len(model.layer_biases) != n:
        raise error("wrong number of backbone layers")
    if len(model.exit_weights) != n - 1 or len(model.exit_biases) != n - 1:
        raise error("wrong number of exit heads")
    shapes = (
        [(cfg.input_dim, hidden)] + [(hidden, hidden)] * (n - 1),
        [(hidden,)] * n,
        [(hidden, vocab)] * (n - 1),
        [(vocab,)] * (n - 1),
        [(hidden, vocab)],
        [(vocab,)],
    )
    for name, expected in zip(_PARAMETERS, shapes):
        value = getattr(model, name)
        parts = [value] if isinstance(value, np.ndarray) else value
        if [part.shape for part in parts] != expected:
            raise error(f"{name} shape mismatch")
        if not all(np.isfinite(part).all() for part in parts):
            raise error(f"{name} holds a non-finite value")
