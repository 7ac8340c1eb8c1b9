"""Token-level confidence traces and the deterministic early-exit rule.

A trace records, for one emitted token, what every exit head of a layered
decoder produced: the head's top softmax probability (its confidence) and
the token id it would emit.  The exit rule walks the layers in order and
stops at the first one whose confidence clears a threshold; the final
layer is the unconditional fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_EOS_ID = 0
DEFAULT_MAX_CAPTION_LENGTH = 20


class TraceValidationError(ValueError):
    """A token trace violates its structural invariants."""


class LayerOutcome(NamedTuple):
    confidence: float
    token_id: int


@dataclass(frozen=True)
class TokenTrace:
    """Per-layer (confidence, token id) outcomes for one token position.

    Layer indices are 1-based everywhere in this package; ``layers[0]``
    is layer 1.  At least two layers are required: one candidate exit
    plus the final fallback.
    """

    layers: tuple[LayerOutcome, ...]

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise TraceValidationError(
                f"trace needs at least 2 layers, got {len(self.layers)}"
            )
        for i, layer in enumerate(self.layers, start=1):
            if not 0.0 <= layer.confidence <= 1.0:
                raise TraceValidationError(
                    f"layer {i} confidence {layer.confidence!r} outside [0, 1]"
                )
            if layer.token_id < 0:
                raise TraceValidationError(
                    f"layer {i} token id {layer.token_id!r} is negative"
                )

    @classmethod
    def from_arrays(
        cls, confidences: Sequence[float], token_ids: Sequence[int]
    ) -> "TokenTrace":
        if len(confidences) != len(token_ids):
            raise TraceValidationError(
                f"{len(confidences)} confidences vs {len(token_ids)} token ids"
            )
        return cls(
            tuple(
                LayerOutcome(float(c), int(t))
                for c, t in zip(confidences, token_ids)
            )
        )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def confidences(self) -> tuple[float, ...]:
        return tuple(layer.confidence for layer in self.layers)

    @property
    def token_ids(self) -> tuple[int, ...]:
        return tuple(layer.token_id for layer in self.layers)


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


def exit_layer_indices(
    confidences: np.ndarray, alpha: float | Sequence[float] | np.ndarray
) -> np.ndarray:
    """Batch form of ``decide_exit``: the 0-based exit layer of every row
    of a (tokens, layers) confidence array.

    ``alpha`` is one threshold, giving shape (tokens,), or a 1-D grid of
    K thresholds in any order, giving shape (tokens, K).  Both come from
    ``running_max`` and ``exit_counts`` over a layer-major copy of the
    first L - 1 layers.
    """
    alphas = np.asarray(alpha, dtype=np.float64)
    if alphas.ndim > 1:
        raise ValueError(f"thresholds must be a scalar or 1-D, got {alphas.shape}")
    in_range = (alphas >= 0.0) & (alphas <= 1.0)  # False for NaN
    if not in_range.all():
        bad = alpha if alphas.ndim == 0 else float(alphas[~in_range][0])
        raise ValueError(f"exit threshold {bad!r} outside [0, 1]")
    top = running_max(np.array(confidences[:, :-1].T, order="C"))
    return exit_counts(top, alphas)


def running_max(top: np.ndarray) -> np.ndarray:
    """Overwrite each row of a layer-major (layers, tokens) block with
    the running ``fmax`` of the rows up to it, so NaN never wins."""
    for j in range(1, len(top)):
        np.fmax(top[j - 1], top[j], out=top[j])
    return top


def exit_counts(top: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The exit rule's kernel: 0-based exit layers from ``top``, the
    running max of the first L - 1 layers, layer-major.

    A token's running max clears ``alpha`` from its first clearing layer
    on, and a NaN never clears, so its exit is the count of layers whose
    running max is not >= ``alpha``; none clearing means the final
    layer.  ``alphas`` is a scalar, giving shape (tokens,), or a 1-D grid
    of K, giving shape (tokens, K).  The counts are int8 while every
    1-based layer fits.
    """
    clears = np.greater_equal(top[..., None] if alphas.ndim else top, alphas)
    dtype = np.int8 if len(top) < 127 else np.intp
    return len(top) - clears.sum(axis=0, dtype=dtype)


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
    the source that decides its exit itself, such as the online
    threshold adapter (which is fed token positions).
    Each emitted token comes from the exiting layer of its trace, which
    is what makes the threshold observable in the output sequence.
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


@dataclass
class ExitHistogram:
    """Counts of tokens that exited at each layer, index 0 = layer 1."""

    counts: list[int]

    @classmethod
    def empty(cls, n_layers: int) -> "ExitHistogram":
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        return cls([0] * n_layers)

    def record(self, exit_layer: int) -> None:
        if not 1 <= exit_layer <= len(self.counts):
            raise ValueError(
                f"exit layer {exit_layer} outside [1, {len(self.counts)}]"
            )
        self.counts[exit_layer - 1] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)


def speedup_ratio(hist: ExitHistogram) -> float:
    """Depth-cost ratio of an always-final-layer decoder to the early-exit one.

    With w_l tokens exiting at layer l this is (sum_l w_l * N) / (sum_l w_l * l),
    which lies in [1, N]: 1.0 iff every token ran the full stack, N iff every
    token left at layer 1.
    """
    total = hist.total
    if total == 0:
        raise ValueError("empty exit histogram: speedup is undefined")
    weighted_depth = sum(
        count * layer for layer, count in enumerate(hist.counts, start=1)
    )
    return (total * len(hist.counts)) / weighted_depth
