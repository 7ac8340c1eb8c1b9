"""The deterministic early-exit rule over arrays of confidence traces.

A trace records, for one emitted token, what every exit head of a layered
decoder produced: the head's top softmax probability (its confidence) and
the token id it would emit.  Traces travel as (tokens, layers) arrays.
The exit rule stops each token at the first layer whose confidence clears
a threshold, the final layer being the unconditional fallback; it runs as
one kernel, ``running_max`` + ``exit_counts``, over a whole block.  The
exit histogram turns the exits into the depth-cost speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_MAX_CAPTION_LENGTH = 20


class TraceValidationError(ValueError):
    """A token trace violates its structural invariants."""


# Test-only scalar records, kept here because bench/tracer.py patches TokenTrace.
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


def exit_layer_indices(
    confidences: np.ndarray, alpha: float | Sequence[float] | np.ndarray
) -> np.ndarray:
    """The exit rule on a (tokens, layers) confidence array: the 0-based
    exit layer of every row.

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
