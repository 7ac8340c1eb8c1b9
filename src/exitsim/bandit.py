"""Online exit-threshold selection as a UCB bandit over a threshold grid.

Each token is one bandit round: pick a threshold, run the exit rule,
observe a reward that trades confidence gain over layer 1 against a
per-layer latency cost, and update the chosen arm's running mean.
Pseudo-regret is accounted against a Monte-Carlo oracle that evaluates
every arm on a common set of sampled traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .cascade import (
    check_thresholds,
    exit_counts,
    exit_layer_indices,
    running_max,
    speedup_ratio,
)
from .synth import (
    IMAGE_CHUNK,
    SyntheticConfidenceModel,
    TraceBatch,
    check_sigma,
    check_traces,
    confidence_blocks,
    draw_tokens,
    finish_tokens,
)

# The oracle has its own fixed default seed: its verdict on which arm is
# best is a property of the model, not of any particular run's seed.
ORACLE_SEED = 1000003


@dataclass(frozen=True)
class ActionSet:
    """Strictly increasing grid of candidate exit thresholds in [0, 1]."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("action set must contain at least one threshold")
        check_thresholds(self.thresholds)
        for lo, hi in zip(self.thresholds, self.thresholds[1:]):
            if lo >= hi:
                raise ValueError(
                    f"thresholds must be strictly increasing, got {lo!r} "
                    f"before {hi!r}"
                )

    @classmethod
    def default_grid(cls) -> "ActionSet":
        return cls(tuple(i / 10 for i in range(1, 11)))

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class RewardParams:
    """Reward shape: confidence gain minus mu times the exit layer's latency.

    The latency schedule is 0 for layer 1 and lam * i for every deeper
    layer i, so with mu = 1/N and lam = 1 rewards live in [-2, 1].
    """

    n_layers: int
    mu: float | None = None
    lam: float = 1.0
    latency: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n_layers < 2:
            raise ValueError(f"n_layers must be >= 2, got {self.n_layers}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.mu is None:
            object.__setattr__(self, "mu", 1.0 / self.n_layers)
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        schedule = (0.0,) + tuple(self.lam * i for i in range(2, self.n_layers + 1))
        if not math.isfinite(schedule[-1]):
            raise ValueError(f"latency schedule must be finite, got lam {self.lam}")
        object.__setattr__(self, "latency", schedule)

    def bounds(self) -> tuple[float, float]:
        """Hard reward range [-1 - mu * o_N, 1]."""
        return (-1.0 - self.mu * self.latency[-1], 1.0)

    def check_sums(self, terms: int) -> None:
        """Refuse a shape whose sums of ``terms`` rewards may overflow: the
        range holds 0, so each such sum is within ``terms`` ranges of it.
        Raises ValueError."""
        lo, hi = self.bounds()
        if not math.isfinite(terms * (hi - lo)):
            raise ValueError(
                f"mu {self.mu!r} and lam {self.lam!r}: a sum of {terms} "
                f"rewards in [{lo!r}, {hi!r}] is not finite"
            )


def _ucb_index(cell: AdaptiveCell, gamma: float) -> int:
    """Index of the arm with the largest Q + gamma * sqrt(ln t / pulls);
    ties go to the smallest.  Every arm must have been pulled.  A scan
    over one arm always picks it, so a one-arm cell skips the index."""
    q, pulls = cell.q, cell.pulls
    if len(q) == 1:
        return 0
    log_t = math.log(cell.t)
    best_index = 0
    best_value = -math.inf
    for k in range(len(q)):
        value = q[k] + gamma * math.sqrt(log_t / pulls[k])
        if value > best_value:
            best_value = value
            best_index = k
    return best_index


def _fold(cell: AdaptiveCell, k: int, observed_reward: float) -> None:
    cell.pulls[k] += 1
    cell.q[k] += (observed_reward - cell.q[k]) / cell.pulls[k]
    cell.t += 1


def _rewards(gain: np.ndarray, exits: np.ndarray, params: RewardParams) -> np.ndarray:
    """``gain`` minus the scaled latency of 0-based ``exits``: the float64
    operations of the scalar reward, so bit-identical to it."""
    return gain - params.mu * np.asarray(params.latency).take(exits)


def _check_layers(n_layers: int, params: RewardParams) -> None:
    """Refuse a reward schedule whose depth is not ``n_layers``, the depth
    of the confidences it is to score."""
    if n_layers != params.n_layers:
        raise ValueError(
            f"model emits {n_layers} layers, reward params expect {params.n_layers}"
        )


def initialize(
    cell: AdaptiveCell, rewards: memoryview, played: list[int]
) -> AdaptiveCell:
    """Start ``cell``'s run: pull every arm once, arm k on row k of its
    first chunk, whose ``rewards`` are flat and row-major (arm k on row r
    at ``r * K + k``), into the cell's means and counts, appending each
    pull's flat index to ``played``.  Each Q is then one observed
    reward, as the selection rule needs before its first real round.
    Returns the cell."""
    width = len(cell.actions)
    for k in range(width):
        _fold(cell, k, rewards[k * width + k])
        played.append(k * width + k)
    return cell


def _caption_rows(stops: np.ndarray, max_len: int, budget: int) -> np.ndarray:
    """The rows, in order, that a one-arm cell plays over images of
    ``max_len`` rows whose emitted eos flags are ``stops``: each image's
    rows up to its first stop, ``budget`` rows in all at most."""
    stops = stops.reshape(-1, max_len)
    lengths = np.where(stops.any(axis=1), stops.argmax(axis=1) + 1, max_len)
    before = np.cumsum(lengths) - lengths
    lengths = np.clip(min(budget, stops.size) - before, 0, lengths)
    return np.flatnonzero(np.arange(max_len) < lengths[:, None])


def _play(
    cell: AdaptiveCell, batch: TraceBatch, gamma: float, tokens: int,
    max_len: int, eos_id: int,
) -> None:
    """Play ``cell``'s run over the ``max_len``-token images of a
    validated chunk until its token budget; a new run spends its first
    image on ``initialize``.  Every arm's exit, emitted token id and
    reward on every row come from one running max, as flat row-major
    arrays (arm k on row r at ``r * K + k``).  A round reads its arm's
    reward and eos flag through memoryviews and lists its flat index; a
    one-arm cell, which makes no choice, finds its rounds as arrays.  The
    histogram, reward sum, hits and sink rows are scored from the list."""
    conf = batch.confidences
    alphas = cell.actions.thresholds
    width = len(alphas)
    exits = exit_layer_indices(conf, np.asarray(alphas))
    gain = np.take_along_axis(conf, exits, axis=1) - conf[:, :1]
    rewards = _rewards(gain, exits, cell.params).ravel()
    emitted = np.take_along_axis(batch.token_ids, exits, axis=1).ravel()
    stops = emitted == eos_id
    t0 = cell.t
    played = []
    start = 0
    if cell.t == 0:
        # Called through the module global: bench/tracer.py counts init rounds here.
        initialize(cell, memoryview(rewards), played)
        start = max_len
    n_init = len(played)
    if width == 1:
        rows = start + _caption_rows(stops[start:], max_len, tokens - cell.t)
        q, pulls = cell.q[0], cell.pulls[0]
        for r in rewards.take(rows).tolist():
            pulls += 1
            q += (r - q) / pulls
        cell.q[0], cell.pulls[0], cell.t = q, pulls, cell.t + len(rows)
        played.extend(rows.tolist())
    else:
        # The round kernel: one UCB round per token of each image, until
        # an emitted eos, the length cap or the token budget.
        reward_at, stop_at = memoryview(rewards), memoryview(stops)
        for lo in range(start * width, len(rewards), max_len * width):
            if cell.t >= tokens:
                break
            for row in range(lo, lo + min(max_len, tokens - cell.t) * width, width):
                k = _ucb_index(cell, gamma)
                _fold(cell, k, reward_at[row + k])
                played.append(row + k)
                if stop_at[row + k]:
                    break
    played = np.array(played, dtype=np.intp)
    layers = exits.ravel().take(played)
    cell.hist = (np.bincount(layers, minlength=len(cell.hist)) + cell.hist).tolist()
    got = rewards.take(played)
    # Left to right, as the rounds came: np.sum would add pairwise.
    cell.reward_sum = np.add.accumulate(np.append(cell.reward_sum, got))[-1].item()
    scored = played[n_init:]
    right = emitted.take(scored) == batch.targets.take(scored // width)
    cell.hits += int(np.count_nonzero(right))
    cell.emitted += len(scored)
    if cell.sink is not None and len(played):
        arms = [alphas[k] for k in (played % width).tolist()]
        t = range(t0 + 1, cell.t + 1)
        cell.sink(list(zip(t, arms, (layers + 1).tolist(), got.tolist())))


@dataclass
class AdaptiveCell:
    """One policy's run over a command's shared image stream, finished at
    distortion level ``sigma``; ``run_lockstep`` plays it, once.

    A cell is its run's UCB1 state: each arm's mean reward ``q`` and pull
    count ``pulls`` and the round counter ``t`` (0 until the run starts).
    It also keeps running aggregates: its exit histogram, reward sum,
    hits and emitted count.  With a ``sink`` it hands over every round,
    initialization included: one call per chunk, with a list of ``(t,
    arm, exit layer, reward)`` rows in round order, t counting from 1 and
    the exit layer from 1.  The cell holds no round past its chunk, so
    its memory stays bounded and a command's cells can all run at once.
    """

    actions: ActionSet
    params: RewardParams
    sigma: float
    sink: Callable[[list[tuple[int, float, int, float]]], object] | None = None
    q: list[float] = field(init=False)
    pulls: list[int] = field(init=False)
    t: int = field(default=0, init=False)
    reward_sum: float = field(default=0.0, init=False)
    hits: int = field(default=0, init=False)
    emitted: int = field(default=0, init=False)
    hist: list[int] = field(init=False)  # exits per layer, index 0 = layer 1

    def __post_init__(self) -> None:
        self.q, self.pulls = [0.0] * len(self.actions), [0] * len(self.actions)
        self.hist = [0] * self.params.n_layers

    def metrics(self) -> dict:
        return {
            "speedup": speedup_ratio(self.hist),
            "accuracy": self.hits / self.emitted,
            "mean_reward": self.reward_sum / self.t,
        }


def check_run(
    arms: int, sigmas: Iterable[float], gamma: float, tokens: int, max_len: int
) -> None:
    """The one rule of an adaptive run whose widest cell has ``arms`` arms.
    Initialization plays arm k on token k of the first image, so
    ``max_len`` must cover ``arms``, and ``tokens`` must cover them and
    one round after; ``gamma`` must be finite and at least 1, and every
    level of ``sigmas`` pass ``check_sigma``.  Raises ValueError otherwise."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if max_len < arms:
        raise ValueError(f"max_len must cover one token per arm: {max_len} < {arms}")
    if tokens <= arms:
        raise ValueError(
            f"tokens must cover one pull per arm and one round after: "
            f"{tokens} <= {arms}"
        )
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
    for sigma in sigmas:
        check_sigma(sigma)


def run_lockstep(
    base: SyntheticConfidenceModel,
    cells: Sequence[AdaptiveCell],
    gamma: float,
    tokens: int,
    max_len: int,
) -> None:
    """Run every cell over one image stream of ``max_len``-token images
    until each has played ``tokens`` rounds.

    The stream is drawn once from ``base``, ``IMAGE_CHUNK`` images at a
    time.  Each chunk is finished and validated once per distortion level
    of a cell still under budget (``cell.sigma``, equal levels grouped in
    first-seen order) and fed to each such cell of that level.  So every
    cell sees the images a run of its own over the stream would, whatever
    its policy.  Accuracy is scored against the targets of those images.

    A run that ``check_run`` refuses, for the widest cell's arm count and
    every cell's level, a cell that has started a run already, and a cell
    whose reward shape's ``check_sums`` refuses ``tokens`` or whose
    reward schedule's depth differs from ``base``'s all raise ValueError
    before the first draw.
    """
    levels = {}
    for cell in cells:
        levels.setdefault(cell.sigma, []).append(cell)
    arms = max((len(cell.actions) for cell in cells), default=1)
    check_run(arms, levels, gamma, tokens, max_len)
    for cell in cells:
        if cell.t:
            raise ValueError(f"a cell is one run: this one has played {cell.t} rounds")
        cell.params.check_sums(tokens)
        _check_layers(base.n_layers, cell.params)
    rng = base.stream_rng(0)
    start_id = 0
    while any(cell.t < tokens for cell in cells):
        draws = draw_tokens(base, max_len, rng, IMAGE_CHUNK)
        for sigma, group in levels.items():
            playing = [cell for cell in group if cell.t < tokens]
            if playing:
                batch = finish_tokens(base, sigma, draws)
                label = f"images {start_id}-{start_id + IMAGE_CHUNK - 1}"
                check_traces(label, batch, base.vocab_size)
                for cell in playing:
                    _play(cell, batch, gamma, tokens, max_len, base.eos_id)
        start_id += IMAGE_CHUNK


@dataclass(frozen=True)
class OracleEstimate:
    """Per-arm expected rewards estimated on one shared trace sample."""

    thresholds: tuple[float, ...]
    expected_rewards: tuple[float, ...]
    samples: int

    @property
    def best_index(self) -> int:
        """The first arm of the largest expected reward."""
        return max(range(len(self.thresholds)), key=self.expected_rewards.__getitem__)

    @property
    def best_threshold(self) -> float:
        return self.thresholds[self.best_index]

    @property
    def gaps(self) -> tuple[float, ...]:
        top = self.expected_rewards[self.best_index]
        return tuple(top - e for e in self.expected_rewards)


def shared_oracles(
    base: SyntheticConfidenceModel,
    sigmas: Sequence[float],
    actions: ActionSet,
    params: Sequence[RewardParams],
    samples: int = 200_000,
    seed: int = ORACLE_SEED,
) -> list[list[OracleEstimate]]:
    """Monte-Carlo estimate of every arm's expected reward: ``result[i][j]``
    is the estimate at distortion level ``sigmas[i]`` of ``base`` under
    ``params[j]``.  All of them share one draw of the oracle's variates
    (common random numbers), so arm comparisons are paired and the argmax
    is stable at moderate sample counts; the seed is deliberately
    independent of run seeds.
    No (samples, layers) matrix is held: the samples are drawn and scored
    one ``_pairwise_spans`` span and one level at a time.  A sample count
    below 1, or a shape whose ``check_sums`` refuses it or whose depth is
    not ``base``'s, raises ValueError before the first draw.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    for p in params:
        p.check_sums(samples)
        _check_layers(base.n_layers, p)
    rng = np.random.default_rng(seed)
    blocks = confidence_blocks(base, sigmas, samples, rng, _pairwise_spans(samples))
    sums = (  # each level's block is scored as it is drawn, then dropped
        np.array([_span_sums(next(blocks), actions, params) for _ in sigmas])
        for _ in _pairwise_spans(samples)
    )
    means = _pairwise_sum(samples, sums) / samples
    return [
        [OracleEstimate(actions.thresholds, tuple(m.tolist()), samples) for m in rows]
        for rows in means
    ]


# Numpy sums a float64 vector pairwise: it splits n > 128 values at half,
# rounded down to a multiple of 8, and sums each part the same way.  The
# oracle scores the tree's nodes of at most _ORACLE_SPAN samples and adds
# their sums up the tree, which is bitwise the sum of the whole vector.
_ORACLE_SPAN = 4096


def _pairwise_spans(n: int) -> Iterator[int]:
    """The lengths, left to right, of the nodes of the pairwise tree over
    ``n`` values that the oracle scores.  Lazy, so that a sample count
    too large to draw fails at its first allocation."""
    if n <= _ORACLE_SPAN:
        yield n
    else:
        half = n // 2 - n // 2 % 8
        yield from _pairwise_spans(half)
        yield from _pairwise_spans(n - half)


def _pairwise_sum(n: int, span_sums: Iterator[np.ndarray]) -> np.ndarray:
    """``np.add.reduce`` of ``n`` values, elementwise, from the sums of
    their ``_pairwise_spans`` in order."""
    if n <= _ORACLE_SPAN:
        return next(span_sums)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, span_sums) + _pairwise_sum(n - half, span_sums)


def _span_sums(
    block: np.ndarray, actions: ActionSet, params: Sequence[RewardParams]
) -> np.ndarray:
    """Every arm's reward sum under each of ``params``, as a (params, arms)
    array, over a layer-major (layers, samples) confidence block, which
    is overwritten: its first L - 1 rows become their running max.  At a
    token's first clearing layer the running max is that layer's own
    confidence, and the final row and layer 1 keep theirs, so each arm's
    banked confidences are one gather from the block at its exits."""
    block = np.ascontiguousarray(block)
    samples = block.shape[1]
    top = running_max(block[:-1])
    flat, first = block.ravel(), block[0]
    offsets = np.arange(samples)
    sums = np.empty((len(params), len(actions)))
    for k, alpha in enumerate(actions.thresholds):
        exits = exit_counts(top, np.float64(alpha))
        gain = flat.take(np.multiply(exits, samples, dtype=np.intp) + offsets)
        gain -= first
        for j, p in enumerate(params):
            sums[j, k] = np.add.reduce(_rewards(gain, exits, p))
    return sums
