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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


def check_gamma(gamma: float) -> None:
    """Refuse a UCB exploration width that is not finite or is below 1."""
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")


def _ucb_index(cell: AdaptiveCell) -> int:
    """Index of the arm with the largest Q + gamma * sqrt(ln t / pulls);
    ties go to the smallest.  Every arm must have been pulled.  A scan
    over one arm always picks it, so a one-arm cell skips the index."""
    q, pulls, gamma = cell.q, cell.pulls, cell.gamma
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


def sum_left_to_right(values: Iterable[float]) -> float:
    """Plain left-to-right float sum.

    Bit-identical to ``sum()`` on Python 3.11; from 3.12 ``sum()`` uses
    compensated summation, which would move the last bits of reported
    means.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _gains(conf: np.ndarray, exits: np.ndarray) -> np.ndarray:
    """Confidence gain over layer 1 at 0-based ``exits`` of a (tokens,
    layers) confidence array; ``exits`` is (tokens,) or (tokens, K)."""
    rows = np.arange(len(conf)).reshape((-1,) + (1,) * (exits.ndim - 1))
    return conf[rows, exits] - conf[rows, 0]


def _rewards(gain: np.ndarray, exits: np.ndarray, params: RewardParams) -> np.ndarray:
    """``gain`` minus the scaled latency of 0-based ``exits``: the float64
    operations of the scalar reward, so bit-identical to it."""
    return gain - params.mu * np.asarray(params.latency).take(exits)


def _check_layers(conf: np.ndarray, params: RewardParams) -> None:
    """Refuse (rows, layers) confidences whose depth is not the reward
    schedule's, before any of their exits is scored."""
    if conf.shape[1] != params.n_layers:
        raise ValueError(
            f"model emits {conf.shape[1]} layers, reward params expect "
            f"{params.n_layers}"
        )


class _ArmTable(NamedTuple):
    """Every arm's outcome on every row of a block, as flat row-major
    lists: arm k on row r is entry ``r * width + k``.  Flat lists keep
    the garbage collector off a chunk's rows."""

    exits: list  # 0-based exit layer
    emitted: list  # emitted token id
    rewards: list
    width: int  # the arm count K


def _arm_table(
    conf: np.ndarray,
    token_ids: np.ndarray,
    thresholds: np.ndarray,
    params: RewardParams,
) -> _ArmTable:
    """The outcome of every arm on every row of a (rows, layers) block of
    confidences and token ids, from one running max.  A block whose depth
    is not ``params.n_layers`` raises ValueError."""
    _check_layers(conf, params)
    exits = exit_layer_indices(conf, thresholds)
    emitted = np.take_along_axis(token_ids, exits, axis=1)
    rewards = _rewards(_gains(conf, exits), exits, params)
    return _ArmTable(
        exits.ravel().tolist(), emitted.ravel().tolist(),
        rewards.ravel().tolist(), len(thresholds),
    )


def initialize(
    cell: AdaptiveCell, table: _ArmTable, gamma: float, rows: list | None
) -> AdaptiveCell:
    """Start ``cell``'s run at exploration width ``gamma``: pull every arm
    once, arm k on row k of its first chunk's ``table``, into the cell's
    means, counts, histogram and reward sum, appending each round to
    ``rows`` unless it is None.  Each Q is then one observed reward, as
    the selection rule needs before its first real round.  Returns the
    cell."""
    cell.gamma = gamma
    exits, _, rewards, width = table
    for k, alpha in enumerate(cell.actions.thresholds):
        i = k * width + k
        _fold(cell, k, rewards[i])
        cell.hist[exits[i]] += 1
        cell.reward_sum += rewards[i]
        if rows is not None:
            rows.append((cell.t, alpha, exits[i] + 1, rewards[i]))
    return cell


@dataclass
class AdaptiveCell:
    """One policy's run over a command's shared image stream, finished at
    distortion level ``sigma``.

    A cell is its run's UCB1 state: each arm's mean reward ``q`` and pull
    count ``pulls``, the round counter ``t`` (0 until the run starts) and
    the exploration width ``gamma`` the run started with.  It also keeps
    running aggregates: its exit histogram, reward sum, hits and emitted
    count.  With a ``sink`` it hands over every round, initialization
    included: one call per chunk, with a list of ``(t, arm, exit layer,
    reward)`` rows in round order, t counting from 1 and the exit layer
    from 1.  The cell holds no round past its chunk, so its memory stays
    bounded and a command's cells can all run at once.
    """

    actions: ActionSet
    params: RewardParams
    sigma: float
    sink: Callable[[list[tuple[int, float, int, float]]], object] | None = None
    q: list[float] = field(init=False)
    pulls: list[int] = field(init=False)
    t: int = field(default=0, init=False)
    gamma: float | None = field(default=None, init=False)
    reward_sum: float = field(default=0.0, init=False)
    hits: int = field(default=0, init=False)
    emitted: int = field(default=0, init=False)
    hist: list[int] = field(init=False)  # exits per layer, index 0 = layer 1

    def __post_init__(self) -> None:
        self.q, self.pulls = [0.0] * len(self.actions), [0] * len(self.actions)
        self.hist = [0] * self.params.n_layers

    def done(self, tokens: int) -> bool:
        return self.t >= tokens

    def play(
        self,
        batch: TraceBatch,
        gamma: float,
        tokens: int,
        max_len: int,
        eos_id: int,
    ) -> None:
        """Resume this cell's run over the ``max_len``-token images of a
        validated chunk until its token budget; a new run spends its
        first image on ``initialize``, and its rounds use the ``gamma`` it
        started with, whatever a later chunk passes.  A new run that
        ``check_run`` refuses, or a chunk whose depth is not the reward
        schedule's, raises ValueError before any round."""
        if self.t == 0:
            check_run(len(self.actions), [self.sigma], gamma, tokens, max_len)
        conf = batch.confidences
        alphas = self.actions.thresholds
        table = _arm_table(conf, batch.token_ids, np.asarray(alphas), self.params)
        exits, emitted, rewards, width = table
        rows = None if self.sink is None else []
        start = 0
        if self.t == 0:
            # Called through the module global: bench/tracer.py counts init rounds here.
            initialize(self, table, gamma, rows)
            start = max_len
        counts = self.hist
        reward_sum, hits, n_emitted = self.reward_sum, self.hits, self.emitted
        targets = batch.targets.tolist()
        # The round kernel: one UCB round per token of each image, until
        # an emitted eos, the length cap or the token budget.
        for lo in range(start, len(conf), max_len):
            if self.t >= tokens:
                break
            for row in range(lo, lo + min(max_len, tokens - self.t)):
                k = _ucb_index(self)
                i = row * width + k
                _fold(self, k, rewards[i])
                counts[exits[i]] += 1
                reward_sum += rewards[i]
                hits += emitted[i] == targets[row]
                n_emitted += 1
                if rows is not None:
                    rows.append((self.t, alphas[k], exits[i] + 1, rewards[i]))
                if emitted[i] == eos_id:
                    break
        self.reward_sum, self.hits, self.emitted = reward_sum, hits, n_emitted
        if rows:
            self.sink(rows)

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
    one round after; ``gamma`` must pass ``check_gamma`` and every level
    of ``sigmas`` ``check_sigma``.  Raises ValueError otherwise."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if max_len < arms:
        raise ValueError(f"max_len must cover one token per arm: {max_len} < {arms}")
    if tokens <= arms:
        raise ValueError(
            f"tokens must cover one pull per arm and one round after: "
            f"{tokens} <= {arms}"
        )
    check_gamma(gamma)
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
    every cell's level, raises ValueError before the first draw.  A cell
    whose reward schedule's depth differs from ``base``'s raises
    ValueError on the first chunk, before any round.
    """
    levels = {}
    for cell in cells:
        levels.setdefault(cell.sigma, []).append(cell)
    arms = max((len(cell.actions) for cell in cells), default=1)
    check_run(arms, levels, gamma, tokens, max_len)
    rng = base.stream_rng(0)
    start_id = 0
    while not all(cell.done(tokens) for cell in cells):
        draws = draw_tokens(base, max_len, rng, IMAGE_CHUNK)
        for sigma, group in levels.items():
            playing = [cell for cell in group if not cell.done(tokens)]
            if playing:
                batch = finish_tokens(base, sigma, draws)
                label = f"images {start_id}-{start_id + IMAGE_CHUNK - 1}"
                check_traces(label, batch, base.vocab_size)
                for cell in playing:
                    cell.play(batch, gamma, tokens, max_len, base.eos_id)
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
    one ``_pairwise_spans`` span at a time.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    blocks = confidence_blocks(base, sigmas, samples, rng, _pairwise_spans(samples))
    sums = (
        np.array([_span_sums(block, actions, params) for block in span])
        for span in zip(*[blocks] * len(sigmas))  # a span's blocks, one per level
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
    for p in params:
        _check_layers(block.T, p)
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


def regret_bound(oracle: OracleEstimate, horizon: int, gamma: float) -> float:
    """UCB1's logarithmic pseudo-regret curve at a horizon, as a reference.

    4 * gamma * sum over suboptimal arms of ln(T) / gap, plus
    (pi^2 / 3 + 1) times the sum of the gaps.  Arms whose estimated gap
    is exactly zero are treated as co-optimal and contribute nothing.

    This is the UCB1 form (Auer, Cesa-Bianchi & Fischer, 2002), derived
    for rewards in [0, 1] and an exploration width of sqrt(2 ln t / n).
    This simulator's rewards span [-1 - mu * o_N, 1] (``RewardParams.bounds``)
    and its width is gamma * sqrt(ln t / n), so those preconditions do not
    hold: the value is a reference curve to compare regret against, not
    a guarantee.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    check_gamma(gamma)
    log_t = math.log(horizon)
    exploration = sum_left_to_right(
        log_t / g for k, g in enumerate(oracle.gaps)
        if k != oracle.best_index and g > 0.0
    )
    slack = sum_left_to_right(
        g for k, g in enumerate(oracle.gaps)
        if k != oracle.best_index
    )
    return 4.0 * gamma * exploration + (math.pi ** 2 / 3.0 + 1.0) * slack
