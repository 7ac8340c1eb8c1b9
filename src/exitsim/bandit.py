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

from .cascade import exit_counts, exit_layer_indices, running_max, speedup_ratio
from .staging import check_format, read_json, staged, write_json
from .synth import (
    IMAGE_CHUNK,
    SyntheticConfidenceModel,
    TraceBatch,
    check_traces,
    confidence_blocks,
    distort,
    draw_tokens,
    finish_tokens,
)

STATE_FORMAT = "exitsim-bandit-state"
STATE_VERSION = 1

# The oracle has its own fixed default seed: its verdict on which arm is
# best is a property of the model, not of any particular run's seed.
ORACLE_SEED = 1000003


class BanditError(RuntimeError):
    """Bandit state misuse: a non-finite state to save."""


@dataclass(frozen=True)
class ActionSet:
    """Strictly increasing grid of candidate exit thresholds in [0, 1]."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("action set must contain at least one threshold")
        for a in self.thresholds:
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"threshold {a!r} outside [0, 1]")
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


@dataclass
class BanditState:
    """Per-arm running means and pull counts plus the round counter."""

    actions: ActionSet
    q: list[float]
    pulls: list[int]
    t: int
    gamma: float

    def __post_init__(self) -> None:
        k = len(self.actions)
        if len(self.q) != k or len(self.pulls) != k:
            raise ValueError(
                f"state arrays must match the {k}-arm action set"
            )
        check_gamma(self.gamma)
        if not all(math.isfinite(x) for x in self.q):
            raise ValueError(f"q values must be finite, got {self.q}")
        if self.t < 0 or any(n < 0 for n in self.pulls):
            raise ValueError("counters must be nonnegative")

    @classmethod
    def fresh(cls, actions: ActionSet, gamma: float = 1.0) -> "BanditState":
        k = len(actions)
        return cls(actions, [0.0] * k, [0] * k, 0, gamma)

    def to_snapshot(self) -> dict:
        return {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "thresholds": list(self.actions.thresholds),
            "q": list(self.q),
            "pulls": list(self.pulls),
            "t": self.t,
            "gamma": self.gamma,
        }

    @classmethod
    def from_snapshot(cls, snapshot: object) -> "BanditState":
        """Rebuild a state from ``to_snapshot`` output.  What ``check_format``
        refuses, a missing key, a field of the wrong type or a count that
        is not an integer raises ValueError naming the key."""
        check_format(snapshot, STATE_FORMAT, STATE_VERSION, ValueError)
        thresholds = _snapshot_field(snapshot, "thresholds", float, True)
        return cls(
            actions=ActionSet(tuple(thresholds)),
            q=_snapshot_field(snapshot, "q", float, True),
            pulls=_snapshot_field(snapshot, "pulls", int, True),
            t=_snapshot_field(snapshot, "t", int),
            gamma=_snapshot_field(snapshot, "gamma", float),
        )

    def save(self, path: str) -> None:
        """Write the snapshot as JSON, staged beside ``path``: a non-finite
        value raises BanditError and a failed write leaves the previous
        file whole, and neither leaves a temporary file."""
        with staged(path) as (temp,):
            write_json(temp, self.to_snapshot(), BanditError, indent=2)

    @classmethod
    def load(cls, path: str) -> "BanditState":
        """Read a ``save`` file; contents that do not rebuild a state,
        bytes that do not parse as JSON included, raise ValueError."""
        return cls.from_snapshot(read_json(path, ValueError))


def _snapshot_field(snapshot: dict, key: str, kind: type, many: bool = False):
    """``snapshot[key]`` as a ``kind`` (int, or float from any JSON
    number), or as a list of them when ``many``.  Booleans are not
    numbers here; anything else raises ValueError naming the key."""
    if key not in snapshot:
        raise ValueError(f"bandit state snapshot has no {key!r}")
    value = snapshot[key]
    if many != isinstance(value, list):
        shape = "a list" if many else "one number"
        raise ValueError(f"{key}: expected {shape}, got {type(value).__name__}")
    numbers = (int,) if kind is int else (int, float)
    out = []
    for x in value if many else [value]:
        if isinstance(x, bool) or not isinstance(x, numbers):
            raise ValueError(f"{key}: expected {kind.__name__}, got {x!r}")
        try:
            out.append(kind(x))
        except OverflowError:
            raise ValueError(f"{key}: number out of range") from None
    return out if many else out[0]


def _ucb_index(state: BanditState) -> int:
    """Index of the arm with the largest Q + gamma * sqrt(ln t / pulls);
    ties go to the smallest.  Every arm must have been pulled.  A scan
    over one arm always picks it, so a one-arm state skips the index."""
    q, pulls, gamma = state.q, state.pulls, state.gamma
    if len(q) == 1:
        return 0
    log_t = math.log(state.t)
    best_index = 0
    best_value = -math.inf
    for k in range(len(q)):
        value = q[k] + gamma * math.sqrt(log_t / pulls[k])
        if value > best_value:
            best_value = value
            best_index = k
    return best_index


def _fold(state: BanditState, k: int, observed_reward: float) -> None:
    state.pulls[k] += 1
    state.q[k] += (observed_reward - state.q[k]) / state.pulls[k]
    state.t += 1


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
) -> BanditState:
    """Pull every arm of ``cell`` once, arm k on row k of its first
    chunk's ``table``, into a fresh state and the cell's histogram and
    reward sum, appending each round to ``rows`` unless it is None: each
    Q is then one observed reward, as the selection rule needs before its
    first real round."""
    state = BanditState.fresh(cell.actions, gamma)
    exits, _, rewards, width = table
    for k, alpha in enumerate(cell.actions.thresholds):
        i = k * width + k
        _fold(state, k, rewards[i])
        cell.hist[exits[i]] += 1
        cell.reward_sum += rewards[i]
        if rows is not None:
            rows.append((state.t, alpha, exits[i] + 1, rewards[i]))
    return state


@dataclass
class AdaptiveCell:
    """One policy's run over a command's shared image stream, finished at
    distortion level ``sigma``.

    A cell keeps running aggregates: its exit histogram, reward sum,
    hits and emitted count.  With a ``sink`` it also hands over every
    round, initialization included: one call per chunk, with a list of
    ``(t, arm, exit layer, reward)`` rows in round order, t counting from
    1 and the exit layer from 1.  The cell holds no round past its chunk,
    so its memory stays bounded and a command's cells can all run at once.
    """

    actions: ActionSet
    params: RewardParams
    sigma: float
    sink: Callable[[list[tuple[int, float, int, float]]], object] | None = None
    state: BanditState | None = field(default=None, init=False)
    reward_sum: float = field(default=0.0, init=False)
    hits: int = field(default=0, init=False)
    emitted: int = field(default=0, init=False)
    hist: list[int] = field(init=False)  # exits per layer, index 0 = layer 1

    def __post_init__(self) -> None:
        self.hist = [0] * self.params.n_layers

    def done(self, tokens: int) -> bool:
        return self.state is not None and self.state.t >= tokens

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
        first image on ``initialize``.  A chunk whose depth is not the
        reward schedule's raises ValueError before any round."""
        conf = batch.confidences
        alphas = self.actions.thresholds
        table = _arm_table(conf, batch.token_ids, np.asarray(alphas), self.params)
        exits, emitted, rewards, width = table
        rows = None if self.sink is None else []
        start = 0
        if self.state is None:
            # Called through the module global: bench/tracer.py counts init rounds here.
            self.state = initialize(self, table, gamma, rows)
            start = max_len
        state = self.state
        counts = self.hist
        reward_sum, hits, n_emitted = self.reward_sum, self.hits, self.emitted
        targets = batch.targets.tolist()
        # The round kernel: one UCB round per token of each image, until
        # an emitted eos, the length cap or the token budget.
        for lo in range(start, len(conf), max_len):
            if state.t >= tokens:
                break
            for row in range(lo, lo + min(max_len, tokens - state.t)):
                k = _ucb_index(state)
                i = row * width + k
                _fold(state, k, rewards[i])
                counts[exits[i]] += 1
                reward_sum += rewards[i]
                hits += emitted[i] == targets[row]
                n_emitted += 1
                if rows is not None:
                    rows.append((state.t, alphas[k], exits[i] + 1, rewards[i]))
                if emitted[i] == eos_id:
                    break
        self.reward_sum, self.hits, self.emitted = reward_sum, hits, n_emitted
        if rows:
            self.sink(rows)

    def metrics(self) -> dict:
        return {
            "speedup": speedup_ratio(self.hist),
            "accuracy": self.hits / self.emitted,
            "mean_reward": self.reward_sum / self.state.t,
        }


def check_max_len(max_len: int, arms: int) -> None:
    """Refuse images too short to initialize ``arms`` arms: initialization
    plays arm k on token k of the first image."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if max_len < arms:
        raise ValueError(f"max_len must cover one token per arm: {max_len} < {arms}")


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
    time; ``base``'s own ``sigma`` is never read, as the draw holds none.
    Each chunk is finished and validated once per distortion level of a
    cell still under budget (``distort(base, cell.sigma)``, equal levels
    grouped in first-seen order) and fed to each such cell of that level.
    So every cell sees the images a run of its own over the stream would,
    whatever its policy.  Accuracy is scored against the targets of
    those images.

    Initialization plays arm k on token k of the first image, so a
    ``max_len`` or ``tokens`` below any cell's arm count raises
    ValueError before the first draw, and so does a cell's negative
    ``sigma``.  A cell whose reward schedule's depth differs from its
    model's raises ValueError on the first chunk, before any round.
    """
    arms = max((len(cell.actions) for cell in cells), default=1)
    check_max_len(max_len, arms)
    if tokens < arms:
        raise ValueError(f"tokens must cover one pull per arm: {tokens} < {arms}")
    levels = {}
    for cell in cells:
        levels.setdefault(cell.sigma, []).append(cell)
    groups = [(distort(base, sigma), group) for sigma, group in levels.items()]
    rng = base.stream_rng(0)
    start_id = 0
    while not all(cell.done(tokens) for cell in cells):
        draws = draw_tokens(base, max_len, rng, IMAGE_CHUNK)
        for model, group in groups:
            playing = [cell for cell in group if not cell.done(tokens)]
            if playing:
                batch = finish_tokens(model, draws)
                label = f"images {start_id}-{start_id + IMAGE_CHUNK - 1}"
                check_traces(label, batch, model.vocab_size)
                for cell in playing:
                    cell.play(batch, gamma, tokens, max_len, model.eos_id)
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
    independent of run seeds, and ``base``'s own ``sigma`` is never read.
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
