"""Online exit-threshold selection as a UCB bandit over a threshold grid.

Each token is one bandit round: pick a threshold, run the exit rule,
observe a reward that trades confidence gain over layer 1 against a
per-layer latency cost, and update the chosen arm's running mean.
Pseudo-regret is accounted against a Monte-Carlo oracle that evaluates
every arm on a common set of sampled traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cascade import (
    ExitHistogram,
    exit_counts,
    exit_layer_indices,
    running_max,
    speedup_ratio,
)
from .synth import (
    IMAGE_CHUNK,
    ImageTraces,
    SyntheticConfidenceModel,
    TraceBatch,
    check_traces,
    confidence_matrices,
    draw_tokens,
    finish_tokens,
)

STATE_FORMAT = "exitsim-bandit-state"
STATE_VERSION = 1

# The oracle has its own fixed default seed: its verdict on which arm is
# best is a property of the model, not of any particular run's seed.
ORACLE_SEED = 1000003


class BanditError(RuntimeError):
    """Bandit state misuse: an image too short to initialize on, or a
    non-finite state to save."""


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

    def index(self, alpha: float) -> int:
        try:
            return self.thresholds.index(alpha)
        except ValueError:
            raise ValueError(
                f"threshold {alpha!r} is not in the action set {self.thresholds}"
            ) from None


@dataclass(frozen=True)
class RewardParams:
    """Reward shape: confidence gain minus mu times the exit layer's latency.

    The latency schedule defaults to 0 for layer 1 and lam * i for every
    deeper layer i, so with mu = 1/N and lam = 1 rewards live in [-2, 1].
    """

    n_layers: int
    mu: float | None = None
    lam: float = 1.0
    latency: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_layers < 2:
            raise ValueError(f"n_layers must be >= 2, got {self.n_layers}")
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.mu is None:
            object.__setattr__(self, "mu", 1.0 / self.n_layers)
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be finite and positive, got {self.mu}")
        if self.latency is None:
            schedule = (0.0,) + tuple(
                self.lam * i for i in range(2, self.n_layers + 1)
            )
            object.__setattr__(self, "latency", schedule)
        if len(self.latency) != self.n_layers:
            raise ValueError(
                f"latency schedule has {len(self.latency)} entries for "
                f"{self.n_layers} layers"
            )
        if not all(math.isfinite(x) for x in self.latency):
            raise ValueError(f"latency schedule must be finite, got {self.latency}")
        if self.latency[0] != 0.0:
            raise ValueError(
                f"layer 1 latency must be 0, got {self.latency[0]!r}"
            )
        for lo, hi in zip(self.latency, self.latency[1:]):
            if hi < lo:
                raise ValueError("latency schedule must be nondecreasing")

    def bounds(self) -> tuple[float, float]:
        """Hard reward range [-1 - mu * o_N, 1]."""
        return (-1.0 - self.mu * self.latency[-1], 1.0)


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
        if not math.isfinite(self.gamma) or self.gamma < 1.0:
            raise ValueError(f"gamma must be finite and >= 1, got {self.gamma}")
        if not all(math.isfinite(x) for x in self.q):
            raise ValueError(f"q values must be finite, got {self.q}")
        if self.t < 0 or any(n < 0 for n in self.pulls):
            raise ValueError("counters must be nonnegative")

    @classmethod
    def fresh(cls, actions: ActionSet, gamma: float = 1.0) -> "BanditState":
        k = len(actions)
        return cls(actions, [0.0] * k, [0] * k, 0, gamma)

    @property
    def initialized(self) -> bool:
        return all(n >= 1 for n in self.pulls)

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
        """Rebuild a state from ``to_snapshot`` output.  A value that is
        not an object, a missing key, a field of the wrong type or a
        count that is not an integer raises ValueError naming the key."""
        if not isinstance(snapshot, dict):
            raise ValueError(
                f"bandit state snapshot must be a JSON object, got "
                f"{type(snapshot).__name__}"
            )
        if snapshot.get("format") != STATE_FORMAT:
            raise ValueError(
                f"not a bandit state snapshot: format "
                f"{snapshot.get('format')!r}"
            )
        if snapshot.get("version") != STATE_VERSION:
            raise ValueError(
                f"unsupported bandit state version {snapshot.get('version')!r} "
                f"(this reader handles version {STATE_VERSION})"
            )
        thresholds = _snapshot_field(snapshot, "thresholds", float, True)
        return cls(
            actions=ActionSet(tuple(thresholds)),
            q=_snapshot_field(snapshot, "q", float, True),
            pulls=_snapshot_field(snapshot, "pulls", int, True),
            t=_snapshot_field(snapshot, "t", int),
            gamma=_snapshot_field(snapshot, "gamma", float),
        )

    def save(self, path: str) -> None:
        """Write the snapshot as JSON; a non-finite value raises BanditError
        and leaves no file."""
        try:
            text = json.dumps(
                self.to_snapshot(), indent=2, sort_keys=True, allow_nan=False
            )
        except ValueError as exc:
            raise BanditError(f"bandit state is not finite: {exc}") from None
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")

    @classmethod
    def load(cls, path: str) -> "BanditState":
        """Read a ``save`` file; contents that do not rebuild a state,
        nesting too deep to parse included, raise ValueError."""
        with open(path, "r", encoding="ascii") as fh:
            try:
                snapshot = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_snapshot(snapshot)


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


@dataclass
class BanditLog:
    """Per-round record of (t, arm, exit layer, reward)."""

    rounds: list[int] = field(default_factory=list)
    arms: list[float] = field(default_factory=list)
    exit_layers: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)

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


def initialize(
    actions: ActionSet,
    image: ImageTraces,
    params: RewardParams,
    gamma: float = 1.0,
    log: BanditLog | None = None,
) -> BanditState:
    """Play every arm exactly once: arm k on token k of ``image``.

    After this the round counter equals the arm count and every arm's Q
    is its single observed reward, which is what the selection rule
    needs before its first real round.  An image with fewer tokens than
    arms raises BanditError, and one whose depth is not
    ``params.n_layers`` raises ValueError.
    """
    if len(image) < len(actions):
        raise BanditError(
            f"image {image.image_id!r} has {len(image)} tokens: initialization "
            f"needs one per arm ({len(actions)})"
        )
    state = BanditState.fresh(actions, gamma)
    exits, _, rewards, width = _arm_table(
        image.confidences, image.token_ids, np.asarray(actions.thresholds), params
    )
    for k, alpha in enumerate(actions.thresholds):
        i = k * width + k
        _fold(state, k, rewards[i])
        if log is not None:
            log.append(state.t, alpha, exits[i] + 1, rewards[i])
    return state


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


@dataclass
class AdaptiveCell:
    """One policy's run over a command's shared image stream.

    A cell keeps running aggregates: its exit histogram, reward sum,
    hits and emitted count.  With a ``log`` it also records every round,
    initialization included; without one its memory stays bounded, so a
    command's cells can all run at once.
    """

    actions: ActionSet
    params: RewardParams
    log: BanditLog | None = None
    state: BanditState | None = field(default=None, init=False)
    reward_sum: float = field(default=0.0, init=False)
    hits: int = field(default=0, init=False)
    emitted: int = field(default=0, init=False)
    hist: ExitHistogram = field(init=False)

    def __post_init__(self) -> None:
        self.hist = ExitHistogram.empty(self.params.n_layers)

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
        validated chunk until its token budget; the first image of a new
        run goes to ``initialize``.  A chunk whose depth is not the
        reward schedule's raises ValueError before any round."""
        conf, ids = batch.confidences, batch.token_ids
        alphas = self.actions.thresholds
        exits, emitted, rewards, width = _arm_table(
            conf, ids, np.asarray(alphas), self.params
        )
        counts = self.hist.counts
        reward_sum, hits, n_emitted, log = (
            self.reward_sum, self.hits, self.emitted, self.log
        )
        start = 0
        if self.state is None:
            first = ImageTraces(0, conf[:max_len], ids[:max_len])
            # Called through the module global: bench/tracer.py counts init rounds here.
            self.state = initialize(self.actions, first, self.params, gamma, log)
            for k in range(width):  # arm k played on token k
                counts[exits[k * width + k]] += 1
                reward_sum += rewards[k * width + k]
            start = max_len
        state = self.state
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
                if log is not None:
                    log.append(state.t, alphas[k], exits[i] + 1, rewards[i])
                if emitted[i] == eos_id:
                    break
        self.reward_sum, self.hits, self.emitted = reward_sum, hits, n_emitted

    def metrics(self) -> dict:
        return {
            "speedup": speedup_ratio(self.hist),
            "accuracy": self.hits / self.emitted,
            "mean_reward": self.reward_sum / self.state.t,
        }


def run_lockstep(
    base: SyntheticConfidenceModel,
    groups: Sequence[tuple[SyntheticConfidenceModel, Sequence[AdaptiveCell]]],
    gamma: float,
    tokens: int,
    max_len: int,
) -> None:
    """Run every cell over one image stream of ``max_len``-token images
    until each has played ``tokens`` rounds.

    ``groups`` pairs each distortion level of ``base`` with the cells
    played at it.  The stream is drawn once from the base seed,
    ``IMAGE_CHUNK`` images at a time; each chunk is finished and
    validated once per group and fed to every cell of it still under
    budget.  So every cell sees the images a run of its own on
    ``image_stream`` would, whatever its policy.  Accuracy is scored
    against the targets of those images.

    Initialization plays arm k on token k of the first image, so a
    ``max_len`` below any cell's arm count raises ValueError before the
    first draw.  A cell whose reward schedule's depth differs from its
    model's raises ValueError on the first chunk, before any round.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    arms = max(
        (len(cell.actions) for _, cells in groups for cell in cells), default=1
    )
    if max_len < arms:
        raise ValueError(
            f"max_len must cover one token per arm: {max_len} < {arms}"
        )
    rng = base.stream_rng(0)
    start_id = 0
    while not all(cell.done(tokens) for _, cells in groups for cell in cells):
        draws = draw_tokens(base, max_len, rng, IMAGE_CHUNK)
        for model, cells in groups:
            playing = [cell for cell in cells if not cell.done(tokens)]
            if playing:
                batch = finish_tokens(model, draws)
                check_traces(
                    f"images {start_id}-{start_id + IMAGE_CHUNK - 1}",
                    batch.confidences,
                    batch.token_ids,
                )
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
        best = 0
        for k in range(1, len(self.thresholds)):
            if self.expected_rewards[k] > self.expected_rewards[best]:
                best = k
        return best

    @property
    def best_threshold(self) -> float:
        return self.thresholds[self.best_index]

    @property
    def gaps(self) -> tuple[float, ...]:
        top = self.expected_rewards[self.best_index]
        return tuple(top - e for e in self.expected_rewards)

    def expected(self, alpha: float) -> float:
        return self.expected_rewards[ActionSet(self.thresholds).index(alpha)]

    def gap(self, alpha: float) -> float:
        return self.gaps[ActionSet(self.thresholds).index(alpha)]


def expected_reward_oracle(
    model,
    actions: ActionSet,
    params: RewardParams,
    samples: int = 200_000,
    seed: int = ORACLE_SEED,
) -> OracleEstimate:
    """Monte-Carlo estimate of every arm's expected reward.

    ``model`` needs a ``confidence_matrix(n, rng)`` method.  All arms are
    evaluated on the same sampled traces (common random numbers), so arm
    comparisons are paired and the argmax is stable at moderate sample
    counts.  The seed is deliberately independent of run seeds.
    """
    _check_samples(samples)
    conf = model.confidence_matrix(samples, np.random.default_rng(seed))
    # Scored on a layer-major copy: the model's matrix is left as it was.
    return _oracle_estimates(np.array(conf.T, order="C"), actions, [params])[0]


def shared_oracles(
    models: Sequence[SyntheticConfidenceModel],
    actions: ActionSet,
    params: Sequence[RewardParams],
    samples: int = 200_000,
    seed: int = ORACLE_SEED,
) -> list[list[OracleEstimate]]:
    """``expected_reward_oracle`` for every model and reward shape, from
    one draw of the oracle's variates: ``result[i][j]`` is the estimate
    for ``models[i]`` under ``params[j]``.  The models may differ only in
    ``sigma``; each model's running max is built once.
    """
    _check_samples(samples)
    estimates = []
    for conf in confidence_matrices(models, samples, np.random.default_rng(seed)):
        # conf is the transpose of a fresh layer-major block: scored in place.
        estimates.append(_oracle_estimates(conf.T, actions, params))
        del conf  # freed before the next matrix is finished
    return estimates


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _oracle_estimates(
    block: np.ndarray,
    actions: ActionSet,
    params: Sequence[RewardParams],
) -> list[OracleEstimate]:
    """Every arm's mean reward under each of ``params`` over a layer-major
    (layers, samples) confidence block, which is overwritten: its first
    L - 1 rows become their running max.  At a token's first clearing
    layer the running max is that layer's own confidence, and the final
    row and layer 1 keep theirs, so each arm's banked confidences are
    one gather from the block at its exits."""
    for p in params:
        _check_layers(block.T, p)
    block = np.ascontiguousarray(block)
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


def regret_curve(log: BanditLog, oracle: OracleEstimate) -> np.ndarray:
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
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ValueError(f"gamma must be finite and >= 1, got {gamma}")
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
