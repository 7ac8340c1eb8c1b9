"""Synthetic confidence-trace generator and the on-disk trace format.

The generator is a stand-in for a real layered captioner.  Per token it
draws a difficulty d; each layer i's confidence is a logistic squash of
a score that rises with depth past d at rate ``growth``, but the score
is capped at a token-specific ceiling: some tokens keep refining toward
certainty while the rest stall at a plateau.  The distortion level
``sigma`` lowers every layer's score and pushes the ceilings further
down, so distorted inputs both look less confident everywhere and stop
improving earlier.  That second effect is what moves the best exit
threshold when distortion rises, and it is the signal the online
threshold adapter exploits.

Trace files are line-delimited text so external decoders can export
real traces into the same pipeline.  See ``write_traces`` for the
field-by-field layout.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cascade import DEFAULT_MAX_CAPTION_LENGTH, TraceValidationError
from .staging import staged

DEFAULT_SEED = 7

# Images drawn and finished together by ``image_stream``.
IMAGE_CHUNK = 64

FORMAT_NAME = "exitsim-traces"
FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file failed structural validation; message cites the line."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, e = exp(-|z|),
    so neither tail overflows.  Written over ``z``."""
    positive = z >= 0
    e = np.abs(z, out=z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, positive, out=e)  # 1 where z >= 0, since e <= 1
    e /= d
    return e


@dataclass(frozen=True)
class SyntheticConfidenceModel:
    """Distribution over per-token confidence traces.

    Layer i's score starts at growth * (i - d) for a difficulty d drawn
    uniformly from [difficulty_low, difficulty_high].  A clean_fraction
    of tokens refine indefinitely; the rest stall at a ceiling whose
    logit is gaussian around logit(ceiling_center).  Distortion sigma
    subtracts base_drop_rate * sigma from every layer's score and an
    extra ceiling_drop_rate * sigma from the ceilings.  Confidence is
    the logistic squash of the capped, shifted, noise-jittered score.

    Each layer also emits a token id: the true target with probability
    equal to that layer's confidence (one shared uniform per token, so
    correctness is consistent across layers), else a per-token wrong
    guess.  Calibrated heads make exact-match accuracy track the
    confidence an exit actually banked.
    """

    n_layers: int = 12
    vocab_size: int = 32
    growth: float = 1.4
    difficulty_low: float = 1.0
    difficulty_high: float = 12.0
    noise_scale: float = 0.05
    clean_fraction: float = 0.4
    ceiling_center: float = 0.91
    ceiling_spread: float = 0.35
    ceiling_drop_rate: float = 0.6
    base_drop_rate: float = 0.25
    sigma: float = 0.0
    eos_prob: float = 0.08
    eos_id: int = 0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):  # annotations are strings here
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.n_layers < 2:
            raise ValueError(f"n_layers must be >= 2, got {self.n_layers}")
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.growth <= 0:
            raise ValueError(f"growth must be positive, got {self.growth}")
        if self.difficulty_low > self.difficulty_high:
            raise ValueError(
                f"difficulty_low {self.difficulty_low} > difficulty_high "
                f"{self.difficulty_high}"
            )
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if not 0.0 <= self.clean_fraction <= 1.0:
            raise ValueError(
                f"clean_fraction {self.clean_fraction} outside [0, 1]"
            )
        if not 0.0 < self.ceiling_center < 1.0:
            raise ValueError(
                f"ceiling_center {self.ceiling_center} outside (0, 1)"
            )
        if self.ceiling_spread < 0:
            raise ValueError(
                f"ceiling_spread must be >= 0, got {self.ceiling_spread}"
            )
        if self.ceiling_drop_rate < 0 or self.base_drop_rate < 0:
            raise ValueError("distortion drop rates must be >= 0")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.eos_prob <= 1.0:
            raise ValueError(f"eos_prob {self.eos_prob} outside [0, 1]")
        if not 0 <= self.eos_id < self.vocab_size:
            raise ValueError(
                f"eos_id {self.eos_id} outside [0, {self.vocab_size})"
            )

    def stream_rng(self, offset: int = 0) -> np.random.Generator:
        """Independent deterministic stream derived from the model seed."""
        return np.random.default_rng((self.seed, offset))

    def confidence_matrix(self, n_tokens: int, rng: np.random.Generator) -> np.ndarray:
        """Sample an (n_tokens, n_layers) block of confidences only."""
        return next(confidence_matrices([self], n_tokens, rng))


def distort(model: SyntheticConfidenceModel, sigma: float) -> SyntheticConfidenceModel:
    """Copy of ``model`` at a new distortion level, all else unchanged."""
    return dataclasses.replace(model, sigma=sigma)


class TokenDraws(NamedTuple):
    """The stream's random variates for a block of tokens, one row each.

    Nothing here depends on the distortion level ``sigma``, so one draw
    can be finished (``finish_tokens``) at any number of levels of the
    model it was drawn from.  The last four fields are None when only
    confidences were drawn.
    """

    difficulty: np.ndarray  # (n,) uniform on [difficulty_low, difficulty_high]
    clean: np.ndarray  # (n,) bool: the token refines without a ceiling
    ceiling_jitter: np.ndarray  # (n,) standard normal
    noise: np.ndarray  # (n, N) normal with sd noise_scale
    u_correct: np.ndarray | None = None  # (n,) uniform
    is_eos: np.ndarray | None = None  # (n,) bool
    nominal: np.ndarray | None = None  # (n,) non-eos candidate targets
    wrong: np.ndarray | None = None  # (n,) wrong-guess candidates


def _draw_block(
    model: SyntheticConfidenceModel,
    n_tokens: int,
    rng: np.random.Generator,
    token_ids: bool = True,
) -> TokenDraws:
    # Draw order is part of the stream contract: difficulty, clean mask,
    # ceiling jitter, layer noise, then the correctness uniform, eos mask,
    # nominal targets and wrong guesses.  Tests pin stream content by seed.
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    difficulty = rng.uniform(model.difficulty_low, model.difficulty_high, n_tokens)
    clean = rng.random(n_tokens) < model.clean_fraction
    ceiling_jitter = rng.normal(0.0, 1.0, n_tokens)
    noise = rng.normal(0.0, model.noise_scale, (n_tokens, model.n_layers))
    if not token_ids:
        return TokenDraws(difficulty, clean, ceiling_jitter, noise)
    u_correct = rng.random(n_tokens)
    is_eos = rng.random(n_tokens) < model.eos_prob
    nominal = rng.integers(1, model.vocab_size, n_tokens)
    wrong = rng.integers(1, model.vocab_size, n_tokens)
    return TokenDraws(
        difficulty, clean, ceiling_jitter, noise, u_correct, is_eos, nominal, wrong
    )


def draw_tokens(
    model: SyntheticConfidenceModel,
    n_tokens: int,
    rng: np.random.Generator,
    n_images: int = 1,
) -> TokenDraws:
    """Draw ``n_images`` blocks of ``n_tokens`` tokens, one block after
    another in stream order, stacked into one set of rows."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    blocks = [_draw_block(model, n_tokens, rng) for _ in range(n_images)]
    if n_images == 1:
        return blocks[0]
    return TokenDraws(*(np.concatenate(field) for field in zip(*blocks)))


def confidence_matrices(
    models: Sequence[SyntheticConfidenceModel],
    n_tokens: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """``model.confidence_matrix(n_tokens, rng)`` for each of ``models``,
    in turn, from one draw: the models may differ only in ``sigma``."""
    for model in models:
        if distort(model, models[0].sigma) != models[0]:
            raise ValueError(f"{model} differs from {models[0]} beyond sigma")
    draws = _draw_block(models[0], n_tokens, rng, token_ids=False)
    return (_confidences(model, draws).T for model in models)


def _confidences(model: SyntheticConfidenceModel, draws: TokenDraws) -> np.ndarray:
    """The drawn tokens' confidences at ``model``'s distortion level, as a
    fresh layer-major (layers, tokens) block."""
    layer_index = np.arange(1, model.n_layers + 1, dtype=float)
    rise = np.subtract(layer_index[:, None], draws.difficulty[None, :])
    rise *= model.growth
    center_logit = math.log(model.ceiling_center / (1.0 - model.ceiling_center))
    ceiling = (
        center_logit
        + model.ceiling_spread * draws.ceiling_jitter
        - model.sigma * model.ceiling_drop_rate
    )
    ceiling = np.where(draws.clean, np.inf, ceiling)
    z = np.minimum(rise, ceiling[None, :], out=rise)
    z -= model.sigma * model.base_drop_rate
    z += draws.noise.T
    return _sigmoid(z)


@dataclass(frozen=True)
class TraceBatch:
    """Vectorized block of sampled tokens: confidences, per-layer token
    ids, and the true target id per token."""

    confidences: np.ndarray  # (n, N) float64 in [0, 1]
    token_ids: np.ndarray  # (n, N) int64
    targets: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.confidences.shape[0]


def finish_tokens(model: SyntheticConfidenceModel, draws: TokenDraws) -> TraceBatch:
    """Turn drawn variates into tokens at ``model``'s distortion level.

    Every step is elementwise per row, so finishing a stack of blocks
    gives the rows that finishing each block alone would.  Per-layer
    token ids are consistent: one wrong guess per token, and a layer
    emits the true target iff a single per-token uniform falls under its
    confidence, so correctness is monotone in confidence.  Wrong guesses
    never use the eos id, keeping caption lengths governed by
    ``eos_prob`` alone.
    """
    conf = np.ascontiguousarray(_confidences(model, draws).T)
    v = model.vocab_size
    targets = np.where(draws.is_eos, model.eos_id, draws.nominal)
    collide = draws.wrong == targets
    wrong = np.where(collide, 1 + (draws.wrong % (v - 1)), draws.wrong)
    correct = draws.u_correct[:, None] < conf
    token_ids = np.where(correct, targets[:, None], wrong[:, None])
    return TraceBatch(
        confidences=conf,
        token_ids=token_ids.astype(np.int64),
        targets=targets.astype(np.int64),
    )


def check_traces(
    label: str, confidences: np.ndarray, token_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (tokens, layers) block of confidences and token ids:
    at least one token and two layers, matching shapes, confidences in
    [0, 1] and nonnegative integer ids.  Returns them as float64 and
    int64 arrays; errors name ``label`` and the 1-based token and layer.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    ids = np.asarray(token_ids)
    if conf.ndim != 2 or len(conf) < 1:
        raise ValueError(f"{label} has no traces")
    if conf.shape[1] < 2:
        raise TraceValidationError(
            f"{label}: traces need at least 2 layers, got {conf.shape[1]}"
        )
    if ids.shape != conf.shape:
        raise TraceValidationError(
            f"{label}: {conf.shape} confidences vs {ids.shape} token ids"
        )
    if not np.issubdtype(ids.dtype, np.integer):
        raise TraceValidationError(
            f"{label}: token ids must be integers, got {ids.dtype}"
        )
    in_range = (conf >= 0.0) & (conf <= 1.0)  # False for NaN
    if not in_range.all():
        tok, layer = np.argwhere(~in_range)[0]
        raise TraceValidationError(
            f"{label}: token {tok + 1} layer {layer + 1} confidence "
            f"{float(conf[tok, layer])!r} outside [0, 1]"
        )
    if ids.min() < 0:
        tok, layer = np.argwhere(ids < 0)[0]
        raise TraceValidationError(
            f"{label}: token {tok + 1} layer {layer + 1} token id "
            f"{int(ids[tok, layer])} is negative"
        )
    return conf, ids.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class ImageTraces:
    """One image's token traces, with true targets when known.

    This is the record type of the trace file format and of
    ``image_stream``, and it seeds the bandit's initialization.  The
    traces are held as two (tokens, layers) arrays: per-layer
    confidences and per-layer token ids.
    ``targets`` is None for corpora exported without reference tokens;
    accuracy metrics are then unavailable.
    """

    image_id: int | str
    confidences: np.ndarray  # (T, N) float64 in [0, 1]
    token_ids: np.ndarray  # (T, N) int64, nonnegative
    targets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        conf, ids = check_traces(
            f"image {self.image_id!r}", self.confidences, self.token_ids
        )
        if self.targets is not None and len(self.targets) != len(conf):
            raise ValueError(
                f"image {self.image_id!r}: {len(self.targets)} targets vs "
                f"{len(conf)} traces"
            )
        # Read-only views of the given arrays, not copies: callers hand
        # over arrays they no longer write to.
        conf = conf.view()
        ids = ids.view()
        conf.flags.writeable = False
        ids.flags.writeable = False
        object.__setattr__(self, "confidences", conf)
        object.__setattr__(self, "token_ids", ids)

    def __len__(self) -> int:
        return self.confidences.shape[0]

    @property
    def n_layers(self) -> int:
        return self.confidences.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImageTraces):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.targets == other.targets
            and np.array_equal(self.confidences, other.confidences)
            and np.array_equal(self.token_ids, other.token_ids)
        )


def image_stream(
    model: SyntheticConfidenceModel,
    rng: np.random.Generator,
    max_len: int = DEFAULT_MAX_CAPTION_LENGTH,
) -> Iterator[ImageTraces]:
    """Endless stream of freshly sampled images with ids 0, 1, 2, ...

    Images are drawn ``IMAGE_CHUNK`` at a time and finished together;
    each is the image a one-image ``draw_tokens`` would give at that
    point of the stream, and holds read-only views of its chunk's rows.  The
    generator therefore runs up to one chunk ahead of its consumer on
    ``rng``.
    """
    image_id = 0
    while True:
        batch = finish_tokens(model, draw_tokens(model, max_len, rng, IMAGE_CHUNK))
        targets = batch.targets.tolist()
        for lo in range(0, len(batch), max_len):
            yield ImageTraces(
                image_id=image_id,
                confidences=batch.confidences[lo : lo + max_len],
                token_ids=batch.token_ids[lo : lo + max_len],
                targets=tuple(targets[lo : lo + max_len]),
            )
            image_id += 1


# ---------------------------------------------------------------------------
# Trace file format
# ---------------------------------------------------------------------------
#
# Line 1 (header):   exitsim-traces <version> layers=<N> vocab=<V> source=<tag>
# Lines 2..:         <image_id> <T> <token fields> ...
#
# Each of the T token groups is one target field followed by N layer
# fields.  The target field is the true token id, or "-" when unknown.
# A layer field is "<confidence>:<token_id>" with the confidence printed
# to 17 significant digits, which round-trips IEEE-754 doubles exactly.
# Fields are separated by single spaces; one image per line.


@dataclass(frozen=True)
class TraceFileHeader:
    version: int
    n_layers: int
    vocab_size: int
    source: str


def _validate_image(
    image: ImageTraces, n_layers: int, vocab_size: int
) -> None:
    ident = str(image.image_id)
    if not ident or any(ch.isspace() for ch in ident):
        raise ValueError(f"image id {ident!r} is empty or contains whitespace")
    if image.n_layers != n_layers:
        raise ValueError(
            f"image {ident}: trace has {image.n_layers} layers, file "
            f"header says {n_layers}"
        )
    too_big = image.token_ids >= vocab_size
    if too_big.any():
        raise ValueError(
            f"image {ident}: token id {image.token_ids[too_big][0]} >= vocab "
            f"size {vocab_size}"
        )
    if image.targets is not None:
        for t in image.targets:
            if not 0 <= t < vocab_size:
                raise ValueError(
                    f"image {ident}: target {t} outside [0, {vocab_size})"
                )


def write_traces(
    path: str,
    images: Iterable[ImageTraces],
    n_layers: int,
    vocab_size: int,
    source: str = "synthetic",
) -> int:
    """Write images to ``path`` in the trace file format; returns the count.

    The file is staged beside ``path`` and renamed into place once
    complete, so a stream or image that raises leaves no file.
    """
    if not source or any(ch.isspace() for ch in source):
        raise ValueError(f"source tag {source!r} is empty or contains whitespace")
    count = 0
    with staged(path) as (temp,), open(temp, "w", encoding="ascii") as fh:
        fh.write(
            f"{FORMAT_NAME} {FORMAT_VERSION} layers={n_layers} "
            f"vocab={vocab_size} source={source}\n"
        )
        for image in images:
            _validate_image(image, n_layers, vocab_size)
            targets = image.targets or ("-",) * len(image)
            fields = [str(image.image_id), str(len(image))]
            for target, confs, ids in zip(
                targets, image.confidences.tolist(), image.token_ids.tolist()
            ):
                fields.append(str(target))
                fields.extend(f"{c:.17g}:{t}" for c, t in zip(confs, ids))
            fh.write(" ".join(fields) + "\n")
            count += 1
    return count


def _parse_header(line: str) -> TraceFileHeader:
    parts = line.split()
    if len(parts) != 5 or parts[0] != FORMAT_NAME:
        raise TraceFormatError(
            f"line 1: expected '{FORMAT_NAME} <version> layers=... vocab=... "
            f"source=...', got {line.strip()!r}"
        )
    try:
        version = int(parts[1])
    except ValueError:
        raise TraceFormatError(f"line 1: version {parts[1]!r} is not an integer")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"line 1: unsupported trace format version {version} "
            f"(this reader handles version {FORMAT_VERSION})"
        )
    values = {}
    for field, key in zip(parts[2:], ("layers", "vocab", "source")):
        prefix = key + "="
        if not field.startswith(prefix):
            raise TraceFormatError(
                f"line 1: expected field '{key}=...', got {field!r}"
            )
        values[key] = field[len(prefix):]
    try:
        n_layers = int(values["layers"])
        vocab_size = int(values["vocab"])
    except ValueError:
        raise TraceFormatError(
            f"line 1: layers/vocab must be integers, got "
            f"{values['layers']!r}/{values['vocab']!r}"
        )
    # Token ids, all below the vocab size, are read into int64 arrays.
    if n_layers < 2 or not 2 <= vocab_size <= 2**63:
        raise TraceFormatError(
            f"line 1: layers={n_layers} vocab={vocab_size} out of range"
        )
    return TraceFileHeader(version, n_layers, vocab_size, values["source"])


def _parse_image_line(
    line: str, lineno: int, header: TraceFileHeader
) -> ImageTraces:
    fields = line.split()
    n = header.n_layers
    if len(fields) < 2:
        raise TraceFormatError(
            f"line {lineno}: expected '<image_id> <n_tokens> ...', got "
            f"{line.strip()!r}"
        )
    image_id = fields[0]
    try:
        n_tokens = int(fields[1])
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}: token count {fields[1]!r} is not an integer"
        )
    if n_tokens < 1:
        raise TraceFormatError(f"line {lineno}: token count must be >= 1")
    expected = 2 + n_tokens * (1 + n)
    if len(fields) != expected:
        raise TraceFormatError(
            f"line {lineno}: expected {expected} fields for {n_tokens} tokens "
            f"of {n} layers, got {len(fields)}"
        )
    confidences: list[float] = []
    token_ids: list[int] = []
    targets: list[int | None] = []
    pos = 2
    for tok in range(n_tokens):
        raw_target = fields[pos]
        pos += 1
        if raw_target == "-":
            targets.append(None)
        else:
            try:
                target = int(raw_target)
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} target {raw_target!r} "
                    f"is not an integer"
                )
            if not 0 <= target < header.vocab_size:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} target {target} outside "
                    f"[0, {header.vocab_size})"
                )
            targets.append(target)
        for layer in range(n):
            field = fields[pos]
            pos += 1
            conf_s, sep, id_s = field.partition(":")
            if not sep:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} layer {layer + 1} field "
                    f"{field!r} is not '<confidence>:<token_id>'"
                )
            try:
                conf = float(conf_s)
                token_id = int(id_s)
            except ValueError:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} layer {layer + 1} field "
                    f"{field!r} has a malformed number"
                )
            if not 0.0 <= conf <= 1.0:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} layer {layer + 1} "
                    f"confidence {conf!r} outside [0, 1]"
                )
            if not 0 <= token_id < header.vocab_size:
                raise TraceFormatError(
                    f"line {lineno}: token {tok + 1} layer {layer + 1} token "
                    f"id {token_id} outside [0, {header.vocab_size})"
                )
            confidences.append(conf)
            token_ids.append(token_id)
    known = [t for t in targets if t is not None]
    if known and len(known) != n_tokens:
        raise TraceFormatError(
            f"line {lineno}: targets must be present for all tokens or none"
        )
    return ImageTraces(
        image_id=image_id,
        confidences=np.array(confidences).reshape(n_tokens, n),
        token_ids=np.array(token_ids, dtype=np.int64).reshape(n_tokens, n),
        targets=tuple(known) if known else None,
    )


def _ascii_lines(path: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of a trace file; a non-ASCII byte is a format error."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise TraceFormatError(f"line {lineno}: non-ASCII byte")
            yield lineno, line


def read_traces(path: str) -> Iterator[ImageTraces]:
    """Stream images from a trace file, validating as it goes.

    Raises TraceFormatError with a line number on any malformed record
    or non-ASCII byte, and rejects files written by unknown future format
    versions.
    """
    lines = _ascii_lines(path)
    _, first = next(lines, (1, ""))
    header = _parse_header(first)
    for lineno, line in lines:
        if line.strip():
            yield _parse_image_line(line, lineno, header)
