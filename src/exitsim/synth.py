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
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cascade import TraceFormatError

DEFAULT_SEED = 7

# Images drawn and finished together, and read from a trace file together.
IMAGE_CHUNK = 64

# The target of a token whose true id is unknown: "-" in a trace file.
NO_TARGET = -1

# Tokens per block when ``confidence_matrix`` fills its matrix.
_MATRIX_SPAN = 4096

# The most float64 elements one array can hold: numpy needs its byte
# count to fit an intp.
MAX_FLOATS = np.iinfo(np.intp).max // 8

# Bounds a score term's largest multiple of its scale: a standard normal
# draw from numpy's ziggurat stays within 14, and rounding adds little.
_SCORE_HEADROOM = 64.0

FORMAT_NAME = "exitsim-traces"
FORMAT_VERSION = 1


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
    logit is gaussian around logit(ceiling_center).  A distortion level
    sigma, an argument of the finishing step and not a field, subtracts
    base_drop_rate * sigma from every layer's score and an extra
    ceiling_drop_rate * sigma from the ceilings.  Confidence is the
    logistic squash of the capped, shifted, noise-jittered score.

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
        if not math.isfinite(self.difficulty_high - self.difficulty_low):
            raise ValueError(
                f"difficulty range [{self.difficulty_low}, {self.difficulty_high}] "
                f"must have a finite width"
            )
        # A score term that a draw scales stays finite, so only the drops
        # can overflow.  They push a score to -inf, confidence 0, where
        # two infinities of opposite sign would meet as NaN.
        rise = self.growth * max(
            self.n_layers - self.difficulty_low, self.difficulty_high - 1
        )
        for name, scale in (
            ("growth * (layer - difficulty)", rise),
            ("ceiling_spread", self.ceiling_spread),
            ("noise_scale", self.noise_scale),
        ):
            if not math.isfinite(scale * _SCORE_HEADROOM):
                raise ValueError(f"{name} can overflow a confidence score: {scale!r}")
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
        if not 0.0 <= self.eos_prob <= 1.0:
            raise ValueError(f"eos_prob {self.eos_prob} outside [0, 1]")
        if not 0 <= self.eos_id < self.vocab_size:
            raise ValueError(
                f"eos_id {self.eos_id} outside [0, {self.vocab_size})"
            )

    def stream_rng(self, offset: int = 0) -> np.random.Generator:
        """Independent deterministic stream derived from the model seed."""
        return np.random.default_rng((self.seed, offset))

    def confidence_matrix(
        self, sigma: float, n_tokens: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a C-contiguous (n_tokens, n_layers) matrix of confidences
        only, at distortion level ``sigma``: ``confidence_blocks`` of
        ``_MATRIX_SPAN`` tokens, each transposed into place, which gives
        the bits of one span."""
        spans = [
            min(_MATRIX_SPAN, n_tokens - lo) for lo in range(0, n_tokens, _MATRIX_SPAN)
        ]
        # A count below 1 is refused by the draw, at the first block.
        out = np.empty((max(n_tokens, 0), self.n_layers))
        lo = 0
        blocks = confidence_blocks(self, [sigma], n_tokens, rng, spans)
        for block, span in zip(blocks, spans):
            out[lo : lo + span] = block.T
            lo += span
        return out


def check_sigma(sigma: float) -> None:
    """Refuse a distortion level that is not a finite number >= 0."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")


class TokenDraws(NamedTuple):
    """The stream's random variates for a block of tokens, one row each.

    Nothing here depends on the distortion level ``sigma``, so one draw
    can be finished (``finish_tokens``) at any number of levels.
    """

    difficulty: np.ndarray  # (n,) uniform on [difficulty_low, difficulty_high]
    clean: np.ndarray  # (n,) bool: the token refines without a ceiling
    ceiling_jitter: np.ndarray  # (n,) standard normal
    noise: np.ndarray  # (n, N) normal with sd noise_scale
    u_correct: np.ndarray  # (n,) uniform
    is_eos: np.ndarray  # (n,) bool
    nominal: np.ndarray  # (n,) non-eos candidate targets
    wrong: np.ndarray  # (n,) wrong-guess candidates


def _check_tokens(n_tokens: int, n_layers: int) -> None:
    """Refuse a draw of fewer than 1 token, or of more (tokens, layers)
    floats than one array can hold, before any allocation: numpy would
    raise ValueError, not MemoryError."""
    if n_tokens < 1:
        raise ValueError(f"n_tokens must be >= 1, got {n_tokens}")
    if n_tokens * n_layers > MAX_FLOATS:
        raise MemoryError(f"{n_tokens} tokens of {n_layers} layers cannot fit")


def _token_variates(
    model: SyntheticConfidenceModel,
    u_difficulty: np.ndarray,
    u_clean: np.ndarray,
    z_jitter: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difficulty, clean mask and ceiling jitter, flattened, from their
    standard uniforms and normals.  Numpy's ``uniform(low, high)`` is
    ``low + (high - low) * U`` and its ``normal(loc, scale)`` is ``loc +
    scale * Z``, so these are the bits those calls would draw.  Written
    over ``u_difficulty`` and ``z_jitter``."""
    low, high = float(model.difficulty_low), float(model.difficulty_high)
    u_difficulty *= high - low
    u_difficulty += low
    z_jitter += 0.0  # normal(0.0, 1.0): 0.0 + 1.0 * Z turns -0.0 into 0.0
    clean = u_clean < model.clean_fraction
    return u_difficulty.reshape(-1), clean.reshape(-1), z_jitter.reshape(-1)


def draw_tokens(
    model: SyntheticConfidenceModel,
    n_tokens: int,
    rng: np.random.Generator,
    n_images: int = 1,
) -> TokenDraws:
    """Draw ``n_images`` blocks of ``n_tokens`` tokens, one block after
    another in stream order, stacked into one set of rows.  The stream
    contract draws the fields in ``TokenDraws`` order, one call each; a
    block's five calls draw those variates, pinned by seed in the tests:
    uniforms for the difficulty and clean mask, normals for the jitter
    and layer noise, uniforms for correctness and eos, then the two
    ``integers`` fields."""
    if n_images < 1:
        raise ValueError(f"n_images must be >= 1, got {n_images}")
    n, layers = n_tokens, model.n_layers
    _check_tokens(n, layers)
    if n_images * n * (layers + 1) > MAX_FLOATS:  # the chunk's normals
        raise MemoryError(
            f"{n_images} images of {n} tokens of {layers} layers cannot fit"
        )
    first = np.empty((n_images, 2, n))
    normals = np.empty((n_images, n * (layers + 1)))
    last = np.empty((n_images, 2, n))
    nominal = np.empty((n_images, n), np.int64)
    wrong = np.empty((n_images, n), np.int64)
    for i in range(n_images):
        rng.random(out=first[i])
        rng.standard_normal(out=normals[i])
        rng.random(out=last[i])
        nominal[i] = rng.integers(1, model.vocab_size, n)
        wrong[i] = rng.integers(1, model.vocab_size, n)
    noise = float(model.noise_scale) * normals[:, n:]
    noise += 0.0  # normal(0.0, scale) is 0.0 + scale * Z
    rest = (last[:, 0], last[:, 1] < model.eos_prob, nominal, wrong)
    return TokenDraws(
        *_token_variates(model, first[:, 0], first[:, 1], normals[:, :n]),
        noise.reshape(-1, layers), *(field.reshape(-1) for field in rest),
    )


def confidence_blocks(
    base: SyntheticConfidenceModel,
    sigmas: Sequence[float],
    n_tokens: int,
    rng: np.random.Generator,
    spans: Iterable[int],
) -> Iterator[np.ndarray]:
    """One draw of ``n_tokens`` tokens of ``base``, its confidences at
    each of ``sigmas`` as layer-major (layers, span) blocks: for each of
    ``spans``, token counts summing to ``n_tokens``, one block per level.
    The layer noise is drawn a span at a time, which gives the bits of one
    (n_tokens, layers) draw."""
    _check_tokens(n_tokens, base.n_layers)
    # Drawn left to right, in stream order; the frame keeps no raw draw.
    variates = _token_variates(
        base, rng.random(n_tokens), rng.random(n_tokens), rng.standard_normal(n_tokens)
    )
    lo = 0
    for span in spans:
        rows = [v[lo : lo + span] for v in variates]
        noise = rng.normal(0.0, base.noise_scale, (span, base.n_layers))
        for sigma in sigmas:
            yield _confidences(base, sigma, *rows, noise)
        lo += span


def _confidences(
    model: SyntheticConfidenceModel,
    sigma: float,
    difficulty: np.ndarray,
    clean: np.ndarray,
    ceiling_jitter: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """The confidences of drawn tokens (``TokenDraws``' first four fields)
    at distortion level ``sigma``, which ``check_sigma`` must pass, as a
    fresh layer-major (layers, tokens) block."""
    check_sigma(sigma)
    layer_index = np.arange(1, model.n_layers + 1, dtype=float)
    rise = np.subtract.outer(layer_index, difficulty)
    rise *= model.growth
    center_logit = math.log(model.ceiling_center / (1.0 - model.ceiling_center))
    ceiling = (
        center_logit
        + model.ceiling_spread * ceiling_jitter
        - sigma * model.ceiling_drop_rate
    )
    ceiling = np.where(clean, np.inf, ceiling)
    z = np.minimum(rise, ceiling[None, :], out=rise)
    z -= sigma * model.base_drop_rate
    z += noise.T
    return _sigmoid(z)


@dataclass(frozen=True)
class TraceBatch:
    """Vectorized block of tokens: confidences, per-layer token ids, and
    the true target id per token (``NO_TARGET`` if unknown).  A block of
    a trace file also holds its images' ids and, in ``offsets``, each
    image's first row and then the row count."""

    confidences: np.ndarray  # (n, N) float64 in [0, 1]
    token_ids: np.ndarray  # (n, N) int64
    targets: np.ndarray  # (n,) int64
    image_ids: Sequence[int | str] = ()
    offsets: np.ndarray | None = None  # (images + 1,) int64

    def __len__(self) -> int:
        return self.confidences.shape[0]


def finish_tokens(
    model: SyntheticConfidenceModel, sigma: float, draws: TokenDraws
) -> TraceBatch:
    """Turn drawn variates into tokens at distortion level ``sigma``.

    Every step is elementwise per row, so finishing a stack of blocks
    gives the rows that finishing each block alone would.  Per-layer
    token ids are consistent: one wrong guess per token, and a layer
    emits the true target iff a single per-token uniform falls under its
    confidence, so correctness is monotone in confidence.  Wrong guesses
    never use the eos id, keeping caption lengths governed by
    ``eos_prob`` alone.
    """
    conf = np.ascontiguousarray(_confidences(model, sigma, *draws[:4]).T)
    v = model.vocab_size
    targets = np.where(draws.is_eos, model.eos_id, draws.nominal)
    collide = draws.wrong == targets
    wrong = np.where(collide, 1 + (draws.wrong % (v - 1)), draws.wrong)
    correct = draws.u_correct[:, None] < conf
    # int64 throughout: the draws' integers are, and so is every np.where.
    token_ids = np.where(correct, targets[:, None], wrong[:, None])
    return TraceBatch(confidences=conf, token_ids=token_ids, targets=targets)


def check_traces(label: str, batch: TraceBatch, vocab_size: int) -> None:
    """The one rule for traces: at least one token and two layers,
    matching shapes, confidences in [0, 1], integer token ids in [0,
    vocab_size), and integer targets in [0, vocab_size) or ``NO_TARGET``
    for all of an image's tokens or none.  A batch without offsets is one
    image.  Raises TraceFormatError naming a bad value's image (``label``
    if the batch has one, else ``image <id>``), 1-based token and layer.
    """
    conf, ids, targets = batch.confidences, batch.token_ids, batch.targets
    if conf.ndim != 2 or len(conf) < 1:
        raise TraceFormatError(f"{label} has no traces")
    if conf.shape[1] < 2:
        raise TraceFormatError(
            f"{label}: traces need at least 2 layers, got {conf.shape[1]}"
        )
    if ids.shape != conf.shape or targets.shape != conf.shape[:1]:
        raise TraceFormatError(
            f"{label}: {conf.shape} confidences vs {ids.shape} token ids and "
            f"{targets.shape} targets"
        )
    for kind, values in (("token ids", ids), ("targets", targets)):
        if not np.issubdtype(values.dtype, np.integer):
            raise TraceFormatError(
                f"{label}: {kind} must be integers, got {values.dtype}"
            )
    bounds = np.array([0, len(conf)]) if batch.offsets is None else batch.offsets
    vocab = f"outside the vocab [0, {vocab_size})"
    for kind, values, low, high, rule in (
        ("confidence", conf, 0.0, 1.0, "outside [0, 1]"),
        ("token id", ids, 0, np.inf, "is negative"),
        ("token id", ids, 0, vocab_size - 1, vocab),
        ("target", targets, NO_TARGET, vocab_size - 1, vocab),
    ):
        if not (values.min() >= low and values.max() <= high):  # NaN fails too
            at = tuple(np.argwhere(~((values >= low) & (values <= high)))[0])
            image = np.searchsorted(bounds, at[0], side="right") - 1
            layer = f" layer {at[1] + 1}" if len(at) == 2 else ""
            raise TraceFormatError(
                f"{_image_name(label, batch, image)}: token "
                f"{at[0] - bounds[image] + 1}{layer} {kind} {values[at].item()!r} "
                f"{rule}"
            )
    given = np.add.reduceat(targets != NO_TARGET, bounds[:-1], dtype=np.intp)
    partial = (given > 0) & (given < np.diff(bounds))
    if partial.any():
        raise TraceFormatError(
            f"{_image_name(label, batch, partial.argmax())}: targets for some "
            f"tokens only; an image has them for all tokens or none"
        )


def _image_name(label: str, batch: TraceBatch, image: int) -> str:
    single = batch.offsets is None or len(batch.offsets) <= 2
    return label if single else f"image {batch.image_ids[image]}"


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


def _check_name(kind: str, name: str) -> None:
    """Refuse a name that would not read back as one field."""
    if not name or not name.isascii() or any(ch.isspace() for ch in name):
        raise TraceFormatError(
            f"{kind} {name!r} is empty, not ASCII or contains whitespace"
        )


def _check_header(n_layers: int, vocab_size: int, source: str) -> None:
    """The header rule.  Token ids, all below the vocab, are read into
    int64 arrays, so the largest vocab is 2**63."""
    if n_layers < 2 or not 2 <= vocab_size <= 2**63:
        raise TraceFormatError(f"layers={n_layers} vocab={vocab_size} out of range")
    _check_name("source tag", source)


def _check_block(batch: TraceBatch, n_layers: int, vocab_size: int) -> None:
    """Refuse a block that would not read back as written: all that the
    reader builds by construction, then ``check_traces``."""
    offsets = np.asarray(batch.offsets)
    if (
        len(batch) == 0
        or offsets.shape != (len(batch.image_ids) + 1,)
        or offsets[0] != 0
        or offsets[-1] != len(batch)
        or (np.diff(offsets) < 1).any()
    ):
        raise TraceFormatError(
            f"{len(batch.image_ids)} image ids and offsets {batch.offsets} do "
            f"not fit {len(batch)} traces"
        )
    for ident in batch.image_ids:
        _check_name("image id", str(ident))
    label = f"images {batch.image_ids[0]}-{batch.image_ids[-1]}"
    check_traces(label, batch, vocab_size)
    if batch.confidences.shape[1] != n_layers:
        raise TraceFormatError(
            f"{label}: traces have {batch.confidences.shape[1]} layers, file "
            f"header says {n_layers}"
        )


def write_traces(
    path: str,
    blocks: Iterable[TraceBatch],
    n_layers: int,
    vocab_size: int,
    source: str = "synthetic",
) -> None:
    """Write blocks of images to ``path`` in the trace file format.

    The header is checked before the file opens, and each block whole
    (``_check_block``) before any of it is written, by the reader's rules;
    either refuses with TraceFormatError.
    The file is written at ``path`` itself, so a stream or block that
    raises leaves the part written before it; a caller that wants no
    partial file stages the write, as ``cli._write_outputs`` does.
    """
    _check_header(n_layers, vocab_size, source)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"{FORMAT_NAME} {FORMAT_VERSION} layers={n_layers} "
            f"vocab={vocab_size} source={source}\n"
        )
        for batch in blocks:
            _check_block(batch, n_layers, vocab_size)
            bounds = np.asarray(batch.offsets).tolist()
            for image_id, lo, hi in zip(batch.image_ids, bounds, bounds[1:]):
                fields = [str(image_id), str(hi - lo)]
                for target, confs, ids in zip(
                    batch.targets[lo:hi].tolist(),
                    batch.confidences[lo:hi].tolist(),
                    batch.token_ids[lo:hi].tolist(),
                ):
                    fields.append("-" if target == NO_TARGET else str(target))
                    fields.extend(f"{c:.17g}:{t}" for c, t in zip(confs, ids))
                fh.write(" ".join(fields) + "\n")


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
        n_layers, vocab_size = int(values["layers"]), int(values["vocab"])
    except ValueError:
        raise TraceFormatError(
            f"line 1: layers/vocab must be integers, got "
            f"{values['layers']!r}/{values['vocab']!r}"
        )
    try:
        _check_header(n_layers, vocab_size, values["source"])
    except ValueError as exc:
        raise TraceFormatError(f"line 1: {exc}") from None
    return TraceFileHeader(version, n_layers, vocab_size, values["source"])


def _parse_id(text: str) -> int:
    """An id literal: an integer in [0, 2**63), so it fits an int64."""
    value = int(text)
    if not 0 <= value < 2**63:
        raise ValueError(f"{text!r} is outside [0, 2**63)")
    return value


def _parse_image_line(line: str, lineno: int, n_layers: int) -> TraceBatch:
    """One image's line as a one-image block; its syntax is checked, its
    values are left to ``check_traces``."""
    fields = line.split()
    if len(fields) < 2:
        raise TraceFormatError(
            f"line {lineno}: expected '<image_id> <n_tokens> ...', got "
            f"{line.strip()!r}"
        )
    try:
        n_tokens = int(fields[1])
    except ValueError:
        raise TraceFormatError(
            f"line {lineno}: token count {fields[1]!r} is not an integer"
        )
    if n_tokens < 1:
        raise TraceFormatError(f"line {lineno}: token count must be >= 1")
    expected = 2 + n_tokens * (1 + n_layers)
    if len(fields) != expected:
        raise TraceFormatError(
            f"line {lineno}: expected {expected} fields for {n_tokens} tokens "
            f"of {n_layers} layers, got {len(fields)}"
        )
    layer_fields = fields[2:]
    raw_targets = layer_fields[:: 1 + n_layers]
    del layer_fields[:: 1 + n_layers]
    try:  # "-1" is no target literal: ids are never negative
        targets = [NO_TARGET if t == "-" else _parse_id(t) for t in raw_targets]
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: target is not '-' or an id: {exc}")
    parts = [field.partition(":") for field in layer_fields]
    try:
        confidences = [float(conf) for conf, _, _ in parts]
        ids = np.array([int(token_id) for _, _, token_id in parts], dtype=np.int64)
    except ValueError as exc:
        raise TraceFormatError(
            f"line {lineno}: malformed layer field, expected "
            f"'<confidence>:<token id>': {exc}"
        )
    except OverflowError:
        raise TraceFormatError(f"line {lineno}: a token id does not fit an int64")
    return TraceBatch(
        np.array(confidences).reshape(n_tokens, n_layers),
        ids.reshape(n_tokens, n_layers),
        np.array(targets, dtype=np.int64),
        (fields[0],),
        np.array([0, n_tokens]),
    )


def _ascii_lines(path: str) -> Iterator[tuple[int, str]]:
    """Numbered lines of a trace file; a non-ASCII byte is a format error."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise TraceFormatError(f"line {lineno}: non-ASCII byte")
            yield lineno, line


def read_traces(path: str) -> Iterator[TraceBatch]:
    """Stream a trace file as blocks of up to ``IMAGE_CHUNK`` images, ids
    as text.  Each line's syntax is checked, then ``check_traces``, before
    the next line is read.

    Raises TraceFormatError with a line number on any malformed record
    or non-ASCII byte, and rejects files written by unknown future format
    versions.
    """
    lines = _ascii_lines(path)
    _, first = next(lines, (1, ""))
    header = _parse_header(first)

    def images() -> Iterator[TraceBatch]:
        for lineno, line in lines:
            if line.strip():
                image = _parse_image_line(line, lineno, header.n_layers)
                check_traces(f"line {lineno}", image, header.vocab_size)
                yield image

    records = images()
    while block := list(islice(records, IMAGE_CHUNK)):
        yield TraceBatch(
            np.concatenate([image.confidences for image in block]),
            np.concatenate([image.token_ids for image in block]),
            np.concatenate([image.targets for image in block]),
            tuple(image.image_ids[0] for image in block),
            np.cumsum([0, *map(len, block)]),
        )
