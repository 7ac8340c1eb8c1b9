"""Synthetic confidence generator and the trace file format."""

import dataclasses
import hashlib
import os
import tempfile
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exitsim import (
    IMAGE_CHUNK,
    ActionSet,
    AdaptiveCell,
    RewardParams,
    SyntheticConfidenceModel,
    TraceBatch,
    TraceFormatError,
    draw_tokens,
    finish_tokens,
    read_traces,
    run_lockstep,
    write_traces,
)
from exitsim.bandit import _ORACLE_SPAN, _pairwise_spans
from exitsim.cli import main as cli_main
from exitsim.staging import staged
from exitsim.synth import (
    _MATRIX_SPAN,
    NO_TARGET,
    _sigmoid,
    check_sigma,
    check_traces,
    confidence_blocks,
)

from reference import (
    TokenTrace,
    image_from_traces,
    image_records,
    image_stream,
    read_header,
    run_caption,
    sample_image,
    split_images,
    token_traces,
)
from conftest import PINNED_ON

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "sample_traces.txt")

# Guards the on-disk byte format: 200 images of 5 tokens from the
# default model's stream 0.  Regenerate only on a deliberate format bump.
CORPUS_SHA256 = "11112844a6d0eb559390d3c1768163cb79ceddb8162f31659f3293b1118ae162"


def sample_tokens(model, n_tokens, rng, sigma=0.0):
    """One block of ``n_tokens`` tokens, drawn and finished at ``sigma``."""
    return finish_tokens(model, sigma, draw_tokens(model, n_tokens, rng))


def images_read(path):
    """The number of images ``read_traces`` reads back from ``path``."""
    return sum(len(block.image_ids) for block in read_traces(path))


# ---------------------------------------------------------------------------
# generator


def test_confidence_profile_is_a_step_at_extreme_growth():
    # With a huge growth rate, no noise, and no ceiling, confidence is
    # ~0 before the difficulty and ~1 after it.
    model = SyntheticConfidenceModel(
        growth=1e4,
        difficulty_low=2.5,
        difficulty_high=2.5,
        noise_scale=0.0,
        clean_fraction=1.0,
    )
    conf = model.confidence_matrix(0.0, 100, model.stream_rng(0))
    assert np.all(conf[:, :2] < 1e-6)
    assert np.all(conf[:, 2:] > 1.0 - 1e-6)


def test_confidences_live_in_unit_interval():
    model = SyntheticConfidenceModel()
    for sigma in (0.0, 1.0, 5.0, 50.0):
        conf = model.confidence_matrix(sigma, 2000, model.stream_rng(0))
        assert np.all(conf >= 0.0) and np.all(conf <= 1.0)
        assert np.all(np.isfinite(conf))


def test_depth_helps_at_zero_distortion():
    model = SyntheticConfidenceModel()
    conf = model.confidence_matrix(0.0, 10_000, model.stream_rng(0))
    assert conf[:, -1].mean() > conf[:, 0].mean()


def test_distortion_degrades_final_layer_confidence():
    model = SyntheticConfidenceModel()
    means = []
    for sigma in (0.0, 0.5, 1.0, 2.0, 3.0):
        conf = model.confidence_matrix(sigma, 10_000, model.stream_rng(0))
        means.append(conf[:, -1].mean())
    assert means[-1] < means[0]  # strict drop across the full range
    for lo, hi in zip(means[1:], means):
        assert lo <= hi + 1e-3  # nonincreasing along the grid


def test_generator_is_deterministic_per_seed_and_stream():
    model = SyntheticConfidenceModel()
    a = sample_tokens(model, 64, model.stream_rng(0))
    b = sample_tokens(model, 64, model.stream_rng(0))
    assert np.array_equal(a.confidences, b.confidences)
    assert np.array_equal(a.token_ids, b.token_ids)
    assert np.array_equal(a.targets, b.targets)
    c = sample_tokens(model, 64, model.stream_rng(1))
    assert not np.array_equal(a.confidences, c.confidences)


def test_correctness_is_monotone_in_confidence():
    # One shared uniform per token decides correctness, so the set of
    # correct layers is upward-closed in confidence.
    model = SyntheticConfidenceModel()
    batch = sample_tokens(model, 500, model.stream_rng(3))
    hit = batch.token_ids == batch.targets[:, None]
    for row in range(len(batch)):
        order = np.argsort(batch.confidences[row])
        flags = hit[row][order]
        # once correct along increasing confidence, stays correct
        first_hit = np.argmax(flags) if flags.any() else len(flags)
        assert np.all(flags[first_hit:]) or not flags.any()


def test_wrong_guesses_avoid_eos_and_target():
    model = SyntheticConfidenceModel()
    batch = sample_tokens(model, 2000, model.stream_rng(5))
    miss = batch.token_ids != batch.targets[:, None]
    wrong_ids = batch.token_ids[miss]
    assert np.all(wrong_ids != model.eos_id)
    assert np.all((wrong_ids >= 1) & (wrong_ids < model.vocab_size))


def test_eos_rate_tracks_eos_prob():
    model = SyntheticConfidenceModel()
    batch = sample_tokens(model, 10_000, model.stream_rng(9))
    rate = float(np.mean(batch.targets == model.eos_id))
    assert abs(rate - model.eos_prob) < 0.02


def test_sample_batch_shapes_and_dtypes():
    model = SyntheticConfidenceModel()
    batch = sample_tokens(model, 3, model.stream_rng(0))
    assert len(batch) == 3
    assert batch.confidences.shape == (3, model.n_layers)
    assert batch.token_ids.shape == (3, model.n_layers)
    assert batch.targets.shape == (3,)
    assert batch.confidences.dtype == np.float64
    assert batch.token_ids.dtype == np.int64 and batch.targets.dtype == np.int64


def test_sample_image_and_streams():
    model = SyntheticConfidenceModel()
    image = sample_image(model, 0.0, model.stream_rng(0), max_len=6, image_id="x")
    assert image.image_ids == ("x",)
    assert len(image) == 6
    assert image.offsets.tolist() == [0, 6]
    assert image.targets.shape == (6,) and (image.targets != NO_TARGET).all()

    assert image.confidences.shape == image.token_ids.shape == (6, model.n_layers)

    stream = image_stream(model, 0.0, model.stream_rng(0), 4)
    ids = [img.image_ids for img in islice(stream, 5)]
    assert ids == [(i,) for i in range(5)]


@pytest.mark.parametrize("max_len", [1, 20])
@pytest.mark.parametrize("sigma", [0.0, 1.0, 2.0])
def test_image_stream_chunks_match_per_image_draws(sigma, max_len, tmp_path, capsys):
    # gen-traces draws and finishes a chunk of images at once; each
    # image must be the one a per-image draw would give, including in
    # the last chunk, which holds fewer images.
    model = SyntheticConfidenceModel(seed=3)
    n_images = 2 * IMAGE_CHUNK + 5
    argv = [
        "gen-traces", "--seed", "3", "--sigma", str(sigma), "--max-len",
        str(max_len), "--n-images", str(n_images), "--out-dir", str(tmp_path),
    ]
    assert cli_main(argv) == 0
    blocks = list(read_traces(str(tmp_path / "traces.txt")))
    assert [len(b.image_ids) for b in blocks] == [IMAGE_CHUNK, IMAGE_CHUNK, 5]
    rng = model.stream_rng(0)
    for image_id, image in enumerate(split_images(blocks)):
        batch = sample_tokens(model, max_len, rng, sigma)
        assert image.image_ids == (str(image_id),)
        assert np.array_equal(image.confidences, batch.confidences)
        assert np.array_equal(image.token_ids, batch.token_ids)
        assert np.array_equal(image.targets, batch.targets)


def test_one_draw_finishes_at_every_sigma():
    # The draw step holds no sigma: finishing one draw at a distortion
    # level gives what sampling that level from the same stream does.
    base = SyntheticConfidenceModel(seed=11)
    draws = draw_tokens(base, 6, base.stream_rng(0), n_images=3)
    for sigma in (0.0, 0.5, 2.0):
        finished = finish_tokens(base, sigma, draws)
        rng = base.stream_rng(0)
        blocks = [sample_tokens(base, 6, rng, sigma) for _ in range(3)]
        assert np.array_equal(
            finished.confidences, np.concatenate([b.confidences for b in blocks])
        )
        assert np.array_equal(
            finished.token_ids, np.concatenate([b.token_ids for b in blocks])
        )
        assert np.array_equal(
            finished.targets, np.concatenate([b.targets for b in blocks])
        )


def reference_sigmoid(z):
    """The masked two-branch logistic the exact in-place form replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_masked_reference_bitwise():
    rng = np.random.default_rng(3)
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array(
        [0.0, -0.0, 750.0, -750.0, 1e-300, -1e-300, tiny, -tiny, 1e-310,
         -1e-310, 36.7, -36.7, 745.2, -745.2, np.inf, -np.inf]
    )
    for z in (
        edges,
        rng.normal(0.0, 8.0, (257, 12)),
        rng.uniform(-800.0, 800.0, 1001),
        np.full((3, 4), -2.5),
    ):
        got, want = _sigmoid(z.copy()), reference_sigmoid(z)
        assert got.shape == want.shape
        # Bitwise: the sign of zero and every last bit must agree.
        assert got.tobytes() == want.tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))[0])


def test_finished_confidences_stay_in_the_unit_interval():
    # Nothing clips _sigmoid: each branch lies in [0, 1] on its own.
    z = np.array([-np.inf, -800.0, -1e-300, -0.0, 0.0, 1e-300, 800.0, np.inf])
    got = _sigmoid(z.copy())
    assert np.all((got >= 0.0) & (got <= 1.0))
    draws = draw_tokens(SyntheticConfidenceModel(), 20, np.random.default_rng(1), 40)
    for sigma in (0.0, 5.0):
        conf = finish_tokens(SyntheticConfidenceModel(), sigma, draws).confidences
        assert conf.flags.c_contiguous
        assert np.all((conf >= 0.0) & (conf <= 1.0))


def test_confidence_matrices_share_one_draw():
    base = SyntheticConfidenceModel(seed=4)
    sigmas = (2.0, 0.0, 0.5)
    got = list(confidence_blocks(base, sigmas, 300, np.random.default_rng(9), [300]))
    for sigma, block in zip(sigmas, got, strict=True):
        want = base.confidence_matrix(sigma, 300, np.random.default_rng(9))
        assert block.shape == (base.n_layers, 300)
        assert block.tobytes() == want.T.tobytes()


@pytest.mark.parametrize(
    "n", [1, _ORACLE_SPAN - 1, _ORACLE_SPAN, _ORACLE_SPAN + 1, 2 * _ORACLE_SPAN + 3]
)
def test_blocked_confidence_matrices_equal_one_shot_blocks(n):
    # Drawn a span at a time, the blocks are the columns of the one-span
    # blocks, and the generator ends in the one-span draw's state.
    base = SyntheticConfidenceModel(seed=6)
    for sigmas in ((1.5,), (0.0, 3.0)):
        whole_rng = np.random.default_rng(n)
        whole = list(confidence_blocks(base, sigmas, n, whole_rng, [n]))
        for spans in (list(_pairwise_spans(n)), [1000] * (n // 1000) + [n % 1000]):
            spans = [span for span in spans if span]
            rng = np.random.default_rng(n)
            got = list(confidence_blocks(base, sigmas, n, rng, spans))
            assert len(got) == len(spans) * len(sigmas)
            for i, want in enumerate(whole):
                block = np.concatenate(got[i :: len(sigmas)], axis=1)
                assert block.tobytes() == want.tobytes()
            assert rng.bit_generator.state == whole_rng.bit_generator.state


@pytest.mark.parametrize(
    "n", [1, _MATRIX_SPAN - 1, _MATRIX_SPAN, _MATRIX_SPAN + 1, 2 * _MATRIX_SPAN + 3]
)
def test_confidence_matrix_is_the_one_span_block_filled_span_by_span(n):
    model = SyntheticConfidenceModel(seed=6)
    whole_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
    (want,) = confidence_blocks(model, [1.5], n, whole_rng, [n])
    got = model.confidence_matrix(1.5, n, rng)
    assert got.flags.c_contiguous and got.shape == (n, model.n_layers)
    assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert rng.bit_generator.state == whole_rng.bit_generator.state
    with pytest.raises(ValueError, match="n_tokens must be >= 1"):
        model.confidence_matrix(1.5, -n, rng)


def test_confidence_matrix_peak_memory_stays_near_one_matrix():
    # The matrix itself, the per-token variates and one span's blocks
    # and temporaries.
    model = SyntheticConfidenceModel()
    n = 200_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        model.confidence_matrix(0.0, n, model.stream_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * model.n_layers * 8


def test_draw_tokens_validation():
    model = SyntheticConfidenceModel()
    with pytest.raises(ValueError):
        draw_tokens(model, 0, model.stream_rng(0))
    with pytest.raises(ValueError):
        draw_tokens(model, 4, model.stream_rng(0), n_images=0)


def test_model_validation():
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(n_layers=1)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(vocab_size=1)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(growth=0.0)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(difficulty_low=5.0, difficulty_high=1.0)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(noise_scale=-0.1)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(clean_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(ceiling_center=1.0)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(eos_prob=1.5)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel(eos_id=32)
    with pytest.raises(ValueError):
        SyntheticConfidenceModel().confidence_matrix(0.0, 0, np.random.default_rng(0))


def test_sigma_is_an_argument_not_a_model_field():
    # A level reaches the stream only as an argument, so no model holds
    # one and one draw finishes at any level.
    assert "sigma" not in {f.name for f in dataclasses.fields(SyntheticConfidenceModel)}
    with pytest.raises(TypeError):
        SyntheticConfidenceModel(sigma=2.0)
    model = SyntheticConfidenceModel()
    draws = draw_tokens(model, 5, model.stream_rng(0), 2)
    clean, bumped = (finish_tokens(model, s, draws) for s in (0.0, 2.0))
    assert np.array_equal(clean.targets, bumped.targets)
    assert not np.array_equal(clean.confidences, bumped.confidences)


def _level_refusals():
    """Every product entry point that takes a distortion level, as a
    function of the level alone."""
    model = SyntheticConfidenceModel()
    draws = draw_tokens(model, 4, model.stream_rng(0))
    rng = np.random.default_rng(0)

    def lockstep(sigma):
        cells = [
            AdaptiveCell(ActionSet((0.5,)), RewardParams(model.n_layers), level)
            for level in (0.0, sigma)
        ]
        run_lockstep(model, cells, 1.0, 10, 4)

    return (
        check_sigma,
        lambda s: finish_tokens(model, s, draws),
        lambda s: list(confidence_blocks(model, [0.0, s], 4, rng, [4])),
        lambda s: model.confidence_matrix(s, 4, rng),
        lockstep,
    )


def test_check_sigma_is_the_model_rule():
    for sigma in (0.0, -0.0, 0, 3.5):
        for check in _level_refusals():
            check(sigma)
    for sigma, message in (
        (-0.5, "sigma must be >= 0, got -0.5"),
        (float("nan"), "sigma must be finite, got nan"),
        (float("-inf"), "sigma must be finite, got -inf"),
    ):
        for check in _level_refusals():
            with pytest.raises(ValueError, match=message):
                check(sigma)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=0.0, max_value=10.0),
    growth=st.floats(min_value=0.1, max_value=5.0),
    n=st.integers(min_value=1, max_value=64),
)
def test_confidence_matrix_property(sigma, growth, n):
    model = SyntheticConfidenceModel(growth=growth)
    conf = model.confidence_matrix(sigma, n, model.stream_rng(0))
    assert conf.shape == (n, model.n_layers)
    assert np.all((conf >= 0.0) & (conf <= 1.0))


# ---------------------------------------------------------------------------
# Images' traces: one-image blocks, checked whole when written


def test_image_traces_validation(tmp_path):
    trace = TokenTrace.from_arrays([0.5, 0.5], [1, 2])
    path = str(tmp_path / "t.txt")
    with pytest.raises(TraceFormatError):
        write_traces(path, [image_from_traces(0, ())], 2, 8)
    with pytest.raises(TraceFormatError):
        write_traces(path, [image_from_traces(0, (trace,), targets=(1, 2))], 2, 8)
    image = image_from_traces(0, (trace,), targets=(1,))
    assert len(image) == 1
    write_traces(path, [image], 2, 8)
    assert images_read(path) == 1


def test_image_traces_rejects_bad_arrays(tmp_path):
    ok = np.full((2, 3), 0.5)
    ids = np.ones((2, 3), dtype=np.int64)
    unknown = np.full(2, NO_TARGET)

    def write(conf, token_ids, targets=unknown, image_ids=(0,), offsets=None):
        if offsets is None:
            offsets = np.array([0, len(conf)])
        batch = TraceBatch(conf, token_ids, targets, image_ids, offsets)
        write_traces(str(tmp_path / "t.txt"), [batch], 3, 8)

    nan = ok.copy()
    nan[1, 2] = np.nan
    with pytest.raises(TraceFormatError, match="token 2 layer 3"):
        write(nan, ids)
    with pytest.raises(TraceFormatError, match="outside"):
        write(ok + 0.6, ids)
    negative = ids.copy()
    negative[0, 1] = -1
    with pytest.raises(TraceFormatError, match="negative"):
        write(ok, negative)
    with pytest.raises(TraceFormatError, match="2 layers"):
        write(ok[:, :1], ids[:, :1])
    with pytest.raises(TraceFormatError):
        write(ok, ids[:, :2])
    with pytest.raises(TraceFormatError, match="integers"):
        write(ok, ids.astype(float))
    with pytest.raises(TraceFormatError, match="do not fit 0 traces"):
        write(ok[:0], ids[:0], unknown[:0])
    with pytest.raises(TraceFormatError, match="targets"):
        write(ok, ids, np.array([1]))
    with pytest.raises(TraceFormatError, match="targets"):
        write(ok, ids, np.array([1.0, 2.0]))
    with pytest.raises(TraceFormatError, match="target -2 outside"):
        write(ok, ids, np.array([1, -2]))
    # Targets are all-or-none per image, and the offsets must split the
    # rows into one nonempty run per image.
    with pytest.raises(TraceFormatError, match="some tokens only"):
        write(ok, ids, np.array([1, NO_TARGET]))
    write(ok, ids, np.array([1, NO_TARGET]), ("a", "b"), np.array([0, 1, 2]))
    for offsets in ([0, 2, 2], [0, 1], [1, 1, 2], [0, 1, 3]):
        with pytest.raises(TraceFormatError, match="offsets"):
            write(ok, ids, unknown, ("a", "b"), np.array(offsets))
    with pytest.raises(TraceFormatError, match="offsets None"):
        write_traces(str(tmp_path / "t.txt"), [TraceBatch(ok, ids, unknown)], 3, 8)
    with pytest.raises(TraceFormatError, match="0 image ids"):
        write(ok, ids, unknown, ())
    assert os.listdir(tmp_path) == ["t.txt"]  # the one good block


def test_image_traces_is_a_value():
    conf = np.array([[0.25, 0.75], [0.5, 1.0]])
    ids = np.array([[3, 4], [0, 0]])
    image = TraceBatch(conf, ids, np.array([4, 0]), ("a",), np.array([0, 2]))
    assert len(image) == 2
    rebuilt = image_from_traces("a", token_traces(image), [4, 0])
    assert image_records([image]) == image_records([rebuilt])
    untargeted = image_from_traces("a", token_traces(image))
    assert image_records([image]) != image_records([untargeted])
    assert token_traces(image)[1] == TokenTrace.from_arrays([0.5, 1.0], [0, 0])
    with pytest.raises(TraceFormatError, match="layer counts"):
        image_from_traces(
            0, [TokenTrace.from_arrays([0.5, 0.5], [1, 1]),
                TokenTrace.from_arrays([0.5, 0.5, 0.5], [1, 1, 1])]
        )
    # A block's records are those of its images, however it is split.
    block = TraceBatch(
        np.vstack([conf, conf[:1]]), np.vstack([ids, ids[:1]]),
        np.array([4, 0, NO_TARGET]), ("a", 7), np.array([0, 2, 3]),
    )
    assert image_records([block]) == image_records(split_images([block]))
    assert image_records([block])[1] == ("7", [[0.25, 0.75]], [[3, 4]], None)


# ---------------------------------------------------------------------------
# trace file format


def test_conformance_fixture_parses_exactly():
    header = read_header(FIXTURE)
    assert header.version == 1
    assert header.n_layers == 3
    assert header.vocab_size == 8
    assert header.source == "unit-fixture"

    (block,) = read_traces(FIXTURE)
    assert block.image_ids == ("img-1", "7")
    assert block.offsets.tolist() == [0, 2, 3]
    assert block.targets.tolist() == [5, 0, NO_TARGET]
    images = split_images([block])

    first = images[0]
    assert first.image_ids == ("img-1",)
    assert first.targets.tolist() == [5, 0]
    assert token_traces(first)[0].confidences == (0.25, 0.625, 0.875)
    assert token_traces(first)[0].token_ids == (3, 5, 5)
    assert token_traces(first)[1].confidences == (0.5, 0.75, 1.0)
    assert token_traces(first)[1].token_ids == (2, 0, 0)

    second = images[1]
    assert second.image_ids == ("7",)
    assert second.targets.tolist() == [NO_TARGET]
    assert token_traces(second)[0].confidences == (0.125, 0.5, 0.9375)

    # And the records drive the exit rule as hand-checked.
    run = run_caption(token_traces(first), alpha=0.6, eos_id=0)
    assert [d.exit_layer for d in run.tokens] == [2, 2]
    assert run.terminated_by_eos


def test_write_then_read_round_trips_exactly(tmp_path):
    model = SyntheticConfidenceModel()
    images = [
        sample_image(model, 0.0, model.stream_rng(0), max_len=4, image_id=i)
        for i in range(20)
    ]
    path = str(tmp_path / "traces.txt")
    write_traces(path, images, model.n_layers, model.vocab_size)
    assert images_read(path) == 20
    loaded = list(read_traces(path))
    assert len(loaded) == 1 and loaded[0].image_ids == tuple(map(str, range(20)))
    # image ids come back as strings; everything else must be bit-equal
    assert image_records(loaded) == image_records(
        image_from_traces(img.image_ids[0], token_traces(img), img.targets)
        for img in images
    )


def test_round_trip_without_targets(tmp_path):
    trace = TokenTrace.from_arrays([0.1, 0.9], [3, 4])
    image = image_from_traces("a", (trace, trace))
    path = str(tmp_path / "t.txt")
    write_traces(path, [image], 2, 8)
    (loaded,) = read_traces(path)
    assert image_records([loaded]) == image_records([image])
    assert loaded.targets.tolist() == [NO_TARGET, NO_TARGET]


def test_empty_file_is_header_only(tmp_path):
    path = str(tmp_path / "empty.txt")
    write_traces(path, [], 12, 32)
    assert images_read(path) == 0
    assert len(open(path).readlines()) == 1
    assert list(read_traces(path)) == []


def test_failed_stream_leaves_no_trace_file(tmp_path):
    model = SyntheticConfidenceModel()

    def images():
        yield next(image_stream(model, 0.0, model.stream_rng(0), max_len=5))
        raise RuntimeError("stream failed")

    path = str(tmp_path / "traces.txt")
    with pytest.raises(RuntimeError, match="stream failed"):
        with staged(path) as (temp,):
            write_traces(temp, images(), model.n_layers, model.vocab_size)
    assert os.listdir(tmp_path) == []  # no partial file, no temp file


def test_corpus_bytes_are_pinned(tmp_path):
    model = SyntheticConfidenceModel()
    images = islice(image_stream(model, 0.0, model.stream_rng(0), max_len=5), 200)
    path = str(tmp_path / "corpus.txt")
    write_traces(path, images, model.n_layers, model.vocab_size, source="pin")
    digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
    assert digest == CORPUS_SHA256, PINNED_ON


def test_confidences_round_trip_bit_exactly(tmp_path):
    # 17 significant digits must reproduce arbitrary doubles.
    rng = np.random.default_rng(123)
    confs = rng.random(64)
    trace_rows = [
        TokenTrace.from_arrays(confs[i : i + 2], [1, 2]) for i in range(0, 64, 2)
    ]
    image = image_from_traces(0, trace_rows)
    path = str(tmp_path / "bits.txt")
    write_traces(path, [image], 2, 8)
    (loaded,) = read_traces(path)
    for got, want in zip(token_traces(loaded), trace_rows):
        assert got.confidences == want.confidences


def test_reader_rejects_future_version(tmp_path):
    path = str(tmp_path / "v2.txt")
    with open(path, "w") as fh:
        fh.write("exitsim-traces 2 layers=3 vocab=8 source=x\n")
    with pytest.raises(TraceFormatError, match="version"):
        list(read_traces(path))


def test_reader_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "bad.txt")
    path_obj = open(path, "w")
    path_obj.write("something completely different\n")
    path_obj.close()
    with pytest.raises(TraceFormatError, match="line 1"):
        read_header(path)


@pytest.mark.parametrize(
    "record, fragment",
    [
        ("x", "line 2"),
        ("img 0", "token count"),
        ("img 1 5 0.5:1", "fields"),
        ("img 1 5 0.5:1 0.2:1 extra:1:1", "malformed"),
        ("img 1 9 0.5:1 0.5:1 0.5:1", "outside"),
        ("img 1 5 1.5:1 0.5:1 0.5:1", r"outside \[0, 1\]"),
        ("img 1 5 0.5:9 0.5:1 0.5:1", "outside"),
        ("img 1 5 0.5 0.5:1 0.5:1", "confidence"),
        ("img 1 5 abc:1 0.5:1 0.5:1", "malformed"),
        ("img 2 5 0.5:1 0.5:1 0.5:1 - 0.5:1 0.5:1 0.5:1", "all tokens or none"),
        ("img 1 -1 0.5:1 0.5:1 0.5:1", "target"),  # not NO_TARGET
        ("img 1 5 0.5:1 0.5:1 0.5:" + "9" * 20, "token id"),  # past int64
    ],
)
def test_reader_flags_malformed_records(tmp_path, record, fragment):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("exitsim-traces 1 layers=3 vocab=8 source=x\n")
        fh.write(record + "\n")
    with pytest.raises(TraceFormatError, match=fragment):
        list(read_traces(path))


_ONE_TOKEN = TraceBatch(
    np.full((1, 2), 0.5), np.ones((1, 2), dtype=np.int64), np.array([1]),
    (0,), np.array([0, 1]),
)


def _read_bad_line(path):
    with open(path, "w") as fh:
        fh.write("exitsim-traces 1 layers=2 vocab=8 source=x\nimg 1 3 0.5:1\n")
    list(read_traces(path))


def _play_overflowing_model(path):
    # The scores and the drop at sigma = 2 overflow to infinities whose
    # difference, each confidence, is NaN.
    model = SyntheticConfidenceModel(growth=1e308, base_drop_rate=1e308)
    cell = AdaptiveCell(ActionSet((0.5,)), RewardParams(model.n_layers), 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        run_lockstep(model, [cell], 1.0, 10, 4)


@pytest.mark.parametrize(
    "refuse, fragment",
    [
        (_read_bad_line, "line 2"),
        (lambda path: write_traces(path, [_ONE_TOKEN], 1, 8), "layers=1"),
        (
            lambda path: write_traces(
                path, [dataclasses.replace(_ONE_TOKEN, offsets=np.array([0, 2]))], 2, 8
            ),
            "do not fit 1 traces",
        ),
        (
            lambda path: write_traces(
                path, [dataclasses.replace(_ONE_TOKEN, image_ids=("a b",))], 2, 8
            ),
            "whitespace",
        ),
        (
            lambda path: check_traces(
                "x", dataclasses.replace(_ONE_TOKEN, confidences=np.full((1, 2), 1.5)), 8
            ),
            r"x: token 1 layer 1 confidence 1.5 outside \[0, 1\]",
        ),
        (
            lambda path: TokenTrace.from_arrays([1.5, 0.5], [1, 1]),
            r"layer 1 confidence 1.5 outside \[0, 1\]",
        ),
        (_play_overflowing_model, "images 0-63: token 1 layer 10 confidence nan"),
    ],
    ids=[
        "read", "write-header", "write-offsets", "write-image-id", "check_traces",
        "TokenTrace", "run_lockstep",
    ],
)
def test_every_trace_refusal_is_a_trace_format_error(tmp_path, refuse, fragment):
    """Reading, writing, checking and playing traces refuse through one
    exception class."""
    with pytest.raises(TraceFormatError, match=fragment):
        refuse(str(tmp_path / "t.txt"))


def test_reader_rejects_non_ascii_bytes_with_line_number(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(
        b"exitsim-traces 1 layers=2 vocab=8 source=x\n"
        b"img 1 3 0.5:1 0.25:2\n"
        b"caf\xc3\xa9 1 3 0.5:1 0.25:2\n"
    )
    with pytest.raises(TraceFormatError, match="line 3: non-ASCII"):
        list(read_traces(str(path)))
    path.write_bytes(b"exitsim-traces 1 layers=2 vocab=8 source=\xff\n")
    with pytest.raises(TraceFormatError, match="line 1"):
        read_header(str(path))


def test_reader_reports_correct_line_number(tmp_path):
    model = SyntheticConfidenceModel()
    good = sample_image(model, 0.0, model.stream_rng(0), max_len=2, image_id="ok")
    path = str(tmp_path / "mixed.txt")
    write_traces(path, [good], model.n_layers, model.vocab_size)
    with open(path, "a") as fh:
        fh.write("broken 1 0.5:1\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        list(read_traces(path))


def test_reader_refuses_a_vocab_past_the_int64_token_ids(tmp_path):
    # Ids are read into int64 arrays, so the largest vocab is 2**63.
    path = tmp_path / "huge.txt"
    for vocab, fragment in ((2**63, "token id"), (2**63 + 1, "out of range")):
        path.write_text(
            f"exitsim-traces 1 layers=2 vocab={vocab} source=x\n"
            f"img 1 3 0.5:1 0.25:{2**63}\n"
        )
        with pytest.raises(TraceFormatError, match=fragment):
            list(read_traces(str(path)))


def test_reader_skips_blank_lines(tmp_path):
    path = str(tmp_path / "blank.txt")
    with open(path, "w") as fh:
        fh.write("exitsim-traces 1 layers=2 vocab=8 source=x\n")
        fh.write("\n")
        fh.write("img 1 3 0.5:1 0.25:2\n")
        fh.write("\n")
    images = split_images(read_traces(path))
    assert len(images) == 1
    assert images[0].targets.tolist() == [3]


_trace_file_fields = st.sampled_from([
    "", "x", "-", "-1", "0", "7", "9" * 21,
    "\u00e9", "0.5:1", "0.5", "0.5:x", ":", "nan:1", "1e999:1", "1.5:1",
    "0:-1", "0:8", "0:" + "9" * 21,
])


@st.composite
def _trace_file_like(draw):
    """Any bytes, or a valid two-layer trace file, its vocab size at or
    past the int64 limit and its source tag maybe empty, with up to three
    record fields replaced, dropped or doubled."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    vocab = draw(st.sampled_from(["8", str(2**63), "9" * 25]))
    source = draw(st.sampled_from(["x", ""]))
    header = f"exitsim-traces 1 layers=2 vocab={vocab} source={source}"
    records = [
        ["img", "1", "3", "0.5:1", "0.25:2"],
        ["0", "2", "-", "0.5:1", "1:0", "-", "-0.0:0", "0.25:7"],
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        line = draw(st.sampled_from(records))  # never emptied: 5+ fields
        i = draw(st.integers(0, len(line) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "double"]))
        if edit == "replace":
            line[i] = draw(_trace_file_fields)
        elif edit == "drop":
            del line[i]
        else:
            line.insert(i, line[i])
    lines = [header] + [" ".join(fields) for fields in records]
    return "\n".join(lines).encode("utf-8")


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_trace_file_like())
def test_read_traces_parses_or_raises_trace_format_error(tmp_path, data):
    path = str(tmp_path / "traces.txt")
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        header = read_header(path)
        blocks = list(read_traces(path))
    except TraceFormatError:
        return
    write_traces(path, blocks, header.n_layers, header.vocab_size, header.source)
    assert image_records(read_traces(path)) == image_records(blocks)


@st.composite
def _write_call(draw):
    """Arguments of a ``write_traces`` call: a header of 1-4 layers, a
    vocab at the small end or around 2**63 and any source tag, and up to
    two blocks of valid images with at most one value broken."""
    n_layers = draw(st.integers(1, 4))
    vocab = draw(st.sampled_from([*range(1, 11), 2**63 - 1, 2**63, 2**63 + 1]))
    source = draw(st.sampled_from(["x", "", "a b", "\u00e9"]))
    top = min(vocab, 2**63) - 1  # the largest id the vocab allows
    blocks = []
    for _ in range(draw(st.integers(0, 2))):
        lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        rows = sum(lengths)
        conf = np.array(
            draw(st.lists(st.sampled_from([0.0, 5e-324, 0.5, 1.0]),
                          min_size=rows * n_layers, max_size=rows * n_layers))
        ).reshape(rows, n_layers)
        ids = np.full((rows, n_layers), draw(st.sampled_from([0, top])), np.int64)
        known = np.repeat(draw(st.lists(st.booleans(), min_size=len(lengths),
                                        max_size=len(lengths))), lengths)
        targets = np.where(known, top, NO_TARGET).astype(np.int64)
        image_ids = [draw(st.sampled_from(["a", 7, "img-2"])) for _ in lengths]
        at = draw(st.integers(0, rows * n_layers - 1))
        broken = draw(st.sampled_from(
            [None, None, "nan", "1.5", "id -1", "id vocab", "partial", "image \u00e9"]
        ))
        if broken in ("nan", "1.5"):
            conf.flat[at] = float(broken)
        elif broken == "id -1":
            ids.flat[at] = -1
        elif broken == "id vocab":
            ids.flat[at] = min(vocab, 2**63 - 1)
        elif broken == "partial":  # partial only if image 0 has 2+ tokens
            targets[0] = 0 if targets[0] == NO_TARGET else NO_TARGET
        elif broken == "image \u00e9":
            image_ids[-1] = "\u00e9"
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        blocks.append(TraceBatch(conf, ids, targets, image_ids, offsets))
    return blocks, n_layers, vocab, source


@settings(max_examples=300, deadline=None)
@given(call=_write_call())
def test_write_traces_refuses_or_writes_what_reads_back(call):
    # The writer runs the reader's rules, so it never writes a file the
    # reader refuses, and a staged refusal leaves the directory as it was.
    blocks, n_layers, vocab, source = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.txt")
        try:
            with staged(path) as (temp,):
                write_traces(temp, blocks, n_layers, vocab, source)
        except ValueError:
            assert os.listdir(tmp) == []
            return
        assert image_records(read_traces(path)) == image_records(blocks)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_images=st.sampled_from(
        [1, 2, IMAGE_CHUNK - 1, IMAGE_CHUNK, IMAGE_CHUNK + 1, 2 * IMAGE_CHUNK + 3]
    ),
    block_size=st.integers(1, 2 * IMAGE_CHUNK + 3),
    n_layers=st.integers(2, 3),
    ragged=st.booleans(),
    id_kind=st.sampled_from(["int", "str", "both"]),
    target_kind=st.sampled_from(["all", "none", "some images"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_then_read_round_trips_any_blocks(
    tmp_path, n_images, block_size, n_layers, ragged, id_kind, target_kind, seed
):
    # Images of 1-4 tokens, written in blocks of any size, come back in
    # blocks of IMAGE_CHUNK images with every value intact.
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 5, n_images) if ragged else np.full(n_images, 3)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    conf = rng.random((offsets[-1], n_layers))
    conf.flat[rng.integers(0, conf.size, 3)] = [0.0, 1.0, 5e-324]
    tokens = rng.integers(0, 9, conf.shape)
    known = {"all": True, "none": False, "some images": rng.random(n_images) < 0.5}
    targets = np.where(
        np.repeat(np.broadcast_to(known[target_kind], n_images), lengths),
        rng.integers(0, 9, len(conf)),
        NO_TARGET,
    )
    names = {"int": range(n_images), "str": [f"img-{i}" for i in range(n_images)]}
    names["both"] = [names["int" if i % 2 else "str"][i] for i in range(n_images)]
    ids = names[id_kind]
    blocks = []
    for lo in range(0, n_images, block_size):
        hi = min(lo + block_size, n_images)
        rows = slice(offsets[lo], offsets[hi])
        bounds = offsets[lo : hi + 1] - offsets[lo]
        blocks.append(
            TraceBatch(conf[rows], tokens[rows], targets[rows], ids[lo:hi], bounds)
        )
    path = str(tmp_path / "traces.txt")
    write_traces(path, blocks, n_layers, 9)
    assert images_read(path) == n_images
    loaded = list(read_traces(path))
    assert [len(block.image_ids) for block in loaded] == [
        min(IMAGE_CHUNK, n_images - lo) for lo in range(0, n_images, IMAGE_CHUNK)
    ]
    assert image_records(loaded) == image_records(blocks)
    # Written again, the blocks read give the same bytes.
    with open(path, "rb") as fh:
        first = fh.read()
    write_traces(path, loaded, n_layers, 9)
    with open(path, "rb") as fh:
        assert fh.read() == first


def test_writer_validates_against_header(tmp_path):
    trace = TokenTrace.from_arrays([0.5, 0.5], [1, 2])
    image = image_from_traces(0, (trace,))
    path = str(tmp_path / "bad.txt")
    with pytest.raises(TraceFormatError, match="layers"):
        write_traces(path, [image], 3, 8)
    with pytest.raises(TraceFormatError, match="vocab"):
        write_traces(path, [image], 2, 2)
    with pytest.raises(TraceFormatError, match="source"):
        write_traces(path, [image], 2, 8, source="two words")
    spaced = image_from_traces("a b", (trace,))
    with pytest.raises(TraceFormatError, match="whitespace"):
        write_traces(path, [spaced], 2, 8)
    bad_target = image_from_traces(1, (trace,), targets=(9,))
    with pytest.raises(TraceFormatError, match="target"):
        write_traces(path, [bad_target], 2, 8)
