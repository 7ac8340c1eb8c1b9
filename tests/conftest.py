"""Shared helpers for the test suite."""

import numpy as np
import pytest

from exitsim import ImageTraces, TokenTrace


def make_trace(confidences, token_ids=None):
    """Build a TokenTrace; token ids default to the layer index."""
    if token_ids is None:
        token_ids = list(range(1, len(confidences) + 1))
    return TokenTrace.from_arrays(confidences, token_ids)


def make_image(conf_rows, image_id=0, targets=None):
    traces = tuple(make_trace(row) for row in conf_rows)
    return ImageTraces.from_traces(image_id, traces, targets)


class FixedTraceModel:
    """Oracle test double: confidence_matrix returns preset rows, cycled."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def confidence_matrix(self, n_tokens, rng):
        reps = -(-n_tokens // self.rows.shape[0])
        return np.tile(self.rows, (reps, 1))[:n_tokens]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
