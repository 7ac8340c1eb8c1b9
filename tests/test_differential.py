"""The lockstep driver against the scalar reference, on drawn cases.

Each case runs ``run_lockstep`` over one shared stream and checks every
cell against ``reference_adaptive_run`` (via
``assert_cell_matches_reference``): the scalar exit rule, reward and UCB
round of ``tests/reference.py`` applied one ``TokenTrace`` at a time to
the same images.  Seeding is fixed, so the suite stays deterministic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitsim import (
    IMAGE_CHUNK,
    ActionSet,
    AdaptiveCell,
    BanditLog,
    RewardParams,
    SyntheticConfidenceModel,
    distort,
    run_lockstep,
)

from conftest import assert_cell_matches_reference

GRID = ActionSet.default_grid().thresholds
SIGMAS = (0.0, 0.5, 3.0)

# 0.0 and the smallest double exit at layer 1 on any positive layer-1
# confidence, for a reward of exactly 0: two such arms tie exactly
# whenever their pulls match.
TIED = (0.0, 5e-324)

# On-grid, tying and off-grid thresholds; adding 0.0 turns -0.0 into 0.0.
arm_values = st.sampled_from(GRID + TIED) | st.floats(0.0, 1.0).map(lambda a: a + 0.0)


@st.composite
def lockstep_cases(draw):
    alphas = tuple(sorted(set(draw(st.lists(arm_values, min_size=1, max_size=5)))))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        # No eos lets captions run to the cap, so chunks fill sooner.
        "eos_prob": draw(st.sampled_from((0.08, 0.0))),
        "alphas": alphas,
        "gamma": draw(st.floats(1.0, 1e3)),
        "max_len": draw(st.integers(len(alphas), 8)),
        "budget": draw(st.integers(len(alphas), 400)),
        "sigmas": draw(
            st.lists(st.sampled_from(SIGMAS), min_size=1, max_size=3, unique=True)
        ),
        "lam": draw(st.floats(0.0, 5.0)),
        "mu": draw(st.none() | st.floats(1e-3, 10.0)),
        "keep_log": draw(st.booleans()),
    }


def fixed_case(alphas, max_len, budget, eos_prob=0.0):
    return {
        "seed": 5, "eos_prob": eos_prob, "alphas": alphas, "gamma": 1.0,
        "max_len": max_len, "budget": budget, "sigmas": SIGMAS, "lam": 1.0,
        "mu": None, "keep_log": True,
    }


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(lockstep_cases())
# Budgets that end past one chunk: at eos_prob 0 every caption runs to
# the cap, so a chunk holds IMAGE_CHUNK * max_len rounds.
@example(fixed_case((0.5,), 1, 3 * IMAGE_CHUNK + 1))
@example(fixed_case((0.2, 0.5, 0.8), 3, 2 * 3 * IMAGE_CHUNK))
@example(fixed_case((0.1, 0.35, 0.6, 0.65, 1.0), 5, 400, eos_prob=0.08))
@example(fixed_case((*TIED, 0.5), 4, 300, eos_prob=0.08))
def test_lockstep_cells_match_the_scalar_reference(case):
    base = SyntheticConfidenceModel(seed=case["seed"], eos_prob=case["eos_prob"])
    actions = ActionSet(case["alphas"])
    params = RewardParams(n_layers=base.n_layers, mu=case["mu"], lam=case["lam"])
    gamma, max_len, budget = case["gamma"], case["max_len"], case["budget"]

    def cells():
        log = BanditLog() if case["keep_log"] else None
        # The drawn grid, and a fixed threshold on its first arm.
        return [
            AdaptiveCell(actions, params, log),
            AdaptiveCell(ActionSet(case["alphas"][:1]), params),
        ]

    groups = [(distort(base, sigma), cells()) for sigma in case["sigmas"]]
    run_lockstep(base, groups, gamma, budget, max_len)
    for model, group in groups:
        for cell in group:
            assert_cell_matches_reference(cell, model, gamma, max_len, budget)
            assert cell.state.t == budget
