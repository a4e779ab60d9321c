"""Block statistics: numpy's full-array min, mean and candidates, rebuilt from blocks in any order."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcontract import blockstats, harness
from hypcontract.harness import (
    CHUNK_SIZE,
    CaseSpec,
    SampleSpec,
    SuiteConfig,
    default_config,
    run_suite,
)

BLOCK = harness.BLOCK_CHUNKS * CHUNK_SIZE  # the block bounds of a sampled case's pass
TOL_ABS = 1e-9


def _reduced(margins, block=BLOCK, seed=0):
    """The statistics of ``margins`` reduced in blocks of ``block`` rows, in a shuffled order."""
    n = len(margins)
    layout = blockstats.Layout(n, block)
    stats = blockstats.Stats(layout, TOL_ABS)
    starts = list(range(0, n, block))
    np.random.default_rng(seed).shuffle(starts)  # threads finish blocks in any order
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in a lane, as in np.mean
        for a in starts:
            b = min(a + block, n)
            stats.add(layout.block(a, b), margins[a:b], 0.0)  # m - 0.0 is m, bit for bit
    return stats


def _margins(count, seed, specials):
    """Margins over many magnitudes, some below -tol_abs, with NaN and infinities if asked."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(count) * 10.0 ** rng.integers(-12, 4, count)
    m[rng.random(count) < 0.05] = 0.0
    if specials:
        m[rng.integers(0, count, 3)] = rng.choice([np.nan, np.inf, -np.inf], 3)
    return m


def _assert_numpy_stats(stats, m):
    with np.errstate(invalid="ignore", over="ignore"):
        want_mean, want_min = float(np.mean(m)), float(np.min(m))
        mean = stats.mean()
        rows, near = stats.candidates()
        want_rows = np.nonzero(m < -TOL_ABS)[0]
    if np.isnan(want_mean):
        assert np.isnan(mean)
    else:
        assert mean.hex() == want_mean.hex()
    assert np.isnan(stats.min()) if np.isnan(want_min) else stats.min().hex() == want_min.hex()
    assert rows.tolist() == want_rows.tolist()
    assert near.tobytes() == m[want_rows].tobytes()
    assert stats.count == len(m)


COUNTS = st.one_of(
    st.integers(1, 300),
    st.integers(BLOCK - 1, BLOCK + 1),
    st.sampled_from([100_000, 1_000_000]),
)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(count=COUNTS, seed=st.integers(0, 2**32 - 1), specials=st.booleans())
@example(count=BLOCK - 1, seed=1, specials=False)
@example(count=BLOCK, seed=2, specials=False)
@example(count=BLOCK + 1, seed=3, specials=False)
@example(count=100_000, seed=4, specials=False)
@example(count=1_000_000, seed=5, specials=False)
@example(count=1_000_000, seed=6, specials=True)
def test_block_statistics_are_numpys(count, seed, specials):
    m = _margins(count, seed, specials)
    _assert_numpy_stats(_reduced(m, seed=seed), m)


@pytest.mark.parametrize("block", [CHUNK_SIZE, BLOCK])
def test_every_count_to_300_and_around_a_block(block):
    # every tree shape up to two full levels of leaves, and a block bound
    # inside, at and past a leaf
    for count in [*range(1, 301), BLOCK - 1, BLOCK, BLOCK + 1, 3 * CHUNK_SIZE + 5]:
        m = _margins(count, count, specials=False)
        _assert_numpy_stats(_reduced(m, block), m)


def test_lanes_are_added_one_after_another():
    # 1 + 2**-53 + 2**-53 ... in one lane: added one by one each small term
    # is lost; summed pairwise first, they would count
    m = np.zeros(128)
    m[0::8] = [1.0] + [2.0**-53] * 15
    assert blockstats.of(m, TOL_ABS).mean().hex() == float(np.mean(m)).hex() == (1.0 / 128).hex()


@pytest.mark.parametrize("count", [1, 9, 200, BLOCK + 3])
def test_the_sum_starts_from_numpys_identity(count):
    # np.add.reduce adds the pairwise sum to 0.0, so negative zeros sum to 0.0
    m = np.full(count, -0.0)
    assert _reduced(m).mean().hex() == float(np.mean(m)).hex() == (0.0).hex()


def test_whole_array_is_one_block():
    m = _margins(10_201, 7, specials=False)  # the polar grid's size
    stats = blockstats.of(m, TOL_ABS)
    assert stats.layout.n_blocks == 1 and stats.layout.n_edge == 0
    _assert_numpy_stats(stats, m)


def test_no_margin_is_negative_zero():
    # The minimum of the block minima is np.min's only because no margin is
    # -0.0: rhs - lhs is -0.0 only for rhs = -0.0, and no right side is.
    # Between 0.0 and -0.0, np.min may return either.
    zeros = np.array([0.0, -0.0])
    diffs = np.subtract.outer(zeros, zeros)
    assert np.signbit(diffs).tolist() == [[False, False], [True, False]]  # only -0.0 - 0.0
    result = run_suite(default_config(count=3 * CHUNK_SIZE + 5))
    zero_margins = 0
    for r in result.reports:
        if r.margins is None:
            continue
        zero = r.margins[r.margins == 0.0]
        zero_margins += len(zero)
        assert not np.signbit(zero).any(), r.case_id
        assert r.min_margin.hex() == float(np.min(r.margins)).hex()
    assert zero_margins > 0


def test_a_count_that_cannot_be_reduced_fails_at_once():
    # the leaf arrays of 10**15 values need 62 TB, which numpy refuses at once
    with pytest.raises(MemoryError):
        blockstats.Layout(10**15, BLOCK)


@pytest.mark.parametrize("keep_margins", [True, False])
def test_overflowing_sum_of_finite_margins_takes_the_scaled_mean(keep_margins):
    # kv_factor at factor 1e306: margins up to 8.7e306, every one finite, so
    # the plain sum overflows; without a margins consumer the case is run
    # again keeping its margins, for the scaled mean
    config = SuiteConfig(
        sample=SampleSpec(count=2000),
        cases=(CaseSpec(op="kv_factor", function="strip_map", factor=1e306),),
    )
    with np.errstate(over="ignore"):
        (report,) = run_suite(config, keep_margins=keep_margins).reports
    assert report.mean_margin == pytest.approx(3.0247e306, rel=1e-4)
    assert report.mean_margin.hex() == (3.024739843668477e306).hex()
    assert (report.margins is not None) == keep_margins
