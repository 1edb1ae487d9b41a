import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matpress._engine import LevelCache, RunClock, _dedup_rows, _normalize
from matpress.errors import BudgetExhaustedError


def reference_dedup(mants, exps, logw, d):
    """Row dedup through np.unique(axis=0), kept as the reference order."""
    m = len(logw)
    if m == 0:
        return mants, exps, logw
    key = np.concatenate(
        [exps[:, None].astype(np.float64), mants.reshape(m, d * d)], axis=1
    )
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    if len(uniq) == m:
        return mants[order], exps[order], logw[order]
    gid = inverse[order]
    lw = logw[order]
    starts = np.flatnonzero(np.r_[True, np.diff(gid) > 0])
    gmax = np.maximum.reduceat(lw, starts)
    counts = np.diff(np.r_[starts, m])
    gsum = np.add.reduceat(np.exp(lw - np.repeat(gmax, counts)), starts)
    logw_u = gmax + np.log(gsum)
    mants_u = np.ascontiguousarray(uniq[:, 1:].reshape(-1, d, d))
    exps_u = uniq[:, 0].astype(np.int64)
    return mants_u, exps_u, logw_u


def reference_levels(weights, mats, top, dedup):
    """Levels 1..top built with einsum products and the reference dedup."""
    d = mats.shape[1]
    mants, exps, nonzero = _normalize(np.array(mats, dtype=np.float64))
    logw = np.log(np.asarray(weights, dtype=np.float64))
    if dedup:
        mants, exps, logw = reference_dedup(mants[nonzero], exps[nonzero], logw[nonzero], d)
    levels = {1: (mants, exps, logw)}
    for m in range(2, top + 1):
        lm, le, lw = levels[m - 1]
        rm, re, rw = levels[1]
        prod = np.einsum("aij,bjk->abik", lm, rm).reshape(-1, d, d)
        mants, e2, nonzero = _normalize(prod)
        exps = (le[:, None] + re[None, :]).ravel() + e2
        logw = (lw[:, None] + rw[None, :]).ravel()
        if dedup:
            mants, exps, logw = reference_dedup(
                mants[nonzero], exps[nonzero], logw[nonzero], d
            )
        levels[m] = (mants, exps, logw)
    return levels


def assert_same_rows(got, want, signed_zeros):
    # Exact bits everywhere, except that a merged group of rows equal under
    # == may be represented by a member differing only in signs of zeros.
    (gm, ge, gw), (wm, we, ww) = got, want
    assert gm.shape == wm.shape
    if signed_zeros:
        assert np.array_equal(gm, wm)
    else:
        assert np.array_equal(gm.view(np.int64), wm.view(np.int64))
    assert np.array_equal(ge, we)
    assert np.array_equal(gw.view(np.int64), ww.view(np.int64))


def draw_rows(seed, d, m, kind):
    rng = np.random.default_rng(seed)
    logw = rng.standard_normal(m)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (m, d, d)), rng.integers(-2, 3, m), logw
    if kind == "tied_first_entry":
        # every row shares its exponent and first entry with many others;
        # a few are exact repeats
        mants = rng.uniform(-1.0, 1.0, (m, d, d))
        mants[:, 0, 0] = rng.choice([0.5, -0.75], m)
        rep = rng.integers(0, m, m // 4)
        mants[rng.integers(0, m, len(rep))] = mants[rep]
        return mants, rng.integers(0, 2, m), logw
    # dyadic entries from a small set: many exact duplicates
    mants = rng.integers(-2, 3, (m, d, d)) / 4.0
    if kind == "signed_zeros":
        flip = (mants == 0.0) & (rng.random((m, d, d)) < 0.5)
        mants[flip] = -0.0
    return mants, rng.integers(0, 2, m), logw


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.integers(0, 400),
    st.sampled_from(["random", "dyadic", "tied_first_entry", "signed_zeros"]),
)
def test_dedup_matches_np_unique_reference(seed, d, m, kind):
    mants, exps, logw = draw_rows(seed, d, m, kind)
    got = _dedup_rows(mants, exps, logw, d)
    want = reference_dedup(mants, exps, logw, d)
    assert_same_rows(got, want, signed_zeros=kind == "signed_zeros")


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [0, 1])
def test_dedup_empty_and_single_row(d, m):
    mants, exps, logw = np.full((m, d, d), 0.5), np.full(m, 3), np.full(m, -0.25)
    got = _dedup_rows(mants, exps, logw, d)
    assert_same_rows(got, reference_dedup(mants, exps, logw, d), signed_zeros=False)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.booleans())
def test_planar_levels_match_einsum_build(seed, n_atoms, dyadic, dedup):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_atoms)
    if dyadic:
        mats = rng.integers(-2, 3, (n_atoms, 2, 2)) / 4.0
    else:
        mats = rng.uniform(-0.9, 0.9, (n_atoms, 2, 2))
    cache = LevelCache(weights, mats, dedup)
    assert cache.ensure(8) == 8
    want = reference_levels(weights, mats, 8, dedup)
    for m in range(2, 9):
        assert_same_rows(cache.levels[m], want[m], signed_zeros=dyadic)


class CountdownClock:
    """Stands in for RunClock: the check after ``ticks`` passes raises."""

    def __init__(self, ticks):
        self.ticks = ticks

    def check(self):
        if self.ticks == 0:
            raise BudgetExhaustedError("wall clock budget exhausted", reason="wall_clock")
        self.ticks -= 1


def test_expired_clock_stops_level_building():
    mats = np.array([[[0.6, 0.2], [0.1, 0.4]], [[0.3, -0.2], [0.25, 0.5]]])
    cache = LevelCache([1.0, 1.0], mats, True)
    clock = RunClock(600.0)
    clock.deadline = time.monotonic() - 1.0
    with pytest.raises(BudgetExhaustedError) as err:
        cache.parts_for(10, clock)
    assert err.value.reason == "wall_clock"
    assert sorted(cache.levels) == [1] and cache.top == 1

    with pytest.raises(BudgetExhaustedError):
        cache.ensure(10, CountdownClock(3))
    assert sorted(cache.levels) == [1, 2, 3, 4] and cache.top == 4
