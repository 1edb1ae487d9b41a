import itertools
import math
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import matpress
from matpress import FiniteMatrixMeasure, WordBudget, _engine
from matpress._engine import (
    LN2,
    LevelCache,
    RunClock,
    _chunk_stats,
    _dedup_rows,
    _normalize,
    _sigma3,
    _sigma_cols,
    _unit_arrays,
    held_phi_bounds,
    weighted_sums,
)
from matpress.errors import BudgetExhaustedError, InvalidInputError
from matpress.measure import norm_kernel, weighted_power_sum


def reference_dedup(mants, exps, logw, ldet, d):
    """Row dedup through np.unique(axis=0), kept as the reference order; a
    merged group keeps the ldet of its first row."""
    m = len(logw)
    if m == 0:
        return mants, exps, logw, ldet
    key = np.concatenate(
        [exps[:, None].astype(np.float64), mants.reshape(m, d * d)], axis=1
    )
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    order = np.argsort(inverse, kind="stable")
    if len(uniq) == m:
        return mants[order], exps[order], logw[order], ldet[order]
    gid = inverse[order]
    lw = logw[order]
    starts = np.flatnonzero(np.r_[True, np.diff(gid) > 0])
    gmax = np.maximum.reduceat(lw, starts)
    counts = np.diff(np.r_[starts, m])
    gsum = np.add.reduceat(np.exp(lw - np.repeat(gmax, counts)), starts)
    logw_u = gmax + np.log(gsum)
    mants_u = np.ascontiguousarray(uniq[:, 1:].reshape(-1, d, d))
    exps_u = uniq[:, 0].astype(np.int64)
    return mants_u, exps_u, logw_u, ldet[order][starts]


def lexsort_dedup(mants, exps, logw, ldet, d):
    """The dedup that ordered rows by one stable two-key lexsort on
    (exponent, first entry), kept as the reference for the exact bytes of
    every level: same rows, same order, same kept ldet, same signs of zero."""
    m = len(logw)
    if m == 0:
        return mants, exps, logw, ldet
    flat = mants.reshape(m, d * d)
    order = np.lexsort((flat[:, 0], exps))
    e0, f0 = exps[order], flat[order, 0]
    same = np.zeros(m + 1, dtype=bool)
    same[1:m] = (e0[1:] == e0[:-1]) & (f0[1:] == f0[:-1])
    pos = np.flatnonzero(same[1:] | same[:-1])
    if len(pos):
        sub = order[pos]
        keys = [flat[sub, j] for j in range(d * d - 1, 0, -1)]
        order[pos] = sub[np.lexsort(keys + [np.cumsum(~same[pos])])]
    mants, exps, lw, ldet = mants[order], exps[order], logw[order], ldet[order]
    flat = mants.reshape(m, d * d)
    for j in range(1, d * d):
        same[1:m] &= flat[1:, j] == flat[:-1, j]
    if not same.any():
        return mants, exps, lw, ldet
    starts = np.flatnonzero(~same[:m])
    gmax = np.maximum.reduceat(lw, starts)
    counts = np.diff(starts, append=m)
    gsum = np.add.reduceat(np.exp(lw - np.repeat(gmax, counts)), starts)
    return mants[starts], exps[starts], gmax + np.log(gsum), ldet[starts]


def reference_normalize(mats):
    """Power-of-two row rescaling of a copy of ``mats``, each row's scale
    taken by np.max over axes (1, 2): (mantissas, exponents, nonzero rows)."""
    scale = np.max(np.abs(mats), axis=(1, 2))
    e = np.frexp(scale)[1].astype(np.int64)
    nonzero = scale > 0.0
    e[~nonzero] = 0
    return np.ldexp(mats, (-e)[:, None, None]), e, nonzero


def reference_levels(weights, mats, top, dedup):
    """Levels 1..top built with einsum products, the reference rescaling and
    the reference dedup; each row's ldet is the sum of its atoms' slogdet,
    left to right."""
    d = mats.shape[1]
    ldet = np.array([np.linalg.slogdet(a)[1] for a in mats])
    mants, exps, nonzero = reference_normalize(np.array(mats, dtype=np.float64))
    logw = np.log(np.asarray(weights, dtype=np.float64))
    if dedup:
        mants, exps, logw, ldet = reference_dedup(
            mants[nonzero], exps[nonzero], logw[nonzero], ldet[nonzero], d
        )
    levels = {1: (mants, exps, logw, ldet)}
    for m in range(2, top + 1):
        lm, le, lw, ld = levels[m - 1]
        rm, re, rw, rd = levels[1]
        prod = np.einsum("aij,bjk->abik", lm, rm).reshape(-1, d, d)
        mants, e2, nonzero = reference_normalize(prod)
        exps = (le[:, None] + re[None, :]).ravel() + e2
        logw = (lw[:, None] + rw[None, :]).ravel()
        ldet = np.array([a + b for a in ld for b in rd])
        if dedup:
            mants, exps, logw, ldet = reference_dedup(
                mants[nonzero], exps[nonzero], logw[nonzero], ldet[nonzero], d
            )
        levels[m] = (mants, exps, logw, ldet)
    return levels


def assert_same_rows(got, want, signed_zeros):
    # Exact bits everywhere, except that a merged group of rows equal under
    # == may be represented by a member differing only in signs of zeros.
    (gm, ge, gw, gd), (wm, we, ww, wd) = got, want
    assert gm.shape == wm.shape
    if signed_zeros:
        assert np.array_equal(gm, wm)
    else:
        assert np.array_equal(gm.view(np.int64), wm.view(np.int64))
    assert np.array_equal(ge, we)
    assert np.array_equal(gw.view(np.int64), ww.view(np.int64))
    assert np.array_equal(gd.view(np.int64), wd.view(np.int64))


def draw_rows(seed, d, m, kind):
    rng = np.random.default_rng(seed)
    logw = rng.standard_normal(m)
    # a distinct ldet a row, so a merged group shows which row's it kept
    ldet = rng.standard_normal(m)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (m, d, d)), rng.integers(-2, 3, m), logw, ldet
    if kind == "diagonal_dyadic":
        # normalised products of dyadic diagonal atoms, as DYADIC4's levels
        # hold: every row ties with others on (exponent, first entry) 0.5
        mants = np.zeros((m, d, d))
        diag = np.einsum("aii->ai", mants)
        diag[:] = 2.0 ** -rng.integers(1, 6, (m, d))
        diag[:, 0] = 0.5
        return mants, rng.integers(0, 2, m), logw, ldet
    if kind == "tied_first_entry":
        # every row shares its exponent and first entry with many others;
        # a few are exact repeats
        mants = rng.uniform(-1.0, 1.0, (m, d, d))
        mants[:, 0, 0] = rng.choice([0.5, -0.75], m)
        rep = rng.integers(0, m, m // 4)
        mants[rng.integers(0, m, len(rep))] = mants[rep]
        return mants, rng.integers(0, 2, m), logw, ldet
    if kind == "repeated":
        # generic rows, each repeated exactly a few times in shuffled order
        mants = rng.uniform(-1.0, 1.0, (m // 3 + 1, d, d))[rng.integers(0, m // 3 + 1, m)]
        return mants, np.zeros(m, dtype=np.int64), logw, ldet
    # dyadic entries from a small set: many exact duplicates
    mants = rng.integers(-2, 3, (m, d, d)) / 4.0
    if kind == "signed_zeros":
        flip = (mants == 0.0) & (rng.random((m, d, d)) < 0.5)
        mants[flip] = -0.0
    return mants, rng.integers(0, 2, m), logw, ldet


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.integers(0, 400),
    st.sampled_from(["random", "dyadic", "tied_first_entry", "signed_zeros", "diagonal_dyadic"]),
)
def test_dedup_matches_np_unique_reference(seed, d, m, kind):
    if kind == "diagonal_dyadic":
        m += 4097  # a tied run's sub-sort then reorders nearly every row of a large level
    rows = draw_rows(seed, d, m, kind)
    got = _dedup_rows(*rows, d)
    want = reference_dedup(*rows, d)
    assert_same_rows(got, want, signed_zeros=kind == "signed_zeros")


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(0, 300),
    st.sampled_from(["random", "dyadic", "tied_first_entry", "signed_zeros",
                     "diagonal_dyadic", "repeated"]),
    st.booleans(),
)
@example(0, 2, 0, "random", False)
@example(0, 3, 1, "dyadic", True)
@example(1, 1, 200, "signed_zeros", True)
@example(2, 1, 70_000, "dyadic", True)
def test_dedup_matches_lexsort_bytes(seed, d, m, kind, wide):
    # wide: the exponents span more than 2^15, with ties kept; 70,000 rows
    # take 32-bit ranks
    mants, exps, logw, ldet = draw_rows(seed, d, m, kind)
    if wide:
        exps = exps + np.random.default_rng(seed).choice([-(2**16), 0, 2**15 + 3], m)
    got = _dedup_rows(mants.copy(), exps.copy(), logw.copy(), ldet.copy(), d)
    want = lexsort_dedup(mants, exps, logw, ldet, d)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [0, 1])
def test_dedup_empty_and_single_row(d, m):
    rows = np.full((m, d, d), 0.5), np.full(m, 3), np.full(m, -0.25), np.full(m, 1.5)
    got = _dedup_rows(*rows, d)
    assert_same_rows(got, reference_dedup(*rows, d), signed_zeros=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.booleans(),
       st.sampled_from([1, 2, 3, 4]))
@example(1, 3, False, False, 3)
@example(2, 3, False, True, 3)
@example(3, 3, True, False, 3)
@example(4, 3, True, True, 3)
@example(5, 3, False, False, 4)
@example(6, 3, True, True, 4)
@example(7, 3, False, False, 1)
@example(8, 3, True, True, 1)
@example(0, 1, True, True, 1)
def test_planar_levels_match_einsum_build(seed, n_atoms, dyadic, dedup, d):
    # every d takes the same column loop, summing each entry's terms in
    # einsum's order; (0, 1, True, True, 1) draws one zero atom, so dedup
    # leaves every level empty
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n_atoms)
    if dyadic:
        mats = rng.integers(-2, 3, (n_atoms, d, d)) / 4.0
    else:
        mats = rng.uniform(-0.9, 0.9, (n_atoms, d, d))
    cache = LevelCache(weights, mats, dedup)
    assert cache.ensure(8) == 8
    want = reference_levels(weights, mats, 8, dedup)
    for m in range(2, 9):
        assert_same_rows(cache.levels[m], want[m], signed_zeros=dyadic)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_normalize_matches_axis_max_formula(d):
    rng = np.random.default_rng(d)
    mats = rng.uniform(-1.0, 1.0, (64, d, d)) * 2.0 ** rng.integers(-60, 61, (64, 1, 1))
    mats[0] = 0.0
    mats[1] = -0.0
    mats[2].flat[1::2] = -0.0  # negative zeros beside nonzero entries
    mats[3] = rng.uniform(-1.0, 1.0, (d, d)) * 2.0 ** -1040  # subnormal entries
    mats[4] = 5e-324 * rng.integers(-3, 4, (d, d))
    mats[4, 0, 0] = -5e-324  # a nonzero row of the least subnormals
    mats[5] = np.abs(mats[5])
    mats[5, -1, -1] = -2.0  # the max |entry| is a negative entry
    mats[6] = -np.abs(mats[6])
    for rows in (mats[:0], mats):
        got = _normalize(rows.copy())
        want = reference_normalize(rows.copy())
        assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
        assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
    assert list(got[2][:5]) == [False, False, True, True, True]


def test_level_build_peak_memory():
    # the largest 2x2 level two atoms build, 2^14 rows (half the row cap),
    # is 0.5 MiB of products; normalised in place and not filtered (no zero
    # rows), building it from level 13 peaks at 2.32 MiB of traced memory,
    # against 5.50 MiB when level 15 (2^15 rows) was built after it
    mats = np.random.default_rng(20260817).uniform(-0.9, 0.9, (2, 2, 2))
    cache = LevelCache([1.0, 1.0], mats, True)
    cache.ensure(13)
    tracemalloc.start()
    try:
        cache.ensure(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.top == 14 and 2 * cache.rows(14) == 2**15 == cache.row_cap
    assert peak < 2.5 * 2**20


def test_long_words_build_no_level_above_the_cap():
    # n=20 over two 2x2 atoms: level 14 times each length-6 suffix, so the
    # sum peaks at 3.56 MiB of traced memory (7.06 MiB on level 15 units);
    # materializing levels up to 2^20 rows, as a 2^22 / d^2 cap did, peaked
    # at 187 MiB
    rng = np.random.default_rng(20260817)
    mu = FiniteMatrixMeasure([(1.0, rng.uniform(-0.9, 0.9, (2, 2))) for _ in range(2)])
    tracemalloc.start()
    try:
        weighted_sums(mu, 20, "norm", [1.0], WordBudget())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (cache,) = mu._engine_caches.values()
    assert cache.top == 14
    assert max(cache.rows(m) for m in cache.levels) <= cache.row_cap // 2 == 2**14
    assert peak < 4 * 2**20


def test_two_atom_3x3_phi_sum_peak_memory():
    # n=20 over two 3x3 atoms: 64 units of 2^14 rows.  At phi^1.5 they
    # peaked at 7.28 MiB of traced memory with the kernel's temporaries
    # (12.27 MiB for 32 units of 2^15 rows) and at 6.50 MiB with its
    # preallocated rows; sigma_1 alone, a norm sum and max_norm_word, at
    # 5.93 and 6.00 MiB, against 7.27 and 6.05 with temporaries
    rng = np.random.default_rng(20260817)
    atoms = [(1.0, rng.uniform(-0.9, 0.9, (3, 3))) for _ in range(2)]
    for run in (lambda mu: weighted_sums(mu, 20, "phi", [1.5], WordBudget(), workers=1),
                lambda mu: weighted_sums(mu, 20, "norm", [1.0], WordBudget(), workers=1),
                lambda mu: _engine.max_norm_word(mu, 20, WordBudget())):
        mu = FiniteMatrixMeasure(atoms)
        tracemalloc.start()
        try:
            run(mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (cache,) = mu._engine_caches.values()
        assert cache.top == 14
        assert peak < 7.3 * 2**20


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n_atoms, top, rows", [(2, 14, 2**14), (3, 9, 3**9), (4, 7, 4**7),
                                                (8, 5, 8**5)])
def test_top_level_holds_half_the_row_cap_or_more(d, n_atoms, top, rows):
    # levels grow while the top one holds under half the cap and the next
    # fits it: only two atoms stop below the full cap's last level
    mats = np.random.default_rng(d * n_atoms).uniform(-0.9, 0.9, (n_atoms, d, d))
    for dedup in (True, False):
        cache = LevelCache(np.ones(n_atoms), mats, dedup)
        cache.ensure(40)
        assert (cache.top, cache.rows(cache.top)) == (top, rows)
        assert 2 * rows >= cache.row_cap == 2**15 >= rows


def test_lifted_pair_levels_stay_within_the_row_cap():
    # a 9x9 lift of a 3x3 pair (k=1, p/q=1/2) stops at 2^14 rows too, under
    # _row_cap(9) = 2^15
    atoms = np.random.default_rng(9).uniform(-0.9, 0.9, (2, 3, 3))
    lifted = np.array([matpress.linalg.lift(a, 1, 1, 2) for a in atoms])
    cache = LevelCache([1.0, 1.0], lifted, True)
    cache.ensure(20)
    assert cache.row_cap == _engine._row_cap(9) == 2**15
    assert cache.top == 14 and cache.rows(14) == 2**14


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


def reference_log_sigmas(mats, d):
    """Row-wise (rows, d) log singular values, the layout the columns replaced."""
    m = len(mats)
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 1:
            return np.log(np.abs(mats.reshape(m, 1)))
        if d == 2:
            a = mats[:, 0, 0]
            b = mats[:, 0, 1]
            c = mats[:, 1, 0]
            e = mats[:, 1, 1]
            t = a * a + b * b + c * c + e * e
            det = a * e - b * c
            disc = np.maximum(t * t - 4.0 * det * det, 0.0)
            s1sq = 0.5 * (t + np.sqrt(disc))
            out = np.empty((m, 2))
            out[:, 0] = 0.5 * np.log(s1sq)
            out[:, 1] = np.log(np.abs(det)) - out[:, 0]
            zero = s1sq == 0.0
            if np.any(zero):
                out[zero, :] = -np.inf
            return out
        return np.log(np.linalg.svd(mats, compute_uv=False))


def reference_kernel_logs(logsig, logw, kind, s, d):
    """Per-row log kernel values from (rows, d) log singular values."""
    if kind == "norm":
        return logw + s * logsig[:, 0]
    if s >= d:
        return logw + (s / d) * np.sum(logsig, axis=1)
    k = int(s)
    vals = np.sum(logsig[:, :k], axis=1) if k else np.zeros(len(logw))
    frac = s - k
    if frac > 0.0:
        vals = vals + frac * logsig[:, k]
    return logw + vals


def reference_sum_stats(vals):
    if len(vals) == 0:
        return (-math.inf, 0.0)
    m = float(np.max(vals))
    if m == -math.inf:
        return (-math.inf, 0.0)
    return (m, float(np.sum(np.exp(vals - m))))


def same_floats(a, b):
    return np.array_equal(np.asarray(a, float).view(np.int64), np.asarray(b, float).view(np.int64))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 9]),
    st.sampled_from([0, 1, 7, 300]),
    st.sampled_from(["random", "zero_rows", "signed_zeros"]),
    st.one_of(st.none(), st.floats(-3.0, 3.0)),
)
def test_chunk_stats_match_row_reference(seed, d, m, kind, shift):
    rng = np.random.default_rng(seed)
    logsig = np.sort(rng.normal(-2.0, 3.0, (m, d)), axis=1)[:, ::-1].copy()
    logw = rng.normal(0.0, 1.0, m)
    if kind == "zero_rows":
        logsig[rng.random(m) < 0.5] = -np.inf
    elif kind == "signed_zeros":
        # non-positive values, so rows holding -0.0 are often the maximum
        logsig = -np.abs(logsig)
        logsig[rng.random((m, d)) < 0.3] = -0.0
        logw = -np.abs(logw)
        logw[rng.random(m) < 0.3] = -0.0
        if shift is not None:
            shift = -0.0
    cols = np.ascontiguousarray(logsig.T)
    # below 1, integer, k + frac and at or above d
    s_list = [0.3, 1.0, 1.0 + rng.random(), float(d), d + 0.5, 2.5 * d]
    s_list += [k + 0.25 for k in range(d)] + [float(k) for k in range(2, d)]
    full_logw = logw if shift is None else logw + shift
    for kern in ("norm", "phi"):
        got = _chunk_stats((cols, logw, shift), kern, s_list, d)
        for s, stats in zip(s_list, got):
            want = reference_sum_stats(reference_kernel_logs(logsig, full_logw, kern, s, d))
            assert same_floats(stats, want), (kern, s)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 9, 300]),
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, -1.5])),
)
def test_phi_stats_below_one_keep_the_zero_row_bits(seed, d, m, shift):
    # S_0 is no longer formed for 0 < s < 1; the reference still adds it
    rng = np.random.default_rng(seed)
    logsig = -np.abs(rng.normal(0.0, 2.0, (m, d)))
    logsig[rng.random((m, d)) < 0.3] = -0.0
    logsig[rng.random((m, d)) < 0.2] = -np.inf
    logw = -np.abs(rng.normal(0.0, 1.0, m))
    logw[rng.random(m) < 0.3] = -0.0
    s_list = [0.0, 0.5, float(rng.random()), 2.0**-60]
    full_logw = logw if shift is None else logw + shift
    got = _chunk_stats((np.ascontiguousarray(logsig.T), logw, shift), "phi", s_list, d)
    for s, stats in zip(s_list, got):
        want = reference_sum_stats(reference_kernel_logs(logsig, full_logw, "phi", s, d))
        assert same_floats(stats, want), s


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 4]), st.booleans())
def test_sigma_cols_match_row_reference(seed, d, dyadic):
    rng = np.random.default_rng(seed)
    m = 200
    mats = rng.uniform(-1.0, 1.0, (m, d, d))
    if dyadic:
        mats = np.round(mats * 2.0) / 2.0  # zero and singular products
    exps = rng.integers(-40, 40, m)
    got = _sigma_cols(mats, exps, d)
    assert got.shape == (d, m) and got.flags.c_contiguous
    if d == 3:
        # closed forms, not LAPACK's bits: within the bound of the exact
        # singular values, and _sigma_cols is the kernel with the scale
        # applied (sigma_3 from the rows' own determinant by default)
        zero = np.zeros(16, dtype=np.int64)
        sig = np.exp(_sigma3(mats[:16], zero, exact_ldet(mats[:16]), np.empty((3, 16)))[0])
        assert_within_bound(sig, exact_sigmas(mats[:16]))
        want = _sigma3(mats, exps, None, np.empty((3, m)))[0].T
    else:
        want = reference_log_sigmas(mats, d) + (exps * LN2)[:, None]
    assert same_floats(got, want.T)


@pytest.mark.parametrize("d", [2, 3])
def test_sigma_cols_of_small_unnormalised_rows(d):
    # unit products are not normalised: a row scaled by 2^-600 must give the
    # singular values of the row at scale 1, where the closed 2x2 form would
    # square it into underflow (d=3 such rows take LAPACK's values)
    rng = np.random.default_rng(20260817)
    mats = rng.uniform(-1.0, 1.0, (64, d, d))
    mats[1] = 0.0
    exps = rng.integers(-40, 40, 64)
    want = _sigma_cols(mats, exps, d)
    got = _sigma_cols(mats * 2.0**-600, exps + 600, d)
    assert np.all(np.isneginf(got[:, 1])) and np.all(np.isneginf(want[:, 1]))
    rows = np.arange(64) != 1
    assert np.all(np.isfinite(got[:, rows]))
    np.testing.assert_allclose(got[:, rows], want[:, rows], rtol=0.0, atol=1e-12)



def test_sigma_cols_planar_sigma_2_from_ldet_past_underflow():
    # diag(1, 2^-600)^k has sigma_2 = 2^-600k: from k = 2 on its float matrix
    # holds 0 there and its det rounds to 0, so sigma_2 comes from the carried
    # log|det|, in the level rows, in unnormalised unit products, and in rows
    # small enough for the rescaled closed form
    cache = LevelCache([1.0], np.diag([1.0, 2.0**-600])[None], dedup=True)
    cache.ensure(4)
    for k in range(1, 5):
        want = np.array([[0.0], [-600.0 * k * LN2]])
        mats, exps, _, ldet = cache.levels[k]
        got = [_sigma_cols(mats, exps, 2, ldet),
               _sigma_cols(mats * 2.0**-600, exps + 600, 2, ldet)]
        if k > 1:
            got.append(_unit_arrays(cache, (k - 1, 1), (0,))[0])
        for cols in got:
            np.testing.assert_allclose(cols, want, rtol=1e-14, atol=1e-14)
    # without ldet the underflowed sigma_2 stays -inf, as before
    assert _sigma_cols(*cache.levels[2][:2], 2)[1, 0] == -math.inf


@pytest.mark.parametrize("seed", range(4))
def test_sigma_cols_planar_ldet_leaves_other_rows_alone(seed):
    # a det that rounds to 0 by cancellation (dyadic rows here, with an ldet
    # that says the exact det is not tiny) keeps its -inf: only an exact
    # log|det| below the double range replaces the rounded det
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, (300, 2, 2))
    mats[::2] = np.round(mats[::2] * 2.0) / 2.0
    mats[5] *= 2.0**-600
    exps = rng.integers(-40, 40, 300)
    ldet = rng.normal(0.0, 3.0, 300)
    assert same_floats(_sigma_cols(mats, exps, 2, ldet), _sigma_cols(mats, exps, 2))


U = 2.0 ** -53  # unit roundoff of float64


def exact_sigmas(mats, digits=50):
    """(d, rows) singular values from a ``digits``-digit SVD, rounded to float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        rows = [
            sorted(
                (float(v) for v in mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)),
                reverse=True,
            )
            for a in mats
        ]
    return np.array(rows).reshape(-1, mats.shape[1]).T


def assert_within_bound(sig, exact):
    err = np.abs(sig - exact)
    assert np.all(err <= 16.0 * U * exact[0]), np.max(err / (U * exact[0]))


def exact_minors(a):
    """The 2x2 minors and the determinant of a 3x3 float matrix, exactly."""
    f = [[Fraction(float(v)) for v in row] for row in a]
    minors = [
        f[i][k] * f[j][l] - f[i][l] * f[j][k]
        for i, j in ((0, 1), (0, 2), (1, 2))
        for k, l in ((0, 1), (0, 2), (1, 2))
    ]
    # minors[8 - k]: rows 1 and 2 without column k
    det = sum((-1) ** k * f[0][k] * minors[8 - k] for k in range(3))
    return minors, det


def exact_ldet(mats):
    """log|det| of each 3x3 row from its exact rational determinant."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(50):
        for a in mats:
            det = abs(exact_minors(a)[1])
            out.append(-math.inf if det == 0 else float(
                mpmath.log(mpmath.mpf(det.numerator) / det.denominator)))
    return np.array(out)


def exact_rank(a):
    """Rank of a 3x3 float matrix in exact rational arithmetic."""
    minors, det = exact_minors(a)
    if det != 0:
        return 3
    if any(minors):
        return 2
    return int(any(v != 0 for row in a for v in row))


def random_orthogonal(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, 3, 3)))
    return q


def draw_3x3(seed, kind, m):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.uniform(-1.0, 1.0, (m, 3, 3))
    if kind == "dominated":
        # products of up to eight atoms diag(1, .05, .01) U, stored as the
        # engine stores them (max |entry| in [0.5, 1))
        out = np.empty((m, 3, 3))
        for r in range(m):
            prod = np.eye(3)
            for _ in range(rng.integers(1, 9)):
                prod = prod @ (np.diag([1.0, 0.05, 0.01]) @ rng.uniform(-1.0, 1.0, (3, 3)))
            out[r] = prod
        return _normalize(out)[0]
    if kind == "near_degenerate":
        # top pair 0.9, 0.9 (1 - delta) with delta down to exactly 0
        delta = np.where(rng.random(m) < 0.3, 0.0, 10.0 ** -rng.uniform(0.0, 16.0, m))
        diag = np.zeros((m, 3, 3))
        diag[:, 0, 0] = 0.9
        diag[:, 1, 1] = 0.9 * (1.0 - delta)
        diag[:, 2, 2] = 0.9 * rng.uniform(-1.0, 1.0, m)
        return random_orthogonal(rng, m) @ diag @ random_orthogonal(rng, m)
    if kind in ("rank1", "rank2"):
        r = int(kind[-1])
        return rng.uniform(-1.0, 1.0, (m, 3, r)) @ rng.uniform(-1.0, 1.0, (m, r, 3))
    if kind == "zeros":
        # zero rows, zero columns and all-zero matrices
        mats = rng.uniform(-1.0, 1.0, (m, 3, 3))
        mats[rng.random((m, 3)) < 0.3] = 0.0
        mats.transpose(0, 2, 1)[rng.random((m, 3)) < 0.3] = 0.0
        mats[rng.random(m) < 0.2] = 0.0
        return mats
    if kind == "orthogonal":
        return random_orthogonal(rng, m) * rng.uniform(0.1, 4.0, (m, 1, 1))
    # signed zeros among random entries
    mats = rng.uniform(-1.0, 1.0, (m, 3, 3))
    zero = rng.random((m, 3, 3)) < 0.4
    mats[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    return mats


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([
        "random", "dominated", "near_degenerate", "rank1", "rank2", "zeros",
        "orthogonal", "signed_zeros",
    ]),
)
def test_closed_form_sigmas_match_exact_svd(seed, kind):
    m = 16
    mats = draw_3x3(seed, kind, m)
    ldet = exact_ldet(mats)
    exact = exact_sigmas(mats)
    cols, flagged = _sigma3(mats, np.zeros(m, dtype=np.int64), ldet, np.empty((3, m)))
    assert flagged.shape == (2, m) and not np.any(np.isnan(cols))
    assert np.all(cols[:-1] >= cols[1:])
    # rows the closed forms keep: every sigma_j within 16 u sigma_1
    kept = ~flagged[1]
    assert_within_bound(np.exp(cols[:, kept]), exact[:, kept])
    # flagged columns carry LAPACK's values, which are not held to 16 u
    # (LAPACK is 22-30 u off on some near-degenerate rows)
    with np.errstate(divide="ignore"):
        lapack = np.log(np.linalg.svd(mats, compute_uv=False).T)
    for j in range(2):
        assert same_floats(cols[j, flagged[j]], lapack[j, flagged[j]])
    # a singular value of a matrix of exact rank r > j is never taken as zero
    for r in range(m):
        assert np.all(cols[:exact_rank(mats[r]), r] > -np.inf)

    # each row alone, and at random places in a batch that spans three
    # blocks: the same bits; the sigma_1-only call gives column 0
    rng = np.random.default_rng(seed)
    exps = rng.integers(-40, 40, m)
    full = _sigma_cols(mats, exps, 3, ldet)
    big = 5 * _engine._BLOCK_ROWS // 2
    batch = rng.uniform(-1.0, 1.0, (big, 3, 3))
    batch_exps = rng.integers(-40, 40, big)
    batch_ldet = rng.normal(0.0, 3.0, big)
    at = rng.choice(big, m, replace=False)
    batch[at], batch_exps[at], batch_ldet[at] = mats, exps, ldet
    in_batch = _sigma_cols(batch, batch_exps, 3, batch_ldet)[:, at]
    alone = np.concatenate(
        [_sigma_cols(mats[r:r + 1], exps[r:r + 1], 3, ldet[r:r + 1]) for r in range(m)],
        axis=1,
    )
    assert same_floats(alone, in_batch) and same_floats(alone, full)
    top = _sigma_cols(batch, batch_exps, 3, top_only=True)
    assert top.shape == (1, big)
    assert same_floats(top[0, at], full[0])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: d=2 sigma_1 loses bits on near-conformal rows")
def test_closed_form_2x2_sigmas_match_exact_svd_on_orthogonal_rows():
    # the d=2 "orthogonal" kind: scaled rotations r R(theta), sigma_1 =
    # sigma_2 up to rounding.  _sigma_cols takes sigma_1^2 = (t + sqrt(t^2 -
    # 4 det^2)) / 2, whose difference under the root cancels there, and the
    # clamp at 0 pushes sigma_1 up; sigma_2 = |det| / sigma_1 follows.
    # Against a 50-digit SVD both log sigma_j are 9.7e-9 off on these 300
    # rows (7.2e-16 and 5.3e-15 on 300 U(-1, 1) rows), above the 16 u
    # sigma_1 held at d=3 and above _ROUNDING's allowance for a length-10
    # sum over two unit-weight atoms (about 2e-9)
    rng = np.random.default_rng(2)
    m = 300
    theta = rng.uniform(0.0, 2.0 * math.pi, m)
    c, s = np.cos(theta), np.sin(theta)
    mats = rng.uniform(0.1, 4.0, (m, 1, 1)) * np.stack([c, -s, s, c], axis=1).reshape(m, 2, 2)
    exact = exact_sigmas(mats)
    sig = np.exp(_sigma_cols(mats, np.zeros(m, dtype=np.int64), 2))
    assert_within_bound(sig, exact)


def graded_3x3():
    """Rows whose smallest singular value is 2^-100 to 2^-600 of the largest."""
    tri = np.array([[1.0, 0.5, 0.3], [0.0, 0.5, 0.2], [0.0, 0.0, 1e-9]])
    mats = np.array([
        np.diag([1.0, 1.0, 2.0 ** -600]),
        [[1.0, 0.5, 0.3], [0.0, 1.0, 0.2], [0.0, 0.0, 2.0 ** -600]],
        [[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.3, 0.2, 2.0 ** -600]],
        [[1.0, 0.5, 0.3], [0.0, 1.0, 0.2], [0.0, 0.0, 2.0 ** -100]],
        np.linalg.matrix_power(tri, 18),
        np.linalg.matrix_power(np.diag([1.0, 0.5, 1e-9]), 18),
    ])
    return _normalize(mats)[0]


def test_closed_form_sigmas_relative_on_graded_rows():
    # squared, the smallest singular values of these rows underflow or fall
    # far below the rounding noise of the largest: with the exact log|det|
    # each sigma_j must still come out to 16 u of its own size, beyond the
    # rounding of a logarithm that large (u |log sigma_j| for each of the
    # two roundings of sigma_3's)
    mpmath = pytest.importorskip("mpmath")
    mats = graded_3x3()
    ldet = exact_ldet(mats)
    exps = np.zeros(len(mats), dtype=np.int64)
    cols, flagged = _sigma3(mats, exps, ldet, np.empty((3, len(mats))))
    assert flagged[:, 0].all()  # diag(1, 1, 2^-600): a degenerate top pair
    with mpmath.workdps(400):
        for r, a in enumerate(mats):
            exact = sorted(mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False), reverse=True)
            for j in range(3):
                log_exact = mpmath.log(exact[j])
                err = abs(float(cols[j, r] - log_exact))
                assert err <= 16.0 * U + 2.0 * U * abs(float(log_exact)), (r, j, err / U)

    rng = np.random.default_rng(11)
    batch = rng.uniform(-1.0, 1.0, (5000, 3, 3))
    batch_ldet = rng.normal(0.0, 3.0, 5000)
    at = rng.choice(5000, len(mats), replace=False)
    batch[at], batch_ldet[at] = mats, ldet
    got = _sigma_cols(batch, np.zeros(5000, dtype=np.int64), 3, batch_ldet)
    assert same_floats(got[:, at], cols)
    assert np.all(np.isfinite(_sigma_cols(mats, exps, 3, ldet)))


def test_sigma_cols_bits_do_not_depend_on_the_block(monkeypatch):
    # random, graded, zero and near-degenerate rows shuffled together: cut
    # into blocks of 5 rows, with LAPACK-flagged rows in many blocks, every
    # column keeps the bits of the default single block
    rng = np.random.default_rng(5)
    mats = np.concatenate([
        draw_3x3(1, "random", 40), graded_3x3(), draw_3x3(2, "zeros", 40),
        draw_3x3(3, "near_degenerate", 40),
    ])
    mats = mats[rng.permutation(len(mats))]
    exps = rng.integers(-40, 40, len(mats))
    ldet = np.linalg.slogdet(mats)[1]
    flagged = _sigma3(mats, exps, ldet, np.empty((3, len(mats))))[1]
    for j in range(2):
        assert len(np.unique(np.flatnonzero(flagged[j]) // 5)) > 3
    assert len(mats) <= _engine._BLOCK_ROWS

    def all_cols():
        return [_sigma_cols(mats, exps, 3, ldet), _sigma_cols(mats, exps, 3),
                _sigma_cols(mats, exps, 3, top_only=True)]

    want = all_cols()
    monkeypatch.setattr(_engine, "_BLOCK_ROWS", 5)
    for got, w in zip(all_cols(), want):
        assert same_floats(got, w)


def reference_top_eig(x):
    """The closed-form top eigenvalue as written before it took preallocated
    rows: (exponents, top eigenvalue of X^T X, flagged rows), X scaled in place."""
    e = np.frexp(np.maximum(np.max(x, axis=0), -np.min(x, axis=0)))[1]
    np.ldexp(x, -e, out=x)
    a, b, c, d, f, g, h, i, j = x
    g00 = a * a + d * d + h * h
    g11 = b * b + f * f + i * i
    g22 = c * c + g * g + j * j
    g01 = a * b + d * f + h * i
    g02 = a * c + d * g + h * j
    g12 = b * c + f * g + i * j
    q = (g00 + g11 + g22) / 3.0
    g00, g11, g22 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((g00 * g00 + g11 * g11 + g22 * g22
                 + 2.0 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6.0)
    det = (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
           + g02 * (g01 * g12 - g11 * g02))
    r = det / (2.0 * p * p * p)
    r = np.fmin(np.fmax(r, -1.0), 1.0)
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0)
    return e, lam, (r < _engine._PAIR_GAP - 1.0) & (p > _engine._SCALAR * q)


def reference_sigma3(mats, exps, ldet, top_only):
    """_sigma3 as written with temporaries, np.stack and boolean-mask LAPACK
    passes: (log-sigma columns, LAPACK mask)."""
    x = mats.reshape(-1, 9).T.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        ea, lam, bad = reference_top_eig(x)
        t = ea + exps
        l1 = 0.5 * np.log(lam)
        if top_only:
            cols, bad = (l1 + t * LN2)[None], bad[None]
        else:
            mnr = np.stack([x[i] * x[j] - x[k] * x[l] for i, j, k, l in _engine._MINORS])
            ec, lam_c, bad_c = reference_top_eig(mnr)
            if ldet is None:
                ldet = np.linalg.slogdet(mats)[1] + (3.0 * LN2) * exps
            l12 = 0.5 * np.log(lam_c)
            cols = np.stack([l1 + t * LN2, l12 - l1 + (ec + t) * LN2, l12 + (ec + 2 * t) * LN2])
            bad = np.stack([bad, bad | bad_c | ((lam > 0.0) & (lam_c == 0.0))])
        rows = bad[-1]
        if rows.any():
            sv = np.log(np.linalg.svd(mats[rows], compute_uv=False).T) + exps[rows] * LN2
            cols[0, bad[0]] = sv[0, bad[0][rows]]
            if not top_only:
                cols[1:, rows] = sv[1], sv[0] + sv[1]
        if not top_only:
            np.fmin(cols[1], cols[0], out=cols[1])
            np.fmin(ldet - cols[2], cols[1], out=cols[2])
    return cols, bad


def draw_kernel_rows(seed, kind, m):
    if kind == "graded":
        rows = np.concatenate([graded_3x3(), draw_3x3(seed, "random", m)])
    elif kind == "repeated":
        # a few rows, near-degenerate and zero ones among them, many times over
        few = np.concatenate([draw_3x3(seed, k, 2) for k in ("random", "near_degenerate", "zeros")])
        rows = few[np.random.default_rng(seed).integers(0, len(few), m)]
    else:
        return draw_3x3(seed, kind, m)
    return rows[np.random.default_rng(seed).permutation(len(rows))[:m]]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "dominated", "near_degenerate", "rank1", "rank2", "zeros",
                     "graded", "repeated"]),
    st.sampled_from([1, 6, 40]),
    st.booleans(),
    st.booleans(),
)
@example(0, "near_degenerate", 40, True, False)
@example(0, "graded", 6, False, False)
def test_sigma3_keeps_the_reference_kernels_bits(seed, kind, m, with_ldet, top_only):
    # the preallocated kernel rounds every operation as the one with
    # temporaries did: the same column bits and mask rows, and LAPACK gets
    # exactly the flagged rows, or no call when none is flagged
    mats = draw_kernel_rows(seed, kind, m)
    exps = np.random.default_rng(seed).integers(-40, 41, m)
    ldet = np.linalg.slogdet(mats)[1] + 0.5 if with_ldet else None
    want_cols, want_mask = reference_sigma3(mats, exps, ldet, top_only)
    svd, given_rows = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        given_rows.append(a.copy())
        return svd(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "svd", spy):
        cols, mask = _sigma3(mats, exps, ldet, np.empty((1 if top_only else 3, m)))
    assert same_floats(cols, want_cols)
    assert mask.shape == want_mask.shape and np.array_equal(mask, want_mask)
    flagged = mats[want_mask[-1]]
    assert [a.tobytes() for a in given_rows] == ([flagged.tobytes()] if len(flagged) else [])


def test_sums_that_read_sigma_1_alone_skip_the_minors(monkeypatch):
    # a d=3 norm sum, or phi at s <= 1, runs _top_eig once per block (A's,
    # not C's) and keeps the bits of the full columns a slope sketch takes
    rng = np.random.default_rng(3)
    atoms = [(w, rng.uniform(-0.9, 0.9, (3, 3))) for w in (0.3, 0.7)]
    calls, real = [], _engine._top_eig

    def top_eig(*args):
        calls.append(args[0].shape[1])
        return real(*args)

    monkeypatch.setattr(_engine, "_top_eig", top_eig)
    for kind, s_list in (("norm", [0.5, 1.0, 2.5]), ("phi", [0.25, 1.0])):
        for n in (9, 16):  # one level, and level 14 times each length-2 suffix
            mu, full = FiniteMatrixMeasure(atoms), FiniteMatrixMeasure(atoms)
            calls.clear()
            got = weighted_sums(mu, n, kind, s_list, WordBudget(), workers=1)
            cache = _engine._cache_for(mu, dedup=True)
            parts = cache.parts_for(n)
            blocks = -(-cache.rows(parts[0]) // _engine._BLOCK_ROWS)
            assert len(calls) == len(_engine._plan_units(cache, parts)) * blocks
            if n == 9:
                full_cache = _engine._cache_for(full, dedup=True)
                full_cache.ensure(n)
                want = _chunk_stats((full_cache.sigmas(n), cache.levels[n][2], None),
                                    kind, s_list, 3)
                want = [_engine._stats_to_log(a) for a in want]
            else:
                want = weighted_sums(full, n, kind, s_list, WordBudget(), workers=1, tables={})
            assert same_floats(got, want)
    assert (len(parts), blocks, cache.rows(2)) == (2, 2, 4)


def planar_triple():
    return FiniteMatrixMeasure([
        (1.0, np.array([[0.6, 0.2], [0.1, 0.4]])),
        (1.0, np.array([[0.3, -0.2], [0.25, 0.5]])),
        (1.0, np.array([[0.45, 0.0], [0.3, 0.2]])),
    ])


def test_table_hits_keep_bits_and_budget_rules():
    # 3^10 rows pass the small-level cache, so length 10 is enumerated as
    # level x suffix units and leaves its slope sketch in the table
    budget = WordBudget(max_words=3**10)
    mu = planar_triple()
    tables = {}
    first = weighted_sums(mu, 10, "phi", [0.5, 1.25], budget, tables=tables)
    assert sorted(tables) == [10]
    # the pass that builds the sketch keeps the bits of one that does not
    assert same_floats(first, weighted_sums(planar_triple(), 10, "phi", [0.5, 1.25], budget))
    # a hit brackets the exact sum within Hoeffding's t^2 h^2 / 8, and is
    # exact at an integer exponent, from a few hundred buckets per segment
    lo, hi = held_phi_bounds(mu, 10, 1.25, budget, RunClock(600.0), tables)
    assert lo < first[1] < hi and hi - lo <= 0.25**2 * _engine._SKETCH_H**2 / 8
    lo, hi = held_phi_bounds(mu, 10, 1.0, budget, RunClock(600.0), tables)
    assert lo == hi and math.isclose(lo, weighted_sums(mu, 10, "phi", [1.0], budget)[0],
                                     rel_tol=1e-13)
    assert all(len(seg[2]) < 3**10 // 20 for seg in tables[10])

    clock = RunClock(600.0)
    clock.deadline = time.monotonic() - 1.0
    with pytest.raises(BudgetExhaustedError) as err:
        held_phi_bounds(mu, 10, 1.5, budget, clock, tables)
    assert err.value.reason == "wall_clock"
    with pytest.raises(BudgetExhaustedError) as err:
        held_phi_bounds(mu, 10, 1.5, WordBudget(max_words=3**9), RunClock(600.0), tables)
    assert err.value.reason == "max_words"


GENERIC_PAIR = [[[0.6, 0.3], [-0.2, 0.5]], [[0.4, -0.1], [0.3, 0.7]]]
ONE_STEP = {
    "weighted_power_sum": lambda mu, n: weighted_power_sum(mu, n, norm_kernel(1.0)),
    "_engine.weighted_sums": lambda mu, n: float(
        weighted_sums(mu, n, "phi", [1.5], WordBudget())[0]),
    "_engine.max_norm_word": lambda mu, n: _engine.max_norm_word(mu, n, WordBudget()),
}


@pytest.mark.parametrize("n", [0, -1, 1.5, 2.0])
@pytest.mark.parametrize("name", sorted(ONE_STEP))
def test_one_step_functions_take_only_positive_integer_lengths(name, n):
    # one check in the engine (check_budget) serves both entry points, and
    # every bound reaches the engine through one of them
    mu = FiniteMatrixMeasure.from_matrices(GENERIC_PAIR, [1.0, 0.5])
    with pytest.raises(InvalidInputError, match="word length"):
        ONE_STEP[name](mu, n)
    assert ONE_STEP[name](mu, np.int64(1)) == ONE_STEP[name](mu, 1)


def test_import_leaves_multiprocessing_unloaded():
    # neither the import nor a split evaluation, which forks on its own,
    # loads multiprocessing
    code = """
import sys
import numpy as np
import matpress
from matpress import _engine, cli
print("multiprocessing" in sys.modules)
forks = []
real_fork = _engine._fork_slice
_engine._fork_slice = lambda results: forks.append(1) or real_fork(results)
_engine._SPLIT_WORK = 1 << 10
atoms = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 2))
mu = matpress.FiniteMatrixMeasure([(1.0, a) for a in atoms])
_engine.weighted_sums(mu, 11, "phi", [1.3], matpress.WordBudget(), workers=2)
print(len(forks), "multiprocessing" in sys.modules)
"""
    src = str(Path(matpress.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "1", "False"]


def split_measure(d, seed=20260817):
    """Three d x d atoms: at d=2, n=11 is level 9 times each length-2 suffix
    (9 units); at d=3, n=12 is level 9 times each length-3 suffix (27)."""
    rng = np.random.default_rng(seed)
    return FiniteMatrixMeasure([(1.0, rng.uniform(-1.0, 1.0, (d, d))) for _ in range(3)])


def test_split_builds_the_serial_table(split_sizes):
    # d=3 at n=12 (4.8e6 units x rows x d^2) earns three processes under the
    # default work rule; d=2 at n=11 (7.1e5) splits only under a lowered one
    for d, n in ((3, 12), (2, 11)):
        if d == 2:
            split_sizes.lower_work(1 << 16)
        mu = split_measure(d)
        serial = {}
        a = weighted_sums(mu, n, "phi", [0.7, 1.3], WordBudget(), workers=1, tables=serial)
        assert split_sizes == []
        for workers in (2, 3):
            split = {}
            b = weighted_sums(mu, n, "phi", [0.7, 1.3], WordBudget(), workers=workers,
                              tables=split)
            assert split_sizes.pop() == workers and split_sizes == []
            assert same_floats(a, b)
            assert sorted(serial) == sorted(split) == [n]
            # one segment per unit interval of s, every field bit for bit
            assert len(serial[n]) == len(split[n]) == d
            for seg, split_seg in zip(serial[n], split[n]):
                assert len(seg) == len(split_seg) == 5
                assert all(same_floats(x, y) for x, y in zip(seg, split_seg))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_childs_error_is_raised_here(split_sizes, monkeypatch):
    split_sizes.lower_work(1 << 10)
    parent, real = os.getpid(), _engine._unit_arrays

    def unit_arrays(cache, parts, combo, top_only):
        if os.getpid() != parent:
            raise ValueError(f"unit {combo} failed")
        return real(cache, parts, combo, top_only)

    monkeypatch.setattr(_engine, "_unit_arrays", unit_arrays)
    with pytest.raises(ValueError) as err:
        weighted_sums(split_measure(2), 11, "phi", [1.3], WordBudget(), workers=2)
    assert str(err.value) == "unit (4,) failed"  # the child's first unit of 9
    assert split_sizes == [2]
    assert_no_children()


@pytest.mark.parametrize("cut", [0.0, 0.5])
def test_a_child_that_leaves_no_whole_result_fails_here(split_sizes, monkeypatch, cut):
    # the child exits before writing (cut 0) or after half its pickled results
    split_sizes.lower_work(1 << 10)

    def fork_slice(results):
        r, w = os.pipe()
        pid = os.fork()
        if pid:
            os.close(w)
            return pid, open(r, "rb")
        try:
            payload = pickle.dumps((True, list(results)), pickle.HIGHEST_PROTOCOL)
            if cut:
                os.write(w, payload[:int(cut * len(payload))])
        finally:
            os._exit(0)

    monkeypatch.setattr(_engine, "_fork_slice", fork_slice)
    with pytest.raises(RuntimeError, match=r"unit process \d+ left no result \(wait status 0\)"):
        weighted_sums(split_measure(2), 11, "phi", [1.3], WordBudget(), workers=2)
    assert_no_children()


def test_an_expired_clock_stops_every_process(split_sizes, monkeypatch):
    split_sizes.lower_work(1 << 10)
    mu = split_measure(2)
    # the deadline passes before the split: this process stops at its first unit
    clock = RunClock(600.0)
    real_plan = _engine._plan_units

    def plan_units(cache, parts):
        clock.deadline = time.monotonic() - 1.0
        return real_plan(cache, parts)

    monkeypatch.setattr(_engine, "_plan_units", plan_units)
    with pytest.raises(BudgetExhaustedError) as err:
        weighted_sums(mu, 11, "phi", [1.3], WordBudget(), clock=clock, workers=3)
    assert err.value.reason == "wall_clock"
    assert split_sizes == [3]
    assert_no_children()
    monkeypatch.setattr(_engine, "_plan_units", real_plan)

    # it passes in a child only: the child's error, reason and all, is raised here
    parent, real = os.getpid(), _engine._unit_arrays
    clock = RunClock(600.0)

    def unit_arrays(cache, parts, combo, top_only):
        if os.getpid() != parent:
            clock.deadline = time.monotonic() - 1.0
        return real(cache, parts, combo, top_only)

    monkeypatch.setattr(_engine, "_unit_arrays", unit_arrays)
    with pytest.raises(BudgetExhaustedError) as err:
        weighted_sums(mu, 11, "phi", [1.3], WordBudget(), clock=clock, workers=2)
    assert err.value.reason == "wall_clock" and err.value.length is None
    assert split_sizes == [3, 2]
    assert_no_children()


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_here_kills_the_children(split_sizes, monkeypatch, error):
    # the children would sleep for a minute; this process fails at its second unit
    split_sizes.lower_work(1 << 10)
    parent, real, calls = os.getpid(), _engine._unit_arrays, []

    def unit_arrays(cache, parts, combo, top_only):
        if os.getpid() != parent:
            time.sleep(20.0)
        calls.append(combo)
        if len(calls) == 2:
            raise error("stopped here")
        return real(cache, parts, combo, top_only)

    monkeypatch.setattr(_engine, "_unit_arrays", unit_arrays)
    t0 = time.monotonic()
    with pytest.raises(error, match="stopped here"):
        weighted_sums(split_measure(2), 11, "phi", [1.3], WordBudget(), workers=3)
    assert time.monotonic() - t0 < 10.0
    assert split_sizes == [3]
    assert_no_children()


@pytest.mark.parametrize("workers", [0, -1, 2.5, True])
def test_workers_must_be_none_or_a_positive_int(workers):
    # every entry checks before it routes: diagonal atoms would take a
    # closed form that forks nothing
    mu = FiniteMatrixMeasure.from_matrices([np.diag([0.5, 0.25]), np.diag([0.25, 0.5])])
    entries = [
        lambda: weighted_sums(mu, 3, "phi", [1.3], WordBudget(), workers=workers),
        lambda: weighted_power_sum(mu, 3, norm_kernel(1.3), workers=workers),
        lambda: matpress.pressure.bracket(mu, 1.0, 0.1, workers=workers),
        lambda: matpress.pressure.p_radius_bracket(mu, 2.0, 0.1, workers=workers),
        lambda: matpress.svpressure.bracket(mu, 1.5, 0.1, workers=workers),
        lambda: matpress.svpressure.continuity_at_one(mu, 0.1, workers=workers),
        lambda: matpress.affinity.affinity_dimension(mu, 0.1, workers=workers),
        lambda: matpress.jsr.jsr_bracket(mu, workers=workers),
        lambda: matpress.jsr.zero_temperature_scan(mu, [1.0], workers=workers),
    ]
    for entry in entries:
        with pytest.raises(InvalidInputError, match="workers"):
            entry()
    for ok in (None, 1, np.int64(2)):
        assert _engine.check_workers(ok) is ok


def sketch_family(seed, d, kind):
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-1.0, 1.0, (3, d, d))
    if kind == "graded":
        mats = np.diag([1.0, 1e-3, 1e-6][:d]) @ mats
    elif kind == "dyadic":  # diagonal, zero entries included: dedup merges
        mats = np.zeros((3, d, d))
        mats[:, range(d), range(d)] = rng.integers(-3, 4, (3, d)) / 4.0
    elif kind == "zero_rows":  # a rank-deficient atom and a zero atom
        mats[0, -1] = 0.0
        mats[1] = 0.0
    return FiniteMatrixMeasure(list(zip(rng.uniform(0.5, 1.5, 3), mats)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from(["random", "graded", "dyadic", "zero_rows"]),
    st.sampled_from([3, 5]),
    st.sampled_from([2, 16]),
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_sketch_bounds_bracket_exact_sums(seed, d, kind, n, cap, fracs):
    # with a small row cap these short lengths are evaluated as level x
    # suffix units, which a call given ``tables`` sketches
    budget = WordBudget()
    s_list = [d * f for f in fracs] + [float(k) for k in range(d + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_row_cap", lambda d: cap)
        mu = sketch_family(seed, d, kind)
        tables = {}
        weighted_sums(mu, n, "phi", [0.5], budget, tables=tables)
        if n not in tables:  # dedup kept every level under the cap
            assert _engine._cache_for(mu, dedup=True).parts_for(n) == [n]
            return
        want = weighted_sums(sketch_family(seed, d, kind), n, "phi", s_list, budget)
        for s, v in zip(s_list, want):
            lo, hi = held_phi_bounds(mu, n, s, budget, RunClock(600.0), tables)
            if v == -math.inf:
                assert lo == hi == -math.inf
                continue
            # the two reductions round each row's value apart by a few u
            tol = 1e-12 * (1.0 + abs(v))
            assert lo - tol <= v <= hi + tol, (s, lo, v, hi)
            t = s - min(int(s), d - 1)
            assert hi - lo <= t * t * _engine._SKETCH_H**2 / 8 + tol
            if s < d and s == int(s):
                assert lo == hi


def test_sketch_bounds_bracket_50_digit_sums(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    # a 4-row cap: length 4 is level 1 times the 27 length-3 suffixes
    monkeypatch.setattr(_engine, "_row_cap", lambda d: 4)
    rng = np.random.default_rng(20261019)
    for d in (2, 3):
        mats = []
        for _ in range(3):
            q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
            mats.append(q1 @ np.diag(np.sort(rng.uniform(0.2, 0.9, d))[::-1]) @ q2)
        weights = rng.uniform(0.5, 1.5, 3)
        mu = FiniteMatrixMeasure(zip(weights, mats))
        tables = {}
        weighted_sums(mu, 4, "phi", [0.0], WordBudget(), tables=tables)
        assert sorted(tables) == [4]
        s_list = [0.37, 1.0, 1.61, d - 0.2, float(d)]
        with mpmath.workdps(50):
            atoms = [mpmath.matrix(m.tolist()) for m in mats]
            sigmas, ws = [], []
            for word in itertools.product(range(3), repeat=4):
                prod = mpmath.eye(d)
                for i in word:
                    prod = prod * atoms[i]
                sv = sorted(mpmath.svd_r(prod, compute_uv=False), reverse=True)
                sigmas.append(sv)
                ws.append(mpmath.fprod(mpmath.mpf(weights[i]) for i in word))
            for s in s_list:
                k = min(int(s), d - 1)
                exact = mpmath.log(mpmath.fsum(
                    w * mpmath.fprod(sv[:k]) * sv[k] ** (mpmath.mpf(s) - k)
                    for w, sv in zip(ws, sigmas)))
                lo, hi = held_phi_bounds(mu, 4, s, WordBudget(), RunClock(600.0), tables)
                assert lo - 1e-12 <= exact <= hi + 1e-12, (d, s, lo, exact, hi)


def draw_family(seed, d, kind, n_atoms):
    rng = np.random.default_rng(seed)
    if kind == "random":
        mats = rng.uniform(-1.0, 1.0, (n_atoms, d, d))
    elif kind == "dominated":
        mats = np.diag([1.0, 0.05, 0.01][:d]) @ rng.uniform(-1.0, 1.0, (n_atoms, d, d))
    elif kind == "repeated_atom":
        mats = rng.uniform(-1.0, 1.0, (2, d, d))[rng.permutation([0, 0, 1][:n_atoms])]
    elif kind == "half_identity":  # 0.5 I and one generic atom, whatever n_atoms
        mats = np.stack([0.5 * np.eye(d), rng.uniform(-1.0, 1.0, (d, d))])
    else:  # dyadic diagonal: commuting products that dedup collapses
        mats = np.zeros((n_atoms, d, d))
        mats[:, range(d), range(d)] = rng.integers(-3, 4, (n_atoms, d)) / 4.0
    return FiniteMatrixMeasure(list(zip(rng.uniform(0.5, 1.5, len(mats)), mats)))


def assert_close_logs(a, b):
    for x, y in zip(a, b):
        assert (x == y == -math.inf) or math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def word_table(mu, n):
    """Every length-n word's log singular values as (d, N^n) columns in word
    order, read from the undeduplicated cache's evaluation units."""
    cache = _engine._cache_for(mu, dedup=False)
    parts = cache.parts_for(n)
    if len(parts) == 1:
        return cache.sigmas(n)
    units = _engine._plan_units(cache, parts)
    cols = [_engine._unit_arrays(cache, parts, u)[0] for u in units]
    # unit u holds the words (batch row)(suffix u): index row * len(units) + u
    return np.stack(cols, axis=2).reshape(cache.d, -1)


@settings(max_examples=24, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from(["random", "dominated", "repeated_atom", "half_identity", "dyadic_diagonal"]),
    st.sampled_from([2, 3]),
    st.integers(7, 9),
)
@example(0, 3, "half_identity", 2, 9)
def test_unit_evaluation_matches_level_evaluation(seed, d, kind, n_atoms, n):
    # with a 64-row cap these lengths are evaluated as level x suffix units
    # of unnormalised products (the deduplicated dyadic levels may stay
    # small enough not to be); the default cap evaluates each as one level
    # of normalised products
    budget = WordBudget()
    s_sigma1 = [0.4, 1.0, 1.7, 3.2]
    full = draw_family(seed, d, kind, n_atoms)
    want = [weighted_sums(full, n, "norm", s_sigma1, budget),
            weighted_sums(full, n, "phi", [0.3, 0.8, 1.0], budget)]
    want_max = _engine.max_norm_word(full, n, budget)
    want_table = word_table(full, n)
    if kind == "half_identity":
        # a word's product is 2^-k A^(m-k), the same bits in whatever order
        # its k scalar letters come, so dedup merges level m to m + 1 rows:
        # the merge path that no triangular closed form takes over
        levels = _engine._cache_for(full, dedup=True).levels
        assert all(len(levels[m][2]) == m + 1 for m in levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_row_cap", lambda d: 64)
        mu = draw_family(seed, d, kind, n_atoms)
        tables = {}
        got = [weighted_sums(mu, n, "norm", s_sigma1, budget, tables=tables),
               weighted_sums(mu, n, "phi", [0.3, 0.8, 1.0], budget)]
        got_max = _engine.max_norm_word(mu, n, budget)
        got_table = word_table(mu, n)
        for cache in mu._engine_caches.values():
            assert max(cache.rows(m) for m in cache.levels if m > 1) <= 64
        # a length of level x suffix units leaves its slope sketch in the
        # table, which brackets a fresh enumeration; a single level (as when
        # dedup collapses the family) stays on the measure and reduces to
        # the bits of one
        fresh = draw_family(seed, d, kind, n_atoms)
        want_phi = weighted_sums(fresh, n, "phi", [1.3, 2.7], budget)
        if n in tables:
            lo, hi = held_phi_bounds(mu, n, 1.3, budget, RunClock(600.0), tables)
            tol = 1e-12 * (1.0 + abs(want_phi[0]))
            assert lo - tol <= want_phi[0] <= hi + tol
        else:
            assert n in _engine._cache_for(mu, dedup=True).log_sigmas
            assert same_floats(weighted_sums(mu, n, "phi", [1.3, 2.7], budget), want_phi)
    # sums of sigma_1 powers agree to rounding
    for g, w in zip(got, want):
        assert_close_logs(g, w)
    assert_close_logs([got_max], [want_max])
    assert_close_logs([got_max], [float(np.max(want_table[0]))])
    # every sigma_j of every word agrees to the engine's absolute accuracy:
    # the two products differ by rounding of order n d u prod_i |A_i|_F, and
    # each route's sigma_j is within 16 u sigma_1 of its product's (phi sums
    # at s > 1 weigh the small sigma_j relatively and can differ by far more
    # than 1e-12 between the routes on dominated families)
    with np.errstate(divide="ignore"):
        log_f = np.log(np.linalg.norm(mu.matrices, axis=(1, 2)))
    scale = np.zeros(1)
    for _ in range(n):
        scale = np.add.outer(scale, log_f).ravel()
    scale[scale == -np.inf] = 0.0  # zero products: both tables -inf
    tol = 4 * (n * d + 16) * U
    assert np.all(np.abs(np.exp(got_table - scale) - np.exp(want_table - scale)) <= tol)


def exhaustive_max_norm_word(mu, n):
    """max_norm_word with every row of every unit evaluated: the largest log
    sigma_1 over every unit."""
    cache = _engine._cache_for(mu, dedup=False)
    parts = cache.parts_for(n)
    if len(parts) == 1:
        return float(np.max(cache.sigmas(n)[0]))
    best = -math.inf
    for unit in _engine._plan_units(cache, parts):
        best = max(best, float(np.max(_unit_arrays(cache, parts, unit)[0][0])))
    return best


def draw_jsr_family(seed, d, kind, n_atoms):
    """Unit-weight families for the pruned maxima, one per pruning regime."""
    rng = np.random.default_rng(seed)
    if kind == "tied":  # 0.5 times signed permutations: every norm 2^-n
        mats = np.stack([0.5 * np.diag(rng.choice([-1.0, 1.0], d))[rng.permutation(d)]
                         for _ in range(n_atoms)])
    elif kind == "monomial":  # permuted dyadic diagonals: exact ties, loose bounds
        mats = np.stack([np.diag(rng.choice([-1.0, -0.25, 0.5, 1.0], d))[rng.permutation(d)]
                         for _ in range(n_atoms)])
    elif kind == "orthogonal":  # near ties: 0.9 times orthogonal atoms
        mats = np.stack([0.9 * np.linalg.qr(rng.standard_normal((d, d)))[0]
                         for _ in range(n_atoms)])
    elif kind == "nilpotent":  # strictly upper triangular: products of length d vanish
        mats = np.triu(rng.uniform(-1.0, 1.0, (n_atoms, d, d)), 1)
    else:
        mats = draw_family(seed, d, "random" if kind == "zero_atom" else kind, n_atoms).matrices
        if kind == "zero_atom":
            mats[0] = 0.0
    return FiniteMatrixMeasure.from_matrices(mats)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3]),
    st.sampled_from(["random", "dominated", "repeated_atom", "zero_atom", "nilpotent",
                     "tied", "monomial", "orthogonal"]),
    st.sampled_from([2, 3]),
    st.integers(1, 7),
    st.sampled_from([4, 16, 64]),
)
@example(0, 2, "tied", 2, 7, 4)
@example(0, 3, "dominated", 3, 7, 16)
@example(6, 2, "monomial", 2, 5, 4)  # a unit visited early ties a unit before it
@example(6, 2, "monomial", 3, 7, 16)
def test_pruned_max_norm_word_matches_every_row(seed, d, kind, n_atoms, n, cap):
    # a small row cap splits each length into several parts, so units, unit
    # skips and row pruning all occur; the value bits must be those of
    # evaluating every row
    budget = WordBudget()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_row_cap", lambda d: cap)
        want = exhaustive_max_norm_word(draw_jsr_family(seed, d, kind, n_atoms), n)
        got = _engine.max_norm_word(draw_jsr_family(seed, d, kind, n_atoms), n, budget)
    assert got.hex() == want.hex()


def unit_cache(level, suffixes):
    """A stand-in LevelCache whose level 2 is ``level`` and level 1
    ``suffixes``: unit (2, 1), (i,) is the level times suffix row i."""
    return types.SimpleNamespace(d=level[0].shape[1], levels={2: level, 1: suffixes})


def draw_unit_rows(rng, d, m):
    """(mats, exps, logw, ldet) rows: random entries with zero rows, -0.0
    entries and rows scaled by 2^-600 mixed in, none normalised."""
    mats = rng.uniform(-1.0, 1.0, (m, d, d))
    kind = rng.integers(0, 4, m)
    mats[kind == 1] = 0.0
    mats[(kind == 2)[:, None, None] & (mats < 0.0)] = -0.0
    mats[kind == 3] *= 2.0**-600
    return mats, rng.integers(-40, 40, m), rng.standard_normal(m), rng.normal(0.0, 3.0, m)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 19_683, 1 << 15])
def test_unit_products_match_the_stacked_matmul(monkeypatch, d, m):
    # each unit is one (m d, d) @ (d, d) GEMM: every entry is the same
    # d-term dot product as in the stacked (m, d, d) @ (d, d) matmul, so the
    # products equal its own and their columns keep its bits (the larger
    # products are big enough for OpenBLAS to split their rows over threads)
    rng = np.random.default_rng(100 * d + m)
    level = draw_unit_rows(rng, d, m)
    suffixes = draw_unit_rows(rng, d, 3)
    suffixes[0][0] = 0.0
    products = []
    sigma_cols = _engine._sigma_cols
    monkeypatch.setattr(
        _engine, "_sigma_cols", lambda mats, *a: products.append(mats) or sigma_cols(mats, *a)
    )
    mats, exps, _, ldet = level
    for i in range(3):
        products.clear()  # the first is the unit's (d=2 may rescale some rows)
        got, shift = _unit_arrays(unit_cache(level, suffixes), (2, 1), (i,))
        prod = products[0]
        stacked = mats @ suffixes[0][i]
        # equal up to the sign of an exact zero (a zero row or suffix),
        # which no singular value sees
        assert np.array_equal(prod, stacked)
        assert same_floats(prod[prod != 0.0], stacked[stacked != 0.0])
        want_ldet = ldet + suffixes[3][i] if d in (2, 3) else None
        want = sigma_cols(stacked, exps + suffixes[1][i], d, want_ldet)
        assert same_floats(got, want) and shift == suffixes[2][i]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 9])
def test_unit_columns_do_not_depend_on_the_batch(d):
    # sixteen rows alone, as a 16-row level, and at random places in a full
    # level (GEMM blocking and threads split rows, never a dot product)
    rng = np.random.default_rng(d)
    rows = draw_unit_rows(rng, d, 16)
    suffixes = draw_unit_rows(rng, d, 2)
    full = draw_unit_rows(rng, d, 1 << 15)
    at = rng.choice(1 << 15, 16, replace=False)
    for a, r in zip(full, rows):
        a[at] = r
    for i in range(2):
        batch = _unit_arrays(unit_cache(rows, suffixes), (2, 1), (i,))[0]
        level = _unit_arrays(unit_cache(full, suffixes), (2, 1), (i,))[0]
        assert same_floats(level[:, at], batch)
        for j in range(16):
            alone = tuple(a[j:j + 1] for a in rows)
            assert same_floats(_unit_arrays(unit_cache(alone, suffixes), (2, 1), (i,))[0],
                               batch[:, j:j + 1])
