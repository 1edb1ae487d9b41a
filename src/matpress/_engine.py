"""Chunked, level-factorized enumeration of word products.

Words of length n over N atoms are enumerated as concatenations of subwords
whose lengths form a fixed composition of n.  The products for each subword
length m (a "level") are materialized once per measure and cached while
they fit the row cap (2^15 rows, fewer for large d), until one holds half
of it (two atoms stop at 2^14); a longer length is evaluated as the
largest cached level times each combination of suffix rows, one GEMM over
the level's stacked rows each (bits independent of batch and thread count),
and those products are never normalized, deduplicated or stored.

Two representation choices keep this exact and fast:

* every stored matrix is frexp-normalized (max |entry| in [0.5, 1)) with the
  power-of-two exponent carried in an int64 side array, so rescaling is
  lossless and long products never over- or underflow;
* every level is kept in a canonical order -- lexicographic in (exponent,
  row-major mantissa entries, input position), which an argsort of the
  first entry and a radix argsort of the exponents' ranks mostly produce
  (_dedup_rows) -- and rows equal under == are merged, their
  log-weights combined (power sums are linear in the weights), which
  collapses structured atom families -- repeated atoms, commuting diagonal
  parts -- to a handful of rows.  Budgets still meter the *nominal* word
  count N^n.

Evaluation splits into units, one per suffix combination.  Each unit
produces a log-sigma table chunk: the scaled log singular values of its
products as contiguous (d, rows) columns, plus its log-weights.  One
reduction turns a chunk into partial statistics for every exponent, and the
partials are merged sequentially in a fixed unit order; forked processes may
evaluate later slices of the units and send their partials back
(_split_fold), so every bit is the same for any process count.  A
single-level length is one chunk, the level's log-sigma table, which
LevelCache.sigmas computes once and keeps on the measure.  A caller that
passes ``tables`` gets, for each longer length, a phi^s slope sketch built
in the same pass: per unit interval k <= s <= k + 1 of the exponent, the
rows' weights bucketed by the slope l_{k+1}, a few kilobytes from which
held_phi_bounds answers any other exponent at that length with a certified
lower and upper bound, without enumerating the words a second time.
max_norm_word, the JSR's log maximum word norm (a value; no word is named),
reads levels kept without the merge, as the JSR's spectral floor does, and
evaluates only the unit rows that a norm bound cannot rule out.

Singular values take one route per dimension, each row computed on its own,
so its bits do not depend on the batch, block or worker: d=1 the entry, d=2
sigma_1 from the Gram matrix's trace and determinant and sigma_2 = |det| /
sigma_1 (|det| from ``ldet`` where the rounded one underflows to 0), d >= 4
(such as the 9x9 lifted products) LAPACK's SVD, and d=3 (_sigma3) sigma_1 of
A and of its 2x2 minors, which is sigma_1 sigma_2, by a closed-form top
eigenvalue, with sigma_3 = |det| / (sigma_1 sigma_2) from ``ldet``, log|det|
of the exact product, which every level row carries, summed from the atoms
like the log-weights.  d=3 rows where a closed form cannot keep its bound
take LAPACK's sigma_1 and sigma_2.  Each sigma_j is within a small multiple
of u * sigma_1 of the exact value (16 u for d=3, against a 50-digit SVD),
and the d=3 sigma_3 is as accurate relative to itself as sigma_1 sigma_2.
"""

import math
import numbers
import os
import pickle
import time

import numpy as np

from .errors import BudgetExhaustedError, InvalidInputError

LN2 = math.log(2.0)

_LEVEL_ROWS = 1 << 15


def _row_cap(d):
    # _LEVEL_ROWS rows, or fewer for large d so that a level stays under
    # ~32MB of float64; longer words are evaluated as level x suffix units
    return max(256, min(_LEVEL_ROWS, (1 << 22) // (d * d)))


class RunClock:
    """Cooperative wall-clock guard shared across one driver run."""

    __slots__ = ("deadline",)

    def __init__(self, wall_clock_cap):
        self.deadline = time.monotonic() + float(wall_clock_cap)

    def check(self):
        if time.monotonic() > self.deadline:
            raise BudgetExhaustedError("wall clock budget exhausted", reason="wall_clock")


def nominal_words(n, n_atoms):
    return n_atoms ** n


def check_budget(budget, n, n_atoms):
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise InvalidInputError(f"word length must be a positive integer, got {n!r}")
    n = int(n)  # a numpy integer would overflow n_atoms ** n
    if n > budget.max_word_length:
        raise BudgetExhaustedError(
            f"word length {n} exceeds max_word_length={budget.max_word_length}",
            reason="max_word_length",
            length=n,
        )
    if nominal_words(n, n_atoms) > budget.max_words:
        raise BudgetExhaustedError(
            f"{n_atoms}^{n} words exceed max_words={budget.max_words}",
            reason="max_words",
            length=n,
        )


def feasible(budget, n, n_atoms):
    return n <= budget.max_word_length and nominal_words(n, n_atoms) <= budget.max_words


def _normalize(mats):
    # Power-of-two row rescaling, in place: exact, and keeps every stored
    # mantissa matrix with max |entry| in [0.5, 1).  The max is a running
    # maximum over the d*d entry columns: 0.05 ms against np.max over axes
    # (1, 2)'s 0.98 at 12,808 2x2 rows, 1.05 against 2.3 at 32,768 3x3 rows.
    m, d = len(mats), mats.shape[1]
    flat = mats.reshape(m, d * d)  # not -1: an empty level has no rows to infer it
    scale = np.abs(flat[:, 0])
    for j in range(1, d * d):
        np.maximum(scale, np.abs(flat[:, j]), out=scale)
    _, e = np.frexp(scale)
    e = e.astype(np.int64)
    nonzero = scale > 0.0
    e[~nonzero] = 0
    np.ldexp(mats, (-e).astype(np.int32)[:, None, None], out=mats)
    return mats, e, nonzero


def _dedup_rows(mants, exps, logw, ldet, d):
    # Merge rows equal under == in (exponent, matrix); weights add (in log
    # space).  Rows come out in lexicographic (exponent, row-major entries)
    # order, equal rows keeping their input order, so level contents do not
    # depend on atom order or evaluation history.  An unstable argsort of the
    # first entry, then a stable radix argsort of the exponents' dense ranks
    # (at most the row count, so 16 bits for every capped level; the rank
    # table spans the exponents, a few thousand per letter of the word),
    # order the rows by (exponent, first entry): 1.8-2.0 ms at 32,768 2x2
    # rows against a two-key lexsort's 6.1-6.7.  Only runs tied on that pair
    # are sorted again, by their remaining entries and then their input
    # index, and a level with no such run has no equal rows.  Equal
    # neighbours are found column by column on shifted slices.  A group
    # keeps its first row's ldet (a key would split dyadic levels whose log
    # sums differ in rounding): its rows are equal products, so for exact
    # families their determinants are equal, and otherwise the kept one is,
    # to first order, as close as any to the shared rounded product's.
    m = len(logw)
    if m == 0:
        return mants, exps, logw, ldet
    flat = mants.reshape(m, d * d)
    order = flat[:, 0].argsort()
    rank = exps.take(order)
    rank -= rank.min()
    present = np.zeros(int(rank.max()) + 1, dtype=bool)
    present[rank] = True
    rank = present.cumsum(dtype=np.min_scalar_type(m)).take(rank)
    order = order.take(rank.argsort(kind="stable"))
    e0, f0 = exps.take(order), flat[:, 0].take(order)
    # same[i]: row i of the sorted level equals row i - 1 (so far on the
    # exponent and first entry; same[0] and same[m] stay False)
    same = np.zeros(m + 1, dtype=bool)
    same[1:m] = (e0[1:] == e0[:-1]) & (f0[1:] == f0[:-1])
    pos = (same[1:] | same[:-1]).nonzero()[0]
    if len(pos):
        sub = order.take(pos)
        cols = flat.take(sub, axis=0)
        keys = [sub] + [cols[:, j] for j in range(d * d - 1, 0, -1)]
        order[pos] = sub.take(np.lexsort(keys + [(~same.take(pos)).cumsum()]))
    # take, not fancy indexing: 0.13 against 0.9 ms for 32,768 2x2 rows
    mants, exps, lw, ldet = (a.take(order, axis=0) for a in (mants, exps, logw, ldet))
    if not len(pos):
        return mants, exps, lw, ldet
    flat = mants.reshape(m, d * d)
    for j in range(1, d * d):
        same[1:m] &= flat[1:, j] == flat[:-1, j]
    first = ~same[:m]
    if first.all():
        return mants, exps, lw, ldet
    starts = first.nonzero()[0]
    gmax = np.maximum.reduceat(lw, starts)
    gsum = np.add.reduceat(np.exp(lw - gmax.take(first.cumsum() - 1)), starts)
    return mants.take(starts, axis=0), exps.take(starts), gmax + np.log(gsum), ldet.take(starts)


def _drop_zero_rows(nonzero, *arrays):
    # filtering copies the whole level, so a level without zero rows skips it
    if nonzero.all():
        return arrays
    return tuple(a[nonzero] for a in arrays)


def _product_rows(lm, rm):
    """Every left row times every right row: row l * len(rm) + a of the
    (left rows * right rows, d, d) result is left row l times right row a.

    Entry (i, k) of each sums its j terms left to right as einsum sums them
    (equal bit for bit up to the sign of an exact zero, which nothing sees);
    each term is one pass over a column of a contiguous (d*d, rows) copy of
    the left level, into a contiguous (i, k, rows) block per right row that
    is then transposed into the output, so the transient beyond the output
    is one left level and one block.  Against the d=2 outer products, d=3
    broadcast j-loop and d >= 4 einsum it replaces: 1.22 -> 0.42 ms (d=2,
    16,384 x 2 rows), 4.4 -> 1.1 ms (d=3, 16,384 x 2), 1.16 -> 0.36 ms (d=4,
    2,048 x 2), but 40 -> 48 ms at d=9 (16,384 x 2, lifted levels, which
    only the tests build); best of nine, warm heap, 2-vCPU VM.
    """
    m, d = len(lm), lm.shape[1]
    cols = lm.reshape(m, d * d).T.copy()
    prod = np.empty((m, len(rm), d, d))
    blk = np.empty((d, d, m))
    buf = np.empty(m)
    for a, r in enumerate(rm.tolist()):
        for i in range(d):
            for k in range(d):
                acc = blk[i, k]
                np.multiply(cols[i * d], r[0][k], out=acc)
                for j in range(1, d):
                    acc += np.multiply(cols[i * d + j], r[j][k], out=buf)
        prod[:, a] = blk.transpose(2, 0, 1)
    return prod.reshape(-1, d, d)


class LevelCache:
    """Per-measure cache of normalized subword products, level by level."""

    def __init__(self, weights, mats, dedup):
        self.d = int(mats.shape[1])
        self.n_atoms = int(mats.shape[0])
        self.dedup = bool(dedup)
        self.row_cap = _row_cap(self.d)
        # log|det| of each row's exact product, summed like the log-weights
        ldet = np.linalg.slogdet(mats)[1]
        with np.errstate(divide="ignore"):
            logw = np.log(np.asarray(weights, dtype=np.float64))
        mants, exps, nonzero = _normalize(np.array(mats, dtype=np.float64))
        if dedup:
            mants, exps, logw, ldet = _dedup_rows(
                *_drop_zero_rows(nonzero, mants, exps, logw, ldet), self.d
            )
        self.levels = {1: (mants, exps, logw, ldet)}
        self.top = 1
        self.log_sigmas = {}

    def rows(self, m):
        return len(self.levels[m][2])

    def sigmas(self, m, top_only=False):
        """Level m's log-sigma columns (_sigma_cols), computed once;
        ``top_only``: column 0 alone, (1, rows), which spares d=3 the rest
        until a caller asks for them."""
        cols = self.log_sigmas.get(m)
        if cols is None or (len(cols) < self.d and not top_only):
            mats, exps, _, ldet = self.levels[m]
            cols = self.log_sigmas[m] = _sigma_cols(mats, exps, self.d, ldet, top_only)
        return cols[:1] if top_only else cols

    def _combine(self, left, right):
        lm, le, lw, ld = left
        rm, re, rw, rd = right
        d = self.d
        prod = _product_rows(lm, rm)
        exps = (le[:, None] + re[None, :]).ravel()
        logw = (lw[:, None] + rw[None, :]).ravel()
        ldet = (ld[:, None] + rd[None, :]).ravel()
        mants, e2, nonzero = _normalize(prod)
        exps += e2
        if self.dedup:
            return _dedup_rows(*_drop_zero_rows(nonzero, mants, exps, logw, ldet), d)
        return mants, exps, logw, ldet

    def ensure(self, n, clock=None):
        """Build levels toward n while the next level fits the row cap and
        the top one holds under half of it: only two atoms stop earlier
        than the cap alone would stop them, at 2^14 rows, where a 2^15-row
        level put dense3's peak at 65.5 MB against 55.8 (2-vCPU VM).
        ``clock`` (a RunClock) is checked before each level is built.
        """
        base = max(self.rows(1), 1)
        while (self.top < n and 2 * self.rows(self.top) < self.row_cap
               and self.rows(self.top) * base <= self.row_cap):
            if clock is not None:
                clock.check()
            self.levels[self.top + 1] = self._combine(self.levels[self.top], self.levels[1])
            self.top += 1
        return min(self.top, n)

    def parts_for(self, n, clock=None):
        b = self.ensure(n, clock)
        parts = [b] * (n // b)
        if n % b:
            parts.append(n % b)
        parts.sort(reverse=True)
        return parts


def _cache_for(obj, dedup):
    key = ("levels", bool(dedup))
    cache = obj._engine_caches.get(key)
    if cache is None:
        cache = LevelCache(obj._weights, obj._mats, dedup)
        obj._engine_caches[key] = cache
    return cache


# d=3 rows per _sigma3 call, numpy's per-call cost against cache: dense3's
# four d=3 calls took 0.142 s at 4096 rows, 0.127 at 8192 and 0.129 at 16,384
# (in-process medians of 24 alternating rounds, 2-vCPU VM); no bit depends on it
_BLOCK_ROWS = 8192
# _top_eig flags 1 + r < _PAIR_GAP (a near-degenerate top pair) unless p <=
# _SCALAR q, where q is the eigenvalue to 16 u whatever r is.  On rows
# Q diag(.9, .9 (1 - delta), .9 x) Q', sigma_1 and sigma_2 were within 3.4 u
# sigma_1 of a 50-digit SVD at 1 + r >= 0.1, 11 u at 1e-3 and 3.7e7 u below
# 1e-12; near-scalar rows needed no rule (4.5 u at any p / q, 1 + r >= 0.1).
_PAIR_GAP = 0.1
_SCALAR = 16.0 * 2.0 ** -53
# the 2x2 minors x_i x_j - x_k x_l of a row-major 3x3 matrix over row and
# column pairs (0,1), (0,2), (1,2): its second exterior power up to signs
_PAIRS = ((0, 1), (0, 2), (1, 2))
_MINORS = [(3 * i + k, 3 * j + l, 3 * i + l, 3 * j + k) for i, j in _PAIRS for k, l in _PAIRS]


def _dot(out, tmp, pairs, op=np.add):  # out = a b op a' b' op ..., left to right
    (a, b), *rest = pairs
    np.multiply(a, b, out=out)
    for a, b in rest:
        op(out, np.multiply(a, b, out=tmp), out=out)
    return out


def _top_eig(x, s, lam, flag):
    """Exponents of a (9, rows) stack of row-major 3x3 matrices X, each scaled
    in place by the power of two that puts its max |entry| in [0.5, 1), so no
    square over- or underflows.  Row ``lam`` gets the top eigenvalue of the
    scaled X^T X (the cubic's trigonometric root), row ``flag`` where it cannot
    keep its bound; ``s``: 10 scratch rows.  Each step rounds as its comment's formula."""
    g00, g11, g22, g01, g02, g12, tmp, q, p, u = s
    np.maximum(np.max(x, axis=0, out=g00), np.negative(np.min(x, axis=0, out=u), out=u), out=g00)
    e = np.frexp(g00, out=(g00, None))[1]
    np.ldexp(x, -e, out=x)
    # X^T X: g_kl = x_k x_l + x_k+3 x_l+3 + x_k+6 x_l+6, less q = (g00 + g11 + g22) / 3
    for g, (k, l) in zip(s, ((0, 0), (1, 1), (2, 2)) + _PAIRS):
        _dot(g, tmp, zip(x[k::3], x[l::3]))
    s[:3] -= np.divide(np.add(np.add(g00, g11, out=q), g22, out=q), 3.0, out=q)
    # p = sqrt((g00^2 + g11^2 + g22^2 + 2 (g01^2 + g02^2 + g12^2)) / 6)
    _dot(p, tmp, zip(s[:3], s[:3]))
    p += np.multiply(_dot(u, tmp, zip(s[3:6], s[3:6])), 2.0, out=u)
    np.sqrt(np.divide(p, 6.0, out=p), out=p)
    # r = det / (2 p p p), det = g00 (g11 g22 - g12 g12) - g01 (g01 g22 -
    # g12 g02) + g02 (g01 g12 - g11 g02), in g00's row
    r = np.multiply(g00, _dot(u, tmp, ((g11, g22), (g12, g12)), np.subtract), out=g00)
    r -= np.multiply(g01, _dot(u, tmp, ((g01, g22), (g12, g02)), np.subtract), out=u)
    r += np.multiply(g02, _dot(u, tmp, ((g01, g12), (g11, g02)), np.subtract), out=u)
    r /= np.multiply(np.multiply(np.multiply(p, 2.0, out=u), p, out=u), p, out=u)
    # (G - qI) / p has eigenvalues 2 cos(phi + 2 pi k / 3), cos(3 phi) = r;
    # fmax maps the 0/0 of a scalar G (p = 0) to r = -1
    np.fmin(np.fmax(r, -1.0, out=r), 1.0, out=r)
    np.cos(np.divide(np.arccos(r, out=u), 3.0, out=u), out=u)
    np.add(q, np.multiply(np.multiply(p, 2.0, out=tmp), u, out=tmp), out=lam)  # q + 2 p cos
    np.logical_and(r < _PAIR_GAP - 1.0, p > np.multiply(q, _SCALAR, out=tmp), out=flag)
    return e


def _sigma3(mats, exps, ldet, cols):
    """(cols, LAPACK mask), the log-sigma columns of the 3x3 rows 2^exps * mats
    written into ``cols``: all three, or column 0 alone (with mask row 0 alone).
    Column 0 is log sigma_1(A); column 1 log sigma_1(C) - column 0, at most
    column 0, C the 2x2 minors of A (sigma_1(C) = sigma_1 sigma_2); column 2
    min(ldet - log sigma_1(C), column 1).  Mask row 0 marks where _top_eig
    flags A and column 0 is LAPACK's; row 1 where it flags A or C, or C
    cancels to zero while A does not, and LAPACK's sigma_1 sigma_2 is used."""
    m, top_only = len(mats), len(cols) == 1
    buf = np.empty((19, m))  # rows 0-8 X, 9-18 its scratch; then 10-18 C, 0-9 C's
    x, tmp, mnr = buf[:9], buf[9], buf[10:]
    np.copyto(x, mats.reshape(m, 9).T)
    mask = np.empty((2 - top_only, m), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _top_eig(x, buf[9:], cols[0], mask[0]) + exps
        if not top_only:
            for row, (i, j, k, l) in zip(mnr, _MINORS):
                _dot(row, tmp, ((x[i], x[j]), (x[k], x[l])), np.subtract)
            ec = _top_eig(mnr, buf[:10], cols[2], mask[1]) + t
            mask[1] |= mask[0] | ((cols[0] > 0.0) & (cols[2] == 0.0))
        # column 2 holds log sigma_1(C) until sigma_3 replaces it
        np.multiply(np.log(cols[::2], out=cols[::2]), 0.5, out=cols[::2])
        if not top_only:
            np.subtract(cols[2], cols[0], out=cols[1])
            cols[1] += np.multiply(ec, LN2, out=tmp)
            cols[2] += np.multiply(np.add(ec, t, out=ec), LN2, out=tmp)
        cols[0] += np.multiply(t, LN2, out=tmp)
        rows = np.flatnonzero(mask[-1])
        if len(rows):  # most blocks flag no row, or a handful
            sv = np.log(np.linalg.svd(mats[rows], compute_uv=False).T) + exps[rows] * LN2
            cols[0, rows[mask[0, rows]]] = sv[0, mask[0, rows]]
            if not top_only:
                cols[1:, rows] = sv[1], sv[0] + sv[1]
        if not top_only:
            ldet = np.linalg.slogdet(mats)[1] + (3.0 * LN2) * exps if ldet is None else ldet
            # sigma_3 <= sigma_2 <= sigma_1 (equal ones may round apart); fmin
            # also takes -inf over the nan of -inf - (-inf) where A or C is 0
            np.fmin(cols[1], cols[0], out=cols[1])
            np.fmin(np.subtract(ldet, cols[2], out=cols[2]), cols[1], out=cols[2])
    return cols, mask


# the closed 2x2 form squares t, the sum of squared entries: from here down
# t*t and det*det lose bits to underflow
_GRAM_LO = 2.0 ** -500
# log 2^-1022 (least normal): fl(a e) - fl(b c) is within u (|a e| + |b c|)
# + 2^-1074 of det, so a det above this rounds to 0 only by cancellation
# (ROADMAP item 1); below it, its products or entries can underflow to 0
_DET_LO = -1022.0 * LN2


def _sigma_cols(mats, exps, d, ldet=None, top_only=False, ldet_shift=0.0):
    """Log singular values plus the power-of-two scale, as (d, rows) columns.

    Column j holds log sigma_{j+1} of every row's product; -inf encodes zero.
    ``ldet + ldet_shift`` gives d=3's sigma_3 (None: the rows' own
    determinants) and d=2's underflowed sigma_2, the shift added only on the
    rows that read it; d=3 runs _sigma3 in blocks of _BLOCK_ROWS rows.
    ``top_only``: column 0 is all the caller reads, which spares d=3 the rest.
    """
    m = len(mats)
    if d == 3:
        cols = np.empty((1 if top_only else 3, m))
        for a in range(0, m, _BLOCK_ROWS):
            blk = slice(a, a + _BLOCK_ROWS)
            blk_ldet = None if ldet is None else ldet[blk] + ldet_shift
            _sigma3(mats[blk], exps[blk], blk_ldet, cols[:, blk])
        return cols
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 1:
            cols = np.log(np.abs(mats.reshape(1, m)))
        elif d == 2:
            a = mats[:, 0, 0]
            b = mats[:, 0, 1]
            c = mats[:, 1, 0]
            e = mats[:, 1, 1]
            t = a * a + b * b + c * c + e * e
            det = a * e - b * c
            s1sq = 0.5 * (t + np.sqrt(np.maximum(t * t - 4.0 * det * det, 0.0)))
            cols = np.empty((2, m))
            np.log(s1sq, out=cols[0])
            cols[0] *= 0.5
            # sigma1 * sigma2 = |det| exactly, so the small value comes from
            # the quotient rather than the cancellation-prone quadratic root
            np.log(np.abs(det, out=det), out=cols[1])
            cols[1] -= cols[0]
            # unit products are not normalised, so a row can be this small:
            # a zero row is -inf, any other is exact again once rescaled by a
            # power of two.  One min guards each row scan (a nan falls
            # through to it)
            if m and not np.min(t) >= _GRAM_LO:
                tiny = np.flatnonzero(t < _GRAM_LO)
                sub, e, nonzero = _normalize(mats[tiny])
                cols[:, tiny] = -np.inf
                cols[:, tiny[nonzero]] = _sigma_cols(sub[nonzero], e[nonzero], 2)
            if m and ldet is not None and not np.min(cols[1]) > -np.inf:
                # a det rounded to 0 (here or once rescaled) where the exact
                # log|det| at these rows' scale is below _DET_LO underflowed
                low = np.flatnonzero(cols[1] == -np.inf)
                lds = (ldet[low] + ldet_shift) - (2.0 * LN2) * exps[low]
                low, lds = low[lds < _DET_LO], lds[lds < _DET_LO]
                cols[1, low] = np.fmin(lds - cols[0, low], cols[0, low])
        else:
            cols = np.ascontiguousarray(np.linalg.svd(mats, compute_uv=False).T)
            np.log(cols, out=cols)
    cols += exps * LN2
    return cols


def _row_sums(cols, k):
    """l_1 + ... + l_k per row, rounded as np.sum(axis=1) over (rows, d) rows
    up to the sign of a zero sum: left to right below eight terms, pairwise
    from eight on.  S_1 is column 0 itself, not a copy."""
    if k >= 8:
        return np.sum(cols[:k].T.copy(), axis=1)
    if k <= 1:
        return cols[0] if k else np.zeros(cols.shape[1])
    out = cols[0] + cols[1]
    for j in range(2, k):
        out += cols[j]
    return out


def _chunk_stats(chunk, kind, s_list, d):
    """(max, scaled sum) of the kernel's log values over one chunk, per exponent.

    A chunk is (log-sigma columns, log-weights, shift): its rows' log-weights
    are ``logw + shift``, or ``logw`` when shift is None.  Each value rounds
    as ``logw + s*l1`` (norm), ``logw + (S_k + frac*l_{k+1})`` (phi, s < d)
    or ``logw + (s/d)*S_d`` (phi, s >= d), S_k as in _row_sums; one
    row-sized buffer serves every exponent.
    """
    if kind not in ("norm", "phi"):
        raise ValueError(f"unknown kernel kind {kind!r}")
    cols, logw, shift = chunk
    if cols.shape[1] == 0:
        return [(-math.inf, 0.0)] * len(s_list)
    if shift is not None:
        logw = logw + shift
    sums = {}
    if kind == "phi":  # S_0 is all zeros: formed only for s = 0
        sums = {k: _row_sums(cols, k) for k in {min(int(s), d) for s in s_list if not 0 < s < 1}}
    buf = np.empty(cols.shape[1])
    out = []
    for s in s_list:
        k = int(s)
        frac = s - k
        if kind == "norm":
            np.multiply(cols[0], s, out=buf)
        elif s >= d:
            np.multiply(sums[d], s / d, out=buf)
        elif frac > 0.0:
            np.multiply(cols[k], frac, out=buf)
            if k:
                buf += sums[k]
        else:
            np.copyto(buf, sums[k])
        buf += logw
        top = float(np.max(buf))
        if kind == "phi" and top == 0.0:
            top = 0.0  # np.sum from 0.0 would have turned a -0.0 row into +0.0
        if top == -math.inf:
            out.append((-math.inf, 0.0))
            continue
        buf -= top
        np.exp(buf, out=buf)
        out.append((top, float(np.sum(buf))))
    return out


def _merge_stats(acc, new):
    m1, s1 = acc
    m2, s2 = new
    if m2 == -math.inf:
        return acc
    if m1 == -math.inf:
        return new
    if m1 >= m2:
        return (m1, s1 + s2 * math.exp(m2 - m1))
    return (m2, s2 + s1 * math.exp(m1 - m2))


def _stats_to_log(stats):
    m, s = stats
    if m == -math.inf or s == 0.0:
        return -math.inf
    return m + math.log(s)


# Width h of the slope sketch's buckets, a power of two: b / h and the bucket
# starts j h are exact.  At h = 2^-6 the chord and Jensen bounds of a bucket
# are at most t^2 h^2 / 8 <= 2^-15 apart in log (Hoeffding's lemma), and
# the length-14 segments of the benchmark's planar triple fill 601 and 745
# buckets.
_SKETCH_H = 2.0 ** -6
# a segment no row reaches: (top, first bucket id, E, G, e_inf)
_NO_SEGMENT = (-math.inf, 0, np.zeros(0), np.zeros(0), 0.0)


def _segment(a, b):
    """Slope-sketch segment of rows whose log-kernel is a + t b, 0 <= t <= 1.

    Rows are bucketed by j = floor(b / h); bucket j keeps E = sum e^(a - top)
    and G = sum e^(a - top) (b - j h) / h, the offset moment in units of h,
    exact per row (b / h - j is).  Rows with b = -inf count only at t = 0
    (e_inf) and rows with a = -inf never.  Returns (top, first bucket id,
    E and G of the buckets from there on, e_inf).
    """
    top = float(np.max(a)) if len(a) else -math.inf
    if top == -math.inf:
        return _NO_SEGMENT
    p = a - top
    np.exp(p, out=p)
    e_inf = 0.0
    low = np.min(b)
    if not low > -np.inf:
        fin = b > -np.inf
        e_inf = float(np.sum(p[~fin]))
        p, b = p[fin], b[fin]
        if len(b) == 0:
            return top, 0, _NO_SEGMENT[2], _NO_SEGMENT[3], e_inf
        low = np.min(b)
    first = math.floor(low * (1.0 / _SKETCH_H))
    q = b * (1.0 / _SKETCH_H)
    j = np.floor(q)
    q -= j
    q *= p
    j -= first
    idx = j.astype(np.intp)
    return top, first, np.bincount(idx, p), np.bincount(idx, q), e_inf


def _sketch_chunk(chunk, d):
    """The d segments of one chunk: segment k holds s = k + t, its rows'
    a = log w + l_1 + ... + l_k and b = l_{k+1}."""
    cols, logw, shift = chunk
    a = logw + shift
    out = []
    for k in range(d):
        if k:
            a = a + cols[k - 1]
        out.append(_segment(a, cols[k]))
    return out


def _merge_segment(acc, new):
    """acc then new, both rescaled to the larger top, bucket by bucket over
    the union of their bucket ranges.  acc's arrays, the fold's own, take
    the sum in place, and grow only where new's range reaches outside them;
    each bucket rounds as fl(fl(E_acc f_acc) + fl(E_new f_new)) either way."""
    if new[0] == -math.inf:
        return acc
    if acc[0] == -math.inf:
        return new
    top = max(acc[0], new[0])
    fa, fn = math.exp(acc[0] - top), math.exp(new[0] - top)
    _, first, e, g, e_inf = acc
    lo, hi = new[1], new[1] + len(new[2])
    if not len(e):
        first = lo
    if lo < hi and (lo < first or hi > first + len(e)):
        start = min(first, lo)
        grown = np.zeros((2, max(first + len(e), hi) - start))
        grown[:, first - start:first - start + len(e)] = e * fa, g * fa
        first, (e, g) = start, grown
    else:
        e *= fa
        g *= fa
    e[lo - first:hi - first] += new[2] * fn
    g[lo - first:hi - first] += new[3] * fn
    return top, first, e, g, e_inf * fa + new[4] * fn


def _finish_segment(seg):
    """(top, bucket starts, E, w = G / E, e_inf), buckets with E = 0 dropped."""
    top, first, e, g, e_inf = seg
    ids = np.flatnonzero(e)
    e = e[ids]
    return top, (ids + first) * _SKETCH_H, e, g[ids] / e, e_inf


def _log_exp_sum(top, e, v):
    # top + log sum e_j exp(v_j), every e_j > 0
    if len(e) == 0:
        return -math.inf
    m = float(np.max(v))
    return top + m + math.log(float(np.sum(e * np.exp(v - m))))


def _suffix(cache, parts, combo):
    """(mantissa, exponent, log-weight, log|det|) of one unit's suffix: the
    product of one row of each later part, renormalised by a power of two
    after each step."""
    sfx = None
    se = 0
    slw = 0.0
    sld = 0.0
    for part, idx in zip(parts[1:], combo):
        m, e, w, ld = cache.levels[part]
        se += int(e[idx])
        slw += float(w[idx])
        sld += float(ld[idx])
        if sfx is None:
            sfx = m[idx]
        else:
            sfx = sfx @ m[idx]
            top = np.max(np.abs(sfx))
            if top > 0.0:
                _, ee = np.frexp(top)
                sfx = np.ldexp(sfx, -int(ee))
                se += int(ee)
    return sfx, se, slw, sld


def _times_suffix(mats, sfx):
    # one GEMM of the (rows * d, d) stack: every entry the same d-term dot
    # product as when each row is multiplied on its own
    return (mats.reshape(-1, mats.shape[1]) @ sfx).reshape(mats.shape)


def _unit_arrays(cache, parts, combo, top_only=False):
    """(log-sigma columns, log-weight shift) of one evaluation unit.

    A unit is the batch level times one suffix combination, one row index
    per later part, its products one GEMM of the level's (rows * d, d) stack
    by the suffix.  They are not normalised; its log-weights are the batch
    level's plus ``shift``, the suffix's summed log-weight; its log|det|
    (read by d=2 and 3) adds the suffix's.  ``top_only`` as in _sigma_cols.
    """
    mats, exps, _, ldet = cache.levels[parts[0]]
    sfx, se, slw, sld = _suffix(cache, parts, combo)
    return _sigma_cols(_times_suffix(mats, sfx), exps + se, cache.d, ldet, top_only, sld), slw


def _plan_units(cache, parts):
    sizes = [cache.rows(p) for p in parts]
    if 0 in sizes:
        return []
    return list(np.ndindex(*sizes[1:]))


# Work, in units x batch rows x d^2, that earns one more process at a level
# x suffix length.  A split costs 6-10 ms on a 2-vCPU VM: a bare fork and
# waitpid of a process holding 60 MB take 3.4 ms, the rest is copy-on-write
# faults, pickling and reaping.  In-process medians, one process against two:
# W3 n=14 with its sketch (243 units x 19,683 rows) 249 -> 169 ms, W3 n=12
# (27 x 19,683) 26.7 -> 25.1, W3 n=10 (3 x 19,683) 3.4 -> 9.1, W2 n=12 d=3
# (27 x 19,683) 157 -> 126, the dominated d=3 n=18 (16 x 16,384) 107 -> 60,
# W4 n=16 d=3 (4 x 16,384) 18.1 -> 17.9, W1 n=18 norm (16 x 16,384) 8.3 -> 9.5
_SPLIT_WORK = 1 << 21


def check_workers(workers):
    """``workers`` if it is None or an int >= 1 (not a bool); else raises."""
    if workers is None or (isinstance(workers, numbers.Integral)
                           and not isinstance(workers, bool) and workers >= 1):
        return workers
    raise InvalidInputError(f"workers must be None or an integer >= 1, got {workers!r}")


def _unit_results(cache, parts, units, kind, s_list, clock, sketch, top_only):
    """Each unit's (_chunk_stats, _sketch_chunk or None without ``sketch``),
    in unit order, the deadline checked before each."""
    logw, d = cache.levels[parts[0]][2], cache.d
    for unit in units:
        clock.check()
        cols, shift = _unit_arrays(cache, parts, unit, top_only and not sketch)
        chunk = (cols, logw, shift)
        yield _chunk_stats(chunk, kind, s_list, d), _sketch_chunk(chunk, d) if sketch else None


def _fork_slice(results):
    """(pid, read end of its pipe) of a forked child that pickles the list of
    ``results`` (an unstarted generator), or its exception, to the pipe and
    leaves by os._exit; None where the fork fails."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        try:
            payload = pickle.dumps((True, list(results)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def _split_fold(cache, parts, kind, s_list, clock, workers, sketch, top_only):
    """(stats, sketch segments or None) of a level x suffix length, its units
    cut into contiguous slices: one per _SPLIT_WORK of work begun, at most
    ``workers`` (None: the CPUs this process may run on).  This process
    folds the first while forked children evaluate the others; it folds
    their per-unit results next, as the merges are not associative, so the
    bits are the serial fold's.  A child's exception is raised here; on any
    exception the children left are killed and reaped."""
    d, units = cache.d, _plan_units(cache, parts)
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    work = len(units) * cache.rows(parts[0]) * d * d
    k = max(1, min(workers, len(units), -(-work // _SPLIT_WORK))) if hasattr(os, "fork") else 1
    cuts = [len(units) * i // k for i in range(k + 1)]
    slices = [_unit_results(cache, parts, units[a:b], kind, s_list, clock, sketch, top_only)
              for a, b in zip(cuts, cuts[1:])]
    acc, segs, children = [(-math.inf, 0.0)] * len(s_list), [_NO_SEGMENT] * d, {}
    try:
        for i in range(1, k):
            if (child := _fork_slice(slices[i])) is not None:
                children[i] = child
        for i, results in enumerate(slices):
            if i in children:
                # unpickled from the pipe, so the payload's bytes are never
                # held beside the objects they make
                with children[i][1] as fh:
                    try:
                        ok, results = pickle.load(fh)
                    except (EOFError, pickle.UnpicklingError):
                        ok = None
                pid = children.pop(i)[0]
                status = os.waitpid(pid, 0)[1]
                if ok is None:
                    raise RuntimeError(f"unit process {pid} left no result (wait status {status})")
                if not ok:
                    raise results
            for stats, unit_segs in results:
                acc = [_merge_stats(a, r) for a, r in zip(acc, stats)]
                if sketch:
                    segs = [_merge_segment(a, r) for a, r in zip(segs, unit_segs)]
    finally:
        if children:
            import signal  # not at module load, which no other path needs
        for pid, fh in children.values():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return acc, segs if sketch else None


def weighted_sums(mu, n, kind, s_values, budget, clock=None, workers=None, tables=None):
    """Log power sums of ``mu`` at length ``n`` for every exponent in s_values.

    One shared enumeration serves all exponents.  Returns a float array
    aligned with ``s_values``; -inf entries mean every word product is zero.
    ``tables`` (a dict owned by the caller) receives the phi^s slope sketch
    of each length this call enumerates as level x suffix units, built in the
    same pass, from which held_phi_bounds answers other exponents at that
    length without enumerating the words again.  ``workers`` caps the
    processes such a length is split over (_split_fold).
    """
    check_budget(budget, n, mu.n_atoms)
    check_workers(workers)
    if clock is None:
        clock = RunClock(budget.wall_clock_cap)
    clock.check()  # a held single-level length is one chunk: its only check
    s_list = [float(s) for s in s_values]
    cache = _cache_for(mu, dedup=True)
    parts = cache.parts_for(n, clock)
    top_only = kind == "norm" or all(s <= 1.0 for s in s_list)  # _chunk_stats: column 0 alone
    if len(parts) > 1:
        acc, segs = _split_fold(cache, parts, kind, s_list, clock, workers, tables is not None,
                                top_only)
        if segs is not None:
            tables[n] = tuple(_finish_segment(seg) for seg in segs)
    else:
        cols = cache.sigmas(n, top_only)
        acc = _chunk_stats((cols, cache.levels[n][2], None), kind, s_list, cache.d)
    return np.array([_stats_to_log(a) for a in acc])


def held_phi_bounds(mu, n, s, budget, clock, tables):
    """(lower, upper) log phi^s power sum of ``mu`` at length ``n``, 0 <= s <= d,
    from the slope sketch that weighted_sums left in ``tables[n]``.

    Budget and deadline are checked as for an enumeration at that length.
    s = k + t (s = d is k = d - 1, t = 1).  A bucket starting at beta gives
    E exp(t (beta + h w)), w = G / E, below its rows' sum by Jensen, and
    E ((1 - w) exp(t beta) + w exp(t (beta + h))) above it by the chord of
    exp on [beta, beta + h]; at t = 0 both are E, exact.
    """
    check_budget(budget, n, mu.n_atoms)
    clock.check()
    sketch, s = tables[n], float(s)
    d = len(sketch)
    if not 0.0 <= s <= d:
        raise ValueError(f"a sketch answers 0 <= s <= {d}, got {s}")
    k = min(int(s), d - 1)
    t = s - k
    top, beta, e, w, e_inf = sketch[k]
    if top == -math.inf:
        return -math.inf, -math.inf
    if t == 0.0:
        total = float(np.sum(e)) + e_inf
        return (top + math.log(total),) * 2
    lower = _log_exp_sum(top, e, t * (beta + _SKETCH_H * w))
    upper = _log_exp_sum(top, e, t * beta + np.log1p(w * math.expm1(t * _SKETCH_H)))
    return lower, upper


# Log margin of the norm-bound pruning here and in the JSR's spectral floor.
# A bound and the value it bounds are each within a few d u of exact in log,
# so a row whose bound is this far below a value found cannot reach it.
_PRUNE_LOG = 2.0 ** -20


def max_norm_word(ms, n, budget, clock=None):
    """Log of the largest word-product norm at length n (-inf when every
    product is zero).

    Runs on the levels without dedup.  The merged levels gave every
    benchmark call the same bits, but sorting levels where nothing merges
    took the (A, A, B) JSR probe from 1.64-1.69 to 2.01-2.28 ms
    (reference-speed, three alternating 5-s runs of structured2).

    Only rows that can still win reach the kernel.  Row i of a unit is at
    most log sigma_1(L_i) + log sigma_1(S), L_i the batch level's row and S
    the suffix product, so rows whose bound falls _PRUNE_LOG short of the
    best value found are skipped, and so is each unit whose largest bound
    (the suffix rows' sigma_1 summed in place of S's) does.  Units run in
    descending order of that bound, so the best value rises early; the
    result is bit for bit the maximum over every row.  Each level's sigma_1
    column is computed once (LevelCache.sigmas), here or by the JSR's
    spectral floor.  The pruning reads the running best, so the evaluation
    runs in-process.
    """
    check_budget(budget, n, ms.n_atoms)
    if clock is None:
        clock = RunClock(budget.wall_clock_cap)
    clock.check()
    cache = _cache_for(ms, dedup=False)
    parts = cache.parts_for(n, clock)
    lsig = cache.sigmas(parts[0], top_only=True)[0]
    if len(parts) == 1:
        return float(np.max(lsig))
    units = _plan_units(cache, parts)
    ubound = np.full(1, float(np.max(lsig)))
    for part in parts[1:]:  # unit order: later parts vary fastest
        ubound = (ubound[:, None] + cache.sigmas(part, top_only=True)).ravel()
    mats, exps = cache.levels[parts[0]][:2]
    best = -math.inf
    for pos in np.argsort(-ubound).tolist():
        clock.check()
        if ubound[pos] < best - _PRUNE_LOG:
            break  # so does every later unit
        sfx, se = _suffix(cache, parts, units[pos])[:2]
        ssig = float(np.linalg.svd(sfx, compute_uv=False)[0])
        if ssig == 0.0:
            continue  # every product of the unit is zero
        rows = np.flatnonzero(lsig + (math.log(ssig) + se * LN2) >= best - _PRUNE_LOG)
        if len(rows) == 0:
            continue
        lm, le = (mats, exps) if len(rows) == len(lsig) else (mats[rows], exps[rows])
        vals = _sigma_cols(_times_suffix(lm, sfx), le + se, cache.d, top_only=True)[0]
        best = max(best, float(np.max(vals)))
    return best
