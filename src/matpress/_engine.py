"""Chunked, level-factorized enumeration of word products.

Words of length n over N atoms are enumerated as concatenations of subwords
whose lengths form a fixed composition of n.  The products for each subword
length m (a "level") are materialized once per measure and cached; a full
evaluation then batches one level against the combinations of the others.

Two representation choices keep this exact and fast:

* every stored matrix is frexp-normalized (max |entry| in [0.5, 1)) with the
  power-of-two exponent carried in an int64 side array, so rescaling is
  lossless and long products never over- or underflow;
* every level is kept in a canonical order -- lexicographic in (exponent,
  row-major mantissa entries) -- and rows equal under == are merged, their
  log-weights combined (power sums are linear in the weights), which
  collapses structured atom families -- repeated atoms, commuting diagonal
  parts -- to a handful of rows.  Budgets still meter the *nominal* word
  count N^n.

Evaluation splits into units (one suffix combination, or a row slice of the
single batch) whose partial statistics are reduced sequentially in a fixed
unit order, so results are bit-identical for every worker count.
"""

import math
import multiprocessing
import time

import numpy as np

from .errors import BudgetExhaustedError

LN2 = math.log(2.0)

_SIG_CACHE_ROWS = 1 << 15
_SLICE_ROWS = 1 << 16


def _row_cap(d):
    # ~32MB of float64 per materialized level at the cap
    return max(256, (1 << 22) // (d * d))


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
    # Power-of-two row rescaling: exact, and keeps every stored mantissa
    # matrix with max |entry| in [0.5, 1).
    scale = np.max(np.abs(mats), axis=(1, 2))
    _, e = np.frexp(scale)
    e = e.astype(np.int64)
    nonzero = scale > 0.0
    e[~nonzero] = 0
    out = np.ldexp(mats, (-e).astype(np.int32)[:, None, None])
    return out, e, nonzero


def _dedup_rows(mants, exps, logw, d):
    # Merge rows equal under == in (exponent, matrix); weights add (in log
    # space).  Rows come out in lexicographic (exponent, row-major entries)
    # order, equal rows keeping their input order, so level contents do not
    # depend on atom order or evaluation history.  One stable lexsort on
    # (exponent, first entry) does most of the ordering; only runs tied on
    # that pair are sorted again by their remaining entries.
    m = len(logw)
    if m == 0:
        return mants, exps, logw
    flat = mants.reshape(m, d * d)
    order = np.lexsort((flat[:, 0], exps))
    e0, f0 = exps[order], flat[order, 0]
    tie = (e0[1:] == e0[:-1]) & (f0[1:] == f0[:-1])
    run_id = np.cumsum(np.r_[True, ~tie])
    pos = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
    sub = order[pos]
    keys = [flat[sub, j] for j in range(d * d - 1, 0, -1)]
    order[pos] = sub[np.lexsort(keys + [run_id[pos]])]
    mants, exps, lw = mants[order], exps[order], logw[order]
    flat = mants.reshape(m, d * d)
    at = np.flatnonzero(tie)
    same = np.zeros(m - 1, dtype=bool)
    same[at] = np.all(flat[at + 1] == flat[at], axis=1)
    if not same.any():
        return mants, exps, lw
    starts = np.flatnonzero(np.r_[True, ~same])
    gmax = np.maximum.reduceat(lw, starts)
    counts = np.diff(np.r_[starts, m])
    gsum = np.add.reduceat(np.exp(lw - np.repeat(gmax, counts)), starts)
    return mants[starts], exps[starts], gmax + np.log(gsum)


class LevelCache:
    """Per-measure cache of normalized subword products, level by level."""

    def __init__(self, weights, mats, dedup):
        self.d = int(mats.shape[1])
        self.n_atoms = int(mats.shape[0])
        self.dedup = bool(dedup)
        self.row_cap = _row_cap(self.d)
        with np.errstate(divide="ignore"):
            logw = np.log(np.asarray(weights, dtype=np.float64))
        mants, exps, nonzero = _normalize(np.array(mats, dtype=np.float64))
        if dedup:
            mants, exps, logw = _dedup_rows(
                mants[nonzero], exps[nonzero], logw[nonzero], self.d
            )
        self.levels = {1: (mants, exps, logw)}
        self.top = 1
        self.sig_cache = {}

    def rows(self, m):
        return len(self.levels[m][2])

    def _combine(self, left, right):
        lm, le, lw = left
        rm, re, rw = right
        if len(lw) == 0 or len(rw) == 0:
            d = self.d
            return np.empty((0, d, d)), np.empty(0, dtype=np.int64), np.empty(0)
        if self.d == 2:
            # a sum of two products rounds the same in either order, so these
            # closed-form entries equal einsum's bit for bit (up to the sign
            # of an exact zero, which no sum or singular value sees)
            prod = lm[:, None, :, 0:1] * rm[None, :, 0:1, :]
            prod += lm[:, None, :, 1:2] * rm[None, :, 1:2, :]
            prod = prod.reshape(-1, 2, 2)
        else:
            prod = np.einsum("aij,bjk->abik", lm, rm).reshape(-1, self.d, self.d)
        exps = (le[:, None] + re[None, :]).ravel()
        logw = (lw[:, None] + rw[None, :]).ravel()
        mants, e2, nonzero = _normalize(prod)
        exps = exps + e2
        if self.dedup:
            return _dedup_rows(mants[nonzero], exps[nonzero], logw[nonzero], self.d)
        return mants, exps, logw

    def ensure(self, n, clock=None):
        """Build levels toward n while the next level fits the row cap.

        ``clock`` (a RunClock) is checked before each level is built.
        """
        base = max(self.rows(1), 1)
        while self.top < n and self.rows(self.top) * base <= self.row_cap:
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


def _log_sigmas(mats, d):
    """Log singular values, descending, row-wise; -inf encodes zero."""
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
            # sigma1 * sigma2 = |det| exactly, so the small value comes from
            # the quotient rather than the cancellation-prone quadratic root
            out[:, 1] = np.log(np.abs(det)) - out[:, 0]
            zero = s1sq == 0.0
            if np.any(zero):
                out[zero, :] = -np.inf
            return out
        sig = np.linalg.svd(mats, compute_uv=False)
        return np.log(sig)


def _kernel_logs(logsig, logw, kind, s, d):
    # logsig already includes the power-of-two scale
    if kind == "norm":
        return logw + s * logsig[:, 0]
    if kind != "phi":
        raise ValueError(f"unknown kernel kind {kind!r}")
    if s >= d:
        return logw + (s / d) * np.sum(logsig, axis=1)
    k = int(s)
    vals = np.sum(logsig[:, :k], axis=1) if k else np.zeros(len(logw))
    frac = s - k
    if frac > 0.0:
        vals = vals + frac * logsig[:, k]
    return logw + vals


def _sum_stats(vals):
    if len(vals) == 0:
        return (-math.inf, 0.0)
    m = float(np.max(vals))
    if m == -math.inf:
        return (-math.inf, 0.0)
    return (m, float(np.sum(np.exp(vals - m))))


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


def _unit_arrays(cache, parts, unit):
    """Materialize the scaled products for one evaluation unit."""
    combo, r0, r1 = unit
    bm, be, bw = cache.levels[parts[0]]
    mats = bm[r0:r1]
    exps = be[r0:r1]
    logw = bw[r0:r1]
    if combo:
        sfx = None
        se = 0
        slw = 0.0
        for part, idx in zip(parts[1:], combo):
            m, e, w = cache.levels[part]
            se += int(e[idx])
            slw += float(w[idx])
            if sfx is None:
                sfx = m[idx]
            else:
                sfx = sfx @ m[idx]
                top = np.max(np.abs(sfx))
                if top > 0.0:
                    _, ee = np.frexp(top)
                    sfx = np.ldexp(sfx, -int(ee))
                    se += int(ee)
        mats = mats @ sfx
        exps = exps + se
        logw = logw + slw
    return mats, exps, logw


def _eval_sum_unit(cache, parts, unit, kind, s_list):
    mats, exps, logw = _unit_arrays(cache, parts, unit)
    logsig = _log_sigmas(mats, cache.d) + (exps * LN2)[:, None]
    return [_sum_stats(_kernel_logs(logsig, logw, kind, s, cache.d)) for s in s_list]


def _eval_max_unit(cache, parts, unit):
    mats, exps, _ = _unit_arrays(cache, parts, unit)
    if len(mats) == 0:
        return (-math.inf, 0)
    logs = _log_sigmas(mats, cache.d)[:, 0] + exps * LN2
    idx = int(np.argmax(logs))
    return (float(logs[idx]), idx)


def _plan_units(cache, parts):
    sizes = [cache.rows(p) for p in parts[1:]]
    batch_rows = cache.rows(parts[0])
    if batch_rows == 0 or any(sz == 0 for sz in sizes):
        return []
    combos = list(np.ndindex(*sizes)) if sizes else [()]
    if len(combos) == 1:
        c0 = combos[0]
        return [
            (c0, start, min(start + _SLICE_ROWS, batch_rows))
            for start in range(0, batch_rows, _SLICE_ROWS)
        ]
    return [(c, 0, batch_rows) for c in combos]


# Fork-inherited state for worker processes; only the parent mutates it, and
# only while no pool is alive.
_FORK_STATE = None


def _sum_worker(i):
    cache, parts, units, kind, s_list = _FORK_STATE
    return _eval_sum_unit(cache, parts, units[i], kind, s_list)


def _max_worker(i):
    cache, parts, units = _FORK_STATE
    return _eval_max_unit(cache, parts, units[i])


def _run_units(units, serial_fn, worker_fn, state, workers, clock):
    """Yield unit results in unit order, optionally via a fork pool."""
    global _FORK_STATE
    workers = max(1, int(workers))
    if workers == 1 or len(units) <= 1:
        for unit in units:
            if clock is not None:
                clock.check()
            yield serial_fn(unit)
        return
    _FORK_STATE = state
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=min(workers, len(units))) as pool:
            for res in pool.imap(worker_fn, range(len(units)), chunksize=1):
                if clock is not None:
                    clock.check()
                yield res
    finally:
        _FORK_STATE = None


def weighted_sums(mu, n, kind, s_values, budget, clock=None, workers=1):
    """Log power sums of ``mu`` at length ``n`` for every exponent in s_values.

    One shared enumeration serves all exponents.  Returns a float array
    aligned with ``s_values``; -inf entries mean every word product is zero.
    """
    check_budget(budget, n, mu.n_atoms)
    if clock is None:
        clock = RunClock(budget.wall_clock_cap)
    # cache hits below return without touching _run_units, so the deadline
    # must be consulted here or a cached call could outlive the cap
    clock.check()
    s_list = [float(s) for s in s_values]
    cache = _cache_for(mu, dedup=True)
    cached = cache.sig_cache.get(n)
    if cached is not None:
        logsig, logw = cached
        return np.array(
            [_stats_to_log(_sum_stats(_kernel_logs(logsig, logw, kind, s, cache.d)))
             for s in s_list]
        )
    parts = cache.parts_for(n, clock)
    units = _plan_units(cache, parts)
    if len(parts) == 1 and 0 < cache.rows(n) <= _SIG_CACHE_ROWS:
        mats, exps, logw = cache.levels[n]
        logsig = _log_sigmas(mats, cache.d) + (exps * LN2)[:, None]
        cache.sig_cache[n] = (logsig, logw)
        return np.array(
            [_stats_to_log(_sum_stats(_kernel_logs(logsig, logw, kind, s, cache.d)))
             for s in s_list]
        )
    acc = [(-math.inf, 0.0)] * len(s_list)
    state = (cache, parts, units, kind, s_list)
    for res in _run_units(
        units, lambda u: _eval_sum_unit(cache, parts, u, kind, s_list),
        _sum_worker, state, workers, clock,
    ):
        acc = [_merge_stats(a, r) for a, r in zip(acc, res)]
    return np.array([_stats_to_log(a) for a in acc])


def _digits(row, length, base):
    if base == 1:
        return (0,) * length
    out = []
    for pos in range(length - 1, -1, -1):
        out.append((row // base ** pos) % base)
    return tuple(out)


def max_norm_word(ms, n, budget, clock=None, workers=1):
    """(log of the largest word-product norm at length n, achieving word).

    Runs without dedup so the maximizer stays identified; the word is a tuple
    of atom indices (first letter first), or None when every product is zero.
    """
    check_budget(budget, n, ms.n_atoms)
    if clock is None:
        clock = RunClock(budget.wall_clock_cap)
    clock.check()
    cache = _cache_for(ms, dedup=False)
    parts = cache.parts_for(n, clock)
    units = _plan_units(cache, parts)
    best = -math.inf
    best_at = None
    state = (cache, parts, units)
    for pos, res in enumerate(
        _run_units(units, lambda u: _eval_max_unit(cache, parts, u),
                   _max_worker, state, workers, clock)
    ):
        val, local = res
        if val > best:
            best = val
            best_at = (pos, local)
    if best_at is None or best == -math.inf:
        return -math.inf, None
    combo, r0, _ = units[best_at[0]]
    base = ms.n_atoms
    word = _digits(r0 + best_at[1], parts[0], base)
    for part, idx in zip(parts[1:], combo):
        word = word + _digits(idx, part, base)
    return best, word
