"""Per-call correctness checks, run after timing.

They do not reuse the program's enumeration: word products are formed here
by plain numpy at small n, singular values come from ``np.linalg.svd`` and
the product-inequality constants are written out from their formulas.  The
only exception is the d=3 reproducer, whose oracle is the exterior-power
lift that ROADMAP item 1 names: phi^(3/2) sums of mu equal sqrt-norm sums of
``lifted_measure(mu, 1, 1, 2)``, where only top singular values are needed.

Every check returns a list of problems; an empty list means it passed.
A value x sits "inside" [lo, hi] when lo - TOL(x) <= x <= hi + TOL(x).
"""

import math

import numpy as np

BRUTE_WORDS = 4096  # largest N^n enumerated by a check


def tol(x):
    return 1e-9 * (1.0 + abs(x))


def _products(weights, mats, n):
    """Log word weights and products of every length-n word."""
    logw = np.log(weights)
    lw, prods = logw.copy(), mats.copy()
    for _ in range(n - 1):
        prods = np.einsum("aij,bjk->abik", prods, mats).reshape(-1, *mats.shape[1:])
        lw = (lw[:, None] + logw[None, :]).ravel()
    return lw, prods


def _logsumexp(v):
    v = v[np.isfinite(v)]
    if len(v) == 0:
        return -math.inf
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def _log_phi(sig, s):
    """log phi^s from singular values (rows descending)."""
    d = sig.shape[1]
    with np.errstate(divide="ignore"):
        ls = np.log(sig)
    if s >= d:
        return (s / d) * ls.sum(axis=1)
    k = int(s)
    out = ls[:, :k].sum(axis=1)
    if s > k:
        out = out + (s - k) * ls[:, k]
    return out


def log_sum(weights, mats, n, kind, s):
    """log sum_w weight(w) * (||A_w||^s or phi^s(A_w)) by enumeration."""
    lw, prods = _products(weights, mats, n)
    sig = np.linalg.svd(prods, compute_uv=False)
    with np.errstate(divide="ignore"):
        vals = s * np.log(sig[:, 0]) if kind == "norm" else _log_phi(sig, s)
    return _logsumexp(lw + vals)


def _lengths(n_atoms, factor=1):
    """Word lengths n >= 1 whose n*factor-length enumeration stays small."""
    out = []
    n = 1
    while n_atoms ** (n * factor) <= BRUTE_WORDS:
        out.append(n)
        n += 1
    return out


def log_norm_constant(d, s):
    # K(d, s) = d^(2 + (d+1)s) * max(d^(1-s), 1)
    return (2.0 + (d + 1) * s + max(1.0 - s, 0.0)) * math.log(d)


def log_planar_constant(s):
    # 2D phi^s inequality: 2^(3+2s) on (0,1], 2^(7-2s) on [1,2)
    return (3.0 + 2.0 * s if s <= 1.0 else 7.0 - 2.0 * s) * math.log(2.0)


def _ordered(lo, hi, problems):
    if not (lo <= hi):
        problems.append(f"inverted interval: lower {lo!r} > upper {hi!r}")


def _contains(lo, hi, x, what, problems):
    if not (lo - tol(x) <= x <= hi + tol(x)):
        problems.append(f"{what} {x!r} outside [{lo!r}, {hi!r}]")


def _sandwich(lo, hi, weights, mats, s, kind, block, log_k, problems):
    """The result must meet every enumerated enclosure [L_n, U_n].

    U_n = (1/n) log S_n and L_n = (1/n)(log S_{n b} - log K - (b-1) log S_n)
    both enclose the true value, so lo > U_n or hi < L_n is a contradiction.
    """
    n_atoms = len(mats)
    for n in _lengths(n_atoms):
        sn = log_sum(weights, mats, n, kind, s)
        if lo > sn / n + tol(sn / n):
            problems.append(f"lower {lo!r} above enumerated U_{n} = {sn / n!r}")
        if n_atoms ** (n * block) <= BRUTE_WORDS and sn > -math.inf:
            snb = log_sum(weights, mats, n * block, kind, s)
            if snb > -math.inf:
                ln = (snb - log_k - (block - 1) * sn) / n
                if hi < ln - tol(ln):
                    problems.append(f"upper {hi!r} below enumerated L_{n} = {ln!r}")


def norm_bracket(br, weights, mats, s, exact=None):
    """Norm pressure bracket: ordered, consistent with enumeration."""
    problems = []
    _ordered(br.lower, br.upper, problems)
    d = mats.shape[1]
    _sandwich(br.lower, br.upper, weights, mats, s, "norm", d, log_norm_constant(d, s), problems)
    if exact is not None:
        _contains(br.lower, br.upper, exact, "closed form", problems)
    return problems


def planar_bracket(br, weights, mats, s, exact=None):
    """2x2 singular-value pressure bracket for 1 < s < 2."""
    problems = []
    _ordered(br.lower, br.upper, problems)
    _sandwich(br.lower, br.upper, weights, mats, s, "phi", 2, log_planar_constant(s), problems)
    if exact is not None:
        _contains(br.lower, br.upper, exact, "closed form", problems)
    return problems


def lift_bracket(br, weights, mats, k, p, q):
    """d >= 3 singular-value bracket at s = k + p/q (lift route)."""
    problems = []
    _ordered(br.lower, br.upper, problems)
    d = mats.shape[1]
    d_prime = math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p
    log_k = (2.0 + (d_prime + 1) / q) * math.log(d_prime) + ((q - 1) / q) * math.log(d_prime + 1)
    _sandwich(br.lower, br.upper, weights, mats, k + p / q, "phi", d_prime, log_k, problems)
    return problems


def affinity(res, weights, mats, exact=None):
    """Affinity interval: 0 <= lo <= hi <= d (or >= d on the determinant
    branch), and no enumerated one-sided test contradicts either end."""
    problems = []
    lo, hi = res.interval
    d = mats.shape[1]
    _ordered(lo, hi, problems)
    if not lo >= 0.0:
        problems.append(f"lower end {lo!r} below 0")
    if res.branch != "determinant" and not hi <= d:
        problems.append(f"upper end {hi!r} above d = {d}")
    if exact is not None:
        _contains(lo, hi, exact, "closed form", problems)
    if res.branch == "determinant" or d != 2:
        return problems
    n_atoms = len(mats)
    for n in _lengths(n_atoms, 2):
        # P(lo) >= 0 must hold, and P(lo) <= U_n(lo)
        if lo > 0.0:
            u = log_sum(weights, mats, n, "phi", lo) / n
            if u < -tol(u):
                problems.append(f"enumerated U_{n}({lo!r}) = {u!r} < 0")
        # P(hi) <= 0 must hold, and P(hi) >= L_n(hi)
        if hi < d:
            if hi <= 1.0:
                block, log_k = d, log_norm_constant(d, hi)
            else:
                block, log_k = 2, log_planar_constant(hi)
            if n_atoms ** (n * block) > BRUTE_WORDS:
                continue
            sn = log_sum(weights, mats, n, "phi", hi)
            snb = log_sum(weights, mats, n * block, "phi", hi)
            ln = (snb - log_k - (block - 1) * sn) / n
            if ln > tol(ln):
                problems.append(f"enumerated L_{n}({hi!r}) = {ln!r} > 0")
    return problems


def jsr_bracket(br, weights, mats):
    """JSR bracket: 0 <= lo <= hi, lo <= max ||A_w||^(1/n), hi >= rho(A_w)^(1/n)."""
    del weights  # the joint spectral radius ignores weights
    problems = []
    _ordered(br.lower, br.upper, problems)
    if not br.lower >= 0.0:
        problems.append(f"lower {br.lower!r} below 0")
    for n in _lengths(len(mats)):
        _, prods = _products(np.ones(len(mats)), mats, n)
        top = float(np.max(np.linalg.svd(prods, compute_uv=False)[:, 0])) ** (1.0 / n)
        rho = float(np.max(np.abs(np.linalg.eigvals(prods)))) ** (1.0 / n)
        if br.lower > top * (1.0 + 1e-9):
            problems.append(f"lower {br.lower!r} above max word norm^(1/{n}) = {top!r}")
        if br.upper < rho * (1.0 - 1e-9):
            problems.append(f"upper {br.upper!r} below max spectral radius^(1/{n}) = {rho!r}")
    return problems


def phi_power_sum(value, weights, mats, n, s):
    """log Phi_n(s) between the constant words and submultiplicativity:
    sum_i w_i^n phi^s(A_i^n) <= Phi_n <= Phi_a * Phi_(n-a)."""
    problems = []
    got = value.log
    a = n // 2
    if len(mats) ** a > BRUTE_WORDS:
        return [f"no enumerable split of n = {n}"]
    upper = log_sum(weights, mats, a, "phi", s) + log_sum(weights, mats, n - a, "phi", s)
    powers = np.array([np.linalg.matrix_power(m, n) for m in mats])
    sig = np.linalg.svd(powers, compute_uv=False)
    lower = _logsumexp(n * np.log(weights) + _log_phi(sig, s))
    if got > upper + tol(upper):
        problems.append(f"log sum {got!r} above submultiplicative bound {upper!r}")
    if got < lower - tol(lower):
        problems.append(f"log sum {got!r} below constant-word bound {lower!r}")
    return problems


def lift_oracle(value, weights, mats, n):
    """phi^(3/2) log sum against the wedge-lift oracle (d = 3 only)."""
    from matpress import measure

    mu = measure.FiniteMatrixMeasure(zip(weights, mats))
    lifted = measure.lifted_measure(mu, 1, 1, 2)
    oracle = measure.weighted_power_sum(lifted, n, measure.norm_kernel(0.5)).log
    gap = value.log - oracle
    if not abs(gap) <= 1e-6 * max(1.0, abs(oracle)):
        return [f"log sum {value.log!r} differs from the wedge-lift oracle {oracle!r} by {gap:.3g}"]
    return []
