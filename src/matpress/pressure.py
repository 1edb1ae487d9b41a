"""Certified two-sided brackets for the norm pressure and the p-radius.

The norm pressure of a finitely supported matrix measure mu at exponent s is

    M(mu, s) = inf_n (1/n) log S_n,   S_n = sum over length-n words of
                                            (product of weights) * ||A_w||^s.

Subadditivity makes every (1/n) log S_n an upper bound (so every sum a run
evaluates bounds M from above); an a priori product
inequality with the explicit constant K(d, s) = d^(2+(d+1)s) * max(d^(1-s), 1)
turns the pair (S_n, S_{n d}) into a lower bound.  Running the two families
over increasing n yields a monotone sandwich that certifies M to any
requested width, or detects M = -inf exactly from the length-d sum.

That sandwich and the one store of a run's sums live here (_sandwich,
_Sums) for any block b, constant K and lower-end source; svpressure's
routes and continuity diagnostic and the JSR's sweep of word-norm maxima
reuse both, and affinity's sweep reads its sketch-backed phi^s sums from
the store.

One route needs no enumeration: when one coordinate order makes every atom
upper triangular, M, the singular-value pressure P and the joint spectral
radius have closed forms in the diagonal entries (_triangular_diagonals,
_triangular_bracket), which pressure, svpressure, affinity and jsr try
before their enumeration routes.
"""

import itertools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import BudgetExhaustedError, InvalidInputError
from .measure import FiniteMatrixMeasure, WordBudget

__all__ = [
    "PressureBracket",
    "norm_constant",
    "log_norm_constant",
    "bracket",
    "p_radius_bracket",
]

PROVENANCE_NORM = "norm-power-bound"
PROVENANCE_TRIANGULAR = "triangular"

_CERTIFIED = "certified"
_MINUS_INF = "minus_infinity"
_EXHAUSTED = "budget_exhausted"

# Rounding allowance of a log sum L = log sum_r exp(v_r) over R rows reduced
# at word length m.  Each v_r = log w + sum_j c_j l_j adds at most d + 2
# rounded terms (the l_j <= 0 share a sign, every norm being below 1), so is
# off by at most (d + 3) u M_r, u = 2^-53, M_r = |log w| + |log phi^s|.
# Under p_r = exp(v_r - L), |v_r| <= |L| - log p_r gives the mean of M_r at
# most |L| + H(p) + 2 m W <= |L| + m (log N + 2 W), W the largest |log w_i|
# of the N atoms; the shift, exp, sums, per-unit merges and log add at most
# (log2 R + 4 units + 8) u relative.  A slope sketch's own sums are
# per-chunk bincounts of at most 2^15 rows and a sequential merge over units,
# at most (2^15 + units) u relative, and its bucket offsets are exact; a
# probe rounds each bucket's t beta as a row's value is rounded, and its
# exps, logs and bucket sum add (log2 buckets + 8) u.  Its bounds enclose
# the sum of the rounded row values (the bucket width sets only their
# gap).  _ROUNDING (|L| + m (log N + 2 W) + 1) exceeds all of these for
# d < 2^18 and under 2^17 units.  The rounding of the word products
# themselves is the engine's to bound.  Affinity's one-sided tests use it.
_ROUNDING = 2.0 ** -32

# Rounding radius of a triangular closed form: one log sum
# L = log sum_i exp(v_i) over the N atoms, v_i = log w_i + sum_m c_m l_im,
# l_im = log|a_i,mm|, with at most d + 1 addends and c_m in {1, t, s}
# (t = s - floor(s) is exact).  numpy's log and exp are within 4 ulp (8u).
# With T = max_i |log w_i| + s max |l_im| over the finite l_im (a zero
# entry's -inf term is exact, and sum_m c_m <= s), v_i is off by at most
# (d + 10) u T.  Shifting by the largest v_i (|shift| <= T: a rounding of
# x costs a term e^-x u x <= u/e relative), the exps, the N-term sum and
# its log add u (2N + 10 log N + 8) to a sum >= 1, and adding the shift
# back u (T + log N).  So |dL| <= u ((d + 11) T + 2N + 10 log N + 8),
# which is below _TRIANGULAR_ROUNDING (1 + N + d T).
_TRIANGULAR_ROUNDING = 2.0 ** -49


@dataclass(frozen=True)
class PressureBracket:
    """A certified interval, log scale unless the producing op says otherwise.

    status is one of "certified" (width <= requested eps), "minus_infinity"
    (the quantity is exactly -inf; both endpoints are -inf), or
    "budget_exhausted" (still a valid containment, just wider than asked).
    words_evaluated counts nominal words N^n summed over the distinct word
    lengths actually evaluated.
    """

    lower: float
    upper: float
    n_used: int
    status: str
    words_evaluated: int = 0
    wall_time: float = 0.0
    provenance: str = ""

    @property
    def width(self):
        if self.lower == self.upper:
            return 0.0
        return self.upper - self.lower

    def contains(self, x):
        return self.lower <= x <= self.upper


def _validate_s(s):
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        raise InvalidInputError(f"exponent s must be positive and finite, got {s}")
    return s


def _validate_eps(eps):
    eps = float(eps)
    if not (eps > 0.0):
        raise InvalidInputError(f"eps must be positive, got {eps}")
    return eps


def _validate_mu(mu):
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("expected a FiniteMatrixMeasure")
    return mu


def norm_constant(d, s):
    """The norm-product inequality constant K(d,s) = d^(2+(d+1)s) * max(d^(1-s), 1).

    Combined into a single power of d so the float result is exact whenever
    the exponent is integral (e.g. K(2,1) = 32, K(3,2) = 59049, K(2,0.5) = 16).
    Overflows to inf for extreme s*d; algorithms use log_norm_constant.
    """
    d, s = _validate_d_s(d, s)
    try:
        return float(d) ** (2.0 + (d + 1) * s + max(1.0 - s, 0.0))
    except OverflowError:
        return math.inf


def log_norm_constant(d, s):
    """log of norm_constant(d, s), safe for exponents that would overflow."""
    d, s = _validate_d_s(d, s)
    return (2.0 + (d + 1) * s + max(1.0 - s, 0.0)) * math.log(d)


def _validate_d_s(d, s):
    if not (isinstance(d, int) and d >= 1):
        raise InvalidInputError(f"dimension must be a positive integer, got {d}")
    return d, _validate_s(s)


class _Sums:
    """The one store of a run's log sums, keyed by (measure, kind, exponent,
    length): the power sum of kind "norm" or "phi", with kind "max" the
    largest word norm (_engine.max_norm_word, s unused), and with kind "held"
    a (lower, upper) pair around the phi^s sum: exact at a length's first
    exponent, whose enumeration as level x suffix units leaves the length's
    slope sketch in tables[id(mu)], and then from that sketch
    (_engine.held_phi_bounds).  Lengths are metered (feasible), the run's
    clock starts here, and ``words`` adds N^n once per key at the nominal
    letter count ``n_atoms`` (None: the measure's own)."""

    def __init__(self, budget, workers, n_atoms=None):
        self.budget, self.workers, self.n_atoms = budget, workers, n_atoms
        self.clock = _engine.RunClock(budget.wall_clock_cap)
        self.store, self.tables, self.words = {}, {}, 0

    def feasible(self, mu, n):
        return _engine.feasible(self.budget, n, self.n_atoms or mu.n_atoms)

    def get(self, mu, kind, s, n):
        key = (id(mu), kind, float(s), n)
        if key not in self.store:
            tables = self.tables.setdefault(id(mu), {}) if kind == "held" else None
            if kind == "max":
                value = float(_engine.max_norm_word(mu, n, self.budget, clock=self.clock))
            elif kind == "held" and n in tables:
                value = _engine.held_phi_bounds(mu, n, s, self.budget, self.clock, tables)
            else:
                value = float(_engine.weighted_sums(
                    mu, n, "phi" if kind == "held" else kind, [float(s)], self.budget,
                    clock=self.clock, workers=self.workers, tables=tables)[0])
                value = (value, value) if kind == "held" else value
            self.store[key] = value
            self.words += _engine.nominal_words(n, self.n_atoms or mu.n_atoms)
        return self.store[key]


def _sandwich(mu, kind, s, block, log_k, sums, source=None):
    """Yield (n, lower, upper) for n = 1, 2, ... while length n is feasible
    (sums.feasible, at its nominal count): the running min of (1/m) log S_m
    over m = n and, while length n*b fits too, m = n*b (log S_m is
    subadditive, so each is an upper bound), and the running max over the
    latter steps of (1/n) [log T_nb - log K - (b-1) log T_n] - shift,
    b = block, log K = log_k, T the sums of source = (measure, exponent,
    shift), by default (mu, s, 0).  S_m is a power sum, or with kind "max"
    the largest norm of a length-m word, for which Bochi (Linear Algebra
    Appl. 368, 2003) gives this form.

    The sweep ends with the lower one, so the upper end sweeps alone only
    where length b never fits or block is None (no lower source).  A
    vanishing sum of mu ends it with lower = upper = -inf: the products of
    that length are exact zeros, so are all longer ones, and M = -inf.
    """
    src, src_s, shift = source or (mu, s, 0.0)
    lo, up, n = -math.inf, math.inf, 1
    paired = block is not None and sums.feasible(mu, block)
    while sums.feasible(mu, n * block if paired else n):
        sums.clock.check()
        up = min(up, sums.get(mu, kind, s, n) / n)
        if paired:
            up = min(up, sums.get(mu, kind, s, n * block) / (n * block))
        if up == -math.inf:
            yield n, -math.inf, -math.inf
            return
        if paired:
            tn, tnb = sums.get(src, kind, src_s, n), sums.get(src, kind, src_s, n * block)
            lo = max(lo, (tnb - log_k - (block - 1) * tn) / n - shift)
        yield n, lo, up
        n += 1


def _bracket(mu, kind, s, block, log_k, eps, budget, workers, provenance,
             source=None, lower=-math.inf):
    """One route's sandwich to width < eps, within the budget; a vanishing
    sum, at length block first where that fits, is the exact minus_infinity
    verdict.  source is _sandwich's, and lower a lower end known up front.
    """
    t0 = time.monotonic()
    sums = _Sums(budget, workers)
    lo, up, n_used, status = lower, math.inf, 0, _EXHAUSTED
    try:
        if (block is not None and sums.feasible(mu, block)
                and sums.get(mu, kind, s, block) == -math.inf):
            lo = up = -math.inf
            n_used, status = block, _MINUS_INF
        else:
            for n_used, lo, up in _sandwich(mu, kind, s, block, log_k, sums, source):
                if up == -math.inf:
                    status = _MINUS_INF
                    break
                lo = max(lo, lower)
                if up - lo < eps:
                    status = _CERTIFIED
                    break
    except BudgetExhaustedError:
        pass
    return PressureBracket(lo, up, n_used, status, sums.words, time.monotonic() - t0, provenance)


def _exp_end(x, upper):
    """exp(x) as an upper (upper=True) or lower end on the linear scale; past
    the float range these are inf and the largest float, still valid ends."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf if upper else sys.float_info.max


def _triangular_diagonals(mats):
    """|a_i,jj| as an (N, d) array when one order of the coordinates makes
    every matrix upper triangular, else None.

    Such an order exists iff the graph with an edge r -> c for every
    off-diagonal entry (r, c) that is nonzero in some matrix has no cycle.
    The zero test is exact (-0.0 counts as zero), so the detection is too.
    """
    d = mats.shape[1]
    edges = np.any(mats != 0.0, axis=0) & ~np.eye(d, dtype=bool)
    alive = np.ones(d, dtype=bool)
    while alive.any():
        sources = alive & ~edges[alive].any(axis=0)  # no edge from a live node
        if not sources.any():
            return None
        alive &= ~sources
    return np.abs(np.diagonal(mats, axis1=1, axis2=2))


class _TriangularForm:
    """The closed form of a triangular family at many exponents: its
    log-diagonals, log-weights, (S, j) columns and radius terms are
    computed once, not at every exponent."""

    def __init__(self, weights, diag):
        with np.errstate(divide="ignore"):
            self.logs, logw = np.log(diag), np.log(weights)
        self.logw = logw[:, None]
        finite = self.logs[np.isfinite(self.logs)]
        self.size_w = float(np.max(np.abs(logw)))
        self.size_l = float(np.max(np.abs(finite), initial=0.0))
        self.columns = {}

    def _columns(self, k, whole):
        # per (S, j) pair with a finite term (the same pairs at every t > 0):
        # sum_{m in S} l_im, and l_ij unless s = k (whole)
        key = (k, whole)
        if key not in self.columns:
            d = self.logs.shape[1]
            pairs = [(S, j) for S in itertools.combinations(range(d), k)
                     for j in ([0] if whole else [j for j in range(d) if j not in S])]
            sets, js = zip(*pairs)
            base = self.logs[:, np.array(sets, dtype=np.intp).reshape(len(sets), k)].sum(axis=2)
            jcols = self.logs[:, list(js)]
            live = (base if whole else base + jcols).max(axis=0) > -np.inf
            self.columns[key] = base[:, live], None if whole else jcols[:, live]
        return self.columns[key]

    def bounds(self, s, k):
        """(lower, upper) around the max over a k-set S and an index j not in
        S of log sum_i w_i prod_{m in S} |a_i,mm| |a_i,jj|^(s-k), widened by
        the rounding radius; None where a term overflows.

        With k = 0 it is M(mu, s) of a triangular family; with k = floor(s)
        < d it is P(mu, s) (Falconer & Miao, Fractals 15, 2007: the max over
        the orderings of the diagonal, of which only S and j matter).
        """
        t = s - k
        base, jcols = self._columns(k, t == 0.0)
        if not base.shape[1]:
            return -math.inf, -math.inf
        v = self.logw + (base if jcols is None else base + t * jcols)
        n_atoms, d = self.logs.shape
        radius = _TRIANGULAR_ROUNDING * (1.0 + n_atoms + d * (self.size_w + s * self.size_l))
        top = v.max(axis=0)
        value = float((top + np.log(np.exp(v - top).sum(axis=0))).max())
        if not math.isfinite(radius + value):
            return None
        return value - radius, value + radius


def _closed_form_bracket(mu, bounds, eps, t0, provenance):
    """A closed form's bounds from _TriangularForm.bounds as a PressureBracket,
    or None where bounds is None (a term overflows)."""
    if bounds is None:
        return None
    lo, up = bounds
    status = _MINUS_INF if up == -math.inf else _CERTIFIED if up - lo < eps else _EXHAUSTED
    return PressureBracket(lo, up, 1, status, mu.n_atoms, time.monotonic() - t0, provenance)


def _triangular_bracket(mu, s, k, eps):
    """The closed-form bracket of _TriangularForm.bounds as a PressureBracket,
    or None when mu is not triangular in any coordinate order."""
    t0 = time.monotonic()
    diag = _triangular_diagonals(mu._mats)
    if diag is None:
        return None
    bounds = _TriangularForm(mu._weights, diag).bounds(s, k)
    return _closed_form_bracket(mu, bounds, eps, t0, PROVENANCE_TRIANGULAR)


def bracket(mu, s, eps, budget=None, workers=None):
    """Certified bracket for M(mu,s) to width < eps, within the budget.

    A family that is upper triangular in one coordinate order gets the
    closed form max_j log sum_i w_i |a_i,jj|^s, widened by its rounding
    radius, with provenance "triangular".  Otherwise evaluates the
    length-d sum first: if it vanishes, returns the exact
    minus_infinity verdict at cost N^d words.  Otherwise runs the sandwich
    over n = 1, 2, ... keeping the running min of (1/m) log S_m over every
    length m = n, n d evaluated and the running max of the lower family, so
    the bracket only ever shrinks; where length d never fits, the upper
    end sweeps alone.
    """
    _validate_mu(mu)
    s = _validate_s(s)
    eps = _validate_eps(eps)
    _engine.check_workers(workers)
    if budget is None:
        budget = WordBudget()
    d, log_k = mu.dimension, log_norm_constant(mu.dimension, s)
    return _triangular_bracket(mu, s, 0, eps) or _bracket(
        mu, "norm", s, d, log_k, eps, budget, workers, PROVENANCE_NORM)


def p_radius_bracket(source, p, eps, budget=None, workers=None):
    """Certified bracket for the p-radius, on the linear scale.

    The p-radius of unit-weight atoms (A_1,...,A_N) is
    N^(-1/p) exp(M(mu,p)/p); the M-bracket maps through that monotone
    transform, so certification (eps on the log-scale M-gap) carries over.
    ``source`` may be a FiniteMatrixMeasure with unit weights, or an iterable
    of matrices.  A minus_infinity verdict maps to the exact bracket [0, 0].
    """
    if isinstance(source, FiniteMatrixMeasure):
        mu = source
    else:
        mu = FiniteMatrixMeasure.from_matrices(list(source))
    if not mu.has_unit_weights:
        raise InvalidInputError("p-radius requires every atom weight to equal 1 exactly")
    p = float(p)
    if not (p >= 1.0 and math.isfinite(p)):
        raise InvalidInputError(f"p must satisfy p >= 1, got {p}")
    mb = bracket(mu, p, eps, budget=budget, workers=workers)
    scale = mu.n_atoms ** (-1.0 / p)

    return PressureBracket(
        scale * _exp_end(mb.lower / p, False), scale * _exp_end(mb.upper / p, True),
        mb.n_used, mb.status,
        mb.words_evaluated, mb.wall_time, mb.provenance,
    )
