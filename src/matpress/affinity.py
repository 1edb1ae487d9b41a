"""Certified bracketing of the affinity dimension.

For a contractive tuple of matrices the affinity dimension is the
zero-crossing exponent inf{s > 0 : P(mu, s) < 0} of the singular-value
pressure.  Two finite-step certification routes exist:

* determinant branch: when sum w_i |det A_i| >= 1 the crossing happens at
  s >= d, where P equals the exact one-step determinant pressure and the
  defining equation is solved by bisecting a strictly decreasing function;
* triangular branch: when one coordinate order makes every atom upper
  triangular, P has a closed form in the diagonal entries (see
  pressure._triangular_bounds), and its root is bisected the same way,
  each end at a point where the rounding-widened closed form has its sign;
* interval refinement: otherwise the crossing lies in [0, d], and one
  sweep over word lengths walks each end by regula falsi on a one-sided
  test: an upper test (a phi^t power sum below 1 certifies P(t) < 0, so
  the dimension is at most t) and a lower test (a quantified
  supermultiplicativity defect certifies P(t) > 0, so it is at least t).

Both tests are sound at every word length; only their firing time is
unbounded (it blows up as P(t) approaches 0), so budget_exhausted is a
legitimate outcome for tight tolerances, not a defect.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import _engine, linalg, pressure
from .errors import BudgetExhaustedError, DimensionCapError, InvalidInputError
from .errors import InvertedIntervalError
from .measure import WordBudget
from .pressure import _ROUNDING, _triangular_bounds, _validate_mu
from .svpressure import _route, det_pressure

__all__ = [
    "AffinityResult",
    "meets_ambient_dimension",
    "solve_determinant_dimension",
    "affinity_dimension",
]


@dataclass(frozen=True)
class AffinityResult:
    """Outcome of an affinity-dimension run.

    interval always contains the affinity dimension (up to the rounding of
    the word products; the power sums' own rounding is allowed for); certified
    additionally means its width is at most the requested eps.  steps counts
    endpoint moves: bisection halvings on the determinant branch, closed-form
    probes on the triangular branch, otherwise test fires that moved an end.
    history holds the interval after each word length of the sweep.
    words_evaluated sums the nominal word count N^n of every evaluated
    exponent at length n, exponents answered from a length's slope sketch
    included, so it does not fall when a sketch saves the enumeration.
    """

    interval: tuple
    branch: str  # "trisection" | "determinant" | "triangular"
    steps: int
    status: str  # "certified" | "budget_exhausted"
    history: tuple = ()
    words_evaluated: int = 0
    wall_time: float = 0.0

    @property
    def width(self):
        return self.interval[1] - self.interval[0]

    @property
    def midpoint(self):
        return 0.5 * (self.interval[0] + self.interval[1])


def meets_ambient_dimension(mu):
    """True iff sum w_i |det A_i| >= 1, i.e. the pressure at s = d is >= 0.

    Decides the branch: above the threshold the affinity dimension is >= d
    and the determinant equation pins it down exactly.
    """
    _validate_mu(mu)
    return math.fsum(w * abs(linalg._det(m)) for w, m in zip(mu._weights, mu._mats)) >= 1.0


def _det_bisect(mu, tol):
    """Bracket the root s >= d of sum w_i |det A_i|^(s/d) = 1.

    Returns (lo, hi, iterations) with hi - lo <= tol and the root inside.
    """
    d = mu.dimension
    for w, m in zip(mu._weights, mu._mats):
        det = abs(linalg._det(m))
        if det >= 1.0:
            raise InvalidInputError(
                f"determinant branch needs |det| < 1 for every atom, got {det}"
            )
    f_lo = det_pressure(mu, d)
    if f_lo < 0.0:
        raise InvalidInputError(
            "determinant equation has no root at or above the ambient "
            "dimension: sum of w*|det| is below 1"
        )
    if f_lo == 0.0:
        return float(d), float(d), 0
    # all |det| < 1 makes the pressure strictly decreasing and -> -inf,
    # so doubling the offset finds a sign change
    width = 1.0
    while det_pressure(mu, d + width) >= 0.0:
        width *= 2.0
        if width > 2.0**60:
            raise InvalidInputError("determinant equation root search diverged")
    steps = 0

    def fires(s):
        nonlocal steps
        steps += 1
        return det_pressure(mu, s) >= 0.0

    # pressure >= 0 at d + width/2 (or at d when width == 1), < 0 at d + width
    lo, hi = _bisect(fires, d + width / 2.0 if width > 1.0 else float(d), d + width, tol)
    return lo, hi, steps


def solve_determinant_dimension(mu, tol=1e-9):
    """Root s >= d of sum w_i |det A_i|^(s/d) = 1, to absolute tolerance tol.

    Preconditions: every |det A_i| < 1 and meets_ambient_dimension(mu).
    """
    _validate_mu(mu)
    tol = float(tol)
    if not (tol > 0.0):
        raise InvalidInputError(f"tol must be positive, got {tol}")
    lo, hi, _ = _det_bisect(mu, tol)
    return 0.5 * (lo + hi)


def _lower_test_params(d, t, q_cap, dim_cap):
    """(block length multiplier, log constant) of the lower test at exponent t.

    Returns None when no product inequality is available at t (lift
    dimension above cap).  0 < t <= d; t is a Fraction where the lift is
    needed (d >= 3 and t > 1).
    """
    try:
        return _route(d, t, q_cap, dim_cap)[:2]
    except (InvalidInputError, DimensionCapError):
        return None


# which bound of a sketched power sum a test reads: _PhiCache.value's side
_LOWER, _UPPER = 0, 1


class _PhiCache:
    """Shared phi^t power-sum evaluations keyed by (exponent, word length).

    The first exponent at a length is reduced exactly.  A length the engine
    enumerates as level x suffix units also leaves its slope sketch in
    ``tables`` (a few kilobytes), which answers every later exponent there
    as a lower and an upper bound, so the words of a length are enumerated
    once per run however many exponents reach it; each test reads the side
    that keeps it conservative.  Single-level lengths stay exact (the
    engine holds them).  The sketches are freed with this object when the
    run returns.  Nominal word counts accumulate per evaluated exponent,
    sketch probes included.
    """

    def __init__(self, mu, budget, clock, workers):
        self.mu, self.budget, self.clock, self.workers = mu, budget, clock, workers
        self.vals, self.tables, self.words = {}, {}, 0
        # log N + 2 W of the _ROUNDING bound
        self.per_letter = math.log(mu.n_atoms) + 2.0 * max(abs(math.log(w)) for w in mu._weights)

    def value(self, tf, length, side):
        """The ``side`` (_LOWER or _UPPER) bound of log Phi_length(tf)."""
        key = (tf, length)
        if key not in self.vals:
            if length in self.tables:
                self.vals[key] = _engine.held_phi_bounds(
                    self.mu, length, tf, self.budget, self.clock, self.tables)
            else:
                out = _engine.weighted_sums(
                    self.mu, length, "phi", [tf], self.budget,
                    clock=self.clock, workers=self.workers, tables=self.tables,
                )
                self.vals[key] = (float(out[0]),) * 2
            self.words += _engine.nominal_words(length, self.mu.n_atoms)
        return self.vals[key][side]

    def slack(self, value, length):
        """_ROUNDING bound of a log sum ``value`` at word length ``length``."""
        size = abs(value) if value > -math.inf else 0.0
        return _ROUNDING * (size + length * self.per_letter + 1.0)


def _upper_margin(cache, n, s):
    # > 0 where log Phi_n(s) < -slack: the power sum is below 1, P(s) < 0
    u = cache.value(s, n, _UPPER)
    return -u - cache.slack(u, n)


def _lower_margin(cache, n, s, block, log_k):
    # > 0 where log Phi_{n b}(s) - log K - (b - 1) log Phi_n(s) > slack: the
    # quantified supermultiplicativity defect certifies P(s) > 0
    ub = cache.value(s, n * block, _LOWER)
    if ub == -math.inf:
        return -math.inf
    u = cache.value(s, n, _UPPER)
    slack = cache.slack(ub, n * block) + (block - 1) * cache.slack(u, n) + _ROUNDING * abs(log_k)
    return ub - log_k - (block - 1) * u - slack


def _illinois(margin, fire, m_fire, miss, m_miss, tol):
    """(last firing point, fires) of a safeguarded regula falsi on margin.

    ``fire`` is where the test fires (m_fire > 0; None: an a priori end),
    ``miss`` where it does not; each probe replaces the end on its side
    until they are within tol.  The Illinois rule halves the margin of an
    end kept twice in a row; probes lie tol/2 or more inside the ends, and a
    bracket that did not halve over two probes is bisected, so the walk
    takes O(log(width / tol)) probes whatever the margin's shape.
    """
    fires, kept, widths = 0, 0, [math.inf, math.inf]  # kept: side moved last
    while (width := abs(miss - fire)) > tol:
        c = 0.5 * (fire + miss)
        if m_fire is not None and math.isfinite(m_fire - m_miss) and width <= 0.5 * widths[-2]:
            c = fire + (miss - fire) * (m_fire / (m_fire - m_miss))
        widths.append(width)
        c = min(max(c, min(fire, miss) + 0.5 * tol), max(fire, miss) - 0.5 * tol)
        m = margin(c)
        if m > 0.0:
            fire, m_fire, fires = c, m, fires + 1
            if kept == 1:
                m_miss *= 0.5
            kept = 1
        else:
            miss, m_miss = c, m
            if kept == -1 and m_fire is not None:
                m_fire *= 0.5
            kept = -1
    return fire, fires


def _upper_end(cache, n, lo, hi, tol):
    """(hi, fires): the lowest point of [lo, hi] where the upper test fires
    at length n, to within tol."""
    m_hi = _upper_margin(cache, n, hi)
    if not m_hi > 0.0:
        return hi, 0  # the margin increases with s, so nothing below fires
    m_lo = _upper_margin(cache, n, lo)
    if m_lo > 0.0:
        if lo > 0.0:
            raise InvertedIntervalError(f"upper test fires at the certified lower end {lo!r}")
        return lo, 1  # P(0) < 0: the dimension is 0
    return _illinois(lambda s: _upper_margin(cache, n, s), hi, m_hi, lo, m_lo, tol)


def _lower_end(cache, n, lo, hi, tol, q_cap, dim_cap):
    """(lo, fires): the highest point of [lo, hi] found where the lower test
    fires at length n.

    Where the product-inequality constant is explicit in s (s <= 1 with
    block d, and 1 < s < 2 for d = 2) the test is walked continuously, to
    within tol.  For d >= 3 above 1 only the lift rationals with
    denominator <= q_cap have a constant: the largest that fires wins.
    """
    mu, budget, d = cache.mu, cache.budget, cache.mu.dimension
    lifts = {Fraction(a, q) for q in range(1, q_cap + 1) for a in range(q + 1, d * q)}
    for t in sorted((t for t in lifts if lo < t < hi), reverse=True) if d >= 3 else ():
        params = _lower_test_params(d, t, q_cap, dim_cap)
        if (params is not None and _engine.feasible(budget, n * params[0], mu.n_atoms)
                and _lower_margin(cache, n, float(t), *params) > 0.0):
            return float(t), 1
    top = hi if d <= 2 else min(hi, 1.0)
    if top <= lo or not _engine.feasible(budget, n * d, mu.n_atoms):
        return lo, 0

    def margin(s):
        return _lower_margin(cache, n, s, *_lower_test_params(d, s, q_cap, dim_cap))

    m_top = margin(top)
    if m_top > 0.0:
        if top == hi:
            raise InvertedIntervalError(f"lower test fires at the certified upper end {hi!r}")
        return top, 1
    m_lo = margin(lo) if lo > 0.0 else None  # no constant at s = 0
    if m_lo is not None and not m_lo > 0.0:
        return lo, 0
    return _illinois(margin, lo, m_lo, top, m_top, tol)


def _bisect(fires, fire, miss, tol):
    """(fire, miss), the last points where ``fires`` held and failed,
    bisecting from fire towards miss until they are within tol."""
    while abs(miss - fire) > tol and (mid := 0.5 * (fire + miss)) not in (fire, miss):
        fire, miss = (mid, miss) if fires(mid) else (fire, mid)
    return fire, miss


def _triangular_root(mu, diag, tol):
    """(lo, hi, probes): P >= 0 at lo and P < 0 at hi by the closed form of a
    triangular family, bisected from [0, d] to within tol.

    Each probe reads the closed form's rounding-widened enclosure.  Where it
    straddles 0, each end is walked towards that probe on its own test.
    """
    probes = 0

    def bounds(s):
        nonlocal probes
        probes += 1
        return _triangular_bounds(mu._weights, diag, s, int(s))

    lo, hi = 0.0, float(mu.dimension)
    while hi - lo > tol and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lower, upper = bounds(mid)
        if lower >= 0.0:
            lo = mid
        elif upper < 0.0:
            hi = mid
        else:
            lo, _ = _bisect(lambda s: bounds(s)[0] >= 0.0, lo, mid, tol / 4.0)
            hi, _ = _bisect(lambda s: bounds(s)[1] < 0.0, hi, mid, tol / 4.0)
            break
    return lo, hi, probes


def affinity_dimension(mu, eps, budget=None, q_cap=6, dim_cap=256, workers=1):
    """Certified interval of width <= eps around the affinity dimension.

    Requires every atom's operator norm strictly below 1 (this makes the
    pressure strictly decreasing where finite, so one-sided tests localize
    the crossing).  Dispatches to the determinant branch when
    meets_ambient_dimension holds, then to the triangular branch when one
    coordinate order makes every atom upper triangular (both bisect to
    min(eps, 1e-9)); otherwise sweeps word lengths n = 1, 2,
    ... once, and at each moves the upper end of [0, d] down and then the
    lower end up by a safeguarded regula falsi on the tests' margins.  Each
    length is enumerated once: later probes there read the side of its
    slope sketch's bounds that keeps their test conservative.  Every
    endpoint is a point where its test fired, so the interval is a valid
    containment even on budget exhaustion.  Raises InvertedIntervalError if
    a test fires at or beyond the opposite end.
    """
    _validate_mu(mu)
    eps = float(eps)
    if not (eps > 0.0):
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if budget is None:
        budget = WordBudget()
    worst = max(linalg.operator_norm(m) for m in mu._mats)
    if not (worst < 1.0):
        raise InvalidInputError(
            f"affinity dimension needs every operator norm < 1, got {worst:.6g}"
        )
    t0 = time.monotonic()

    if meets_ambient_dimension(mu):
        lo, hi, steps = _det_bisect(mu, min(eps, 1e-9))
        return AffinityResult((lo, hi), "determinant", steps, "certified",
                              ((lo, hi),), 0, time.monotonic() - t0)
    diag = pressure._triangular_diagonals(mu._mats)
    if diag is not None:
        lo, hi, steps = _triangular_root(mu, diag, min(eps, 1e-9))
        status = "certified" if hi - lo <= eps else "budget_exhausted"
        return AffinityResult((lo, hi), "triangular", steps, status,
                              ((lo, hi),), 0, time.monotonic() - t0)
    return _sweep(mu, eps, budget, q_cap, dim_cap, workers)


def _sweep(mu, eps, budget, q_cap, dim_cap, workers):
    """The interval-refinement route of affinity_dimension, on any family."""
    t0 = time.monotonic()
    clock = _engine.RunClock(budget.wall_clock_cap)
    cache = _PhiCache(mu, budget, clock, workers)
    tol = eps / 64.0
    lo, hi = 0.0, float(mu.dimension)
    steps, history, n = 0, [], 1
    try:
        while hi - lo > eps and _engine.feasible(budget, n, mu.n_atoms):
            clock.check()
            hi, fires = _upper_end(cache, n, lo, hi, tol)
            steps += fires
            if hi - lo > eps:
                lo, fires = _lower_end(cache, n, lo, hi, tol, q_cap, dim_cap)
                steps += fires
            history.append((lo, hi))
            n += 1
    except BudgetExhaustedError:
        history.append((lo, hi))
    status = "certified" if hi - lo <= eps else "budget_exhausted"
    return AffinityResult((lo, hi), "trisection", steps, status,
                          tuple(history), cache.words, time.monotonic() - t0)
