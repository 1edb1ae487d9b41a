"""Certified bracketing of the affinity dimension.

For a contractive tuple of matrices the affinity dimension is the
zero-crossing exponent inf{s > 0 : P(mu, s) < 0} of the singular-value
pressure.  Three routes certify it:

* determinant branch: when sum w_i |det A_i| >= 1 (compared exactly) the
  crossing happens at s >= d, where P equals the exact one-step
  determinant pressure, a closed form;
* triangular branch: when one coordinate order makes every atom upper
  triangular, P has a closed form in the diagonal entries (see
  pressure._TriangularForm);
* interval refinement: otherwise the crossing lies in [0, d], and one
  sweep over word lengths walks each end by regula falsi on a one-sided
  test read from the run's pressure._Sums: an upper test (a phi^t power
  sum below 1 certifies P(t) < 0, so the dimension is at most t) and a
  lower test (a quantified supermultiplicativity defect certifies
  P(t) > 0, so it is at least t).

Both closed forms decrease strictly; two regula falsi walks over one cache
of their evaluations move each end to a point where the rounding-widened
closed form has its sign (_closed_form_root).  The sweep's tests are sound
at every word length; only their firing time is unbounded (it blows up as
P(t) approaches 0), so budget_exhausted is a legitimate outcome for tight
tolerances, not a defect.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _engine, linalg, pressure
from .errors import BudgetExhaustedError, InvalidInputError
from .errors import InvertedIntervalError
from .measure import WordBudget
from .pressure import _ROUNDING, _validate_eps, _validate_mu
from .svpressure import _lift_rows, _route

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
    closed-form evaluations on the determinant and triangular branches, and
    otherwise test fires that moved an end, the upper walks at held lengths
    included.
    history holds the interval after each step n = 1, 2, ... of the sweep,
    one entry per step even where no test was left to run.
    words_evaluated sums the nominal word count N^n of every evaluated
    exponent at length n, exponents answered from a length's slope sketch
    or held level included, so it does not fall when either saves the
    enumeration.
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


def _det_excess(mu):
    """(sign of sum w_i |det A_i| - 1, the |det A_i|), the sign exact.

    Each w_i |det A_i| is an integer over a power of two, so the sum is
    compared with 1 in integer arithmetic: no rounding decides the branch.
    A determinant that overflows to inf counts as an excess; one that
    evaluates to nan (inf - inf among its terms) is rejected.
    """
    dets = [abs(linalg._det(m)) for m in mu._mats]
    if any(math.isnan(det) for det in dets):
        raise InvalidInputError("a determinant overflows to nan: its terms are too large")
    if math.inf in dets:
        return 1, dets
    terms = []
    for w, det in zip(mu._weights.tolist(), dets):
        (a, b), (c, e) = w.as_integer_ratio(), det.as_integer_ratio()
        terms.append((a * c, b * e))
    den = max(q for _, q in terms)
    excess = sum(p * (den // q) for p, q in terms) - den
    return (excess > 0) - (excess < 0), dets


def meets_ambient_dimension(mu):
    """True iff sum w_i |det A_i| >= 1, i.e. the pressure at s = d is >= 0.

    Decides the branch: above the threshold the affinity dimension is >= d
    and the determinant equation pins it down exactly.  The sum is compared
    with 1 exactly, taking each computed determinant as given.
    """
    _validate_mu(mu)
    return _det_excess(mu)[0] >= 0


def _closed_form_root(bounds, lo, hi, tol, kinks=()):
    """(lo, hi, evaluations): the root of a strictly decreasing pressure P
    whose closed form has the rounding-widened enclosure bounds(s) = (L, U).

    lo is an a priori end (P(lo) >= 0), and so is hi (P(hi) < 0) unless it
    is None, when the first of lo + 1, lo + 2, lo + 4, ... where U < 0
    stands in.  Both ends are evaluated first, then the kinks of P inside
    the bracket, by bisection over them: a walk across a kink converges
    only linearly.  Two regula falsi walks share one cache of evaluations:
    one moves hi down to a point where U < 0, to within tol, then one moves
    lo up to a point where L > 0; each starts from the tightest bracket that
    the evaluations so far give.  An end that no evaluation certifies keeps
    its a priori value.
    """
    seen = {}

    def enclosure(s):
        if s not in seen:
            seen[s] = bounds(s)
        return seen[s]

    enclosure(lo)
    if hi is None:  # P -> -inf, so doubling finds a certified upper end
        hi = lo + 1.0
        while not enclosure(hi)[1] < 0.0:
            hi = lo + 2.0 * (hi - lo)
            if hi - lo > 2.0**60:
                raise InvalidInputError(
                    "determinant equation root cannot be certified: the closed "
                    "form's rounding radius grows faster than the pressure falls")
    enclosure(hi)
    a, b = lo, hi
    while inside := [k for k in kinks if a < k < b]:
        k = inside[len(inside) // 2]
        if enclosure(k)[1] < 0.0:
            b = k
        else:
            a = k
    hi = _resume_walk(lambda s: -enclosure(s)[1], seen, hi, lo, tol)
    lo = _resume_walk(lambda s: enclosure(s)[0], seen, lo, hi, tol)
    return lo, hi, len(seen)


def _resume_walk(margin, seen, start, end, tol):
    """The last point where margin > 0 of an _illinois walk from the a
    priori end start towards end, begun from the evaluated points in seen
    nearest the crossing: the firing one closest to end, if any, and the
    first point past it that does not fire.  margin evaluates new points
    into seen."""
    side = 1.0 if end > start else -1.0
    fire = max([s for s in seen if margin(s) > 0.0] + [start], key=lambda s: side * s)
    miss = min((s for s in seen if side * (s - fire) > 0.0 and not margin(s) > 0.0),
               key=lambda s: side * s, default=end)
    m_fire = margin(fire)
    return _illinois(margin, fire, m_fire if m_fire > 0.0 else None, miss, margin(miss), tol)[0]


def _det_root(mu, excess, dets, tol):
    """(lo, hi, evaluations): the root s >= d of sum w_i |det A_i|^(s/d) = 1,
    given the sign ``excess`` of sum w_i |det A_i| - 1 and the |det A_i|.

    d is the a priori lower end (P(d) >= 0 exactly); every other end is
    certified on the rounding-widened log of the sum: the closed form of
    pressure._TriangularForm on the 1x1 family of the |det A_i|, at exponent
    s/d (rounding s/d moves the log by at most u (s/d) max |log|det A_i||,
    within its radius).  The determinants are taken as computed: their own
    error (cofactor formulas up to d = 3, LAPACK beyond) is not bounded yet.
    """
    d = mu.dimension
    if max(dets) >= 1.0:
        raise InvalidInputError(
            f"determinant branch needs |det| < 1 for every atom, got {max(dets)}"
        )
    if excess < 0:
        raise InvalidInputError(
            "determinant equation has no root at or above the ambient "
            "dimension: sum of w*|det| is below 1"
        )
    if excess == 0:
        return float(d), float(d), 0
    form = pressure._TriangularForm(mu._weights, np.array(dets)[:, None])
    return _closed_form_root(lambda s: form.bounds(s / d, 0), float(d), None, tol)


def solve_determinant_dimension(mu, tol=1e-9):
    """Root s >= d of sum w_i |det A_i|^(s/d) = 1: the midpoint of the
    bracket of _det_root, each of whose ends is walked to within tol / 4 of
    where its rounding-widened test stops holding.

    The bracket is then within tol wide, so the midpoint within tol / 2 of
    the root, unless the closed form's rounding radius spans more than tol
    in s, where the pressure is nearly flat (some |det A_i| close to 1);
    the midpoint is then only within half the bracket's width, which
    affinity_dimension reports as its interval.  Preconditions: every
    |det A_i| < 1 and meets_ambient_dimension(mu).
    """
    _validate_mu(mu)
    tol = float(tol)
    if not (tol > 0.0):
        raise InvalidInputError(f"tol must be positive, got {tol}")
    lo, hi, _ = _det_root(mu, *_det_excess(mu), tol / 4.0)
    return 0.5 * (lo + hi)


def _slack(mu, value, length):
    """_ROUNDING bound of a log sum ``value`` at word length ``length``: log N
    + 2 W per letter, W the largest |log w_i|."""
    per_letter = math.log(mu.n_atoms) + 2.0 * max(abs(math.log(w)) for w in mu._weights)
    size = abs(value) if value > -math.inf else 0.0
    return _ROUNDING * (size + length * per_letter + 1.0)


def _upper_margin(sums, mu, n, s):
    # > 0 where log Phi_n(s) < -slack: the power sum is below 1, P(s) < 0;
    # each test reads the side of a held (lower, upper) pair that keeps it
    # conservative
    _, u = sums.get(mu, "held", s, n)
    return -u - _slack(mu, u, n)


def _lower_margin(sums, mu, n, s, block, log_k):
    # > 0 where log Phi_{n b}(s) - log K - (b - 1) log Phi_n(s) > slack: the
    # quantified supermultiplicativity defect certifies P(s) > 0
    ub, _ = sums.get(mu, "held", s, n * block)
    if ub == -math.inf:
        return -math.inf
    _, u = sums.get(mu, "held", s, n)
    slack = _slack(mu, ub, n * block) + (block - 1) * _slack(mu, u, n) + _ROUNDING * abs(log_k)
    return ub - log_k - (block - 1) * u - slack


def _illinois(margin, fire, m_fire, miss, m_miss, tol):
    """(last firing point, fires) of a safeguarded regula falsi on margin.

    ``fire`` is where the test fires (m_fire > 0; None: an a priori end),
    ``miss`` where it does not; each probe replaces the end on its side
    until they are within tol.  The Illinois rule halves the margin of an
    end kept twice in a row; probes lie tol/2 or more inside the ends, and a
    bracket that did not halve over two probes is bisected, so the walk
    takes O(log(width / tol)) probes whatever the margin's shape.  Where
    tol/2 is below the ends' float spacing the probe falls back to the
    midpoint, and the walk stops once the ends are adjacent floats.
    """
    fires, kept, widths = 0, 0, [math.inf, math.inf]  # kept: side moved last
    while (width := abs(miss - fire)) > tol:
        c = 0.5 * (fire + miss)
        if m_fire is not None and math.isfinite(m_fire - m_miss) and width <= 0.5 * widths[-2]:
            c = fire + (miss - fire) * (m_fire / (m_fire - m_miss))
        widths.append(width)
        c = min(max(c, min(fire, miss) + 0.5 * tol), max(fire, miss) - 0.5 * tol)
        if c in (fire, miss):  # tol is below the ends' float spacing
            c = 0.5 * (fire + miss)
            if c in (fire, miss):
                break
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


def _upper_end(sums, mu, n, lo, hi, tol):
    """(hi, fires): the lowest point of [lo, hi] where the upper test fires
    at length n, to within tol."""
    m_hi = _upper_margin(sums, mu, n, hi)
    if not m_hi > 0.0:
        return hi, 0  # the margin increases with s, so nothing below fires
    m_lo = _upper_margin(sums, mu, n, lo)
    if m_lo > 0.0:
        if lo > 0.0:
            raise InvertedIntervalError(f"upper test fires at the certified lower end {lo!r}")
        return lo, 1  # P(0) < 0: the dimension is 0
    return _illinois(lambda s: _upper_margin(sums, mu, n, s), hi, m_hi, lo, m_lo, tol)


def _lower_end(sums, mu, n, lo, hi, tol, lifts):
    """(lo, fires): the highest point of [lo, hi] found where the lower test
    fires at length n.

    Where the product-inequality constant is explicit in s (s <= 1 with
    block d, and 1 < s < 2 for d = 2) the test is walked continuously, to
    within tol.  For d >= 3 above 1 only the ``lifts`` (_lift_rows)
    have a constant: the largest that fires wins.
    """
    d = mu.dimension
    for t, params in lifts:
        if (lo < t < hi and sums.feasible(mu, n * params[0])
                and _lower_margin(sums, mu, n, float(t), *params) > 0.0):
            return float(t), 1
    top = hi if d <= 2 else min(hi, 1.0)
    if top <= lo or not sums.feasible(mu, n * d):
        return lo, 0

    def margin(s):
        return _lower_margin(sums, mu, n, s, *_route(d, s)[:2])

    m_top = margin(top)
    if m_top > 0.0:
        if top == hi:
            raise InvertedIntervalError(f"lower test fires at the certified upper end {hi!r}")
        return top, 1
    m_lo = margin(lo) if lo > 0.0 else None  # no constant at s = 0
    if m_lo is not None and not m_lo > 0.0:
        return lo, 0
    return _illinois(margin, lo, m_lo, top, m_top, tol)


def affinity_dimension(mu, eps, budget=None, workers=None):
    """Certified interval of width <= eps around the affinity dimension.

    Requires every atom's operator norm strictly below 1 (this makes the
    pressure strictly decreasing where finite, so one-sided tests localize
    the crossing).  Dispatches to the determinant branch when
    meets_ambient_dimension holds, then to the triangular branch when one
    coordinate order makes every atom upper triangular (both walk each end
    on a closed form, to within min(eps, 1e-9) / 4); otherwise sweeps word
    lengths n = 1, 2, ... once (_sweep), moving the upper end of [0, d]
    down and the lower end up by a safeguarded regula falsi on the tests'
    margins.  Each length is enumerated once: later probes there read the
    side of its slope sketch's bounds that keeps their test conservative.
    Every endpoint is a point where its test fired, so the interval is a
    valid containment even on budget exhaustion.  Raises
    InvertedIntervalError if a test fires at or beyond the opposite end.
    """
    _validate_mu(mu)
    eps = _validate_eps(eps)
    _engine.check_workers(workers)
    if budget is None:
        budget = WordBudget()
    worst = max(linalg.operator_norm(m) for m in mu._mats)
    if not (worst < 1.0):
        raise InvalidInputError(
            f"affinity dimension needs every operator norm < 1, got {worst:.6g}"
        )
    t0 = time.monotonic()

    tol = min(eps, 1e-9)
    excess, dets = _det_excess(mu)
    if excess >= 0:
        lo, hi, steps = _det_root(mu, excess, dets, tol / 4.0)
        branch = "determinant"
    elif (diag := pressure._triangular_diagonals(mu._mats)) is not None:
        form = pressure._TriangularForm(mu._weights, diag)
        lo, hi, steps = _closed_form_root(
            lambda s: form.bounds(s, int(s)), 0.0, float(mu.dimension), tol / 4.0,
            kinks=[float(k) for k in range(1, mu.dimension)])
        branch = "triangular"
    else:
        return _sweep(mu, eps, budget, workers)
    status = "certified" if hi - lo <= eps else "budget_exhausted"
    return AffinityResult((lo, hi), branch, steps, status, ((lo, hi),), 0, time.monotonic() - t0)


def _sweep(mu, eps, budget, workers):
    """The interval-refinement route of affinity_dimension, on any family.

    Step n walks the upper end at length n, then the lower end (whose test
    reads lengths n and n b), then the upper end again at the longest
    length the run holds, from its sketch or held level, enumerating
    nothing.  An upper test at a length at or below one already walked is
    skipped: the longer length's test is the tighter in practice, and a
    skipped test costs no soundness.  One pressure._Sums holds the run's
    held sums, sketches, clock and word count.
    """
    t0 = time.monotonic()
    sums = pressure._Sums(budget, workers)
    tol = eps / 64.0
    lo, hi = 0.0, float(mu.dimension)
    steps, history, n, walked = 0, [], 1, 0
    lifts = _lift_rows(mu.dimension)
    try:
        while hi - lo > eps and sums.feasible(mu, n):
            sums.clock.check()
            if n > walked:
                hi, fires = _upper_end(sums, mu, n, lo, hi, tol)
                steps += fires
            if hi - lo > eps:
                lo, fires = _lower_end(sums, mu, n, lo, hi, tol, lifts)
                steps += fires
            longest = max(key[3] for key in sums.store)
            if hi - lo > eps and longest > max(n, walked):
                hi, fires = _upper_end(sums, mu, longest, lo, hi, tol)
                steps += fires
                walked = longest
            history.append((lo, hi))
            n += 1
    except BudgetExhaustedError:
        history.append((lo, hi))
    status = "certified" if hi - lo <= eps else "budget_exhausted"
    return AffinityResult((lo, hi), "trisection", steps, status,
                          tuple(history), sums.words, time.monotonic() - t0)
