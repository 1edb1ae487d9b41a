"""Certified bracketing of the affinity dimension.

For a contractive tuple of matrices the affinity dimension is the
zero-crossing exponent inf{s > 0 : P(mu, s) < 0} of the singular-value
pressure.  Two finite-step certification routes exist:

* determinant branch: when sum w_i |det A_i| >= 1 the crossing happens at
  s >= d, where P equals the exact one-step determinant pressure and the
  defining equation is solved by bisecting a strictly decreasing function;
* interval refinement: otherwise the crossing lies in [0, d] and is
  squeezed by one-sided tests at interior probe exponents t: an upper test
  (some phi^t power sum drops below 1, certifying P(t) < 0, so the
  dimension is at most t) and a lower test (a quantified
  supermultiplicativity defect certifies P(t) > 0, so it is at least t).

Both tests are sound at every word length; only their firing time is
unbounded (it blows up as P(t) approaches 0), so budget_exhausted is a
legitimate outcome for tight tolerances, not a defect.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import _engine, linalg
from .errors import BudgetExhaustedError, DimensionCapError, InvalidInputError
from .measure import FiniteMatrixMeasure, WordBudget
from .pressure import log_norm_constant
from .svpressure import det_pressure, lift_params, log_planar_constant

__all__ = [
    "AffinityResult",
    "meets_ambient_dimension",
    "solve_determinant_dimension",
    "trisect_step",
    "affinity_dimension",
]

# Probe placement within the current interval, one round of refinement.
# Dense near the edges so one-sided fires can trim hard; 1/3 and 2/3 keep
# the classical trisection points in play.
_GRID = (
    Fraction(1, 32),
    Fraction(1, 16),
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(7, 8),
    Fraction(15, 16),
    Fraction(31, 32),
)

_MAX_ROUNDS = 256


@dataclass(frozen=True)
class AffinityResult:
    """Outcome of an affinity-dimension run.

    interval always contains the affinity dimension (up to floating
    arithmetic in the evaluated power sums); certified additionally means
    its width is at most the requested eps.  steps counts interval
    refinements (bisection halvings or probe-test fires), history the
    interval after each completed refinement round.  words_evaluated sums
    the nominal word count N^n of every power-sum pass at length n, passes
    answered from a held log-sigma table included, so it does not fall
    when a table saves the enumeration.
    """

    interval: tuple
    branch: str  # "trisection" | "determinant"
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
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("expected a FiniteMatrixMeasure")
    total = math.fsum(
        w * abs(linalg._det(m)) for w, m in zip(mu._weights, mu._mats)
    )
    return total >= 1.0


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
    # loop invariant: pressure >= 0 at d + width/2 (or at d when width == 1)
    lo, hi = (d + width / 2.0 if width > 1.0 else float(d)), d + width
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution floor
            break
        if det_pressure(mu, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo, hi, steps


def solve_determinant_dimension(mu, tol=1e-9):
    """Root s >= d of sum w_i |det A_i|^(s/d) = 1, to absolute tolerance tol.

    Preconditions: every |det A_i| < 1 and meets_ambient_dimension(mu).
    """
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("expected a FiniteMatrixMeasure")
    tol = float(tol)
    if not (tol > 0.0):
        raise InvalidInputError(f"tol must be positive, got {tol}")
    lo, hi, _ = _det_bisect(mu, tol)
    return 0.5 * (lo + hi)


def _snap_rational(t, q_cap, slack):
    """Nearest fraction with denominator <= q_cap within slack of t, or None."""
    best = None
    for q in range(1, q_cap + 1):
        cand = Fraction(round(t * q), q)
        err = abs(cand - t)
        if err <= slack and (best is None or err < abs(best - t)):
            best = cand
    return best


def _lower_test_params(d, t, q_cap, dim_cap):
    """(block length multiplier, log constant) of the lower test at exponent t.

    Returns None when no product inequality is available at t (lift
    dimension above cap).  t is a Fraction strictly between 0 and d.
    """
    tf = float(t)
    if t <= 1:
        return d, log_norm_constant(d, tf)
    if d == 2:
        return 2, log_planar_constant(tf)
    try:
        spec = lift_params(d, t, q_cap=q_cap, dim_cap=dim_cap)
    except (InvalidInputError, DimensionCapError):
        return None
    return spec.d_prime, spec.log_constant


class _PhiCache:
    """Shared phi^t power-sum evaluations keyed by (exponent, word length).

    Batches all exponents needed at one length into one engine call.  The
    engine keeps each length's log-sigma table in ``tables``, so the words
    of a length are enumerated once per run however many rounds of probes
    reach it; the tables are freed with this object when the run returns.
    Nominal word counts accumulate per call, table hits included.
    """

    def __init__(self, mu, budget, clock, workers):
        self.mu = mu
        self.budget = budget
        self.clock = clock
        self.workers = workers
        self.vals = {}
        self.tables = {}
        self.words = 0

    def fetch(self, pairs):
        by_len = {}
        for tf, length in pairs:
            if (tf, length) not in self.vals:
                by_len.setdefault(length, set()).add(tf)
        for length in sorted(by_len):
            ts = sorted(by_len[length])
            out = _engine.weighted_sums(
                self.mu, length, "phi", ts, self.budget,
                clock=self.clock, workers=self.workers, tables=self.tables,
            )
            self.words += _engine.nominal_words(length, self.mu.n_atoms)
            for tf, v in zip(ts, out):
                self.vals[(tf, length)] = float(v)

    def get(self, tf, length):
        return self.vals[(tf, length)]


def _upper_fires(cache, tf, n):
    # power sum below 1 at any single length certifies P(t) < 0
    return cache.get(tf, n) < 0.0


def _lower_fires(cache, tf, n, d_t, log_m):
    # quantified supermultiplicativity: Phi_{n d_t} > M * Phi_n^(d_t - 1)
    # certifies P(t) > 0 at any single length
    phi_nd = cache.get(tf, n * d_t)
    if phi_nd == -math.inf:
        return False
    return phi_nd > log_m + (d_t - 1) * cache.get(tf, n)


def trisect_step(interval, mu, budget=None, q_cap=6, dim_cap=256, workers=1):
    """One classical refinement step on an interval containing the dimension.

    Probes the two interior third-points t1 < t2 of the interval (snapped
    to denominators <= q_cap for d >= 3 where the lift constant is needed,
    at most w/12 away).  At each word length n = 1, 2, ... the tests run in
    the order upper@t1, lower@t2, upper@t2, lower@t1; the first to fire
    returns the refined interval as a (Fraction, Fraction) pair — at most
    ~3/4 of the input width.  Returns None when the budget runs out before
    any test fires.
    """
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("expected a FiniteMatrixMeasure")
    if budget is None:
        budget = WordBudget()
    s1, s2 = (Fraction(x) for x in interval)
    if not (0 <= s1 < s2):
        raise InvalidInputError(f"need 0 <= s1 < s2, got [{s1}, {s2}]")
    d = mu.dimension
    width = s2 - s1
    t1 = s1 + width / 3
    t2 = s2 - width / 3
    if d >= 3:
        slack = width / 12
        snapped = []
        for t in (t1, t2):
            if 1 < t < d and t.denominator > q_cap:
                t = _snap_rational(t, q_cap, slack)
                if t is not None and not (s1 < t < s2):
                    t = None
            snapped.append(t)
        t1, t2 = snapped
    clock = _engine.RunClock(budget.wall_clock_cap)
    cache = _PhiCache(mu, budget, clock, workers)

    def tests_at(n):
        # (kind, t, extra) in firing-priority order; None entries dropped
        order = []
        for kind, t in (("upper", t1), ("lower", t2), ("upper", t2), ("lower", t1)):
            if t is None:
                continue
            if kind == "upper":
                if _engine.feasible(budget, n, mu.n_atoms):
                    order.append((kind, t, None))
            elif t >= d:
                if n == 1:  # exact one-step determinant pressure decides
                    order.append((kind, t, "det"))
            else:
                params = _lower_test_params(d, t, q_cap, dim_cap)
                if params is not None and _engine.feasible(budget, n * params[0], mu.n_atoms):
                    order.append((kind, t, params))
        return order

    n = 1
    try:
        while True:
            clock.check()
            order = tests_at(n)
            if not order:
                return None
            needed = []
            for kind, t, extra in order:
                if kind == "upper":
                    needed.append((float(t), n))
                elif extra != "det":
                    needed.append((float(t), n))
                    needed.append((float(t), n * extra[0]))
            cache.fetch(needed)
            for kind, t, extra in order:
                tf = float(t)
                if kind == "upper":
                    if _upper_fires(cache, tf, n):
                        return (s1, t)
                elif extra == "det":
                    if det_pressure(mu, tf) > 0.0:
                        return (t, s2)
                else:
                    if _lower_fires(cache, tf, n, extra[0], extra[1]):
                        return (t, s2)
            n += 1
    except BudgetExhaustedError:
        return None


def affinity_dimension(mu, eps, budget=None, q_cap=6, dim_cap=256, workers=1):
    """Certified interval of width <= eps around the affinity dimension.

    Requires every atom's operator norm strictly below 1 (this makes the
    pressure strictly decreasing where finite, so one-sided tests localize
    the crossing).  Dispatches to the determinant branch when
    meets_ambient_dimension holds; otherwise refines [0, d] in rounds,
    testing a grid of interior probes at growing word lengths and keeping
    every fire.  Rounds re-probe the surviving interval, so the returned
    interval is always a valid containment even on budget exhaustion.
    """
    if not isinstance(mu, FiniteMatrixMeasure):
        raise InvalidInputError("expected a FiniteMatrixMeasure")
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
        return AffinityResult(
            (lo, hi), "determinant", steps, "certified",
            ((lo, hi),), 0, time.monotonic() - t0,
        )

    d = mu.dimension
    clock = _engine.RunClock(budget.wall_clock_cap)
    cache = _PhiCache(mu, budget, clock, workers)
    lo, hi = Fraction(0), Fraction(d)
    steps = 0
    history = []
    status = "budget_exhausted"
    try:
        for _ in range(_MAX_ROUNDS):
            width = hi - lo
            if float(width) <= eps:
                status = "certified"
                break
            target = max(eps, 0.75 * float(width))
            probes = []
            for f in _GRID:
                t = lo + f * width
                if d >= 3 and 1 < t < d and t.denominator > q_cap:
                    t = _snap_rational(t, q_cap, width / 12)
                if t is None or not (lo < t < hi):
                    continue
                if t not in probes:
                    probes.append(t)
            probes.sort()
            live = []
            for t in probes:
                params = _lower_test_params(d, t, q_cap, dim_cap) if t < d else None
                live.append((t, float(t), params))
            fired = False
            n = 1
            while live and _engine.feasible(budget, n, mu.n_atoms):
                clock.check()
                needed = [(tf, n) for _, tf, _ in live]
                for _, tf, params in live:
                    if params is not None and _engine.feasible(
                        budget, n * params[0], mu.n_atoms
                    ):
                        needed.append((tf, n * params[0]))
                cache.fetch(needed)
                for t, tf, params in live:
                    if lo < t < hi and _upper_fires(cache, tf, n):
                        hi = t
                        steps += 1
                        fired = True
                for t, tf, params in live:
                    if (
                        lo < t < hi
                        and params is not None
                        and _engine.feasible(budget, n * params[0], mu.n_atoms)
                        and _lower_fires(cache, tf, n, params[0], params[1])
                    ):
                        lo = t
                        steps += 1
                        fired = True
                live = [rec for rec in live if lo < rec[0] < hi]
                if float(hi - lo) <= target:
                    break
                n += 1
            history.append((float(lo), float(hi)))
            if float(hi - lo) <= eps:
                status = "certified"
                break
            if not fired:
                break  # a full sweep to the feasibility limit moved nothing
    except BudgetExhaustedError:
        history.append((float(lo), float(hi)))
    return AffinityResult(
        (float(lo), float(hi)), "trisection", steps, status,
        tuple(history), cache.words, time.monotonic() - t0,
    )
