"""Certified brackets for the singular-value pressure P(mu, s).

P is defined like the norm pressure but with the singular-value function
phi^s in place of ||.||^s.  The bracketing routes depend on (d, s):

* s >= d: phi^s = |det|^(s/d) is multiplicative, so P equals the one-step
  value log sum w_i |det A_i|^(s/d), widened by its rounding radius
  (determinant branch);
* s <= 1: phi^s = ||.||^s, so the norm-pressure machinery applies verbatim;
* triangular families (one coordinate order makes every atom upper
  triangular), 1 < s < d: P is the closed form of pressure._TriangularForm
  in the diagonal entries, with no enumeration, rational s or not;
* d = 2, 1 < s < 2: a planar product inequality with the piecewise constant
  planar_constant(s) plays the role the norm inequality plays for M.  It is
  proved by passing to the determinant-tilted companion measure (weights
  w_i |det A_i|^(s-1)), for which phi^s sums become norm sums;
* d >= 3, s exactly a rational k + p/q in (1, d) with q <= 6 whose lifted
  dimension d' is at most 256: the exterior/Kronecker lift of linalg.lift
  turns phi^s sums into norm sums in dimension d', giving a product
  inequality with explicit constant (lift route);
* d >= 3, every other s (irrational, a denominator above 6, or a lift
  above the cap): the upper end at s; the lower end at the lift rational
  s+ >= s of least block among those whose block fits the budget, the
  least such s+ on a tie (else the determinant closed form at s+ = d),
  after rescaling atoms into the unit ball, where phi-monotonicity in s
  makes the transfer sound.

The norm, planar and lift rows live in one route table, _route, whose lift
rows _lift_rows lists; affinity's lower test reads them too, and every
bracket that enumerates runs pressure's one sandwich.
"""

import functools
import math
import numbers
import time
import types
from fractions import Fraction

import numpy as np

from . import _engine, linalg, pressure
from .errors import BudgetExhaustedError, InvalidInputError
from .measure import WordBudget, scale_measure, restrict_invertible
from .pressure import log_norm_constant

__all__ = [
    "planar_constant",
    "log_planar_constant",
    "bracket",
    "continuity_at_one",
]

PROVENANCE_PLANAR = "planar-sv-bound"
PROVENANCE_LIFT = "lift-sv-bound"
PROVENANCE_DET = "determinant-branch"

CONTINUOUS = "continuous_at_1"
DISCONTINUOUS = "discontinuous_at_1"
INCONCLUSIVE = "inconclusive"

_Q_CAP = 6  # the largest denominator of a lift row


def planar_constant(s):
    """Constant of the 2D phi^s product inequality, piecewise in s.

    2^(3+2s) on (0,1], 2^(7-2s) on [1,2), 1 on [2,inf); both middle branches
    give 32 at s = 1.  The (1,2) branch mirrors the (0,1) branch through the
    determinant-tilted companion measure at exponent 2-s.
    """
    s = pressure._validate_s(s)
    if s <= 1.0:
        return 2.0 ** (3.0 + 2.0 * s)
    if s < 2.0:
        return 2.0 ** (7.0 - 2.0 * s)
    return 1.0


def log_planar_constant(s):
    return math.log(planar_constant(s))


@functools.cache
def _lift_rows(d):
    """{t: (d', log K)}, read-only, t descending: the lift rows of _route, one
    for each rational 1 < t < d with denominator q <= _Q_CAP whose lift fits
    linalg._DIM_CAP.  t = k + p/q in lowest terms lifts to
    d' = C(d, k)^(q - p) C(d, k + 1)^p (linalg.lift), with the constant
    K = d'^(2 + (d' + 1)/q) (d' + 1)^((q - 1)/q) of its product inequality.
    Empty for d <= 2, where the planar constant is explicit in t.
    """
    rows = []
    for q in range(1, _Q_CAP + 1) if d >= 3 else ():
        for a in range(q + 1, d * q):
            k, p = divmod(a, q)
            d_prime = math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p
            if math.gcd(a, q) == 1 and d_prime <= linalg._DIM_CAP:
                log_k = (2.0 + (d_prime + 1) / q) * math.log(d_prime) + (
                    (q - 1) / q) * math.log(d_prime + 1)
                rows.append((Fraction(a, q), (d_prime, log_k)))
    return types.MappingProxyType(dict(sorted(rows, reverse=True)))


def _route(d, s):
    """(block b, log K, provenance) of the product inequality at 0 < s < d:
    norm for s <= 1, planar for d = 2, else the _lift_rows row at s taken as
    an exact Fraction, or None where s has no row.
    """
    if s <= 1:
        return d, log_norm_constant(d, float(s)), pressure.PROVENANCE_NORM
    if d == 2:
        return 2, log_planar_constant(float(s)), PROVENANCE_PLANAR
    t = Fraction(s) if isinstance(s, numbers.Rational) else Fraction(float(s))
    row = _lift_rows(d).get(t)
    return None if row is None else (*row, PROVENANCE_LIFT)


def _det_bounds(mu, s):
    """(lower, upper) around P(mu, s) = log sum w_i |det A_i|^(s/d), s >= d
    (phi^s is multiplicative there, so the one-step sum is exact): the
    closed form of pressure._TriangularForm on the 1x1 family of the
    |det A_i| at exponent s/d, widened by its rounding radius as affinity's
    determinant root is; None where a term overflows.  The determinants are
    taken as computed.
    """
    dets = np.array([[abs(linalg._det(m))] for m in mu._mats])
    return pressure._TriangularForm(mu._weights, dets).bounds(s / mu.dimension, 0)


def bracket(mu, s, eps, budget=None, workers=None):
    """Certified bracket for P(mu,s) to width < eps, routed by (d, s).

    ``s`` may be a float, int, or Fraction; for d >= 3 an s that is exactly
    a lift row of _lift_rows takes the lift route, and every other s the
    irrational route.  Statuses follow pressure.bracket; provenance records
    which inequality produced the lower bound.  Below d, a family that one
    coordinate order makes upper triangular gets the closed form of
    pressure._TriangularForm instead, for any s (provenance "triangular").
    """
    pressure._validate_mu(mu)
    s_float = pressure._validate_s(s)
    eps = pressure._validate_eps(eps)
    _engine.check_workers(workers)
    if budget is None:
        budget = WordBudget()
    d = mu.dimension

    if s_float >= d:
        t0 = time.monotonic()
        res = pressure._closed_form_bracket(mu, _det_bounds(mu, s_float), eps, t0, PROVENANCE_DET)
        if res is None:
            raise InvalidInputError(f"the determinant pressure at s={s_float} overflows")
        return res

    if s_float <= 1.0:
        # phi^s = ||.||^s below exponent 1, so P = M with the same brackets
        return pressure.bracket(mu, s_float, eps, budget=budget, workers=workers)
    triangular = pressure._triangular_bracket(mu, s_float, int(s_float), eps)
    if triangular is not None:
        return triangular

    row = _route(d, s)
    if row is None:
        return _bracket_irrational(mu, s_float, eps, budget, workers)
    block, log_k, provenance = row
    return pressure._bracket(mu, "phi", s_float, block, log_k, eps, budget, workers, provenance)


def _bracket_irrational(mu, s, eps, budget, workers):
    # Upper bounds need nothing special.  Lower bounds transfer from a lift
    # row s+ >= s whose block fits the budget, else from s+ = d, after
    # scaling atoms into the unit ball where phi-monotonicity in the
    # exponent holds; the scaling shifts P by exactly s*log(c), which the
    # lower end undoes.  Any such s+ is sound; the row of least block d'
    # runs the most lower steps under the budget, and the least s+ breaks
    # ties.
    d = mu.dimension
    max_norm = max(linalg.operator_norm(m) for m in mu._mats)
    if max_norm > 1.0:
        c = 1.0 / max_norm
        mu_c = scale_measure(mu, c)
    else:
        c = 1.0
        mu_c = mu
    shift = s * math.log(c)  # P(mu_c, t) = P(mu, t) + t*log(c)
    rows = [(t, row) for t, row in _lift_rows(d).items()
            if t >= s and _engine.feasible(budget, row[0], mu.n_atoms)]
    # at s+ = d the determinant closed form is a lower end known up front
    # (mu_c's |det| <= 1, so nothing overflows)
    s_plus, (block, log_k) = min(rows, key=lambda row: (row[1][0], row[0]),
                                 default=(d, (None, None)))
    lower = -math.inf if rows else _det_bounds(mu_c, float(d))[0] - shift
    return pressure._bracket(mu, "phi", s, block, log_k, eps, budget, workers,
                             PROVENANCE_LIFT, (mu_c, float(s_plus), shift), lower)


def continuity_at_one(mu, eps, budget=None, workers=None):
    """2D diagnostic for the jump of P(., 1) against the invertible part.

    P on 2x2 measures is discontinuous at (mu, 1) exactly when
    P(mu, 1) > P(mu0, 1), mu0 being the restriction of mu to its invertible
    atoms.  Returns "discontinuous_at_1" when the mu-bracket certifies
    strictly above the mu0-bracket, "continuous_at_1" when both pressures
    provably sit in one interval of width < eps, "inconclusive" on budget
    exhaustion.  An empty invertible part counts as P(mu0, 1) = -inf.
    """
    pressure._validate_mu(mu)
    if mu.dimension != 2:
        raise InvalidInputError("the continuity diagnostic is 2D only")
    eps = pressure._validate_eps(eps)
    _engine.check_workers(workers)
    if budget is None:
        budget = WordBudget()
    mu0 = restrict_invertible(mu)
    sums = pressure._Sums(budget, workers)
    try:
        if mu0 is None:
            # P(mu0,1) = -inf: the jump exists unless P(mu,1) = -inf as well,
            # which holds exactly when every length-d product vanishes
            if sums.get(mu, "norm", 1.0, 2) == -math.inf:
                return CONTINUOUS
            return DISCONTINUOUS
        log_k = log_norm_constant(2, 1.0)
        # mu0 has no more atoms than mu, so mu's sweep is the one that stops
        sweeps = [pressure._sandwich(m, "norm", 1.0, 2, log_k, sums) for m in (mu, mu0)]
        for (_, lo_mu, up_mu, _), (_, lo_0, up_0, _) in zip(*sweeps):
            if lo_mu > up_0:
                return DISCONTINUOUS
            if max(up_mu, up_0) - min(lo_mu, lo_0) < eps:
                return CONTINUOUS
    except BudgetExhaustedError:
        pass
    return INCONCLUSIVE
