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
  proved by passing to the determinant-tilted companion measure
  (see measure.hat_measure_2d), for which phi^s sums become norm sums;
* d >= 3, rational s = k + p/q in (1, d): the exterior/Kronecker lift of
  linalg.lift turns phi^s sums into norm sums in dimension d', giving a
  product inequality with explicit constant (lift route);
* d >= 3, irrational s: the upper end at s; the lower end at the least
  lift rational s+ >= s whose block fits the budget (else the determinant
  closed form at s+ = d) after rescaling atoms into the unit ball, where
  phi-monotonicity in s makes the transfer sound.

The norm, planar and lift rows live in one route table, _route, whose lift
rows _lift_candidates lists; affinity's lower test reads them too, and every
bracket that enumerates runs pressure's one sandwich.
"""

import math
import numbers
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _engine, linalg, pressure
from .errors import BudgetExhaustedError, DimensionCapError, InvalidInputError
from .measure import WordBudget, scale_measure, restrict_invertible
from .pressure import log_norm_constant

__all__ = [
    "LiftSpec",
    "planar_constant",
    "log_planar_constant",
    "lift_params",
    "det_pressure",
    "bracket",
    "continuity_at_one",
]

PROVENANCE_PLANAR = "planar-sv-bound"
PROVENANCE_LIFT = "lift-sv-bound"
PROVENANCE_DET = "determinant-branch"

CONTINUOUS = "continuous_at_1"
DISCONTINUOUS = "discontinuous_at_1"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LiftSpec:
    """Parameters of the lift route at rational s = k + p/q (lowest terms).

    d_prime is the lifted ambient dimension C(d,k)^(q-p) * C(d,k+1)^p and
    log_constant the log of the product-inequality constant
    K = d'^(2 + (d'+1)/q) * (d'+1)^((q-1)/q).
    """

    k: int
    p: int
    q: int
    d_prime: int
    log_constant: float

    @property
    def constant(self):
        try:
            return math.exp(self.log_constant)
        except OverflowError:
            return math.inf


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


def _exact_fraction(s, q_cap):
    """s as an exact Fraction with denominator <= q_cap, else None."""
    if isinstance(s, numbers.Rational):  # int, Fraction, numpy integers
        frac = Fraction(int(s.numerator), int(s.denominator))
    elif isinstance(s, float):
        if not math.isfinite(s):
            return None
        frac = Fraction(s).limit_denominator(q_cap)
        if frac != Fraction(s):
            return None
    else:
        return None
    return frac if frac.denominator <= q_cap else None


def _validate_q_cap(q_cap):
    if not (isinstance(q_cap, numbers.Integral) and not isinstance(q_cap, bool) and q_cap >= 1):
        raise InvalidInputError(f"q_cap must be an integer >= 1, got {q_cap!r}")


def lift_params(d, s, q_cap=6):
    """LiftSpec for rational s = k + p/q with 0 < k < d.

    ``s`` may be a Fraction, an integer, or a float that is exactly a
    rational with denominator <= q_cap (pass a Fraction for thirds etc.).
    Raises DimensionCapError when d' would exceed linalg._DIM_CAP (256), and
    InvalidInputError for s outside [1, d) or denominators above q_cap.
    """
    _validate_q_cap(q_cap)
    if not (isinstance(d, int) and d >= 2):
        raise InvalidInputError(f"lift route needs integer dimension d >= 2, got {d}")
    frac = _exact_fraction(s, q_cap)
    if frac is None:
        raise InvalidInputError(
            f"s={s!r} is not an exact rational with denominator <= {q_cap}"
        )
    if not (1 <= frac < d):
        raise InvalidInputError(
            f"lift route needs 1 <= s < d (so that 0 < floor(s) < d), got s={frac}"
        )
    k = int(frac)
    rem = frac - k
    p, q = rem.numerator, rem.denominator
    d_prime = math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p
    if d_prime > linalg._DIM_CAP:
        raise DimensionCapError(
            f"lifted dimension {d_prime} exceeds cap {linalg._DIM_CAP} for d={d}, s={frac}"
        )
    log_constant = (2.0 + (d_prime + 1) / q) * math.log(d_prime) + (
        (q - 1) / q
    ) * math.log(d_prime + 1)
    return LiftSpec(k=k, p=p, q=q, d_prime=d_prime, log_constant=log_constant)


def _route(d, s, q_cap):
    """(block b, log K, provenance) of the product inequality at 0 < s < d:
    norm for s <= 1, planar for d = 2, else the lift (raises where none exists).
    """
    if s <= 1:
        return d, log_norm_constant(d, float(s)), pressure.PROVENANCE_NORM
    if d == 2:
        return 2, log_planar_constant(float(s)), PROVENANCE_PLANAR
    spec = lift_params(d, s, q_cap=q_cap)
    return spec.d_prime, spec.log_constant, PROVENANCE_LIFT


def _lift_candidates(d, q_cap):
    """[(t, (block length multiplier, log constant))] of the lift rows of
    _route: each rational 1 < t < d with denominator <= q_cap, t descending.

    t = k + p/q lifts to d' = C(d, k)^(q - p) C(d, k + 1)^p (lift_params),
    so only the (k, p, q) with d' <= linalg._DIM_CAP are enumerated: for
    d = 3, 2 + (q - j)/q with j <= 5 at every q, and 1 + p/q with q <= 5.
    Empty for d <= 2, where the planar constant is explicit in t.
    """
    out = []
    for k in range(1, d) if d >= 3 else ():
        a, b = math.comb(d, k), math.comb(d, k + 1)
        j = 1  # q - p
        while a**j <= linalg._DIM_CAP:
            p = 0
            while p + j <= q_cap and a**j * b**p <= linalg._DIM_CAP:
                if math.gcd(p, p + j) == 1 and (k, p) != (1, 0):
                    t = Fraction(k * (p + j) + p, p + j)
                    out.append((t, _route(d, t, q_cap)[:2]))
                p += 1
            j += 1
    return sorted(out, reverse=True)


def det_pressure(mu, s):
    """Exact pressure log sum w_i |det A_i|^(s/d) for s >= d.

    phi^s is multiplicative there, so the one-step sum already equals P.
    Returns -inf when every atom is singular.
    """
    pressure._validate_mu(mu)
    s = float(s)
    d = mu.dimension
    if not (s >= d):
        raise InvalidInputError(f"det_pressure needs s >= d = {d}, got {s}")
    ratio = s / d
    best = -math.inf
    vals = []
    for w, m in zip(mu._weights, mu._mats):
        det = abs(linalg._det(m))
        v = -math.inf if det == 0.0 else math.log(w) + ratio * math.log(det)
        vals.append(v)
        best = max(best, v)
    if best == -math.inf:
        return -math.inf
    return best + math.log(sum(math.exp(v - best) for v in vals))


def _det_bounds(mu, s):
    """(lower, upper) around det_pressure(mu, s), s >= d: the closed form of
    pressure._TriangularForm on the 1x1 family of the |det A_i| at exponent
    s/d, widened by its rounding radius as affinity's determinant root is;
    None where a term overflows.  The determinants are taken as computed.
    """
    dets = np.array([[abs(linalg._det(m))] for m in mu._mats])
    return pressure._TriangularForm(mu._weights, dets).bounds(s / mu.dimension, 0)


def bracket(mu, s, eps, budget=None, q_cap=6, workers=None):
    """Certified bracket for P(mu,s) to width < eps, routed by (d, s).

    ``s`` may be a float, int, or Fraction; exact rationals unlock the lift
    route for d >= 3.  Statuses follow pressure.bracket; provenance records
    which inequality produced the lower bound.  Below d, a family that one
    coordinate order makes upper triangular gets the closed form of
    pressure._TriangularForm instead, for any s (provenance "triangular").
    """
    pressure._validate_mu(mu)
    s_float = pressure._validate_s(s)
    eps = pressure._validate_eps(eps)
    _engine.check_workers(workers)
    _validate_q_cap(q_cap)
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

    s_exact = s_float if d == 2 else _exact_fraction(s, q_cap)
    if s_exact is None:
        return _bracket_irrational(mu, s_float, eps, budget, q_cap, workers)
    block, log_k, provenance = _route(d, s_exact, q_cap)
    return pressure._bracket(
        mu, "phi", float(s_exact), block, log_k, eps, budget, workers, provenance
    )


def _bracket_irrational(mu, s, eps, budget, q_cap, workers):
    # Upper bounds need nothing special.  Lower bounds transfer from the
    # least rational s+ >= s among the lift rows whose block fits the
    # budget, else from s+ = d, after scaling atoms into the unit ball where
    # phi-monotonicity in the exponent holds; the scaling shifts P by
    # exactly s*log(c), which the lower end undoes.
    d = mu.dimension
    max_norm = max(linalg.operator_norm(m) for m in mu._mats)
    if max_norm > 1.0:
        c = 1.0 / max_norm
        mu_c = scale_measure(mu, c)
    else:
        c = 1.0
        mu_c = mu
    shift = s * math.log(c)  # P(mu_c, t) = P(mu, t) + t*log(c)
    rows = [(t, row) for t, row in _lift_candidates(d, q_cap)
            if t >= s and _engine.feasible(budget, row[0], mu.n_atoms)]
    # rows descend, so the last is the least; at s+ = d the determinant
    # closed form is a lower end known up front (mu_c's |det| <= 1, so
    # nothing overflows)
    s_plus, (block, log_k) = rows[-1] if rows else (d, (None, None))
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
        for (_, lo_mu, up_mu), (_, lo_0, up_0) in zip(*sweeps):
            if lo_mu > up_0:
                return DISCONTINUOUS
            if max(up_mu, up_0) - min(lo_mu, lo_0) < eps:
                return CONTINUOUS
    except BudgetExhaustedError:
        pass
    return INCONCLUSIVE
