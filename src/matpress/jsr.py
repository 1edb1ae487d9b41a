"""Joint spectral radius brackets and the zero-temperature scan.

jsr_bracket runs pressure's one sandwich (pressure._sandwich) over
word-norm maxima, values only (no maximizing word is kept), each length
evaluated and counted once.  Upper bounds: max ||A_w||^(1/m) over length-m
words is valid for every m, and each step offers m = n and n*d.  Lower
bounds come from the quantified gap between the maxima at lengths n*d and
n (constant d^(d+1), Bochi's inequality), optionally
sharpened by the classical spectral-radius floor max rho(A_w)^(1/n) —
standard theory rather than a power-sum inequality, so it carries its own
provenance tag.  The floor reads the levels that the norm maxima read, so
each is built once a call.  Atoms equal under == are enumerated once, and
words and floor products that a norm bound rules out are not evaluated
(the results' bits are those of evaluating them).  A family that one
coordinate order makes upper triangular has the exact radius max |a_i,jj|
(Jungers, The Joint Spectral Radius, 2009, Prop. 1.5), returned without
enumeration.  The zero-temperature scan returns norm-pressure brackets
along growing exponents s; mapped through x -> exp(x/s), their s -> inf
limit is the joint spectral radius.
"""

import math
import time

import numpy as np

from . import _engine, pressure
from .errors import BudgetExhaustedError, InvalidInputError
from .measure import FiniteMatrixMeasure, WordBudget
from .pressure import PressureBracket

__all__ = [
    "jsr_bracket",
    "zero_temperature_scan",
]

PROVENANCE_BOCHI = "bochi-lower-bound"
PROVENANCE_FLOOR = "spectral-floor"


def _coerce_set(source):
    # (the distinct atoms as a fresh unit-weight measure, the nominal atom
    # count, which budgets meter).  Never the caller's own measure: the
    # JSR's undeduplicated level cache (see _engine.max_norm_word), cached
    # on a measure the caller keeps, raised dense3's peak RSS from 64.0 to
    # 69.9 MB; on a copy it dies with the call.  The input is validated
    # first; then atoms equal under == are kept once (+ 0.0 maps -0.0 to
    # 0.0, so equal matrices have equal bytes): a word's norm is that of any
    # word naming the same matrices, so (A, A, B) enumerates 2^n products,
    # not 3^n.
    mats = source.matrices if isinstance(source, FiniteMatrixMeasure) else source
    full = FiniteMatrixMeasure.from_matrices(mats)
    first = {}
    for i, m in enumerate(full._mats):
        first.setdefault((m + 0.0).tobytes(), i)
    if len(first) == full.n_atoms:
        return full, full.n_atoms
    return FiniteMatrixMeasure.from_matrices(full._mats[list(first.values())]), full.n_atoms


_FLOOR_CAP = 4096  # the spectral floor's words: each len with n_atoms^len <= it
_FLOOR_DEPTH = 12  # and len <= this, which stops a one-atom alphabet


def _spectral_floor(mu, n_atoms):
    """max rho(A_w)^(1/len) over the words of _FLOOR_CAP's lengths whose
    level the engine caches.

    ``mu`` holds the distinct atoms of an n_atoms-letter alphabet.  The
    products are the rows of its undeduplicated levels, the ones
    _engine.max_norm_word reads: a mantissa times a power of two, so none
    over- or underflows.  eigvals runs on the mantissas and ldexp rescales
    each rho; a rho past the float range is skipped, and so are rows that
    cannot raise the floor: |lambda| <= sigma_1, and LAPACK's eigenvalues
    are those of a matrix within a few u ||A|| of A, so eigvals runs only
    where the level's cached log sigma_1 / len reaches the log of the floor
    so far less _PRUNE_LOG.
    """
    cache = _engine._cache_for(mu, dedup=False)
    best = 0.0
    for length in range(1, _FLOOR_DEPTH + 1):
        if n_atoms ** length > _FLOOR_CAP or cache.ensure(length) < length:
            break
        mants, exps = cache.levels[length][:2]
        if best > 0.0:
            lsig = cache.sigmas(length, top_only=True)[0]
            reach = lsig / length >= math.log(best) - _engine._PRUNE_LOG
            mants, exps = mants[reach], exps[reach]
        with np.errstate(over="ignore"):  # skipped below
            rho = np.ldexp(np.max(np.abs(np.linalg.eigvals(mants)), axis=1), exps)
        rho = float(np.max(rho, initial=0.0, where=rho < math.inf))
        if rho > 0.0:
            best = max(best, rho ** (1.0 / length))
    return best


def jsr_bracket(source, eps=None, budget=None, use_spectral_floor=True, workers=None):
    """Two-sided bracket on the joint spectral radius (linear scale).

    Sweeps n = 1, 2, ... while length n*d stays within budget (the upper
    end alone while length n does, where d never fits), keeping the best
    upper and lower bounds seen.  certified when the
    endpoints coincide exactly or the gap reaches eps (when given);
    budget_exhausted otherwise — the bracket is still valid.  provenance
    names the source of the final lower endpoint.  A triangular family (one
    coordinate order makes every matrix upper triangular) gets the exact
    [r, r], r = max |a_i,jj|, with provenance "triangular".  ``workers`` is
    validated like every entry point's, but the word-norm maxima never
    split (_engine.max_norm_word prunes on its running best), so the run
    opens no process whatever its value.
    """
    mu, n_atoms = _coerce_set(source)
    if budget is None:
        budget = WordBudget()
    if eps is not None and not (float(eps) > 0.0):
        raise InvalidInputError(f"eps must be positive when given, got {eps}")
    _engine.check_workers(workers)
    t0 = time.monotonic()
    diag = pressure._triangular_diagonals(mu._mats)
    if diag is None:
        return _sweep(mu, n_atoms, eps, budget, use_spectral_floor, workers)
    r = float(np.max(diag))  # abs and max round nothing
    return PressureBracket(r, r, 1, pressure._CERTIFIED, n_atoms, time.monotonic() - t0,
                           pressure.PROVENANCE_TRIANGULAR)


def _sweep(mu, n_atoms, eps, budget, use_spectral_floor, workers):
    """jsr_bracket's enumeration route, on the distinct atoms ``mu`` of an
    n_atoms-letter family (see _coerce_set), any family: the spectral floor
    (_spectral_floor), then pressure._sandwich on the largest word norms
    (kind "max") with block d and log K = (d + 1) log d, whose steps map
    through exp (pressure._exp_end); both read one set of levels.  The run's
    _Sums starts its clock, meters lengths and counts words at the nominal
    count, each length once."""
    t0 = time.monotonic()
    d = mu.dimension
    sums = pressure._Sums(budget, workers, n_atoms)
    lo, up, n_used, status, lo_from = 0.0, math.inf, 0, pressure._EXHAUSTED, PROVENANCE_BOCHI
    history = []
    if use_spectral_floor:
        floor = _spectral_floor(mu, n_atoms)
        if floor > lo:
            lo = floor
            lo_from = PROVENANCE_FLOOR
    try:
        for n_used, log_lo, log_up, _ in pressure._sandwich(
                mu, "max", 1.0, d, (d + 1) * math.log(d), sums):
            if log_up == -math.inf:
                # some power of the whole family vanished: radius is exactly 0
                lo, up, lo_from, status = 0.0, 0.0, PROVENANCE_BOCHI, pressure._CERTIFIED
                history.append((lo, up))
                break
            up, bochi = pressure._exp_end(log_up, True), pressure._exp_end(log_lo, False)
            if bochi > lo:
                lo, lo_from = bochi, PROVENANCE_BOCHI
            # eigenvalue round-off in the spectral floor can overshoot an
            # exact norm upper by a few ulps; keep lo <= up unconditionally
            lo = min(lo, up)
            history.append((lo, up))
            if up == lo or (eps is not None and up - lo <= float(eps)):
                status = pressure._CERTIFIED
                break
    except BudgetExhaustedError:
        pass
    return PressureBracket(lo, up, n_used, status, sums.words, time.monotonic() - t0,
                           lo_from, history=tuple(history))


_DEFAULT_SCAN_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def zero_temperature_scan(mu, s_list=None, eps=0.5, budget=None, workers=None):
    """(points, jsr): the norm-pressure bracket of each exponent of a
    growing grid as (s, bracket) pairs, each at tolerance eps, and a
    jsr_bracket of the support for comparison.

    Mapped through x -> exp(x/s) (pressure._exp_end on each end), the
    brackets converge as s grows to the joint spectral radius of the
    support from above (for unit-mass measures).  ``workers`` reaches the
    pressure brackets; the jsr_bracket runs in this process.
    """
    pressure._validate_mu(mu)
    if s_list is None:
        s_list = _DEFAULT_SCAN_GRID
    s_values = [float(s) for s in s_list]
    if not s_values:
        raise InvalidInputError("need at least one exponent to scan")
    if any(not (s > 0.0 and math.isfinite(s)) for s in s_values):
        raise InvalidInputError("scan exponents must be positive and finite")
    for a, b in zip(s_values, s_values[1:]):
        if not (a < b):
            raise InvalidInputError("scan exponents must be strictly increasing")
    if budget is None:
        budget = WordBudget()
    points = tuple((s, pressure.bracket(mu, s, eps, budget=budget, workers=workers))
                   for s in s_values)
    return points, jsr_bracket(mu, eps=None, budget=budget, workers=workers)
