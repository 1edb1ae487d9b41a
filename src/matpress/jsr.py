"""Joint spectral radius brackets and the zero-temperature scan.

jsr_bracket runs pressure's one sandwich (pressure._sandwich) over
word-norm maxima, values only (no maximizing word is kept), each length
evaluated and counted once.  Upper bounds: max ||A_w||^(1/m) over length-m
words is valid for every m, and each step offers m = n and n*d.  Lower
bounds come from the quantified gap between the maxima at lengths n*d and
n (constant d^(d+1), Bochi's inequality), optionally
sharpened by the classical spectral-radius floor max rho(A_w)^(1/n) —
standard theory rather than a power-sum inequality, so it carries its own
provenance tag.  Atoms equal under == are enumerated once, and words and
floor products that a norm bound rules out are not evaluated (the results'
bits are those of evaluating them).  A family that one coordinate order
makes upper triangular has the exact radius max |a_i,jj| (Jungers, The
Joint Spectral Radius, 2009, Prop. 1.5), returned without enumeration.  The
zero-temperature scan maps norm-pressure brackets through x -> exp(x/s),
whose s -> inf limit is the joint spectral radius.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _engine, pressure
from .errors import BudgetExhaustedError, InvalidInputError
from .measure import FiniteMatrixMeasure, WordBudget
from .pressure import PressureBracket

__all__ = [
    "jsr_bracket",
    "ScanPoint",
    "ScanResult",
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


# below this a sum of squares may have lost bits to underflow, so the norm
# bound of the spectral floor does not prune it
_SQ_LO = 2.0 ** -900

_FLOOR_CAP = 4096  # the spectral floor's words: each len with n_atoms^len <= it


def _spectral_floor(mats, cap, n_atoms):
    """max rho(A_w)^(1/len) over all words with n_atoms^len <= cap.

    ``mats`` are the distinct atoms of an n_atoms-letter alphabet.  Depth
    is additionally capped at log2(cap) so one-matrix alphabets terminate;
    non-finite products (overflow in a long power) are skipped, and so are
    products that cannot raise the floor: |lambda| <= ||A||_2 <= ||A||_F,
    and LAPACK's eigenvalues are those of a matrix within a few u ||A|| of
    A, so eigvals runs only where ||A_w||_F^(1/len) reaches the floor so far
    less _PRUNE_LOG in log.
    """
    atoms = np.stack(mats)
    d = atoms.shape[1]
    best = 0.0
    prods = np.eye(d)[None]
    length = 0
    depth_cap = max(1, int(math.log2(cap))) if cap >= 1 else 0
    while length < depth_cap and n_atoms ** (length + 1) <= cap:
        length += 1
        with np.errstate(over="ignore", invalid="ignore"):  # skipped below
            prods = np.matmul(prods[:, None], atoms[None]).reshape(-1, d, d)
        finite = prods[np.all(np.isfinite(prods), axis=(1, 2))]
        if best > 0.0:
            with np.errstate(over="ignore", divide="ignore"):
                sq = np.sum(finite * finite, axis=(1, 2))
                reach = 0.5 * np.log(sq) / length >= math.log(best) - _engine._PRUNE_LOG
            finite = finite[reach | (sq < _SQ_LO)]
        if len(finite) == 0:
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(finite))))
        if 0.0 < rho < math.inf:  # eigvals of a finite product may overflow
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
    [r, r], r = max |a_i,jj|, with provenance "triangular".
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
        return _sweep(mu, n_atoms, eps, budget, use_spectral_floor, _FLOOR_CAP, workers)
    r = float(np.max(diag))  # abs and max round nothing
    return PressureBracket(r, r, 1, pressure._CERTIFIED, n_atoms, time.monotonic() - t0,
                           pressure.PROVENANCE_TRIANGULAR)


def _sweep(mu, n_atoms, eps, budget, use_spectral_floor, floor_cap, workers):
    """jsr_bracket's enumeration route, on the distinct atoms ``mu`` of an
    n_atoms-letter family (see _coerce_set), any family: the spectral floor
    (_spectral_floor at cap floor_cap), then pressure._sandwich on the
    largest word norms (kind "max") with block d and log K = (d + 1) log d,
    whose steps map through exp (pressure._exp_end).  The run's _Sums starts
    its clock, meters lengths and counts words at the nominal count, each
    length once."""
    t0 = time.monotonic()
    d = mu.dimension
    sums = pressure._Sums(budget, workers, n_atoms)
    lo, up, n_used, status, lo_from = 0.0, math.inf, 0, pressure._EXHAUSTED, PROVENANCE_BOCHI
    if use_spectral_floor:
        floor = _spectral_floor(mu._mats, floor_cap, n_atoms)
        if floor > lo:
            lo = floor
            lo_from = PROVENANCE_FLOOR
    try:
        for n_used, log_lo, log_up in pressure._sandwich(
                mu, "max", 1.0, d, (d + 1) * math.log(d), sums):
            if log_up == -math.inf:
                # some power of the whole family vanished: radius is exactly 0
                lo, up, lo_from, status = 0.0, 0.0, PROVENANCE_BOCHI, pressure._CERTIFIED
                break
            up, bochi = pressure._exp_end(log_up, True), pressure._exp_end(log_lo, False)
            if bochi > lo:
                lo, lo_from = bochi, PROVENANCE_BOCHI
            # eigenvalue round-off in the spectral floor can overshoot an
            # exact norm upper by a few ulps; keep lo <= up unconditionally
            lo = min(lo, up)
            if up == lo or (eps is not None and up - lo <= float(eps)):
                status = pressure._CERTIFIED
                break
    except BudgetExhaustedError:
        pass
    return PressureBracket(
        lo, up, n_used, status, sums.words, time.monotonic() - t0, lo_from
    )


@dataclass(frozen=True)
class ScanPoint:
    """One scanned exponent: norm-pressure bracket and its exp(x/s) image."""

    s: float
    m_lower: float
    m_upper: float
    radius_lower: float
    radius_upper: float
    status: str
    n_used: int
    words_evaluated: int


@dataclass(frozen=True)
class ScanResult:
    points: tuple
    jsr: PressureBracket


_DEFAULT_SCAN_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def zero_temperature_scan(mu, s_list=None, eps=0.5, budget=None, workers=None):
    """Brackets of exp(M(mu,s)/s) along a grid of growing exponents.

    As s grows these converge to the joint spectral radius of the support
    from above (for unit-mass measures); the report carries a jsr_bracket
    of the support for comparison.  Each grid point gets its own
    norm-pressure bracket at tolerance eps, mapped through x -> exp(x/s);
    per-point statuses are preserved.
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
    points = []
    for s in s_values:
        br = pressure.bracket(mu, s, eps, budget=budget, workers=workers)
        radius_lower = pressure._exp_end(br.lower / s, False)
        radius_upper = pressure._exp_end(br.upper / s, True)
        points.append(
            ScanPoint(
                s, br.lower, br.upper, radius_lower, radius_upper,
                br.status, br.n_used, br.words_evaluated,
            )
        )
    support = jsr_bracket(mu, eps=None, budget=budget, workers=workers)
    return ScanResult(tuple(points), support)
