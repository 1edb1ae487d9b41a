"""The one sandwich loop against the loops it replaced.

pressure.bracket, the planar and lift routes of svpressure.bracket and
svpressure.continuity_at_one each used to run their own copy of the
sandwich with their own sum cache.  Those copies are kept below as plain
references: every result, and the sequence of power sums evaluated, must
match them bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import engine_norm_bracket
from matpress import _engine, pressure, svpressure
from matpress.errors import BudgetExhaustedError
from matpress.measure import FiniteMatrixMeasure, WordBudget, restrict_invertible


def _cached_sums(budget, clock):
    store, words = {}, [0]

    def get(mu, kind, s, n):
        key = (id(mu), kind, s, n)
        if key not in store:
            store[key] = float(_engine.weighted_sums(mu, n, kind, [s], budget, clock=clock)[0])
            words[0] += _engine.nominal_words(n, mu.n_atoms)
        return store[key]

    return get, words


def reference_norm(mu, s, eps, budget):
    clock = _engine.RunClock(budget.wall_clock_cap)
    get, words = _cached_sums(budget, clock)
    d = mu.dimension
    log_k = pressure.log_norm_constant(d, s)
    lo, up, n_used, status = -math.inf, math.inf, 0, "budget_exhausted"
    try:
        if get(mu, "norm", s, d) == -math.inf:
            return (-math.inf, -math.inf, d, "minus_infinity", words[0], "norm-power-bound")
        n = 1
        while _engine.feasible(budget, n * d, mu.n_atoms):
            clock.check()
            sn = get(mu, "norm", s, n)
            snd = get(mu, "norm", s, n * d)
            up = min(up, sn / n)
            if snd > -math.inf:
                lo = max(lo, (snd - log_k - (d - 1) * sn) / n)
            n_used = n
            if up - lo < eps:
                status = "certified"
                break
            n += 1
    except BudgetExhaustedError:
        pass
    return (lo, up, n_used, status, words[0], "norm-power-bound")


def reference_planar(mu, s, eps, budget):
    clock = _engine.RunClock(budget.wall_clock_cap)
    get, words = _cached_sums(budget, clock)
    log_kt = svpressure.log_planar_constant(s)
    lo, up, n_used, status = -math.inf, math.inf, 0, "budget_exhausted"
    try:
        if get(mu, "phi", s, 2) == -math.inf:
            return (-math.inf, -math.inf, 2, "minus_infinity", words[0], "planar-sv-bound")
        n = 1
        while _engine.feasible(budget, 2 * n, mu.n_atoms):
            clock.check()
            phi_n = get(mu, "phi", s, n)
            phi_2n = get(mu, "phi", s, 2 * n)
            up = min(up, phi_n / n)
            if phi_2n > -math.inf:
                lo = max(lo, (phi_2n - log_kt - phi_n) / n)
            n_used = n
            if up - lo < eps:
                status = "certified"
                break
            n += 1
    except BudgetExhaustedError:
        pass
    return (lo, up, n_used, status, words[0], "planar-sv-bound")


def reference_lift(mu, s, eps, budget):
    clock = _engine.RunClock(budget.wall_clock_cap)
    get, words = _cached_sums(budget, clock)
    spec = svpressure.lift_params(mu.dimension, s)
    s_val, dp = float(s), spec.d_prime
    lo, up, n_used, status = -math.inf, math.inf, 0, "budget_exhausted"
    try:
        if _engine.feasible(budget, dp, mu.n_atoms) and get(mu, "phi", s_val, dp) == -math.inf:
            return (-math.inf, -math.inf, dp, "minus_infinity", words[0], "lift-sv-bound")
        n = 1
        while _engine.feasible(budget, n * dp, mu.n_atoms):
            clock.check()
            phi_n = get(mu, "phi", s_val, n)
            phi_nd = get(mu, "phi", s_val, n * dp)
            up = min(up, phi_n / n)
            if phi_nd > -math.inf:
                lo = max(lo, (phi_nd - spec.log_constant - (dp - 1) * phi_n) / n)
            n_used = n
            if up - lo < eps:
                status = "certified"
                break
            n += 1
    except BudgetExhaustedError:
        pass
    return (lo, up, n_used, status, words[0], "lift-sv-bound")


def reference_continuity(mu, eps, budget):
    mu0 = restrict_invertible(mu)
    clock = _engine.RunClock(budget.wall_clock_cap)
    get, _ = _cached_sums(budget, clock)
    log_k = pressure.log_norm_constant(2, 1.0)
    up_mu = up_0 = math.inf
    lo_mu = lo_0 = -math.inf
    try:
        n = 1
        while _engine.feasible(budget, 2 * n, mu.n_atoms):
            clock.check()
            s_mu, s2_mu = get(mu, "norm", 1.0, n), get(mu, "norm", 1.0, 2 * n)
            s_0, s2_0 = get(mu0, "norm", 1.0, n), get(mu0, "norm", 1.0, 2 * n)
            up_mu = min(up_mu, s_mu / n)
            lo_mu = max(lo_mu, (s2_mu - log_k - s_mu) / n)
            up_0 = min(up_0, s_0 / n)
            lo_0 = max(lo_0, (s2_0 - log_k - s_0) / n)
            if lo_mu > up_0:
                return svpressure.DISCONTINUOUS
            if max(up_mu, up_0) - min(lo_mu, lo_0) < eps:
                return svpressure.CONTINUOUS
            n += 1
    except BudgetExhaustedError:
        pass
    return svpressure.INCONCLUSIVE


def _random(d, seed=5):
    rng = np.random.default_rng(seed)
    return FiniteMatrixMeasure(
        [(float(rng.uniform(0.5, 1.5)), rng.uniform(-0.9, 0.9, (d, d))) for _ in range(2)]
    )


def _nilpotent(d):
    # strictly upper triangular: every product of d atoms vanishes
    return FiniteMatrixMeasure(
        [(1.0, np.triu(np.full((d, d), c), 1)) for c in (1.0, 2.0)]
    )


# route: (exponent, block, bracket under test, reference loop, eps that certifies,
# a budget that stops the sweep after a few lengths)
ROUTES = {
    "norm_d2": (0.8, 2, pressure.bracket, reference_norm, 1.0, WordBudget(max_word_length=6)),
    "norm_d3": (0.7, 3, pressure.bracket, reference_norm, 2.0, WordBudget(max_words=2**10)),
    "planar": (1.5, 2, svpressure.bracket, reference_planar, 1.0, WordBudget(max_word_length=5)),
    "lift": (Fraction(3, 2), 9, svpressure.bracket, reference_lift, 20.0,
             WordBudget(max_words=2**17)),
}


def _route_bracket(mu, s, eps, budget):
    """The public brackets' enumeration route, on any family: a nilpotent
    family is triangular, and the public calls answer it in closed form."""
    if s < 1:
        return engine_norm_bracket(mu, s, eps, budget)
    block, log_k, provenance = svpressure._route(mu.dimension, s, 6, 256)
    return pressure._bracket(mu, "phi", float(s), block, log_k, eps, budget, 1, provenance)


@pytest.fixture
def sum_calls(monkeypatch):
    """(atoms, length, kind, exponents) of every weighted_sums call that
    returned, in order."""
    calls = []
    real = _engine.weighted_sums

    def spy(mu, n, kind, s_values, *args, **kwargs):
        out = real(mu, n, kind, s_values, *args, **kwargs)
        calls.append((mu.n_atoms, n, kind, tuple(float(s) for s in s_values)))
        return out

    monkeypatch.setattr(_engine, "weighted_sums", spy)
    return calls


def _fields(res):
    return (res.lower.hex(), res.upper.hex(), res.n_used, res.status,
            res.words_evaluated, res.provenance)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", ["certifies", "mid_sweep", "nilpotent", "block_infeasible"])
def test_sandwich_matches_the_loop_it_replaced(route, case, sum_calls):
    s, block, run, reference, eps, mid_budget = ROUTES[route]
    d = 2 if route in ("norm_d2", "planar") else 3
    mu, budget = _random(d), WordBudget()
    if case == "mid_sweep":
        eps, budget = 1e-3, mid_budget
    elif case == "nilpotent":
        mu = _nilpotent(d)
    elif case == "block_infeasible":
        budget = WordBudget(max_word_length=block - 1)

    got = (_route_bracket if case == "nilpotent" else run)(mu, s, eps, budget=budget)
    assert sum_calls or case == "block_infeasible"
    got_calls = list(sum_calls)
    sum_calls.clear()
    want = reference(mu, s, eps, budget)
    assert _fields(got) == tuple(x.hex() if isinstance(x, float) else x for x in want)
    assert got_calls == sum_calls

    expected_status = {"certifies": "certified", "mid_sweep": "budget_exhausted",
                       "nilpotent": "minus_infinity", "block_infeasible": "budget_exhausted"}
    assert got.status == expected_status[case]
    if case == "mid_sweep":
        assert 0 < got.n_used
    if case == "block_infeasible":
        assert (got.lower, got.upper, got.n_used, got.words_evaluated) == (
            -math.inf, math.inf, 0, 0)


# two invertible atoms and one of rank one: mu0 keeps two of mu's three atoms
RANK_DROP = FiniteMatrixMeasure([
    (1.0, [[0.6, 0.2], [-0.1, 0.5]]),
    (0.8, [[0.4, -0.3], [0.2, 0.7]]),
    (1.0, [[0.9, 0.0], [0.0, 0.0]]),
])


@pytest.mark.parametrize("eps", [1e-3, 1.0, 100.0])
def test_continuity_stops_with_the_sweep_of_mu(eps, sum_calls):
    # 3^(2n) <= 3^6 stops mu at n = 3, while mu0's 2^(2n) words would allow n = 4
    budget = WordBudget(max_words=3**6)
    got = svpressure.continuity_at_one(RANK_DROP, eps, budget=budget)
    got_calls = list(sum_calls)
    sum_calls.clear()
    assert got == reference_continuity(RANK_DROP, eps, budget)
    assert got_calls == sum_calls
    if eps == 1e-3:
        assert got == svpressure.INCONCLUSIVE
        assert max(n for atoms, n, _, _ in got_calls if atoms == 3) == 6
        assert max(n for atoms, n, _, _ in got_calls if atoms == 2) == 6
