"""The one sandwich loop against the loops it replaced.

pressure.bracket, the planar and lift routes of svpressure.bracket,
svpressure.continuity_at_one, svpressure's irrational route and the JSR's
sweep each used to run their own copy of the sandwich with their own sum
cache.  Those copies are kept below as plain references, each taking
(1/(n b)) log S_nb as an upper candidate as the sandwich does: every
result, and the sequence of sums evaluated with repeats removed, must
match them bit for bit.  The JSR's copy evaluated and counted length n d
twice (at step n and as the short length of step n d); the sandwich counts
each length once.

Where length b never fits, the old loops evaluated nothing; the sandwich
sweeps the upper end alone over the feasible lengths, which
reference_upper_alone restates.  The irrational route kept its own upper
loop beside a lower sweep at the nearest rational; reference_irrational
restates it on the one rule that replaced that loop.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import engine_norm_bracket
from matpress import _engine, jsr, linalg, pressure, svpressure
from matpress.errors import BudgetExhaustedError
from matpress.measure import FiniteMatrixMeasure, WordBudget, restrict_invertible, scale_measure


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
            up = min(up, sn / n, snd / (n * d))
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
            up = min(up, phi_n / n, phi_2n / (2 * n))
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
    dp, log_k = dict(svpressure._lift_rows(mu.dimension))[s]
    s_val = float(s)
    lo, up, n_used, status = -math.inf, math.inf, 0, "budget_exhausted"
    try:
        if _engine.feasible(budget, dp, mu.n_atoms) and get(mu, "phi", s_val, dp) == -math.inf:
            return (-math.inf, -math.inf, dp, "minus_infinity", words[0], "lift-sv-bound")
        n = 1
        while _engine.feasible(budget, n * dp, mu.n_atoms):
            clock.check()
            phi_n = get(mu, "phi", s_val, n)
            phi_nd = get(mu, "phi", s_val, n * dp)
            up = min(up, phi_n / n, phi_nd / (n * dp))
            if phi_nd > -math.inf:
                lo = max(lo, (phi_nd - log_k - (dp - 1) * phi_n) / n)
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
            up_mu = min(up_mu, s_mu / n, s2_mu / (2 * n))
            lo_mu = max(lo_mu, (s2_mu - log_k - s_mu) / n)
            up_0 = min(up_0, s_0 / n, s2_0 / (2 * n))
            lo_0 = max(lo_0, (s2_0 - log_k - s_0) / n)
            if lo_mu > up_0:
                return svpressure.DISCONTINUOUS
            if max(up_mu, up_0) - min(lo_mu, lo_0) < eps:
                return svpressure.CONTINUOUS
            n += 1
    except BudgetExhaustedError:
        pass
    return svpressure.INCONCLUSIVE


def reference_upper_alone(mu, kind, s, budget, provenance):
    """The sweep where length b never fits: the least (1/n) log S_n over the
    feasible n, with no lower end."""
    get, words = _cached_sums(budget, _engine.RunClock(budget.wall_clock_cap))
    up, n = math.inf, 0
    while _engine.feasible(budget, n + 1, mu.n_atoms):
        n += 1
        up = min(up, get(mu, kind, s, n) / n)
    return (-math.inf, up, n, "budget_exhausted", words[0], provenance)


def reference_irrational(mu, s, eps, budget):
    """svpressure._bracket_irrational as one loop: the upper end
    at s over the lengths n and, while the block d' fits, n d'; the lower
    end from mu scaled into the unit ball at the least a/q >= s, q <= 6,
    whose lift fits the cap and the budget, or where none does, from the
    determinant closed form at s+ = d."""
    d = mu.dimension
    max_norm = max(linalg.operator_norm(m) for m in mu._mats)
    c = 1.0 / max_norm if max_norm > 1.0 else 1.0
    mu_c = scale_measure(mu, c) if max_norm > 1.0 else mu
    shift = s * math.log(c)
    fits = []
    for q in range(1, 7):
        for a in range(q + 1, d * q):
            row = svpressure._route(d, Fraction(a, q))
            if row and Fraction(a, q) >= s and _engine.feasible(budget, row[0], mu.n_atoms):
                fits.append((Fraction(a, q), row))
    s_plus, row = min(fits, key=lambda item: item[0]) if fits else (d, None)
    b = row and row[0]
    clock = _engine.RunClock(budget.wall_clock_cap)
    get, words = _cached_sums(budget, clock)
    lo = -math.inf if row else svpressure._det_bounds(mu_c, float(d))[0] - shift
    up, n_used, status = math.inf, 0, "budget_exhausted"
    try:
        if row and get(mu, "phi", s, b) == -math.inf:
            return (-math.inf, -math.inf, b, "minus_infinity", words[0], "lift-sv-bound")
        n = 1
        while _engine.feasible(budget, n * b if row else n, mu.n_atoms):
            clock.check()
            up = min(up, get(mu, "phi", s, n) / n)
            if row:
                up = min(up, get(mu, "phi", s, n * b) / (n * b))
            if up == -math.inf:
                return (-math.inf, -math.inf, n, "minus_infinity", words[0], "lift-sv-bound")
            if row:
                phi_n = get(mu_c, "phi", float(s_plus), n)
                phi_nb = get(mu_c, "phi", float(s_plus), n * b)
                lo = max(lo, (phi_nb - row[1] - (b - 1) * phi_n) / n - shift)
            n_used = n
            if up - lo < eps:
                status = "certified"
                break
            n += 1
    except BudgetExhaustedError:
        pass
    return (lo, up, n_used, status, words[0], "lift-sv-bound")


def reference_jsr(mats, eps, budget):
    """jsr._sweep (spectral floor on, floor_cap 4096) before it ran on the
    sandwich, and the lengths it passed max_norm_word, in order."""
    mu, n_atoms = jsr._coerce_set(mats)
    d = mu.dimension
    clock = _engine.RunClock(budget.wall_clock_cap)
    lo, up, lo_from, n_used, status, lengths = 0.0, math.inf, "bochi-lower-bound", 0, \
        "budget_exhausted", []
    floor = jsr._spectral_floor(mu._mats, 4096, n_atoms)
    if floor > lo:
        lo, lo_from = floor, "spectral-floor"
    try:
        n = 1
        while _engine.feasible(budget, n * d, n_atoms):
            clock.check()
            short_max = _engine.max_norm_word(mu, n, budget, clock=clock)
            long_max = _engine.max_norm_word(mu, n * d, budget, clock=clock)
            lengths += [n, n * d]
            if short_max == -math.inf or long_max == -math.inf:
                up, lo, lo_from, n_used, status = 0.0, 0.0, "bochi-lower-bound", n, "certified"
                break
            up = min(up, math.exp(short_max / n), math.exp(long_max / (n * d)))
            bochi = math.exp((long_max - (d + 1) * math.log(d) - (d - 1) * short_max) / n)
            if bochi > lo:
                lo, lo_from = bochi, "bochi-lower-bound"
            lo = min(lo, up)
            n_used = n
            if up == lo or (eps is not None and up - lo <= float(eps)):
                status = "certified"
                break
            n += 1
    except BudgetExhaustedError:
        pass
    return (lo, up, n_used, status, lo_from), lengths


def reference_jsr_upper_alone(mats, eps, budget):
    """jsr._sweep (spectral floor on, floor_cap 4096) where length d never
    fits and eps is not met: the floor, and the least max ||A_w||^(1/n)
    over the feasible n."""
    mu, n_atoms = jsr._coerce_set(mats)
    lo = jsr._spectral_floor(mu._mats, 4096, n_atoms)
    lengths = list(itertools.takewhile(
        lambda n: _engine.feasible(budget, n, n_atoms), itertools.count(1)))
    up = math.exp(min(_engine.max_norm_word(mu, n, budget) / n for n in lengths))
    lo_from = "spectral-floor" if lo > 0.0 else "bochi-lower-bound"
    assert up - lo > eps
    return (min(lo, up), up, lengths[-1], "budget_exhausted", lo_from), lengths


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
    block, log_k, provenance = svpressure._route(mu.dimension, s)
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
    assert sum_calls
    got_calls = list(sum_calls)
    sum_calls.clear()
    if case == "block_infeasible":
        provenance = svpressure._route(d, s)[2]
        want = reference_upper_alone(mu, "norm" if s < 1 else "phi", s, budget, provenance)
    else:
        want = reference(mu, s, eps, budget)
    assert _fields(got) == tuple(x.hex() if isinstance(x, float) else x for x in want)
    assert got_calls == sum_calls

    expected_status = {"certifies": "certified", "mid_sweep": "budget_exhausted",
                       "nilpotent": "minus_infinity", "block_infeasible": "budget_exhausted"}
    assert got.status == expected_status[case]
    if case == "mid_sweep":
        assert 0 < got.n_used
    if case == "block_infeasible":
        assert got.lower == -math.inf and math.isfinite(got.upper)
        assert got.n_used == block - 1


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


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_upper_end_is_the_least_mean_of_the_sums_so_far(route, monkeypatch):
    # log S_m is subadditive, so every evaluated (1/m) log S_m bounds from above
    s, block, _, _, _, budget = ROUTES[route]
    mu = _random(2 if route in ("norm_d2", "planar") else 3)
    kind = "norm" if s < 1 else "phi"
    log_k = svpressure._route(mu.dimension, s)[1]
    seen = {}
    real = _engine.weighted_sums

    def spy(mu, n, kind, s_values, *args, **kwargs):
        out = real(mu, n, kind, s_values, *args, **kwargs)
        seen[n] = float(out[0])
        return out

    monkeypatch.setattr(_engine, "weighted_sums", spy)
    sums = pressure._Sums(budget, 1)
    for n, lo, up in pressure._sandwich(mu, kind, float(s), block, log_k, sums):
        assert n * block in seen
        assert up == min(v / m for m, v in seen.items())
        assert lo < up
    assert seen


@pytest.mark.parametrize("route", ["norm_d2", "planar"])
@pytest.mark.parametrize("vanishing", [4, 3])
def test_a_sum_vanishing_mid_sweep_is_minus_infinity(route, vanishing, monkeypatch):
    # lengths 1 and 2 are positive, so the length-b test at the start passes;
    # at step 2 S_4 vanishes, or at step 3 S_3 does (S_6 made up finite): the
    # run ends there, never "certified" with upper -inf below a finite lower
    s = ROUTES[route][0]

    def sums(mu, n, kind, s_values, budget, clock=None, workers=1, tables=None):
        return np.array([-math.inf if n == vanishing else -float(n)] * len(s_values))

    monkeypatch.setattr(_engine, "weighted_sums", sums)
    res = _route_bracket(_random(2), s, 1e-9, WordBudget())
    assert res.status == "minus_infinity"
    assert res.lower == res.upper == -math.inf
    assert res.n_used == {4: 2, 3: 3}[vanishing]


def _brute_log_sums(weights, mats, kind, s, max_len):
    """log S_m for m = 1..max_len by direct numpy enumeration."""
    out, prods, logw = {}, np.eye(mats.shape[1])[None], np.zeros(1)
    for m in range(1, max_len + 1):
        prods = np.einsum("wij,ajk->waik", prods, mats).reshape(-1, *mats.shape[1:])
        logw = (logw[:, None] + np.log(weights)[None]).ravel()
        logsv = np.log(np.linalg.svd(prods, compute_uv=False))
        if kind == "norm":
            v = logw + s * logsv[:, 0]
        else:
            k = int(s)
            v = logw + logsv[:, :k].sum(axis=1) + (s - k) * logsv[:, k]
        out[m] = float(v.max() + np.log(np.exp(v - v.max()).sum()))
    return out


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3]), planar=st.booleans(), seed=st.integers(0, 2**32 - 1),
       s=st.floats(0.2, 1.9))
def test_upper_ends_sit_above_brute_force_lower_candidates(d, planar, seed, s):
    # every candidate (1/n) [log S_nb - log K - (b-1) log S_n] at n <= 4 is
    # a lower bound on the pressure, so no sound upper end is below one
    rng = np.random.default_rng(seed)
    n_atoms = 2 if d == 3 else int(rng.integers(2, 4))
    weights, mats = rng.uniform(0.5, 1.5, n_atoms), rng.uniform(-1.0, 1.0, (n_atoms, d, d))
    mu = FiniteMatrixMeasure(zip(weights, mats))
    if planar and d == 2:
        s = 1.0 + s / 2.0
        kind, log_k = "phi", svpressure.log_planar_constant(s)
        res = svpressure.bracket(mu, s, 1e-9, budget=WordBudget(max_word_length=8))
        assert res.provenance == "planar-sv-bound"
    else:
        kind, log_k = "norm", pressure.log_norm_constant(d, s)
        res = pressure.bracket(mu, s, 1e-9, budget=WordBudget(max_word_length=3 * d))
    logs = _brute_log_sums(weights, mats, kind, s, 4 * d)
    for n in range(1, 5):
        lower = (logs[n * d] - log_k - (d - 1) * logs[n]) / n
        assert res.upper >= lower - 1e-9 * (1.0 + abs(lower))


@pytest.fixture
def max_calls(monkeypatch):
    """(id of the atoms, length) of every max_norm_word call that returned,
    in order."""
    calls = []
    real = _engine.max_norm_word

    def spy(ms, n, *args, **kwargs):
        out = real(ms, n, *args, **kwargs)
        calls.append((id(ms), n))
        return out

    monkeypatch.setattr(_engine, "max_norm_word", spy)
    return calls


# one atom of rank two whose square has rank one, and a multiple: phi^s,
# 1 < s < 2, is positive at length 1 and vanishes from length 2 on; the
# 2-cycle of off-diagonal entries makes no coordinate order triangular
RANK_TWO_NILPOTENT_BLOCK = FiniteMatrixMeasure(
    [(1.0, [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
     (0.5, [[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0], [0.0, 0.0, 0.5]])])


def _with_repeat(mu):
    # mu's first atom twice: the pressure routes count it as its own letter
    (w, a), rest = mu.atoms[0], mu.atoms[1:]
    return FiniteMatrixMeasure([(w, a), (w, a), *rest])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "case", ["certifies", "mid_sweep", "nilpotent", "repeated", "block_infeasible"])
def test_jsr_sweep_matches_the_loop_it_replaced(d, case, max_calls):
    mats, eps, budget = list(_random(d).matrices), 0.5, WordBudget()
    if case == "mid_sweep":
        eps, budget = 1e-9, WordBudget(max_word_length=4 * d)
    elif case == "nilpotent":
        mats = list(_nilpotent(d).matrices)
    elif case == "repeated":
        mats, eps, budget = [mats[0], *mats], 1e-9, WordBudget(max_words=3 ** (3 * d))
    elif case == "block_infeasible":
        eps, budget = 1e-9, WordBudget(max_word_length=d - 1)

    got = jsr._sweep(*jsr._coerce_set(mats), eps, budget, True, 4096, 1)
    got_calls = list(max_calls)
    max_calls.clear()
    want, lengths = (reference_jsr_upper_alone if case == "block_infeasible"
                     else reference_jsr)(mats, eps, budget)
    assert (got.lower.hex(), got.upper.hex(), got.n_used, got.status, got.provenance) == (
        want[0].hex(), want[1].hex(), *want[2:])
    # the reference's calls with repeats removed, each length counted once
    assert [n for _, n in max_calls] == lengths
    assert [n for _, n in got_calls] == list(dict.fromkeys(lengths))
    assert got.words_evaluated == sum(len(mats) ** n for n in set(lengths))

    expected_status = {"certifies": "certified", "mid_sweep": "budget_exhausted",
                       "nilpotent": "certified", "repeated": "budget_exhausted",
                       "block_infeasible": "budget_exhausted"}
    assert got.status == expected_status[case]
    if case in ("mid_sweep", "repeated"):
        assert len(lengths) > len(set(lengths))  # the old loop read a length twice
    if case == "nilpotent":
        assert got.lower == got.upper == 0.0
    if case == "block_infeasible":
        assert math.isfinite(got.upper) and got.n_used == d - 1


def test_jsr_evaluates_each_length_once(max_calls):
    # steps 1 to 4 over d = 2 read lengths 1, 2, 2, 4, 3, 6, 4, 8
    res = jsr.jsr_bracket(_random(2).matrices, budget=WordBudget(max_word_length=8))
    assert res.n_used == 4
    assert sorted(n for _, n in max_calls) == [1, 2, 3, 4, 6, 8]
    assert len(set(max_calls)) == len(max_calls)
    assert res.words_evaluated == sum(2**n for n in (1, 2, 3, 4, 6, 8))


@pytest.mark.parametrize("s", [math.sqrt(2.0), 1.95, 2.5 + 1e-9, 2.99])
@pytest.mark.parametrize(
    "case", ["certifies", "mid_sweep", "nilpotent", "repeated", "block_infeasible"])
def test_irrational_lower_end_matches_the_loop_it_replaced(s, case, sum_calls):
    # sqrt 2 takes s+ = 3/2 with d' = 9, 1.95 takes s+ = 2 with d' = 3, and
    # 2.5 + 1e-9 takes 13/5 with d' = 9; 2.99, and every s at
    # block_infeasible, take s+ = 3 = d, the determinant closed form, and
    # sweep the upper end alone
    mu, eps, budget = _random(3), 30.0, WordBudget()
    if case == "mid_sweep":
        eps, budget = 1e-3, WordBudget(max_words=2**12)
    elif case == "nilpotent":
        mu = RANK_TWO_NILPOTENT_BLOCK
    elif case == "repeated":
        mu, eps, budget = _with_repeat(mu), 1e-3, WordBudget(max_words=3**9)
    elif case == "block_infeasible":
        eps, budget = 1e-3, WordBudget(max_word_length=2)

    got = svpressure._bracket_irrational(mu, s, eps, budget, 1)
    got_calls = list(sum_calls)
    sum_calls.clear()
    want = reference_irrational(mu, s, eps, budget)
    assert _fields(got) == tuple(x.hex() if isinstance(x, float) else x for x in want)
    assert got_calls == sum_calls

    if case == "nilpotent" and s < 2:
        # the length-d' sum of mu at s is read first, and vanishes
        assert (got.status, got.n_used) == ("minus_infinity", {1.95: 3}.get(s, 9))
    if case in ("mid_sweep", "repeated") and s == 1.95:
        # the lower sweep ran past step 1
        assert max(n for _, n, _, exps in got_calls if exps == (2.0,)) > 3
    if case == "block_infeasible":
        assert math.isfinite(got.lower) and got.n_used == 2


def test_irrational_lower_sweep_stops_at_a_vanishing_sum(sum_calls):
    # J^3 of the 4x4 Jordan block has rank 1, so phi^s, 1 < s < 2, vanishes
    # from length 3 on.  s+ = 2 has block d' = 6, and the length-6 sum of mu
    # at s, read first, is the exact verdict: no lower sum of mu_c is read
    jordan = np.eye(4, k=1)
    mu = FiniteMatrixMeasure([(1.0, jordan), (1.0, 0.5 * jordan)])
    budget = WordBudget(max_words=2**14)
    got = svpressure._bracket_irrational(mu, math.sqrt(2.0), 1e-3, budget, 1)
    got_calls = list(sum_calls)
    sum_calls.clear()
    want = reference_irrational(mu, math.sqrt(2.0), 1e-3, budget)
    assert _fields(got) == tuple(x.hex() if isinstance(x, float) else x for x in want)
    assert (got.status, got.n_used, got.words_evaluated) == ("minus_infinity", 6, 2**6)
    assert got_calls == sum_calls == [(2, 6, "phi", (math.sqrt(2.0),))]


def test_an_infeasible_lift_block_leaves_the_upper_end_to_sweep_alone(sum_calls):
    # W4 (two standard-normal 3x3 atoms from default_rng(7)) at s = 12/5
    # lifts to d' = 27: under 2^10 words no length 27 n fits, so the upper
    # end is the least (1/n) log Phi_n over the feasible n <= 10
    mu = FiniteMatrixMeasure.from_matrices(np.random.default_rng(7).standard_normal((2, 3, 3)))
    budget = WordBudget(max_words=2**10)
    got = svpressure.bracket(mu, Fraction(12, 5), 1e-3, budget=budget)
    assert [n for _, n, _, _ in sum_calls] == list(range(1, 11))
    want = min(float(_engine.weighted_sums(mu, n, "phi", [2.4], budget)[0]) / n
               for n in range(1, 11))
    assert (got.lower, got.upper, got.n_used, got.status) == (
        -math.inf, want, 10, "budget_exhausted")
    assert got.words_evaluated == sum(2**n for n in range(1, 11))


def test_an_irrational_exponent_without_a_fitting_lift_reads_the_determinant(sum_calls):
    # s = sqrt 2 < d - 1: every lift block of d = 3 is 3 or longer, so under
    # words of length 2 s+ = d, and the lower end is the determinant closed
    # form at 3 on the atoms scaled into the unit ball (phi^s decreases in s
    # there), not -inf
    mu, s = _random(3), math.sqrt(2.0)
    got = svpressure.bracket(mu, s, 1e-3, budget=WordBudget(max_word_length=2))
    c = 1.0 / max(linalg.operator_norm(m) for m in mu._mats)
    assert c < 1.0
    want = svpressure._det_bounds(scale_measure(mu, c), 3.0)[0] - s * math.log(c)
    assert math.isfinite(want)
    assert (got.lower, got.n_used, got.provenance) == (want, 2, "lift-sv-bound")
    assert got.lower < got.upper
    assert [n for _, n, _, _ in sum_calls] == [1, 2]


def test_a_mid_sweep_irrational_run_stops_with_its_lower_sweep(sum_calls):
    # s = 1.95 takes s+ = 2 with d' = 3: under words of length 12 the lower
    # sweep on mu_c runs steps 1 to 4, every step also reads S_3n of mu at s,
    # and the run ends with the lower sweep, not at the upper end's
    # feasible length 12
    got = svpressure.bracket(_random(3), 1.95, 1e-9, budget=WordBudget(max_word_length=12))
    assert (got.n_used, got.status) == (4, "budget_exhausted")
    assert math.isfinite(got.lower) and got.lower < got.upper
    # the length-3 verdict test, then steps 1 to 4, repeats removed
    assert [n for _, n, _, exps in sum_calls if exps == (1.95,)] == [3, 1, 2, 6, 9, 4, 12]
    assert [n for _, n, _, exps in sum_calls if exps == (2.0,)] == [1, 3, 2, 6, 9, 4, 12]
