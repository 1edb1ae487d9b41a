import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from matpress import _engine, affinity, linalg, pressure, svpressure
from matpress.affinity import (
    _ROUNDING,
    AffinityResult,
    _det_excess,
    _det_root,
    _lower_margin,
    _slack,
    _sweep,
    _upper_margin,
    affinity_dimension,
    meets_ambient_dimension,
    solve_determinant_dimension,
)
from matpress.errors import DimensionCapError, InvalidInputError, InvertedIntervalError
from matpress.measure import FiniteMatrixMeasure, WordBudget


def moran_measure(count, ratio, d=2):
    """count copies of ratio*I_d: affinity dimension log(count)/log(1/ratio)."""
    return FiniteMatrixMeasure([(1.0, ratio * np.eye(d)) for _ in range(count)])


THREE_HALVES = moran_measure(3, 0.5)  # dimension log 3 / log 2
TWO_THIRDS = moran_measure(2, 1.0 / 3.0)  # dimension log 2 / log 3
PAIR_3D = moran_measure(2, 0.4, d=3)  # dimension log 2 / log 2.5

DIM_THREE_HALVES = math.log(3.0) / math.log(2.0)
DIM_TWO_THIRDS = math.log(2.0) / math.log(3.0)
DIM_PAIR_3D = math.log(2.0) / math.log(2.5)


def sweep(mu, eps, budget=None):
    """affinity_dimension's interval-refinement route, whatever the family."""
    return _sweep(mu, eps, budget or WordBudget(), 1)


class TestMeetsAmbientDimension:
    def test_threshold_cases(self):
        assert meets_ambient_dimension(moran_measure(4, 0.8))  # 4 * 0.64 = 2.56
        assert not meets_ambient_dimension(TWO_THIRDS)  # 2 * 1/9

    def test_exact_boundary_counts(self):
        mu = FiniteMatrixMeasure([(4.0, 0.5 * np.eye(2))])  # 4 * 0.25 = 1
        assert meets_ambient_dimension(mu)

    def test_rejects_non_measure(self):
        with pytest.raises(InvalidInputError):
            meets_ambient_dimension([(1.0, np.eye(2))])

    def test_overflowing_determinant_counts_as_excess(self):
        mu = FiniteMatrixMeasure([(1.0, 1e200 * np.eye(2))])  # det = inf
        with np.errstate(over="ignore"):
            assert meets_ambient_dimension(mu)

    def test_nan_determinant_is_rejected(self):
        # the 3x3 cofactor terms are inf - inf
        mu = FiniteMatrixMeasure([(1.0, 1e200 * np.ones((3, 3)))])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
            meets_ambient_dimension(mu)


class TestSolveDeterminantDimension:
    def test_four_copies_of_point_eight(self):
        # 4 * 0.64^(s/2) = 1  =>  s = 2 log 4 / log(1/0.64)
        mu = moran_measure(4, 0.8)
        expect = 2.0 * math.log(4.0) / math.log(1.0 / 0.64)
        assert solve_determinant_dimension(mu) == pytest.approx(expect, abs=1e-8)

    def test_exact_root_at_ambient_dimension(self):
        mu = FiniteMatrixMeasure([(4.0, 0.5 * np.eye(2))])
        assert solve_determinant_dimension(mu) == 2.0

    def test_weight_e_squared_atom(self):
        # e^2 * (e^-1)^(s/2) = 1 has the exact root s = 4
        det_partner = math.exp(-1.0) / 0.7
        mu = FiniteMatrixMeasure([(math.e**2, [[0.7, 0.0], [0.0, det_partner]])])
        assert solve_determinant_dimension(mu) == pytest.approx(4.0, abs=1e-8)

    def test_rejects_unit_determinant(self):
        mu = FiniteMatrixMeasure([(0.5, np.eye(2))])
        with pytest.raises(InvalidInputError):
            solve_determinant_dimension(mu)

    def test_rejects_mass_below_threshold(self):
        mu = FiniteMatrixMeasure([(0.5, 0.5 * np.eye(2))])
        with pytest.raises(InvalidInputError):
            solve_determinant_dimension(mu)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(InvalidInputError):
            solve_determinant_dimension(moran_measure(4, 0.8), tol=0.0)

    def test_rejects_overflowing_determinant(self):
        mu = FiniteMatrixMeasure([(1.0, 1e200 * np.eye(2))])
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="det"):
            solve_determinant_dimension(mu)
        mu = FiniteMatrixMeasure([(1.0, 1e200 * np.ones((3, 3)))])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
            solve_determinant_dimension(mu)

    @pytest.mark.parametrize("tol", [1e-16, 1e-18])
    def test_tol_below_float_spacing_returns(self, tol):
        # the root 6.21 has ulp 8.9e-16: the walks stop at adjacent floats
        mu = moran_measure(4, 0.8)
        expect = 2.0 * math.log(4.0) / math.log(1.0 / 0.64)
        assert solve_determinant_dimension(mu, tol=tol) == pytest.approx(expect, abs=1e-12)

    def test_flat_pressure_widens_the_bracket(self):
        # log 1.2 + s log 0.9999995 falls by 5e-7 per unit s, so the closed
        # form's rounding radius spans about 1e-8 in s around the root
        mpmath = pytest.importorskip("mpmath")
        mu = moran_measure(2, 0.9999995)
        mu = FiniteMatrixMeasure([(0.6, m) for m in mu._mats])
        lo, hi, _ = _det_root(mu, *_det_excess(mu), 1e-9 / 4.0)
        with mpmath.workdps(50):
            det = mpmath.mpf(_det_excess(mu)[1][0])
            root = -2 * mpmath.log(2 * mpmath.mpf(0.6)) / mpmath.log(det)
            assert mpmath.mpf(lo) <= root <= mpmath.mpf(hi)
        assert hi - lo > 1e-9
        assert solve_determinant_dimension(mu, tol=1e-9) == 0.5 * (lo + hi)
        res = affinity_dimension(mu, 1e-9)
        assert res.interval == (lo, hi) and res.status == "budget_exhausted"

    def test_uncertifiable_root_is_rejected(self):
        # |det| = 1 - 2^-52 next to |det| = 1e-200: the rounding radius,
        # which scales with max |log|det A_i||, outgrows the pressure's fall
        a = 1.0 - 2.0**-53
        mu = FiniteMatrixMeasure([(1.5, a * np.eye(2)), (1.0, 1e-100 * np.eye(2))])
        with pytest.raises(InvalidInputError, match="cannot be certified"):
            solve_determinant_dimension(mu)


class TestAffinityDimension:
    def test_moran_pair_certifies_quickly(self, engine_calls):
        res = sweep(TWO_THIRDS, 1.0)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.branch == "trisection"
        assert res.width <= 1.0
        assert res.interval[0] <= DIM_TWO_THIRDS <= res.interval[1]

    def test_moran_triple_certifies_at_moderate_eps(self, engine_calls):
        res = sweep(THREE_HALVES, 1.2)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.width <= 1.2
        assert res.interval[0] <= DIM_THREE_HALVES <= res.interval[1]
        assert res.steps >= 1
        assert res.words_evaluated > 0

    def test_3d_moran_pair(self, engine_calls):
        res = sweep(PAIR_3D, 0.8)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.width <= 0.8
        assert res.interval[0] <= DIM_PAIR_3D <= res.interval[1]

    def test_history_intervals_nest(self, engine_calls):
        res = sweep(THREE_HALVES, 1.2)
        assert engine_calls["weighted_sums"] > 0
        lo_prev, hi_prev = 0.0, 2.0
        for lo, hi in res.history:
            assert lo >= lo_prev and hi <= hi_prev
            lo_prev, hi_prev = lo, hi

    def test_eps_below_float_spacing_returns(self):
        # tol = 1e-17 / 4 is below ulp(1.585) = 2.2e-16: the closed-form
        # walks stop, and the width reports that eps was not reached
        res = affinity_dimension(THREE_HALVES, 1e-17)
        assert res.branch == "triangular" and res.status == "budget_exhausted"
        assert res.interval[0] <= DIM_THREE_HALVES <= res.interval[1]

    def test_budget_exhaustion_keeps_containment(self, engine_calls):
        res = sweep(THREE_HALVES, 0.05, budget=WordBudget(max_words=100_000))
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "budget_exhausted"
        assert res.interval[0] <= DIM_THREE_HALVES <= res.interval[1]
        assert res.history  # at least one completed round was recorded

    def test_determinant_branch_exact_root(self):
        mu = FiniteMatrixMeasure([(4.0, 0.5 * np.eye(2))])
        res = affinity_dimension(mu, 0.5)
        assert res.branch == "determinant"
        assert res.status == "certified"
        assert res.interval == (2.0, 2.0)
        assert res.steps == 0
        assert res.width == 0.0

    def test_determinant_branch_criterion_values(self):
        res = affinity_dimension(moran_measure(4, 0.8), 1e-7)
        assert res.branch == "determinant"
        assert res.status == "certified"
        assert res.midpoint == pytest.approx(6.212567, abs=1e-6)

    def test_rejects_expanding_atoms(self):
        with pytest.raises(InvalidInputError):
            affinity_dimension(moran_measure(2, 1.0), 0.5)

    def test_rejects_bad_eps(self):
        with pytest.raises(InvalidInputError):
            affinity_dimension(TWO_THIRDS, 0.0)
        with pytest.raises(InvalidInputError):
            affinity_dimension("nope", 0.5)

    def test_result_properties(self):
        res = AffinityResult((1.0, 2.0), "trisection", 3, "certified")
        assert res.width == 1.0
        assert res.midpoint == 1.5


def planar_triple():
    """The ROADMAP's planar triple, W3 of the benchmark."""
    return FiniteMatrixMeasure([
        (1.0, np.array([[0.6, 0.2], [0.1, 0.4]])),
        (1.0, np.array([[0.3, -0.2], [0.25, 0.5]])),
        (1.0, np.array([[0.45, 0.0], [0.3, 0.2]])),
    ])


def test_each_length_is_enumerated_once_per_run(monkeypatch):
    # the sweep evaluates many exponents at lengths up to 10, and 3^10 rows
    # pass the small-level cache, so later exponents at length 10 come from
    # the run's slope sketch
    mu = planar_triple()
    built = []
    real = _engine._unit_arrays

    def spy(cache, parts, unit, top_only):
        built.append((sum(parts), unit))
        return real(cache, parts, unit, top_only)

    monkeypatch.setattr(_engine, "_unit_arrays", spy)
    res = affinity_dimension(mu, 0.05, budget=WordBudget(max_words=3**10))
    assert len(built) == len(set(built))
    assert max(n for n, _ in built) == 10
    # bits of the depth sweep
    h = float.fromhex
    assert res.status == "budget_exhausted" and res.steps == 12
    assert res.interval == (h("0x1.5f59d086791bbp-1"), h("0x1.60ed2fbe7cbddp+0"))
    # the upper end is walked at the longest held length right after each
    # lower test: length 2n at step n, 10 from step 5 on
    assert res.history == (
        (0.0, h("0x1.6dd34d7a3c375p+0")),
        (h("0x1.5b3000c96eecap-5"), h("0x1.68770701b3304p+0")),
        (h("0x1.628c17fde20bbp-2"), h("0x1.650b677ce32d2p+0")),
        (h("0x1.16a7646a0875dp-1"), h("0x1.629c638e650c2p+0")),
    ) + ((h("0x1.5f59d086791bbp-1"), h("0x1.60ed2fbe7cbddp+0")),) * 6
    assert res.words_evaluated == 534462
    # inside the interval of the 11-probe grid this sweep replaced
    assert h("0x1.55c8p-1") < res.interval[0] and res.interval[1] < h("0x1.64c0p+0")
    # only small levels stay on the measure once the run returns
    for cache in mu._engine_caches.values():
        for cols in cache.log_sigmas.values():
            assert cols.shape[1] <= _engine._LEVEL_ROWS


def test_default_budget_builds_units_only_at_the_lower_tests_lengths(monkeypatch):
    # the planar triple at eps 0.05 under the default budget (lengths up to
    # 14; 3^9 rows fit one level): the upper end is walked at length 2n
    # right after the lower test at step n, so the longer odd lengths, whose
    # upper tests that walk has passed, are never enumerated
    built = set()
    real = _engine._unit_arrays

    def spy(cache, parts, unit, top_only):
        built.add(tuple(parts))
        return real(cache, parts, unit, top_only)

    monkeypatch.setattr(_engine, "_unit_arrays", spy)
    res = affinity_dimension(planar_triple(), 0.05)
    assert {sum(parts) for parts in built if len(parts) > 1} == {10, 12, 14}
    assert res.status == "budget_exhausted" and res.width <= 0.48825


@pytest.mark.parametrize("fake, where", [
    # every sum far above 1 and supermultiplicative: the lower test fires
    # at the a priori upper end d
    (lambda s, m: 10.0 * m, "upper end"),
    # lengths 1-2 fire the lower test below 0.7 and the upper above 1;
    # from length 3 on every sum is below 1, so the upper test fires at the
    # certified lower end
    (lambda s, m: 10.0 * m * (1.0 - s) if m <= 2 else -1.0 * m, "lower end"),
])
def test_contradictory_sums_raise_instead_of_certifying(monkeypatch, fake, where):
    def sums(mu, n, kind, s_values, budget, clock=None, workers=1, tables=None):
        return np.array([fake(float(s), n) for s in s_values])

    monkeypatch.setattr(_engine, "weighted_sums", sums)
    with pytest.raises(InvertedIntervalError, match=where):
        sweep(THREE_HALVES, 0.01)


CARPET = FiniteMatrixMeasure([
    (1.0, np.diag([0.5, 0.25])),
    (1.0, np.diag([-0.5, 0.25])),
    (1.0, np.diag([0.5, 1.0 / 16.0])),
    (1.0, np.diag([0.5, -1.0 / 16.0])),
])


def _moran_dimension(mp, count, ratio):
    return mp.log(count) / mp.log(1 / mp.mpf(ratio))


EXACT_DIMENSIONS = [
    # MORAN3 of the benchmark: every power sum is exact, and its upper root
    # is the dimension itself
    (THREE_HALVES, lambda mp: _moran_dimension(mp, 3, 0.5), 0.2,
     WordBudget(max_word_length=48, max_words=3**48)),
    (THREE_HALVES, lambda mp: _moran_dimension(mp, 3, 0.5), 1e-3,
     WordBudget(max_word_length=48, max_words=3**48)),
    (THREE_HALVES, lambda mp: _moran_dimension(mp, 3, 0.5), 1.2, None),
    (THREE_HALVES, lambda mp: _moran_dimension(mp, 3, 0.5), 0.05, None),
    (TWO_THIRDS, lambda mp: _moran_dimension(mp, 2, 1.0 / 3.0), 1.0, None),
    (TWO_THIRDS, lambda mp: _moran_dimension(mp, 2, 1.0 / 3.0), 0.05, None),
    (PAIR_3D, lambda mp: _moran_dimension(mp, 2, 0.4), 0.8, None),
    (PAIR_3D, lambda mp: _moran_dimension(mp, 2, 0.4), 0.05, None),
    (CARPET, lambda mp: 1 + mp.log((1 + mp.sqrt(5)) / 2) / mp.log(4), 0.01,
     WordBudget(max_word_length=48, max_words=4**48)),
]
EXACT_IDS = ["moran3", "moran3_1e-3", "halves_1.2", "halves_0.05", "thirds_1.0", "thirds_0.05",
             "pair3d_0.8", "pair3d_0.05", "carpet"]


@pytest.mark.parametrize("mu, exact, eps, budget", EXACT_DIMENSIONS, ids=EXACT_IDS)
def test_interval_contains_exact_dimension_without_slack(mu, exact, eps, budget, engine_calls):
    mpmath = pytest.importorskip("mpmath")
    res = sweep(mu, eps, budget=budget)
    assert engine_calls["weighted_sums"] > 0
    assert res.branch == "trisection"
    with mpmath.workdps(40):
        value = exact(mpmath)
        lo, hi = (mpmath.mpf(x) for x in res.interval)  # floats convert exactly
        assert lo <= value <= hi, (res.interval, value)


@pytest.mark.parametrize("mu, exact, eps, budget", EXACT_DIMENSIONS, ids=EXACT_IDS)
def test_triangular_interval_contains_exact_dimension_without_slack(
        mu, exact, eps, budget, engine_calls):
    # the same diagonal families through the public call: the closed form
    mpmath = pytest.importorskip("mpmath")
    res = affinity_dimension(mu, eps, budget=budget)
    assert engine_calls["weighted_sums"] == 0
    assert res.branch == "triangular" and res.status == "certified"
    assert 0.0 < res.width <= min(eps, 1e-9)
    with mpmath.workdps(40):
        value = exact(mpmath)
        lo, hi = (mpmath.mpf(x) for x in res.interval)
        assert lo <= value <= hi, (res.interval, value)


def compound(a, j):
    """j-th compound matrix: the j x j minors of a, subsets in lexicographic order."""
    subsets = list(itertools.combinations(range(a.shape[0]), j))
    return np.array([[np.linalg.det(a[np.ix_(r, c)]) for c in subsets] for r in subsets])


def brute_log_phi_sum(weights, mats, n, s):
    """log sum_w w * phi^s(A_w) over every length-n word, by plain numpy.

    phi^s = ||C_k(A_w)||^(1 - f) ||C_(k+1)(A_w)||^f with k = floor(s),
    f = s - k and C_j the j-th compound (C_0 = 1, C_d = det).  Each C_j(A_w)
    is the product of the atoms' C_j, so small singular values keep their
    relative accuracy, which an SVD of the product A_w would not.
    """
    d = mats.shape[1]
    k = min(int(s), d)
    terms = [(d, s / d)] if s >= d else [(k, 1.0 - (s - k)), (k + 1, s - k)]
    logw = np.log(weights)
    vals = logw
    for _ in range(n - 1):
        vals = (vals[:, None] + logw[None, :]).ravel()
    for j, power in terms:
        if j == 0 or power == 0.0:
            continue
        atoms = np.array([compound(m, j) for m in mats])
        prods = atoms
        for _ in range(n - 1):
            prods = np.einsum("aij,bjk->abik", prods, atoms).reshape(-1, *atoms.shape[1:])
        with np.errstate(divide="ignore"):
            vals = vals + power * np.log(np.linalg.svd(prods, compute_uv=False)[:, 0])
    top = float(np.max(vals))
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.sum(np.exp(vals - top))))


def lower_test_constant(d, s):
    """(block, log K) of the lower test at s, written out from the formulas."""
    if s <= 1.0:
        return d, (2.0 + (d + 1) * s + max(1.0 - s, 0.0)) * math.log(d)
    if d == 2:
        return 2, (7.0 - 2.0 * s) * math.log(2.0)
    t = Fraction(s).limit_denominator(6)
    assert float(t) == s, "a d >= 3 lower end above 1 is a lift rational"
    k, rem = int(t), t - int(t)
    p, q = rem.numerator, rem.denominator
    dp = math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p
    return dp, (2.0 + (dp + 1) / q) * math.log(dp) + ((q - 1) / q) * math.log(dp + 1)


def recertifies(weights, mats, lo, hi, max_words):
    """The lower and upper tests, by numpy enumeration and without slack,
    fire at each endpoint strictly inside (0, d) at some feasible length."""
    n_atoms, d = mats.shape[:2]
    lengths = [n for n in range(1, 64) if n_atoms**n <= max_words]
    ok = True
    if 0.0 < hi < d:
        ok &= any(brute_log_phi_sum(weights, mats, n, hi) < 0.0 for n in lengths)
    if 0.0 < lo < d:
        block, log_k = lower_test_constant(d, lo)

        def fires(n):
            big = brute_log_phi_sum(weights, mats, n * block, lo)
            small = brute_log_phi_sum(weights, mats, n, lo)
            return big - log_k - (block - 1) * small > 0.0

        ok &= any(fires(n) for n in lengths if n * block in lengths)
    return ok


def conditioned_atoms(seed, d, n_atoms):
    """(weights, atoms Q1 diag(sigma) Q2) with every sigma_j at least 0.05
    sigma_1: the engine computes sigma_2 of a 2x2 word from the rounded
    product, which near-singular atoms defeat (the reproducer below)."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_atoms):
        q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
        top = rng.uniform(0.3, 0.95)
        sigma = np.sort(top * rng.uniform(0.05, 1.0, d))[::-1]
        sigma[0] = top
        mats.append(q1 @ np.diag(sigma) @ q2)
    return rng.uniform(0.5, 1.5, n_atoms), np.array(mats)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([2, 3]),
    st.sampled_from([3**4, 3**6, 3**8]),
    st.sampled_from([0.02, 0.2]),
)
def test_sweep_endpoints_recertify_by_enumeration(seed, d, n_atoms, max_words, eps):
    weights, mats = conditioned_atoms(seed, d, n_atoms)
    mu = FiniteMatrixMeasure(zip(weights, mats))
    assume(not meets_ambient_dimension(mu))
    res = affinity_dimension(mu, eps, budget=WordBudget(max_words=max_words))
    lo, hi = res.interval
    assert 0.0 <= lo <= hi <= d
    prev = (0.0, float(d))
    for pair in res.history:
        assert prev[0] <= pair[0] <= pair[1] <= prev[1]
        prev = pair
    assert prev == res.interval
    assert recertifies(weights, mats, lo, hi, max_words)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from([3**6, 3**8]),
    st.sampled_from([0.02, 0.2]),
)
def test_sketched_sweep_endpoints_recertify_by_enumeration(seed, d, max_words, eps):
    # a 16-row cap: every length past the first two or three is enumerated
    # as level x suffix units, and its later exponents come from the slope
    # sketch
    weights, mats = conditioned_atoms(seed, d, 3)
    probes = []
    real = _engine.held_phi_bounds

    def spy(mu, n, s, budget, clock, tables):
        probes.append((n, s))
        return real(mu, n, s, budget, clock, tables)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_row_cap", lambda d: 16)
        mp.setattr(_engine, "held_phi_bounds", spy)
        mu = FiniteMatrixMeasure(zip(weights, mats))
        assume(not meets_ambient_dimension(mu))
        res = affinity_dimension(mu, eps, budget=WordBudget(max_words=max_words))
    assert probes
    lo, hi = res.interval
    assert 0.0 <= lo <= hi <= d
    assert recertifies(weights, mats, lo, hi, max_words)


def test_tests_read_the_conservative_side_of_a_sketch():
    # held values with a lower bound 1 below the upper: the upper test must
    # read Phi_n's upper bound, the lower test Phi_{n b}'s lower bound and
    # Phi_n's upper bound
    mu = THREE_HALVES
    sums = pressure._Sums(WordBudget(), 1)
    sums.store = {(id(mu), "held", 0.5, 4): (-3.0, -2.0), (id(mu), "held", 0.5, 8): (5.0, 6.0)}
    assert _upper_margin(sums, mu, 4, 0.5) == 2.0 - _slack(mu, -2.0, 4)
    slack = _slack(mu, 5.0, 8) + _slack(mu, -2.0, 4) + _ROUNDING * 0.25
    assert _lower_margin(sums, mu, 4, 0.5, 2, 0.25) == 5.0 - 0.25 + 2.0 - slack


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("q_max", [1, 2, 6, 7, 30])
def test_lift_candidates_are_the_admissible_rationals(d, q_max):
    # the lift rows of denominator <= q_max are every a/q in (1, d) with
    # q <= min(q_max, 6) that linalg.lift takes within its dimension cap,
    # in descending order
    rows = [t for t in svpressure._lift_rows(d) if t.denominator <= q_max]
    if d < 3:
        assert rows == []
        return
    want = []
    for t in sorted({Fraction(a, q) for q in range(1, min(q_max, 6) + 1)
                     for a in range(q + 1, d * q)}, reverse=True):
        try:
            linalg.lift(np.eye(d), int(t), (t - int(t)).numerator, t.denominator)
        except DimensionCapError:
            continue
        want.append(t)
    assert rows == want


def test_each_lift_candidate_is_routed_once_per_run(monkeypatch):
    # five copies of I_3 / 2 (dimension log 5 / log 2): the upper end stays
    # above 2 over ten lengths, and the lift table the lower test reads is
    # built once, not at every length
    calls, real = [], svpressure._lift_rows

    def spy(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(svpressure, "_lift_rows", spy)
    monkeypatch.setattr(affinity, "_lift_rows", spy)
    res = _sweep(moran_measure(5, 0.5, d=3), 0.05, WordBudget(), 1)
    assert len(res.history) == 10 and res.interval[1] > 2.0
    assert calls == [3] and len(real(3)) == 21
    h = float.fromhex
    assert res.interval == (h("0x1.23f085ab2d9d0p-2"), h("0x1.2934f09a02705p+1"))


def test_affinity_run_memory_stays_small():
    # the planar triple to length 12 (27 units of 3^9 rows): the run holds
    # its levels, the single-level lengths and a sketch per longer length,
    # not a table of every evaluated word
    mu = planar_triple()
    tracemalloc.start()
    try:
        res = affinity_dimension(mu, 0.05, budget=WordBudget(max_words=3**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.history) == 12  # one entry per length
    assert peak <= 8 * 2**20, peak / 2**20


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="sigma_2 of a 2x2 word from the rounded product")
def test_near_singular_planar_atom_upper_end_recertifies():
    # sigma_2 / sigma_1 = 0.01 for the second atom: the engine's sigma_2 =
    # |det| / sigma_1 of the rounded 12-letter products puts log Phi_12 at
    # the upper end 1.09 at -1.1e-5, while the exact compound products give
    # +3.3e-4, and no shorter length fires there
    rng = np.random.default_rng(35518)
    mats = rng.uniform(-1.0, 1.0, (2, 2, 2))
    mats *= rng.uniform(0.3, 0.95, 2)[:, None, None] / np.linalg.norm(
        mats, 2, axis=(1, 2))[:, None, None]
    weights = rng.uniform(0.5, 1.5, 2)
    mu = FiniteMatrixMeasure(zip(weights, mats))
    res = affinity_dimension(mu, 0.02, budget=WordBudget(max_words=3**8))
    assert recertifies(weights, mats, *res.interval, 3**8)
