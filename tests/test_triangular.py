"""The triangular route: detection, and the closed forms against enumeration.

A family whose atoms one coordinate order makes upper triangular gets its
norm pressure, singular-value pressure, affinity dimension and joint
spectral radius from the diagonal entries, widened by a rounding radius.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import engine_norm_bracket
from matpress import affinity, jsr, pressure, svpressure
from matpress.measure import FiniteMatrixMeasure, WordBudget


def measure(mats, weights=None):
    weights = [1.0] * len(mats) if weights is None else weights
    return FiniteMatrixMeasure(zip(weights, np.asarray(mats, dtype=float)))


def permuted(mats, perm):
    """Each matrix in the coordinates relabelled by perm: P A P^T."""
    p = np.eye(len(perm))[list(perm)]
    return np.array([p @ m @ p.T for m in mats])


def closed_form(weights, mats, s, k):
    """max over a k-set S and j not in S of log sum_i w_i prod_S |a_mm|
    |a_jj|^(s-k), in plain Python (k = 0: M, k = floor(s): P)."""
    d = mats.shape[1]
    t = s - k
    best = -math.inf
    for S in itertools.combinations(range(d), k):
        for j in [None] if t == 0 else [j for j in range(d) if j not in S]:
            total = sum(
                w * math.prod(abs(m[i, i]) for i in S) * (1.0 if j is None else abs(m[j, j]) ** t)
                for w, m in zip(weights, mats))
            if total > 0.0:
                best = max(best, math.log(total))
    return best


# random upper-triangular triples from default_rng(3): two 2x2 triples drawn
# first, then the 3x3 one, weights (1, .7, 1.3)
def rng3_triples():
    rng = np.random.default_rng(3)
    d2 = np.triu(rng.uniform(-1.0, 1.0, (3, 2, 2)))
    d2b = np.triu(rng.uniform(-1.0, 1.0, (3, 2, 2)))
    d3 = np.triu(rng.uniform(-1.0, 1.0, (3, 3, 3)))
    return d2, d2b, d3


WEIGHTS3 = [1.0, 0.7, 1.3]


class TestDetection:
    def test_lower_triangular_family_takes_the_route(self):
        mats = np.array([[[0.5, 0.0], [0.3, 0.25]], [[0.2, 0.0], [-0.7, 0.6]]])
        assert pressure._triangular_diagonals(mats) is not None
        br = pressure.bracket(measure(mats), 1.3, 1e-6)
        assert br.provenance == "triangular" and br.status == "certified"
        assert br.contains(closed_form([1.0, 1.0], mats, 1.3, 0))

    def test_permuted_d3_family_takes_the_route(self):
        rng = np.random.default_rng(8)
        upper = np.triu(rng.uniform(-0.9, 0.9, (2, 3, 3)))
        mats = permuted(upper, (2, 0, 1))
        assert np.any(np.tril(mats, -1) != 0.0)  # not upper triangular as given
        mu, ref = measure(mats), measure(upper)
        for s in (0.6, 1.5, Fraction(5, 2)):
            got = svpressure.bracket(mu, s, 1e-6)
            assert got.provenance == "triangular"
            want = svpressure.bracket(ref, s, 1e-6)
            assert (got.lower, got.upper) == (want.lower, want.upper)
        assert jsr.jsr_bracket(mats).provenance == "triangular"

    @pytest.mark.parametrize("entries", [[0.5], [-0.5, 0.25], [0.0, 0.3, -0.2]])
    def test_d1_measures_take_the_route(self, entries, engine_calls):
        mats = np.array(entries).reshape(-1, 1, 1)
        mu = measure(mats)
        br = pressure.bracket(mu, 0.7, 1e-9)
        assert br.provenance == "triangular"
        assert br.contains(math.log(sum(abs(x) ** 0.7 for x in entries)))
        res = jsr.jsr_bracket(mats)
        assert res.lower == res.upper == max(map(abs, entries))
        res = affinity.affinity_dimension(mu, 1e-6)
        assert res.provenance == "triangular" and res.status == "certified"
        # sum |a|^s = 1 at the dimension
        lo, hi = res.interval
        assert sum(abs(x) ** lo for x in entries) >= 1.0 >= sum(abs(x) ** hi for x in entries)
        assert engine_calls["weighted_sums"] == engine_calls["max_norm_word"] == 0

    def test_one_tiny_entry_closes_a_cycle(self, engine_calls):
        # upper triangular but for one entry 1e-300 below the diagonal, in
        # another atom than the upper entry it pairs with
        mats = np.array([[[0.5, 0.2], [0.0, 0.3]], [[0.4, 0.0], [1e-300, 0.6]]])
        assert pressure._triangular_diagonals(mats) is None
        assert pressure.bracket(measure(mats), 1.0, 0.5).provenance == "norm-power-bound"
        assert jsr.jsr_bracket(mats, eps=0.1).provenance != "triangular"
        assert affinity.affinity_dimension(measure(mats), 0.3).provenance == "trisection"
        assert engine_calls["weighted_sums"] > 0 and engine_calls["max_norm_word"] > 0

    def test_negative_zero_counts_as_zero(self):
        mats = np.array([[[0.5, 0.2], [-0.0, 0.3]], [[0.4, -0.1], [-0.0, 0.6]]])
        assert pressure._triangular_diagonals(mats) is not None
        assert pressure.bracket(measure(mats), 1.0, 1e-6).provenance == "triangular"

    def test_nilpotent_family(self):
        mats = np.array([np.triu(np.full((3, 3), c), 1) for c in (1.0, -2.0)])
        mu = measure(mats)
        for br in (pressure.bracket(mu, 1.0, 0.5), svpressure.bracket(mu, 1.5, 0.5),
                   svpressure.bracket(mu, Fraction(5, 2), 0.5)):
            assert br.status == "minus_infinity" and br.provenance == "triangular"
            assert br.lower == br.upper == -math.inf
        radius = pressure.p_radius_bracket(mu, 2.0, 0.5)
        assert radius.lower == radius.upper == 0.0
        res = jsr.jsr_bracket(mats)
        assert (res.lower, res.upper, res.status) == (0.0, 0.0, "certified")

    def test_zero_and_negative_diagonal_entries(self, engine_calls):
        mats = np.array([[[-0.5, 0.4], [0.0, 0.0]], [[0.0, 0.3], [0.0, -0.25]]])
        weights = [0.8, 1.5]
        mu = measure(mats, weights)
        # columns: 0.8 * 0.5^s and 1.5 * 0.25^s; no k-set with k = 1 carries
        # both a nonzero entry and a nonzero second entry, so P = -inf above 1
        for s in (0.4, 1.0, 2.5):
            br = pressure.bracket(mu, s, 1e-9)
            assert br.contains(max(math.log(0.8 * 0.5 ** s), math.log(1.5 * 0.25 ** s)))
        assert svpressure.bracket(mu, 1.5, 0.1).status == "minus_infinity"
        res = jsr.jsr_bracket(mats)
        assert res.lower == res.upper == 0.5
        # the enumeration route agrees
        ref = engine_norm_bracket(mu, 1.0, 1e-3, WordBudget(max_words=2**14))
        br = pressure.bracket(mu, 1.0, 1e-9)
        assert engine_calls["weighted_sums"] > 0
        assert ref.lower <= br.lower <= br.upper <= ref.upper


class TestRoute:
    def test_d3_lift_example_certifies_fast(self):
        # today's lift route: [-18.81, 0.977] at n = 1 under 3^16 words
        *_, d3 = rng3_triples()
        mu = measure(d3, WEIGHTS3)
        best = math.inf
        for _ in range(5):
            res = svpressure.bracket(mu, Fraction(3, 2), 1e-9)
            best = min(best, res.wall_time)
        assert res.status == "certified" and res.provenance == "triangular"
        assert res.upper - res.lower <= 1e-9
        assert res.contains(closed_form(WEIGHTS3, d3, 1.5, 1))
        assert best < 0.01

    @pytest.mark.parametrize("s", [1.3, math.sqrt(2.0)])
    def test_irrational_and_rational_paths_answer_alike(self, s):
        *_, d3 = rng3_triples()
        mu = measure(d3, WEIGHTS3)
        res = svpressure.bracket(mu, s, 1e-9)
        assert res.provenance == "triangular"
        assert res.contains(closed_form(WEIGHTS3, d3, s, 1))

    def test_scan_and_p_radius_take_the_route(self, engine_calls):
        d2, *_ = rng3_triples()
        mu = measure(d2)
        points, support = jsr.zero_temperature_scan(mu, [1.0, 4.0], eps=1e-6)
        assert all(p.status == "certified" for _, p in points)
        assert support.provenance == "triangular"
        assert pressure.p_radius_bracket(mu, 2.0, 1e-6).provenance == "triangular"
        assert engine_calls["weighted_sums"] == engine_calls["max_norm_word"] == 0

    @pytest.mark.parametrize("mats, root", [
        # P(1) = log 2 + log(1/2) is exactly 0 at the first probe, s = 1
        ([0.5 * np.eye(2)] * 2, 1.0),
        ([np.diag([0.5, 0.25]), np.diag([0.25, 0.5])], None),
        (list(rng3_triples()[2] * 0.5), None),
    ], ids=["root_at_first_probe", "diag_pair", "rng3_d3"])
    def test_affinity_ends_are_certified_by_the_closed_form(self, mats, root):
        mats = np.array(mats)
        mu = measure(mats)
        res = affinity.affinity_dimension(mu, 1e-6)
        lo, hi = res.interval
        assert res.provenance == "triangular" and res.status == "certified"
        assert 0.0 < hi - lo <= 1e-9
        diag = pressure._triangular_diagonals(mats)
        # P >= 0 at lo and P < 0 at hi, each with the rounding radius
        assert pressure._TriangularForm(mu._weights, diag).bounds(lo, int(lo))[0] >= 0.0
        assert pressure._TriangularForm(mu._weights, diag).bounds(hi, int(hi))[1] < 0.0
        if root is not None:
            assert lo < root < hi

    def test_determinant_branch_still_runs_first(self):
        mu = measure([0.8 * np.eye(2)] * 4)
        assert affinity.affinity_dimension(mu, 1e-7).provenance == "determinant"
        assert svpressure.bracket(mu, 2.5, 0.1).provenance == "determinant-branch"


def mp_brackets(mpmath, weights, mats, s, kind, lengths):
    """{n: log S_n} of ||A_w||^s (kind "norm") or phi^s(A_w) at 50 digits."""
    d = mats.shape[1]
    atoms = [mpmath.matrix(m.tolist()) for m in mats]
    out = {}
    for n in lengths:
        terms = []
        for word in itertools.product(range(len(mats)), repeat=n):
            prod = mpmath.eye(d)
            for i in word:
                prod = prod * atoms[i]
            sv = sorted(mpmath.svd_r(prod, compute_uv=False), reverse=True)
            if kind == "norm":
                val = sv[0] ** s
            else:
                k = int(s)
                val = mpmath.fprod(sv[:k]) * (sv[k] ** (s - k) if s > k else 1)
            terms.append(mpmath.fprod(mpmath.mpf(weights[i]) for i in word) * val)
        total = mpmath.fsum(terms)
        out[n] = mpmath.log(total) if total > 0 else -mpmath.inf
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.booleans(),
       st.floats(0.1, 0.95))
def test_closed_forms_match_50_digit_enumeration(seed, d, offdiag, frac):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, (2, d, d)), 1) * (1.0 if offdiag else 0.0)
    signs = rng.choice([-1.0, 1.0], (2, d))
    for i in range(2):
        upper[i][np.diag_indices(d)] = signs[i] * rng.uniform(0.05, 0.95, d)
    mats = permuted(upper, rng.permutation(d))
    weights = rng.uniform(0.5, 1.5, 2)
    mu = measure(mats, weights)
    diag = pressure._triangular_diagonals(mats)
    assert diag is not None
    cases = [("norm", 3.0 * frac, 0)]
    k = int(1 + frac * (d - 1))
    cases.append(("phi", min(k + frac, d - 0.01), k))
    lengths = (1, 2, 3) if d < 4 else (1, 2)
    with mpmath.workdps(50):
        for kind, s, k in cases:
            lo, hi = pressure._TriangularForm(mu._weights, diag).bounds(s, k)
            # the rounding radius: the closed form's exact value lies inside
            pairs = [(S, j) for S in itertools.combinations(range(d), k)
                     for j in range(d) if j not in S]
            exact = max(
                mpmath.log(mpmath.fsum(
                    mpmath.mpf(w) * mpmath.fprod(abs(mpmath.mpf(m[i, i])) for i in S)
                    * abs(mpmath.mpf(m[j, j])) ** (mpmath.mpf(s) - k)
                    for w, m in zip(weights, mats)))
                for S, j in pairs)
            assert lo <= exact <= hi
            # U_n from enumeration is above the value; for diagonal atoms, S_n
            # is at most the number of (S, j) pairs times the largest pair's
            # power, so U_n - log(pairs) / n is below it
            logs = mp_brackets(mpmath, weights, mats, s, kind, lengths)
            for n in lengths:
                assert lo <= logs[n] / n
                if not offdiag:
                    assert logs[n] / n - mpmath.log(len(pairs)) / n <= hi
            # L_1 of the norm product inequality is below the value
            if kind == "norm":
                (snd,) = mp_brackets(mpmath, weights, mats, s, kind, (d,)).values()
                log_k = pressure.log_norm_constant(d, s)
                assert snd - log_k - (d - 1) * logs[1] <= hi


def mp_closed_form_root(mpmath, weights, mats):
    """The affinity dimension of a triangular or determinant-branch family
    at the working precision: bisection of the Falconer-Miao closed form on
    [0, d], or of log sum w_i |det A_i|^(s/d) above d."""
    d = mats.shape[1]
    w = [mpmath.mpf(x) for x in weights]
    dets = [abs(mpmath.det(mpmath.matrix(m.tolist()))) for m in mats]
    if mpmath.fsum(wi * di for wi, di in zip(w, dets)) >= 1:
        def p(s):
            return mpmath.log(mpmath.fsum(wi * di ** (s / d) for wi, di in zip(w, dets)))
        lo, hi = mpmath.mpf(d), mpmath.mpf(2 * d)
        while p(hi) >= 0:
            hi *= 2
    else:
        diag = [[abs(mpmath.mpf(m[i, i])) for i in range(d)] for m in mats]

        def p(s):
            k = min(int(mpmath.floor(s)), d)
            t = s - k
            best = -mpmath.inf
            for S in itertools.combinations(range(d), k):
                for j in [None] if t == 0 else [j for j in range(d) if j not in S]:
                    total = mpmath.fsum(
                        wi * mpmath.fprod(a[m] for m in S) * (1 if j is None else a[j] ** t)
                        for wi, a in zip(w, diag))
                    if total > 0:
                        best = max(best, mpmath.log(total))
            return best
        lo, hi = mpmath.mpf(0), mpmath.mpf(d)
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if p(mid) >= 0 else (lo, mid)
    return lo


def assert_closed_form_root(mats, weights, eps, max_evaluations):
    """affinity_dimension's closed-form branch on (weights, mats): a 50-digit
    root inside the interval, each end certified by its own widened test,
    and the closed-form evaluations (counted by a spy) within the bound."""
    mpmath = pytest.importorskip("mpmath")
    mu = measure(mats, weights)
    d = mu.dimension
    calls = []
    real = pressure._TriangularForm.bounds

    def spy(self, s, k):
        calls.append(s)
        return real(self, s, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pressure._TriangularForm, "bounds", spy)
        res = affinity.affinity_dimension(mu, eps)
    lo, hi = res.interval
    assert res.status == "certified" and hi - lo <= min(eps, 1e-9)
    assert res.steps == len(calls) <= max_evaluations
    if res.provenance == "determinant":
        dets = affinity._det_excess(mu)[1]  # the determinants the branch used
        form = pressure._TriangularForm(mu._weights, np.array(dets)[:, None])
        # d is the branch's own exact end; every other end has its sign
        assert lo == d or form.bounds(lo / d, 0)[0] > 0.0
        assert hi == lo == d or form.bounds(hi / d, 0)[1] < 0.0
    else:
        assert res.provenance == "triangular"
        form = pressure._TriangularForm(mu._weights, pressure._triangular_diagonals(mats))
        assert lo == 0.0 or form.bounds(lo, int(lo))[0] > 0.0
        assert hi == d or form.bounds(hi, int(hi))[1] < 0.0
    with mpmath.workdps(50):
        root = mp_closed_form_root(mpmath, weights, mats)
        assert mpmath.mpf(lo) <= root <= mpmath.mpf(hi), (res.interval, root)
    return res


@pytest.mark.parametrize("mats, weights, eps, branch", [
    # the benchmark's closed-form families and the exact root at s = d
    ([0.5 * np.eye(2)] * 3, None, 0.2, "triangular"),
    ([np.diag([0.5, 0.25]), np.diag([-0.5, 0.25]), np.diag([0.5, 1.0 / 16.0]),
      np.diag([0.5, -1.0 / 16.0])], None, 0.01, "triangular"),
    ([0.8 * np.eye(2)] * 4, None, 1e-7, "determinant"),
    ([0.5 * np.eye(2)], [4.0], 0.5, "determinant"),
], ids=["moran3", "carpet", "det4", "exact_root_at_d"])
def test_bench_closed_form_roots(mats, weights, eps, branch):
    mats = np.array(mats)
    res = assert_closed_form_root(mats, weights or [1.0] * len(mats), eps, 12)
    assert res.provenance == branch
    if weights:  # 4 * |det(0.5 I)| = 1 exactly: the root is d, unprobed
        assert res.interval == (2.0, 2.0) and res.steps == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]), st.booleans(),
       st.integers(2, 3))
def test_random_closed_form_roots(seed, d, offdiag, n_atoms):
    # a bisection of [0, d] to 2^-30 took 31 or 32 evaluations
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, (n_atoms, d, d)), 1) * (1.0 if offdiag else 0.0)
    for m in upper:
        m[np.diag_indices(d)] = rng.choice([-1.0, 1.0], d) * rng.uniform(0.05, 0.95, d)
    upper *= rng.uniform(0.3, 0.99) / max(np.linalg.norm(m, 2) for m in upper)
    mats = permuted(upper, rng.permutation(d))
    assert_closed_form_root(mats, list(rng.uniform(0.5, 1.5, n_atoms)), 1e-9, 30)
