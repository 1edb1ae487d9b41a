import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import random_measure, word_products
from matpress import _engine, jsr, pressure
from matpress.errors import InvalidInputError
from matpress.jsr import (
    _coerce_set,
    _spectral_floor,
    _sweep,
    jsr_bracket,
    zero_temperature_scan,
)
from matpress.linalg import operator_norm
from matpress.measure import FiniteMatrixMeasure, WordBudget


DIAG_MATS = [
    np.diag([0.5, 1.0 / 3.0]),
    np.diag([0.25, 0.5]),
]
NILPOTENT = np.array([[0.0, 2.0], [0.0, 0.0]])


def engine_jsr(mats, eps=None, budget=None, use_spectral_floor=True):
    """jsr_bracket's enumeration route, whatever the family."""
    return _sweep(*_coerce_set(mats), eps, budget or WordBudget(), use_spectral_floor, 1)


def log_max_norm(mats, n):
    """The engine's log max word norm at length n over ``mats``."""
    return _engine.max_norm_word(FiniteMatrixMeasure.from_matrices(mats), n, WordBudget())


def bochi_lower(mats, n):
    """The sweep's lower end under a length-n d budget, spectral floor off:
    the running max of the norm-gap bounds of steps 1 to n."""
    budget = WordBudget(max_word_length=n * mats[0].shape[0])
    return engine_jsr(mats, budget=budget, use_spectral_floor=False).lower


# not triangular in any coordinate order, so every entry point enumerates
GENERIC_MATS = [
    np.array([[0.6, 0.3], [-0.2, 0.5]]),
    np.array([[0.4, -0.1], [0.3, 0.7]]),
]
ENTRY_POINTS = {
    "bracket": lambda src: jsr_bracket(src, eps=1e-3, budget=WordBudget(max_words=2**10)),
}


def result_bits(res):
    """A result without its wall time, for bit-for-bit comparison."""
    return dataclasses.replace(res, wall_time=0.0) if dataclasses.is_dataclass(res) else res


class TestInput:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_list_stack_and_weighted_measure_agree_bitwise(self, entry):
        call = ENTRY_POINTS[entry]
        want = result_bits(call(GENERIC_MATS))
        unit = FiniteMatrixMeasure.from_matrices(GENERIC_MATS)
        weighted = FiniteMatrixMeasure.from_matrices(GENERIC_MATS, [2.5, 0.125])
        for src in (np.stack(GENERIC_MATS), unit, weighted):
            assert result_bits(call(src)) == want

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_empty_and_mixed_dimensions(self, entry):
        for bad in ([], [np.eye(2), np.eye(3)]):
            with pytest.raises(InvalidInputError):
                ENTRY_POINTS[entry](bad)

    def test_caller_measure_keeps_no_engine_cache(self, engine_calls):
        # the undeduplicated levels live on a per-call copy and die with it
        mu = FiniteMatrixMeasure.from_matrices(GENERIC_MATS, [2.5, 0.125])
        for call in ENTRY_POINTS.values():
            call(mu)
        assert engine_calls["max_norm_word"] > 0
        assert mu._engine_caches == {}
        zero_temperature_scan(mu, [1.0, 2.0], eps=1.0, budget=WordBudget(max_words=2**8))
        assert ("levels", False) not in mu._engine_caches


class TestRepeatedAtoms:
    """Atoms equal under == are enumerated once; budgets, the spectral
    floor's cap and words_evaluated keep the nominal count."""

    A, B = GENERIC_MATS

    def test_bracket_is_that_of_the_distinct_atoms(self, monkeypatch):
        budget = WordBudget(max_word_length=8, max_words=3**8)
        # a floor cap of 27 admits words up to length 3 over three letters,
        # as 8 does over two
        monkeypatch.setattr(jsr, "_FLOOR_CAP", 27)
        aab = _sweep(*_coerce_set([self.A, self.A, self.B]), 1e-9, budget, True, 1)
        monkeypatch.setattr(jsr, "_FLOOR_CAP", 8)
        ab = _sweep(*_coerce_set([self.A, self.B]), 1e-9, budget, True, 1)
        assert aab.n_used == 4
        # steps 1-4 read lengths 1, 2, 3, 4, 6, 8, each counted once
        assert aab.words_evaluated == sum(3**m for m in (1, 2, 3, 4, 6, 8))
        assert result_bits(aab) == dataclasses.replace(
            result_bits(ab), words_evaluated=aab.words_evaluated)

    def test_budget_refuses_the_nominal_length(self):
        budget = WordBudget(max_words=3**5)  # 2^6 distinct words would fit
        aab = jsr_bracket([self.A, self.A, self.B], budget=budget)
        ab = jsr_bracket([self.A, self.B], budget=budget)
        # step n reads lengths n and 2n: 3^4 words fit, 3^6 do not; length
        # 2, read at both steps, counts once
        assert (aab.n_used, ab.n_used) == (2, 3)
        assert aab.status == "budget_exhausted"
        assert aab.words_evaluated == 3 + 3**2 + 3**4

    @pytest.mark.parametrize("order", ["AAB", "ABA", "BAA", "ABBA", "CDC"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_max_is_that_of_every_copy(self, order, n):
        # the distinct atoms, first copies in input order, give the bits
        # of the enumeration over every copy
        c, d = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 3, 3))
        atoms = {"A": self.A, "B": self.B, "C": c, "D": d}
        mats = [atoms[k] for k in order]
        mu, n_atoms = _coerce_set(mats)
        assert n_atoms == len(order)
        assert [m.tobytes() for m in mu.matrices] == [
            atoms[k].tobytes() for k in dict.fromkeys(order)]
        want = log_max_norm(mats, n)
        assert _engine.max_norm_word(mu, n, WordBudget()).hex() == want.hex()


class TestUpper:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scalar_atom(self, n):
        assert math.exp(log_max_norm([0.7 * np.eye(2)], n) / n) == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diag_pair_max_entry(self, n):
        # both atoms have top entry 1/2, so every length's max norm is 2^-n
        val = math.exp(log_max_norm(DIAG_MATS, n) / n)
        assert val == pytest.approx(0.5, rel=1e-12)
        best = max(operator_norm(prod) for _, prod in word_products(DIAG_MATS, n))
        assert best == pytest.approx(val**n, rel=1e-12)

    def test_nilpotent(self):
        assert log_max_norm([NILPOTENT], 1) == math.log(2.0)
        assert log_max_norm([NILPOTENT], 2) == -math.inf

    def test_matches_direct_enumeration(self, rng):
        mats = [rng.uniform(-0.9, 0.9, (2, 2)) for _ in range(2)]
        for n in (1, 2, 3):
            ref = max(
                np.linalg.norm(prod, 2) for _, prod in word_products(mats, n)
            ) ** (1.0 / n)
            assert math.exp(log_max_norm(mats, n) / n) == pytest.approx(ref, rel=1e-10)


class TestLowerBochi:
    def test_scalar_atom_closed_form(self):
        # (c^d / (d^(d+1) c^(d-1)))^(1/1) = c / d^(d+1)
        assert bochi_lower([0.5 * np.eye(2)], 1) == pytest.approx(0.5 / 8.0, rel=1e-12)
        assert bochi_lower([0.5 * np.eye(3)], 1) == pytest.approx(0.5 / 81.0, rel=1e-12)

    def test_diag_pair_closed_form(self):
        # sup norms are (1/2)^m at every length m, so the bound at step n
        # is 0.5 * 8^(-1/n), largest at the last step
        expect = ((0.5**4) / (8.0 * 0.5**2)) ** 0.5
        assert bochi_lower(DIAG_MATS, 2) == pytest.approx(expect, rel=1e-12)

    def test_vanishing_products_give_zero(self):
        assert bochi_lower([NILPOTENT], 1) == 0.0

    def test_lower_never_exceeds_upper(self, rng):
        for _ in range(5):
            mats = [rng.uniform(-0.9, 0.9, (2, 2)) for _ in range(2)]
            for n in (1, 2, 3):
                lo = bochi_lower(mats, n)
                for m in (1, 2, 3):
                    assert lo <= math.exp(log_max_norm(mats, m) / m) + 1e-9


def renormalised(mant, exp):
    """(mantissa, exponent) of 2^exp * mant with max |entry| in [0.5, 1)."""
    top = np.max(np.abs(mant))
    if top == 0.0:
        return mant, exp
    e = int(np.frexp(top)[1])
    return np.ldexp(mant, -e), exp + e


def times(a, b):
    """a @ b with entry (i, k) summing its j terms left to right."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out = out + a[:, j:j + 1] * b[j:j + 1]
    return out


def reference_spectral_floor(mats, cap, depth):
    """The spectral floor word by word over every copy, each word's product
    formed left to right and renormalised by a power of two after each
    letter, one eigvals call per product, its rho rescaled by ldexp."""
    n_atoms = len(mats)
    best = 0.0
    prods = [(np.eye(mats[0].shape[0]), 0)]
    length = 0
    while length < depth and n_atoms ** (length + 1) <= cap:
        length += 1
        prods = [renormalised(times(p, m), e) for p, e in prods for m in mats]
        for mant, exp in prods:
            try:
                rho = math.ldexp(float(np.max(np.abs(np.linalg.eigvals(mant)))), exp)
            except OverflowError:
                continue  # rho is past the float range
            if rho > 0.0:
                best = max(best, rho ** (1.0 / length))
    return best


class TestSpectralFloor:
    @pytest.mark.parametrize(
        "mats",
        [
            list(np.random.default_rng(7).standard_normal((2, 3, 3))),
            list(np.random.default_rng(11).uniform(-1.0, 1.0, (3, 3, 3))),
            [np.array([[0.0, 1.0], [0.5, 0.0]])],
            [np.zeros((3, 3)), np.zeros((3, 3))],
            [np.zeros((2, 2)), np.array([[0.6, 0.2], [0.1, 0.4]])],
            # long powers have a rho past the float range
            [np.array([[1e120, 1e120], [0.0, 1e120]]), np.diag([1e-3, 0.0])],
            [NILPOTENT],
            list(np.diag([1.0, 0.05, 0.01]) @ np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3))),
            [GENERIC_MATS[0], GENERIC_MATS[0], GENERIC_MATS[1]],
            [0.5 * np.eye(3)[[2, 0, 1]], -0.5 * np.eye(3)[[1, 0, 2]]],
            [0.9 * np.linalg.qr(g)[0] for g in np.random.default_rng(5).standard_normal((2, 2, 2))],
            # products and squares of these entries underflow unscaled
            list(1e-160 * np.random.default_rng(9).uniform(-1.0, 1.0, (2, 2, 2))),
            [np.array([[0.5]]), np.array([[-0.75]]), np.array([[0.0]])],
        ],
        ids=["w4", "uniform3", "one_atom", "zero", "zero_and_planar", "overflow",
             "nilpotent", "dominated", "repeated_atom", "tied", "orthogonal", "tiny", "d1"],
    )
    @pytest.mark.parametrize("cap", [1, 64, 4096])
    def test_batched_floor_matches_per_word_loop(self, mats, cap, monkeypatch):
        # the pruned floor over the distinct atoms' cached levels, its depth
        # metered on the nominal atom count, against eigvals of every word
        # over every copy
        depth = max(1, int(math.log2(cap)))
        monkeypatch.setattr(jsr, "_FLOOR_CAP", cap)
        monkeypatch.setattr(jsr, "_FLOOR_DEPTH", depth)
        mu, n_atoms = _coerce_set(mats)
        got = _spectral_floor(mu, n_atoms)
        want = reference_spectral_floor(mats, cap, depth)
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_floor_stops_at_the_cached_top_level(self, monkeypatch):
        # with a 16-row cap two atoms cache levels 1 to 3 only
        monkeypatch.setattr(_engine, "_row_cap", lambda d: 16)
        mats = list(np.random.default_rng(7).standard_normal((2, 3, 3)))
        mu, n_atoms = _coerce_set(mats)
        got = _spectral_floor(mu, n_atoms)
        assert _engine._cache_for(mu, dedup=False).top == 3
        assert got.hex() == reference_spectral_floor(mats, 4096, 3).hex()

    def test_norm_bound_skips_most_eigvals(self, monkeypatch):
        mats = list(np.random.default_rng(7).standard_normal((2, 3, 3)))
        rows = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or real(a))
        _spectral_floor(FiniteMatrixMeasure.from_matrices(mats), 2)
        # 2 + 4 + ... + 2^12 = 8190 words; lengths after the first run only
        # the products whose cached sigma_1 reaches the floor so far
        assert rows[0] == 2 and sum(rows) < 8190 // 10


W3_TRIPLE = [
    np.array([[0.6, 0.2], [0.1, 0.4]]),
    np.array([[0.3, -0.2], [0.25, 0.5]]),
    np.array([[0.45, 0.0], [0.3, 0.2]]),
]


@pytest.mark.parametrize("mats, top, sigma_levels", [
    # the floor reads levels 1-7 (3^7 <= 4096 words); the sweep reads
    # lengths 1-6, 8 and 10, which is level 9 times the atoms for the
    # triple and a level of its own for the two distinct atoms of (A, A, B)
    (W3_TRIPLE, 9, list(range(1, 10))),
    ([W3_TRIPLE[0], W3_TRIPLE[0], W3_TRIPLE[1]], 10, [1, 2, 3, 4, 5, 6, 7, 8, 10]),
], ids=["w3_triple", "aab"])
def test_floor_and_sweep_build_each_level_and_its_sigma_1_once(
        mats, top, sigma_levels, monkeypatch):
    caches, lefts, sigma_rows = [], [], []
    real_cache, real_product, real_sigma = (
        _engine._cache_for, _engine._product_rows, _engine._sigma_cols)

    def cache_for(obj, dedup):
        caches.append(real_cache(obj, dedup))
        return caches[-1]

    def product_rows(lm, rm):
        lefts.append(lm)
        return real_product(lm, rm)

    def sigma_cols(rows, *args, **kwargs):
        sigma_rows.append(rows)
        return real_sigma(rows, *args, **kwargs)

    monkeypatch.setattr(_engine, "_cache_for", cache_for)
    monkeypatch.setattr(_engine, "_product_rows", product_rows)
    monkeypatch.setattr(_engine, "_sigma_cols", sigma_cols)
    res = jsr_bracket(mats, eps=1e-3, budget=WordBudget(max_words=3**10))
    assert res.provenance == "spectral-floor" and res.n_used == 5
    (cache,) = {id(c): c for c in caches}.values()
    assert not cache.dedup and cache.top == top
    level = {id(cache.levels[m][0]): m for m in cache.levels}
    # level m + 1 is built as level m times the atoms, once
    assert [level.get(id(rows)) for rows in lefts] == list(range(1, top))
    # a sigma_1 column per level read, the floor's and the sweep's alike
    read = [level[id(rows)] for rows in sigma_rows if id(rows) in level]
    assert sorted(read) == sigma_levels


def test_a_long_jsr_run_with_workers_opens_no_process(split_sizes, monkeypatch):
    # max_norm_word prunes on its running best, so it runs in-process: even
    # with workers=4 and a work rule under which a power sum of the same
    # length splits, the JSR sweep forks nothing
    split_sizes.lower_work(1 << 10)
    rng = np.random.default_rng(3)
    mats = rng.uniform(-1.0, 1.0, (3, 2, 2))
    parts = []
    real = _engine.max_norm_word

    def spy(ms, n, budget, clock=None):
        parts.append(len(_engine._cache_for(ms, dedup=False).parts_for(n)))
        return real(ms, n, budget, clock)

    monkeypatch.setattr(_engine, "max_norm_word", spy)
    budget = WordBudget(max_words=3**12)
    res = jsr_bracket(mats, eps=1e-12, budget=budget, workers=4)
    assert res.status == "budget_exhausted" and max(parts) > 1
    assert split_sizes == []
    mu = FiniteMatrixMeasure.from_matrices(mats)
    _engine.weighted_sums(mu, 12, "norm", [1.0], budget, workers=4)
    assert split_sizes and max(split_sizes) > 1  # a sum at length 12 does split


class TestBracket:
    def test_diag_pair_is_pinned_by_the_spectral_floor(self, engine_calls):
        res = engine_jsr(DIAG_MATS)
        assert engine_calls["max_norm_word"] > 0
        assert res.status == "certified"
        assert res.lower == res.upper == 0.5
        assert res.provenance == "spectral-floor"

    def test_bochi_only_still_certifies_at_loose_eps(self, engine_calls):
        res = engine_jsr(DIAG_MATS, eps=0.2, use_spectral_floor=False)
        assert engine_calls["max_norm_word"] > 0
        assert res.status == "certified"
        assert res.provenance == "bochi-lower-bound"
        assert res.lower < 0.5 <= res.upper
        assert res.upper - res.lower <= 0.2

    def test_nilpotent_singleton_is_exactly_zero(self, engine_calls):
        res = engine_jsr([NILPOTENT])
        assert engine_calls["max_norm_word"] > 0
        assert res.status == "certified"
        assert res.lower == res.upper == 0.0

    def test_single_matrix_contains_spectral_radius(self):
        # rho([[0,1],[1/2,0]]) = sqrt(1/2)
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        res = jsr_bracket([a], eps=1e-6)
        assert res.lower - 1e-12 <= math.sqrt(0.5) <= res.upper + 1e-12

    def test_rotation_keeps_endpoints_ordered(self):
        # the floor comes from eigenvalues, the upper from norms; on an
        # orthogonal matrix both sit at 1 up to ulps and must not cross
        theta = 1.0
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        res = jsr_bracket([rot], eps=1e-6)
        assert res.lower <= res.upper
        assert res.status == "certified"
        assert res.lower == pytest.approx(1.0, abs=1e-9)
        assert res.upper == pytest.approx(1.0, abs=1e-9)

    def test_accepts_measure_input(self):
        # the family is triangular: the bracket is the closed form's
        mu = FiniteMatrixMeasure([(1.0, m) for m in DIAG_MATS])
        res = jsr_bracket(mu)
        assert res.lower <= 0.5 <= res.upper

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidInputError):
            jsr_bracket(DIAG_MATS, eps=0.0)

    def test_budget_below_length_d_sweeps_the_upper_end_alone(self, engine_calls):
        res = engine_jsr(DIAG_MATS, budget=WordBudget(max_word_length=1))
        # no length n*d is feasible: the upper end sweeps alone, and its
        # length-1 value, the largest atom norm 0.5, meets the spectral floor
        assert engine_calls["max_norm_word"] == 1
        assert (res.lower, res.upper, res.n_used) == (0.5, 0.5, 1)
        assert res.status == "certified" and res.provenance == "spectral-floor"


class TestNearTheFloatMaximum:
    # finite atoms whose radius 2e308 is past the float range: the log ends
    # are finite, and their linear images are inf above and the largest
    # float below, not an OverflowError
    BIG = np.full((2, 2), 1e308)

    def test_jsr_bracket_keeps_valid_linear_ends(self):
        # rho(BIG) = 2e308 rescales to inf, which the spectral floor skips:
        # otherwise the clamp lo <= up would certify [inf, inf]
        res = jsr_bracket([self.BIG], budget=WordBudget(max_words=2**12))
        assert (res.lower, res.upper) == (sys.float_info.max, math.inf)
        assert res.status == "budget_exhausted"

    def test_scan_keeps_valid_linear_ends(self):
        mu = FiniteMatrixMeasure.from_matrices([self.BIG])
        ((s, p),), support = zero_temperature_scan(mu, [1.0])
        assert math.isfinite(p.lower) and math.isfinite(p.upper)
        assert radius(s, p) == (math.exp(p.lower), math.inf)
        assert (support.lower, support.upper) == (sys.float_info.max, math.inf)


def radius(s, br):
    """A scan point's M bracket mapped through x -> exp(x/s), as printed."""
    return pressure._exp_end(br.lower / s, False), pressure._exp_end(br.upper / s, True)


class TestScan:
    # Every family here is triangular, so these check the scan's mapping of
    # the closed forms' brackets, not the enumeration.
    def test_scalar_atom_upper_is_exact_everywhere(self):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        points, support = zero_temperature_scan(mu)
        assert [s for s, _ in points] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        for s, p in points:
            lo, up = radius(s, p)
            assert up == pytest.approx(0.5, rel=1e-12)
            assert lo <= 0.5 <= up + 1e-12
        assert support.lower <= 0.5 <= support.upper

    def test_radius_endpoints_are_the_mapped_m_endpoints(self):
        mu = FiniteMatrixMeasure([(1.0, m) for m in DIAG_MATS])
        points, _ = zero_temperature_scan(mu, s_list=[1.0, 2.0])
        for s, p in points:
            lo, up = radius(s, p)
            assert lo == pytest.approx(math.exp(p.lower / s), rel=1e-12)
            assert up == pytest.approx(math.exp(p.upper / s), rel=1e-12)

    def test_sandwich_against_jsr_bounds(self):
        mu = FiniteMatrixMeasure([(1.0, m) for m in DIAG_MATS])
        points, _ = zero_temperature_scan(mu)
        up1 = math.exp(log_max_norm(DIAG_MATS, 1))
        lo1 = bochi_lower(DIAG_MATS, 1)
        mass = mu.total_mass
        for s, p in points:
            lo, up = radius(s, p)
            assert up >= lo1 - 1e-9
            assert lo <= mass ** (1.0 / s) * up1 + 1e-9

    def test_vanishing_measure_scans_to_zero(self):
        mu = FiniteMatrixMeasure([(1.0, NILPOTENT)])
        points, support = zero_temperature_scan(mu, s_list=[1.0, 4.0])
        for s, p in points:
            assert p.status == "minus_infinity"
            assert radius(s, p) == (0.0, 0.0)
        assert support.lower == support.upper == 0.0

    def test_rejects_bad_grids(self):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        with pytest.raises(InvalidInputError):
            zero_temperature_scan(mu, s_list=[2.0, 1.0])
        with pytest.raises(InvalidInputError):
            zero_temperature_scan(mu, s_list=[-1.0, 2.0])
        with pytest.raises(InvalidInputError):
            zero_temperature_scan(mu, s_list=[])
        with pytest.raises(InvalidInputError):
            zero_temperature_scan("not a measure")
