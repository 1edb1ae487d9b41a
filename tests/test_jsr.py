import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import random_measure, word_products
from matpress import _engine
from matpress.errors import InvalidInputError
from matpress.jsr import (
    ScanPoint,
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
    return _sweep(*_coerce_set(mats), eps, budget or WordBudget(), use_spectral_floor, 4096, 1)


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

    def test_bracket_is_that_of_the_distinct_atoms(self):
        budget = WordBudget(max_word_length=8, max_words=3**8)
        # a floor cap of 27 admits words up to length 3 over three letters,
        # as 8 does over two
        aab = _sweep(*_coerce_set([self.A, self.A, self.B]), 1e-9, budget, True, 27, 1)
        ab = _sweep(*_coerce_set([self.A, self.B]), 1e-9, budget, True, 8, 1)
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


def reference_spectral_floor(mats, cap):
    """The spectral floor word by word, one eigvals call per product."""
    n_atoms = len(mats)
    d = mats[0].shape[0]
    best = 0.0
    prods = [np.eye(d)]
    length = 0
    depth_cap = max(1, int(math.log2(cap))) if cap >= 1 else 0
    while length < depth_cap and n_atoms ** (length + 1) <= cap:
        length += 1
        prods = [p @ m for p in prods for m in mats]
        for prod in prods:
            if not np.all(np.isfinite(prod)):
                continue
            rho = float(np.max(np.abs(np.linalg.eigvals(prod))))
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
            # long powers overflow to inf, and inf * 0 to nan
            [np.array([[1e120, 1e120], [0.0, 1e120]]), np.diag([1e-3, 0.0])],
            [NILPOTENT],
            list(np.diag([1.0, 0.05, 0.01]) @ np.random.default_rng(3).uniform(-1.0, 1.0, (3, 3, 3))),
            [GENERIC_MATS[0], GENERIC_MATS[0], GENERIC_MATS[1]],
            [0.5 * np.eye(3)[[2, 0, 1]], -0.5 * np.eye(3)[[1, 0, 2]]],
            [0.9 * np.linalg.qr(g)[0] for g in np.random.default_rng(5).standard_normal((2, 2, 2))],
            # squares of these entries underflow, so the norm bound keeps them
            list(1e-160 * np.random.default_rng(9).uniform(-1.0, 1.0, (2, 2, 2))),
            [np.array([[0.5]]), np.array([[-0.75]]), np.array([[0.0]])],
        ],
        ids=["w4", "uniform3", "one_atom", "zero", "zero_and_planar", "overflow",
             "nilpotent", "dominated", "repeated_atom", "tied", "orthogonal", "tiny", "d1"],
    )
    @pytest.mark.parametrize("cap", [1, 64, 4096])
    def test_batched_floor_matches_per_word_loop(self, mats, cap):
        # the pruned floor over the distinct atoms, its depth metered on the
        # nominal atom count, against eigvals of every word over every copy
        mu, n_atoms = _coerce_set(mats)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _spectral_floor(mu._mats, cap, n_atoms)
            want = reference_spectral_floor(mats, cap)
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_norm_bound_skips_most_eigvals(self, monkeypatch):
        mats = list(np.random.default_rng(7).standard_normal((2, 3, 3)))
        rows = []
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: rows.append(len(a)) or real(a))
        _spectral_floor(mats, 4096, 2)
        # 2 + 4 + ... + 2^12 = 8190 words; lengths after the first run only
        # the products whose Frobenius norm reaches the floor so far
        assert rows[0] == 2 and sum(rows) < 8190 // 10


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
        # eigvals(BIG) is inf, which the spectral floor skips: otherwise the
        # clamp lo <= up would certify [inf, inf]
        res = jsr_bracket([self.BIG], budget=WordBudget(max_words=2**12))
        assert (res.lower, res.upper) == (sys.float_info.max, math.inf)
        assert res.status == "budget_exhausted"

    def test_scan_keeps_valid_linear_ends(self):
        mu = FiniteMatrixMeasure.from_matrices([self.BIG])
        out = zero_temperature_scan(mu, [1.0])
        (p,) = out.points
        assert math.isfinite(p.m_lower) and math.isfinite(p.m_upper)
        assert p.radius_lower == math.exp(p.m_lower) and p.radius_upper == math.inf
        assert (out.jsr.lower, out.jsr.upper) == (sys.float_info.max, math.inf)


class TestScan:
    # Every family here is triangular, so these check the scan's mapping of
    # the closed forms' brackets, not the enumeration.
    def test_scalar_atom_upper_is_exact_everywhere(self):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        out = zero_temperature_scan(mu)
        assert [p.s for p in out.points] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        for p in out.points:
            assert p.radius_upper == pytest.approx(0.5, rel=1e-12)
            assert p.radius_lower <= 0.5 <= p.radius_upper + 1e-12
        assert out.jsr.lower <= 0.5 <= out.jsr.upper

    def test_radius_endpoints_are_the_mapped_m_endpoints(self):
        mu = FiniteMatrixMeasure([(1.0, m) for m in DIAG_MATS])
        out = zero_temperature_scan(mu, s_list=[1.0, 2.0])
        for p in out.points:
            assert p.radius_lower == pytest.approx(math.exp(p.m_lower / p.s), rel=1e-12)
            assert p.radius_upper == pytest.approx(math.exp(p.m_upper / p.s), rel=1e-12)

    def test_sandwich_against_jsr_bounds(self):
        mu = FiniteMatrixMeasure([(1.0, m) for m in DIAG_MATS])
        out = zero_temperature_scan(mu)
        up1 = math.exp(log_max_norm(DIAG_MATS, 1))
        lo1 = bochi_lower(DIAG_MATS, 1)
        mass = mu.total_mass
        for p in out.points:
            assert p.radius_upper >= lo1 - 1e-9
            assert p.radius_lower <= mass ** (1.0 / p.s) * up1 + 1e-9

    def test_vanishing_measure_scans_to_zero(self):
        mu = FiniteMatrixMeasure([(1.0, NILPOTENT)])
        out = zero_temperature_scan(mu, s_list=[1.0, 4.0])
        for p in out.points:
            assert p.status == "minus_infinity"
            assert p.radius_lower == p.radius_upper == 0.0
        assert out.jsr.lower == out.jsr.upper == 0.0

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
