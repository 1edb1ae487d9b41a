import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_phi_sum, log_sum, random_measure, sandwich
from matpress import _engine, linalg, pressure, svpressure
from matpress.errors import InvalidInputError
from matpress.measure import (
    FiniteMatrixMeasure,
    WordBudget,
    lifted_measure,
)
from matpress.svpressure import (
    CONTINUOUS,
    DISCONTINUOUS,
    INCONCLUSIVE,
    bracket,
    continuity_at_one,
    log_planar_constant,
    planar_constant,
)
from oracle import det_pressure, hat_measure_2d


# dets 1/4 and 1/6, so the determinant pressure at s = 2 is log(1/8 + 1/6)
DET_PAIR = FiniteMatrixMeasure(
    [
        (0.5, [[0.5, 0.0], [0.0, 0.5]]),
        (1.0, [[0.0, 1.0], [-1.0 / 6.0, 0.0]]),
    ]
)

NILPOTENT_PAIR = FiniteMatrixMeasure(
    [
        (1.0, [[0.0, 1.0], [0.0, 0.0]]),
        (1.0, [[0.0, 2.0], [0.0, 0.0]]),
    ]
)

# scalar 3x3 atoms: every phi power sum has the closed form (a^s + b^s)^n
SCALAR_3D = FiniteMatrixMeasure(
    [(1.0, 0.4 * np.eye(3)), (1.0, 0.3 * np.eye(3))]
)


def scalar_3d_pressure(s):
    return math.log(0.4**s + 0.3**s)


def contains_to_rounding(res, x, tol=1e-9):
    # endpoints carry float rounding from the engine's own summation order,
    # so closed-form oracles may land a ulp outside an exact-tight endpoint
    return res.lower - tol <= x <= res.upper + tol


def engine_bracket(mu, s, eps, budget=None):
    """svpressure.bracket's planar, lift or irrational route for 1 < s < d,
    whatever the family: pressure._bracket on the _route row, or
    _bracket_irrational where s has none."""
    budget = budget or WordBudget()
    row = svpressure._route(mu.dimension, s)
    if row is None:
        return svpressure._bracket_irrational(mu, float(s), eps, budget, 1)
    block, log_k, provenance = row
    return pressure._bracket(mu, "phi", float(s), block, log_k, eps, budget, 1, provenance)


def lift_row(d, t):
    """(d', log K) of the lift row at t."""
    return dict(svpressure._lift_rows(d))[t]


class TestPlanarConstant:
    def test_piecewise_values(self):
        assert planar_constant(0.5) == 16.0
        assert planar_constant(1.0) == 32.0
        assert planar_constant(1.5) == 16.0
        assert planar_constant(2.0) == 1.0
        assert planar_constant(7.0) == 1.0

    def test_branches_agree_at_one(self):
        assert 2.0 ** (3.0 + 2.0) == 2.0 ** (7.0 - 2.0) == planar_constant(1.0)

    def test_matches_norm_constant_below_one(self):
        # phi^s = ||.||^s for s <= 1, and so do the constants
        for s in (0.25, 0.5, 1.0):
            assert planar_constant(s) == pressure.norm_constant(2, s)

    @pytest.mark.parametrize("s", [1.25, 1.5, 1.75])
    def test_mirrors_norm_constant_through_two_minus_s(self, s):
        assert planar_constant(s) == pytest.approx(
            pressure.norm_constant(2, 2.0 - s), rel=1e-14
        )

    def test_log_agrees(self):
        assert log_planar_constant(1.5) == pytest.approx(math.log(16.0), rel=1e-14)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(InvalidInputError):
            planar_constant(0.0)
        with pytest.raises(InvalidInputError):
            planar_constant(math.inf)


class TestLiftParams:
    """The (d', log K) of the lift rows, and the exponents that have none."""

    def test_half_integer_3d(self):
        d_prime, log_k = lift_row(3, Fraction(3, 2))
        assert d_prime == 9
        assert math.exp(log_k) == pytest.approx(9.0**7 * math.sqrt(10.0), rel=1e-12)

    def test_third_3d(self):
        assert lift_row(3, Fraction(4, 3))[0] == 27

    def test_exact_float_is_accepted(self):
        assert svpressure._route(3, 1.5) == svpressure._route(3, Fraction(3, 2)) == (
            *lift_row(3, Fraction(3, 2)), svpressure.PROVENANCE_LIFT)

    def test_inexact_float_is_rejected(self):
        assert svpressure._route(3, 4.0 / 3.0) is None  # not exactly a third in binary

    def test_denominator_above_cap_is_rejected(self):
        assert svpressure._route(3, Fraction(8, 7)) is None

    def test_exponent_outside_unit_to_d_is_rejected(self):
        assert svpressure._lift_rows(2) == {}
        assert svpressure._route(3, Fraction(3)) is None
        assert svpressure._route(3, Fraction(7, 2)) is None

    def test_dimension_cap(self):
        assert svpressure._route(6, Fraction(5, 2)) is None  # C(6,2)*C(6,3) = 300


@pytest.mark.parametrize("d", range(3, 10))
def test_lift_rows_are_every_rational_whose_lift_fits(d):
    # the keys: every reduced a/q in (1, d) with q <= 6 and d' <= 256,
    # descending; each row's d' is the shape of linalg.lift, its log K the
    # constant's formula to the bit, and the lift's norm gives phi^t
    want = []
    for q in range(1, 7):
        for a in range(q + 1, d * q):
            k, p = divmod(a, q)
            if math.gcd(a, q) == 1 and math.comb(d, k) ** (q - p) * math.comb(d, k + 1) ** p <= 256:
                want.append(Fraction(a, q))
    rows = svpressure._lift_rows(d)
    assert list(rows) == sorted(want, reverse=True)
    atom = np.random.default_rng(d).uniform(-1.0, 1.0, (d, d))
    for t, (d_prime, log_k) in rows.items():
        k, p, q = int(t), (t - int(t)).numerator, t.denominator
        assert log_k == (2.0 + (d_prime + 1) / q) * math.log(d_prime) + (
            (q - 1) / q) * math.log(d_prime + 1)
        lifted = linalg.lift(atom, k, p, q)
        assert lifted.shape == (d_prime, d_prime)
        assert linalg.operator_norm(lifted) ** (1.0 / q) == pytest.approx(
            linalg.phi(atom, float(t)), rel=1e-12)


class TestDetPressure:
    def test_closed_form_at_ambient_dimension(self):
        assert det_pressure(DET_PAIR, 2.0) == pytest.approx(
            math.log(7.0 / 24.0), rel=1e-12
        )

    def test_closed_form_above_ambient_dimension(self):
        expect = math.log(0.5 * 0.25**1.25 + (1.0 / 6.0) ** 1.25)
        assert det_pressure(DET_PAIR, 2.5) == pytest.approx(expect, rel=1e-12)

    def test_all_singular_gives_minus_inf(self):
        assert det_pressure(NILPOTENT_PAIR, 2.0) == -math.inf

    def test_singular_atoms_simply_drop_out(self):
        mu = FiniteMatrixMeasure(
            [(1.0, [[0.5, 0.0], [0.0, 0.5]]), (1.0, [[0.0, 1.0], [0.0, 0.0]])]
        )
        assert det_pressure(mu, 2.0) == pytest.approx(math.log(0.25), rel=1e-12)

    def test_rejects_s_below_dimension(self):
        with pytest.raises(InvalidInputError):
            det_pressure(DET_PAIR, 1.5)

    def test_multiplicativity_makes_every_upper_bound_exact(self):
        for n in (1, 2, 3):
            assert log_sum(DET_PAIR, "phi", 2.5, n) / n == pytest.approx(
                det_pressure(DET_PAIR, 2.5), rel=1e-9
            )


class TestBounds:
    @pytest.mark.parametrize("s", [1.2, 1.5, 1.8])
    def test_upper_matches_direct_enumeration(self, rng, s):
        mu = random_measure(rng, n_atoms=3)
        for n in (1, 2, 3):
            ref = math.log(brute_phi_sum(mu.weights, mu.matrices, n, s)) / n
            assert log_sum(mu, "phi", s, n) / n == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("s", [1.25, 1.5, 1.75])
    def test_planar_lower_equals_norm_lower_of_hat_measure(self, rng, s):
        # the 2D inequality is the norm inequality seen through the
        # determinant-tilted companion at exponent 2-s
        mu = random_measure(rng, n_atoms=2)
        planar = sandwich(mu, "phi", s, 2, log_planar_constant(s), 3)
        hat = sandwich(hat_measure_2d(mu, s), "norm", 2.0 - s, 2,
                       pressure.log_norm_constant(2, 2.0 - s), 3)
        for (_, lo, up), (_, hat_lo, hat_up) in zip(planar, hat):
            assert lo == pytest.approx(hat_lo, abs=1e-12)
            assert up == pytest.approx(hat_up, abs=1e-12)

    def test_planar_lower_below_upper(self, rng):
        mu = random_measure(rng, n_atoms=2)
        los = [lo for _, lo, _ in sandwich(mu, "phi", 1.5, 2, log_planar_constant(1.5), 3)]
        ups = [log_sum(mu, "phi", 1.5, n) / n for n in (1, 2, 3)]
        assert max(los) <= min(ups) + 1e-9

    def test_planar_lower_needs_2d(self):
        # the route table gives the planar inequality to d = 2 alone
        assert svpressure._route(2, 1.5)[2] == svpressure.PROVENANCE_PLANAR
        assert svpressure._route(3, 1.5)[2] == svpressure.PROVENANCE_LIFT

    def test_lift_lower_agrees_with_lifted_measure_route(self, rng):
        mu = random_measure(rng, n_atoms=2, d=3, scale=0.5)
        d_prime, log_k = lift_row(3, Fraction(3, 2))
        nu = lifted_measure(mu, 1, 1, 2)
        assert d_prime == 9
        lift = sandwich(mu, "phi", 1.5, 9, log_k, 1)
        alt = sandwich(nu, "norm", 1.0 / 2, 9, log_k, 1)
        assert lift[0][1] == pytest.approx(alt[0][1], abs=1e-7)
        assert lift[0][2] == pytest.approx(alt[0][2], abs=1e-7)

    def test_lift_lower_below_upper(self, rng):
        mu = random_measure(rng, n_atoms=2, d=3, scale=0.5)
        d_prime, log_k = lift_row(3, Fraction(3, 2))
        lo = sandwich(mu, "phi", 1.5, d_prime, log_k, 1)[0][1]
        for n in (1, 2):
            assert lo <= log_sum(mu, "phi", 1.5, n) / n + 1e-9

    def test_lift_lower_evaluates_at_the_nearest_double(self, monkeypatch):
        # k + p/q in floats is 1 + 0.6666666666666666, one ulp below
        # float(5/3); the lift constant holds at the exact rational
        exponents = []
        real = _engine.weighted_sums

        def spy(mu, n, kind, s_values, *args, **kwargs):
            exponents.extend(s_values)
            return real(mu, n, kind, s_values, *args, **kwargs)

        monkeypatch.setattr(_engine, "weighted_sums", spy)
        mu = FiniteMatrixMeasure([(1.0, [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])])
        assert lift_row(3, Fraction(5, 3))[0] == 27
        res = bracket(mu, Fraction(5, 3), 1e-3, budget=WordBudget(max_word_length=27))
        assert res.provenance == "lift-sv-bound"
        assert math.isfinite(res.lower)
        assert exponents and all(s == float(Fraction(5, 3)) for s in exponents)


class TestBracketDispatch:
    def test_determinant_branch_is_exact_and_instant(self):
        # the one-step closed form, widened by its rounding radius only
        res = bracket(DET_PAIR, 2.5, 0.1)
        assert res.status == "certified"
        assert res.lower < det_pressure(DET_PAIR, 2.5) < res.upper
        assert res.width < 1e-13
        assert res.n_used == 1
        assert res.words_evaluated == DET_PAIR.n_atoms
        assert res.provenance == "determinant-branch"

    def test_determinant_branch_contains_the_exact_value(self):
        # the rounded closed form lands 7.1e-17 above the value of the
        # computed determinants, so a zero-width bracket at it misses
        mpmath = pytest.importorskip("mpmath")
        mats = [np.array([[0.7, 0.2], [0.1, 0.9]]), np.array([[0.3, -0.5], [0.4, 0.8]])]
        mu = FiniteMatrixMeasure([(1.0, mats[0]), (0.6, mats[1])])
        res = bracket(mu, 2.5, 0.1)
        with mpmath.workdps(50):
            dets = [mpmath.mpf(linalg._det(m)) for m in mats]
            exact = mpmath.log(dets[0] ** 1.25 + mpmath.mpf(0.6) * dets[1] ** 1.25)
            assert det_pressure(mu, 2.5) > exact
            assert res.lower < exact < res.upper
        assert res.status == "certified" and res.width < 1e-13

    def test_irrational_determinant_lower_end_is_widened(self):
        # every rational s+ >= 2.99 with denominator <= 6 is 3 = d: the lower
        # end is the determinant closed form there (atoms in the unit ball,
        # so no rescaling), below the value of the computed determinants,
        # which the rounded closed form overshoots by 4.6e-16
        mpmath = pytest.importorskip("mpmath")
        mu = random_measure(np.random.default_rng(2), n_atoms=2, d=3, scale=0.5)
        res = engine_bracket(mu, 2.99, 0.1, WordBudget(max_word_length=1))
        with mpmath.workdps(50):
            exact = mpmath.log(mpmath.fsum(
                mpmath.mpf(w) * abs(mpmath.mpf(linalg._det(m)))
                for w, m in zip(mu._weights, mu._mats)))
            assert det_pressure(mu, 3.0) > exact
            assert exact - 1e-13 < res.lower < exact
        assert res.lower < res.upper

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_determinant_branch_rejects_an_overflowing_determinant(self):
        mu = FiniteMatrixMeasure([(1.0, 1e200 * np.eye(2)), (1.0, 0.5 * np.eye(2))])
        with pytest.raises(InvalidInputError, match="overflows"):
            bracket(mu, 2.5, 0.1)

    def test_determinant_branch_at_s_equal_d(self):
        res = bracket(DET_PAIR, 2.0, 0.1)
        assert res.lower == pytest.approx(math.log(7.0 / 24.0), rel=1e-12)

    def test_determinant_branch_minus_infinity(self):
        mu = FiniteMatrixMeasure([(1.0, [[0.0, 1.0], [0.0, 0.0]])])
        res = bracket(mu, 2.5, 0.1)
        assert res.status == "minus_infinity"
        assert res.lower == res.upper == -math.inf

    def test_below_one_delegates_to_norm_pressure(self, rng):
        mu = random_measure(rng)
        sv = bracket(mu, 0.8, 0.4)
        nm = pressure.bracket(mu, 0.8, 0.4)
        assert sv.lower == nm.lower
        assert sv.upper == nm.upper
        assert sv.n_used == nm.n_used
        assert sv.status == nm.status
        assert sv.provenance == nm.provenance == "connecting-word"

    def test_planar_scalar_atom(self, engine_calls):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        res = engine_bracket(mu, 1.5, 0.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.provenance == "planar-sv-bound"
        assert res.upper == pytest.approx(1.5 * math.log(0.5), rel=1e-12)
        assert res.contains(1.5 * math.log(0.5))

    def test_planar_minus_infinity(self, engine_calls):
        res = engine_bracket(NILPOTENT_PAIR, 1.5, 0.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "minus_infinity"
        assert res.lower == res.upper == -math.inf
        assert res.provenance == "planar-sv-bound"

    def test_lift_scalar_atom_certifies(self, engine_calls):
        mu = FiniteMatrixMeasure([(1.0, 0.4 * np.eye(3))])
        res = engine_bracket(mu, Fraction(3, 2), 0.5, budget=WordBudget(max_word_length=400))
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.provenance == "lift-sv-bound"
        assert res.upper == pytest.approx(1.5 * math.log(0.4), rel=1e-12)
        assert contains_to_rounding(res, 1.5 * math.log(0.4))

    def test_lift_two_atoms_stays_valid_when_budget_runs_out(self, engine_calls):
        # the d' = 9 lower family is nominally capped at tiny n for two
        # atoms; the bracket must still contain the closed-form value
        res = engine_bracket(SCALAR_3D, Fraction(3, 2), 0.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "budget_exhausted"
        assert contains_to_rounding(res, scalar_3d_pressure(1.5))

    def test_lift_nilpotent_single_atom(self, engine_calls):
        shift = np.zeros((3, 3))
        shift[0, 1] = shift[1, 2] = 1.0
        res = engine_bracket(FiniteMatrixMeasure([(1.0, shift)]), Fraction(3, 2), 0.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "minus_infinity"

    @pytest.mark.parametrize("s", [Fraction(5, 2), 2.5])
    def test_lift_graded_atom_is_not_minus_infinity(self, s, engine_calls):
        # every word up to length 3 has sigma_3 >= 1e-300 > 0, so neither the
        # lift route nor the irrational route may call the pressure -inf
        mu = FiniteMatrixMeasure([(1.0, np.diag([1.0, 1.0, 1e-100]))])
        res = engine_bracket(mu, s, 1e-3, budget=WordBudget(max_word_length=3))
        assert engine_calls["weighted_sums"] > 0
        assert res.status != "minus_infinity"
        assert contains_to_rounding(res, 0.5 * math.log(1e-100))

    @pytest.mark.parametrize("s", [Fraction(5, 2), 2.5])
    def test_graded_atom_keeps_sigma_3_past_underflow(self, s, engine_calls):
        # length-4 products have sigma_3 / sigma_1 = 1e-400, below the range
        # of a scaled float matrix; sigma_3 from the carried log|det| keeps
        # the upper endpoint finite, where it was -inf below a finite lower
        mu = FiniteMatrixMeasure([(1.0, np.diag([1.0, 1.0, 1e-100]))])
        res = engine_bracket(mu, s, 0.05)
        assert engine_calls["weighted_sums"] > 0
        assert math.isfinite(res.upper) and res.lower <= res.upper
        assert contains_to_rounding(res, 0.5 * math.log(1e-100))

    @pytest.mark.parametrize("tiny", [1e-100, 1e-200])
    def test_graded_planar_atom_keeps_sigma_2_past_underflow(self, tiny, engine_calls):
        # sigma_2 / sigma_1 of a length-n word is tiny^n, which leaves the
        # double range at n = 4 (1e-100) or n = 2 (1e-200); sigma_2 from the
        # carried log|det| keeps the upper end finite, where it was -inf
        # ("certified" below a finite lower end, or "minus_infinity")
        mu = FiniteMatrixMeasure([(1.0, np.diag([1.0, tiny]))])
        res = engine_bracket(mu, 1.5, 0.05)
        assert engine_calls["weighted_sums"] > 0
        assert math.isfinite(res.upper) and res.lower <= res.upper
        assert res.status != "minus_infinity"
        assert res.status != "certified" or math.isfinite(res.lower)
        assert contains_to_rounding(res, 0.5 * math.log(tiny))

    def test_irrational_exponent_certifies_with_near_rational(self, engine_calls):
        s = 1.5 + 1e-4
        res = engine_bracket(SCALAR_3D, s, 1.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.provenance == "lift-sv-bound"
        assert contains_to_rounding(res, scalar_3d_pressure(s))

    def test_irrational_exponent_valid_on_exhaustion(self, engine_calls):
        s = math.sqrt(2.0)
        res = engine_bracket(SCALAR_3D, s, 0.1)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "budget_exhausted"
        assert res.lower > -math.inf
        assert contains_to_rounding(res, scalar_3d_pressure(s))

    def test_integer_exponent_types_take_the_same_route(self):
        # a numpy integer is as exact as an int: it took the irrational route
        mu = random_measure(np.random.default_rng(5), n_atoms=2, d=3)
        budget = WordBudget(max_words=2**12)
        got = [bracket(mu, s, 0.05, budget=budget) for s in (2, np.int64(2), Fraction(2))]
        assert len({dataclasses.replace(r, wall_time=0.0) for r in got}) == 1
        assert got[0].provenance == "lift-sv-bound" and got[0].n_used == 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            bracket(DET_PAIR, 1.5, 0.0)
        with pytest.raises(InvalidInputError):
            bracket(DET_PAIR, 0.0, 0.5)
        with pytest.raises(InvalidInputError):
            bracket("not a measure", 1.5, 0.5)


class TestContinuityAtOne:
    def test_rank_drop_atom_creates_a_jump(self):
        mu = FiniteMatrixMeasure([(1.0, np.eye(2)), (1.0, [[1.0, 0.0], [0.0, 0.0]])])
        assert continuity_at_one(mu, 0.6) == DISCONTINUOUS

    def test_nilpotent_atom_does_not(self):
        mu = FiniteMatrixMeasure([(1.0, np.eye(2)), (1.0, [[0.0, 1.0], [0.0, 0.0]])])
        assert continuity_at_one(mu, 0.6) == CONTINUOUS

    def test_invertible_measure_is_continuous(self, rng):
        mu = random_measure(rng, n_atoms=2, scale=0.6)
        assert continuity_at_one(mu, 1.0) == CONTINUOUS

    def test_all_singular_measures(self):
        # restriction is empty; verdict rests on the -inf detection
        assert continuity_at_one(NILPOTENT_PAIR, 0.5) == CONTINUOUS
        single = FiniteMatrixMeasure([(1.0, [[1.0, 0.0], [0.0, 0.0]])])
        assert continuity_at_one(single, 0.5) == DISCONTINUOUS

    def test_tiny_budget_is_inconclusive(self):
        mu = FiniteMatrixMeasure([(1.0, np.eye(2)), (1.0, [[1.0, 0.0], [0.0, 0.0]])])
        verdict = continuity_at_one(mu, 0.6, budget=WordBudget(max_word_length=2))
        assert verdict == INCONCLUSIVE

    def test_all_singular_measure_under_short_budget_is_inconclusive(self):
        # the -inf test needs length 2, which the budget forbids
        mu = FiniteMatrixMeasure([(1.0, [[0.5, 0.0], [0.0, 0.0]]), (1.0, [[0.0, 0.3], [0.0, 0.0]])])
        verdict = continuity_at_one(mu, 0.1, budget=WordBudget(max_word_length=1))
        assert verdict == INCONCLUSIVE

    def test_rejects_non_planar_input(self):
        with pytest.raises(InvalidInputError):
            continuity_at_one(SCALAR_3D, 0.5)
        mu = FiniteMatrixMeasure([(1.0, np.eye(2))])
        with pytest.raises(InvalidInputError):
            continuity_at_one(mu, 0.0)
