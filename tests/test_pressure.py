import math
import time

import numpy as np
import pytest

from conftest import (
    brute_norm_sum, engine_norm_bracket, log_sum, norm_sandwich, random_measure,
)
from matpress import _engine
from matpress.errors import BudgetExhaustedError, InvalidInputError
from matpress.measure import FiniteMatrixMeasure, WordBudget, scale_measure
from matpress.pressure import (
    _Sums,
    bracket,
    log_norm_constant,
    norm_constant,
    p_radius_bracket,
)


HALF_I = FiniteMatrixMeasure([(1.0, [[0.5, 0.0], [0.0, 0.5]])])

# two commuting diagonal contractions; M(mu,1) = log(max column sum) = log(5/6)
DIAG_PAIR = FiniteMatrixMeasure(
    [
        (1.0, [[0.5, 0.0], [0.0, 1.0 / 3.0]]),
        (1.0, [[0.25, 0.0], [0.0, 0.5]]),
    ]
)
DIAG_PAIR_M = math.log(5.0 / 6.0)

NILPOTENT_PAIR = FiniteMatrixMeasure(
    [
        (1.0, [[0.0, 1.0], [0.0, 0.0]]),
        (1.0, [[0.0, 2.0], [0.0, 0.0]]),
    ]
)


class TestNormConstant:
    def test_integer_exponents_are_exact_floats(self):
        # collapsing K into a single power of d keeps these exact
        assert norm_constant(2, 1.0) == 32.0
        assert norm_constant(2, 0.5) == 16.0
        assert norm_constant(2, 2.0) == 256.0
        assert norm_constant(3, 2.0) == 59049.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.3, 1.0, 1.7, 3.2])
    def test_log_agrees_with_linear(self, d, s):
        assert log_norm_constant(d, s) == pytest.approx(
            math.log(norm_constant(d, s)), rel=1e-12
        )

    def test_log_survives_overflow(self):
        assert norm_constant(2, 5000.0) == math.inf
        assert math.isfinite(log_norm_constant(2, 5000.0))

    def test_rejects_bad_dimension_or_exponent(self):
        with pytest.raises(InvalidInputError):
            norm_constant(0, 1.0)
        with pytest.raises(InvalidInputError):
            norm_constant(2.5, 1.0)
        with pytest.raises(InvalidInputError):
            norm_constant(2, 0.0)
        with pytest.raises(InvalidInputError):
            log_norm_constant(2, -1.0)
        with pytest.raises(InvalidInputError):
            log_norm_constant(2, math.inf)


class TestSingleContraction:
    """For one atom c*I the pressure is exactly s*log(c)."""

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_upper_bound_closed_form(self, s):
        assert log_sum(HALF_I, "norm", s, 1) == pytest.approx(
            s * math.log(0.5), abs=1e-12
        )

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_lower_bound_closed_form(self, s):
        expect = s * math.log(0.5) - log_norm_constant(2, s)
        assert norm_sandwich(HALF_I, s, 1)[0][1] == pytest.approx(expect, abs=1e-12)

    def test_bracket_contains_exact_value(self, engine_calls):
        res = engine_norm_bracket(HALF_I, 1.0, 0.5)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.contains(math.log(0.5))
        assert res.width < 0.5


class TestDiagPair:
    def test_upper_bounds(self):
        assert log_sum(DIAG_PAIR, "norm", 1.0, 1) == 0.0
        assert log_sum(DIAG_PAIR, "norm", 1.0, 2) / 2 == pytest.approx(
            0.5 * math.log(5.0 / 6.0), rel=1e-12
        )

    def test_lower_bound_n1(self):
        expect = math.log(5.0 / 6.0) - math.log(32.0)
        assert norm_sandwich(DIAG_PAIR, 1.0, 1)[0][1] == pytest.approx(expect, rel=1e-12)

    def test_sandwich_brackets_true_value_at_every_length(self):
        for _, lo, up in norm_sandwich(DIAG_PAIR, 1.0, 8):
            assert lo <= DIAG_PAIR_M <= up
        for n in range(1, 9):
            assert log_sum(DIAG_PAIR, "norm", 1.0, n) / n >= DIAG_PAIR_M


class TestBoundsAgainstBruteForce:
    @pytest.mark.parametrize("s", [0.7, 1.0, 1.9])
    def test_upper_matches_direct_enumeration(self, rng, s):
        mu = random_measure(rng, n_atoms=3)
        for n in (1, 2, 3):
            ref = math.log(brute_norm_sum(mu.weights, mu.matrices, n, s)) / n
            assert log_sum(mu, "norm", s, n) / n == pytest.approx(ref, rel=1e-10)

    def test_every_lower_below_every_upper(self, rng):
        # the two families bound one number from opposite sides, so any
        # cross pairing must be ordered
        for s in (0.5, 1.3):
            mu = random_measure(rng, n_atoms=2)
            los = [lo for _, lo, _ in norm_sandwich(mu, s, 3)]
            ups = [log_sum(mu, "norm", s, n) / n for n in (1, 2, 3)]
            assert max(los) <= min(ups) + 1e-9


class TestMinusInfinity:
    def test_detects_shared_kernel_nilpotents(self):
        # M = -inf exactly when the length-d sum vanishes, the test that
        # pressure's bracket and svpressure's continuity diagnostic make
        sums = _Sums(WordBudget(), 1)
        assert sums.get(NILPOTENT_PAIR, "norm", 1.0, 2) == -math.inf
        assert sums.get(DIAG_PAIR, "norm", 1.0, 2) > -math.inf

    def test_bracket_verdict_costs_exactly_the_length_d_sum(self, engine_calls):
        res = engine_norm_bracket(NILPOTENT_PAIR, 1.0, 0.5)
        assert engine_calls["weighted_sums"] == 1
        assert res.status == "minus_infinity"
        assert res.lower == -math.inf
        assert res.upper == -math.inf
        assert res.words_evaluated == 4  # 2 atoms, words of length d = 2

    def test_width_of_degenerate_bracket_is_zero(self):
        # the family is triangular: this checks the closed form's verdict only
        res = bracket(NILPOTENT_PAIR, 1.0, 0.5)
        assert res.width == 0.0
        assert res.contains(-math.inf)


class TestSums:
    def test_held_sketches_are_kept_per_measure(self, monkeypatch):
        # one store serving two measures: each measure's first held exponent
        # at length 8 is exact and leaves its own sketch, so a later exponent
        # there is bounded around that measure's sum, not the other's
        monkeypatch.setattr(_engine, "_row_cap", lambda d: 16)
        rng = np.random.default_rng(3)
        mus = [random_measure(rng), random_measure(rng)]
        sums = _Sums(WordBudget(), 1)
        for s in (1.0, 1.3):
            for mu in mus:
                lo, hi = sums.get(mu, "held", s, 8)
                v = float(_engine.weighted_sums(mu, 8, "phi", [s], WordBudget())[0])
                tol = 1e-12 * (1.0 + abs(v))  # two reductions round apart by a few u
                assert lo - tol <= v <= hi + tol, (s, lo, v, hi)
                if s == 1.0:
                    assert lo == hi == v
        assert all(8 in sums.tables[id(mu)] for mu in mus)
        assert sums.words == 4 * 2**8

    @pytest.mark.parametrize("kind", ["norm", "phi", "max", "held"])
    def test_the_clock_starts_with_the_store(self, kind):
        sums = _Sums(WordBudget(wall_clock_cap=1e-9), 1)
        time.sleep(1e-3)
        with pytest.raises(BudgetExhaustedError) as err:
            sums.get(DIAG_PAIR, kind, 1.0, 1)
        assert err.value.reason == "wall_clock"
        assert sums.store == {} and sums.words == 0


class TestScalingCovariance:
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_endpoints_shift_by_s_log_c(self, rng, s):
        mu = random_measure(rng)
        nu = scale_measure(mu, 0.5)
        shift = s * math.log(0.5)
        for n in (1, 2, 3):
            assert log_sum(nu, "norm", s, n) / n == pytest.approx(
                log_sum(mu, "norm", s, n) / n + shift, abs=1e-9
            )
        for (_, lo_nu, up_nu), (_, lo_mu, up_mu) in zip(
                norm_sandwich(nu, s, 3), norm_sandwich(mu, s, 3)):
            assert lo_nu == pytest.approx(lo_mu + shift, abs=1e-9)
            assert up_nu == pytest.approx(up_mu + shift, abs=1e-9)


class TestBracket:
    def test_certifies_diag_pair(self, engine_calls):
        res = engine_norm_bracket(DIAG_PAIR, 1.0, 0.75)
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "certified"
        assert res.width < 0.75
        assert res.contains(DIAG_PAIR_M)
        assert res.n_used >= 1
        assert res.words_evaluated > 0
        assert res.wall_time >= 0.0
        assert res.provenance == "norm-power-bound"

    def test_budget_exhaustion_keeps_a_valid_bracket(self, engine_calls):
        res = engine_norm_bracket(DIAG_PAIR, 1.0, 1e-9, budget=WordBudget(max_word_length=4))
        assert engine_calls["weighted_sums"] > 0
        assert res.status == "budget_exhausted"
        assert res.lower > -math.inf
        assert res.lower <= DIAG_PAIR_M <= res.upper

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            bracket(DIAG_PAIR, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            bracket(DIAG_PAIR, -1.0, 0.5)
        with pytest.raises(InvalidInputError):
            bracket([(1.0, np.eye(2))], 1.0, 0.5)

    def test_tighter_eps_never_widens(self, engine_calls):
        wide = engine_norm_bracket(DIAG_PAIR, 1.0, 1.5)
        tight = engine_norm_bracket(DIAG_PAIR, 1.0, 0.3)
        assert engine_calls["weighted_sums"] > 0
        assert tight.width <= wide.width + 1e-15
        assert tight.lower >= wide.lower - 1e-15
        assert tight.upper <= wide.upper + 1e-15


class TestPRadius:
    # Scalar and nilpotent families are triangular: apart from the budget
    # test, which turns the closed form off, these check the closed form.
    def test_single_scalar_atom_is_exact(self):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        res = p_radius_bracket(mu, 2.0, 0.5)
        assert res.status == "certified"
        assert res.upper == pytest.approx(0.5, rel=1e-12)
        assert res.lower <= res.upper

    def test_two_equal_scalar_atoms(self):
        mats = [0.3 * np.eye(2), 0.3 * np.eye(2)]
        res = p_radius_bracket(mats, 1.0, 0.5)
        assert res.status == "certified"
        # S_n = 0.6^n exactly, so the upper family is constant at the answer
        assert res.upper == pytest.approx(0.3, abs=1e-12)
        assert res.lower <= 0.3 <= res.upper + 1e-12

    def test_accepts_iterable_of_matrices(self):
        res = p_radius_bracket([0.4 * np.eye(2)], 3.0, 1.0)
        assert res.upper == pytest.approx(0.4, rel=1e-12)

    def test_nilpotent_family_maps_to_zero(self):
        mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 2.0], [0.0, 0.0]])]
        res = p_radius_bracket(mats, 1.0, 0.5)
        assert res.status == "minus_infinity"
        assert res.lower == 0.0
        assert res.upper == 0.0

    def test_radius_past_the_float_range_maps_to_valid_ends(self):
        # the 1-radius of this atom is its spectral radius 2e308: the log
        # bracket is finite, and its upper end maps to inf, not an OverflowError
        res = p_radius_bracket([np.full((2, 2), 1e308)], 1, 0.5)
        assert res.status == "certified"
        assert 0.0 < res.lower < math.inf and res.upper == math.inf

    def test_rejects_weighted_measures(self):
        mu = FiniteMatrixMeasure([(2.0, 0.5 * np.eye(2))])
        with pytest.raises(InvalidInputError):
            p_radius_bracket(mu, 1.0, 0.5)

    def test_rejects_p_below_one(self):
        mu = FiniteMatrixMeasure([(1.0, 0.5 * np.eye(2))])
        with pytest.raises(InvalidInputError):
            p_radius_bracket(mu, 0.99, 0.5)

    def test_budget_status_passes_through(self, enumeration_only):
        mats = [0.3 * np.eye(2), 0.3 * np.eye(2)]
        res = p_radius_bracket(mats, 1.0, 1e-9, budget=WordBudget(max_word_length=4))
        assert enumeration_only["weighted_sums"] > 0
        assert res.status == "budget_exhausted"
        assert res.lower <= 0.3 <= res.upper + 1e-12
