import math
from fractions import Fraction

import numpy as np
import pytest

from matpress import _engine
from matpress.affinity import (
    AffinityResult,
    affinity_dimension,
    meets_ambient_dimension,
    solve_determinant_dimension,
    trisect_step,
)
from matpress.errors import InvalidInputError
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


class TestTrisectStep:
    def test_lower_test_fires_on_moran_triple(self):
        # both interior points are left of log3/log2, so only the lower
        # test at t1 = 2/3 can fire
        out = trisect_step((0, 2), THREE_HALVES)
        assert out == (Fraction(2, 3), Fraction(2))
        assert isinstance(out[0], Fraction) and isinstance(out[1], Fraction)

    def test_upper_test_fires_at_exact_thirds(self):
        out = trisect_step((Fraction(6, 5), Fraction(489, 250)), THREE_HALVES)
        assert out == (Fraction(6, 5), Fraction(213, 125))
        assert float(out[1]) == 1.704  # exact thirds, no drift

    def test_iterated_steps_nest_and_shrink(self):
        interval = (Fraction(0), Fraction(2))
        for _ in range(3):
            out = trisect_step(interval, TWO_THIRDS)
            assert out is not None
            assert interval[0] <= out[0] < out[1] <= interval[1]
            assert out[1] - out[0] <= Fraction(3, 4) * (interval[1] - interval[0])
            assert out[0] < Fraction(DIM_TWO_THIRDS).limit_denominator(10**6) < out[1]
            interval = out

    def test_snaps_awkward_probe_for_3d(self):
        # t2 = 41/30 needs the lift constant, whose denominator cap forces
        # the probe onto 4/3; the returned endpoint shows the snap
        out = trisect_step((Fraction(1, 10), Fraction(2)), PAIR_3D)
        assert out == (Fraction(1, 10), Fraction(4, 3))

    def test_upper_fires_at_integer_probe_for_3d(self):
        out = trisect_step((0, 3), PAIR_3D)
        assert out == (Fraction(0), Fraction(1))

    def test_budget_too_small_returns_none(self):
        assert trisect_step((0, 2), THREE_HALVES, budget=WordBudget(max_words=1)) is None

    def test_rejects_bad_interval(self):
        with pytest.raises(InvalidInputError):
            trisect_step((-1, 2), THREE_HALVES)
        with pytest.raises(InvalidInputError):
            trisect_step((1, 1), THREE_HALVES)
        with pytest.raises(InvalidInputError):
            trisect_step((0, 2), "not a measure")


class TestAffinityDimension:
    def test_moran_pair_certifies_quickly(self):
        res = affinity_dimension(TWO_THIRDS, 1.0)
        assert res.status == "certified"
        assert res.branch == "trisection"
        assert res.width <= 1.0
        assert res.interval[0] <= DIM_TWO_THIRDS <= res.interval[1]

    def test_moran_triple_certifies_at_moderate_eps(self):
        res = affinity_dimension(THREE_HALVES, 1.2)
        assert res.status == "certified"
        assert res.width <= 1.2
        assert res.interval[0] <= DIM_THREE_HALVES <= res.interval[1]
        assert res.steps >= 1
        assert res.words_evaluated > 0

    def test_3d_moran_pair(self):
        res = affinity_dimension(PAIR_3D, 0.8)
        assert res.status == "certified"
        assert res.width <= 0.8
        assert res.interval[0] <= DIM_PAIR_3D <= res.interval[1]

    def test_history_intervals_nest(self):
        res = affinity_dimension(THREE_HALVES, 1.2)
        lo_prev, hi_prev = 0.0, 2.0
        for lo, hi in res.history:
            assert lo >= lo_prev and hi <= hi_prev
            lo_prev, hi_prev = lo, hi

    def test_budget_exhaustion_keeps_containment(self):
        res = affinity_dimension(
            THREE_HALVES, 0.05, budget=WordBudget(max_words=100_000)
        )
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


def test_each_length_is_enumerated_once_per_run(monkeypatch):
    # the ROADMAP's planar triple; rounds of probes revisit lengths up to 10,
    # and 3^10 rows pass the small-level cache, so length 10 needs the
    # run's own table
    mu = FiniteMatrixMeasure([
        (1.0, np.array([[0.6, 0.2], [0.1, 0.4]])),
        (1.0, np.array([[0.3, -0.2], [0.25, 0.5]])),
        (1.0, np.array([[0.45, 0.0], [0.3, 0.2]])),
    ])
    built = []
    real = _engine._unit_arrays

    def spy(cache, parts, unit):
        built.append((sum(parts), unit))
        return real(cache, parts, unit)

    monkeypatch.setattr(_engine, "_unit_arrays", spy)
    res = affinity_dimension(mu, 0.05, budget=WordBudget(max_words=3**10))
    assert len(built) == len(set(built))
    assert max(n for n, _ in built) == 10
    # bits of the run before the lengths' tables were kept
    h = float.fromhex
    assert res.status == "budget_exhausted" and res.steps == 14
    assert res.interval == (h("0x1.55c8p-1"), h("0x1.64c0p+0"))
    assert res.history == (
        (0.0, 1.5),
        (0.5, h("0x1.74p+0")),
        (h("0x1.3dp-1"), h("0x1.64c0p+0")),
        (h("0x1.55c8p-1"), h("0x1.64c0p+0")),
        (h("0x1.55c8p-1"), h("0x1.64c0p+0")),
    )
    assert res.words_evaluated == 273138
    # only small levels stay on the measure once the run returns
    for cache in mu._engine_caches.values():
        for chunks in cache.sig_cache.values():
            assert sum(cols.shape[1] for cols, _, _ in chunks) <= _engine._LEVEL_ROWS
