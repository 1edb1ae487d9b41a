import math

import numpy as np
import pytest

from conftest import brute_norm_sum, brute_phi_sum, random_measure
from matpress.errors import BudgetExhaustedError, InvalidInputError
from matpress.measure import (
    FiniteMatrixMeasure,
    LogValue,
    WordBudget,
    lifted_measure,
    norm_kernel,
    phi_kernel,
    restrict_invertible,
    scale_measure,
    weighted_power_sum,
)
from oracle import hat_measure_2d


DIAG_PAIR = [
    (1.0, [[0.5, 0.0], [0.0, 1.0 / 3.0]]),
    (1.0, [[0.25, 0.0], [0.0, 0.5]]),
]


class TestConstruction:
    def test_atoms_round_trip(self):
        mu = FiniteMatrixMeasure(DIAG_PAIR)
        assert mu.dimension == 2
        assert mu.n_atoms == 2
        assert mu.total_mass == 2.0
        assert mu.has_unit_weights
        w, m = mu.atoms[1]
        assert w == 1.0
        np.testing.assert_array_equal(m, DIAG_PAIR[1][1])

    def test_from_matrices_defaults_to_unit_weights(self):
        mu = FiniteMatrixMeasure.from_matrices([np.eye(2), 2 * np.eye(2)])
        assert mu.weights.tolist() == [1.0, 1.0]

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidInputError):
            FiniteMatrixMeasure([(0.0, np.eye(2))])
        with pytest.raises(InvalidInputError):
            FiniteMatrixMeasure([(-1.0, np.eye(2))])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InvalidInputError):
            FiniteMatrixMeasure([(1.0, np.eye(2)), (1.0, np.eye(3))])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            FiniteMatrixMeasure([])

    def test_returned_arrays_are_detached_copies(self):
        mu = FiniteMatrixMeasure(DIAG_PAIR)
        view = mu.matrices
        view[0, 0, 0] = 7.0
        assert mu.matrices[0, 0, 0] == 0.5
        w = mu.weights
        w[0] = 9.0
        assert mu.weights[0] == 1.0

    def test_near_unit_weights_are_not_unit(self):
        mu = FiniteMatrixMeasure([(1.0 + 1e-7, np.eye(2))])
        assert not mu.has_unit_weights


class TestLogValue:
    def test_zero(self):
        v = LogValue.from_linear(0.0)
        assert v.is_zero
        assert v.linear == 0.0

    def test_round_trip(self):
        v = LogValue.from_linear(0.375)
        assert v.linear == pytest.approx(0.375, rel=1e-15)

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(InvalidInputError):
            LogValue(math.nan)
        with pytest.raises(InvalidInputError):
            LogValue(math.inf)
        with pytest.raises(InvalidInputError):
            LogValue.from_linear(-1.0)


def test_word_budget_validation():
    with pytest.raises(InvalidInputError):
        WordBudget(max_word_length=0)
    with pytest.raises(InvalidInputError):
        WordBudget(max_words=-5)
    with pytest.raises(InvalidInputError):
        WordBudget(wall_clock_cap=0.0)


def test_kernel_validation():
    with pytest.raises(InvalidInputError):
        norm_kernel(0.0)
    with pytest.raises(InvalidInputError):
        phi_kernel(-1.0)


def test_diag_pair_length_two_sum_is_five_sixths():
    mu = FiniteMatrixMeasure(DIAG_PAIR)
    got = weighted_power_sum(mu, 2, norm_kernel(1.0))
    assert got.linear == pytest.approx(5.0 / 6.0, rel=1e-12)


@pytest.mark.parametrize("kernel_of", [norm_kernel, phi_kernel])
@pytest.mark.parametrize("s", [0.6, 1.0, 1.7, 2.4])
def test_power_sums_match_brute_force(rng, kernel_of, s):
    mu = random_measure(rng, n_atoms=2, d=2)
    mats = list(mu.matrices)
    brute = brute_norm_sum if kernel_of is norm_kernel else brute_phi_sum
    for n in range(1, 5):
        got = weighted_power_sum(mu, n, kernel_of(s)).linear
        want = brute(mu.weights, mats, n, s)
        assert got == pytest.approx(want, rel=1e-10)


def test_power_sums_match_brute_force_3x3(rng):
    mu = random_measure(rng, n_atoms=3, d=3)
    for n in (1, 2, 3):
        got = weighted_power_sum(mu, n, phi_kernel(1.8)).linear
        want = brute_phi_sum(mu.weights, list(mu.matrices), n, 1.8)
        assert got == pytest.approx(want, rel=1e-10)


def test_log_sums_are_subadditive(rng):
    mu = random_measure(rng, n_atoms=2, d=2)
    k = norm_kernel(1.3)
    logs = {n: weighted_power_sum(mu, n, k).log for n in range(1, 7)}
    for m in range(1, 4):
        for n in range(1, 4):
            assert logs[m + n] <= logs[m] + logs[n] + 1e-9


def test_atom_permutation_invariance(rng):
    atoms = [
        (0.8, rng.uniform(-0.9, 0.9, (2, 2))),
        (1.2, rng.uniform(-0.9, 0.9, (2, 2))),
        (0.5, rng.uniform(-0.9, 0.9, (2, 2))),
    ]
    mu = FiniteMatrixMeasure(atoms)
    nu = FiniteMatrixMeasure(atoms[::-1])
    for n in (1, 3, 5):
        assert (
            weighted_power_sum(mu, n, norm_kernel(1.0)).log
            == weighted_power_sum(nu, n, norm_kernel(1.0)).log
        )


def test_zero_products_give_log_zero():
    mu = FiniteMatrixMeasure([(1.0, [[0.0, 1.0], [0.0, 0.0]])])
    assert weighted_power_sum(mu, 2, norm_kernel(1.0)).is_zero


class TestBudgets:
    def test_max_words(self):
        mu = random_measure(np.random.default_rng(0), n_atoms=3)
        with pytest.raises(BudgetExhaustedError) as err:
            weighted_power_sum(mu, 10, norm_kernel(1.0), budget=WordBudget(max_words=100))
        assert err.value.reason == "max_words"

    def test_max_word_length(self):
        mu = random_measure(np.random.default_rng(0))
        with pytest.raises(BudgetExhaustedError) as err:
            weighted_power_sum(
                mu, 9, norm_kernel(1.0), budget=WordBudget(max_word_length=8)
            )
        assert err.value.reason == "max_word_length"

    def test_wall_clock(self):
        mu = random_measure(np.random.default_rng(0))
        with pytest.raises(BudgetExhaustedError) as err:
            weighted_power_sum(
                mu, 8, norm_kernel(1.0), budget=WordBudget(wall_clock_cap=1e-9)
            )
        assert err.value.reason == "wall_clock"


class TestHatMeasure:
    def test_reweights_by_det_power(self, rng):
        mu = random_measure(rng)
        s = 1.4
        hat = hat_measure_2d(mu, s)
        dets = [abs(np.linalg.det(m)) for m in mu.matrices]
        for i in range(mu.n_atoms):
            assert hat.weights[i] == pytest.approx(
                mu.weights[i] * dets[i] ** (s - 1.0), rel=1e-12
            )
        np.testing.assert_array_equal(hat.matrices, mu.matrices)

    def test_norm_sums_of_hat_match_phi_sums(self, rng):
        # the defining identity: w*phi^s(A_w) = w_hat*||A_w||^(2-s) summed over words
        mu = random_measure(rng)
        s = 1.62
        hat = hat_measure_2d(mu, s)
        for n in (1, 2, 3):
            lhs = weighted_power_sum(mu, n, phi_kernel(s)).log
            rhs = weighted_power_sum(hat, n, norm_kernel(2.0 - s)).log
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_all_singular_returns_none(self):
        mu = FiniteMatrixMeasure([(1.0, [[0.0, 1.0], [0.0, 0.0]])])
        assert hat_measure_2d(mu, 1.5) is None

    def test_exponent_range_enforced(self, rng):
        mu = random_measure(rng)
        with pytest.raises(InvalidInputError):
            hat_measure_2d(mu, 1.0)
        with pytest.raises(InvalidInputError):
            hat_measure_2d(mu, 2.0)


def test_lifted_measure_norm_sums_equal_phi_sums(rng):
    mu = random_measure(rng, n_atoms=2, d=3, scale=0.8)
    s = 1.5  # k=1, p=1, q=2
    lifted = lifted_measure(mu, 1, 1, 2)
    for n in (1, 2):
        lhs = weighted_power_sum(lifted, n, norm_kernel(0.5)).log
        rhs = weighted_power_sum(mu, n, phi_kernel(s)).log
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestRestrictInvertible:
    def test_drops_singular_atoms(self):
        mu = FiniteMatrixMeasure([
            (1.0, np.eye(2)),
            (2.0, [[1.0, 0.0], [0.0, 0.0]]),
        ])
        nu = restrict_invertible(mu)
        assert nu.n_atoms == 1
        assert nu.total_mass == 1.0

    def test_all_singular_is_none(self):
        mu = FiniteMatrixMeasure([(1.0, [[0.0, 1.0], [0.0, 0.0]])])
        assert restrict_invertible(mu) is None

    def test_no_op_when_all_invertible(self, rng):
        mu = random_measure(rng)
        nu = restrict_invertible(mu)
        np.testing.assert_array_equal(nu.matrices, mu.matrices)


def test_scale_measure_shifts_log_sums_exactly(rng):
    mu = random_measure(rng)
    nu = scale_measure(mu, 0.5)
    s = 1.25
    for n in (1, 2, 4):
        shifted = weighted_power_sum(nu, n, norm_kernel(s)).log
        base = weighted_power_sum(mu, n, norm_kernel(s)).log
        assert shifted == pytest.approx(base + n * s * math.log(0.5), abs=1e-12)


def test_workers_do_not_change_bits(rng, split_sizes):
    # three 3x3 atoms: level 10 would pass the row cap, so n=12 is evaluated
    # as level 9 times each length-3 suffix, 27 units with work for three
    # processes; two 2x2 atoms at n=17 are level 15 times each length-2
    # suffix, 4 units, which split under a lowered work rule
    cases = [
        (FiniteMatrixMeasure([(1.0, rng.uniform(-1.0, 1.0, (3, 3))) for _ in range(3)]), 12),
        (random_measure(rng, n_atoms=2, d=2), 17),
    ]
    for mu, n in cases:
        if mu.dimension == 2:
            split_sizes.lower_work(1 << 16)
        a = weighted_power_sum(mu, n, norm_kernel(1.3), workers=1).log
        assert split_sizes == []
        for workers in (2, 3):
            b = weighted_power_sum(mu, n, norm_kernel(1.3), workers=workers).log
            assert split_sizes.pop() == workers and split_sizes == []
            assert a.hex() == b.hex()
