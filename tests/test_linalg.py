import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matpress.errors import DimensionCapError, InvalidInputError
from matpress.linalg import (
    as_matrix,
    exterior_power,
    lift,
    operator_norm,
    phi,
    singular_values,
)
from oracle import kronecker


def test_singular_values_known_matrix():
    # A^T A = [[25, 20], [20, 25]] has eigenvalues 45 and 5
    sig = singular_values([[3.0, 0.0], [4.0, 5.0]])
    np.testing.assert_allclose(sig, [math.sqrt(45.0), math.sqrt(5.0)], rtol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_singular_values_match_lapack(rng, d):
    # singular_values is LAPACK's SVD behind input validation, bit for bit
    for _ in range(25):
        a = rng.normal(size=(d, d))
        np.testing.assert_array_equal(singular_values(a), np.linalg.svd(a, compute_uv=False))


def test_singular_values_product_is_abs_det(rng):
    a = rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        np.prod(singular_values(a)), abs(np.linalg.det(a)), rtol=1e-10
    )


def test_singular_values_zero_matrix():
    assert singular_values(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]


def test_operator_norm_is_top_singular_value(rng):
    a = rng.normal(size=(4, 4))
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_singular_values_sorted_and_nonnegative(seed, d):
    a = np.random.default_rng(seed).uniform(-5, 5, (d, d))
    sig = singular_values(a)
    assert all(x >= y for x, y in zip(sig, sig[1:]))
    assert sig[-1] >= 0.0


class TestPhi:
    def test_interpolates_diag(self):
        a = np.diag([3.0, 2.0])
        assert phi(a, 1.0) == pytest.approx(3.0, rel=1e-12)
        assert phi(a, 1.5) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
        assert phi(a, 2.0) == pytest.approx(6.0, rel=1e-12)

    def test_above_dimension_uses_det_power(self):
        a = np.diag([3.0, 2.0])
        assert phi(a, 2.5) == pytest.approx(6.0 ** 1.25, rel=1e-12)

    def test_below_one_is_norm_power(self, rng):
        a = rng.normal(size=(3, 3))
        assert phi(a, 0.7) == pytest.approx(operator_norm(a) ** 0.7, rel=1e-10)

    def test_singular_matrix_vanishes_above_rank(self):
        a = np.diag([2.0, 0.0])
        assert phi(a, 1.5) == 0.0
        assert phi(a, 1.0) == 2.0

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(InvalidInputError):
            phi(np.eye(2), 0.0)


class TestExteriorPower:
    def test_k_one_is_copy(self, rng):
        a = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(exterior_power(a, 1), a)

    def test_top_power_is_det(self, rng):
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            exterior_power(a, 4), [[np.linalg.det(a)]], rtol=1e-10
        )

    def test_three_by_three_minors_layout(self):
        a = np.arange(1.0, 10.0).reshape(3, 3)
        e = exterior_power(a, 2)
        # subsets in lexicographic order: (0,1), (0,2), (1,2)
        assert e[0, 0] == a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert e[0, 2] == a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
        assert e[2, 1] == a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0]

    def test_norm_is_product_of_top_singular_values(self, rng):
        a = rng.normal(size=(4, 4))
        sig = singular_values(a)
        assert operator_norm(exterior_power(a, 2)) == pytest.approx(
            sig[0] * sig[1], rel=1e-10
        )

    def test_multiplicative(self, rng):
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        np.testing.assert_allclose(
            exterior_power(a @ b, 2),
            exterior_power(a, 2) @ exterior_power(b, 2),
            rtol=1e-9, atol=1e-9,
        )

    def test_dimensions(self):
        assert exterior_power(np.eye(5), 2).shape == (10, 10)
        assert exterior_power(np.eye(4), 0).shape == (1, 1)


def test_kronecker_norm_multiplicative(rng):
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(3, 3))
    assert operator_norm(kronecker(a, b)) == pytest.approx(
        operator_norm(a) * operator_norm(b), rel=1e-10
    )


class TestLift:
    @pytest.mark.parametrize("d,k,p,q", [
        (2, 1, 0, 1), (2, 1, 1, 2), (2, 1, 2, 3),
        (3, 1, 1, 2), (3, 2, 1, 3), (3, 2, 0, 1),
    ])
    def test_norm_root_equals_phi(self, rng, d, k, p, q):
        a = rng.normal(size=(d, d))
        s = k + p / q
        lifted = lift(a, k, p, q)
        assert operator_norm(lifted) ** (1.0 / q) == pytest.approx(
            phi(a, s), rel=1e-9, abs=1e-12
        )

    def test_multiplicative(self, rng):
        a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        np.testing.assert_allclose(
            lift(a @ b, 1, 1, 2),
            lift(a, 1, 1, 2) @ lift(b, 1, 1, 2),
            rtol=1e-9, atol=1e-9,
        )

    def test_dimension_cap(self, rng):
        a = rng.normal(size=(6, 6))
        with pytest.raises(DimensionCapError):
            lift(a, 2, 1, 2)  # 15 * 20 = 300 > 256

    def test_rejects_bad_fraction(self, rng):
        a = rng.normal(size=(3, 3))
        with pytest.raises(InvalidInputError):
            lift(a, 1, 2, 4)  # p/q not in lowest terms
        with pytest.raises(InvalidInputError):
            lift(a, 0, 1, 2)  # k must be positive
        with pytest.raises(InvalidInputError):
            lift(a, 3, 0, 1)  # k must stay below d


def test_as_matrix_rejects_garbage():
    with pytest.raises(InvalidInputError):
        as_matrix([[1.0, 2.0]])
    with pytest.raises(InvalidInputError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        as_matrix(np.zeros((0, 0)))
