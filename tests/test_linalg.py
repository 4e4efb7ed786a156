import math

import numpy as np
import pytest

from helpers import hilbert_inverse_exact, one_norm, random_conditioned
from ldnkit import linalg
from ldnkit.errors import SingularMatrixError


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        e = linalg.expm(np.diag([1.0, 2.0]))
        expected = np.diag([math.e, math.e ** 2])
        assert np.max(np.abs(e - expected)) < 1e-12 * math.e ** 2

    def test_nilpotent(self):
        e = linalg.expm(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(e, [[1.0, 0.0], [1.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_norm_near_float_range(self):
        # 2^1023.6: the scaling count is 1025, past what 2.0 ** s can hold
        assert np.array_equal(linalg.expm([[-1.5 * 2.0 ** 1023]]), [[0.0]])

    def test_rejects_overflowing_norm(self):
        # finite entries whose column sum overflows
        with pytest.raises(ValueError, match="1-norm"):
            linalg.expm(np.full((2, 2), 1e308))

    def test_inverse_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            a = rng.standard_normal((n, n))
            norm = one_norm(a)
            if norm > 10.0:
                a *= 10.0 / norm
            prod = linalg.expm(a) @ linalg.expm(-a)
            assert np.max(np.abs(prod - np.eye(n))) < 1e-9

    def test_semigroup_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            a = rng.standard_normal((n, n))
            norm = one_norm(a)
            if norm > 10.0:
                a *= 10.0 / norm
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = linalg.expm((s + t) * a)
            rhs = linalg.expm(s * a) @ linalg.expm(t * a)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-9


class TestConditionEstimate:
    def test_identity(self):
        assert linalg._inverse(np.eye(5))[1] == 1.0

    def test_diagonal(self):
        est = linalg._inverse(np.diag([1.0, 1000.0]))[1]
        assert 100.0 <= est <= 10000.0

    def test_hilbert8_against_exact_inverse(self):
        n = 8
        h = 1.0 / (1 + np.arange(n)[:, None] + np.arange(n)[None, :])
        exact = one_norm(h) * one_norm(hilbert_inverse_exact(n))
        est = linalg._inverse(h)[1]
        assert est > 1e8
        assert exact / 10 <= est <= exact * 10

    def test_singular_propagates(self):
        with pytest.raises(SingularMatrixError):
            linalg._inverse(np.zeros((3, 3)))[1]

    def test_singular_to_working_precision(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]])
        with pytest.raises(SingularMatrixError):
            linalg._inverse(a)[1]

    def test_singular_dependent_rows(self):
        with pytest.raises(SingularMatrixError):
            linalg._inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))[1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            linalg._inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))[1]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg._inverse(np.ones((2, 3)))[1]

    def test_empty_matrix(self):
        assert linalg._inverse(np.zeros((0, 0)))[1] == 1.0

    def test_random_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            a = random_conditioned(rng, n, 10.0 ** rng.uniform(0, 8))
            exact = one_norm(a) * one_norm(np.linalg.inv(a))
            assert linalg._inverse(a)[1] == pytest.approx(exact, rel=1e-12)

    def test_random_within_factor_10(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            a = random_conditioned(rng, n, 10.0 ** rng.uniform(0, 8))
            exact = one_norm(a) * one_norm(np.linalg.inv(a))
            est = linalg._inverse(a)[1]
            assert exact / 10 <= est <= exact * 10
