import numpy as np
import pytest

from helpers import central_difference, simpson
from ldnkit import poly

# shifted Legendre coefficients used as fixed fixtures below
P1 = np.array([-1.0, 2.0])          # 2t - 1
P2 = np.array([1.0, -6.0, 6.0])     # 6t^2 - 6t + 1
P3 = np.array([-1.0, 12.0, -30.0, 20.0])


class TestEvalPoly:
    def test_constant(self):
        assert poly.eval_poly([1.0, 0.0, 0.0], 5.0) == 1.0

    def test_identity_polynomial(self):
        assert poly.eval_poly([0.0, 1.0], 3.0) == 3.0

    def test_shifted_legendre_endpoints(self):
        assert poly.eval_poly(P1, 0.0) == -1.0
        assert poly.eval_poly(P1, 1.0) == 1.0

    def test_vectorized(self):
        out = poly.eval_poly(P2, np.array([0.0, 1.0]))
        assert np.array_equal(out, [1.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            poly.eval_poly([], 0.0)


class TestDifferentiate:
    def test_constant(self):
        assert np.array_equal(poly.differentiate([3.0]), [0.0])

    def test_square(self):
        assert np.array_equal(poly.differentiate([0.0, 0.0, 1.0]), [0.0, 2.0])

    def test_p2_matches_finite_differences(self):
        dp = poly.differentiate(P2)
        assert np.array_equal(dp, [-6.0, 12.0])
        for t in np.linspace(0.1, 0.9, 10):
            fd = central_difference(lambda x: poly.eval_poly(P2, x), t)
            assert abs(poly.eval_poly(dp, t) - fd) < 1e-6

    def test_matches_finite_differences_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = rng.standard_normal(int(rng.integers(1, 9)))
            dp = poly.differentiate(p)
            t = rng.uniform(-1.0, 1.0)
            fd = central_difference(lambda x: poly.eval_poly(p, x), t)
            assert abs(poly.eval_poly(dp, t) - fd) < 1e-5


class TestComposeAffine:
    def test_reflection(self):
        theta = 2.0
        assert np.array_equal(poly.compose_affine([0.0, 1.0], -1.0, theta), [2.0, -1.0])

    def test_identity(self):
        p = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(poly.compose_affine(p, 1.0, 0.0), p)

    def test_p2_parity(self):
        # P2(1 - t) = P2(t)
        assert np.allclose(poly.compose_affine(P2, -1.0, 1.0), P2, atol=1e-12)

    def test_reflection_involution(self):
        rng = np.random.default_rng(29)
        for theta in (0.5, 1.0, 2.0):
            p = rng.standard_normal(7)
            back = poly.compose_affine(poly.compose_affine(p, -1.0, theta), -1.0, theta)
            assert np.max(np.abs(back - p)) < 1e-12


class TestHilbert:
    def test_q4_theta1(self):
        expected = np.array([
            [1.0, 1 / 2, 1 / 3, 1 / 4],
            [1 / 2, 1 / 3, 1 / 4, 1 / 5],
            [1 / 3, 1 / 4, 1 / 5, 1 / 6],
            [1 / 4, 1 / 5, 1 / 6, 1 / 7],
        ])
        h = poly.hilbert(4, 1.0)
        assert np.array_equal(h, expected)
        assert isinstance(h, np.ndarray) and h.dtype == np.float64

    def test_q1(self):
        assert np.array_equal(poly.hilbert(1, 1.0), [[1.0]])

    def test_q2_theta2(self):
        assert np.array_equal(poly.hilbert(2, 2.0), [[2.0, 2.0], [2.0, 8 / 3]])

    def test_symmetric_positive(self):
        h = poly.hilbert(6, 0.7)
        assert np.array_equal(h, h.T)
        assert np.all(h > 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            poly.hilbert(0, 1.0)
        with pytest.raises(ValueError):
            poly.hilbert(3, 0.0)


class TestInnerProduct:
    def test_unit(self):
        assert poly.inner_product([1.0], [1.0], 1.0) == 1.0

    def test_p2_norm(self):
        assert abs(poly.inner_product(P2, P2, 1.0) - 1 / 5) < 1e-14

    def test_p1_p3_orthogonal(self):
        assert abs(poly.inner_product(P1, P3, 1.0)) < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = rng.standard_normal(5)
            r = rng.standard_normal(3)
            theta = rng.uniform(0.3, 2.0)
            assert poly.inner_product(p, r, theta) == poly.inner_product(r, p, theta)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(37)
        for theta in (0.5, 1.0, 2.0):
            for _ in range(10):
                p = rng.standard_normal(int(rng.integers(1, 10)))
                r = rng.standard_normal(int(rng.integers(1, 10)))
                quad = simpson(
                    lambda t: poly.eval_poly(p, t) * poly.eval_poly(r, t),
                    0.0, theta, n=50000,
                )
                assert abs(poly.inner_product(p, r, theta) - quad) < 1e-9
