import numpy as np
import pytest

from ldnkit import poly

# shifted Legendre coefficients used as fixed fixtures below
P1 = np.array([-1.0, 2.0])          # 2t - 1
P2 = np.array([1.0, -6.0, 6.0])     # 6t^2 - 6t + 1


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
