import math

import numpy as np
import pytest

from helpers import (
    gauss_legendre_gram,
    legendre_value_recurrence,
    polyval_exact,
    shifted_legendre_exact,
)
from ldnkit import bases
from ldnkit.errors import GenerationFailedError

EPS = np.finfo(float).eps


class TestShiftedLegendre:
    def test_q2_coefficients(self):
        b = bases.shifted_legendre(2, 1.0)
        assert np.array_equal(b.polys[0], [1.0])
        assert np.array_equal(b.polys[1], [-1.0, 2.0])

    def test_values_at_zero_alternate(self):
        b = bases.shifted_legendre(6, 1.0)
        assert np.array_equal(b.values(0.0)[:, 0], [1, -1, 1, -1, 1, -1])

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_values_at_window_end_are_one(self, theta):
        b = bases.shifted_legendre(8, theta)
        assert np.allclose(b.values(theta)[:, 0], 1.0, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_orthogonality(self, theta):
        # target inner products are theta * delta_nm / (2m + 1), by exact
        # Gauss-Legendre quadrature of the monomial coefficients; the
        # tolerance floor grows with the rounding bound of evaluating them,
        # which overtakes 1e-10 past q ~ 9 (monomial coefficients reach
        # ~4^q, so the cancellation floor is unavoidable in double precision)
        q = 12
        b = bases.shifted_legendre(q, theta)
        got = gauss_legendre_gram(b.polys, theta)
        want = np.diag(theta / (2 * np.arange(q) + 1.0))
        bound = 32 * EPS * gauss_legendre_gram([np.abs(p) for p in b.polys], theta)
        assert np.all(np.abs(got - want) <= np.maximum(1e-10, bound))

    def test_parity(self):
        theta = 1.5
        grid = np.linspace(0.0, theta, 101)
        signs = (-1.0) ** np.arange(10)
        b = bases.shifted_legendre(10, theta)
        flipped = signs[:, None] * b.values(theta - grid)
        assert np.max(np.abs(b.values(grid) - flipped)) < 1e-10

    def test_matches_value_recurrence(self):
        b = bases.shifted_legendre(8, 1.0)
        grid = np.linspace(0.0, 1.0, 33)
        assert np.allclose(b.values(grid), legendre_value_recurrence(8, grid), atol=1e-12)


class TestWindowLength:
    @pytest.mark.parametrize("make", [bases.shifted_legendre, bases.shifted_chebyshev])
    def test_integer_theta_is_the_float_theta(self, make):
        # an int theta raised to int64 powers used to wrap and divide by zero
        got, want = make(70, 2), make(70, 2.0)
        assert type(got.theta) is float and got.theta == want.theta
        assert all(np.isfinite(p).all() for p in got.polys)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.polys, want.polys))

    def test_random_basis_integer_theta(self):
        got, want = bases.random_basis(45, 3, seed=1), bases.random_basis(45, 3.0, seed=1)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got.polys, want.polys))

    @pytest.mark.parametrize("theta", [1e300, 1e-300, 1e-320])
    @pytest.mark.parametrize("make", [bases.shifted_legendre, bases.shifted_chebyshev])
    def test_extreme_theta_builds_silently(self, make, theta):
        # every warning is an error here; the monomial form may leave the
        # float range, while the mixture and the values do not depend on theta
        basis, unit = make(6, theta), make(6, 1.0)
        assert basis.theta == theta
        assert np.array_equal(basis.mixture, unit.mixture)
        assert np.array_equal(basis.values(theta), unit.values(1.0))
        assert all(p.size == n + 1 for n, p in enumerate(basis.polys))


class TestShiftedChebyshev:
    def test_q2_coefficients(self):
        b = bases.shifted_chebyshev(2, 1.0)
        assert np.array_equal(b.polys[0], [1.0])
        assert np.array_equal(b.polys[1], [-1.0, 2.0])

    def test_values_at_zero_alternate(self):
        b = bases.shifted_chebyshev(6, 1.0)
        assert np.array_equal(b.values(0.0)[:, 0], [1, -1, 1, -1, 1, -1])

    def test_values_at_window_end_are_one(self):
        b = bases.shifted_chebyshev(7, 2.0)
        assert np.allclose(b.values(2.0)[:, 0], 1.0, atol=1e-10)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_bounded_by_one(self, theta):
        b = bases.shifted_chebyshev(10, theta)
        grid = np.linspace(0.0, theta, 1001)
        assert np.max(np.abs(b.values(grid))) <= 1.0 + 1e-9


class TestMakeBasis:
    @pytest.mark.parametrize("theta", [np.inf, np.nan])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            bases.make_basis([[1.0], [-1.0, 2.0]], theta)


    def test_mixture_of_monomials(self):
        # t^k = theta^k x^k and x^k = sum_n (2n+1) k!^2 / ((k-n)! (k+n+1)!) l_n(x)
        q, theta = 8, 2.0
        basis = bases.make_basis([np.eye(q)[k] for k in range(q)], theta)
        f = math.factorial
        want = np.array([[theta ** k * (2 * n + 1) * f(k) ** 2 / (f(k - n) * f(k + n + 1))
                          if n <= k else 0.0 for n in range(q)] for k in range(q)])
        assert np.max(np.abs(basis.mixture - want)) <= 1e-12 * np.max(np.abs(want))

    def test_overflow_in_window_units(self):
        with pytest.raises(ValueError, match="overflow"):
            bases.make_basis([[1.0], [0.0, 1e300]], 1e10)

    def test_rejects_degree_above_q(self):
        # two functions span at most degree 1; t^2 has no q = 2 generator
        with pytest.raises(ValueError, match="exceeds degree bound 1"):
            bases.make_basis([[0.0, 1.0], [0.0, 0.0, 1.0]], 1.0)

    def test_trailing_zeros_dropped(self):
        padded = bases.make_basis([[1.0, 0.0, 0.0], [-1.0, 2.0, 0.0, -0.0]], 2.0)
        plain = bases.make_basis([[1.0], [-1.0, 2.0]], 2.0)
        assert all(np.array_equal(a, b) for a, b in zip(padded.polys, plain.polys))
        assert [p.size for p in padded.polys] == [1, 2]
        assert np.array_equal(padded.mixture, plain.mixture)
        assert np.array_equal(bases.make_basis([[0.0, 0.0]], 1.0).polys[0], [0.0])


class TestValidate:
    def test_legendre_passes(self):
        report = bases.validate(bases.shifted_legendre(6, 1.0))
        assert report.ok
        assert report.condition == 1.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-154, 1e-100, 1e-10, 1.0, 1e100, 1e160,
                                       1e300])
    def test_scale_free(self, scale):
        # a scaled basis is as valid as the basis: validity is independence,
        # judged by cond_1(M), which does not depend on the scale of M
        basis = bases.make_basis([[scale], [-scale, 2.0 * scale]], 1.0)
        report = bases.validate(basis)
        assert report.ok
        assert report.condition == pytest.approx(1.0, rel=1e-12)

    def test_common_zero_at_origin(self):
        # q functions of degree below q that all vanish at 0 cannot span
        # l_0 = 1, so they are dependent, and independence refuses them
        basis = bases.make_basis([[0.0, 1.0], [0.0, 2.0]], 1.0)
        report = bases.validate(basis)
        assert not report.ok
        assert report.condition == np.inf
        assert np.all(basis.values(0.0) == 0.0)

    def test_dependent_rows(self):
        basis = bases.make_basis([[1.0, 0.0], [1.0, 0.0]], 1.0)
        report = bases.validate(basis)
        assert not report.ok
        assert report.condition == np.inf

    def test_higher_degree_allowed_in_container(self):
        # coefficient slots past degree q - 1 are allowed when they are zero;
        # the container holds q x q
        basis = bases.make_basis([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], 1.0)
        assert basis.q == 2 and basis.mixture.shape == (2, 2)
        assert basis.coefficient_matrix().shape == (2, 2)
        assert bases.validate(basis).ok


class TestRandomBasis:
    def test_deterministic(self):
        a = bases.random_basis(6, 1.0, seed=42)
        b = bases.random_basis(6, 1.0, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.polys, b.polys))

    def test_valid_by_construction(self):
        for seed in range(5):
            basis = bases.random_basis(6, 1.0, seed=seed)
            assert bases.validate(basis).ok

    def test_theta_rescaling(self):
        unit = bases.random_basis(4, 1.0, seed=9)
        wide = bases.random_basis(4, 2.0, seed=9)
        # same draw expressed in t / theta
        grid = np.linspace(0.0, 1.0, 17)
        assert np.allclose(unit.values(grid), wide.values(2.0 * grid), atol=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 6, 12, 16, 20])
    def test_first_draw_kept(self, q):
        # the mixture is the first standard normal draw of the seed, and
        # the monomial coefficients are that mixture times the Legendre ones
        legendre = np.array([[float(c) for c in row] for row in shifted_legendre_exact(q)])
        for seed in range(5):
            basis = bases.random_basis(q, 1.0, seed=seed)
            draw = np.random.default_rng(seed).standard_normal((q, q))
            assert np.array_equal(basis.mixture, draw)
            assert all(np.array_equal(p, row) for p, row in zip(basis.polys, draw @ legendre))

    @pytest.mark.parametrize("make", [
        lambda: bases.random_basis(8, 2.0, seed=4),
        lambda: bases.shifted_chebyshev(8, 2.0),
        lambda: bases.make_basis([[0.5, -1.0, 3.0], [1.0, 0.25], [2.0]], 2.0),
    ])
    def test_mixture_matches_coefficients(self, make):
        # values read off the Legendre mixture against Horner on the file
        # form, within Horner's rounding bound on these coefficients
        basis = make()
        grid = np.linspace(0.0, basis.theta, 41)
        horner = np.polynomial.polynomial.polyval
        ref = np.array([horner(grid, p) for p in basis.polys])
        bound = 4 * basis.q * EPS * np.array([horner(grid, np.abs(p)) for p in basis.polys])
        assert np.all(np.abs(basis.values(grid) - ref) <= bound)

    def test_retry_budget_exhausted(self, monkeypatch):
        always_bad = bases.ValidityReport(condition=np.inf)
        monkeypatch.setattr(bases, "validate", lambda basis: always_bad)
        with pytest.raises(GenerationFailedError):
            bases.random_basis(4, 1.0, seed=0)


class TestLegendreValues:
    def test_endpoints_exact_large_q(self):
        vals = bases.legendre_values(32, np.array([0.0, 1.0]))
        assert np.array_equal(vals[:, 1], np.ones(32))
        assert np.array_equal(vals[:, 0], (-1.0) ** np.arange(32))

    def test_matches_coefficient_eval(self):
        grid = np.linspace(0.0, 1.0, 21)
        b = bases.shifted_legendre(9, 1.0)
        assert np.allclose(bases.legendre_values(9, grid), b.values(grid), atol=1e-11)

    @pytest.mark.parametrize("q", [1, 2, 6, 16, 33, 64])
    @pytest.mark.parametrize("shape", ["0-d", "1-d", "2-d"])
    def test_matches_value_recurrence_bitwise(self, q, shape):
        rng = np.random.default_rng(q)
        x = {
            "0-d": np.array(0.3),
            "1-d": np.concatenate(([0.0, 1.0, 0.5], rng.random(29))),
            "2-d": rng.random((4, 7)),
        }[shape]
        got, want = bases.legendre_values(q, x), legendre_value_recurrence(q, x)
        assert got.shape == want.shape == (q,) + x.shape
        assert got.tobytes() == want.tobytes()

    def test_matches_exact_fractions_at_dyadic_points(self):
        # every degree below 24 at x = k / 64, against Horner in exact fractions
        q, grid = 24, np.arange(65) / 64
        coeffs = shifted_legendre_exact(q)
        want = np.array([[polyval_exact(c, x) for x in grid] for c in coeffs])
        assert np.max(np.abs(bases.legendre_values(q, grid) - want)) <= 1e-13
