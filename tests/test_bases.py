import numpy as np
import pytest

from helpers import legendre_value_recurrence
from ldnkit import bases, poly
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
        # target inner products are theta * delta_nm / (2m + 1); the
        # tolerance floor grows with the rounding bound of the coefficient
        # contraction, which overtakes 1e-10 past q ~ 9 (monomial
        # coefficients reach ~4^q, so the cancellation floor is unavoidable
        # in double precision)
        q = 12
        b = bases.shifted_legendre(q, theta)
        for n in range(q):
            for m in range(q):
                got = poly.inner_product(b.polys[n], b.polys[m], theta)
                want = theta / (2 * m + 1) if n == m else 0.0
                size = max(b.polys[n].size, b.polys[m].size)
                pn = np.abs(np.pad(b.polys[n], (0, size - b.polys[n].size)))
                pm = np.abs(np.pad(b.polys[m], (0, size - b.polys[m].size)))
                bound = 32 * EPS * float(pn @ poly.hilbert(size, theta) @ pm)
                assert abs(got - want) <= max(1e-10, bound)

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


class TestValidate:
    def test_legendre_passes(self):
        report = bases.validate(bases.shifted_legendre(6, 1.0))
        assert report.ok
        assert report.independent and report.no_common_zero
        assert report.gram_condition >= 1.0

    def test_common_zero_at_origin(self):
        basis = bases.make_basis([[0.0, 1.0], [0.0, 0.0, 1.0]], 1.0)
        report = bases.validate(basis)
        assert not report.ok
        assert report.independent
        assert not report.no_common_zero
        assert report.common_zero_at == 0.0

    def test_dependent_rows(self):
        basis = bases.make_basis([[1.0, 0.0], [1.0, 0.0]], 1.0)
        report = bases.validate(basis)
        assert not report.independent
        assert report.gram_condition == np.inf

    def test_higher_degree_allowed_in_container(self):
        basis = bases.make_basis([[0.0, 1.0], [0.0, 0.0, 1.0]], 1.0)
        assert basis.q == 2 and basis.width == 3
        assert basis.coefficient_matrix().shape == (2, 3)


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

    def test_retry_budget_exhausted(self, monkeypatch):
        always_bad = bases.ValidityReport(
            independent=False, gram_condition=np.inf,
            no_common_zero=True, common_zero_at=None,
        )
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
