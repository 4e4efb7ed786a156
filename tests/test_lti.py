import numpy as np
import pytest

from ldnkit import bases, linalg, lti, poly

LDN_A6 = np.array([
    [-1.0, -3.0, -5.0, -7.0, -9.0, -11.0],
    [1.0, -3.0, -5.0, -7.0, -9.0, -11.0],
    [-1.0, 3.0, -5.0, -7.0, -9.0, -11.0],
    [1.0, -3.0, 5.0, -7.0, -9.0, -11.0],
    [-1.0, 3.0, -5.0, 7.0, -9.0, -11.0],
    [1.0, -3.0, 5.0, -7.0, 9.0, -11.0],
])

LEGENDRE_A6 = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 6.0, 0.0, 0.0, 0.0, 0.0],
    [2.0, 0.0, 10.0, 0.0, 0.0, 0.0],
    [0.0, 6.0, 0.0, 14.0, 0.0, 0.0],
    [2.0, 0.0, 10.0, 0.0, 18.0, 0.0],
])

CHEBYSHEV_A6 = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 8.0, 0.0, 0.0, 0.0, 0.0],
    [6.0, 0.0, 12.0, 0.0, 0.0, 0.0],
    [0.0, 16.0, 0.0, 16.0, 0.0, 0.0],
    [10.0, 0.0, 20.0, 0.0, 20.0, 0.0],
])

B6 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


class TestClosedForms:
    def test_ldn_q6(self):
        sys = lti.mk_ldn(6, 1.0)
        assert np.array_equal(sys.a, LDN_A6)
        assert np.array_equal(sys.b, B6)

    def test_ldn_q1(self):
        sys = lti.mk_ldn(1, 1.0)
        assert np.array_equal(sys.a, [[-1.0]])
        assert np.array_equal(sys.b, [1.0])

    def test_legendre_q6(self):
        sys = lti.mk_legendre(6, 1.0)
        assert np.array_equal(sys.a, LEGENDRE_A6)
        assert np.array_equal(sys.b, B6)

    def test_legendre_q1(self):
        sys = lti.mk_legendre(1, 1.0)
        assert np.array_equal(sys.a, [[0.0]])
        assert np.array_equal(sys.b, [1.0])

    def test_chebyshev_q6(self):
        sys = lti.mk_chebyshev(6, 1.0)
        assert np.array_equal(sys.a, CHEBYSHEV_A6)
        assert np.array_equal(sys.b, B6)

    def test_chebyshev_q1(self):
        sys = lti.mk_chebyshev(1, 1.0)
        assert np.array_equal(sys.a, [[0.0]])
        assert np.array_equal(sys.b, [1.0])

    def test_matrices_independent_of_theta(self):
        for make in (lti.mk_ldn, lti.mk_legendre, lti.mk_chebyshev):
            assert np.array_equal(make(5, 0.5).a, make(5, 2.0).a)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            lti.mk_ldn(0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_theta(self, theta):
        for make in (lti.mk_ldn, lti.mk_legendre, lti.mk_chebyshev):
            with pytest.raises(ValueError, match="theta must be finite and positive"):
                make(2, theta)

    def test_ldn_eigenvalues_negative(self):
        for q in range(1, 17):
            eig = np.linalg.eigvals(lti.mk_ldn(q, 1.0).a)
            assert np.all(eig.real < 0.0)


class TestLegendreImpulse:
    def test_q3_midpoint(self):
        sys = lti.mk_legendre(3, 1.0)
        m = linalg.expm(0.5 * sys.a) @ sys.b
        assert np.max(np.abs(m - [1.0, 0.0, -0.5])) < 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_traces_polynomials(self, theta):
        for q in (4, 10):
            sys = lti.mk_legendre(q, theta)
            basis = bases.shifted_legendre(q, theta)
            for t in np.linspace(0.0, theta, 41):
                m = linalg.expm((t / theta) * sys.a) @ sys.b
                ref = basis.values(t)[:, 0]
                assert np.max(np.abs(m - ref)) < 1e-8


class TestGenericSolver:
    def test_monomials(self):
        sys = lti.mk_poly_basis_lti(bases.make_basis([[1.0], [0.0, 1.0]], 1.0))
        assert np.allclose(sys.a, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)
        assert np.allclose(sys.b, [1.0, 0.0], atol=1e-14)

    def test_matches_legendre_closed_form(self):
        for q in (1, 6, 10):
            got = lti.mk_poly_basis_lti(bases.shifted_legendre(q, 1.0))
            want = lti.mk_legendre(q, 1.0)
            assert np.max(np.abs(got.a - want.a)) < 1e-9
            assert np.max(np.abs(got.b - want.b)) < 1e-12

    def test_matches_chebyshev_closed_form(self):
        for q in (1, 6, 10):
            got = lti.mk_poly_basis_lti(bases.shifted_chebyshev(q, 1.0))
            want = lti.mk_chebyshev(q, 1.0)
            assert np.max(np.abs(got.a - want.a)) < 1e-8

    def test_theta_scaling_consistent(self):
        got = lti.mk_poly_basis_lti(bases.shifted_legendre(7, 2.0))
        assert np.max(np.abs(got.a - lti.mk_legendre(7, 2.0).a)) < 1e-9

    def test_condition_attached(self):
        basis = bases.shifted_legendre(5, 1.0)
        sys = lti.mk_poly_basis_lti(basis)
        assert sys.basis is basis

    def test_random_basis_reproduced_by_impulse(self):
        # cross-module oracle: the impulse response of the solved system
        # must trace the basis polynomials themselves
        basis = bases.random_basis(6, 1.0, seed=3)
        sys = lti.mk_poly_basis_lti(basis)
        for t in np.linspace(0.0, 1.0, 21):
            m = linalg.expm(t * sys.a) @ sys.b
            assert np.max(np.abs(m - basis.values(t)[:, 0])) < 1e-7

    def test_rejects_invalid_basis(self):
        dependent = bases.make_basis([[1.0, 0.0], [1.0, 0.0]], 1.0)
        with pytest.raises(ValueError):
            lti.mk_poly_basis_lti(dependent)

    def test_b_equals_basis_at_zero(self):
        for make_basis_, make_sys in (
            (bases.shifted_legendre, lti.mk_legendre),
            (bases.shifted_chebyshev, lti.mk_chebyshev),
        ):
            basis = make_basis_(8, 1.0)
            assert np.array_equal(make_sys(8, 1.0).b, basis.values(0.0)[:, 0])


class TestDampeningIdentity:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_ldn_is_dampened_legendre(self, theta):
        # integer arithmetic in doubles end to end, so equality is exact
        from ldnkit import reencode

        for q in range(1, 33):
            legendre = lti.mk_legendre(q, theta)
            gamma = reencode.delay_reencoder(
                np.ones(q), reencode.legendre_decoder(q, theta, theta)
            )
            dampened = reencode.dampen(legendre, gamma)
            ldn = lti.mk_ldn(q, theta)
            assert np.array_equal(dampened.a, ldn.a)
            assert np.array_equal(dampened.b, ldn.b)
