from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    exact_decoders,
    gram_condition,
    legendre_value_recurrence,
    random_conditioned,
    sampled_pinv_exact,
    shifted_chebyshev_exact,
    shifted_legendre_exact,
)
from ldnkit import bases, formats, linalg, lti, reencode
from ldnkit.errors import SingularMatrixError


def unit_basis(theta=1.0):
    return bases.make_basis([[1.0]], theta)


class TestEncoder:
    def test_legendre_window_end_all_ones(self):
        e = reencode.encoder(lti.mk_legendre(6, 1.0))
        assert np.max(np.abs(e - 1.0)) < 1e-12

    def test_at_zero_returns_b(self):
        sys = lti.mk_legendre(6, 1.0)
        assert np.array_equal(reencode.encoder(sys, 0.0), sys.b)

    def test_chebyshev_window_end_all_ones(self):
        # cross-check against direct polynomial evaluation at theta
        theta = 2.0
        e = reencode.encoder(lti.mk_chebyshev(5, theta))
        ref = bases.shifted_chebyshev(5, theta).values(theta)[:, 0]
        assert np.max(np.abs(e - ref)) < 1e-12
        assert np.max(np.abs(e - 1.0)) < 1e-12

    @staticmethod
    def _assert_is_the_basis(sys):
        # the generator's impulse response is its basis, bit for bit
        theta = sys.theta
        for t in (0.0, theta / 2, theta, 2 * theta):
            assert np.array_equal(reencode.encoder(sys, t), sys.basis.values(t)[:, 0])
        assert np.array_equal(reencode.encoder(sys), sys.basis.values(theta)[:, 0])

    @pytest.mark.parametrize("q", [6, 16, 32])
    @pytest.mark.parametrize("make_sys", [lti.mk_legendre, lti.mk_chebyshev],
                             ids=["legendre", "chebyshev"])
    def test_closed_form_generator_is_its_basis(self, make_sys, q):
        self._assert_is_the_basis(make_sys(q, 2.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_generator_is_its_basis(self, seed):
        self._assert_is_the_basis(lti.mk_poly_basis_lti(bases.random_basis(16, 2.0, seed)))

    def test_rejects_systems_without_a_basis(self):
        legendre = lti.mk_legendre(4, 1.0)
        gamma = reencode.delay_reencoder(np.ones(4), reencode.legendre_decoder(4, 1.0, 1.0))
        doc = formats.document_from_system(legendre, "legendre")
        for sys in (lti.mk_ldn(4), reencode.dampen(legendre, gamma), doc.to_system()):
            with pytest.raises(ValueError, match="basis"):
                reencode.encoder(sys)

    def test_theta_scaling(self):
        # impulse response at t depends only on t / theta
        e_fast = reencode.encoder(lti.mk_chebyshev(4, 0.5), 0.25)
        e_slow = reencode.encoder(lti.mk_chebyshev(4, 2.0), 1.0)
        assert np.max(np.abs(e_fast - e_slow)) < 1e-13

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            reencode.encoder(lti.mk_legendre(3), -0.1)


class TestLegendreDecoder:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_window_end(self, theta):
        d = reencode.legendre_decoder(6, theta, theta)
        expected = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0]) / theta
        assert np.array_equal(d.d, expected)

    def test_q1(self):
        assert np.array_equal(reencode.legendre_decoder(1, 2.0, 0.7).d, [0.5])

    def test_at_zero_alternates(self):
        d = reencode.legendre_decoder(6, 1.0, 0.0)
        assert np.array_equal(d.d, [1.0, -3.0, 5.0, -7.0, 9.0, -11.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reencode.legendre_decoder(4, 1.0, 1.5)

    def test_metadata(self):
        d = reencode.legendre_decoder(4, 1.0, 0.25)
        assert d.method == reencode.METHOD_LEGENDRE
        assert d.theta == 1.0 and d.theta_prime == 0.25


class TestHilbertDirect:
    def test_legendre_window_end(self):
        d = reencode.decoder_hilbert_direct(bases.shifted_legendre(6, 1.0), 1.0)
        assert np.max(np.abs(d.d - [1, 3, 5, 7, 9, 11])) < 1e-6
        assert d.condition is not None

    def test_matches_closed_form_midwindow(self):
        d = reencode.decoder_hilbert_direct(bases.shifted_legendre(6, 1.0), 0.5)
        ref = reencode.legendre_decoder(6, 1.0, 0.5)
        assert np.max(np.abs(d.d - ref.d)) < 1e-6

    def test_unit_basis(self):
        d = reencode.decoder_hilbert_direct(unit_basis(theta=2.0), 1.0)
        assert np.max(np.abs(d.d - [0.5])) < 1e-14

    def test_monomials_q11_match_fraction_oracle(self):
        # the monomial Gram matrix is a Hilbert matrix, cond 1e15 at q = 11;
        # the Legendre mixture of the monomials has cond_1 1.0e7
        d = reencode.decoder_hilbert_direct(monomials(11), 0.5)
        ref = exact_decoders(np.eye(11), 1.0, [0.5])[0]
        assert np.max(np.abs(d.d - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert 1e6 < d.condition < 1e8


class TestBasisInverse:
    def test_unit_basis(self):
        # the dual of the constant 1 on [0, 1] is the constant 1
        for tp in (0.0, 0.3, 1.0):
            assert np.array_equal(reencode.evaluated_decoder(unit_basis(), tp).d, [1.0])

    def test_legendre_duals_are_rescaled_legendre(self):
        # dual m is (2m + 1) / theta times Legendre polynomial m
        theta = 2.0
        basis = bases.shifted_legendre(8, theta)
        for tp in np.linspace(0.0, theta, 9):
            want = (2 * np.arange(8) + 1) / theta * legendre_value_recurrence(8, tp / theta)
            got = reencode.evaluated_decoder(basis, tp).d
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_biorthogonality(self):
        # <p_i, d_j> = delta_ij with the dual d_j(t) read off the decoders at
        # Gauss-Legendre nodes (exact for these degrees); the basis is
        # evaluated from its monomial coefficients, whose ~4^q magnitudes
        # set the residual floor past q = 8
        for family in (bases.shifted_legendre, bases.shifted_chebyshev):
            for q, tol in ((4, 1e-12), (8, 1e-10), (10, 1e-9)):
                basis = family(q, 1.0)
                nodes, weights = np.polynomial.legendre.leggauss(q)
                t = 0.5 * (nodes + 1.0)
                duals = np.array([d.d for d in reencode.decoder_bank(
                    basis, t, reencode.METHOD_BASIS_INVERSE)])
                vals = np.array([np.polynomial.polynomial.polyval(t, p) for p in basis.polys])
                got = (vals * (0.5 * weights)) @ duals
                assert np.max(np.abs(got - np.eye(q))) < tol

    def test_evaluated_decoder_matches_direct(self):
        for q in (1, 4, 8):
            basis = bases.shifted_legendre(q, 1.0)
            for tp in (0.0, 0.25, 1.0):
                via_dual = reencode.evaluated_decoder(basis, tp)
                direct = reencode.decoder_hilbert_direct(basis, tp)
                assert np.max(np.abs(via_dual.d - direct.d)) < 1e-6


class TestDiscreteDecoder:
    def test_legendre_window_end_n1e5(self):
        # agreement with the closed form is relative: the raw grid sum
        # carries an O(1/N) bias proportional to the entry magnitudes
        d = reencode.decoder_bank(bases.shifted_legendre(6, 1.0), [1.0],
                                  reencode.METHOD_DISCRETE, 100_000)[0]
        ref = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
        assert np.max(np.abs(d.d - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-3

    def test_unit_basis(self):
        d = reencode.decoder_bank(unit_basis(theta=2.0), [1.3], reencode.METHOD_DISCRETE, 1000)[0]
        assert abs(d.d[0] - 0.5) < 1.0 / 1000

    def test_matches_dense_pinv_oracle(self):
        # dense numpy reconstruction of the same formula, including the
        # floor-based grid snapping
        basis = bases.shifted_legendre(4, 1.0)
        n = 200
        ts = np.arange(n) * (1.0 / (n - 1))
        l = basis.values(ts)
        l_plus = l.T @ np.linalg.inv(l @ l.T)
        for tp in (0.0, 0.3, 0.77, 1.0):
            row = int(np.floor((n - 1) * tp / 1.0)) + 1
            want = n / 1.0 * l_plus[row - 1]
            got = reencode.decoder_bank(basis, [tp], reencode.METHOD_DISCRETE, n)[0]
            assert np.max(np.abs(got.d - want)) < 1e-9

    def test_chebyshev_reference_report(self):
        d = reencode.decoder_bank(bases.shifted_chebyshev(6, 1.0), [1.0],
                                  reencode.METHOD_DISCRETE, 1_000_000)[0]
        report = reencode.match_report(d.d)
        # entries 2, 4, 6 are the stable ones at q = 6; the full reference
        # list only lines up with the q = 7 decoder
        assert "3 of 6 overlapping entries match: [2, 4, 6]" in report
        d7 = reencode.decoder_hilbert_direct(bases.shifted_chebyshev(7, 1.0), 1.0)
        report7 = reencode.match_report(d7.d)
        assert "7 of 7 overlapping entries match" in report7

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            reencode.decoder_bank(bases.shifted_legendre(4, 1.0), [0.5],
                                  reencode.METHOD_DISCRETE, 7)


BANK_METHODS = (reencode.METHOD_HILBERT, reencode.METHOD_BASIS_INVERSE,
                reencode.METHOD_DISCRETE)


EXACT_METHODS = (reencode.METHOD_HILBERT, reencode.METHOD_BASIS_INVERSE)


def monomials(q):
    return bases.make_basis([np.eye(q)[k] for k in range(q)], 1.0)


def count_inversions(monkeypatch):
    """The shapes of the matrices linalg inverts from now on, in order."""
    calls = []
    inverse = linalg._inverse

    def counted(a):
        calls.append(np.shape(a))
        return inverse(a)

    monkeypatch.setattr(linalg, "_inverse", counted)
    return calls


class TestDecoderBank:
    @pytest.mark.parametrize("q", [6, 12])
    @pytest.mark.parametrize("family", ["legendre", "chebyshev", "random"])
    def test_matches_per_delay_functions(self, q, family):
        theta = 2.0
        basis = {
            "legendre": lambda: bases.shifted_legendre(q, theta),
            "chebyshev": lambda: bases.shifted_chebyshev(q, theta),
            "random": lambda: bases.random_basis(q, theta, seed=0),
        }[family]()
        tps = theta * np.arange(11) / 10
        per_delay = {
            reencode.METHOD_HILBERT: lambda tp: reencode.decoder_hilbert_direct(basis, tp),
            reencode.METHOD_BASIS_INVERSE: lambda tp: reencode.evaluated_decoder(basis, tp),
            reencode.METHOD_DISCRETE: lambda tp: reencode.decoder_bank(
                basis, [tp], reencode.METHOD_DISCRETE, 2000)[0],
        }
        # the exact methods multiply the same closed-form row by the same
        # M^-T, so a bank is its single-delay views bit for bit; discrete-pinv
        # solves its Gram for every delay at once, which rounds differently
        # from one solve per delay, both backward stable, so they agree to
        # q * gram_condition * eps relative
        eps = np.finfo(float).eps
        gram = gram_condition(basis)
        for method, single in per_delay.items():
            bank = reencode.decoder_bank(basis, tps, method, n_samples=2000)
            assert len(bank) == tps.size
            for dec, tp in zip(bank, tps):
                ref = single(tp)
                assert (dec.theta_prime, dec.theta, dec.method, dec.condition) == (
                    ref.theta_prime, ref.theta, ref.method, ref.condition)
                if method == reencode.METHOD_DISCRETE:
                    tol = q * gram * eps
                    assert np.max(np.abs(dec.d - ref.d)) <= tol * np.max(np.abs(ref.d))
                else:
                    assert dec.d.tobytes() == ref.d.tobytes()

    @pytest.mark.parametrize("method", BANK_METHODS)
    @pytest.mark.parametrize("k", [1, 11, 101])
    def test_one_condition_number_per_call(self, monkeypatch, method, k):
        # a bank inverts M once, whatever k, and a second bank of the same
        # basis reads the same inverse
        calls = count_inversions(monkeypatch)
        basis = bases.shifted_chebyshev(6, 1.0)
        for _ in range(2):
            bank = reencode.decoder_bank(basis, np.linspace(0.0, 1.0, k), method,
                                         n_samples=2000)
            assert len(bank) == k
            assert calls == [(6, 6)]

    @pytest.mark.parametrize("method", BANK_METHODS)
    @pytest.mark.parametrize("tp", [-0.1, 1.5])
    def test_out_of_range_delay(self, method, tp):
        with pytest.raises(ValueError, match="theta_prime must lie in"):
            reencode.decoder_bank(bases.shifted_legendre(4, 1.0), [0.5, tp], method)

    def test_rejects_closed_form(self):
        with pytest.raises(ValueError, match="unknown basis-space decoder method"):
            reencode.decoder_bank(bases.shifted_legendre(4, 1.0), [0.5],
                                  reencode.METHOD_LEGENDRE)

    def test_methods_table(self):
        # one table serves decoder_bank and both --method choices
        assert reencode.METHODS == ("closed-form-legendre", "hilbert-direct",
                                    "basis-inverse", "discrete-pinv")

    @pytest.mark.parametrize("method", BANK_METHODS)
    def test_window_past_the_float_range(self, method):
        # (2m + 1) / theta overflows at theta = 1e-320; no warning escapes
        with pytest.raises(ValueError, match="non-finite"):
            reencode.decoder_bank(bases.shifted_legendre(6, 1e-320), [0.0, 1e-320], method)
        with pytest.raises(ValueError, match="non-finite"):
            reencode.legendre_decoder(6, 1e-320, 1e-320)

    @pytest.mark.parametrize("method", BANK_METHODS)
    def test_product_past_the_float_range(self, method):
        # finite Legendre decoders, but M^-1 = 1e300 I takes them past the range
        legendre = bases.shifted_legendre(6, 1e-10)
        basis = bases.make_basis([1e-300 * p for p in legendre.polys], 1e-10)
        assert np.isfinite(reencode.legendre_decoder(6, 1e-10, 1e-10).d).all()
        with pytest.raises(ValueError, match="non-finite"):
            reencode.decoder_bank(basis, [0.0, 1e-10], method)

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_monomials_q11_match_fraction_oracle(self, method):
        # the monomial Gram matrix has condition 1e15 here, the Legendre
        # mixture of the monomials 1.0e7
        tps = [0.0, 0.25, 0.5, 1.0]
        bank = reencode.decoder_bank(monomials(11), tps, method)
        got = np.array([dec.d for dec in bank])
        ref = exact_decoders(np.eye(11), 1.0, tps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_monomials_q22_valid_and_accurate(self):
        # cond(M) = 1.9e15 is just inside the one limit; measured 2.1e-11
        basis = monomials(22)
        assert bases.validate(basis).ok
        tps = np.arange(11) / 10
        bank = reencode.decoder_bank(basis, tps, reencode.METHOD_HILBERT)
        got = np.array([dec.d for dec in bank])
        ref = exact_decoders(np.eye(22), 1.0, tps)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert 1e15 < bank[0].condition < 1.0 / np.finfo(float).eps

    @pytest.mark.parametrize("method", EXACT_METHODS)
    @pytest.mark.parametrize("q", [12, 16])
    @pytest.mark.parametrize("family", ["chebyshev", "random"])
    def test_match_fraction_oracle(self, method, q, family):
        tps = np.arange(11) / 10
        if family == "chebyshev":
            basis = bases.shifted_chebyshev(q, 1.0)
            coeffs = basis.coefficient_matrix()
        else:
            # the oracle takes the exact polynomials of the drawn mixture
            basis = bases.random_basis(q, 1.0, seed=0)
            legendre = shifted_legendre_exact(q)
            coeffs = [[sum(Fraction(float(m)) * row[k] for m, row in zip(mix, legendre))
                       for k in range(q)] for mix in basis.mixture]
        got = np.array([dec.d for dec in reencode.decoder_bank(basis, tps, method)])
        ref = exact_decoders(coeffs, 1.0, tps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_legendre_equals_closed_form(self, method):
        for q in range(1, 33):
            for theta in (0.5, 1.0, 2.0):
                tps = theta * np.arange(11) / 10
                bank = reencode.decoder_bank(bases.shifted_legendre(q, theta), tps, method)
                for dec, tp in zip(bank, tps):
                    ref = reencode.legendre_decoder(q, theta, tp).d
                    assert dec.d.tobytes() == ref.tobytes()
                    assert dec.condition == 1.0

    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_rejects_degree_above_q(self, method):
        # make_basis refuses t^2 at q = 2; a container built by hand with the
        # q x (q + 1) mixture of (t, t^2) is refused at M as well
        polys = (np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        mixture = np.array([[0.5, 0.5, 0.0], [1.0 / 3.0, 0.5, 1.0 / 6.0]])
        basis = bases.PolyBasis(q=2, theta=1.0, polys=polys, mixture=mixture)
        with pytest.raises(ValueError, match="must be square"):
            reencode.decoder_bank(basis, [0.5], method)

    @pytest.mark.parametrize("method", EXACT_METHODS + (reencode.METHOD_DISCRETE,))
    def test_singular_mixture_raises(self, method):
        dependent = bases.make_basis([[1.0, 2.0], [2.0, 4.0]], 1.0)
        with pytest.raises(SingularMatrixError):
            reencode.decoder_bank(dependent, [0.0, 0.5, 1.0], method, n_samples=100)

    @pytest.mark.parametrize("q", [12, 16])
    def test_monomials_discrete_near_exact(self, q):
        # cond(M) is 5.5e7 at q = 12 and 5.6e10 at q = 16, but the sampled
        # Gram is the Legendre one, so the decoders keep the N = 1e5
        # sampling bias, 7.5e-4 and 1.3e-3, and nothing worse
        tps = np.arange(11) / 10
        basis = monomials(q)
        got = np.array([dec.d for dec in reencode.decoder_bank(
            basis, tps, reencode.METHOD_DISCRETE)])
        ref = np.array([dec.d for dec in reencode.decoder_bank(
            basis, tps, reencode.METHOD_HILBERT)])
        assert np.max(np.abs(got - ref)) <= 2e-3 * np.max(np.abs(ref))


class TestOneLimit:
    """Validity, the generator and every decoder bank read one inverse of M,
    under linalg's one rule, and so agree on every basis."""

    Q = 8

    def basis_of(self, mixture):
        legendre = np.array([[float(c) for c in row]
                             for row in shifted_legendre_exact(self.Q)])
        return bases.PolyBasis(q=self.Q, theta=1.0, polys=tuple(mixture @ legendre),
                               mixture=mixture)

    @pytest.mark.parametrize("kappa, ok", [
        (1e3, True), (1e8, True), (1e12, True), (1e14, True), (1e17, False),
    ])
    def test_validity_generator_and_decoders_agree(self, kappa, ok):
        mixture = random_conditioned(np.random.default_rng(3), self.Q, kappa)
        basis = self.basis_of(mixture)
        report = bases.validate(basis)
        assert report.ok is ok
        if ok:
            # the 1-norm condition is within a factor Q of the 2-norm one
            assert kappa / self.Q <= report.condition <= kappa * self.Q
            assert report.condition == linalg._inverse(mixture)[1]
            assert lti.mk_poly_basis_lti(basis).basis is basis
            for method in BANK_METHODS:
                bank = reencode.decoder_bank(basis, [0.0, 1.0], method, n_samples=100)
                want = None if method == reencode.METHOD_DISCRETE else report.condition
                assert all(np.all(np.isfinite(dec.d)) for dec in bank)
                assert all(dec.condition == want for dec in bank)
        else:
            assert report.condition == np.inf
            with pytest.raises(ValueError, match="fails validation"):
                lti.mk_poly_basis_lti(basis)
            for method in BANK_METHODS:
                with pytest.raises(SingularMatrixError):
                    reencode.decoder_bank(basis, [0.0, 1.0], method, n_samples=100)

    def test_one_inversion_per_basis(self, monkeypatch):
        calls = count_inversions(monkeypatch)
        basis = self.basis_of(random_conditioned(np.random.default_rng(5), self.Q, 1e6))
        assert bases.validate(basis).ok
        system = lti.mk_poly_basis_lti(basis)
        for method in BANK_METHODS:
            reencode.decoder_bank(basis, np.linspace(0.0, 1.0, 11), method, n_samples=100)
        doc = formats.document_from_system(system, "custom")
        assert calls == [(self.Q, self.Q)]
        assert doc.metadata["solver_condition"] == bases.validate(basis).condition
        # what is cached cannot go stale or be changed under other callers
        assert not basis.mixture.flags.writeable
        assert not basis.inverse[0].flags.writeable


def exact_family(family, q, theta, seed=0):
    """A library basis and the exact monomial coefficients, in t / theta, of
    the same polynomials."""
    if family == "legendre":
        return bases.shifted_legendre(q, theta), shifted_legendre_exact(q)
    if family == "chebyshev":
        return bases.shifted_chebyshev(q, theta), shifted_chebyshev_exact(q)
    basis = bases.random_basis(q, theta, seed=seed)
    legendre = shifted_legendre_exact(q)
    return basis, [[sum(Fraction(float(m)) * row[k] for m, row in zip(mix, legendre))
                    for k in range(q)] for mix in basis.mixture]


def discrete_bank(basis, tps, n):
    return np.array([dec.d for dec in reencode.decoder_bank(
        basis, tps, reencode.METHOD_DISCRETE, n_samples=n)])


class TestDiscreteGaussRule:
    """The discrete-pinv bank against the sampled pseudo-inverse in exact
    fractions, whose Gram comes from exact grid power sums."""

    # the rule's nodes come from eigh within about 2 ulps of 1/2 (checked
    # against a 50-digit eigensolve); at N = 2q that moves the Legendre and
    # Chebyshev q = 16 decoders by up to 1.4 q * gram_condition * eps, where
    # a direct grid sum stays within 0.03 of it
    NODE_ULPS = 2

    @pytest.mark.parametrize("family", ["legendre", "chebyshev", "random"])
    @pytest.mark.parametrize("q", [4, 6, 12, 16])
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    @pytest.mark.parametrize("n", ["2q", 2001, 100_000])
    def test_matches_exact_sampled_pinv(self, family, q, theta, n):
        n = 2 * q if n == "2q" else n
        basis, coeffs = exact_family(family, q, theta)
        tps = theta * np.arange(11) / 10
        got = discrete_bank(basis, tps, n)
        ref = sampled_pinv_exact(coeffs, theta, n, tps)
        tol = self.NODE_ULPS * q * gram_condition(basis) * np.finfo(float).eps
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed, n", [(0, 2001), (1, 100_000)])
    def test_random_q24_within_1e12(self, seed, n):
        # the Gram solved is the Legendre one whatever M, so cond(M) enters
        # only through the one product with M^-T: measured 4.0e-14 and 6.2e-14
        basis, coeffs = exact_family("random", 24, 1.0, seed)
        tps = np.arange(11) / 10
        got = discrete_bank(basis, tps, n)
        ref = sampled_pinv_exact(coeffs, 1.0, n, tps)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("q, family", [(6, "chebyshev"), (12, "random")])
    def test_converges_to_exact_decoders(self, q, family):
        # the sampling bias falls as 1/N: measured 2e-11 and 7.6e-11 at 1e12
        basis, _ = exact_family(family, q, 1.0)
        tps = np.arange(11) / 10
        got = discrete_bank(basis, tps, 10**12)
        ref = np.array([dec.d for dec in reencode.decoder_bank(
            basis, tps, reencode.METHOD_HILBERT)])
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_exact_grid_limit(self):
        basis = bases.shifted_chebyshev(6, 1.0)
        assert len(reencode.decoder_bank(basis, [1.0], reencode.METHOD_DISCRETE,
                                         n_samples=2**53)) == 1
        for n in (2**53 + 1, 10**400):
            with pytest.raises(ValueError, match="2\\^53"):
                reencode.decoder_bank(basis, [1.0], reencode.METHOD_DISCRETE, n_samples=n)


class TestMethodAgreement:
    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_all_methods_agree(self, theta):
        for q in (2, 5, 8):
            basis = bases.shifted_legendre(q, theta)
            discrete = reencode.discrete_decoders(
                basis, 100_000, [0.0, theta / 4, theta / 2, theta]
            )
            for k, tp in enumerate((0.0, theta / 4, theta / 2, theta)):
                closed = reencode.legendre_decoder(q, theta, tp).d
                direct = reencode.decoder_hilbert_direct(basis, tp).d
                dual = reencode.evaluated_decoder(basis, tp).d
                assert np.max(np.abs(direct - closed)) < 1e-6
                assert np.max(np.abs(dual - closed)) < 1e-6
                scale = max(1.0, np.max(np.abs(closed)))
                assert np.max(np.abs(discrete[k].d - closed)) / scale < 1e-3


class TestDefiningProperty:
    def test_decoded_delay_reproduces_input(self):
        # oracle: m(theta) by Simpson quadrature of the convolution of the
        # basis functions with a random in-span input
        rng = np.random.default_rng(101)
        theta = 1.0
        for q in (4, 8):
            basis = bases.shifted_legendre(q, theta)
            n = 4000
            tau = np.linspace(0.0, theta, n + 1)
            f = basis.values(tau)
            weights = np.full(n + 1, 2.0)
            weights[1:-1:2] = 4.0
            weights[0] = weights[-1] = 1.0
            weights *= theta / n / 3.0
            for _ in range(5):
                xi = rng.standard_normal(q)
                u_rev = xi @ basis.values(theta - tau)
                m_theta = f @ (weights * u_rev)
                for tp in (0.0, 0.33, 0.5, 1.0):
                    want = float(xi @ basis.values(theta - tp)[:, 0])
                    got = reencode.legendre_decoder(q, theta, tp).d @ m_theta
                    assert abs(got - want) < 1e-5


class TestDelayReencoder:
    def test_legendre_rows(self):
        gamma = reencode.delay_reencoder(
            np.ones(6), reencode.legendre_decoder(6, 1.0, 1.0)
        )
        assert np.array_equal(gamma.gamma, np.tile([1.0, 3, 5, 7, 9, 11], (6, 1)))

    def test_zero_encoder(self):
        gamma = reencode.delay_reencoder(
            np.zeros(4), reencode.legendre_decoder(4, 1.0, 1.0)
        )
        assert np.array_equal(gamma.gamma, np.zeros((4, 4)))

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_column_pattern(self, theta):
        gamma = reencode.delay_reencoder(
            np.ones(5), reencode.legendre_decoder(5, theta, theta)
        )
        for j in range(5):
            assert np.all(gamma.gamma[:, j] == (2 * j + 1) / theta)

    def test_rank_one_minors(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal(8)
        d = reencode.legendre_decoder(8, 1.0, 0.6)
        g = reencode.delay_reencoder(e, d).gamma
        scale = np.max(np.abs(g)) ** 2
        for _ in range(50):
            i, k = rng.integers(0, 8, size=2)
            j, l = rng.integers(0, 8, size=2)
            minor = g[i, j] * g[k, l] - g[i, l] * g[k, j]
            assert abs(minor) <= 1e-9 * max(scale, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reencode.delay_reencoder(np.ones(3), reencode.legendre_decoder(4, 1.0, 1.0))


class TestDampen:
    def test_zero_gamma_is_identity(self):
        sys = lti.mk_chebyshev(5, 1.0)
        gamma = reencode.ReencoderMatrix(gamma=np.zeros((5, 5)), theta=1.0)
        out = reencode.dampen(sys, gamma)
        assert np.array_equal(out.a, sys.a)
        assert np.array_equal(out.b, sys.b)

    def test_chebyshev_impulse_decays(self):
        sys = lti.mk_chebyshev(6, 1.0)
        d = reencode.decoder_hilbert_direct(bases.shifted_chebyshev(6, 1.0), 1.0)
        damp = reencode.dampen(sys, reencode.delay_reencoder(reencode.encoder(sys), d))
        m3 = linalg.expm(3.0 * damp.a) @ damp.b
        assert np.linalg.norm(m3) < 0.1 * np.linalg.norm(damp.b)

    def test_shape_mismatch(self):
        gamma = reencode.ReencoderMatrix(gamma=np.zeros((3, 3)), theta=1.0)
        with pytest.raises(ValueError):
            reencode.dampen(lti.mk_ldn(4), gamma)

    def test_window_mismatch(self):
        # a theta = 2 decoder would leave the theta = 1 Legendre system 5.5 off the ldn
        gamma = reencode.delay_reencoder(np.ones(6), reencode.legendre_decoder(6, 2.0, 2.0))
        with pytest.raises(ValueError, match="window mismatch"):
            reencode.dampen(lti.mk_legendre(6, 1.0), gamma)


class TestStabilityRegression:
    def test_dampened_legendre_eigenvalues(self):
        for q in range(1, 17):
            gamma = reencode.delay_reencoder(
                np.ones(q), reencode.legendre_decoder(q, 1.0, 1.0)
            )
            damp = reencode.dampen(lti.mk_legendre(q, 1.0), gamma)
            assert np.all(np.linalg.eigvals(damp.a).real < 0.0)

    def test_dampened_chebyshev_eigenvalues(self):
        # the decoder must come from the sampled pseudo-inverse here: the
        # coefficient-space routes lose the decoder to cancellation around
        # q = 13 (coefficients ~4^q) and the dampened system then looks
        # spuriously unstable
        for q in range(1, 17):
            basis = bases.shifted_chebyshev(q, 1.0)
            sys = lti.mk_chebyshev(q, 1.0)
            d = reencode.decoder_bank(basis, [1.0], reencode.METHOD_DISCRETE, 100_000)[0]
            damp = reencode.dampen(
                sys, reencode.delay_reencoder(reencode.encoder(sys), d)
            )
            assert np.all(np.linalg.eigvals(damp.a).real < 0.0)


class TestLegendreValueAgreement:
    def test_decoder_uses_stable_recurrence(self):
        # closed form at large q stays finite and exact at the endpoints
        d = reencode.legendre_decoder(32, 1.0, 1.0)
        assert np.array_equal(d.d, 2.0 * np.arange(32) + 1.0)
        vals = legendre_value_recurrence(32, np.array([0.0]))
        d0 = reencode.legendre_decoder(32, 1.0, 0.0)
        assert np.array_equal(d0.d, (2.0 * np.arange(32) + 1.0) * vals[:, 0])
