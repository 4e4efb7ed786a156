import numpy as np
import pytest

from helpers import legendre_value_recurrence
from ldnkit import bases, linalg, lti, poly, reencode
from ldnkit.errors import IllConditionedError, RankDeficientError


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

    def test_theta_scaling(self):
        # impulse response at t depends only on t / theta
        e_fast = reencode.encoder(lti.mk_ldn(4, 0.5), 0.25)
        e_slow = reencode.encoder(lti.mk_ldn(4, 2.0), 1.0)
        assert np.max(np.abs(e_fast - e_slow)) < 1e-13

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            reencode.encoder(lti.mk_ldn(3), -0.1)


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

    def test_ill_conditioned_raises(self):
        # plain monomials ride the raw Hilbert matrix, unusable by q = 11
        monomials = bases.make_basis([np.eye(11)[k] for k in range(11)], 1.0)
        with pytest.raises(IllConditionedError) as info:
            reencode.decoder_hilbert_direct(monomials, 0.5)
        assert info.value.condition > 1e14


class TestBasisInverse:
    def test_unit_basis(self):
        duals = reencode.basis_inverse(unit_basis())
        assert np.max(np.abs(duals[0] - [1.0])) < 1e-14

    def test_legendre_duals_are_rescaled_legendre(self):
        theta = 1.0
        basis = bases.shifted_legendre(8, theta)
        duals = reencode.basis_inverse(basis)
        for m, dual in enumerate(duals):
            want = (2 * m + 1) / theta * np.pad(
                basis.polys[m], (0, 8 - basis.polys[m].size)
            )
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(dual - want)) / scale < 1e-6

    def test_biorthogonality(self):
        # the residual floor past q = 8 is set by cancellation when the
        # inner products are recomputed from coefficients (~4^q magnitudes),
        # not by the solve itself
        for q, tol in ((4, 1e-7), (8, 1e-7), (10, 1e-4)):
            basis = bases.shifted_legendre(q, 1.0)
            duals = reencode.basis_inverse(basis)
            for i in range(q):
                for j in range(q):
                    got = poly.inner_product(basis.polys[i], duals[j], 1.0)
                    assert abs(got - (1.0 if i == j else 0.0)) < tol

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
        d = reencode.decoder_discrete(bases.shifted_legendre(6, 1.0), 100_000, 1.0)
        ref = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
        assert np.max(np.abs(d.d - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-3

    def test_unit_basis(self):
        d = reencode.decoder_discrete(unit_basis(theta=2.0), 1000, 1.3)
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
            got = reencode.decoder_discrete(basis, n, tp)
            assert np.max(np.abs(got.d - want)) < 1e-9

    def test_chebyshev_reference_report(self):
        d = reencode.decoder_discrete(bases.shifted_chebyshev(6, 1.0), 1_000_000, 1.0)
        report = reencode.match_report(d.d)
        # entries 2, 4, 6 are the stable ones at q = 6; the full reference
        # list only lines up with the q = 7 decoder
        assert "3 of 6 overlapping entries match: [2, 4, 6]" in report
        d7 = reencode.decoder_hilbert_direct(bases.shifted_chebyshev(7, 1.0), 1.0)
        report7 = reencode.match_report(d7.d)
        assert "7 of 7 overlapping entries match" in report7

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            reencode.decoder_discrete(bases.shifted_legendre(4, 1.0), 7, 0.5)


BANK_METHODS = (reencode.METHOD_HILBERT, reencode.METHOD_BASIS_INVERSE,
                reencode.METHOD_DISCRETE)


def monomials(q):
    return bases.make_basis([np.eye(q)[k] for k in range(q)], 1.0)


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
            reencode.METHOD_DISCRETE: lambda tp: reencode.decoder_discrete(basis, 2000, tp),
        }
        # a multi-column solve rounds differently from K vector solves; both
        # are backward stable, so they agree to q * cond * eps relative
        # (measured: at most 2e-2 of that); evaluating the duals is exact
        eps = np.finfo(float).eps
        gram_condition = bases.validate(basis).gram_condition
        for method, single in per_delay.items():
            bank = reencode.decoder_bank(basis, tps, method, n_samples=2000)
            assert len(bank) == tps.size
            for dec, tp in zip(bank, tps):
                ref = single(tp)
                assert (dec.theta_prime, dec.theta, dec.method, dec.condition) == (
                    ref.theta_prime, ref.theta, ref.method, ref.condition)
                if method == reencode.METHOD_HILBERT:
                    tol = q * ref.condition * eps
                elif method == reencode.METHOD_DISCRETE:
                    tol = q * gram_condition * eps
                else:
                    tol = 0.0
                assert np.max(np.abs(dec.d - ref.d)) <= tol * np.max(np.abs(ref.d))

    @pytest.mark.parametrize("method", BANK_METHODS)
    @pytest.mark.parametrize("k", [1, 11, 101])
    def test_one_condition_number_per_call(self, monkeypatch, method, k):
        calls = []
        condition = linalg._condition

        def counted(a):
            calls.append(a.shape)
            return condition(a)

        monkeypatch.setattr(linalg, "_condition", counted)
        bank = reencode.decoder_bank(bases.shifted_chebyshev(6, 1.0),
                                     np.linspace(0.0, 1.0, k), method, n_samples=2000)
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

    @pytest.mark.parametrize("method", [reencode.METHOD_HILBERT,
                                        reencode.METHOD_BASIS_INVERSE])
    def test_ill_conditioned_raises(self, method):
        with pytest.raises(IllConditionedError) as info:
            reencode.decoder_bank(monomials(11), [0.0, 0.5, 1.0], method)
        assert info.value.condition > reencode.ILL_CONDITIONED_LIMIT

    def test_rank_deficient_raises(self):
        dependent = bases.make_basis([[1.0, 2.0], [2.0, 4.0]], 1.0)
        with pytest.raises(RankDeficientError):
            reencode.decoder_bank(dependent, [0.0, 1.0], reencode.METHOD_DISCRETE,
                                  n_samples=100)


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
            d = reencode.decoder_discrete(basis, 100_000, 1.0)
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
