import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from numpy.polynomial.legendre import legval
from numpy.polynomial.polynomial import polyval

from ldnkit import bases, lti, reencode, sim
from ldnkit.errors import IncompatibleStepError

from helpers import dirac, legendre_window_taps, perfect_window_direct_sum, recur_per_sample


class TestDiscretize:
    def test_integrator(self):
        sys = lti.LtiSystem(a=np.zeros((2, 2)), b=np.array([3.0, -1.0]), theta=2.0)
        dsys = sim.discretize(sys, 0.25)
        assert np.array_equal(dsys.ad, np.eye(2))
        assert np.array_equal(dsys.bd, [3.0 * 0.25 / 2.0, -1.0 * 0.25 / 2.0])

    def test_ldn_discrete_stable(self):
        dsys = sim.discretize(lti.mk_ldn(6, 1.0), 1e-3)
        assert np.all(np.isfinite(dsys.ad))
        assert np.max(np.abs(np.linalg.eigvals(dsys.ad))) < 1.0

    @pytest.mark.parametrize("sys, dt", [(lti.mk_ldn(6), 1e308), (lti.mk_legendre(6), 1e300)],
                             ids=["generator", "exponential"])
    def test_overflowing_period(self, sys, dt):
        # (dt / theta) A overflows for the ldn; for the nilpotent legendre
        # generator it is finite and its exponential overflows
        with pytest.raises(IncompatibleStepError, match="sample period"):
            sim.discretize(sys, dt)


class TestImpulseResponse:
    def test_starts_at_b(self):
        sys = lti.mk_chebyshev(5, 1.0)
        traj = sim.impulse_response(sys, 0.01, 0.5)
        assert np.array_equal(traj.states[0], sys.b)
        assert traj.states.shape == (51, 5)

    @pytest.mark.parametrize("q", [2, 6, 10])
    def test_legendre_traces_polynomials(self, q):
        traj = sim.impulse_response(lti.mk_legendre(q, 1.0), 1e-3, 1.0)
        ts = np.arange(1001) * 1e-3
        ref = bases.legendre_values(q, ts).T
        assert np.max(np.abs(traj.states - ref)) < 1e-8

    def test_ldn_decays(self):
        traj = sim.impulse_response(lti.mk_ldn(6, 1.0), 1e-3, 3.0)
        assert np.linalg.norm(traj.states[-1]) < 0.02 * np.linalg.norm(traj.states[0])

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sim.impulse_response(lti.mk_ldn(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            sim.impulse_response(lti.mk_ldn(2), 0.1, 0.05)

    def test_overflowing_period(self):
        with pytest.raises(IncompatibleStepError, match="sample period"):
            sim.impulse_response(lti.mk_ldn(6), 1e308, 1e308)

    def test_overflowing_propagator(self):
        # (dt / theta) A is finite, but its exponential, with entries of
        # about e^1000, is not: raised, not returned as non-finite rows
        sys = lti.LtiSystem(a=np.diag([1.0, 1000.0]), b=np.ones(2), theta=1.0)
        with pytest.raises(IncompatibleStepError, match="sample period"):
            sim.impulse_response(sys, 1.0, 2.0)

    @pytest.mark.parametrize("q", [16, 32])
    @pytest.mark.parametrize("make_sys, series", [(lti.mk_legendre, legval),
                                                  (lti.mk_chebyshev, chebval)],
                             ids=["legendre", "chebyshev"])
    def test_generator_traces_numpy_series(self, make_sys, series, q):
        # oracle: numpy's series evaluation at 2t - 1, over one window
        # at dt = theta / 1000
        traj = sim.impulse_response(make_sys(q, 2.0), 2e-3, 2.0)
        y = 2.0 * np.arange(1001) / 1000 - 1.0
        ref = np.array([series(y, np.eye(q)[n]) for n in range(q)]).T
        assert np.max(np.abs(traj.states - ref)) <= 1e-12

    def test_generator_is_its_basis(self):
        # read off the basis the system carries, not propagated through its
        # ill-conditioned A
        sys =lti.mk_poly_basis_lti(bases.random_basis(16, seed=0))
        traj = sim.impulse_response(sys, 1e-3, 2.0)
        assert np.array_equal(traj.states, sim.impulse_response(sys.basis, 1e-3, 2.0).states)

    @pytest.mark.parametrize("basis", [bases.shifted_legendre(6, 2.0),
                                       bases.shifted_chebyshev(16),
                                       bases.random_basis(6, seed=0)],
                             ids=["legendre", "chebyshev", "random"])
    @pytest.mark.parametrize("dt, t_max", [(0.01, 1.5), (0.3, 1.0), (1e-3, 1e-3)])
    def test_basis_is_sampled(self, basis, dt, t_max):
        # the basis is its generator's impulse response: evaluated, with the
        # rows of the system path
        traj = sim.impulse_response(basis, dt, t_max)
        rows = sim.impulse_response(lti.mk_ldn(basis.q, basis.theta), dt, t_max).states.shape[0]
        assert traj.states.shape == (rows, basis.q)
        assert traj.dt == dt
        assert np.array_equal(traj.states, basis.values(np.arange(rows) * dt).T)

    def test_basis_rejects_bad_steps(self):
        basis = bases.shifted_legendre(2)
        for dt, t_max in ((0.0, 1.0), (0.1, 0.05), (0.1, np.inf)):
            with pytest.raises(ValueError):
                sim.impulse_response(basis, dt, t_max)

    def test_overflowing_basis_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            sim.impulse_response(bases.shifted_legendre(32), 1e9, 1e10)


class TestSlidingTransform:
    def test_zero_signal(self):
        dsys = sim.discretize(lti.mk_ldn(4, 1.0), 1e-2)
        traj = sim.sliding_transform(dsys, sim.Signal(samples=np.zeros(50), dt=1e-2))
        assert np.array_equal(traj.states, np.zeros((51, 4)))

    def test_impulse_approximates_impulse_response(self):
        sys = lti.mk_legendre(6, 1.0)
        dt = 1e-3
        dsys = sim.discretize(sys, dt)
        sl = sim.sliding_transform(dsys, sim.Signal(samples=dirac(dt, 1000), dt=dt))
        imp = sim.impulse_response(sys, dt, 1.0)
        # one discrete step of offset, so O(dt) agreement from sample 1 on
        assert np.max(np.abs(sl.states[1:] - imp.states[1:1001])) < 0.03

    def test_matches_convolution_quadrature(self):
        # oracle: trapezoid quadrature of the convolution of the input with
        # the polynomial impulse response (evaluated from the basis, not
        # from the system under test)
        sys = lti.mk_legendre(6, 1.0)
        basis = bases.shifted_legendre(6, 1.0)
        p2 = bases.shifted_legendre(3, 1.0).polys[2]
        dt = 2e-5
        n = 50000
        u = sim.Signal(samples=polyval(np.arange(n) * dt, p2), dt=dt)
        m = sim.sliding_transform(sim.discretize(sys, dt), u).states[-1]
        tau = np.arange(n + 1) * dt
        u_rev = polyval(n * dt - tau, p2)
        oracle = np.trapezoid(basis.values(tau) * u_rev[None, :], tau, axis=1)
        assert np.max(np.abs(m - oracle)) < 1e-4

    def test_linearity(self):
        rng = np.random.default_rng(19)
        dsys = sim.discretize(lti.mk_ldn(5, 1.0), 1e-2)
        u = rng.standard_normal(200)
        v = rng.standard_normal(200)
        alpha, beta = 1.7, -0.4
        mixed = sim.sliding_transform(
            dsys, sim.Signal(samples=alpha * u + beta * v, dt=1e-2)
        )
        mu = sim.sliding_transform(dsys, sim.Signal(samples=u, dt=1e-2))
        mv = sim.sliding_transform(dsys, sim.Signal(samples=v, dt=1e-2))
        combo = alpha * mu.states + beta * mv.states
        assert np.max(np.abs(mixed.states - combo)) < 1e-10

    def test_time_invariance(self):
        rng = np.random.default_rng(21)
        dsys = sim.discretize(lti.mk_ldn(4, 1.0), 1e-2)
        u = rng.standard_normal(100)
        shift = 7
        shifted = np.concatenate([np.zeros(shift), u])
        base = sim.sliding_transform(dsys, sim.Signal(samples=u, dt=1e-2))
        moved = sim.sliding_transform(dsys, sim.Signal(samples=shifted, dt=1e-2))
        assert np.array_equal(moved.states[shift:], base.states)

    def test_dt_mismatch(self):
        dsys = sim.discretize(lti.mk_ldn(2), 1e-2)
        with pytest.raises(ValueError):
            sim.sliding_transform(dsys, sim.Signal(samples=np.zeros(5), dt=2e-2))

    @pytest.mark.parametrize("lo,hi", [(3.4, 4.6)], ids=["zoh-3.4-4.6"])
    def test_richardson_order(self, lo, hi):
        # input sampled at step midpoints, so the held value matches the
        # step average to second order and zoh shows its full order
        sys = lti.mk_legendre(6, 1.0)

        def run(dt):
            n = int(round(0.5 / dt))
            u = np.sin(3.0 * (np.arange(n) + 0.5) * dt)
            traj = sim.sliding_transform(
                sim.discretize(sys, dt), sim.Signal(samples=u, dt=dt)
            )
            return traj.states[-1]

        m1, m2, m4 = run(2e-3), run(1e-3), run(5e-4)
        ratio = np.linalg.norm(m1 - m2) / np.linalg.norm(m2 - m4)
        assert lo < ratio < hi


def _first_non_finite_row(states):
    finite = np.all(np.isfinite(states), axis=1)
    return int(np.argmin(finite)) if not finite.all() else None


class TestStatesPastTheFloatRange:
    # u = 1e308 for 3 of 3000 samples; every warning is an error here
    @staticmethod
    def _signal(value):
        u = np.zeros(3000)
        u[:3] = value
        return sim.Signal(samples=u, dt=1e-3)

    @pytest.mark.parametrize("perfect", [False, True], ids=["plain", "perfect-window"])
    def test_refused(self, perfect):
        with pytest.raises(ValueError, match="non-finite"):
            self._transform(perfect, self._signal(1e308))

    @pytest.mark.parametrize("perfect", [False, True], ids=["plain", "perfect-window"])
    def test_large_finite_states_kept(self, perfect):
        big = self._transform(perfect, self._signal(2.0 ** 990)).states
        unit = self._transform(perfect, self._signal(1.0)).states
        assert np.allclose(big * 2.0 ** -990, unit, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _transform(perfect, signal):
        if perfect:
            return sim.perfect_window_transform(bases.shifted_legendre(6, 1.0), signal)
        return sim.sliding_transform(sim.discretize(lti.mk_legendre(6, 1.0), 1e-3), signal)


class TestRecurrence:
    """The blocked state recurrence against the one-sample-at-a-time loop."""

    @pytest.mark.parametrize("case", ["input", "no-input", "m0-and-input", "leading-zeros"])
    @pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 129, 2001])
    @pytest.mark.parametrize("q", [1, 6, 32])
    def test_matches_per_sample(self, q, n_steps, case):
        rng = np.random.default_rng(1000 * q + n_steps)
        dsys = sim.discretize(lti.mk_ldn(q, 1.0), 1e-3)
        m0 = rng.standard_normal(q) if case in ("no-input", "m0-and-input") else np.zeros(q)
        bd, u = (None, None) if case == "no-input" else (dsys.bd, rng.standard_normal(n_steps))
        if case == "leading-zeros":
            u[: n_steps // 2] = 0.0
        got = sim._recur(dsys.ad, m0, n_steps, bd, u)
        want = recur_per_sample(dsys.ad, m0, n_steps, bd, u)
        assert got.shape == want.shape == (n_steps + 1, q)
        assert np.array_equal(got[0], m0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("shift", [1, 63, 64, 65])
    def test_delayed_input_delays_states_bitwise(self, shift):
        rng = np.random.default_rng(shift)
        dsys = sim.discretize(lti.mk_ldn(6, 1.0), 1e-3)
        u = rng.standard_normal(300)
        shifted = np.concatenate([np.zeros(shift), u])
        base = sim.sliding_transform(dsys, sim.Signal(samples=u, dt=1e-3)).states
        moved = sim.sliding_transform(dsys, sim.Signal(samples=shifted, dt=1e-3)).states
        assert np.array_equal(moved[shift:], base)
        assert not moved[:shift].any()

    @staticmethod
    def _unstable(radius, with_input, seed):
        """States of a random 6-state system with spectral radius ``radius``,
        by the kernel and by the reference, over 2001 steps."""
        rng = np.random.default_rng(seed)
        ad = rng.standard_normal((6, 6))
        ad *= radius / np.max(np.abs(np.linalg.eigvals(ad)))
        m0 = rng.standard_normal(6)
        bd, u = (rng.standard_normal(6), rng.standard_normal(2001)) if with_input else (None, None)
        with np.errstate(over="ignore", invalid="ignore"):
            return sim._recur(ad, m0, 2001, bd, u), recur_per_sample(ad, m0, 2001, bd, u)

    @pytest.mark.parametrize("with_input", [False, True], ids=["no-input", "input"])
    @pytest.mark.parametrize("radius", [1e100, 1e200])
    def test_overflows_at_the_reference_row(self, radius, with_input):
        # each step multiplies the state by about radius, so no finite row
        # comes within rounding of the largest double
        got, want = self._unstable(radius, with_input, seed=8)
        assert _first_non_finite_row(want) is not None
        assert _first_non_finite_row(got) == _first_non_finite_row(want)

    @pytest.mark.parametrize("with_input", [False, True], ids=["no-input", "input"])
    def test_slow_overflow_differs_only_next_to_the_largest_double(self, with_input):
        # growing 1.5 times a step, the block form multiplies by ad^i, whose
        # entries can far outgrow the state they produce, so within a small
        # factor of the largest double (1.8e308) a partial sum may overflow
        # a few rows before the reference's does (seed 24) or after; both
        # agree until then
        got, want = self._unstable(1.5, with_input, seed=24)
        rows = _first_non_finite_row(got), _first_non_finite_row(want)
        assert None not in rows
        k = min(rows)
        scale = np.max(np.abs(want[:k]), axis=1, keepdims=True)
        assert np.max(np.abs(got[:k] - want[:k]) / scale) <= 1e-12
        survivor = want if rows[0] < rows[1] else got
        assert rows[0] == rows[1] or np.max(np.abs(survivor[k])) > 1e307


class TestPerfectWindow:
    def test_impulse_vanishes_after_window(self):
        sys = lti.mk_legendre(6, 1.0)
        dt = 1e-3
        traj = sim.perfect_window_transform(bases.shifted_legendre(6, 1.0),
                                            sim.Signal(samples=dirac(dt, 1500), dt=dt))
        post = traj.states[1002:]
        assert np.max(np.abs(post)) < 1e-6 * np.max(np.abs(sys.b))

    def test_impulse_matches_undampened_before_window(self):
        sys = lti.mk_legendre(6, 1.0)
        dt = 1e-3
        traj = sim.perfect_window_transform(bases.shifted_legendre(6, 1.0),
                                            sim.Signal(samples=dirac(dt, 999), dt=dt))
        imp = sim.impulse_response(sys, dt, 0.999)
        assert np.max(np.abs(traj.states[1:] - imp.states[1:1000])) < 0.03

    def test_zero_signal(self):
        traj = sim.perfect_window_transform(
            bases.shifted_legendre(4, 1.0), sim.Signal(samples=np.zeros(1200), dt=1e-3)
        )
        assert np.array_equal(traj.states, np.zeros((1201, 4)))

    def test_incompatible_step(self):
        with pytest.raises(IncompatibleStepError):
            sim.perfect_window_transform(
                bases.shifted_legendre(4, 1.0), sim.Signal(samples=np.zeros(10), dt=3e-4)
            )

    @pytest.mark.parametrize("q", [6, 16, 24, 32])
    def test_long_signal_matches_direct_sum(self, q):
        # oracle: the window's zero-order-hold taps by quadrature of the
        # Legendre values, summed over the last theta of a 12-window random
        # input. The states are O(0.1); the FIR transform errs by about
        # 3e-15 at every q.
        dt = 1e-3
        u = np.random.default_rng(0).standard_normal(12000)
        traj = sim.perfect_window_transform(bases.shifted_legendre(q, 1.0),
                                            sim.Signal(samples=u, dt=dt))
        ref = perfect_window_direct_sum(legendre_window_taps(q, 1.0, dt), u)
        assert np.max(np.abs(traj.states - ref)) < 1e-12

    @pytest.mark.parametrize("basis", [bases.shifted_chebyshev(12),
                                       bases.random_basis(12, seed=0)],
                             ids=["chebyshev", "random"])
    def test_any_basis_matches_direct_sum(self, basis):
        # the taps of a mixture p = M l are M times the Legendre taps
        dt = 1e-3
        u = np.random.default_rng(1).standard_normal(5000)
        traj = sim.perfect_window_transform(basis, sim.Signal(samples=u, dt=dt))
        taps = legendre_window_taps(12, 1.0, dt) @ basis.mixture.T
        ref = perfect_window_direct_sum(taps, u)
        assert np.max(np.abs(traj.states - ref)) < 1e-12

    def test_short_signal_builds_only_the_taps_it_reaches(self):
        # a window of 1e7 steps: 10 samples reach only its first 10 taps,
        # so the transform must not build the other 9 999 990
        q, theta = 6, 1.0
        dt = theta / 1e7
        u = np.random.default_rng(2).standard_normal(10)
        traj = sim.perfect_window_transform(bases.shifted_legendre(q, theta),
                                            sim.Signal(samples=u, dt=dt))
        assert traj.states.shape == (11, q)
        ref = perfect_window_direct_sum(legendre_window_taps(q, theta, dt, n_taps=10), u)
        assert np.max(np.abs(traj.states - ref)) < 1e-12

    def test_aliasing_discrepancy_shrinks_with_q(self):
        # over [0, 0.9 theta] the dampened system deviates from the basis
        # polynomials (the perfectly windowed response) by a margin that
        # falls as q grows
        deviations = []
        for q in (4, 8, 16):
            traj = sim.impulse_response(lti.mk_ldn(q, 1.0), 1e-3, 0.9)
            ts = np.arange(traj.states.shape[0]) * 1e-3
            ref = bases.legendre_values(q, ts).T
            deviations.append(np.max(np.abs(traj.states - ref)))
        assert deviations[0] > deviations[1] > deviations[2]


class TestDecodeWindow:
    def test_zero_state(self):
        decs = [reencode.legendre_decoder(4, 1.0, tp) for tp in (0.0, 0.5, 1.0)]
        assert np.array_equal(sim.decode_window(np.zeros(4), decs), np.zeros(3))

    def test_constant_window_decodes_to_constant(self):
        u = sim.Signal(samples=np.ones(2000), dt=1e-3)
        traj = sim.perfect_window_transform(bases.shifted_legendre(6, 1.0), u)
        decs = [
            reencode.legendre_decoder(6, 1.0, tp) for tp in np.linspace(0.0, 1.0, 21)
        ]
        decoded = sim.decode_window(traj.states[1500], decs)
        assert np.max(np.abs(decoded - 1.0)) < 1e-3

    def test_impulse_decoding_sharpens_with_q(self):
        dt = 1e-3
        peaks = []
        for q in (4, 8):
            traj = sim.impulse_response(lti.mk_ldn(q, 1.0), dt, 1.0)
            peak = reencode.legendre_decoder(q, 1.0, 1.0).d @ traj.states[-1]
            peaks.append(peak)
        assert peaks[1] > peaks[0] > 0

    @pytest.mark.parametrize("q", [6, 12])
    def test_stack_matches_rows_bitwise(self, q):
        dt = 1e-3
        u = np.random.default_rng(q).standard_normal(3000)
        traj = sim.sliding_transform(sim.discretize(lti.mk_ldn(q, 1.0), dt),
                                     sim.Signal(samples=u, dt=dt))
        decs = [reencode.legendre_decoder(q, 1.0, tp) for tp in np.linspace(0, 1, 11)]
        stacked = sim.decode_window(traj.states, decs)
        assert stacked.shape == (3001, 11)
        by_row = np.array([sim.decode_window(m, decs) for m in traj.states])
        by_pair = np.array([[dec.d @ m for dec in decs] for m in traj.states])
        assert np.array_equal(stacked, by_row)
        assert np.array_equal(stacked, by_pair)

    def test_stack_width_mismatch(self):
        with pytest.raises(ValueError):
            sim.decode_window(np.zeros((5, 3)), [reencode.legendre_decoder(4, 1.0, 0.5)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sim.decode_window(np.zeros(3), [reencode.legendre_decoder(4, 1.0, 0.5)])
