"""Discretization and streaming simulation of the basis-generating systems.

A stored system theta * dm/dt = A m + B u is simulated as the plain ODE
dm/dt = (A / theta) m + (B / theta) u. Zero-order hold is the default
discretization; forward Euler is kept as a documented fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import IncompatibleStepError
from .lti import LtiSystem
from .reencode import encoder

# Sample period used for figure-style outputs when none is given.
DEFAULT_STEPS_PER_WINDOW = 1000


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled scalar signal."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", linalg.as_vector(self.samples, "samples"))
        if not self.dt > 0:
            raise ValueError("dt must be positive")


def impulse_signal(dt: float, n_samples: int) -> Signal:
    """Discrete stand-in for a unit Dirac pulse: one sample of height 1/dt."""
    samples = np.zeros(n_samples)
    samples[0] = 1.0 / dt
    return Signal(samples=samples, dt=dt)


@dataclass(frozen=True)
class StateTrajectory:
    """States sampled every dt; row k is m(k dt). One more row than inputs."""

    states: np.ndarray
    dt: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.states.shape[0]) * self.dt


@dataclass(frozen=True)
class DiscreteSystem:
    """One-step update m[k+1] = ad m[k] + bd u[k] for a fixed sample period."""

    ad: np.ndarray
    bd: np.ndarray
    dt: float
    theta: float


def discretize(sys: LtiSystem, dt: float, method: str = "zoh") -> DiscreteSystem:
    """Discretize at sample period dt.

    "zoh" holds the input constant over each step: ad = exp((dt/theta) A)
    and bd integrates exp((s/theta) A) (B/theta) over one step, both read
    off the exponential of the (q+1) x (q+1) augmented matrix. "euler" is
    the first-order fallback ad = I + (dt/theta) A, bd = (dt/theta) B.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if method == "zoh":
        q = sys.q
        aug = np.zeros((q + 1, q + 1))
        aug[:q, :q] = sys.a / sys.theta
        aug[:q, q] = sys.b / sys.theta
        full = linalg.expm(aug * dt)
        ad, bd = full[:q, :q], full[:q, q]
    elif method == "euler":
        ad = np.eye(sys.q) + (dt / sys.theta) * sys.a
        bd = (dt / sys.theta) * sys.b
    else:
        raise ValueError(f"unknown method {method!r}, expected 'zoh' or 'euler'")
    return DiscreteSystem(ad=ad, bd=bd, dt=float(dt), theta=sys.theta)


def _recur(ad, m0, n_steps, bd=None, u=None, ed=None, delay=0) -> np.ndarray:
    """States m[0] = m0, m[k+1] = ad m[k] + bd u[k] - ed u[k - delay].

    The input terms drop out without u, the erasure term without ed and
    while k < delay. Erasure is a separate subtraction: pre-summing the two
    drive terms changes the perfect window's states.
    """
    states = np.empty((n_steps + 1, m0.size))
    states[0] = m = m0
    for k in range(n_steps):
        m = ad @ m if u is None else ad @ m + bd * u[k]
        if ed is not None and k >= delay:
            m = m - ed * u[k - delay]
        states[k + 1] = m
    return states


def impulse_response(sys: LtiSystem, dt: float, t_max: float) -> StateTrajectory:
    """Sample the impulse response m(k dt) = exp((k dt / theta) A) B.

    Computed by repeated multiplication with the one-step propagator, which
    is exact for the homogeneous system up to roundoff.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not np.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    n_steps = int(round(t_max / dt))
    ad = linalg.expm((dt / sys.theta) * sys.a)
    states = _recur(ad, sys.b.astype(float, copy=True), n_steps)
    return StateTrajectory(states=states, dt=float(dt))


def sliding_transform(dsys: DiscreteSystem, u: Signal) -> StateTrajectory:
    """Run the state recurrence over a signal, starting from zero state.

    The state after k inputs approximates the convolution of the system's
    impulse response with the signal up to time k dt; at a window past an
    input feature, the state holds that window's basis coefficients.
    """
    if abs(u.dt - dsys.dt) > 1e-12 * dsys.dt:
        raise ValueError(f"signal dt {u.dt} does not match system dt {dsys.dt}")
    states = _recur(dsys.ad, np.zeros(dsys.bd.size), u.samples.size, dsys.bd, u.samples)
    return StateTrajectory(states=states, dt=dsys.dt)


def perfect_window_transform(sys: LtiSystem, u: Signal) -> StateTrajectory:
    """Sliding transform with exact erasure through a theta-long delay line.

    Simulates dm/dt = (A/theta) m + (B/theta) u(t) - (e(theta)/theta)
    u(t - theta): the delayed input is subtracted re-encoded through the
    window-end impulse response, so the impulse response is cut off at the
    window edge instead of evolving past it. e(theta) is discretized with
    the same augmented matrix exponential as the propagator, keeping the
    cancellation at the window edge exact to roundoff.

    The sample period must divide theta (the delay line holds a whole
    number of steps); otherwise IncompatibleStepError is raised.
    """
    delay_steps = int(round(sys.theta / u.dt))
    if delay_steps < 1 or abs(delay_steps * u.dt - sys.theta) > 1e-9 * sys.theta:
        raise IncompatibleStepError(
            f"dt {u.dt} does not divide the window length {sys.theta}"
        )
    dsys = discretize(sys, u.dt, "zoh")
    ed = discretize(replace(sys, b=encoder(sys)), u.dt, "zoh").bd
    states = _recur(dsys.ad, np.zeros(sys.q), u.samples.size, dsys.bd, u.samples,
                    ed, delay_steps)
    return StateTrajectory(states=states, dt=u.dt)


def decode_window(m: np.ndarray, decoders) -> np.ndarray:
    """Reconstructed window samples <d(theta'_i), m> for each decoder.

    ``m`` is one state, giving one value per decoder, or an (n, q) stack of
    states such as a whole trajectory, giving an (n, len(decoders)) matrix:
    ``m @ D.T`` with the decoders as the rows of D. Each entry is a single
    inner product, so a stack decodes bit for bit like its rows.
    """
    m = np.asarray(m, dtype=float)
    m = linalg.as_vector(m, "m") if m.ndim == 1 else linalg.as_matrix(m, "m")
    q = m.shape[-1]
    rows = [dec.d for dec in decoders]
    for i, d in enumerate(rows):
        if d.size != q:
            raise ValueError(f"decoder {i} has length {d.size}, state has {q}")
    return np.vecdot(m[..., None, :], np.reshape(rows, (-1, q)))
