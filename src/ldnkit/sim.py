"""Discretization and streaming simulation of the basis-generating systems.

A stored system theta * dm/dt = A m + B u is simulated as the plain ODE
dm/dt = (A / theta) m + (B / theta) u, discretized by zero-order hold. The
state recurrence m[k+1] = ad m[k] + bd u[k], which ``sliding_transform``
and the impulse response of a system without a basis run, advances a
block of samples per pair of matrix-vector products, not one sample per
Python iteration. An undampened generator's impulse response is its basis,
evaluated, not propagated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import PolyBasis, legendre_values
from .errors import IncompatibleStepError
from .lti import LtiSystem

# Sample period used for figure-style outputs when none is given.
DEFAULT_STEPS_PER_WINDOW = 1000

# Steps the state recurrence advances per pair of matrix-vector products.
_BLOCK = 64


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled scalar signal."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", linalg.as_vector(self.samples, "samples"))
        if not self.dt > 0:
            raise ValueError("dt must be positive")


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


def discretize(sys: LtiSystem, dt: float) -> DiscreteSystem:
    """Zero-order-hold discretization at sample period dt.

    The input is held constant over each step: ad = exp((dt/theta) A) and
    bd integrates exp((s/theta) A) (B/theta) over one step, both read off
    the exponential of the (q+1) x (q+1) augmented matrix.
    IncompatibleStepError where that exponential overflows.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    q = sys.q
    aug = np.zeros((q + 1, q + 1))
    aug[:q, :q] = sys.a / sys.theta
    aug[:q, q] = sys.b / sys.theta
    full = _step_exponential(dt, aug, dt)
    return DiscreteSystem(ad=full[:q, :q], bd=full[:q, q], dt=float(dt))


def _step_exponential(scale: float, rate: np.ndarray, dt: float) -> np.ndarray:
    """exp(scale * rate) over one sample period dt, with no numpy warning;
    IncompatibleStepError if scale * rate or its exponential overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = scale * rate
        if not np.isfinite(linalg.one_norm(scaled)):
            raise IncompatibleStepError(f"sample period {dt} overflows (dt / theta) A")
        full = linalg.expm(scaled)
    if not np.all(np.isfinite(full)):
        raise IncompatibleStepError(f"sample period {dt} overflows exp((dt / theta) A)")
    return full


def _recur(ad, m0, n_steps, bd=None, u=None) -> np.ndarray:
    """States m[0] = m0, m[k+1] = ad m[k] + bd u[k]; the input term drops out without u.

    The states advance b = _BLOCK steps at a time. The b states after m are
    ``stack @ m + toeplitz @ u[k:k + b]``: ``stack`` holds the powers
    ad^1 .. ad^b as a (b q) x q matrix, and ``toeplitz`` the taps ad^i bd as
    a lower block-triangular (b q) x b matrix, both formed once; a short
    last block takes their leading rows and columns. A zero state fed zero
    inputs stays exactly zero, so from a zero m0 the blocks start at the
    first nonzero input: delaying the input by whole samples delays the
    states bit for bit.
    """
    q = m0.size
    b = min(_BLOCK, n_steps)
    powers = [np.eye(q)]
    for _ in range(b):
        powers.append(ad @ powers[-1])
    powers = np.array(powers)
    stack = powers[1:].reshape(b * q, q)
    states = np.zeros((n_steps + 1, q))
    states[0] = m = m0
    start = 0
    if u is not None:
        taps = powers[:b] @ bd
        toeplitz = np.zeros((b, q, b))
        for j in range(b):
            toeplitz[j:, :, j] = taps[: b - j]
        toeplitz = toeplitz.reshape(b * q, b)
        if not m0.any():
            nonzero = np.flatnonzero(u)
            start = nonzero[0] if nonzero.size else n_steps
    for k in range(start, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - k)
        block = stack[: n * q] @ m
        if u is not None:
            block += toeplitz[: n * q, :n] @ u[k : k + n]
        states[k + 1 : k + n + 1] = block.reshape(n, q)
        m = states[k + n]
    return states


def impulse_response(source: LtiSystem | PolyBasis, dt: float, t_max: float) -> StateTrajectory:
    """Sample an impulse response at k dt for k = 0 .. round(t_max / dt).

    A PolyBasis, or a system that carries one (an undampened generator), is
    its generator's response: p(k dt), evaluated (ValueError where that is
    not finite). Any other system's exp((k dt / theta) A) B is stepped by
    its one-step propagator, which may outgrow the floats;
    IncompatibleStepError where the propagator itself overflows.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not np.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if t_max < dt:
        raise ValueError("t_max must be at least dt")
    n_steps = int(round(t_max / dt))
    basis = source if isinstance(source, PolyBasis) else source.basis
    if basis is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            states = linalg.as_matrix(basis.values(np.arange(n_steps + 1) * dt).T, "sampled basis")
    else:
        ad = _step_exponential(dt / source.theta, source.a, dt)
        states = _recur(ad, source.b.astype(float, copy=True), n_steps)
    return StateTrajectory(states=states, dt=float(dt))


@np.errstate(over="ignore", invalid="ignore")  # states past the float range are refused
def sliding_transform(dsys: DiscreteSystem, u: Signal) -> StateTrajectory:
    """Run the state recurrence over a signal, starting from zero state.

    The state after k inputs approximates the convolution of the system's
    impulse response with the signal up to time k dt; at a window past an
    input feature, the state holds that window's basis coefficients.
    ValueError where a state is past the float range.
    """
    if abs(u.dt - dsys.dt) > 1e-12 * dsys.dt:
        raise ValueError(f"signal dt {u.dt} does not match system dt {dsys.dt}")
    states = _recur(dsys.ad, np.zeros(dsys.bd.size), u.samples.size, dsys.bd, u.samples)
    return StateTrajectory(states=linalg.as_matrix(states, "state trajectory"), dt=dsys.dt)


@np.errstate(over="ignore", invalid="ignore")  # states past the float range are refused
def perfect_window_transform(basis: PolyBasis, u: Signal) -> StateTrajectory:
    """Sliding transform over exactly the last theta of input: an FIR filter.

    The zero-order-hold window transform m[n] = sum_{i < min(D, n)} H[i]
    u[n - 1 - i], D = theta / dt: the basis's impulse response cut off at
    the window edge. Tap H[i], (1/theta) times the integral of the basis
    over [i dt, (i + 1) dt], is M times the step of the closed Legendre
    antiderivatives F_0 = x, F_k = (l_{k+1} - l_{k-1}) / (4k + 2) across
    [i / D, (i + 1) / D]. Only min(D, n) taps are built, and each state
    column is one FFT convolution, so the cost does not grow with D and the
    error, a few eps times the largest input, not with the signal length.

    The sample period must divide theta (the window holds a whole number of
    steps; IncompatibleStepError), and a state must be finite (ValueError).
    """
    steps = int(round(basis.theta / u.dt))
    if steps < 1 or abs(steps * u.dt - basis.theta) > 1e-9 * basis.theta:
        raise IncompatibleStepError(
            f"dt {u.dt} does not divide the window length {basis.theta}"
        )
    n = u.samples.size
    x = np.arange(min(steps, n) + 1) / steps
    ell = legendre_values(basis.q + 1, x)
    k = np.arange(1, basis.q)[:, None]
    taps = basis.mixture @ np.diff(np.vstack((x, (ell[2:] - ell[:-2]) / (4 * k + 2))))
    size = 1 << (n + taps.shape[1] - 2).bit_length()  # a power of two >= n + taps - 1
    spectrum = np.fft.rfft(u.samples, size)
    states = np.zeros((n + 1, basis.q))
    for j, h in enumerate(taps):
        states[1:, j] = np.fft.irfft(spectrum * np.fft.rfft(h, size), size)[:n]
    return StateTrajectory(states=linalg.as_matrix(states, "state trajectory"), dt=u.dt)


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
