"""Reference results computed without ldnkit.

Built from scipy and numpy alone (plus exact rational arithmetic), so a
defect in the library cannot hide in its own oracle:

- zero-order-hold states through ``scipy.linalg.expm`` and
  ``scipy.signal.dlsim``;
- perfect-window states as an exact FIR over the window taps, the taps
  integrated from ``numpy.polynomial.legendre`` by Gauss quadrature;
- Legendre delay decoders from ``numpy.polynomial.legendre``, and decoders
  of any monomial basis from its Gram matrix solved in exact fractions;
- the LDN matrices from the published formula, for the dampening identity;
- impulse responses as ``expm(t A / theta) B`` at sampled times.

Errors are relative: the largest absolute deviation over the largest
absolute reference value. A non-finite output has error ``inf``; a
reference that overflows gives ``nan``, which no tolerance accepts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.signal
from numpy.polynomial import legendre as leg

# Relative tolerances. States and decodes of the exact methods agree to
# roundoff; 1e-8 leaves room for different expm algorithms and long sums.
STATE_RTOL = 1e-8
DECODE_RTOL = 1e-8
# Coefficient-space decoder methods are exact up to conditioning.
EXACT_DECODER_RTOL = 1e-6
# The sampled pseudo-inverse method converges like q^2 / N; at the
# N = 1e5 samples used here that is below 3e-3 for q <= 16.
SAMPLED_DECODER_RTOL = 1e-2
IMPULSE_RTOL = 1e-8


def rel_err(x, ref) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.shape != ref.shape or not np.all(np.isfinite(x)):
        return math.inf
    if not np.all(np.isfinite(ref)):
        return math.nan
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    dev = float(np.max(np.abs(x - ref))) if ref.size else 0.0
    return dev / scale if scale > 0 else dev


def ldn_matrices(q: int) -> tuple[np.ndarray, np.ndarray]:
    """LDN (A, B) in the library's scaled coordinates, theta * dm/dt = A m + B u.

    Voelker et al. (2019) give, 0-based, A'_ij = (2i+1) * (-1 if i < j else
    (-1)^(i-j+1)) and B'_i = (2i+1) (-1)^i. The library stores the state
    scaled by M = diag(1 / (2i+1)): A = M A' M^-1, B = M B'.
    """
    i = np.arange(q)[:, None]
    j = np.arange(q)[None, :]
    sign = np.where(i < j, -1.0, (-1.0) ** (i - j + 1))
    # A'_ij (2j+1) / (2i+1), with the (2i+1) cancelled exactly
    return (2 * j + 1) * sign, (-1.0) ** np.arange(q)


def zoh(a: np.ndarray, b: np.ndarray, theta: float, dt: float):
    q = b.size
    aug = np.zeros((q + 1, q + 1))
    aug[:q, :q] = a / theta
    aug[:q, q] = b / theta
    full = scipy.linalg.expm(aug * dt)
    return full[:q, :q], full[:q, q]


def zoh_states(a, b, theta: float, dt: float, u: np.ndarray) -> np.ndarray:
    """(n + 1) x q states of the ZOH recurrence from zero, via dlsim."""
    ad, bd = zoh(a, b, theta, dt)
    q = bd.size
    system = (ad, bd[:, None], np.eye(q), np.zeros((q, 1)), dt)
    _, _, states = scipy.signal.dlsim(system, np.append(u, 0.0)[:, None], x0=np.zeros(q))
    return states


def legendre_decoders(q: int, theta: float, theta_primes) -> np.ndarray:
    """K x q closed-form decoders: (2m + 1) / theta * P_m(2 theta'/theta - 1)."""
    x = 2.0 * np.asarray(theta_primes, dtype=float) / theta - 1.0
    return leg.legvander(x, q - 1) * (2.0 * np.arange(q) + 1.0) / theta


def window_taps(q: int, theta: float, dt: float) -> np.ndarray:
    """D x q taps H[i] = integral over [i dt, (i+1) dt] of P~(tau/theta) / theta."""
    steps = int(round(theta / dt))
    nodes, weights = leg.leggauss(q // 2 + 2)
    starts = np.arange(steps) * dt
    tau = starts[:, None] + (nodes[None, :] + 1.0) * (dt / 2.0)
    vals = leg.legvander(2.0 * tau / theta - 1.0, q - 1)
    return np.einsum("n,snm->sm", weights * (dt / 2.0), vals) / theta


def perfect_window_states(q: int, theta: float, dt: float, u: np.ndarray) -> np.ndarray:
    """Shifted-Legendre window transform m[n] = sum_{i<D} H[i] u[n-1-i]."""
    taps = window_taps(q, theta, dt)
    conv = scipy.signal.fftconvolve(u[:, None], taps, axes=0)[: u.size]
    return np.vstack([np.zeros((1, q)), conv])


def legendre_generator(q: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Undampened Legendre (A, B) from the dampening identity read backwards.

    Dampening subtracts theta * e d(theta)^T with e = 1 (all basis values
    are 1 at the window end) and the closed-form decoder d(theta) = (2m+1) /
    theta, giving the LDN; so A = A_ldn + ones (2m+1)^T, exactly in integers.
    """
    a_ldn, b = ldn_matrices(q)
    return a_ldn + (2.0 * np.arange(q) + 1.0)[None, :], b


def impulse_states(a, b, theta: float, times) -> np.ndarray:
    """expm(t A / theta) B; an unstable system may overflow to inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([scipy.linalg.expm((t / theta) * a) @ b for t in times])


def max_real_eigenvalue(a) -> float:
    return float(np.max(np.linalg.eigvals(a).real))


def _solve_exact(matrix, rhs):
    """Gauss-Jordan elimination over Fractions; rhs is a list of columns."""
    n = len(matrix)
    aug = [list(matrix[r]) + [col[r] for col in rhs] for r in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [[aug[r][n + k] for r in range(n)] for k in range(len(rhs))]


def exact_decoders(coeffs: np.ndarray, theta: float, theta_primes) -> np.ndarray:
    """K x q decoders d(theta') = G^-1 p(theta') of a monomial basis, theta = 1.

    G is the Gram matrix of the basis over the window and p(theta') the
    basis values; both are formed and solved exactly from the double
    coefficients, then rounded once.
    """
    if theta != 1.0:
        raise ValueError("exact_decoders is stated for theta = 1")
    rows = [[Fraction(float(c)) for c in row] for row in np.asarray(coeffs)]
    q, width = len(rows), len(rows[0])
    hilbert = [[Fraction(1, k + l + 1) for l in range(width)] for k in range(width)]
    half = [[sum(r[k] * hilbert[k][l] for k in range(width)) for l in range(width)] for r in rows]
    gram = [[sum(h[l] * s[l] for l in range(width)) for s in rows] for h in half]
    rhs = []
    for tp in theta_primes:
        x = Fraction(float(tp))
        rhs.append([sum(c * x ** k for k, c in enumerate(r)) for r in rows])
    solved = _solve_exact(gram, rhs)
    return np.array([[float(v) for v in col] for col in solved]).reshape(len(rhs), q)
