"""Shared oracle utilities for the test suite.

Everything here is intentionally independent of the library code paths it
checks: quadrature, finite differences, exact combinatorial inverses, and
reference constructions via numpy building blocks.
"""

import math

import numpy as np


def simpson(f, a, b, n=2000):
    """Composite Simpson quadrature with n (even) intervals."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = f(xs)
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * np.sum(ys[1:-1:2]) + 2 * np.sum(ys[2:-1:2]))


def central_difference(f, t, h=1e-5):
    return (f(t + h) - f(t - h)) / (2 * h)


def hilbert_inverse_exact(n):
    """Closed-form inverse of the n x n Hilbert matrix (exact integers)."""
    inv = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sign = -1.0 if (i + j) % 2 else 1.0
            inv[i, j] = (
                sign
                * (i + j + 1)
                * math.comb(n + i, n - j - 1)
                * math.comb(n + j, n - i - 1)
                * math.comb(i + j, i) ** 2
            )
    return inv


def one_norm(a):
    return float(np.max(np.abs(np.asarray(a)).sum(axis=0)))


def random_conditioned(rng, n, kappa):
    """Random n x n matrix with 2-norm condition number about kappa."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if n == 1:
        return q1 * q2
    sv = np.geomspace(1.0, 1.0 / kappa, n)
    return q1 @ np.diag(sv) @ q2


def legendre_value_recurrence(q, x):
    """Shifted Legendre values on [0, 1] by the plain three-term recurrence."""
    x = np.asarray(x, dtype=float)
    vals = np.empty((q,) + x.shape)
    vals[0] = 1.0
    if q > 1:
        vals[1] = 2 * x - 1
    for n in range(1, q - 1):
        vals[n + 1] = ((2 * n + 1) * (2 * x - 1) * vals[n] - n * vals[n - 1]) / (n + 1)
    return vals


def legendre_window_taps(q, theta, dt):
    """Zero-order-hold taps of the undampened Legendre generator.

    Row i is (1 / theta) times the integral of the shifted Legendre values
    over [i dt, (i + 1) dt], for the theta / dt steps of one window, by
    Gauss-Legendre quadrature with q nodes per step (exact for degree q - 1).
    """
    steps = int(round(theta / dt))
    nodes, weights = np.polynomial.legendre.leggauss(q)
    s = (np.arange(steps)[:, None] + 0.5 * (nodes[None, :] + 1.0)) * dt
    vals = legendre_value_recurrence(q, s / theta)
    return (0.5 * dt / theta) * (vals @ weights).T


def perfect_window_direct_sum(taps, u):
    """States m[n] = sum_{i < D} taps[i] u[n - 1 - i], with m[0] = 0."""
    out = np.zeros((u.size + 1, taps.shape[1]))
    for j in range(taps.shape[1]):
        out[1:, j] = np.convolve(u, taps[:, j])[: u.size]
    return out


def csv_text(header, rows):
    """CSV text cell by cell: header line, then repr of each float, LF endings."""
    lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"
