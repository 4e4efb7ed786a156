"""Shared oracle utilities for the test suite.

Everything here is intentionally independent of the library code paths it
checks: quadrature, exact fractions, exact combinatorial inverses, and
reference constructions via numpy building blocks.
"""

import json
import math
from fractions import Fraction

import numpy as np


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


def gram_condition(basis):
    """1-norm condition number of the basis Gram matrix M diag(theta/(2n+1)) M^T.

    The Gram matrix of the basis over its window, from its Legendre mixture
    M; its condition is about cond(M)^2 and scales the rounding of solves
    against it, such as the discrete-pinv decoders'.
    """
    norms = basis.theta / (2.0 * np.arange(basis.q) + 1.0)
    gram = (basis.mixture * norms) @ basis.mixture.T
    return max(float(np.linalg.cond(gram, 1)), 1.0)


def dirac(dt, n):
    """n samples of a discrete unit pulse: one sample of height 1/dt."""
    samples = np.zeros(n)
    samples[0] = 1.0 / dt
    return samples


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


def window_taps(values, n_nodes, theta, dt, n_taps=None):
    """Zero-order-hold taps of a basis given by its values on [0, 1].

    ``values(x)`` returns one row per basis function at the window times
    x = t / theta. Row i is (1 / theta) times the integral of the values
    over [i dt, (i + 1) dt], for the theta / dt steps of one window (the
    first n_taps of them, if given), by Gauss-Legendre quadrature with
    n_nodes per step (exact for degree 2 n_nodes - 1).
    """
    steps = int(round(theta / dt)) if n_taps is None else n_taps
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    s = (np.arange(steps)[:, None] + 0.5 * (nodes[None, :] + 1.0)) * dt
    return (0.5 * dt / theta) * (values(s / theta) @ weights).T


def legendre_window_taps(q, theta, dt, n_taps=None):
    """Taps of the shifted Legendre window, q quadrature nodes per step."""
    return window_taps(lambda x: legendre_value_recurrence(q, x), q, theta, dt, n_taps)


def perfect_window_direct_sum(taps, u):
    """States m[n] = sum_{i < D} taps[i] u[n - 1 - i], with m[0] = 0."""
    out = np.zeros((u.size + 1, taps.shape[1]))
    for j in range(taps.shape[1]):
        out[1:, j] = np.convolve(u, taps[:, j])[: u.size]
    return out


def gauss_legendre_gram(polys, theta):
    """Inner products over [0, theta] of monomial coefficient arrays.

    Gauss-Legendre quadrature with as many nodes as the longest array,
    exact for the products of these degrees; the polynomials are evaluated
    by numpy's Horner routine.
    """
    n = max(len(p) for p in polys)
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t = 0.5 * theta * (nodes + 1.0)
    vals = np.array([np.polynomial.polynomial.polyval(t, p) for p in polys])
    return (vals * (0.5 * theta * weights)) @ vals.T


def shifted_legendre_exact(q):
    """q x q exact monomial coefficients (Fractions) of the shifted Legendre
    polynomials on [0, 1]: (-1)^(n+k) C(n, k) C(n+k, k)."""
    return [[Fraction((-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k))
             for k in range(q)] for n in range(q)]


def shifted_chebyshev_exact(q):
    """q x q exact monomial coefficients (Fractions) of the shifted Chebyshev
    polynomials on [0, 1], T_n(2x - 1), by T_(n+1) = 2 (2x - 1) T_n - T_(n-1)."""
    rows = [[Fraction(1)] + [Fraction(0)] * (q - 1),
            [Fraction(-1), Fraction(2)] + [Fraction(0)] * (q - 2)]
    while len(rows) < q:
        t, prev = rows[-1], rows[-2]
        rows.append([-2 * t[k] + 4 * (t[k - 1] if k else 0) - prev[k] for k in range(q)])
    return rows[:q]


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


def exact_decoders(coeffs, theta, theta_primes):
    """K x q delay decoders d(theta') = G^-1 p(theta'), rounded once.

    ``coeffs`` holds one monomial coefficient row (in t) per basis function,
    as floats or Fractions. G is their Gram matrix over [0, theta] through
    the exact monomial Gram matrix theta^(k+l+1) / (k+l+1), and p(theta')
    the basis values; both are formed and solved in exact fractions.
    """
    rows = [[Fraction(c) for c in row] for row in coeffs]
    width = len(rows[0])
    th = Fraction(theta)
    mono = [[th ** (k + l + 1) / (k + l + 1) for l in range(width)] for k in range(width)]
    half = [[sum(r[k] * mono[k][l] for k in range(width)) for l in range(width)]
            for r in rows]
    gram = [[sum(h[l] * s[l] for l in range(width)) for s in rows] for h in half]
    rhs = [[sum(c * Fraction(tp) ** k for k, c in enumerate(r)) for r in rows]
           for tp in theta_primes]
    solved = _solve_exact(gram, rhs)
    return np.array([[float(v) for v in col] for col in solved])


def grid_power_sums(n, pmax):
    """Exact integers S_p = sum_{k < n} k^p for p = 0..pmax.

    From the telescoping identity n^(p+1) = sum_{j <= p} C(p+1, j) S_j.
    """
    sums = []
    for p in range(pmax + 1):
        rest = sum(math.comb(p + 1, j) * s for j, s in enumerate(sums))
        sums.append((n ** (p + 1) - rest) // (p + 1))
    return sums


def sampled_pinv_exact(coeffs, theta, n, theta_primes):
    """K x q sampled pseudo-inverse decoders in exact fractions, rounded once.

    ``coeffs`` holds one monomial coefficient row in x = t / theta per basis
    function, as floats or Fractions. The grid is x_k = k / (n - 1), k < n.
    Decoder K is (n / theta) G^-1 p(x_j) for the sampled Gram matrix
    G = sum_k p(x_k) p(x_k)^T, formed from exact power sums of the grid, and
    the grid point j = floor((n - 1) theta' / theta) at or below the delay.
    """
    rows = [[Fraction(c) for c in row] for row in coeffs]
    width = max(len(r) for r in rows)
    rows = [r + [Fraction(0)] * (width - len(r)) for r in rows]
    sums = grid_power_sums(n, 2 * width - 2)
    h = Fraction(1, n - 1)
    moments = [[sums[i + j] * h ** (i + j) for j in range(width)] for i in range(width)]
    half = [[sum(r[i] * moments[i][j] for i in range(width)) for j in range(width)]
            for r in rows]
    gram = [[sum(a[j] * s[j] for j in range(width)) for s in rows] for a in half]
    rhs = []
    for tp in theta_primes:
        x = math.floor((n - 1) * tp / theta) * h
        rhs.append([sum(c * x ** k for k, c in enumerate(r)) for r in rows])
    scale = Fraction(n) / Fraction(theta)
    return np.array([[float(scale * v) for v in col] for col in _solve_exact(gram, rhs)])


def polyval_exact(coeffs, t):
    """Monomial coefficients (ascending) at t by Horner in exact fractions, rounded once."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(t) + Fraction(c)
    return float(acc)


def csv_text(header, rows):
    """CSV text cell by cell: header line, then repr of each float, LF endings."""
    lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def recur_per_sample(ad, m0, n_steps, bd=None, u=None):
    """States m[0] = m0, m[k+1] = ad m[k] + bd u[k], one sample at a time;
    the input term drops out without u."""
    states = np.empty((n_steps + 1, m0.size))
    states[0] = m = m0
    for k in range(n_steps):
        m = ad @ m if u is None else ad @ m + bd * u[k]
        states[k + 1] = m
    return states


def render_block_recursive(body):
    """A JSON block one value per call: floats as .17g, bools as true/false,
    numpy integers as ints, a list of numbers on one line, two-space indents."""

    def render(value, indent):
        pad = "  " * indent
        if isinstance(value, bool) or value is None:
            return json.dumps(value)
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            if all(isinstance(v, (int, float, np.integer, np.floating)) for v in value):
                return "[" + ", ".join(render(v, 0) for v in value) + "]"
            inner = ",\n".join(pad + "  " + render(v, indent + 1) for v in value)
            return "[\n" + inner + "\n" + pad + "]"
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = ",\n".join(
                f"{pad}  {json.dumps(str(k))}: {render(v, indent + 1)}"
                for k, v in value.items()
            )
            return "{\n" + inner + "\n" + pad + "}"
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return render(body, 0) + "\n"


def render_svg_per_point(header, rows):
    """The SVG line chart one point at a time: a closure call and an f-string
    per coordinate, on numpy scalars, in the fixed 800 x 480 layout."""
    width, height, margin = 800, 480, 50
    palette = (
        "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
        "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    )
    x = rows[:, 0]
    ys = rows[:, 1:]
    x_min, x_max = float(np.min(x)), float(np.max(x))
    y_min, y_max = float(np.min(ys)), float(np.max(ys))
    # a constant column spans [v, v + 1], or [0, v] where v + 1 == v
    if x_max == x_min:
        x_max = x_min + 1.0
        if x_max == x_min:
            x_min, x_max = min(x_min, 0.0), max(x_min, 0.0)
    if y_max == y_min:
        y_max = y_min + 1.0
        if y_max == y_min:
            y_min, y_max = min(y_min, 0.0), max(y_min, 0.0)
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def sx(v):
        return margin + (v - x_min) / (x_max - x_min) * inner_w

    def sy(v):
        return height - margin - (v - y_min) / (y_max - y_min) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" '
        f'height="{inner_h}" fill="none" stroke="#cccccc"/>',
    ]
    if y_min < 0 < y_max:
        zero = f"{sy(0.0):.2f}"
        parts.append(
            f'<line x1="{margin}" y1="{zero}" x2="{width - margin}" '
            f'y2="{zero}" stroke="#eeeeee"/>'
        )
    for col in range(ys.shape[1]):
        colour = palette[col % len(palette)]
        points = " ".join(
            f"{sx(x[k]):.2f},{sy(ys[k, col]):.2f}" for k in range(rows.shape[0])
        )
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        label = header[col + 1] if col + 1 < len(header) else f"c{col}"
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{margin + 8 + 60 * col}" y="{margin - 12}" '
            f'font-family="monospace" font-size="12" fill="{colour}">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{height - margin + 20}" '
            f'font-family="monospace" font-size="11" fill="#444444" '
            f'text-anchor="middle">{float(xv)!r}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv) + 4:.2f}" '
            f'font-family="monospace" font-size="11" fill="#444444" '
            f'text-anchor="end">{float(yv)!r}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
