"""Polynomial coefficient arithmetic over a window [0, theta].

A polynomial is a 1-d array of monomial coefficients in ascending powers:
``coeffs[k]`` multiplies ``t**k``. The length is a degree bound, not the
exact degree; trailing zeros are permitted.

The monomial representation is kept even though it is badly conditioned for
high degrees, because every construction in this package is stated directly
in monomial coefficients. Named bases are generated by recurrence (see
``bases``), not through unstable expansion paths, and callers are given
condition numbers where it matters.
"""

from __future__ import annotations

import math
import numpy as np


def as_poly(p, name: str = "polynomial") -> np.ndarray:
    """Coerce to a coefficient array with at least one entry."""
    out = np.atleast_1d(np.asarray(p, dtype=float))
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d coefficient array")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite coefficients")
    return out


def eval_rows(coeffs, t) -> np.ndarray:
    """Evaluate every row of a coefficient matrix by Horner's rule.

    ``coeffs`` holds one polynomial per row (ascending powers, zero padded
    to a common length); ``t`` may be a scalar or an array. The result has
    shape ``(rows,) + t.shape``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    cols = coeffs.T.reshape(coeffs.shape[::-1] + (1,) * t.ndim)
    out = np.broadcast_to(cols[-1], (coeffs.shape[0],) + t.shape).copy()
    for c in cols[-2::-1]:
        out = out * t + c
    return out


def eval_poly(p, t):
    """Evaluate sum_k coeffs[k] t^k by Horner's rule.

    ``t`` may be a scalar or an array; the result has the shape of ``t``.
    """
    out = eval_rows(as_poly(p)[None, :], t)[0]
    return out if out.shape else float(out)


def differentiate(p) -> np.ndarray:
    """Coefficient-wise derivative; the degree bound drops by one."""
    p = as_poly(p)
    if p.size == 1:
        return np.zeros(1)
    return p[1:] * np.arange(1, p.size)


def compose_affine(p, a: float, b: float) -> np.ndarray:
    """Coefficients of p(a t + b).

    Exact for degrees up to ~30: the binomial coefficients are exact
    integers in double precision up to that range, beyond which the window
    Gram matrix is numerically unusable anyway.
    """
    p = as_poly(p)
    out = np.zeros(p.size)
    for n, lam in enumerate(p):
        if lam == 0.0:
            continue
        for k in range(n + 1):
            out[k] += math.comb(n, k) * (a ** k) * (b ** (n - k)) * lam
    return out


def hilbert(q: int, theta: float = 1.0) -> np.ndarray:
    """Gram matrix of the monomials 1, t, ..., t^(q-1) on [0, theta].

    Entry (n, k) is theta^(1+n+k) / (1+n+k) with 0-based indices. For
    theta = 1 this is the classical (notoriously ill-conditioned) Hilbert
    matrix.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if not theta > 0:
        raise ValueError("theta must be positive")
    powers = 1 + np.arange(q)[:, None] + np.arange(q)[None, :]
    return theta ** powers / powers


def inner_product(p, r, theta: float) -> float:
    """Exact integral of p(t) r(t) over [0, theta] via the monomial Gram matrix.

    The coefficient arrays are padded to a common length internally. The
    contraction is evaluated in a symmetrized form so that swapping the
    arguments returns the identical float.
    """
    p = as_poly(p, "p")
    r = as_poly(r, "r")
    q = max(p.size, r.size)
    pp, rr = pad_coefficients([p, r], q)
    cross = np.outer(pp, rr)
    return float(np.sum(hilbert(q, theta) * (cross + cross.T)) / 2.0)


def pad_coefficients(polys, q: int) -> np.ndarray:
    """Stack coefficient arrays into a q-column matrix, one row per polynomial."""
    out = np.zeros((len(polys), q))
    for i, p in enumerate(polys):
        p = as_poly(p)
        if p.size > q:
            if np.any(p[q:] != 0.0):
                raise ValueError(f"polynomial {i} exceeds degree bound {q - 1}")
            p = p[:q]
        out[i, : p.size] = p
    return out


def gram_matrix(polys, theta: float) -> np.ndarray:
    """Pairwise inner products of a family of polynomials over [0, theta]."""
    q = max(as_poly(p).size for p in polys)
    lam = pad_coefficients(polys, q)
    return lam @ hilbert(q, theta) @ lam.T
