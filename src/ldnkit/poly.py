"""Monomial coefficient arrays: the file and document form of a polynomial.

A polynomial is a 1-d array of monomial coefficients in ascending powers:
``coeffs[k]`` multiplies ``t**k``. The length is a degree bound, not the
exact degree; trailing zeros are permitted.

Monomial coefficients of degree n reach ~4^n on a unit window, so no
computation in this package runs on them: a basis is converted once to its
Legendre mixture (see ``bases``), and everything else reads that. This
module only coerces and pads coefficient arrays, and gives the monomial
Gram (Hilbert) matrix for reference.
"""

from __future__ import annotations

import numpy as np


def as_poly(p, name: str = "polynomial") -> np.ndarray:
    """Coerce to a coefficient array with at least one entry."""
    out = np.atleast_1d(np.asarray(p, dtype=float))
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d coefficient array")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite coefficients")
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
