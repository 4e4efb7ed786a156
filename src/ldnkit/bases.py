"""Polynomial function bases over a window [0, theta].

A basis is an ordered family of q polynomials meant to be generated as the
impulse response of an LTI system. Two conditions make that possible: the
polynomials must be linearly independent, and they must have no common zero
in [0, theta) (a common zero would extinguish the impulse response there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .errors import GenerationFailedError, SingularMatrixError

# Condition-2 screening is grid based: a common zero is declared when every
# basis function is below this magnitude at one of the grid points. This is a
# heuristic screen, not an exact common-root test.
COMMON_ZERO_GRID = 1001
COMMON_ZERO_TOL = 1e-9

_RANDOM_BASIS_RETRIES = 100


@dataclass(frozen=True)
class PolyBasis:
    """q polynomials over [0, theta], one coefficient array per function.

    Degrees above q - 1 are allowed here (validation and decoders cope);
    only the generic system solver requires the square coefficient matrix.
    """

    q: int
    theta: float
    polys: tuple

    @property
    def width(self) -> int:
        """Common coefficient length: at least q, more for higher degrees."""
        return max(self.q, max(p.size for p in self.polys))

    def coefficient_matrix(self) -> np.ndarray:
        """q x width matrix with row n holding the coefficients of function n."""
        return poly.pad_coefficients(self.polys, self.width)

    def values(self, t) -> np.ndarray:
        """Evaluate every basis function; rows index functions."""
        return poly.eval_rows(self.coefficient_matrix(), np.atleast_1d(t))


@dataclass(frozen=True)
class ValidityReport:
    independent: bool
    gram_condition: float
    no_common_zero: bool
    common_zero_at: float | None

    @property
    def ok(self) -> bool:
        return self.independent and self.no_common_zero


def make_basis(polys, theta: float) -> PolyBasis:
    """Bundle coefficient arrays into a PolyBasis without validating them."""
    if not theta > 0:
        raise ValueError("theta must be positive")
    coeffs = tuple(poly.as_poly(p) for p in polys)
    if len(coeffs) < 1:
        raise ValueError("a basis needs at least one polynomial")
    return PolyBasis(q=len(coeffs), theta=float(theta), polys=coeffs)


def _normalized_legendre(q: int) -> list[np.ndarray]:
    """Shifted Legendre coefficients on [0, 1] by the three-term recurrence."""
    out = [np.array([1.0])]
    if q > 1:
        out.append(np.array([-1.0, 2.0]))
    for n in range(1, q - 1):
        # (n+1) P_{n+1}(x) = (2n+1)(2x-1) P_n(x) - n P_{n-1}(x)
        a, b = out[n], out[n - 1]
        t = np.zeros(a.size + 1)
        t[1:] += 2.0 * a
        t[:-1] -= a
        t *= 2 * n + 1
        t[: b.size] -= n * b
        out.append(t / (n + 1))
    return out[:q]


def _normalized_chebyshev(q: int) -> list[np.ndarray]:
    """Shifted first-kind Chebyshev coefficients on [0, 1]."""
    out = [np.array([1.0])]
    if q > 1:
        out.append(np.array([-1.0, 2.0]))
    for n in range(1, q - 1):
        # T_{n+1}(x) = 2(2x-1) T_n(x) - T_{n-1}(x)
        a, b = out[n], out[n - 1]
        t = np.zeros(a.size + 1)
        t[1:] += 2.0 * a
        t[:-1] -= a
        t *= 2.0
        t[: b.size] -= b
        out.append(t)
    return out[:q]


def _rescale_window(coeffs, theta: float) -> list[np.ndarray]:
    """Map polynomials in x = t / theta to polynomials in t."""
    if theta == 1.0:
        return [c.copy() for c in coeffs]
    return [c / theta ** np.arange(c.size) for c in coeffs]


def shifted_legendre(q: int, theta: float = 1.0) -> PolyBasis:
    """First q shifted Legendre polynomials evaluated in t / theta.

    Orthogonal on [0, theta] with squared norm theta / (2n + 1); value 1 at
    t = theta and (-1)^n at t = 0.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return make_basis(_rescale_window(_normalized_legendre(q), theta), theta)


def shifted_chebyshev(q: int, theta: float = 1.0) -> PolyBasis:
    """First q shifted Chebyshev polynomials (first kind) in t / theta.

    Bounded by 1 in magnitude on the window; value 1 at t = theta and
    (-1)^n at t = 0.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return make_basis(_rescale_window(_normalized_chebyshev(q), theta), theta)


def legendre_values(q: int, x) -> np.ndarray:
    """Values of the first q shifted Legendre polynomials at x in [0, 1].

    Uses the value recurrence, which stays exact at the endpoints (all ones
    at x = 1, alternating signs at x = 0) for any q, unlike evaluation
    through monomial coefficients.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    x = np.asarray(x, dtype=float)
    out = np.empty((q,) + x.shape)
    out[0] = 1.0
    if q > 1:
        out[1] = 2.0 * x - 1.0
    for n in range(1, q - 1):
        out[n + 1] = ((2 * n + 1) * (2.0 * x - 1.0) * out[n] - n * out[n - 1]) / (n + 1)
    return out


def validate(basis: PolyBasis) -> ValidityReport:
    """Check linear independence and the absence of a common zero on [0, theta).

    Independence is judged by nonsingularity of the basis Gram matrix;
    the common-zero check scans a dense grid (see COMMON_ZERO_GRID).
    Returns a report rather than raising.
    """
    gram = poly.gram_matrix(basis.polys, basis.theta)
    try:
        gram_condition = linalg.condition_estimate(gram)
        independent = True
    except SingularMatrixError:
        gram_condition = float("inf")
        independent = False

    grid = basis.theta * np.arange(COMMON_ZERO_GRID) / COMMON_ZERO_GRID
    vals = basis.values(grid)
    dead = np.all(np.abs(vals) < COMMON_ZERO_TOL, axis=0)
    if np.any(dead):
        common_zero_at = float(grid[int(np.argmax(dead))])
        no_common_zero = False
    else:
        common_zero_at = None
        no_common_zero = True

    return ValidityReport(
        independent=independent,
        gram_condition=float(gram_condition),
        no_common_zero=no_common_zero,
        common_zero_at=common_zero_at,
    )


def random_basis(q: int, theta: float = 1.0, seed: int = 0) -> PolyBasis:
    """Deterministic random polynomial basis that passes validate().

    Each polynomial is an i.i.d. standard normal mixture of the first q
    shifted Legendre polynomials in normalized time x = t / theta, then
    rescaled to the window. Drawing mixtures of an orthogonal family keeps
    the draws numerically independent at orders where raw monomial
    coefficient draws would degenerate; the result is still stored as
    plain monomial coefficients. Invalid draws are redrawn from the same
    stream, up to a bounded number of retries.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    rng = np.random.default_rng(seed)
    legendre = np.vstack(
        [np.pad(c, (0, q - c.size)) for c in _normalized_legendre(q)]
    )
    for _ in range(_RANDOM_BASIS_RETRIES):
        mixture = rng.standard_normal((q, q))
        coeffs = mixture @ legendre
        basis = make_basis(_rescale_window(list(coeffs), theta), theta)
        if validate(basis).ok:
            return basis
    raise GenerationFailedError(
        f"no valid random basis for q={q} after {_RANDOM_BASIS_RETRIES} draws"
    )
