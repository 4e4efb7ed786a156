"""Polynomial function bases over a window [0, theta].

A basis is an ordered family of q polynomials meant to be generated as the
impulse response of an LTI system. Two conditions make that possible: the
polynomials must be linearly independent, and they must have no common zero
in [0, theta) (a common zero would extinguish the impulse response there).
"""

from __future__ import annotations

import functools
import math
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
    """q polynomials over [0, theta], held as a Legendre mixture.

    ``mixture`` is the q x width matrix M with p_n(t) = sum_k M[n, k]
    l_k(t / theta), where l_k is the k-th shifted Legendre polynomial on
    [0, 1]; every computation reads M. ``polys`` keeps the monomial
    coefficients in t exactly as given, one array per function; they are
    the file and document form.

    Degrees above q - 1 are allowed here (validation and the sampled
    decoder cope); the system solver and the exact decoders need a square M.
    """

    q: int
    theta: float
    polys: tuple
    mixture: np.ndarray

    @property
    def width(self) -> int:
        """Common coefficient length: at least q, more for higher degrees."""
        return self.mixture.shape[1]

    def coefficient_matrix(self) -> np.ndarray:
        """q x width matrix with row n holding the coefficients of function n."""
        return poly.pad_coefficients(self.polys, self.width)

    def values(self, t) -> np.ndarray:
        """Evaluate every basis function; rows index functions."""
        x = np.atleast_1d(np.asarray(t, dtype=float)) / self.theta
        return np.tensordot(self.mixture, legendre_values(self.width, x), axes=1)


@dataclass(frozen=True)
class ValidityReport:
    independent: bool
    gram_condition: float
    no_common_zero: bool
    common_zero_at: float | None

    @property
    def ok(self) -> bool:
        return self.independent and self.no_common_zero


def _check_theta(theta: float) -> None:
    if not (np.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and positive, got {theta}")


def make_basis(polys, theta: float) -> PolyBasis:
    """Bundle monomial coefficient arrays (in t) into a PolyBasis.

    The Legendre mixture is solved once from the coefficients through the
    triangular shifted-Legendre coefficient matrix. Monomial coefficients
    of degree n reach ~4^n, so the conversion loses about eps * 4^width.
    The basis is not validated.
    """
    _check_theta(theta)
    coeffs = tuple(poly.as_poly(p) for p in polys)
    if len(coeffs) < 1:
        raise ValueError("a basis needs at least one polynomial")
    width = max(len(coeffs), max(c.size for c in coeffs))
    with np.errstate(over="ignore", invalid="ignore"):
        in_x = poly.pad_coefficients(coeffs, width) * float(theta) ** np.arange(width)
        # M L = in_x, with L upper triangular once transposed
        mixture = np.linalg.solve(_monomial_family(width).T, in_x.T).T
    if not np.all(np.isfinite(mixture)):
        raise ValueError("basis coefficients overflow in window units t / theta")
    return PolyBasis(q=len(coeffs), theta=float(theta), polys=coeffs, mixture=mixture)


def _monomial_family(q: int, chebyshev: bool = False) -> np.ndarray:
    """q x q monomial coefficients on [0, 1] of a shifted family, row n degree n.

    Both families follow one three-term recurrence in y = 2x - 1:
    (n+1) P_{n+1} = (2n+1) y P_n - n P_{n-1} (Legendre) and
    T_{n+1} = 2 y T_n - T_{n-1} (Chebyshev).
    """
    out = np.zeros((q, q))
    out[0, 0] = 1.0
    if q > 1:
        out[1, :2] = (-1.0, 2.0)
    for n in range(1, q - 1):
        scale, lag, div = (2.0, 1, 1) if chebyshev else (2 * n + 1, n, n + 1)
        y = np.zeros(q)
        y[1:] += 2.0 * out[n, :-1]
        y -= out[n]
        out[n + 1] = (scale * y - lag * out[n - 1]) / div
    return out


@functools.cache
def _chebyshev_mixture(q: int) -> np.ndarray:
    """The shifted Chebyshev polynomials in shifted Legendre coordinates.

    The recurrence T_{n+1} = 2 y T_n - T_{n-1}, y = 2x - 1, with the product
    by y taken on Legendre coefficients, y l_k = ((k + 1) l_{k+1} +
    k l_{k-1}) / (2k + 1), runs in exact fractions. Each row is then rounded
    onto one binary grid fine enough that sums of its entries are exact in
    any order, and the rounding residue goes to the leading entry: every
    row sums to T_n(1) = 1 exactly, so the values at both window ends come
    out exactly +-1, as the closed-form generator's B says. The result is
    cached by q and read-only, since every basis of that q shares it.
    """
    from fractions import Fraction

    rows = [[Fraction(int(n == k)) for k in range(q)] for n in range(min(q, 2))]
    for n in range(1, q - 1):
        y = [Fraction(0)] * q
        for k, c in enumerate(rows[n]):
            if c:
                y[k + 1] += c * Fraction(k + 1, 2 * k + 1)
                if k:
                    y[k - 1] += c * Fraction(k, 2 * k + 1)
        rows.append([2 * a - b for a, b in zip(y, rows[n - 1])])
    out = np.empty((q, q))
    for n, row in enumerate(rows):
        bits = 52 - math.frexp(float(sum(map(abs, row))))[1]
        units = [round(c * 2 ** bits) for c in row]
        units[n] += 2 ** bits - sum(units)
        out[n] = np.array(units, dtype=float) / 2.0 ** bits
    out.flags.writeable = False
    return out


def _rescale_window(coeffs, theta: float) -> tuple:
    """Map polynomials in x = t / theta to polynomials in t."""
    if theta == 1.0:
        return tuple(c.copy() for c in coeffs)
    return tuple(c / theta ** np.arange(c.size) for c in coeffs)


def _shifted_family(q: int, theta: float, chebyshev: bool) -> PolyBasis:
    if q < 1:
        raise ValueError("q must be at least 1")
    _check_theta(theta)
    coeffs = _monomial_family(q, chebyshev)
    return PolyBasis(
        q=q, theta=float(theta),
        polys=_rescale_window([c[: n + 1] for n, c in enumerate(coeffs)], theta),
        mixture=_chebyshev_mixture(q) if chebyshev else np.eye(q),
    )


def shifted_legendre(q: int, theta: float = 1.0) -> PolyBasis:
    """First q shifted Legendre polynomials evaluated in t / theta.

    Orthogonal on [0, theta] with squared norm theta / (2n + 1); value 1 at
    t = theta and (-1)^n at t = 0. Its mixture is the identity.
    """
    return _shifted_family(q, theta, chebyshev=False)


def shifted_chebyshev(q: int, theta: float = 1.0) -> PolyBasis:
    """First q shifted Chebyshev polynomials (first kind) in t / theta.

    Bounded by 1 in magnitude on the window; value 1 at t = theta and
    (-1)^n at t = 0.
    """
    return _shifted_family(q, theta, chebyshev=True)


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

    Independence is judged by nonsingularity of the basis Gram matrix,
    M diag(theta / (2n + 1)) M^T from the Legendre mixture M, so its
    condition number is as accurate as M itself; the common-zero check
    scans a dense grid (see COMMON_ZERO_GRID). Returns a report rather
    than raising.
    """
    norms = basis.theta / (2.0 * np.arange(basis.width) + 1.0)
    gram = (basis.mixture * norms) @ basis.mixture.T
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
    shifted Legendre polynomials in normalized time x = t / theta. The draw
    is the basis's mixture as it stands; its monomial coefficients are
    derived from it for the file form. Invalid draws are redrawn from the
    same stream, up to a bounded number of retries.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    _check_theta(theta)
    rng = np.random.default_rng(seed)
    legendre = _monomial_family(q)
    for _ in range(_RANDOM_BASIS_RETRIES):
        mixture = rng.standard_normal((q, q))
        polys = _rescale_window(mixture @ legendre, theta)
        basis = PolyBasis(q=q, theta=float(theta), polys=polys, mixture=mixture)
        if validate(basis).ok:
            return basis
    raise GenerationFailedError(
        f"no valid random basis for q={q} after {_RANDOM_BASIS_RETRIES} draws"
    )
