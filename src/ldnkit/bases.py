"""Polynomial function bases over a window [0, theta].

A basis is an ordered family of q polynomials of degree below q, meant to
be generated as the impulse response of an LTI system. It is held as its
square Legendre mixture M, p = M l, and one condition makes it
generatable: M is nonsingular, i.e. the polynomials are linearly
independent. No common zero can then occur in the window, since
l_0 = 1 = sum_n (M^-1)[0, n] p_n(t) at every t. The degree bound loses
nothing: a q-state impulse response spans a space closed under d/dt
(p' = A p), and the only q-dimensional such space of polynomials is the
one of degree below q.

M^-1 and cond_1(M) are then the only numbers specific to a basis: its
generator is M A_L M^-1 and its decoders M^-T d_L. A basis inverts M once,
under linalg's one singularity rule, and validity, the generator, every
decoder and the condition numbers they report read that one inverse. A
condition number in a norm does not depend on the scale of M, so neither
does validity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .errors import GenerationFailedError, SingularMatrixError

_RANDOM_BASIS_RETRIES = 100


@dataclass(frozen=True)
class PolyBasis:
    """q polynomials over [0, theta], held as a Legendre mixture.

    ``mixture`` is the q x q matrix M with p_n(t) = sum_k M[n, k]
    l_k(t / theta), where l_k is the k-th shifted Legendre polynomial on
    [0, 1]; every computation reads M. ``polys`` keeps the monomial
    coefficients in t, one array per function and of length at most q; they
    are the file and document form. The mixture is stored read-only, so the
    cached inverse cannot go stale.
    """

    q: int
    theta: float
    polys: tuple
    mixture: np.ndarray

    def __post_init__(self):
        mixture = np.array(self.mixture, dtype=float)
        mixture.flags.writeable = False
        object.__setattr__(self, "mixture", mixture)

    @functools.cached_property
    def inverse(self) -> tuple[np.ndarray, float]:
        """(M^-1, cond_1(M)) of the mixture, computed on first use.

        M^-1 is read-only, as every caller shares it. Raises
        SingularMatrixError for an M singular to working precision (and
        again on every later use).
        """
        inverse, cond = linalg._inverse(self.mixture)
        inverse.flags.writeable = False
        return inverse, cond

    def coefficient_matrix(self) -> np.ndarray:
        """q x q matrix with row n holding the coefficients of function n."""
        return poly.pad_coefficients(self.polys, self.q)

    def values(self, t) -> np.ndarray:
        """Evaluate every basis function; rows index functions."""
        x = np.atleast_1d(np.asarray(t, dtype=float)) / self.theta
        return np.tensordot(self.mixture, legendre_values(self.q, x), axes=1)


@dataclass(frozen=True)
class ValidityReport:
    """cond_1(M) of the basis's mixture; inf when M is singular."""

    condition: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.condition)


def _check_q(q: int) -> None:
    if q < 1:
        raise ValueError("q must be at least 1")


def _check_theta(theta: float) -> None:
    if not (np.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and positive, got {theta}")


def make_basis(polys, theta: float) -> PolyBasis:
    """Bundle q monomial coefficient arrays (in t) into a PolyBasis.

    Every degree must lie below q: a nonzero coefficient past that raises
    ValueError ("exceeds degree bound"). Trailing zeros only bound a degree
    (see poly), so they are dropped, and a basis does not depend on how its
    arrays were padded. The Legendre mixture is solved once from the
    coefficients through the triangular shifted-Legendre coefficient
    matrix. Monomial coefficients of degree n reach ~4^n, so the conversion
    loses about eps * 4^q. The basis is not validated.
    """
    _check_theta(theta)
    coeffs = tuple(poly.as_poly(p) for p in polys)
    if len(coeffs) < 1:
        raise ValueError("a basis needs at least one polynomial")
    q = len(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        in_x = poly.pad_coefficients(coeffs, q) * float(theta) ** np.arange(q)
        # M L = in_x, with L upper triangular once transposed
        mixture = np.linalg.solve(_monomial_family(q).T, in_x.T).T
    if not np.all(np.isfinite(mixture)):
        raise ValueError("basis coefficients overflow in window units t / theta")
    polys = tuple(c[: max(np.trim_zeros(c, "b").size, 1)] for c in coeffs)
    return PolyBasis(q=q, theta=float(theta), polys=polys, mixture=mixture)


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
    """Polynomials in x = t / theta as polynomials in t; inf or 0 past the float range."""
    with np.errstate(over="ignore", divide="ignore"):
        return tuple(c / float(theta) ** np.arange(c.size) for c in coeffs)


def _shifted_family(q: int, theta: float, chebyshev: bool) -> PolyBasis:
    _check_q(q)
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
    _check_q(q)
    y = 2.0 * np.asarray(x, dtype=float) - 1.0
    out = np.empty((q,) + np.shape(y))
    out[0] = 1.0
    if q > 1:
        out[1] = y
    for n in range(1, q - 1):
        out[n + 1] = ((2 * n + 1) * y * out[n] - n * out[n - 1]) / (n + 1)
    return out


def validate(basis: PolyBasis) -> ValidityReport:
    """Check that the basis can be generated: its polynomials are independent.

    Independence is nonsingularity of the Legendre mixture M, judged by the
    basis's one inverse; that is the one condition, since an independent
    basis has no common zero (see the module docstring). Returns a report
    rather than raising.
    """
    try:
        return ValidityReport(condition=basis.inverse[1])
    except SingularMatrixError:
        return ValidityReport(condition=math.inf)


def random_basis(q: int, theta: float = 1.0, seed: int = 0) -> PolyBasis:
    """Deterministic random polynomial basis that passes validate().

    Each polynomial is an i.i.d. standard normal mixture of the first q
    shifted Legendre polynomials in normalized time x = t / theta. The draw
    is the basis's mixture as it stands; its monomial coefficients are
    derived from it for the file form. Invalid draws are redrawn from the
    same stream, up to a bounded number of retries.
    """
    _check_q(q)
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
