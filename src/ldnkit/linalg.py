"""Dense linear algebra kernel for small systems (q up to ~64).

Matrices are plain ``numpy.ndarray`` objects in row-major order; vectors are
1-d arrays. All operations are pure functions: inputs are validated (finite
entries, matching shapes) and never mutated, so values are safe to share
between threads.

Solves and inverses go through numpy's LAPACK. What this module adds is the
matrix exponential and the package's one singularity rule: a matrix counts
as singular when its exact 1-norm condition number reaches 1 / eps, i.e.
when it cannot be inverted in working precision. _inverse applies it,
raising SingularMatrixError instead of returning rounding noise; there is
no second, tighter refusal limit. The one matrix the package inverts that
may be singular is a basis's Legendre mixture M, and the basis inverts it
once, through _inverse, for its validity, its generator, its decoders and
the condition numbers they report. Every other solve (the Pade denominator
below, the Legendre coefficients in make_basis, the sampled Legendre Gram in
reencode) is nonsingular by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

_EPS = np.finfo(float).eps

# Order-6 diagonal Pade coefficients of exp(x); numerator N(x) = sum c[j] x^j,
# denominator N(-x).
_PADE6 = (
    1.0,
    1.0 / 2.0,
    5.0 / 44.0,
    1.0 / 66.0,
    1.0 / 792.0,
    1.0 / 15840.0,
    1.0 / 665280.0,
)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, requiring finite entries."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array, requiring finite entries."""
    out = np.asarray(b, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


def _as_square(a, name: str = "matrix") -> np.ndarray:
    out = as_matrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def one_norm(a) -> float:
    """Induced 1-norm (maximum absolute column sum); inf where a sum overflows."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(a).sum(axis=0)))


def _inverse(a) -> tuple[np.ndarray, float]:
    """a^-1 and the 1-norm condition number ||a||_1 ||a^-1||_1, at least 1.

    Both come from one LAPACK inverse, so the condition number is exact up
    to rounding. Raises SingularMatrixError unless cond * eps < 1: written
    that way, the test also catches the inf or nan of an inverse that
    overflows. An exactly singular a, where LAPACK meets a zero pivot, is
    refused by the same rule.
    """
    a = _as_square(a, "a")
    try:
        inv = np.linalg.inv(a)
        cond = max(one_norm(a) * one_norm(inv), 1.0)
    except np.linalg.LinAlgError:
        cond = math.inf
    if not cond * _EPS < 1.0:
        raise SingularMatrixError(
            f"1-norm condition number {cond:.3e} reaches 1/eps = {1.0 / _EPS:.3e}"
        )
    return inv, cond


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a [6/6] Pade step.

    The input is scaled so that ||A / 2^s||_1 <= 0.5 before the approximant
    is applied, then squared s times. At that norm the Pade denominator is
    nonsingular by construction, so it is solved without a singularity check.
    """
    a = _as_square(a, "a")
    n = a.shape[0]
    norm = one_norm(a)
    if not math.isfinite(norm):
        raise ValueError("a has a 1-norm past the float range")
    # s = ceil(log2(norm / 0.5)) from norm = m 2^e, m in [0.5, 1), overflow-free
    m, e = math.frexp(norm)
    s = max(0, e + (m > 0.5))
    scaled = np.ldexp(a, -s)
    ident = np.eye(n)
    a2 = scaled @ scaled
    a4 = a2 @ a2
    u = scaled @ (_PADE6[1] * ident + _PADE6[3] * a2 + _PADE6[5] * a4)
    v = _PADE6[0] * ident + _PADE6[2] * a2 + _PADE6[4] * a4 + _PADE6[6] * (a2 @ a4)
    f = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        f = f @ f
    return f
