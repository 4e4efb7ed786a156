"""Constructors for basis-generating LTI systems.

The stored convention is theta * dm/dt = A m(t) + B u(t): the window length
theta only rescales time, so the closed-form matrices below are independent
of theta and integer valued, and tests can demand exact equality. Conversion
to plain dm/dt form happens in the simulator. The generator of any other
basis is the Legendre one moved by the basis's mixture, and reads the one
inverse of it the basis holds, under linalg's singularity rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import PolyBasis, shifted_chebyshev, shifted_legendre, validate


@dataclass(frozen=True)
class LtiSystem:
    """State-space system theta * dm/dt = a m + b u of order q.

    ``basis`` is the basis an undampened generator (mk_legendre,
    mk_chebyshev, mk_poly_basis_lti) generates: its impulse response
    exp((t / theta) a) b is basis.values(t), which the encoder and
    impulse_response read rather than propagate. Every other system (the
    LDN, a dampened or a loaded one) has None.
    """

    a: np.ndarray
    b: np.ndarray
    theta: float
    basis: PolyBasis | None = None

    @property
    def q(self) -> int:
        return self.b.size


def _check_args(q: int, theta: float) -> None:
    if q < 1:
        raise ValueError("q must be at least 1")
    if not (np.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and positive, got {theta}")


def _alternating(q: int) -> np.ndarray:
    # (B)_i = (-1)^(i+1) with 1-based i
    return (-1.0) ** np.arange(q)


def mk_ldn(q: int, theta: float = 1.0) -> LtiSystem:
    """Legendre Delay Network system (state scaled so entries are (2j-1)).

    With 1-based indices: (A)_ij = (2j-1) * (-1 if i <= j or i+j even,
    else +1), (B)_i = (-1)^(i+1).
    """
    _check_args(q, theta)
    i = np.arange(1, q + 1)[:, None]
    j = np.arange(1, q + 1)[None, :]
    sign = np.where((i > j) & ((i + j) % 2 == 1), 1.0, -1.0)
    return LtiSystem(a=(2 * j - 1) * sign, b=_alternating(q), theta=float(theta))


def mk_legendre(q: int, theta: float = 1.0) -> LtiSystem:
    """System whose impulse response traces the shifted Legendre polynomials.

    With 1-based indices: (A)_ij = (4j-2) for i > j with i+j odd, else 0;
    (B)_i = (-1)^(i+1). Strictly lower triangular, so the system is not
    asymptotically stable; it exists to be dampened.
    """
    _check_args(q, theta)
    i = np.arange(1, q + 1)[:, None]
    j = np.arange(1, q + 1)[None, :]
    a = np.where((i > j) & ((i + j) % 2 == 1), (4 * j - 2).astype(float), 0.0)
    return LtiSystem(a=a, b=_alternating(q), theta=float(theta),
                     basis=shifted_legendre(q, theta))


def mk_chebyshev(q: int, theta: float = 1.0) -> LtiSystem:
    """System generating the shifted Chebyshev polynomials (first kind).

    With 1-based indices: (A)_ij = (2i-2) * (1 if j == 1 else 2) for i > j
    with i+j odd, else 0; (B)_i = (-1)^(i+1).
    """
    _check_args(q, theta)
    i = np.arange(1, q + 1)[:, None]
    j = np.arange(1, q + 1)[None, :]
    weight = np.where(j == 1, 1.0, 2.0)
    a = np.where((i > j) & ((i + j) % 2 == 1), (2 * i - 2) * weight, 0.0)
    return LtiSystem(a=a, b=_alternating(q), theta=float(theta),
                     basis=shifted_chebyshev(q, theta))


def mk_poly_basis_lti(basis: PolyBasis) -> LtiSystem:
    """The LTI system generating an arbitrary polynomial basis.

    With M the basis's Legendre mixture, p = M l, the generator is similar
    to the Legendre one: A = M A_L M^-1 and B = M B_L = p(0), with A_L, B_L
    from mk_legendre and M^-1 the basis's one inverse. ValueError for a
    basis that fails validate(), i.e. an M singular to working precision.
    """
    report = validate(basis)
    if not report.ok:
        raise ValueError(f"basis fails validation: {report}")
    m = basis.mixture
    legendre = mk_legendre(basis.q)
    a = m @ legendre.a @ basis.inverse[0]
    return LtiSystem(a=a, b=m @ legendre.b, theta=basis.theta, basis=basis)


def to_original_ldn(sys: LtiSystem) -> LtiSystem:
    """Undo the per-dimension scaling of mk_ldn.

    Returns A' = M^-1 A M and B' = M^-1 B with M = diag(1/(2i+1)), the
    coordinates in which dimension i of the state runs (2i+1) times larger.
    """
    m = 1.0 / (2.0 * np.arange(sys.q) + 1.0)
    return LtiSystem(a=sys.a * (m[None, :] / m[:, None]), b=sys.b / m, theta=sys.theta)
