"""Encoders, delay decoders, and the rank-1 delay re-encoder.

The encoder e(theta) is the impulse response at the window end. A delay
decoder d(theta') reads the input value theta' seconds ago back out of the
state, assuming the window content lies in the span of the basis. Their
outer product Gamma erases window-old information from the state;
subtracting it from the feedback matrix dampens the system.

Three decoder construction methods are provided besides the Legendre closed
form. The two coefficient-space methods share the same ill-conditioning (the
monomial Gram matrix is a scaled Hilbert matrix), so they refuse to return
noise: past a condition threshold they raise instead. The discrete method
trades exactness for stability and is the practical fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, poly
from .bases import PolyBasis, legendre_values
from .errors import IllConditionedError, RankDeficientError, SingularMatrixError
from .lti import LtiSystem

# Coefficient-space decoder solves refuse to proceed past this condition
# number and raise IllConditionedError carrying the number instead.
ILL_CONDITIONED_LIMIT = 1e14

# Column-chunk size for the streaming discrete decoder; fixed so that the
# accumulation order, and therefore the result, is deterministic.
_CHUNK = 65536

METHOD_LEGENDRE = "closed-form-legendre"
METHOD_HILBERT = "hilbert-direct"
METHOD_BASIS_INVERSE = "basis-inverse"
METHOD_DISCRETE = "discrete-pinv"


@dataclass(frozen=True)
class DelayDecoder:
    """Length-q vector decoding u(t - theta_prime) from the system state."""

    d: np.ndarray
    theta_prime: float
    theta: float
    method: str
    condition: float | None = None


@dataclass(frozen=True)
class ReencoderMatrix:
    """Rank-1 matrix e(theta) (outer) d(theta) in continuous-time units."""

    gamma: np.ndarray
    theta: float


def _check_delay(theta: float, theta_prime: float) -> None:
    if not 0.0 <= theta_prime <= theta:
        raise ValueError(f"theta_prime must lie in [0, {theta}], got {theta_prime}")


def encoder(sys: LtiSystem, t: float | None = None) -> np.ndarray:
    """Impulse-response value exp((t / theta) A) B at time t.

    Defaults to the window end t = theta, the encoding vector proper.
    """
    if t is None:
        t = sys.theta
    if t < 0:
        raise ValueError("t must be non-negative")
    return linalg.expm((t / sys.theta) * sys.a) @ sys.b


def legendre_decoder(q: int, theta: float, theta_prime: float) -> DelayDecoder:
    """Closed-form decoder for the shifted Legendre basis.

    Entry m is (2m + 1) / theta times the m-th shifted Legendre polynomial
    at theta_prime / theta, evaluated by the value recurrence.
    """
    _check_delay(theta, theta_prime)
    vals = legendre_values(q, theta_prime / theta)
    d = (2.0 * np.arange(q) + 1.0) / theta * vals
    return DelayDecoder(
        d=d, theta_prime=float(theta_prime), theta=float(theta),
        method=METHOD_LEGENDRE,
    )


def _refuse_if_ill_conditioned(matrix: np.ndarray, what: str) -> float:
    cond = linalg.condition_estimate(matrix)
    if cond > ILL_CONDITIONED_LIMIT:
        raise IllConditionedError(f"{what} is numerically unusable", cond)
    return cond


def decoder_hilbert_direct(basis: PolyBasis, theta_prime: float) -> DelayDecoder:
    """Solve the defining linear system of the decoder in coefficient space.

    The system matrix is P Q Lam^T, where P holds the coefficients of the
    window-reflected polynomials, Q is the monomial Gram matrix, and Lam the
    basis coefficients; the right-hand side is the basis evaluated at
    theta - theta_prime. Raises IllConditionedError past the condition
    threshold; otherwise the condition number is attached to the result.
    """
    _check_delay(basis.theta, theta_prime)
    lam = basis.coefficient_matrix()
    reflected = np.vstack([poly.compose_affine(p, -1.0, basis.theta) for p in lam])
    system = reflected @ poly.hilbert(basis.width, basis.theta) @ lam.T
    cond = _refuse_if_ill_conditioned(system, "decoder system")
    y = poly.eval_rows(lam, basis.theta - theta_prime)
    d = linalg.lu_solve(system, y)
    return DelayDecoder(
        d=d, theta_prime=float(theta_prime), theta=basis.theta,
        method=METHOD_HILBERT, condition=cond,
    )


def _dual_coefficients(basis: PolyBasis) -> tuple[np.ndarray, float]:
    """Dual-basis coefficient rows and the condition number of their solve.

    Solving Lam Q P^T = I gives every dual in one factorization; row j of
    the returned matrix holds the coefficients of dual j.
    """
    q = basis.q
    if basis.width != q:
        raise ValueError("basis inversion needs degrees bounded by q - 1")
    system = basis.coefficient_matrix() @ poly.hilbert(q, basis.theta)
    cond = _refuse_if_ill_conditioned(system, "basis inversion")
    return linalg.lu_solve(system, np.eye(q)).T, cond


def basis_inverse(basis: PolyBasis) -> tuple[np.ndarray, ...]:
    """Dual polynomials: coefficient arrays with <p_i, dual_j> = delta_ij.

    Evaluating the dual family at a point theta' yields the delay decoder
    d(theta') for that delay (see evaluated_decoder).
    """
    duals, _ = _dual_coefficients(basis)
    return tuple(row.copy() for row in duals)


def evaluated_decoder(basis: PolyBasis, theta_prime: float) -> DelayDecoder:
    """Delay decoder obtained by evaluating the dual basis at theta_prime."""
    _check_delay(basis.theta, theta_prime)
    duals, cond = _dual_coefficients(basis)
    d = poly.eval_rows(duals, theta_prime)
    return DelayDecoder(
        d=d, theta_prime=float(theta_prime), theta=basis.theta,
        method=METHOD_BASIS_INVERSE, condition=cond,
    )


def decoder_discrete(basis: PolyBasis, n_samples: int, theta_prime: float) -> DelayDecoder:
    """Decoder from the pseudo-inverse of the basis sampled at N grid points.

    Row i = floor((N-1) theta' / theta) + 1 of the right pseudo-inverse of
    the q x N sample matrix L, scaled by N / theta. L is never materialized:
    its Gram matrix is accumulated over fixed-size column chunks (O(qN)
    time, O(q^2) space) and the needed pseudo-inverse row reduces to one
    Gram solve. Useful accuracy needs N well past the polynomial count;
    results sharpen roughly linearly in N.

    Raises RankDeficientError (via the Gram solve) for a sampled basis
    without full row rank.
    """
    return discrete_decoders(basis, n_samples, [theta_prime])[0]


def discrete_decoders(basis: PolyBasis, n_samples: int, theta_primes) -> list[DelayDecoder]:
    """Batch form of decoder_discrete: one Gram pass, one multi-column solve."""
    q = basis.q
    if n_samples < 2 * q:
        raise ValueError(f"n_samples must be at least 2q = {2 * q}")
    theta_primes = np.asarray(theta_primes, dtype=float)
    for tp in theta_primes:
        _check_delay(basis.theta, tp)
    lam = basis.coefficient_matrix()
    step = basis.theta / (n_samples - 1)
    gram = np.zeros((q, q))
    for start in range(0, n_samples, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n_samples), dtype=float)
        vals = poly.eval_rows(lam, idx * step)
        gram += vals @ vals.T
    cols = poly.eval_rows(lam, np.floor((n_samples - 1) * theta_primes / basis.theta) * step)
    try:
        solved = linalg.lu_solve(gram, cols)
    except SingularMatrixError as exc:
        raise RankDeficientError(f"sampled basis is rank deficient: {exc}") from exc
    return [
        DelayDecoder(
            d=(n_samples / basis.theta) * solved[:, i],
            theta_prime=float(tp), theta=basis.theta, method=METHOD_DISCRETE,
        )
        for i, tp in enumerate(theta_primes)
    ]


def delay_reencoder(e: np.ndarray, d: DelayDecoder) -> ReencoderMatrix:
    """Gamma = e (outer) d, the rank-1 information-erasure matrix."""
    e = linalg.as_vector(e, "e")
    if e.size != d.d.size:
        raise ValueError(f"encoder length {e.size} != decoder length {d.d.size}")
    return ReencoderMatrix(gamma=np.outer(e, d.d), theta=d.theta)


def dampen(sys: LtiSystem, gamma: ReencoderMatrix) -> LtiSystem:
    """Subtract the re-encoder from the feedback matrix.

    Gamma is a continuous-time object (dm/dt = (A_c - Gamma) m + ...), while
    the stored feedback matrix is theta times the continuous one, so the
    subtraction picks up a factor of theta. With theta = 1 this is plainly
    A - Gamma.
    """
    if gamma.gamma.shape != sys.a.shape:
        raise ValueError(
            f"shape mismatch: system {sys.a.shape}, gamma {gamma.gamma.shape}"
        )
    return LtiSystem(
        a=sys.a - sys.theta * gamma.gamma,
        b=sys.b.copy(),
        theta=sys.theta,
        condition=sys.condition,
    )


# Reference values for the q = 6 shifted-Chebyshev window-end decoder, used
# by the cross-check report. The list carries seven entries, one more than
# q: the full list coincides with the q = 7 decoder, while at q = 6 only a
# subset of entries agrees (match_report states which).
CHEBYSHEV_Q6_DECODER_REFERENCE = (4.79, 8.20, 9.23, 7.38, 8.12, 5.41, 5.87)


def match_report(d: np.ndarray, reference=CHEBYSHEV_Q6_DECODER_REFERENCE,
                 tol: float = 0.02) -> str:
    """Report which reference entries a computed decoder reproduces.

    Compares position by position over the overlapping length; no reference
    entry is treated as ground truth, the report just states the matches.
    """
    d = np.asarray(d, dtype=float)
    lines = []
    matches = []
    for i in range(min(d.size, len(reference))):
        ok = abs(d[i] - reference[i]) <= tol
        if ok:
            matches.append(i + 1)
        lines.append(
            f"entry {i + 1}: computed {d[i]:.3f}, reference {reference[i]:.2f}, "
            f"{'match' if ok else 'differs'} (tol {tol:g})"
        )
    lines.append(
        f"{len(matches)} of {min(d.size, len(reference))} overlapping entries match: "
        f"{matches}"
    )
    if d.size < len(reference):
        lines.append(
            f"reference has {len(reference) - d.size} extra trailing entries"
        )
    return "\n".join(lines)
