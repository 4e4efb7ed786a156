"""Encoders, delay decoders, and the rank-1 delay re-encoder.

The encoder e(theta) is the impulse response at the window end: the basis
there, p(theta). A delay decoder d(theta') reads the input value theta'
seconds ago back out of the state, assuming the window content lies in the
span of the basis. Their outer product Gamma erases window-old information
from the state; subtracting it from the feedback matrix dampens the system.

The shifted Legendre decoders have a closed form d_L(theta'). Any other
basis p = M l is a square Legendre mixture, so each of its decoders is the
Legendre one moved by M: d(theta') = M^-T d_L(theta'), since a decoder
solves G d = p(theta') for a Gram matrix G = M G_L M^T. decoder_bank builds
them for all delays from the basis's one inverse of M, under linalg's one
singularity rule, whichever Legendre decoders it starts from: the closed
form, or the sampled pseudo-inverse, which trades exactness for a sampling
bias and whose Legendre Gram matrix over the N-point grid comes from the
grid's own Gauss rule, exact for its polynomial entries, in O(q^3) time
whatever N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bases import PolyBasis, legendre_values
from .lti import LtiSystem

METHOD_LEGENDRE = "closed-form-legendre"
METHOD_HILBERT = "hilbert-direct"
METHOD_BASIS_INVERSE = "basis-inverse"
METHOD_DISCRETE = "discrete-pinv"
# Every decoder method; decoder_bank builds all but the first, the closed form.
METHODS = (METHOD_LEGENDRE, METHOD_HILBERT, METHOD_BASIS_INVERSE, METHOD_DISCRETE)

# Default sample count N of the discrete-pinv method.
DEFAULT_DISCRETE_SAMPLES = 100_000


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

    Defaults to the window end t = theta, the encoding vector proper. The
    value is read off the basis the generator carries, basis.values(t),
    exactly as the CLI's reencode reads it. ValueError for a system without
    a basis (the LDN, a dampened or a loaded system).
    """
    if sys.basis is None:
        raise ValueError("only an undampened generator carries the basis its encoder reads")
    if t is None:
        t = sys.theta
    if t < 0:
        raise ValueError("t must be non-negative")
    return sys.basis.values(t)[:, 0]


@np.errstate(over="ignore", invalid="ignore")
def _legendre_duals(q: int, theta: float, theta_primes) -> np.ndarray:
    """K x q closed-form Legendre decoders, one contiguous row per delay.

    Adding 0.0 turns the -0.0 entries at the roots into +0.0, as a product
    with M^-T = I gives them, so the Legendre basis's exact decoders equal
    the closed form bit for bit. ValueError where an entry is not finite.
    """
    vals = legendre_values(q, np.asarray(theta_primes, dtype=float) / theta)
    scale = (2.0 * np.arange(q) + 1.0) / theta
    return linalg.as_matrix(np.ascontiguousarray((scale[:, None] * vals).T) + 0.0, "decoder")


def legendre_decoder(q: int, theta: float, theta_prime: float) -> DelayDecoder:
    """Closed-form decoder for the shifted Legendre basis.

    Entry m is (2m + 1) / theta times the m-th shifted Legendre polynomial
    at theta_prime / theta by the value recurrence; ValueError if not finite.
    """
    _check_delay(theta, theta_prime)
    return DelayDecoder(
        d=_legendre_duals(q, theta, [theta_prime])[0], theta_prime=float(theta_prime),
        theta=float(theta), method=METHOD_LEGENDRE,
    )


@np.errstate(over="ignore", invalid="ignore")  # entries past the float range are refused
def decoder_bank(basis: PolyBasis, theta_primes, method: str,
                 n_samples: int = DEFAULT_DISCRETE_SAMPLES) -> list[DelayDecoder]:
    """Delay decoders of one basis-space method for every theta' at once.

    Each method gives Legendre decoders d_L(theta'), and the basis's are
    d(theta') = M^-T d_L(theta') for its Legendre mixture M: the basis's
    one inverse of M, then one product per delay. SingularMatrixError is
    raised for an M past linalg's limit, and ValueError for a decoder entry
    that is not finite, whatever the method. The exact methods' banks equal
    their single-delay views bit for bit; a discrete-pinv bank solves the
    Gram for all delays at once, which rounds differently from one solve
    per delay.

    - hilbert-direct and basis-inverse are one exact method under two names:
      d_L is the closed form, and cond(M) is attached to each decoder.
    - discrete-pinv takes row floor((N-1) theta' / theta) + 1 of the right
      pseudo-inverse of the q x N sample matrix, scaled by N / theta. Its
      d_L solves the Legendre Gram matrix, summed exactly by the q-point
      Gauss rule of the grid: one eigh of the q x q Jacobi matrix of the
      discrete Chebyshev polynomials, so O(q^3) time and O(q^2) space
      whatever N; q <= N distinct nodes with positive weights make it
      nonsingular. Useful accuracy needs N = n_samples well past q; the bias
      falls as 1/N, up to N = 2^53, past which the sample index is inexact
      and ValueError is raised.
    """
    if method not in METHODS[1:]:
        raise ValueError(f"unknown basis-space decoder method {method!r}")
    q, theta = basis.q, basis.theta
    if method == METHOD_DISCRETE and n_samples < 2 * q:
        raise ValueError(f"n_samples must be at least 2q = {2 * q}")
    if method == METHOD_DISCRETE and n_samples > 2**53:
        raise ValueError("n_samples past 2^53 leaves the sample index inexact")
    theta_primes = np.asarray(theta_primes, dtype=float)
    for tp in theta_primes:
        _check_delay(theta, tp)
    inverse, cond = basis.inverse
    if method != METHOD_DISCRETE:
        legendre = _legendre_duals(q, theta, theta_primes)
    else:
        cond = None
        # Gauss rule of the grid's counting measure (Golub & Welsch): nodes and
        # weights from the Jacobi matrix of the discrete Chebyshev polynomials
        # centred on 1/2, zero diagonal, lower off-diagonal b_k
        k = np.arange(1.0, q)
        b = (n_samples / (n_samples - 1)) * (k / 2) * np.sqrt(
            (1.0 - (k / n_samples) ** 2) / (4.0 * k * k - 1.0))
        lam, vec = np.linalg.eigh(np.diag(b, -1))
        vals = legendre_values(q, 0.5 + lam)
        gram = (vals * (n_samples * vec[0] ** 2)) @ vals.T
        step = theta / (n_samples - 1)
        cols = legendre_values(q, np.floor((n_samples - 1) * theta_primes / theta) * step / theta)
        legendre = ((n_samples / theta) * np.linalg.solve(gram, cols)).T
    ds = [inverse.T @ row for row in legendre]
    if not np.isfinite(ds).all():
        raise ValueError("decoder bank has non-finite entries")
    return [DelayDecoder(d=d, theta_prime=float(tp), theta=theta, method=method, condition=cond)
            for tp, d in zip(theta_primes, ds)]


def decoder_hilbert_direct(basis: PolyBasis, theta_prime: float) -> DelayDecoder:
    """Decoder from the coefficient-space linear system (see decoder_bank)."""
    return decoder_bank(basis, [theta_prime], METHOD_HILBERT)[0]


def evaluated_decoder(basis: PolyBasis, theta_prime: float) -> DelayDecoder:
    """Delay decoder obtained by evaluating the dual basis at theta_prime."""
    return decoder_bank(basis, [theta_prime], METHOD_BASIS_INVERSE)[0]


def discrete_decoders(basis: PolyBasis, n_samples: int, theta_primes) -> list[DelayDecoder]:
    """Sampled pseudo-inverse decoders at every theta' (see decoder_bank)."""
    return decoder_bank(basis, theta_primes, METHOD_DISCRETE, n_samples)


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
    A - Gamma. ValueError unless Gamma's window is the system's.
    """
    if gamma.gamma.shape != sys.a.shape:
        raise ValueError(
            f"shape mismatch: system {sys.a.shape}, gamma {gamma.gamma.shape}"
        )
    if gamma.theta != sys.theta:
        raise ValueError(f"window mismatch: system theta {sys.theta}, gamma theta {gamma.theta}")
    return LtiSystem(a=sys.a - sys.theta * gamma.gamma, b=sys.b.copy(), theta=sys.theta)


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
