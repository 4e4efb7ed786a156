"""LTI systems generating polynomial function bases as impulse responses.

The package builds the classic delay-network systems in closed form (the
Legendre Delay Network, the undampened Legendre generator, the Chebyshev
generator), solves for the system generating any valid polynomial basis,
computes delay decoders and rank-1 delay re-encoders that dampen a system
into a sliding-window transform, and simulates the results on sampled
signals.
"""

from .bases import (
    PolyBasis,
    ValidityReport,
    legendre_values,
    make_basis,
    random_basis,
    shifted_chebyshev,
    shifted_legendre,
    validate,
)
from .errors import (
    FormatError,
    GenerationFailedError,
    IncompatibleStepError,
    LdnkitError,
    NonUniformSignalError,
    SingularMatrixError,
)
from .linalg import condition_estimate, expm
from .lti import (
    LtiSystem,
    mk_chebyshev,
    mk_ldn,
    mk_legendre,
    mk_poly_basis_lti,
    to_original_ldn,
)
from .poly import hilbert
from .reencode import (
    DelayDecoder,
    ReencoderMatrix,
    dampen,
    decoder_bank,
    decoder_hilbert_direct,
    delay_reencoder,
    encoder,
    evaluated_decoder,
    legendre_decoder,
)
from .sim import (
    DiscreteSystem,
    Signal,
    StateTrajectory,
    decode_window,
    discretize,
    impulse_response,
    perfect_window_transform,
    sliding_transform,
)

__version__ = "0.1.0"

__all__ = [
    "PolyBasis", "ValidityReport", "legendre_values", "make_basis",
    "random_basis", "shifted_chebyshev", "shifted_legendre", "validate",
    "FormatError", "GenerationFailedError", "IncompatibleStepError",
    "LdnkitError", "NonUniformSignalError", "SingularMatrixError",
    "condition_estimate", "expm",
    "LtiSystem", "mk_chebyshev", "mk_ldn", "mk_legendre",
    "mk_poly_basis_lti", "to_original_ldn",
    "hilbert",
    "DelayDecoder", "ReencoderMatrix", "dampen",
    "decoder_bank", "decoder_hilbert_direct", "delay_reencoder",
    "encoder", "evaluated_decoder", "legendre_decoder",
    "DiscreteSystem", "Signal", "StateTrajectory", "decode_window",
    "discretize", "impulse_response",
    "perfect_window_transform", "sliding_transform",
]
