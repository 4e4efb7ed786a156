"""Command-line interface.

Subcommands: gen, impulse, slide, decode, reencode, plot. Exit codes follow
a fixed contract so scripts can dispatch on them:

    0  success
    2  usage error or unparseable input file
    3  numerical failure (ill-conditioned, singular, rank deficient)
    4  bad data (non-uniform signal spacing, incompatible sample period)

All output is deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import formats, reencode, sim
from .bases import (
    PolyBasis,
    legendre_values,
    make_basis,
    shifted_chebyshev,
    shifted_legendre,
)
from .errors import (
    FormatError,
    IllConditionedError,
    IncompatibleStepError,
    NonUniformSignalError,
    RankDeficientError,
    SingularMatrixError,
)
from .lti import mk_chebyshev, mk_ldn, mk_legendre, mk_poly_basis_lti

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4

_METHODS = (
    reencode.METHOD_LEGENDRE,
    reencode.METHOD_HILBERT,
    reencode.METHOD_BASIS_INVERSE,
    reencode.METHOD_DISCRETE,
)

_DEFAULT_DISCRETE_SAMPLES = 100_000

# Kinds whose basis is the shifted Legendre family.
_LEGENDRE_KINDS = ("ldn", "legendre")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _basis_metadata(basis: PolyBasis) -> dict:
    return {"basis": {"theta": basis.theta, "polys": [p.tolist() for p in basis.polys]}}


def _build_system(kind: str, q: int | None, theta: float, basis: PolyBasis | None):
    if kind == "custom":
        if basis is None:
            raise FormatError("--kind custom requires --basis FILE")
        return mk_poly_basis_lti(basis), _basis_metadata(basis)
    if q is None:
        raise FormatError(f"--kind {kind} requires --q")
    if kind == "ldn":
        return mk_ldn(q, theta), {}
    if kind == "legendre":
        return mk_legendre(q, theta), {}
    if kind == "chebyshev":
        return mk_chebyshev(q, theta), {}
    raise FormatError(f"unknown kind {kind!r}")


def _basis_for_document(doc: formats.SystemDocument) -> PolyBasis:
    if doc.kind in _LEGENDRE_KINDS:
        return shifted_legendre(doc.q, doc.theta)
    if doc.kind == "chebyshev":
        return shifted_chebyshev(doc.q, doc.theta)
    raw = doc.metadata.get("basis")
    if not isinstance(raw, dict):
        raise FormatError(
            "custom system document lacks basis coefficients in metadata"
        )
    polys = [np.asarray(p, dtype=float) for p in raw.get("polys", [])]
    if not polys:
        raise FormatError("custom system document has an empty basis")
    return make_basis(polys, float(raw.get("theta", doc.theta)))


def _decoders(doc: formats.SystemDocument, method: str, theta_primes, n_samples: int):
    if method == reencode.METHOD_LEGENDRE:
        if doc.kind not in _LEGENDRE_KINDS:
            raise FormatError(
                "closed-form-legendre only applies to ldn/legendre systems"
            )
        return [reencode.legendre_decoder(doc.q, doc.theta, tp) for tp in theta_primes]
    return reencode.decoder_bank(_basis_for_document(doc), theta_primes, method, n_samples)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    basis = formats.read_basis_file(args.basis) if args.basis else None
    system, meta = _build_system(args.kind, args.q, args.theta, basis)
    doc = formats.document_from_system(system, args.kind, meta)
    _write_text(args.out, doc.to_text())
    return EXIT_OK


def _cmd_impulse(args) -> int:
    doc = formats.read_system_document(args.system)
    dt = args.dt if args.dt is not None else doc.theta / sim.DEFAULT_STEPS_PER_WINDOW
    traj = sim.impulse_response(doc.to_system(), dt, args.t_max)
    formats.write_trajectory_csv(args.out, traj)
    return EXIT_OK


def _cmd_slide(args) -> int:
    doc = formats.read_system_document(args.system)
    system = doc.to_system()
    t0, signal = formats.read_signal_csv(args.signal)
    if args.perfect_window:
        traj = sim.perfect_window_transform(system, signal)
    else:
        traj = sim.sliding_transform(sim.discretize(system, signal.dt), signal)
    formats.write_trajectory_csv(args.out, traj, t0=t0)
    return EXIT_OK


def _cmd_decode(args) -> int:
    doc = formats.read_system_document(args.system)
    t0, traj = formats.read_trajectory_csv(args.trajectory)
    if traj.states.shape[1] != doc.q:
        raise FormatError(
            f"trajectory has {traj.states.shape[1]} state columns, system has q={doc.q}"
        )
    grid_n = args.theta_prime_grid
    if grid_n < 2:
        raise FormatError("--theta-prime-grid must be at least 2")
    theta_primes = [doc.theta * i / (grid_n - 1) for i in range(grid_n)]
    decoders = _decoders(doc, args.method, theta_primes, args.n_samples)
    decoded = sim.StateTrajectory(sim.decode_window(traj.states, decoders), traj.dt)
    columns = [f"u@{formats.shortest_float(tp)}" for tp in theta_primes]
    formats.write_trajectory_csv(args.out, decoded, t0=t0, columns=columns)
    return EXIT_OK


def _load_system_or_basis(path) -> formats.SystemDocument:
    """Accept either a system document or a bare basis file.

    Only a JSON mapping without "format_version" is read as a basis file;
    anything else is parsed, and its errors reported, as a system document.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = None
    if not isinstance(raw, dict) or "format_version" in raw:
        return formats.parse_system_document(text)
    basis = formats.parse_basis_file(text)
    system = mk_poly_basis_lti(basis)
    return formats.document_from_system(system, "custom", _basis_metadata(basis))


def _cmd_reencode(args) -> int:
    doc = _load_system_or_basis(args.system)
    system = doc.to_system()
    method = args.method
    if method is None:
        method = (
            reencode.METHOD_LEGENDRE
            if doc.kind in _LEGENDRE_KINDS
            else reencode.METHOD_HILBERT
        )
    if method == reencode.METHOD_LEGENDRE:
        # basis values at the window end are exactly all ones, so the exact
        # closed form is used instead of the matrix exponential
        e = legendre_values(doc.q, 1.0)
    else:
        e = reencode.encoder(system)
    decoder = _decoders(doc, method, [doc.theta], args.n_samples)[0]
    gamma = reencode.delay_reencoder(e, decoder)
    dampened = reencode.dampen(system, gamma)

    metadata: dict = {"method": method}
    if decoder.condition is not None:
        metadata["decoder_condition"] = decoder.condition
    if doc.kind == "legendre":
        expected = mk_ldn(doc.q, doc.theta)
        deviation = float(np.max(np.abs(dampened.a - expected.a)))
        metadata["ldn_identity_max_abs_error"] = deviation
        if deviation > 1e-9:
            print(
                f"error: dampened feedback deviates from the ldn matrix by {deviation:.3e}",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL
    if doc.kind == "chebyshev" and doc.q in (6, 7):
        metadata["reference_match"] = reencode.match_report(decoder.d).split("\n")

    body = {
        "format_version": formats.DOCUMENT_FORMAT_VERSION,
        "kind": doc.kind,
        "q": doc.q,
        "theta": doc.theta,
        "e": e,
        "d": decoder.d,
        "gamma": gamma.gamma,
        "a_dampened": dampened.a,
        "b": system.b,
        "metadata": metadata,
    }
    _write_text(args.out, formats.render_block(body))
    return EXIT_OK


def _cmd_plot(args) -> int:
    header, rows = formats.read_csv(args.csv)
    _write_text(args.out, formats.render_svg(header, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldnkit",
        description=(
            "Build LTI systems that generate polynomial function bases, "
            "dampen them with delay re-encoders, and run sliding-window "
            "transforms over sampled signals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a system document")
    p.add_argument("--kind", required=True, choices=formats.SYSTEM_KINDS)
    p.add_argument("--q", type=int, help="system order (named kinds)")
    p.add_argument("--theta", type=float, default=1.0, help="window length (s)")
    p.add_argument("--basis", help="basis file (JSON), required for --kind custom")
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("impulse", help="sample an impulse response to CSV")
    p.add_argument("system", help="system document file")
    p.add_argument("--dt", type=float, default=None,
                   help="sample period (s), default theta/1000")
    p.add_argument("--t-max", type=float, required=True, help="end time (s)")
    p.add_argument("-o", "--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_impulse)

    p = sub.add_parser("slide", help="run a sliding transform over a signal CSV")
    p.add_argument("system", help="system document file")
    p.add_argument("--signal", required=True, help="input CSV with header t,u")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--window", action="store_true",
        help="plain sliding transform (default)",
    )
    mode.add_argument(
        "--perfect-window", action="store_true",
        help="erase window-old input through an exact delay line",
    )
    p.add_argument("-o", "--out", required=True, help="output trajectory CSV")
    p.set_defaults(func=_cmd_slide)

    p = sub.add_parser("decode", help="decode windows from a state trajectory")
    p.add_argument("system", help="system document file")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument(
        "--theta-prime-grid", type=int, default=11, metavar="N",
        help="number of delay grid points across [0, theta] (default 11)",
    )
    p.add_argument("--method", choices=_METHODS, default=reencode.METHOD_LEGENDRE)
    p.add_argument(
        "--n-samples", type=int, default=_DEFAULT_DISCRETE_SAMPLES,
        help="sample count for the discrete-pinv method",
    )
    p.add_argument("-o", "--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "reencode", help="compute encoder, decoder, re-encoder, and dampened system"
    )
    p.add_argument("system", help="system document file, or a bare basis file")
    p.add_argument(
        "--method", choices=_METHODS, default=None,
        help="decoder method (default: closed form for ldn/legendre, "
        "hilbert-direct otherwise)",
    )
    p.add_argument(
        "--n-samples", type=int, default=_DEFAULT_DISCRETE_SAMPLES,
        help="sample count for the discrete-pinv method",
    )
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_reencode)

    p = sub.add_parser("plot", help="render a CSV as a deterministic SVG chart")
    p.add_argument("csv", help="input CSV (first column is the x axis)")
    p.add_argument("-o", "--out", required=True, help="output SVG")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, FileNotFoundError, IsADirectoryError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IllConditionedError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SingularMatrixError, RankDeficientError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NonUniformSignalError, IncompatibleStepError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
