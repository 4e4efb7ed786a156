"""Command-line interface.

Subcommands: gen, impulse, slide, decode, reencode, plot. Exit codes follow
a fixed contract so scripts can dispatch on them:

    0  success
    2  usage error or unparseable input file
    3  numerical failure (singular to working precision)
    4  bad data (non-uniform signal spacing, incompatible sample period)

All output is deterministic for identical inputs and flags. Every command
reads a system document's basis from formats (SystemDocument.basis).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import formats, reencode, sim
from .errors import (
    FormatError,
    IncompatibleStepError,
    NonUniformSignalError,
    SingularMatrixError,
)
from .lti import mk_chebyshev, mk_ldn, mk_legendre, mk_poly_basis_lti

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _build_system(kind: str, q: int | None, theta: float | None,
                  basis: formats.PolyBasis | None):
    """The system gen writes; a flag the kind does not take, or one that
    contradicts the basis file, is refused rather than ignored."""
    if kind == "custom":
        if basis is None:
            raise FormatError("--kind custom requires --basis FILE")
        if q is not None and q != basis.q:
            raise FormatError(f"--q {q} contradicts the basis file's {basis.q} polynomials")
        if theta is not None and theta != basis.theta:
            raise FormatError(f"--theta {theta!r} contradicts the basis file's "
                              f"theta {basis.theta!r}")
        return mk_poly_basis_lti(basis)
    if basis is not None:
        raise FormatError(f"--basis only applies to --kind custom, not {kind}")
    if q is None:
        raise FormatError(f"--kind {kind} requires --q")
    theta = 1.0 if theta is None else theta
    return {"ldn": mk_ldn, "legendre": mk_legendre, "chebyshev": mk_chebyshev}[kind](q, theta)


def _decoders(doc: formats.SystemDocument, method: str, theta_primes, n_samples: int):
    if method == reencode.METHOD_LEGENDRE:
        if doc.kind not in formats.LEGENDRE_KINDS:
            raise FormatError("closed-form-legendre only applies to ldn/legendre systems")
        return [reencode.legendre_decoder(doc.q, doc.theta, tp) for tp in theta_primes]
    return reencode.decoder_bank(doc.basis, theta_primes, method, n_samples)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    basis = formats.read_basis_file(args.basis) if args.basis else None
    system = _build_system(args.kind, args.q, args.theta, basis)
    doc = formats.document_from_system(system, args.kind)
    _write_text(args.out, doc.to_text())
    return EXIT_OK


def _cmd_impulse(args) -> int:
    doc = formats.read_system_document(args.system)
    dt = args.dt if args.dt is not None else doc.theta / sim.DEFAULT_STEPS_PER_WINDOW
    # the undampened kinds' impulse response is their basis; the ldn's is not
    source = doc.to_system() if doc.kind == "ldn" else doc.basis
    traj = sim.impulse_response(source, dt, args.t_max)
    formats.write_trajectory_csv(args.out, traj)
    return EXIT_OK


def _cmd_slide(args) -> int:
    doc = formats.read_system_document(args.system)
    t0, signal = formats.read_signal_csv(args.signal)
    if args.perfect_window:
        traj = sim.perfect_window_transform(doc.basis, signal)
    else:
        traj = sim.sliding_transform(sim.discretize(doc.to_system(), signal.dt), signal)
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
    system = mk_poly_basis_lti(formats.parse_basis_file(text))
    return formats.document_from_system(system, "custom")


def _cmd_reencode(args) -> int:
    doc = _load_system_or_basis(args.system)
    system, basis = doc.to_system(), doc.basis
    if doc.kind == "ldn":
        raise ValueError("an ldn document is already dampened; reencode the legendre "
                         "generator (gen --kind legendre) instead")
    method = args.method or (reencode.METHOD_LEGENDRE if doc.kind == "legendre"
                             else reencode.METHOD_HILBERT)
    decoder = _decoders(doc, method, [doc.theta], args.n_samples)[0]
    # the impulse response at the window end is the basis there, p(theta);
    # exactly all ones for the Legendre kind
    e = basis.values(doc.theta)[:, 0]
    gamma = reencode.delay_reencoder(e, decoder)
    dampened = reencode.dampen(system, gamma)

    metadata: dict = {"method": method}
    if decoder.condition is not None:
        metadata["decoder_condition"] = decoder.condition
    if doc.kind == "legendre":
        expected = mk_ldn(doc.q, doc.theta)
        deviation = float(np.max(np.abs(dampened.a - expected.a)))
        metadata["ldn_identity_max_abs_error"] = deviation
        # the sampled pseudo-inverse is biased by design: its deviation is
        # recorded, while an exact method's must vanish
        if deviation > 1e-9 and method != reencode.METHOD_DISCRETE:
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
    if not np.all(np.isfinite(rows)):
        print(f"data error: {args.csv}: a cell is not finite, so it has no place on the chart",
              file=sys.stderr)
        return EXIT_DATA
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
    p.add_argument("--theta", type=float,
                   help="window length (s), default 1 (custom: the basis file's)")
    p.add_argument("--basis", help="basis file (JSON), for --kind custom only")
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
    p.add_argument("--perfect-window", action="store_true", help="exact FIR window transform, "
                   "the basis cut off at theta (default: the plain sliding transform)")
    p.add_argument("-o", "--out", required=True, help="output trajectory CSV")
    p.set_defaults(func=_cmd_slide)

    p = sub.add_parser("decode", help="decode windows from a state trajectory")
    p.add_argument("system", help="system document file")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument(
        "--theta-prime-grid", type=int, default=11, metavar="N",
        help="number of delay grid points across [0, theta] (default 11)",
    )
    p.add_argument("--method", choices=reencode.METHODS, default=reencode.METHOD_LEGENDRE)
    p.add_argument(
        "--n-samples", type=int, default=reencode.DEFAULT_DISCRETE_SAMPLES,
        help="sample count for the discrete-pinv method",
    )
    p.add_argument("-o", "--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser(
        "reencode", help="compute encoder, decoder, re-encoder, and dampened system"
    )
    p.add_argument("system", help="system document file, or a bare basis file")
    p.add_argument(
        "--method", choices=reencode.METHODS, default=None,
        help="decoder method (default: closed form for ldn/legendre, "
        "hilbert-direct otherwise)",
    )
    p.add_argument(
        "--n-samples", type=int, default=reencode.DEFAULT_DISCRETE_SAMPLES,
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
    except SingularMatrixError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NonUniformSignalError, IncompatibleStepError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
