"""Child process that calls ldnkit in-process for the benchmark driver.

Two jobs, each repeated until its time is up and reported as one JSON line
per pass on stdout:

- ``designs``: passes of ROUNDS_PER_PASS rounds of the basis-design
  workload (library calls only); the first round's outputs are saved for
  the oracle, every round's outputs are hashed so the driver can check they
  never change.
- ``replay``: CLI steps run through ``ldnkit.cli.main(argv)``; every pass
  rewrites the same output files, which the driver checks afterwards.

With ``--trace 1`` passes alternate between untraced and traced, so the
tracing overhead is measured against untraced passes of the same process.
ldnkit is imported from the checkout's ``src`` and nowhere else.

    python3 perfbench/worker.py designs --spec FILE --seconds S --trace 0|1
    python3 perfbench/worker.py replay --spec FILE --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import ldnkit  # noqa: E402
from ldnkit import bases, cli, formats, lti, reencode, sim  # noqa: E402

import tracer  # noqa: E402

if not pathlib.Path(ldnkit.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"ldnkit imported from {ldnkit.__file__}, not from {SRC}")

THETA = 1.0
THETA_PRIMES = [THETA * i / 10 for i in range(11)]
METHODS = (reencode.METHOD_HILBERT, reencode.METHOD_BASIS_INVERSE, reencode.METHOD_DISCRETE)
# The CLI's default sample count for the sampled pseudo-inverse.
DISCRETE_SAMPLES = 100_000
IMPULSE_DT = THETA / 1000
IMPULSE_T_MAX = 2 * THETA
MIN_PASSES = 3
# A pass is this many rounds of the nine designs, about 4 s, so that it
# averages the host's speed swings as a CLI pass does.
ROUNDS_PER_PASS = 3


def _decoders(basis, method):
    if method == reencode.METHOD_HILBERT:
        return [reencode.decoder_hilbert_direct(basis, tp) for tp in THETA_PRIMES]
    if method == reencode.METHOD_BASIS_INVERSE:
        return [reencode.evaluated_decoder(basis, tp) for tp in THETA_PRIMES]
    return reencode.discrete_decoders(basis, DISCRETE_SAMPLES, THETA_PRIMES)


def _dampened_outputs(system, e, decoders, method, out):
    """Re-encode with the window-end decoder, dampen, and simulate 2 theta."""
    damp = reencode.dampen(system, reencode.delay_reencoder(e, decoders[-1]))
    out[f"{method}/D"] = np.array([d.d for d in decoders])
    out[f"{method}/a_damp"] = damp.a
    if method == reencode.METHOD_LEGENDRE:
        return None
    ir = sim.impulse_response(damp, IMPULSE_DT, IMPULSE_T_MAX)
    out[f"{method}/impulse"] = ir.states
    return ir


def run_design(design: dict) -> tuple[dict, int]:
    """One design: every output under a key, errors as '<key>/error' strings."""
    out: dict = {}
    rows = 0
    kind, q = design["kind"], design["q"]
    try:
        if kind == "random":
            basis = formats.read_basis_file(design["path"])
        elif kind == "legendre":
            basis = bases.shifted_legendre(q, THETA)
        else:
            basis = bases.shifted_chebyshev(q, THETA)
        report = bases.validate(basis)
        generic = lti.mk_poly_basis_lti(basis)
        if kind == "random":
            system = generic
        elif kind == "legendre":
            system = lti.mk_legendre(q, THETA)
        else:
            system = lti.mk_chebyshev(q, THETA)
        e = reencode.encoder(system)
    except Exception as exc:  # a failed design is recorded, the round goes on
        out["design/error"] = f"{type(exc).__name__}: {exc}"
        return out, rows
    out["basis"] = basis.coefficient_matrix()
    out["validate_ok"] = np.array(report.ok)
    out["a"], out["b"], out["e"] = system.a, system.b, e
    document = {"kind": kind, "q": q, "theta": system.theta, "e": e}
    ir = None
    for method in METHODS:
        try:
            ir = _dampened_outputs(system, e, _decoders(basis, method), method, out)
        except Exception as exc:  # recorded per method, as above
            out[f"{method}/error"] = f"{type(exc).__name__}: {exc}"
            continue
        rows += ir.states.shape[0]
        document[method] = {"d": out[f"{method}/D"][-1], "a_dampened": out[f"{method}/a_damp"]}
    if kind == "legendre":
        # the closed form the CLI's reencode uses: e(theta) is exactly all ones
        ones = bases.legendre_values(q, 1.0)
        decoders = [reencode.legendre_decoder(q, THETA, tp) for tp in THETA_PRIMES]
        _dampened_outputs(system, ones, decoders, reencode.METHOD_LEGENDRE, out)
    try:
        out["block"] = formats.render_block(document)
        if ir is not None:
            # one chart per design: the last successful method's impulse response
            out["svg"] = formats.render_svg(["t"] + [f"m_{n}" for n in range(q)],
                                            np.column_stack([ir.times, ir.states]))
    except Exception as exc:  # recorded, as above
        out["render/error"] = f"{type(exc).__name__}: {exc}"
    return out, rows


def _digest(outputs: list[dict]) -> str:
    h = hashlib.sha256()
    for out in outputs:
        for key in sorted(out):
            value = out[key]
            h.update(key.encode())
            if isinstance(value, str):
                h.update(value.encode())
            else:
                h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _loop(args, one_pass):
    """Repeat one_pass until --seconds are used; trace every second pass.

    Pass 0 warms up lazy imports and caches; it is reported with
    ``warmup: true`` and left out of every timing.
    """
    trace = tracer.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index <= MIN_PASSES or time.perf_counter() < deadline:
        traced = trace is not None and index % 2 == 0 and index > 0
        if traced:
            trace.reset()
            trace.install()
        try:
            record = one_pass(index)
        finally:
            if traced:
                trace.remove()
        record.update(index=index, traced=traced, warmup=index == 0)
        if traced:
            record["layers"] = tracer.layer_metrics(trace.summary())
        print(json.dumps(record), flush=True)
        index += 1


def designs_main(args) -> None:
    spec = json.loads(pathlib.Path(args.spec).read_text())

    def one_pass(index):
        start = time.perf_counter()
        rounds = [[run_design(d) for d in spec["designs"]] for _ in range(ROUNDS_PER_PASS)]
        wall = time.perf_counter() - start
        outputs = [[out for out, _ in results] for results in rounds]
        if index == 0:
            flat = {f"{i}/{k}": v for i, out in enumerate(outputs[0]) for k, v in out.items()}
            np.savez(spec["outputs"], **{k: np.asarray(v) for k, v in flat.items()})
        return {"wall_s": wall, "rows": sum(r for results in rounds for _, r in results),
                "digests": [_digest(o) for o in outputs]}

    _loop(args, one_pass)


def replay_main(args) -> None:
    spec = json.loads(pathlib.Path(args.spec).read_text())

    def one_pass(index):
        codes = []
        start = time.perf_counter()
        for argv in spec["steps"]:
            codes.append(cli.main(argv))
        wall = time.perf_counter() - start
        return {"wall_s": wall, "codes": codes}

    _loop(args, one_pass)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("job", choices=("designs", "replay"))
    parser.add_argument("--spec", required=True, help="JSON file written by run.py")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    (designs_main if args.job == "designs" else replay_main)(args)


if __name__ == "__main__":
    main()
