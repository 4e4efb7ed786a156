"""Oracle verdicts on the program's outputs, and which failures are known.

Every check compares an output of ldnkit with a reference from ``oracle``
(which does not use ldnkit) and yields a record::

    {"check": name, "subject": what was checked, "err": relative error,
     "tol": tolerance, "ok": bool, "known": defect id or None}

A failing check counts against ``fail_frac`` either way. ``known`` names a
documented defect of the library that the benchmark expects to see until it
is fixed; the run's ``correct`` verdict is false only when a check fails
for any other reason.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Chebyshev, Legendre

import inputs
import oracle

# Documented defects of the library, printed with each run that shows them.
KNOWN_DEFECTS = {
    "perfect-window-cancellation": (
        "perfect_window_transform subtracts ed*u[k-D] from an undampened, "
        "nilpotent recurrence; its state error grows with signal length and q"
    ),
    "coefficient-space-decoders": (
        "hilbert-direct and basis-inverse return inaccurate decoders without "
        "raising once the monomial Gram matrix is ill-conditioned (q >= 12)"
    ),
    "unstable-dampened-system": (
        "dampening can leave the system unstable (q = 16 random bases, even "
        "with exact decoders); its impulse response grows past any scale, "
        "loses all accuracy or overflows to inf/NaN, and nothing raises"
    ),
    "numerical-refusal": (
        "a coefficient-space method raised its documented numerical error "
        "instead of returning a result"
    ),
}

COEFFICIENT_METHODS = ("hilbert-direct", "basis-inverse")
SAMPLED_METHOD = "discrete-pinv"
NUMERICAL_ERRORS = ("IllConditionedError", "SingularMatrixError", "RankDeficientError")
# Impulse rows compared with the oracle: every 50th of the 2001 rows.
IMPULSE_STRIDE = 50
TIME_ATOL = 1e-9


def record(check, subject, err, tol, known=None):
    ok = bool(err <= tol)
    return {"check": check, "subject": subject, "err": err, "tol": tol, "ok": ok,
            "known": None if ok else known}


def load_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def time_err(t, dt):
    return float(np.max(np.abs(t - dt * np.arange(t.size))))


def system_reference(kind, q):
    if kind == "ldn":
        return oracle.ldn_matrices(q)
    return oracle.legendre_generator(q, inputs.THETA)


def check_cli(kind, q, perfect, u, doc, traj_path, dec_path):
    """Checks of one gen -> slide -> decode pass of a CLI workload."""
    theta, dt = inputs.THETA, inputs.DT
    out = []
    a_ref, b_ref = system_reference(kind, q)
    err = max(oracle.rel_err(np.array(doc["a"]), a_ref), oracle.rel_err(np.array(doc["b"]), b_ref))
    out.append(record("gen.system", f"{kind} q={q}", err, 0.0))

    header, traj = load_csv(traj_path)
    states = traj[:, 1:]
    if perfect:
        ref = oracle.perfect_window_states(q, theta, dt, u)
        known = "perfect-window-cancellation"
    else:
        ref = oracle.zoh_states(a_ref, b_ref, theta, dt, u)
        known = None
    out.append(record("slide.times", "t column", time_err(traj[:, 0], dt), TIME_ATOL))
    out.append(record("slide.states", f"{states.shape[0]} rows x {q}",
                      oracle.rel_err(states, ref), oracle.STATE_RTOL, known))

    header, dec = load_csv(dec_path)
    grid = len(header) - 1
    decoders = oracle.legendre_decoders(q, theta, [theta * i / (grid - 1) for i in range(grid)])
    out.append(record("decode.times", "t column", time_err(dec[:, 0], dt), TIME_ATOL))
    out.append(record("decode.values", f"{dec.shape[0]} rows x {grid}",
                      oracle.rel_err(dec[:, 1:], states @ decoders.T), oracle.DECODE_RTOL))
    return out


def design_reference(design):
    """Oracle decoders (K x q) and basis coefficients for one design."""
    q, theta = design["q"], inputs.THETA
    tps = [theta * i / 10 for i in range(11)]
    if design["kind"] == "legendre":
        return oracle.legendre_decoders(q, theta, tps), inputs.shifted_monomials(Legendre, q)
    if design["kind"] == "chebyshev":
        coeffs = inputs.shifted_monomials(Chebyshev, q)
    else:
        coeffs = design["mixture"] @ inputs.shifted_monomials(Legendre, q)
    return oracle.exact_decoders(coeffs, theta, tps), coeffs


def check_design(design, outputs, prefix):
    """Checks of one basis design; outputs is the saved npz of round 0."""
    subject = f"{design['kind']} q={design['q']}"
    get = {k[len(prefix):]: outputs[k] for k in outputs.files if k.startswith(prefix)}
    if "design/error" in get:
        return [record("design.build", f"{subject}: {get['design/error']}", math.inf, 0.0)]
    ref_d, ref_coeffs = design_reference(design)
    out = [
        record("design.basis", subject, oracle.rel_err(get["basis"], ref_coeffs), 0.0),
        # every generated basis is independent with no common zero
        record("design.validate", subject, 0.0 if get["validate_ok"] else math.inf, 0.0),
    ]
    if "render/error" in get:
        out.append(record("design.render", f"{subject}: {get['render/error']}", math.inf, 0.0))
    theta = inputs.THETA
    times = np.arange(0, 2001, IMPULSE_STRIDE) * (theta / 1000)
    for method in (*COEFFICIENT_METHODS, SAMPLED_METHOD):
        name = f"{subject} {method}"
        if f"{method}/D" not in get:
            message = str(get[f"{method}/error"])
            numerical = message.split(":", 1)[0] in NUMERICAL_ERRORS
            known = "numerical-refusal" if numerical and method in COEFFICIENT_METHODS else None
            out.append(record("design.decoder", f"{name}: {message}", math.inf, 0.0, known))
            continue
        coefficient = method in COEFFICIENT_METHODS
        tol = oracle.EXACT_DECODER_RTOL if coefficient else oracle.SAMPLED_DECODER_RTOL
        dec = record("design.decoder", name, oracle.rel_err(get[f"{method}/D"], ref_d), tol,
                     "coefficient-space-decoders" if coefficient else None)
        out.append(dec)
        if f"{method}/impulse" not in get:
            out.append(record("design.impulse", f"{name}: {get[f'{method}/error']}",
                              math.inf, 0.0))
            continue
        a_damp = get[f"{method}/a_damp"]
        got = get[f"{method}/impulse"][::IMPULSE_STRIDE]
        ref = oracle.impulse_states(a_damp, get["b"], theta, times)
        unstable = oracle.max_real_eigenvalue(a_damp) > 0
        known = dec["known"] or ("unstable-dampened-system" if unstable else None)
        out.append(record("design.impulse", name, oracle.rel_err(got, ref),
                          oracle.IMPULSE_RTOL, known))
    if design["kind"] == "legendre":
        cf = "closed-form-legendre"
        out.append(record("design.decoder", f"{subject} {cf}",
                          oracle.rel_err(get[f"{cf}/D"], ref_d), oracle.DECODE_RTOL))
        out.append(record("design.ldn_identity", subject,
                          oracle.rel_err(get[f"{cf}/a_damp"], oracle.ldn_matrices(design["q"])[0]),
                          0.0))
    return out
