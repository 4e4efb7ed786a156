"""Self-test of the benchmark's oracle against the committed q = 6 goldens.

The oracle must accept the golden CLI artifacts in ``tests/golden/`` (read
only) and reject a copy of each with one value perturbed by a relative
1e-6. The benchmark runs this before every measurement; it also runs alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

import checks
import oracle

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
# The goldens' input: a 2000-sample unit impulse (height 1/dt) at dt = 1e-3.
DT = 1e-3
N = 2000
Q = 6
PERTURBATION = 1e-6


def _impulse_input():
    u = np.zeros(N)
    u[0] = 1.0 / DT
    return u


def _references():
    """(golden file, row stride, reference values at those rows, tolerance)."""
    u = _impulse_input()
    grid = [i / 4 for i in range(5)]
    decoders = oracle.legendre_decoders(Q, 1.0, grid)
    ldn = oracle.ldn_matrices(Q)
    zoh = oracle.zoh_states(*ldn, 1.0, DT, u)
    window = oracle.perfect_window_states(Q, 1.0, DT, u)
    t_leg = DT * np.arange(1001)
    t_ldn = DT * np.arange(0, 2001, 10)
    return [
        ("decode_ldn_q6.csv", 1, zoh @ decoders.T, oracle.DECODE_RTOL),
        ("decode_perfect_window_q6.csv", 1, window @ decoders.T, oracle.DECODE_RTOL),
        ("impulse_legendre_q6.csv", 1,
         np.polynomial.legendre.legvander(2.0 * t_leg - 1.0, Q - 1), oracle.STATE_RTOL),
        ("impulse_ldn_q6.csv", 10, oracle.impulse_states(*ldn, 1.0, t_ldn), oracle.IMPULSE_RTOL),
    ]


def run() -> list[dict]:
    """Accept-and-reject records; the self-test passes when all are ok."""
    out = []
    for name, stride, ref, tol in _references():
        _, golden = checks.load_csv(GOLDEN / name)
        values = golden[::stride, 1:]
        out.append(checks.record("selftest.accept", name, oracle.rel_err(values, ref), tol))
        perturbed = values.copy()
        row = perturbed.shape[0] // 2
        perturbed[row, 0] += PERTURBATION * float(np.max(np.abs(ref)))
        rejected = oracle.rel_err(perturbed, ref) > tol
        out.append(checks.record("selftest.reject", f"{name} perturbed",
                                 0.0 if rejected else 1.0, 0.0))
    return out


def main() -> int:
    results = run()
    for r in results:
        verdict = "ok  " if r["ok"] else "FAIL"
        print(f"{verdict} {r['check']:16} {r['subject']:40} err={r['err']:.3e}")
    return 0 if all(r["ok"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
