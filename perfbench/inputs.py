"""Seeded input generator for the benchmark, written with numpy only.

Everything the program under test receives is made here from the workload
seed, before any timed region starts: the band-limited signal CSV used by
the CLI workloads and the basis files used by the basis-design workload.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
from numpy.polynomial import Legendre, Polynomial

THETA = 1.0
# Sample period theta/1000 divides the window, as the perfect window needs.
DT = THETA / 1000
# 50 windows. A pass then takes 3 to 7 s: on a shared host whose speed
# swings over seconds, each pass averages several swings, so the median of a
# run's passes stays steady where the median of 1 s passes flips between a
# fast and a slow mode.
N_SAMPLES = 50_000
# Band limit of the signal, well inside what a q = 6 window resolves.
N_TONES = 8
MAX_HZ = 2.5

RANDOM_BASIS_ORDERS = (6, 12, 16)
# Redraw a mixture whose rows are this close to dependent; the program's own
# validation must accept every basis the generator writes.
MAX_MIXTURE_CONDITION = 1e4
COMMON_ZERO_GRID = 1001
COMMON_ZERO_TOL = 1e-6


def signal(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum of N_TONES random sinusoids below MAX_HZ, unit-order amplitude."""
    rng = np.random.default_rng([seed, 1])
    t = np.arange(N_SAMPLES) * DT
    freqs = rng.uniform(0.1, MAX_HZ, N_TONES)
    phases = rng.uniform(0.0, 2.0 * np.pi, N_TONES)
    amps = rng.standard_normal(N_TONES) / np.sqrt(N_TONES)
    u = (amps[:, None] * np.sin(2.0 * np.pi * freqs[:, None] * t + phases[:, None])).sum(0)
    return t, u


def write_signal_csv(path: pathlib.Path, t: np.ndarray, u: np.ndarray) -> None:
    """Header t,u, LF endings, shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("t,u\n")
        handle.writelines(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), u.tolist()))


def shifted_monomials(family, q: int) -> np.ndarray:
    """q x q monomial coefficients (ascending powers of t) of F_k(2t/theta - 1).

    ``family`` is ``Legendre`` or ``Chebyshev`` from ``numpy.polynomial``.
    """
    out = np.zeros((q, q))
    for k in range(q):
        coef = family.basis(k, domain=[0.0, THETA]).convert(kind=Polynomial).coef
        out[k, : coef.size] = coef
    # the coefficients are integers; rounding removes conversion noise
    return np.rint(out)


def random_mixture(q: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture matrix M and monomial coefficients of p_i = sum_k M_ik P~_k.

    Draws are repeated from the same stream until the family is clearly
    independent and has no common zero on the window grid.
    """
    rng = np.random.default_rng([seed, 2, q])
    mono = shifted_monomials(Legendre, q)
    grid = THETA * np.arange(COMMON_ZERO_GRID) / COMMON_ZERO_GRID
    vander = np.polynomial.legendre.legvander(2.0 * grid / THETA - 1.0, q - 1)
    while True:
        mix = rng.standard_normal((q, q))
        if np.linalg.cond(mix) > MAX_MIXTURE_CONDITION:
            continue
        values = vander @ mix.T
        if np.any(np.all(np.abs(values) < COMMON_ZERO_TOL, axis=1)):
            continue
        return mix, mix @ mono


def write_basis_file(path: pathlib.Path, coeffs: np.ndarray) -> None:
    body = {"theta": THETA, "polys": coeffs.tolist()}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(body, handle)
        handle.write("\n")


def make_cli_inputs(workdir: pathlib.Path, seed: int) -> dict:
    t, u = signal(seed)
    path = workdir / "signal.csv"
    write_signal_csv(path, t, u)
    return {"signal": path, "u": u}


def make_design_inputs(workdir: pathlib.Path, seed: int) -> list[dict]:
    """The nine designs of one basis-design round, in a fixed order."""
    designs = []
    for q in RANDOM_BASIS_ORDERS:
        mix, coeffs = random_mixture(q, seed)
        path = workdir / f"basis_random_q{q}.json"
        write_basis_file(path, coeffs)
        designs.append({"kind": "random", "q": q, "path": str(path), "mixture": mix})
    for kind in ("legendre", "chebyshev"):
        for q in RANDOM_BASIS_ORDERS:
            designs.append({"kind": kind, "q": q, "path": None, "mixture": None})
    return designs
