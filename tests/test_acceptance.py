"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines and timings.
"""

import contextlib
import json
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from ldnkit import bases, lti, poly, reencode, sim
from ldnkit.errors import LdnkitError

from helpers import dirac

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@contextlib.contextmanager
def criterion(num, limit_s, name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s < {limit_s:.0f}s): {name}")
    assert elapsed < limit_s, f"criterion {num} exceeded its runtime budget"


def legendre_gamma(q, theta):
    """Exact re-encoder of the Legendre system: all-ones encoder times d."""
    return reencode.delay_reencoder(
        np.ones(q), reencode.legendre_decoder(q, theta, theta)
    )


def test_criterion_01_exact_matrix_reproduction():
    with criterion(1, 1.0, "closed-form matrices match the printed references"):
        ldn_a = np.array([
            [-1, -3, -5, -7, -9, -11],
            [1, -3, -5, -7, -9, -11],
            [-1, 3, -5, -7, -9, -11],
            [1, -3, 5, -7, -9, -11],
            [-1, 3, -5, 7, -9, -11],
            [1, -3, 5, -7, 9, -11],
        ], dtype=float)
        legendre_a = np.array([
            [0, 0, 0, 0, 0, 0],
            [2, 0, 0, 0, 0, 0],
            [0, 6, 0, 0, 0, 0],
            [2, 0, 10, 0, 0, 0],
            [0, 6, 0, 14, 0, 0],
            [2, 0, 10, 0, 18, 0],
        ], dtype=float)
        chebyshev_a = np.array([
            [0, 0, 0, 0, 0, 0],
            [2, 0, 0, 0, 0, 0],
            [0, 8, 0, 0, 0, 0],
            [6, 0, 12, 0, 0, 0],
            [0, 16, 0, 16, 0, 0],
            [10, 0, 20, 0, 20, 0],
        ], dtype=float)
        b6 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        gamma_rows = np.tile([1.0, 3.0, 5.0, 7.0, 9.0, 11.0], (6, 1))
        hilbert4 = np.array([
            [1.0, 1 / 2, 1 / 3, 1 / 4],
            [1 / 2, 1 / 3, 1 / 4, 1 / 5],
            [1 / 3, 1 / 4, 1 / 5, 1 / 6],
            [1 / 4, 1 / 5, 1 / 6, 1 / 7],
        ])

        assert np.array_equal(lti.mk_ldn(6, 1.0).a, ldn_a)
        assert np.array_equal(lti.mk_ldn(6, 1.0).b, b6)
        assert np.array_equal(lti.mk_legendre(6, 1.0).a, legendre_a)
        assert np.array_equal(lti.mk_legendre(6, 1.0).b, b6)
        assert np.array_equal(lti.mk_chebyshev(6, 1.0).a, chebyshev_a)
        assert np.array_equal(lti.mk_chebyshev(6, 1.0).b, b6)
        assert np.array_equal(legendre_gamma(6, 1.0).gamma, gamma_rows)
        assert np.array_equal(poly.hilbert(4, 1.0), hilbert4)


def test_criterion_02_dampening_identity_exact():
    with criterion(2, 1.0, "ldn feedback equals dampened generator, exactly"):
        for theta in (0.5, 1.0, 2.0):
            for q in range(1, 33):
                dampened = reencode.dampen(
                    lti.mk_legendre(q, theta), legendre_gamma(q, theta)
                )
                ldn = lti.mk_ldn(q, theta)
                assert np.array_equal(dampened.a, ldn.a)
                assert np.array_equal(dampened.b, ldn.b)


def test_criterion_03_impulse_traces_legendre():
    with criterion(3, 5.0, "generator impulse response traces the basis, 1e-8"):
        ts = np.arange(1001) * 1e-3
        for q in range(1, 11):
            traj = sim.impulse_response(lti.mk_legendre(q, 1.0), 1e-3, 1.0)
            ref = bases.shifted_legendre(q, 1.0).values(ts).T
            assert np.max(np.abs(traj.states - ref)) < 1e-8


def test_criterion_04_perfect_window_zeroes_after_theta():
    with criterion(4, 5.0, "perfect-window impulse response is zero past theta"):
        dt = 1e-3
        traj = sim.perfect_window_transform(
            bases.shifted_legendre(6, 1.0), sim.Signal(samples=dirac(dt, 2000), dt=dt)
        )
        post = traj.states[1002:]
        assert np.max(np.abs(post)) < 1e-6


def test_criterion_05_decoder_method_agreement():
    with criterion(5, 30.0, "four decoder constructions agree"):
        theta = 1.0
        for q in range(1, 9):
            basis = bases.shifted_legendre(q, theta)
            points = [0.0, theta / 4, theta / 2, theta]
            discrete = reencode.discrete_decoders(basis, 100_000, points)
            for k, tp in enumerate(points):
                closed = reencode.legendre_decoder(q, theta, tp).d
                direct = reencode.decoder_hilbert_direct(basis, tp).d
                dual = reencode.evaluated_decoder(basis, tp).d
                # the tight constructions agree absolutely
                assert np.max(np.abs(direct - closed)) < 1e-6
                assert np.max(np.abs(dual - closed)) < 1e-6
                assert np.max(np.abs(dual - direct)) < 1e-6
                # the sampled construction carries an O(1/N) bias that
                # scales with the entry magnitudes, so its agreement is
                # measured relative to the decoder scale
                scale = max(1.0, np.max(np.abs(closed)))
                assert np.max(np.abs(discrete[k].d - closed)) / scale < 1e-3


def test_criterion_06_decoder_defining_property():
    with criterion(6, 10.0, "decoded state reproduces delayed in-span inputs"):
        rng = np.random.default_rng(2026)
        q, theta = 6, 1.0
        basis = bases.shifted_legendre(q, theta)
        n = 4000
        tau = np.linspace(0.0, theta, n + 1)
        f_vals = basis.values(tau)
        f_rev = basis.values(theta - tau)
        # composite Simpson weights for the quadrature oracle
        weights = np.full(n + 1, 2.0)
        weights[1:-1:2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= theta / n / 3.0
        for _ in range(20):
            xi = rng.standard_normal(q)
            m_theta = f_vals @ (weights * (xi @ f_rev))
            for tp in (0.0, 0.2, 0.45, 0.8, 1.0):
                want = float(xi @ basis.values(theta - tp)[:, 0])
                got = float(reencode.legendre_decoder(q, theta, tp).d @ m_theta)
                assert abs(got - want) < 1e-5


def test_criterion_07_generic_solver_equivalence():
    with criterion(7, 5.0, "generic basis solver matches both closed forms"):
        for q in range(1, 11):
            got = lti.mk_poly_basis_lti(bases.shifted_legendre(q, 1.0))
            want = lti.mk_legendre(q, 1.0)
            assert np.max(np.abs(got.a - want.a)) < 1e-9
            assert np.max(np.abs(got.b - want.b)) < 1e-9
            got = lti.mk_poly_basis_lti(bases.shifted_chebyshev(q, 1.0))
            want = lti.mk_chebyshev(q, 1.0)
            assert np.max(np.abs(got.a - want.a)) < 1e-8
            assert np.max(np.abs(got.b - want.b)) < 1e-8


def test_criterion_08_decoded_impulse_concentrates():
    with criterion(8, 60.0, "decoded impulse sharpens toward a delayed pulse"):
        dt = 1e-3
        grid = np.linspace(0.0, 1.0, 1001)
        away = np.abs(grid - 1.0) > 0.2
        for kind in ("perfect-window", "ldn"):
            peaks, masses = [], []
            for q in (4, 8, 16):
                if kind == "ldn":
                    m_theta = sim.impulse_response(
                        lti.mk_ldn(q, 1.0), dt, 1.0
                    ).states[-1]
                else:
                    traj = sim.perfect_window_transform(
                        bases.shifted_legendre(q, 1.0),
                        sim.Signal(samples=dirac(dt, 1001), dt=dt),
                    )
                    m_theta = traj.states[1000]
                decoders = [reencode.legendre_decoder(q, 1.0, tp) for tp in grid]
                decoded = sim.decode_window(m_theta, decoders)
                peak = decoded[-1]
                # concentration is relative: a pulse-like family keeps its
                # integral while the peak grows, so away-mass over peak
                # must fall even though the raw oscillating mass grows
                mass = np.trapezoid(np.abs(decoded[away]), grid[away]) / peak
                peaks.append(peak)
                masses.append(mass)
            assert peaks[0] < peaks[1] < peaks[2], kind
            assert masses[0] > masses[1] > masses[2], kind


def test_criterion_09_stability_regression():
    with criterion(9, 10.0, "dampened systems stay asymptotically stable"):
        for q in range(1, 13):
            dampened = reencode.dampen(
                lti.mk_legendre(q, 1.0), legendre_gamma(q, 1.0)
            )
            assert np.all(np.linalg.eigvals(dampened.a).real < 0.0)

            cheb = lti.mk_chebyshev(q, 1.0)
            cheb_basis = bases.shifted_chebyshev(q, 1.0)
            d = reencode.decoder_bank(cheb_basis, [1.0], reencode.METHOD_DISCRETE,
                                      100_000)[0]
            dampened = reencode.dampen(
                cheb, reencode.delay_reencoder(reencode.encoder(cheb), d)
            )
            assert np.all(np.linalg.eigvals(dampened.a).real < 0.0)

        # with the exact encoder e = p(theta), the dampened system of any
        # basis is similar to the LDN, for the exact and the sampled
        # window-end decoder alike
        for seed in range(20):
            for q in range(1, 17):
                basis = bases.random_basis(q, 1.0, seed=seed)
                system = lti.mk_poly_basis_lti(basis)
                e = reencode.encoder(system)
                for method in (reencode.METHOD_HILBERT, reencode.METHOD_DISCRETE):
                    d = reencode.decoder_bank(basis, [1.0], method)[0]
                    dampened = reencode.dampen(system, reencode.delay_reencoder(e, d))
                    assert np.all(np.linalg.eigvals(dampened.a).real < 0.0), (seed, q, method)


def test_criterion_10_chebyshev_decoder_crosscheck(capsys):
    with criterion(10, 60.0, "chebyshev window-end decoder cross-check"):
        basis = bases.shifted_chebyshev(6, 1.0)
        discrete = reencode.decoder_bank(basis, [1.0], reencode.METHOD_DISCRETE,
                                         1_000_000)[0]
        direct = reencode.decoder_hilbert_direct(basis, 1.0)
        with capsys.disabled():
            print("\nchebyshev q=6 window-end decoder, sampled vs reference list:")
            print(reencode.match_report(discrete.d))
            q7 = reencode.decoder_hilbert_direct(bases.shifted_chebyshev(7, 1.0), 1.0)
            print("same reference list against the q=7 decoder:")
            print(reencode.match_report(q7.d))
        # the acceptance bar is internal method agreement, not the
        # reference list (which carries one entry too many for q = 6)
        assert np.max(np.abs(discrete.d - direct.d)) < 5e-3


def test_criterion_11_cli_determinism_and_goldens(tmp_path):
    with criterion(11, 10.0, "CLI runs are byte-identical and match goldens"):
        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "ldnkit.cli", *args],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        # small inputs shared by both determinism runs
        sig = tmp_path / "sig.csv"
        with open(sig, "w", newline="\n") as f:
            f.write("t,u\n")
            for k in range(100):
                f.write(f"{k * 1e-3!r},{1000.0 if k == 0 else 0.0!r}\n")
        outputs = {"a": {}, "b": {}}
        for tag, out in outputs.items():
            base = tmp_path / tag
            base.mkdir()
            leg = base / "leg.json"
            cli("gen", "--kind", "legendre", "--q", "6", "--theta", "1",
                "-o", str(leg))
            imp = base / "imp.csv"
            cli("impulse", str(leg), "--dt", "0.001", "--t-max", "0.1",
                "-o", str(imp))
            traj = base / "traj.csv"
            cli("slide", str(leg), "--signal", str(sig), "-o", str(traj))
            dec = base / "dec.csv"
            cli("decode", str(leg), "--trajectory", str(traj),
                "--theta-prime-grid", "3", "-o", str(dec))
            ree = base / "ree.json"
            cli("reencode", str(leg), "-o", str(ree))
            svg = base / "imp.svg"
            cli("plot", str(imp), "-o", str(svg))
            for path in (leg, imp, traj, dec, ree, svg):
                out[path.name] = path.read_bytes()
        assert outputs["a"] == outputs["b"]

        # golden impulse-response pipelines for the q = 6 generator and ldn
        for kind, t_max, name in (
            ("legendre", "1.0", "impulse_legendre_q6"),
            ("ldn", "2.0", "impulse_ldn_q6"),
        ):
            doc = tmp_path / f"{name}.json"
            cli("gen", "--kind", kind, "--q", "6", "--theta", "1", "-o", str(doc))
            csv = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            cli("impulse", str(doc), "--dt", "0.001", "--t-max", t_max,
                "-o", str(csv))
            cli("plot", str(csv), "-o", str(svg))
            assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
            assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()
