import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import exact_decoders, perfect_window_direct_sum, polyval_exact, window_taps

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "ldnkit.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def write_impulse_signal(path, n=2000, dt=1e-3):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("t,u\n")
        for k in range(n):
            f.write(f"{k * dt!r},{1.0 / dt if k == 0 else 0.0!r}\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Pre-generated documents shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    for kind, name in (("ldn", "ldn.json"), ("legendre", "leg.json"),
                       ("chebyshev", "cheb.json")):
        result = run_cli("gen", "--kind", kind, "--q", "6", "--theta", "1",
                         "-o", str(root / name))
        assert result.returncode == 0, result.stderr
    write_impulse_signal(root / "impulse.csv")
    noise = np.random.default_rng(0).standard_normal(3000).tolist()
    with open(root / "noise.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("t,u\n" + "".join(f"{k * 1e-3!r},{x!r}\n" for k, x in enumerate(noise)))
    return root


class TestGen:
    def test_ldn_document_matrix(self, workdir):
        doc = json.loads((workdir / "ldn.json").read_text())
        assert doc["kind"] == "ldn" and doc["q"] == 6
        assert doc["a"][0] == [-1, -3, -5, -7, -9, -11]
        assert doc["b"] == [1, -1, 1, -1, 1, -1]

    def test_legendre_q1(self, tmp_path):
        out = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "legendre", "--q", "1", "--theta", "1",
                         "-o", str(out))
        assert result.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["a"] == [[0]] and doc["b"] == [1]

    def test_custom_basis(self, tmp_path):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(
            '{"theta": 1.0, "polys": [[1.0], [-1.0, 2.0]]}', encoding="utf-8"
        )
        out = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "--q", "2", "-o", str(out))
        assert result.returncode == 0, result.stderr
        doc = json.loads(out.read_text())
        assert doc["kind"] == "custom"
        assert doc["metadata"]["basis"]["polys"] == [[1.0], [-1.0, 2.0]]
        assert np.allclose(doc["a"], [[0.0, 0.0], [2.0, 0.0]], atol=1e-12)

    def test_custom_without_basis_exits_2(self, tmp_path):
        result = run_cli("gen", "--kind", "custom", "--q", "2")
        assert result.returncode == 2

    def test_custom_needs_no_q(self, tmp_path):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(
            '{"theta": 1.0, "polys": [[1.0], [-1.0, 2.0]]}', encoding="utf-8"
        )
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file))
        assert result.returncode == 0
        assert json.loads(result.stdout)["q"] == 2

    def test_named_kind_needs_q(self):
        result = run_cli("gen", "--kind", "ldn")
        assert result.returncode == 2

    def test_custom_from_generated_random_basis(self, tmp_path):
        from ldnkit import bases, formats

        basis_file = tmp_path / "random-seed-7.json"
        basis_file.write_text(
            formats.basis_to_text(bases.random_basis(6, 1.0, seed=7)),
            encoding="utf-8",
        )
        out = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "-o", str(out))
        assert result.returncode == 0, result.stderr
        doc = json.loads(out.read_text())
        parsed = formats.parse_basis_file(
            json.dumps(doc["metadata"]["basis"])
        )
        assert bases.validate(parsed).ok

    def test_unknown_kind_exits_2(self):
        result = run_cli("gen", "--kind", "fourier", "--q", "2")
        assert result.returncode == 2

    @pytest.mark.parametrize("theta", ["nan", "inf", "0", "-1"])
    def test_bad_theta_exits_2(self, theta):
        result = run_cli("gen", "--kind", "ldn", "--q", "2", "--theta", theta)
        assert result.returncode == 2
        assert "theta must be finite and positive" in result.stderr
        assert result.stdout == ""

    def test_stdout_output(self):
        result = run_cli("gen", "--kind", "ldn", "--q", "2", "--theta", "1")
        assert result.returncode == 0
        assert json.loads(result.stdout)["q"] == 2


class TestBasisFiles:
    @pytest.mark.parametrize("cmd", ["gen", "reencode"])
    def test_scaled_legendre_exits_0(self, tmp_path, cmd):
        # validity is independence alone, judged by cond_1(M), so the size of
        # the coefficients does not matter, out to where a Gram matrix of
        # them would underflow or overflow
        basis_file = tmp_path / "basis.json"
        for scale in (1e-10, 1e-154, 1e160):
            basis_file.write_text(
                json.dumps({"theta": 1, "polys": [[scale], [-scale, 2 * scale]]}),
                encoding="utf-8")
            args = (["gen", "--kind", "custom", "--basis", str(basis_file)] if cmd == "gen"
                    else ["reencode", str(basis_file)])
            result = run_cli(*args)
            assert result.returncode == 0, (scale, result.stderr)

    def test_monomials_q12_exit_0(self, tmp_path):
        # cond_1(M) = 5.5e7 is far inside the one limit, 1/eps
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps({"theta": 1.0, "polys": np.eye(12).tolist()}),
                              encoding="utf-8")
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file))
        assert result.returncode == 0, result.stderr
        condition = json.loads(result.stdout)["metadata"]["solver_condition"]
        assert condition == pytest.approx(5.533e7, rel=1e-3)

    def test_trailing_zeros_give_the_same_document(self, tmp_path):
        docs = []
        for polys in ("[[1.0, 0.0, 0.0], [0.0, 1.0]]", "[[1.0], [0.0, 1.0]]"):
            basis_file = tmp_path / "basis.json"
            basis_file.write_text('{"theta": 1.0, "polys": %s}' % polys, encoding="utf-8")
            result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file))
            assert result.returncode == 0, result.stderr
            docs.append(result.stdout)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("cmd", ["gen", "reencode"])
    def test_degree_above_q_exits_2(self, tmp_path, cmd):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text('{"theta": 1.0, "polys": [[0.0, 1.0], [0.0, 0.0, 1.0]]}',
                              encoding="utf-8")
        args = (["gen", "--kind", "custom", "--basis", str(basis_file)] if cmd == "gen"
                else ["reencode", str(basis_file)])
        result = run_cli(*args, "-o", str(tmp_path / "out.json"))
        assert result.returncode == 2
        assert "exceeds degree bound 1" in result.stderr

    @pytest.mark.parametrize("cmd", [
        ("impulse", "--t-max", "1"),
        ("slide", "--signal", "impulse.csv", "--perfect-window"),
        ("decode", "--trajectory", "traj.csv", "--method", "hilbert-direct"),
    ])
    def test_document_basis_above_degree_bound_exits_2(self, workdir, tmp_path, cmd):
        # a hand-edited custom document whose embedded basis no q = 2
        # system generates
        basis_file = tmp_path / "basis.json"
        basis_file.write_text('{"theta": 1.0, "polys": [[1.0], [-1.0, 2.0]]}',
                              encoding="utf-8")
        gen = run_cli("gen", "--kind", "custom", "--basis", str(basis_file))
        assert gen.returncode == 0, gen.stderr
        doc = json.loads(gen.stdout)
        doc["metadata"]["basis"]["polys"] = [[0.0, 1.0], [0.0, 0.0, 1.0]]
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "traj.csv").write_text("t,m_0,m_1\n0.0,0.0,0.0\n0.001,0.0,0.0\n",
                                          encoding="utf-8")
        files = {"impulse.csv": workdir / "impulse.csv", "traj.csv": tmp_path / "traj.csv"}
        args = [str(files.get(a, a)) for a in cmd[1:]]
        out = tmp_path / "out.csv"
        result = run_cli(cmd[0], str(sys_file), *args, "-o", str(out))
        assert result.returncode == 2, result.stderr
        assert "exceeds degree bound 1" in result.stderr
        assert not out.exists()


class TestImpulse:
    def test_csv_shape_and_header(self, workdir, tmp_path):
        out = tmp_path / "imp.csv"
        result = run_cli("impulse", str(workdir / "leg.json"), "--dt", "0.01",
                         "--t-max", "0.1", "-o", str(out))
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,m_0,m_1,m_2,m_3,m_4,m_5"
        assert len(lines) == 12
        first = [float(c) for c in lines[1].split(",")]
        assert first == [0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]

    def test_default_dt_is_theta_over_1000(self, workdir, tmp_path):
        out = tmp_path / "imp.csv"
        result = run_cli("impulse", str(workdir / "leg.json"), "--t-max", "0.01",
                         "-o", str(out))
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[2].split(",")[0] == "0.001"
        assert len(lines) == 12

    def test_unreadable_system_exits_2(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{broken", encoding="utf-8")
        result = run_cli("impulse", str(junk), "--dt", "0.01", "--t-max", "0.1",
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 2

    def test_infinite_t_max_exits_2(self, workdir, tmp_path):
        result = run_cli("impulse", str(workdir / "ldn.json"), "--t-max", "inf",
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "t_max must be finite" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("q", [16, 32])
    @pytest.mark.parametrize("kind", ["legendre", "chebyshev"])
    def test_undampened_kind_is_its_basis(self, tmp_path, kind, q):
        # oracle: numpy.polynomial's series at x = 2t/theta - 1, every value
        # in [-1, 1]; stepping exp(A) instead errs by 2e-5 at q = 16 and by
        # 7e6 at q = 32
        sys_file = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", kind, "--q", str(q), "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "imp.csv"
        result = run_cli("impulse", str(sys_file), "--t-max", "1", "-o", str(out))
        assert result.returncode == 0, result.stderr
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (1001, q + 1)
        series = (np.polynomial.legendre.legval if kind == "legendre"
                  else np.polynomial.chebyshev.chebval)
        ref = series(2.0 * rows[:, 0] - 1.0, np.eye(q)).T
        assert np.max(np.abs(rows[:, 1:] - ref)) < 1e-12

    def test_custom_document_is_its_basis(self, tmp_path):
        from ldnkit import bases

        polys = [p.tolist() for p in bases.random_basis(6, 1.0, seed=0).polys]
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps({"theta": 1.0, "polys": polys}), encoding="utf-8")
        sys_file = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "imp.csv"
        result = run_cli("impulse", str(sys_file), "--t-max", "1", "-o", str(out))
        assert result.returncode == 0, result.stderr
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        ref = np.array([[polyval_exact(p, t) for p in polys] for t in rows[:, 0]])
        assert np.max(np.abs(rows[:, 1:] - ref)) < 1e-12

    def test_custom_document_without_basis_exits_2(self, tmp_path):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text('{"theta": 1.0, "polys": [[1.0], [-1.0, 2.0]]}',
                              encoding="utf-8")
        gen = run_cli("gen", "--kind", "custom", "--basis", str(basis_file))
        assert gen.returncode == 0, gen.stderr
        doc = json.loads(gen.stdout)
        del doc["metadata"]["basis"]
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("impulse", str(sys_file), "--t-max", "1",
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "lacks basis coefficients" in result.stderr

    def test_overflowing_basis_values_exit_2(self, tmp_path):
        sys_file = tmp_path / "leg32.json"
        result = run_cli("gen", "--kind", "legendre", "--q", "32", "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "x.csv"
        result = run_cli("impulse", str(sys_file), "--dt", "1e9", "--t-max", "1e10",
                         "-o", str(out))
        assert result.returncode == 2, result.stderr
        assert "non-finite" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_overflowing_sample_period_exits_4(self, workdir, tmp_path):
        # (dt / theta) A overflows before the ldn's propagator can be formed
        out = tmp_path / "x.csv"
        result = run_cli("impulse", str(workdir / "ldn.json"), "--dt", "1e308",
                         "--t-max", "1e308", "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert "sample period" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_unallocatable_trajectory_exits_2(self, workdir, tmp_path):
        # 1e13 steps exceed the address space, so the allocation fails at once
        result = run_cli("impulse", str(workdir / "ldn.json"), "--dt", "1e-13",
                         "--t-max", "1", "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr


class TestSlide:
    def test_zero_signal_zero_trajectory(self, workdir, tmp_path):
        sig = tmp_path / "zero.csv"
        with open(sig, "w", newline="\n") as f:
            f.write("t,u\n")
            for k in range(100):
                f.write(f"{k * 0.001!r},0.0\n")
        out = tmp_path / "traj.csv"
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(out))
        assert result.returncode == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:], np.zeros((101, 6)))

    def test_perfect_window_kills_post_window_state(self, workdir, tmp_path):
        out = tmp_path / "pw.csv"
        result = run_cli("slide", str(workdir / "leg.json"),
                         "--signal", str(workdir / "impulse.csv"),
                         "--perfect-window", "-o", str(out))
        assert result.returncode == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        post = rows[rows[:, 0] >= 1.0 + 2e-3, 1:]
        assert np.max(np.abs(post)) < 1e-6

    def test_perfect_window_of_ldn_is_the_legendre_window(self, workdir, tmp_path):
        # both kinds hold the shifted Legendre basis, whose window is cut at theta
        outs = []
        for name in ("ldn.json", "leg.json"):
            out = tmp_path / f"pw_{name}.csv"
            result = run_cli("slide", str(workdir / name), "--signal",
                             str(workdir / "noise.csv"), "--perfect-window", "-o", str(out))
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("kind", ["chebyshev", "custom"])
    def test_perfect_window_matches_direct_sum(self, workdir, tmp_path, kind):
        if kind == "chebyshev":
            system = workdir / "cheb.json"

            def values(x):
                return np.cos(np.arange(6).reshape(-1, 1, 1) * np.arccos(2.0 * x - 1.0))
        else:
            from ldnkit import bases

            polys = [p.tolist() for p in bases.random_basis(6, 1.0, seed=0).polys]
            basis_file = tmp_path / "basis.json"
            basis_file.write_text(json.dumps({"theta": 1.0, "polys": polys}),
                                  encoding="utf-8")
            system = tmp_path / "sys.json"
            result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                             "-o", str(system))
            assert result.returncode == 0, result.stderr

            def values(x):
                return np.array([np.polynomial.polynomial.polyval(x, p) for p in polys])
        out = tmp_path / "pw.csv"
        result = run_cli("slide", str(system), "--signal", str(workdir / "noise.csv"),
                         "--perfect-window", "-o", str(out))
        assert result.returncode == 0, result.stderr
        states = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        u = np.loadtxt(workdir / "noise.csv", delimiter=",", skiprows=1)[:, 1]
        ref = perfect_window_direct_sum(window_taps(values, 6, 1.0, 1e-3), u)
        assert np.max(np.abs(states - ref)) < 1e-12

    def test_non_uniform_signal_exits_4(self, workdir, tmp_path):
        sig = tmp_path / "bad.csv"
        sig.write_text("t,u\n0.0,1.0\n0.1,0.0\n0.3,0.0\n", encoding="utf-8")
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4

    def test_nan_time_exits_4(self, workdir, tmp_path):
        sig = tmp_path / "nan.csv"
        sig.write_text("t,u\n0.0,1.0\nnan,0.0\n0.002,0.0\n", encoding="utf-8")
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4, result.stderr

    def test_inf_time_exits_4(self, workdir, tmp_path):
        sig = tmp_path / "inf.csv"
        sig.write_text("t,u\n0.0,1.0\n0.001,0.0\ninf,0.0\n", encoding="utf-8")
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4, result.stderr
        assert "spacing" in result.stderr
        assert "Warning" not in result.stderr

    def test_overflowing_spacing_exits_4(self, workdir, tmp_path):
        # finite times whose mean spacing overflows
        sig = tmp_path / "huge.csv"
        sig.write_text("t,u\n-1.7e308,1.0\n0.0,0.0\n1.7e308,0.0\n", encoding="utf-8")
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4, result.stderr
        assert "spacing" in result.stderr
        assert "Warning" not in result.stderr

    @pytest.mark.parametrize("system, period", [("ldn.json", "1e308"), ("leg.json", "1e300")])
    def test_overflowing_sample_period_exits_4(self, workdir, tmp_path, system, period):
        # a finite period so long that (dt / theta) A overflows (ldn), or its
        # exponential does (legendre)
        sig = tmp_path / "long.csv"
        sig.write_text(f"t,u\n0.0,1.0\n{period},0.0\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        result = run_cli("slide", str(workdir / system), "--signal", str(sig),
                         "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert "sample period" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_incompatible_step_exits_4(self, workdir, tmp_path):
        sig = tmp_path / "odd.csv"
        with open(sig, "w", newline="\n") as f:
            f.write("t,u\n")
            for k in range(10):
                f.write(f"{k * 0.0003!r},0.0\n")
        result = run_cli("slide", str(workdir / "leg.json"), "--signal", str(sig),
                         "--perfect-window", "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4


class TestDecode:
    def test_zero_trajectory_decodes_to_zero(self, workdir, tmp_path):
        traj = tmp_path / "traj.csv"
        with open(traj, "w", newline="\n") as f:
            f.write("t," + ",".join(f"m_{n}" for n in range(6)) + "\n")
            for k in range(5):
                f.write(f"{k * 0.001!r}" + ",0.0" * 6 + "\n")
        out = tmp_path / "dec.csv"
        result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory",
                         str(traj), "--theta-prime-grid", "3", "-o", str(out))
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u@0.0,u@0.5,u@1.0"
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 1:], np.zeros((5, 3)))

    def test_methods_agree_on_trajectory(self, workdir, tmp_path):
        traj = tmp_path / "traj.csv"
        result = run_cli("slide", str(workdir / "ldn.json"),
                         "--signal", str(workdir / "impulse.csv"), "-o", str(traj))
        assert result.returncode == 0
        outs = {}
        for method in ("closed-form-legendre", "hilbert-direct", "basis-inverse"):
            out = tmp_path / f"{method}.csv"
            result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory",
                             str(traj), "--theta-prime-grid", "3",
                             "--method", method, "-o", str(out))
            assert result.returncode == 0, result.stderr
            outs[method] = np.loadtxt(out, delimiter=",", skiprows=1)
        base = outs["closed-form-legendre"]
        for method in ("hilbert-direct", "basis-inverse"):
            assert np.max(np.abs(outs[method] - base)) < 1e-5

    @pytest.mark.parametrize("method", ["hilbert-direct", "basis-inverse", "discrete-pinv"])
    def test_decoder_bank_matches_per_delay(self, workdir, tmp_path, method):
        from ldnkit import bases, reencode

        traj = tmp_path / "traj.csv"
        result = run_cli("slide", str(workdir / "cheb.json"),
                         "--signal", str(workdir / "impulse.csv"), "-o", str(traj))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "dec.csv"
        result = run_cli("decode", str(workdir / "cheb.json"), "--trajectory", str(traj),
                         "--method", method, "--theta-prime-grid", "101",
                         "--n-samples", "2000", "-o", str(out))
        assert result.returncode == 0, result.stderr
        basis = bases.shifted_chebyshev(6, 1.0)
        single = {
            "hilbert-direct": lambda tp: reencode.decoder_hilbert_direct(basis, tp),
            "basis-inverse": lambda tp: reencode.evaluated_decoder(basis, tp),
            "discrete-pinv": lambda tp: reencode.decoder_bank(
                basis, [tp], reencode.METHOD_DISCRETE, 2000)[0],
        }[method]
        decoders = np.array([single(i / 100).d for i in range(101)])
        states = np.loadtxt(traj, delimiter=",", skiprows=1)[:, 1:]
        want = states @ decoders.T
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert got.shape == want.shape
        # discrete-pinv solves its Gram for every delay at once, which rounds
        # differently from one solve per delay; q = 6 Chebyshev has condition ~11
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_nan_time_exits_4(self, workdir, tmp_path):
        traj = tmp_path / "nan.csv"
        traj.write_text(
            "t," + ",".join(f"m_{n}" for n in range(6)) + "\n"
            + "".join(t + ",0.0" * 6 + "\n" for t in ("0.0", "nan", "0.002")),
            encoding="utf-8",
        )
        out = tmp_path / "x.csv"
        result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory", str(traj),
                         "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert not out.exists()

    def test_inf_time_exits_4(self, workdir, tmp_path):
        traj = tmp_path / "inf.csv"
        traj.write_text(
            "t," + ",".join(f"m_{n}" for n in range(6)) + "\n"
            + "".join(t + ",0.0" * 6 + "\n" for t in ("0.0", "0.001", "inf")),
            encoding="utf-8",
        )
        out = tmp_path / "x.csv"
        result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory", str(traj),
                         "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert "spacing" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_overflowing_spacing_exits_4(self, workdir, tmp_path):
        # finite times whose mean spacing overflows
        traj = tmp_path / "huge.csv"
        traj.write_text(
            "t," + ",".join(f"m_{n}" for n in range(6)) + "\n"
            + "".join(t + ",0.0" * 6 + "\n" for t in ("-1.7e308", "0.0", "1.7e308")),
            encoding="utf-8",
        )
        out = tmp_path / "x.csv"
        result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory", str(traj),
                         "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert "spacing" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_wrong_q_trajectory_exits_2(self, workdir, tmp_path):
        traj = tmp_path / "traj.csv"
        traj.write_text("t,m_0\n0.0,0.0\n0.001,0.0\n", encoding="utf-8")
        result = run_cli("decode", str(workdir / "ldn.json"), "--trajectory",
                         str(traj), "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 2


class TestReencode:
    def test_legendre_identity_block(self, workdir, tmp_path):
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(workdir / "leg.json"), "-o", str(out))
        assert result.returncode == 0
        block = json.loads(out.read_text())
        assert block["e"] == [1, 1, 1, 1, 1, 1]
        assert block["d"] == [1, 3, 5, 7, 9, 11]
        assert all(row == [1, 3, 5, 7, 9, 11] for row in block["gamma"])
        assert block["metadata"]["ldn_identity_max_abs_error"] == 0
        ldn = json.loads((workdir / "ldn.json").read_text())
        assert block["a_dampened"] == ldn["a"]

    def test_chebyshev_discrete_reference_report(self, workdir, tmp_path):
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(workdir / "cheb.json"),
                         "--method", "discrete-pinv", "--n-samples", "200000",
                         "-o", str(out))
        assert result.returncode == 0, result.stderr
        block = json.loads(out.read_text())
        report = "\n".join(block["metadata"]["reference_match"])
        assert "3 of 6 overlapping entries match: [2, 4, 6]" in report

    def test_discrete_bytes_independent_of_blas_threads(self, workdir, tmp_path):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"re{threads}.json"
            result = subprocess.run(
                [sys.executable, "-m", "ldnkit.cli", "reencode", str(workdir / "cheb.json"),
                 "--method", "discrete-pinv", "--n-samples", "1000000", "-o", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n_samples", [str(2**53 + 1), str(10**400)])
    def test_inexact_sample_index_exits_2(self, workdir, tmp_path, n_samples):
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(workdir / "cheb.json"),
                         "--method", "discrete-pinv", "--n-samples", n_samples,
                         "-o", str(out))
        assert result.returncode == 2
        assert "2^53" in result.stderr
        assert "Traceback" not in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    def test_q1_rank_one(self, tmp_path):
        sys_file = tmp_path / "sys.json"
        run_cli("gen", "--kind", "legendre", "--q", "1", "--theta", "2",
                "-o", str(sys_file))
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(sys_file), "-o", str(out))
        assert result.returncode == 0
        block = json.loads(out.read_text())
        assert block["gamma"] == [[0.5]]

    def test_accepts_bare_basis_file(self, tmp_path):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(
            '{"theta": 1.0, "polys": [[1.0], [-1.0, 2.0]]}', encoding="utf-8"
        )
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(basis_file), "-o", str(out))
        assert result.returncode == 0, result.stderr
        block = json.loads(out.read_text())
        assert block["kind"] == "custom" and block["q"] == 2

    def test_closed_form_rejects_chebyshev(self, workdir, tmp_path):
        # the same rule as decode: the closed form exists only for Legendre
        result = run_cli("reencode", str(workdir / "cheb.json"), "--method",
                         "closed-form-legendre", "-o", str(tmp_path / "re.json"))
        assert result.returncode == 2
        assert "closed-form-legendre only applies" in result.stderr

    @pytest.mark.parametrize("text, reason", [
        (None, "not a valid system document"),
        ('{"format_version": 1, "kind": "ldn", "q": 2}', "malformed system document"),
    ])
    def test_malformed_document_reports_document_error(self, tmp_path, text, reason):
        if text is None:
            # a q = 6 document cut short
            gen = run_cli("gen", "--kind", "ldn", "--q", "6")
            assert gen.returncode == 0
            text = gen.stdout[:120]
        sys_file = tmp_path / "bad.json"
        sys_file.write_text(text, encoding="utf-8")
        result = run_cli("reencode", str(sys_file), "-o", str(tmp_path / "re.json"))
        assert result.returncode == 2
        assert reason in result.stderr
        assert "basis file" not in result.stderr

    @pytest.mark.parametrize("cmd", [
        ("reencode",),
        ("impulse", "--dt", "0.01", "--t-max", "0.1"),
    ])
    def test_zero_theta_document_exits_2(self, tmp_path, cmd):
        sys_file = tmp_path / "sys.json"
        sys_file.write_text(
            '{"format_version": 1, "kind": "ldn", "q": 1, "theta": 0,'
            ' "a": [[-1]], "b": [1]}', encoding="utf-8",
        )
        result = run_cli(cmd[0], str(sys_file), *cmd[1:], "-o", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "theta must be finite and positive" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("theta", ["Infinity", "NaN"])
    @pytest.mark.parametrize("cmd", ["gen", "reencode"])
    def test_non_finite_basis_theta_exits_2(self, tmp_path, cmd, theta):
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(
            '{"theta": %s, "polys": [[1.0], [-1.0, 2.0]]}' % theta, encoding="utf-8"
        )
        args = (["gen", "--kind", "custom", "--basis", str(basis_file)] if cmd == "gen"
                else ["reencode", str(basis_file)])
        result = run_cli(*args, "-o", str(tmp_path / "out.json"))
        assert result.returncode == 2
        assert "theta must be finite and positive" in result.stderr
        assert "RuntimeWarning" not in result.stderr

    def test_monomials_q11_exits_0(self, tmp_path):
        # plain monomials at q = 11: the monomial Gram matrix has condition
        # 1e15, their Legendre mixture 1.0e7, so the decoder is exact
        basis_file = tmp_path / "monomials.json"
        polys = [[0.0] * k + [1.0] for k in range(11)]
        basis_file.write_text(json.dumps({"theta": 1.0, "polys": polys}),
                              encoding="utf-8")
        sys_file = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "--q", "11", "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(sys_file), "--method", "hilbert-direct",
                         "-o", str(out))
        assert result.returncode == 0, result.stderr
        block = json.loads(out.read_text())
        ref = exact_decoders(np.eye(11), 1.0, [1.0])[0]
        assert np.max(np.abs(np.array(block["d"]) - ref)) <= 1e-12 * np.max(np.abs(ref))
        # e = p(theta) = 1, up to the rounding of the monomials' conversion
        assert np.max(np.abs(np.array(block["e"]) - 1.0)) <= 1e-12
        assert 1e6 < block["metadata"]["decoder_condition"] < 1e8

    @pytest.mark.parametrize("method", ["hilbert-direct", "basis-inverse"])
    @pytest.mark.parametrize("q", [12, 16])
    def test_exact_methods_keep_ldn_identity(self, tmp_path, q, method):
        sys_file = tmp_path / "leg.json"
        result = run_cli("gen", "--kind", "legendre", "--q", str(q), "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(sys_file), "--method", method, "-o", str(out))
        assert result.returncode == 0, result.stderr
        block = json.loads(out.read_text())
        assert block["metadata"]["ldn_identity_max_abs_error"] == 0
        assert block["metadata"]["decoder_condition"] == 1

    @pytest.mark.parametrize("method", ["hilbert-direct", "basis-inverse"])
    @pytest.mark.parametrize("q", [6, 12, 16])
    def test_dampened_custom_is_similar_to_ldn(self, tmp_path, q, method):
        # a basis p = M l dampens to M A_ldn M^-1; an expm encoder in place
        # of p(theta) leaves the q = 16 system unstable
        from ldnkit import bases

        basis = bases.random_basis(q, 1.0, seed=q)
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(json.dumps(
            {"theta": 1.0, "polys": [p.tolist() for p in basis.polys]}), encoding="utf-8")
        sys_file = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        out = tmp_path / "re.json"
        result = run_cli("reencode", str(sys_file), "--method", method, "-o", str(out))
        assert result.returncode == 0, result.stderr
        a_damp = np.array(json.loads(out.read_text())["a_dampened"])
        # the mixture the program converts the file's coefficients into
        m = bases.make_basis(basis.polys, 1.0).mixture
        i = np.arange(1, q + 1)[:, None]
        j = np.arange(1, q + 1)[None, :]
        a_ldn = (2 * j - 1) * np.where((i > j) & ((i + j) % 2 == 1), 1.0, -1.0)
        eps = np.finfo(float).eps
        bound = q * np.linalg.cond(m, 1) * eps * np.linalg.norm(a_ldn, 1)
        assert np.max(np.abs(np.linalg.solve(m, a_damp @ m) - a_ldn)) <= bound
        assert np.max(np.linalg.eigvals(a_damp).real) < 0


class TestPlot:
    def test_svg_output(self, workdir, tmp_path):
        csv = tmp_path / "imp.csv"
        run_cli("impulse", str(workdir / "leg.json"), "--dt", "0.01",
                "--t-max", "1.0", "-o", str(csv))
        out = tmp_path / "imp.svg"
        result = run_cli("plot", str(csv), "-o", str(out))
        assert result.returncode == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.count("<polyline") == 6

    def test_single_constant_column(self, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text("t,c\n0.0,2.0\n1.0,2.0\n", encoding="utf-8")
        out = tmp_path / "flat.svg"
        result = run_cli("plot", str(csv), "-o", str(out))
        assert result.returncode == 0
        assert out.read_text().count("<polyline") == 1

    def test_empty_rows_exit_2(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("t,u\n", encoding="utf-8")
        result = run_cli("plot", str(csv), "-o", str(tmp_path / "x.svg"))
        assert result.returncode == 2

    def test_label_is_escaped(self, tmp_path):
        csv = tmp_path / "odd.csv"
        csv.write_text("t,a<b&c,x>y,m_0\n0.0,1.0,2.0,0.0\n1.0,3.0,-1.0,0.5\n",
                       encoding="utf-8")
        out = tmp_path / "odd.svg"
        assert run_cli("plot", str(csv), "-o", str(out)).returncode == 0
        root = ET.parse(out).getroot()
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels[:3] == ["a<b&c", "x>y", "m_0"]
        assert ">a&lt;b&amp;c</text>" in out.read_text()

    @pytest.mark.parametrize("cell", ["1,inf", "1,-inf", "1,nan", "inf,2"])
    def test_non_finite_cell_exits_4(self, tmp_path, cell):
        csv = tmp_path / "odd.csv"
        csv.write_text(f"t,u\n0,1\n{cell}\n2,3\n", encoding="utf-8")
        out = tmp_path / "odd.svg"
        result = run_cli("plot", str(csv), "-o", str(out))
        assert result.returncode == 4, result.stderr
        assert str(csv) in result.stderr and "not finite" in result.stderr
        assert "Warning" not in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rows, axis", [("1e300,1\n1e300,2", "0.0"),
                                            ("0,1e17\n1,1e17", "1e+17")],
                             ids=["constant-x", "constant-y"])
    def test_huge_constant_column_spans_from_zero(self, tmp_path, rows, axis):
        # 1e300 + 1 == 1e300: the axis runs from 0 to the constant instead
        csv = tmp_path / "flat.csv"
        csv.write_text(f"t,u\n{rows}\n", encoding="utf-8")
        out = tmp_path / "flat.svg"
        result = run_cli("plot", str(csv), "-o", str(out))
        assert result.returncode == 0, result.stderr
        assert "Warning" not in result.stderr
        labels = [t.text for t in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert axis in labels and "nan" not in out.read_text()


class TestHelp:
    @pytest.mark.parametrize(
        "cmd", ["gen", "impulse", "slide", "decode", "reencode", "plot"]
    )
    def test_subcommand_help(self, cmd):
        result = run_cli(cmd, "--help")
        assert result.returncode == 0
        assert cmd in result.stdout


class TestDeterminismAndGoldens:
    def test_gen_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            result = run_cli("gen", "--kind", "chebyshev", "--q", "5",
                             "--theta", "0.5", "-o", str(out))
            assert result.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pipeline_byte_identical(self, workdir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            csv = tmp_path / f"imp_{tag}.csv"
            svg = tmp_path / f"imp_{tag}.svg"
            assert run_cli("impulse", str(workdir / "ldn.json"), "--dt", "0.001",
                           "--t-max", "2.0", "-o", str(csv)).returncode == 0
            assert run_cli("plot", str(csv), "-o", str(svg)).returncode == 0
            outs.append((csv.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_impulse_goldens(self, workdir, tmp_path):
        for kind, t_max, name in (
            ("leg.json", "1.0", "impulse_legendre_q6"),
            ("ldn.json", "2.0", "impulse_ldn_q6"),
        ):
            csv = tmp_path / f"{name}.csv"
            svg = tmp_path / f"{name}.svg"
            assert run_cli("impulse", str(workdir / kind), "--dt", "0.001",
                           "--t-max", t_max, "-o", str(csv)).returncode == 0
            assert run_cli("plot", str(csv), "-o", str(svg)).returncode == 0
            assert csv.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
            assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()

    def test_decode_goldens(self, workdir, tmp_path):
        pw_traj = tmp_path / "pw.csv"
        ldn_traj = tmp_path / "ldn_traj.csv"
        assert run_cli("slide", str(workdir / "leg.json"),
                       "--signal", str(workdir / "impulse.csv"),
                       "--perfect-window", "-o", str(pw_traj)).returncode == 0
        assert run_cli("slide", str(workdir / "ldn.json"),
                       "--signal", str(workdir / "impulse.csv"),
                       "-o", str(ldn_traj)).returncode == 0
        for traj, system, name in (
            (pw_traj, "leg.json", "decode_perfect_window_q6"),
            (ldn_traj, "ldn.json", "decode_ldn_q6"),
        ):
            out = tmp_path / f"{name}.csv"
            assert run_cli("decode", str(workdir / system), "--trajectory",
                           str(traj), "--theta-prime-grid", "5",
                           "-o", str(out)).returncode == 0
            assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
