import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

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

    def test_non_uniform_signal_exits_4(self, workdir, tmp_path):
        sig = tmp_path / "bad.csv"
        sig.write_text("t,u\n0.0,1.0\n0.1,0.0\n0.3,0.0\n", encoding="utf-8")
        result = run_cli("slide", str(workdir / "ldn.json"), "--signal", str(sig),
                         "-o", str(tmp_path / "x.csv"))
        assert result.returncode == 4

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
            "discrete-pinv": lambda tp: reencode.decoder_discrete(basis, 2000, tp),
        }[method]
        decoders = np.array([single(i / 100).d for i in range(101)])
        states = np.loadtxt(traj, delimiter=",", skiprows=1)[:, 1:]
        want = states @ decoders.T
        got = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
        assert got.shape == want.shape
        # the solve-based methods round their multi-column solve differently
        # from one solve per delay; q = 6 Chebyshev has condition ~11
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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

    def test_ill_conditioned_exits_3(self, tmp_path):
        # plain monomial basis at q = 11 rides the raw Hilbert matrix
        basis_file = tmp_path / "monomials.json"
        polys = [[0.0] * k + [1.0] for k in range(11)]
        basis_file.write_text(json.dumps({"theta": 1.0, "polys": polys}),
                              encoding="utf-8")
        sys_file = tmp_path / "sys.json"
        result = run_cli("gen", "--kind", "custom", "--basis", str(basis_file),
                         "--q", "11", "-o", str(sys_file))
        assert result.returncode == 0, result.stderr
        result = run_cli("reencode", str(sys_file), "--method", "hilbert-direct",
                         "-o", str(tmp_path / "re.json"))
        assert result.returncode == 3
        assert "condition estimate" in result.stderr


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
