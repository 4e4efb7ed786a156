"""Checks on the documentation and the import footprint of the package."""

import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_readme_library_example_runs():
    # a fresh interpreter with every warning an error, so the example
    # cannot call a deleted name or lean on a deprecated one
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    result = run_python("-W", "error", "-c", code)
    assert result.returncode == 0, result.stderr


def test_readme_cli_block_runs(tmp_path):
    # every ldnkit line of the CLI block, in order, with its comment cut off,
    # so the README cannot show a call the CLI refuses
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    calls = [shlex.split(line, comments=True) for line in block.splitlines()]
    calls = [call for call in calls if call and call[0] == "ldnkit"]
    assert calls
    (tmp_path / "my_basis.json").write_text(
        '{"theta": 1, "polys": [[1.0], [-1.0, 2.0], [0.5, 0.0, 1.0]]}', encoding="utf-8")
    (tmp_path / "input.csv").write_text(
        "t,u\n" + "".join(f"{k / 100!r},{math.sin(k / 33)!r}\n" for k in range(300)),
        encoding="utf-8")
    for call in calls:
        result = run_python("-W", "error", "-m", "ldnkit.cli", *call[1:], cwd=tmp_path)
        assert result.returncode == 0, (call, result.stderr)


def test_cli_import_footprint():
    # the CLI's start-up time: neither numpy.polynomial nor multiprocessing
    # may load on import
    probe = ("import sys, ldnkit.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'multiprocessing' or m.startswith('numpy.polynomial')))")
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_impulse_reads_basis_without_numpy_polynomial(tmp_path):
    # impulse on a chebyshev document evaluates the basis from its Legendre
    # mixture; numpy.polynomial serves only the tests' oracles
    probe = ("import sys; from ldnkit import cli; d = sys.argv[1]; "
             "assert cli.main(['gen', '--kind', 'chebyshev', '--q', '6', '-o', d + '/c.json']) == 0; "
             "assert cli.main(['impulse', d + '/c.json', '--t-max', '1', '-o', d + '/i.csv']) == 0; "
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    result = run_python("-c", probe, str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
