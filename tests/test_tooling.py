"""Checks on the documentation and the import footprint of the package."""

import ast
import importlib
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


def test_names_the_benchmark_reads_exist():
    # a prune must not break perfbench/: every public name resolves, every
    # <module>.<name> the worker reads from the ldnkit modules it imports
    # exists, and every layer the tracer wraps imports
    import ldnkit

    for name in ldnkit.__all__:
        assert hasattr(ldnkit, name), name
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "ldnkit")
        elif isinstance(node, ast.ImportFrom) and node.module == "ldnkit":
            modules.update((a.asname or a.name, f"ldnkit.{a.name}") for a in node.names)
    assert {"bases", "cli", "formats", "lti", "reencode", "sim"} <= set(modules)
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert ("reencode", "decoder_hilbert_direct") in reads
    for alias, attr in sorted(reads):
        assert hasattr(importlib.import_module(modules[alias]), attr), f"{alias}.{attr}"
    assert callable(ldnkit.PolyBasis.coefficient_matrix)
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    assert "linalg" in layers
    for layer in layers:
        importlib.import_module(f"ldnkit.{layer}")
