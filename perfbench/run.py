"""ldnkit benchmark: one workload per run, checked against an independent oracle.

    python3 perfbench/run.py --workload ldn_window --seed 1 --seconds 30 --trace 0

Run from anywhere; it uses the checkout this file sits in and imports
ldnkit only from that checkout's ``src``. Workloads:

- ``ldn_window``: ``gen --kind ldn --q 6`` -> ``slide`` -> ``decode
  --theta-prime-grid 11`` on a seeded band-limited signal 50 windows long.
- ``perfect_window``: ``gen --kind legendre --q 32`` -> ``slide
  --perfect-window`` -> ``decode`` on the same kind of signal.
- ``basis_design``: nine seeded designs (random, Legendre and Chebyshev
  bases at q = 6, 12, 16) built, decoded three ways, dampened and simulated
  by library calls in one process.

Each CLI step runs in its own interpreter, one child at a time; peak memory
and CPU time come from each child's rusage. With ``--trace 0`` the last
line of stdout is the JSON result with the end-to-end metrics; with
``--trace 1`` the passes are replayed in-process with spans around every
public function of the layer modules, and the result holds the per-layer
metrics instead. Every run first checks its oracle against the committed
goldens, and exits non-zero without a result when the checkout has no
``src/ldnkit`` or the oracle fails that self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import checks
import inputs
import selftest
import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI_WORKLOADS = {
    "ldn_window": {"kind": "ldn", "q": 6, "slide": [], "decode": ["--theta-prime-grid", "11"]},
    "perfect_window": {"kind": "legendre", "q": 32, "slide": ["--perfect-window"], "decode": []},
}
WORKLOADS = (*CLI_WORKLOADS, "basis_design")

# Set-up is repeated and its median reported, so one slow start does not
# decide setup_s.
SETUP_REPEATS = 7
MIN_PASSES = 3
# Untraced CLI passes a traced run makes to relate layer times to pipeline_s.
TRACE_BASELINE_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("pipeline_p75_s", "s"),
    ("samples_per_s", "1/s"),
    ("designs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.start_s", "s"),
    *tracer.LAYER_METRICS,
    ("sim.state_err_max", "1"),
    ("reencode.decode_err_max", "1"),
    ("oracle.nonfinite_outputs", "count"),
    ("trace.overhead_frac", "1"),
    ("trace.layer_share", "1"),
)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Children run one at a time through launcher.py; see its docstring."""

    def __init__(self, workdir: pathlib.Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, HERE / "launcher.py"], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, capture: bool = False) -> dict:
        """Run ``python3 *argv`` to completion: exit code, wall, CPU, peak RSS."""
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        request = {"argv": [sys.executable, *map(str, argv)],
                   "stdout": str(out) if capture else None, "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited early")
        result = json.loads(reply)
        result["stdout"] = out.read_text() if capture else ""
        result["stderr"] = err.read_text(errors="replace")[-2000:]
        return result

    def close(self) -> None:
        """Stop the launcher and any child it is still running."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(pathlib.Path(path).read_bytes())
    return h.hexdigest()


# pipeline_s is the mean pass time, not the median: on a shared 2-vCPU VM the
# speed swings over seconds, pass times come out lumpy, and the median of a
# run's passes flipped between a fast and a slow mode (run-to-run spread 0.18
# against 0.11 for the mean over the same five runs). The median is printed
# in the detail line.
def p75(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[-1]


def median_start(launcher) -> float:
    """A CLI call that does no work: interpreter start, imports, parser."""
    return statistics.median(
        launcher.run(["-m", "ldnkit.cli", "--help"])["wall_s"] for _ in range(SETUP_REPEATS))


def worker_records(launcher, job, spec, seconds, trace) -> tuple[list[dict], dict]:
    spec_path = launcher.workdir / f"{job}.json"
    spec_path.write_text(json.dumps(spec))
    res = launcher.run([HERE / "worker.py", job, "--spec", spec_path, "--seconds",
                        f"{seconds:.3f}", "--trace", trace], capture=True)
    if res["rc"] != 0:
        raise RuntimeError(f"worker {job} exited {res['rc']}: {res['stderr']}")
    return [json.loads(line) for line in res["stdout"].splitlines() if line.strip()], res


def layer_medians(records) -> dict:
    """Median of each layer metric over the traced passes; counts stay whole."""
    traced = [r["layers"] for r in records if r["traced"]]
    out = {}
    for name, unit in tracer.LAYER_METRICS:
        values = [r[name] for r in traced]
        whole = unit in ("count", "bytes")
        out[name] = statistics.median_low(values) if whole else statistics.median(values)
    return out


def timed_walls(records, traced=False) -> list[float]:
    return [r["wall_s"] for r in records if r["traced"] == traced and not r["warmup"]]


def overhead(records) -> float:
    traced, plain = timed_walls(records, True), timed_walls(records)
    return statistics.median(traced) / statistics.median(plain) - 1


def error_metrics(found) -> dict:
    def worst(names):
        errs = [c["err"] for c in found if c["check"] in names and math.isfinite(c["err"])]
        return max(errs, default=0.0)

    return {
        "sim.state_err_max": worst(("slide.states", "design.impulse")),
        "reencode.decode_err_max": worst(("decode.values", "design.decoder")),
        "oracle.nonfinite_outputs": sum(1 for c in found if not math.isfinite(c["err"])),
    }


def cli_workload(name, args, launcher) -> dict:
    spec = CLI_WORKLOADS[name]
    workdir = launcher.workdir
    data = inputs.make_cli_inputs(workdir, args.seed)
    doc, traj, dec = workdir / "system.json", workdir / "traj.csv", workdir / "decode.csv"

    def steps(doc, traj, dec):
        return (
            ["gen", "--kind", spec["kind"], "--q", str(spec["q"]), "-o", str(doc)],
            ["slide", str(doc), "--signal", str(data["signal"]), *spec["slide"], "-o", str(traj)],
            ["decode", str(doc), "--trajectory", str(traj), *spec["decode"], "-o", str(dec)],
        )

    gen, slide, decode = (["-m", "ldnkit.cli", *s] for s in steps(doc, traj, dec))
    setups = [launcher.run(gen) for _ in range(SETUP_REPEATS)]
    if any(s["rc"] for s in setups):
        raise RuntimeError(f"gen failed: {setups[0]['stderr']}")
    start_s = median_start(launcher) if args.trace else None

    deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        if args.trace:
            if len(passes) >= TRACE_BASELINE_PASSES:
                break
        elif len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
        runs = [launcher.run(slide), launcher.run(decode)]
        ok = all(r["rc"] == 0 for r in runs)
        passes.append({
            "wall_s": sum(r["wall_s"] for r in runs), "cpu_s": sum(r["cpu_s"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs), "rc": [r["rc"] for r in runs],
            "stderr": "".join(r["stderr"] for r in runs),
            "digest": file_digest([traj, dec]) if ok else None,
        })

    records, replay_digest = [], None
    if args.trace:
        outputs = workdir / "traj_r.csv", workdir / "decode_r.csv"
        replay = {"steps": steps(workdir / "system_r.json", *outputs)}
        records, _ = worker_records(launcher, "replay", replay,
                                    max(deadline - time.perf_counter(), 0.0), 1)
        replay_digest = file_digest(outputs)

    final = passes[-1]
    if final["digest"] is None:
        found = [checks.record("cli.exit", f"exit codes {final['rc']}: {final['stderr'][-300:]}",
                               math.inf, 0.0)]
    else:
        document = json.loads(doc.read_text())
        found = checks.check_cli(spec["kind"], spec["q"], name == "perfect_window", data["u"],
                                 document, traj, dec)
    failing = [c for c in found if not c["ok"]]
    changed = checks.record("output.changed", "pass output differs from the checked output",
                            math.inf, 0.0)
    verdicts = [failing if p["digest"] == final["digest"] else [changed] for p in passes]
    verdicts += [failing if replay_digest == final["digest"] and not any(r["codes"]) else [changed]
                 for r in records]

    walls = [p["wall_s"] for p in passes]
    setup_s = statistics.median(s["wall_s"] for s in setups)
    result = {
        "found": found, "verdicts": verdicts, "unit": "passes",
        "detail": {
            "passes": len(passes), "replays": len(records), "signal_samples": inputs.N_SAMPLES,
            "cpu_s_per_pass": statistics.median(p["cpu_s"] for p in passes),
            "pass_median_s": statistics.median(walls),
            "pass_walls_s": [round(w, 4) for w in walls],
            "setup_cpu_s": statistics.median(s["cpu_s"] for s in setups),
        },
    }
    mean = statistics.fmean(walls)
    if args.trace:
        layers = layer_medians(records)
        n_steps = len(replay["steps"])
        result["metrics"] = {
            "cli.start_s": start_s, **layers, **error_metrics(found),
            "trace.overhead_frac": overhead(records),
            "trace.layer_share": (layers["trace.self_total_s"] + n_steps * start_s)
            / (setup_s + mean),
        }
    else:
        result["metrics"] = {
            "setup_s": setup_s,
            "pipeline_s": mean,
            "pipeline_p75_s": p75(walls),
            "samples_per_s": inputs.N_SAMPLES / mean,
            "designs_per_s": 1.0 / mean,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
    return result


def design_workload(args, launcher) -> dict:
    workdir = launcher.workdir
    designs = inputs.make_design_inputs(workdir, args.seed)
    setups = [launcher.run(["-c", "import ldnkit"]) for _ in range(SETUP_REPEATS)]
    if any(s["rc"] for s in setups):
        raise RuntimeError(f"import ldnkit failed: {setups[0]['stderr']}")
    start_s = median_start(launcher) if args.trace else None

    npz = workdir / "round0.npz"
    spec = {"designs": [{k: d[k] for k in ("kind", "q", "path")} for d in designs],
            "outputs": str(npz)}
    records, res = worker_records(launcher, "designs", spec, args.seconds, args.trace)
    with np.load(npz, allow_pickle=False) as outputs:
        per_design = [checks.check_design(d, outputs, f"{i}/") for i, d in enumerate(designs)]
    found = [c for design in per_design for c in design]
    failing = [[c for c in design if not c["ok"]] for design in per_design]
    changed = checks.record("output.changed", "round output differs from round 0",
                            math.inf, 0.0)
    verdicts = []
    for digest in (d for r in records for d in r["digests"]):
        verdicts += failing if digest == records[0]["digests"][0] else [[changed]] * len(designs)

    untraced = timed_walls(records)
    mean = statistics.fmean(untraced)
    result = {
        "found": found, "verdicts": verdicts, "unit": "designs",
        "detail": {"passes": len(records), "designs_per_round": len(designs),
                   "rounds_per_pass": len(records[0]["digests"]),
                   "worker_cpu_s": res["cpu_s"], "impulse_rows_per_pass": records[0]["rows"],
                   "pass_median_s": statistics.median(untraced),
                   "pass_walls_s": [round(w, 4) for w in untraced]},
    }
    if args.trace:
        layers = layer_medians(records)
        result["metrics"] = {
            "cli.start_s": start_s, **layers, **error_metrics(found),
            "trace.overhead_frac": overhead(records),
            "trace.layer_share": layers["trace.self_total_s"] / mean,
        }
    else:
        result["metrics"] = {
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "pipeline_s": mean,
            "pipeline_p75_s": p75(untraced),
            "samples_per_s": records[0]["rows"] / mean,
            "designs_per_s": len(records[0]["digests"]) * len(designs) / mean,
            "peak_rss_mb": res["rss_mb"],
        }
    return result


def report(args, result) -> dict:
    verdicts = result["verdicts"]
    attempted = len(verdicts)
    failed = sum(1 for v in verdicts if v)
    unexpected = [c for v in verdicts for c in v if c["known"] is None]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(machine()))
    print("detail " + json.dumps(result["detail"]))
    for c in result["found"]:
        verdict = "ok" if c["ok"] else f"FAIL ({c['known'] or 'unexpected'})"
        print(f"check {c['check']:20} {verdict:38} err={c['err']:.3e} tol={c['tol']:.0e}  "
              f"{c['subject']}")
    for defect in sorted({c["known"] for c in result["found"] if c["known"]}):
        print(f"known {defect}: {checks.KNOWN_DEFECTS[defect]}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} {result['unit']} failed, "
          f"{len(unexpected)} failing checks unexplained by a known defect)")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name:28} {m['value']:.6g} {m['unit']}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still unwinds, so its children are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "ldnkit" / "__init__.py").is_file():
        print(f"error: no ldnkit sources under {SRC}", file=sys.stderr)
        return 2
    failed = [r for r in selftest.run() if not r["ok"]]
    if failed:
        print(f"error: oracle self-test failed: {failed}", file=sys.stderr)
        return 1

    WORK.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    launcher = Launcher(workdir)
    try:
        if args.workload in CLI_WORKLOADS:
            result = cli_workload(args.workload, args, launcher)
        else:
            result = design_workload(args, launcher)
        final = report(args, result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
