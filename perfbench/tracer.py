"""Spans around calls into ldnkit's public functions, installed from outside src/.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent). The wrapper is
bound wherever the function object is bound, so names imported into other
modules (``lti`` imports ``validate`` from ``bases``; ``sim`` imports
``encoder`` from ``reencode``) are traced at the call site their callers use.
Spans nest through generators too: ``decode`` hands ``write_csv`` a
generator that calls ``decode_window``, so those spans are children of the
``write_csv`` span and self time keeps the two apart.

Spans stay in memory until ``summary`` reduces them to per-function call
counts and self times (a span's duration minus the time its child spans
cover). ``layer_metrics`` turns a summary into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("cli", "formats", "sim", "reencode", "lti", "bases", "poly", "linalg")

# Coercion and per-cell helpers called inside nearly every other function;
# a span around each call would mostly measure the span itself.
UNTRACED = {
    "formats.shortest_float", "formats.full_float", "linalg.as_matrix",
    "linalg.as_vector", "linalg.one_norm", "poly.as_poly",
}

RECURRENCES = ("sim.sliding_transform", "sim.perfect_window_transform", "sim.impulse_response")
DECODER_BUILDERS = (
    "reencode.legendre_decoder", "reencode.decoder_hilbert_direct", "reencode.basis_inverse",
    "reencode.evaluated_decoder", "reencode.decoder_discrete", "reencode.discrete_decoders",
)
READERS = (
    "formats.read_csv", "formats.read_signal_csv", "formats.read_trajectory_csv",
    "formats.read_system_document", "formats.parse_system_document",
    "formats.read_basis_file", "formats.parse_basis_file",
)
WRITERS = ("formats.write_csv", "formats.write_trajectory_csv", "formats.write_system_document")
# Functions whose first argument is a file they read or write whole.
FILE_READERS = ("formats.read_csv", "formats.read_system_document", "formats.read_basis_file")
FILE_WRITERS = ("formats.write_csv", "formats.write_system_document")

# (name, unit) of every metric layer_metrics returns, in report order.
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("lti.build_s", "s"),
    ("sim.discretize_s", "s"),
    ("sim.recur_us_per_sample", "us"),
    ("sim.recur_rows", "count"),
    ("reencode.decode_us_per_row", "us"),
    ("reencode.decoder_build_s", "s"),
    ("reencode.decoders_built", "count"),
    ("reencode.encoder_s", "s"),
    ("linalg.lu_solve_calls", "count"),
    ("linalg.lu_solve_s", "s"),
    ("linalg.cond_calls", "count"),
    ("linalg.cond_s", "s"),
    ("linalg.expm_calls", "count"),
    ("linalg.expm_s", "s"),
    ("poly.calls", "count"),
    ("poly.s", "s"),
    ("bases.validate_s", "s"),
    ("formats.write_s", "s"),
    ("formats.write_mb_per_s", "MB/s"),
    ("formats.read_s", "s"),
    ("formats.read_mb_per_s", "MB/s"),
    ("formats.bytes_read", "bytes"),
    ("formats.bytes_written", "bytes"),
    ("formats.rows_written", "count"),
    ("formats.svg_s", "s"),
    ("trace.spans", "count"),
    ("trace.self_total_s", "s"),
)


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._decoder_depth = 0
        self.counts = {"rows": 0, "decoders": 0, "bytes_read": 0, "bytes_written": 0,
                       "rows_written": 0}

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ldnkit.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrappers[id(value)] = (value, self._wrap(name, value))
        for module in [importlib.import_module("ldnkit"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def remove(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, func):
        reads = name in FILE_READERS
        writes = name in FILE_WRITERS
        counts_rows = name == "formats.write_csv"
        recurrence = name in RECURRENCES
        builder = name in DECODER_BUILDERS

        def counted(rows):
            for row in rows:
                self.counts["rows_written"] += 1
                yield row

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if reads:
                self.counts["bytes_read"] += os.path.getsize(args[0])
            if counts_rows:
                args = (*args[:2], counted(args[2]), *args[3:])
            if builder:
                self._decoder_depth += 1
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                if builder:
                    self._decoder_depth -= 1
            if writes:
                self.counts["bytes_written"] += os.path.getsize(args[0])
            if recurrence:
                self.counts["rows"] += result.states.shape[0]
            if builder and self._decoder_depth == 0:
                self.counts["decoders"] += len(result) if isinstance(result, list) else 1
            return result

        return traced

    def summary(self) -> dict:
        """Per-function {calls, self_s} plus the counters, for spans so far."""
        starts = np.array(self.starts)
        durations = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=int)
        child = np.zeros(durations.size)
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        self_s = durations - child
        funcs: dict[str, dict] = {}
        for name, value in zip(self.names, self_s.tolist()):
            entry = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += value
        return {"funcs": funcs, "counts": dict(self.counts), "spans": len(self.names)}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed as in LAYER_METRICS."""
    funcs = summary["funcs"]
    counts = summary["counts"]

    def self_s(*names):
        return sum((funcs.get(n, {}).get("self_s", 0.0) for n in names), 0.0)

    def calls(*names):
        return sum(funcs.get(n, {}).get("calls", 0) for n in names)

    def in_layer(layer):
        return [n for n in funcs if n.split(".", 1)[0] == layer]

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    write_s = self_s(*WRITERS)
    read_s = self_s(*READERS)
    return {
        "cli.self_s": self_s(*in_layer("cli")),
        "lti.build_s": self_s(*in_layer("lti")),
        "sim.discretize_s": self_s("sim.discretize"),
        "sim.recur_us_per_sample": per(self_s(*RECURRENCES), counts["rows"], 1e6),
        "sim.recur_rows": counts["rows"],
        "reencode.decode_us_per_row": per(self_s("sim.decode_window"),
                                          calls("sim.decode_window"), 1e6),
        "reencode.decoder_build_s": self_s(*DECODER_BUILDERS),
        "reencode.decoders_built": counts["decoders"],
        "reencode.encoder_s": self_s("reencode.encoder"),
        "linalg.lu_solve_calls": calls("linalg.lu_solve"),
        "linalg.lu_solve_s": self_s("linalg.lu_solve"),
        "linalg.cond_calls": calls("linalg.condition_estimate"),
        "linalg.cond_s": self_s("linalg.condition_estimate"),
        "linalg.expm_calls": calls("linalg.expm"),
        "linalg.expm_s": self_s("linalg.expm"),
        "poly.calls": calls(*in_layer("poly")),
        "poly.s": self_s(*in_layer("poly")),
        "bases.validate_s": self_s("bases.validate"),
        "formats.write_s": write_s,
        "formats.write_mb_per_s": per(counts["bytes_written"], write_s, 1e-6),
        "formats.read_s": read_s,
        "formats.read_mb_per_s": per(counts["bytes_read"], read_s, 1e-6),
        "formats.bytes_read": counts["bytes_read"],
        "formats.bytes_written": counts["bytes_written"],
        "formats.rows_written": counts["rows_written"],
        "formats.svg_s": self_s("formats.render_svg"),
        "trace.spans": summary["spans"],
        "trace.self_total_s": sum((f["self_s"] for f in funcs.values()), 0.0),
    }
