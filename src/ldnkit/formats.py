"""File formats: system documents, signal/trajectory CSV, basis files, SVG.

Everything here is deterministic: a fixed field order, fixed decimal
formatting, and no timestamps, so identical inputs produce byte-identical
output. System documents carry every float with 17 significant digits
(lossless for doubles); CSV cells use the shortest decimal that round-trips.

A custom system document keeps its basis under metadata["basis"], and
SystemDocument.basis is the basis of any document, for every command to read.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .bases import PolyBasis, make_basis, shifted_chebyshev, shifted_legendre
from .errors import FormatError, NonUniformSignalError
from .lti import LtiSystem
from .sim import Signal, StateTrajectory

DOCUMENT_FORMAT_VERSION = 1

SYSTEM_KINDS = ("ldn", "legendre", "chebyshev", "custom")

# Kinds whose states are coordinates in the shifted Legendre basis.
LEGENDRE_KINDS = ("ldn", "legendre")

# Relative jitter of the time column above which a signal is rejected.
UNIFORMITY_RTOL = 1e-6


def shortest_float(x: float) -> str:
    """Shortest decimal that parses back to the same double."""
    return repr(float(x))


def _number_list(values) -> str | None:
    """A list of numbers as one line, in one pass; None at the first other item."""
    texts = []
    for v in values:
        if isinstance(v, (float, np.floating)):
            texts.append(format(float(v), ".17g"))
        elif isinstance(v, bool):
            texts.append("true" if v else "false")
        elif isinstance(v, (int, np.integer)):
            texts.append(str(int(v)))
        else:
            return None
    return "[" + ", ".join(texts) + "]"


def _render(value, indent: int) -> str:
    """Small JSON renderer with full-precision floats and stable key order."""
    pad = "  " * indent
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")  # 17 digits reproduce any double
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        line = _number_list(value)
        if line is not None:
            return line
        inner = ",\n".join(pad + "  " + _render(v, indent + 1) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_block(body: dict) -> str:
    """Serialize a mapping as a deterministic, full-precision JSON block."""
    return _render(body, 0) + "\n"


@dataclass(frozen=True)
class SystemDocument:
    """Serializable description of an LTI system plus provenance metadata."""

    kind: str
    q: int
    theta: float
    a: np.ndarray
    b: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_text(self) -> str:
        return render_block({
            "format_version": DOCUMENT_FORMAT_VERSION,
            "kind": self.kind,
            "q": self.q,
            "theta": self.theta,
            "a": self.a,
            "b": self.b,
            "metadata": self.metadata,
        })

    def to_system(self) -> LtiSystem:
        """The stored matrices, without a basis (read that from ``basis``)."""
        return LtiSystem(a=self.a.copy(), b=self.b.copy(), theta=self.theta)

    @functools.cached_property
    def basis(self) -> PolyBasis:
        """The basis the states are coordinates in: Legendre, Chebyshev or metadata["basis"]."""
        if self.kind in LEGENDRE_KINDS:
            return shifted_legendre(self.q, self.theta)
        if self.kind == "chebyshev":
            return shifted_chebyshev(self.q, self.theta)
        raw = self.metadata.get("basis")
        if not isinstance(raw, dict):
            raise FormatError("custom system document lacks basis coefficients in metadata")
        return _read_basis({"theta": self.theta, **raw})


def document_from_system(sys: LtiSystem, kind: str, metadata: dict | None = None) -> SystemDocument:
    """A custom system that carries its basis records it, then its solver_condition."""
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    meta = dict(metadata or {})
    if kind == "custom" and sys.basis is not None:
        meta["basis"] = _basis_mapping(sys.basis)
        meta.setdefault("solver_condition", sys.basis.inverse[1])
    return SystemDocument(
        kind=kind, q=sys.q, theta=sys.theta, a=sys.a.copy(), b=sys.b.copy(),
        metadata=meta,
    )


def parse_system_document(text: str) -> SystemDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not a valid system document: {exc}") from exc
    if not isinstance(raw, dict):
        raise FormatError("system document must be a mapping")
    version = raw.get("format_version")
    if version != DOCUMENT_FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    try:
        kind = raw["kind"]
        q = int(raw["q"])
        theta = float(raw["theta"])
        a = np.asarray(raw["a"], dtype=float)
        b = np.asarray(raw["b"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed system document: {exc}") from exc
    if kind not in SYSTEM_KINDS:
        raise FormatError(f"unknown system kind {kind!r}")
    if not (np.isfinite(theta) and theta > 0):
        raise FormatError(f"theta must be finite and positive, got {theta!r}")
    if a.shape != (q, q) or b.shape != (q,):
        raise FormatError(
            f"inconsistent shapes: q={q}, a has {a.shape}, b has {b.shape}"
        )
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("metadata must be a mapping")
    return SystemDocument(kind=kind, q=q, theta=theta, a=a, b=b, metadata=metadata)


def read_system_document(path) -> SystemDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system_document(handle.read())


def parse_basis_file(text: str) -> PolyBasis:
    """Basis files are JSON: {"theta": number, "polys": [[coeff, ...], ...]}."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not a valid basis file: {exc}") from exc
    return _read_basis(raw)


def _read_basis(raw) -> PolyBasis:
    """The basis of a basis file's mapping, or of a custom document's metadata["basis"]."""
    if not isinstance(raw, dict) or "theta" not in raw or "polys" not in raw:
        raise FormatError('basis file needs "theta" and "polys" fields')
    try:
        theta = float(raw["theta"])
        polys = [np.asarray(p, dtype=float) for p in raw["polys"]]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed basis file: {exc}") from exc
    if not polys or any(p.ndim != 1 or p.size == 0 for p in polys):
        raise FormatError("empty basis or polynomial: polys needs non-empty coefficient lists")
    try:
        return make_basis(polys, theta)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _basis_mapping(basis: PolyBasis) -> dict:
    """The mapping _read_basis reads; ValueError for a coefficient that is not finite."""
    if not all(np.isfinite(p).all() for p in basis.polys):
        raise ValueError("basis coefficients in t are past the float range")
    return {"theta": basis.theta, "polys": [p.tolist() for p in basis.polys]}


def read_basis_file(path) -> PolyBasis:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_basis_file(handle.read())


def basis_to_text(basis: PolyBasis) -> str:
    return _render(_basis_mapping(basis), 0) + "\n"


# ---------------------------------------------------------------------------
# CSV


# Rows per block that write_csv formats as one unit, inline or on a worker.
_BLOCK_ROWS = 2048


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _format_block(block: np.ndarray) -> str:
    """CSV lines of a float block; repr is the shortest round-trip decimal."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def _format_pool(n_blocks: int):
    """A pool of one forked worker per usable CPU, or a null context to format inline.

    Formatting is one pure-Python ``repr`` per cell, so only more CPUs make
    it faster. The workers run nothing but ``_format_block`` on the blocks
    pickled to them, and call no BLAS, so the BLAS threads a fork leaves
    behind do not matter; fork saves the fresh interpreter and numpy import
    a spawned worker would pay on every CLI run.
    """
    cpus = _usable_cpus()
    if cpus > 1 and n_blocks > 1:
        # imported here, not at module level, so that CLI starts without a pool skip it
        import multiprocessing

        # a daemonic process, such as a pool worker, may not start children
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return multiprocessing.get_context("fork").Pool(cpus)
    return contextlib.nullcontext()


def write_csv(path, header, rows) -> None:
    """Comma-separated, LF line endings, shortest round-trip decimals.

    ``rows`` is any iterable of equal-length rows of numbers; a float
    ndarray is formatted through views of itself, without a copy. The bytes
    written do not depend on how many CPUs format them.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    blocks = [table[k : k + _BLOCK_ROWS] for k in range(0, len(table), _BLOCK_ROWS)]
    with _format_pool(len(blocks)) as pool:
        lines = map(_format_block, blocks) if pool is None else pool.imap(_format_block, blocks)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            handle.writelines(lines)


def _strip_eol(line: str) -> str:
    return line.rstrip("\n").rstrip("\r")


def _loadtxt_lines(lines):
    """Lines for np.loadtxt, stopping with ValueError at an ASCII separator.

    numpy's reader strips the separators U+001C..U+001F around a number as
    whitespace; ``float`` rejects them, and so must read_csv.
    """
    for line in lines:
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator in a line")
        yield line


def read_csv(path):
    """Return (header, rows as float ndarray). Raises FormatError on junk.

    numpy's C reader parses the data rows. A file it rejects, or one with
    no data row, is read again line by line by ``_read_csv_by_line``, which
    accepts exactly what ``float`` accepts and names the offending line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        nonblank = (line for line in handle if _strip_eol(line))
        header, first = next(nonblank, None), next(nonblank, None)
        if first is not None:
            header = _strip_eol(header).split(",")
            try:
                rows = np.loadtxt(_loadtxt_lines(itertools.chain([first], handle)),
                                  delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                rows = None
            if rows is not None and rows.shape[1] == len(header):
                return header, rows
        handle.seek(0)
        return _read_csv_by_line(path, handle)


def _read_csv_by_line(path, handle):
    """read_csv one cell at a time: blank lines skipped, errors as path:lineno."""
    lines = [line for line in map(_strip_eol, handle) if line]
    if not lines:
        raise FormatError(f"{path}: empty CSV")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} cells")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def _uniform_step(path, t: np.ndarray) -> float:
    """Mean spacing of a time column; NonUniformSignalError unless uniform."""
    if not np.all(np.isfinite(t)):
        raise NonUniformSignalError(
            f"{path}: time column has a non-finite value, so its spacing is undefined"
        )
    with np.errstate(over="ignore"):
        steps = np.diff(t)
        dt = float(np.mean(steps))
    if not np.isfinite(dt):
        raise NonUniformSignalError(f"{path}: time column spacing overflows")
    if not dt > 0:
        raise NonUniformSignalError(f"{path}: time column is not increasing")
    jitter = float(np.max(np.abs(steps - dt)))
    if not jitter <= UNIFORMITY_RTOL * dt:
        raise NonUniformSignalError(
            f"{path}: non-uniform sample spacing (relative jitter "
            f"{jitter / dt:.3e} exceeds {UNIFORMITY_RTOL:g})"
        )
    return dt


def read_signal_csv(path):
    """Parse a 't,u' CSV into (t0, Signal), enforcing uniform spacing."""
    header, rows = read_csv(path)
    if [h.strip() for h in header[:2]] != ["t", "u"] or len(header) != 2:
        raise FormatError(f"{path}: expected header 't,u'")
    t = rows[:, 0]
    if t.size < 2:
        raise FormatError(f"{path}: need at least two samples")
    return float(t[0]), Signal(samples=rows[:, 1], dt=_uniform_step(path, t))


def write_trajectory_csv(path, traj: StateTrajectory, t0: float = 0.0,
                         columns=None) -> None:
    """Time column plus the states, in columns m_0, m_1, ... unless named."""
    if columns is None:
        columns = [f"m_{n}" for n in range(traj.states.shape[1])]
    table = np.column_stack((t0 + traj.times, traj.states))
    write_csv(path, ["t", *columns], table)


def read_trajectory_csv(path):
    """Parse a trajectory CSV into (t0, StateTrajectory)."""
    header, rows = read_csv(path)
    if header[0].strip() != "t" or len(header) < 2:
        raise FormatError(f"{path}: expected header 't,m_0,...'")
    t = rows[:, 0]
    if t.size < 2:
        raise FormatError(f"{path}: need at least two rows")
    return float(t[0]), StateTrajectory(states=rows[:, 1:], dt=_uniform_step(path, t))


# ---------------------------------------------------------------------------
# SVG

_SVG_WIDTH = 800
_SVG_HEIGHT = 480
_SVG_MARGIN = 50
_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt_coord(x: float) -> str:
    return f"{x:.2f}"


def _fixed2(v: np.ndarray) -> np.ndarray:
    """``'%.2f' % x`` for each double x of a 1-D array, as the rows of a uint8
    array that read as that text once their NUL bytes are removed.

    The cents are |x|·100 correctly rounded, ties to even: ``rint`` of the
    float product c. Each n + 1/2 below 2^52 is a double and rounding is
    monotone, so c reaches the far side of a half-cent only by landing on it
    exactly; elsewhere rint(c) is the correct cents. Those exact halves
    (c - rint(c) is exact), c of 2^32 or more, nan and ±inf take printf itself.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        c = np.abs(v) * 100
        rounded = np.rint(c)
        odd = ~(c < 2.0**32) | (np.abs(c - rounded) == 0.5)
    cents = np.where(odd, 0, rounded).astype(np.int64)
    # column 0 holds the sign, column j < nd - 1 the digit of 10^(nd - j) cents
    nd = max(3, len(str(cents.max())))
    out = np.empty((v.size, nd + 2), np.uint8)
    out[:, 0] = np.signbit(v) * 45
    out[:, nd - 1] = 46
    rest = cents
    for j in (nd + 1, nd, *range(nd - 2, 0, -1)):
        rest, digit = np.divmod(rest, 10)
        out[:, j] = digit + 48
    for j in range(1, nd - 2):
        out[cents < 10 ** (nd - j), j] = 0
    if odd.any():
        words = np.array([b"%.2f" % w for w in v[odd].tolist()])
        width = max(out.shape[1], words.itemsize)
        out = np.pad(out, ((0, 0), (width - out.shape[1], 0)))
        out[odd] = 0
        out[odd, -words.itemsize:] = words.view(np.uint8).reshape(-1, words.itemsize)
    return out


def _axis_span(lo: float, hi: float) -> tuple[float, float]:
    """The range an axis spans. A constant column's is [lo, lo + 1], or, where
    adding 1 leaves lo unchanged (|lo| >= 2^53), the range from 0 to lo."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    return min(lo, 0.0), max(lo, 0.0)


def render_svg(header, rows: np.ndarray) -> str:
    """Line chart: first column on the x axis, one polyline per other column.

    Output is fully deterministic: fixed canvas and palette, no timestamps or
    generator tags, and coordinates as %.2f, the mapped double correctly rounded
    with ties to even, formatted a column at a time by ``_fixed2``; every
    polyline of a chart shares its formatted x.
    """
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise FormatError("need at least one data row and two columns to plot")
    x = rows[:, 0]
    ys = rows[:, 1:]
    x_min, x_max = _axis_span(float(np.min(x)), float(np.max(x)))
    y_min, y_max = _axis_span(float(np.min(ys)), float(np.max(ys)))
    inner_w = _SVG_WIDTH - 2 * _SVG_MARGIN
    inner_h = _SVG_HEIGHT - 2 * _SVG_MARGIN

    def sx(v):
        return _SVG_MARGIN + (v - x_min) / (x_max - x_min) * inner_w

    def sy(v):
        return _SVG_HEIGHT - _SVG_MARGIN - (v - y_min) / (y_max - y_min) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" width="{inner_w}" '
        f'height="{inner_h}" fill="none" stroke="#cccccc"/>',
    ]
    if y_min < 0 < y_max:
        zero = _fmt_coord(sy(0.0))
        parts.append(
            f'<line x1="{_SVG_MARGIN}" y1="{zero}" x2="{_SVG_WIDTH - _SVG_MARGIN}" '
            f'y2="{zero}" stroke="#eeeeee"/>'
        )
    # sx, sy map arrays bit for bit like scalars. A point is its x field, a
    # comma, its y field and a space; one column at a time, NULs stripped.
    px = _fixed2(sx(x))
    comma, space = (np.full((len(x), 1), c, np.uint8) for c in b", ")
    for col in range(ys.shape[1]):
        colour = _PALETTE[col % len(_PALETTE)]
        points = np.concatenate((px, comma, _fixed2(sy(ys[:, col])), space), axis=1)
        points = points.tobytes().translate(None, b"\0")[:-1].decode("ascii")
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        label = header[col + 1] if col + 1 < len(header) else f"c{col}"
        label = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{_SVG_MARGIN + 8 + 60 * col}" y="{_SVG_MARGIN - 12}" '
            f'font-family="monospace" font-size="12" fill="{colour}">{label}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{_fmt_coord(sx(xv))}" y="{_SVG_HEIGHT - _SVG_MARGIN + 20}" '
            f'font-family="monospace" font-size="11" fill="#444444" '
            f'text-anchor="middle">{shortest_float(xv)}</text>'
        )
        parts.append(
            f'<text x="{_SVG_MARGIN - 8}" y="{_fmt_coord(sy(yv) + 4)}" '
            f'font-family="monospace" font-size="11" fill="#444444" '
            f'text-anchor="end">{shortest_float(yv)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
