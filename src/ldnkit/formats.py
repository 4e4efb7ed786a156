"""File formats: system documents, signal/trajectory CSV, basis files, SVG.

Everything here is deterministic: a fixed field order, fixed decimal
formatting, and no timestamps, so identical inputs produce byte-identical
output. System documents carry every float with 17 significant digits
(lossless for doubles); CSV cells use the shortest decimal that round-trips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bases import PolyBasis, make_basis
from .errors import FormatError, NonUniformSignalError
from .lti import LtiSystem
from .sim import Signal, StateTrajectory

DOCUMENT_FORMAT_VERSION = 1

SYSTEM_KINDS = ("ldn", "legendre", "chebyshev", "custom")

# Relative jitter of the time column above which a signal is rejected.
UNIFORMITY_RTOL = 1e-6


def shortest_float(x: float) -> str:
    """Shortest decimal that parses back to the same double."""
    return repr(float(x))


def full_float(x: float) -> str:
    """17 significant digits, enough to reproduce any double exactly."""
    return format(float(x), ".17g")


def _render(value, indent: int) -> str:
    """Small JSON renderer with full-precision floats and stable key order."""
    pad = "  " * indent
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return full_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in value):
            return "[" + ", ".join(_render(v, 0) for v in value) + "]"
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
        return LtiSystem(a=self.a.copy(), b=self.b.copy(), theta=self.theta)


def document_from_system(sys: LtiSystem, kind: str, metadata: dict | None = None) -> SystemDocument:
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    meta = dict(metadata or {})
    if sys.condition is not None and "solver_condition" not in meta:
        meta["solver_condition"] = sys.condition
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


def write_system_document(path, doc: SystemDocument) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(doc.to_text())


def parse_basis_file(text: str) -> PolyBasis:
    """Basis files are JSON: {"theta": number, "polys": [[coeff, ...], ...]}."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not a valid basis file: {exc}") from exc
    if not isinstance(raw, dict) or "theta" not in raw or "polys" not in raw:
        raise FormatError('basis file needs "theta" and "polys" fields')
    try:
        theta = float(raw["theta"])
        polys = [np.asarray(p, dtype=float) for p in raw["polys"]]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed basis file: {exc}") from exc
    if not polys or any(p.ndim != 1 or p.size == 0 for p in polys):
        raise FormatError("polys must be a non-empty list of coefficient lists")
    try:
        return make_basis(polys, theta)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def read_basis_file(path) -> PolyBasis:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_basis_file(handle.read())


def basis_to_text(basis: PolyBasis) -> str:
    return _render({"theta": basis.theta, "polys": list(basis.polys)}, 0) + "\n"


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, header, rows) -> None:
    """Comma-separated, LF line endings, shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(shortest_float(x) for x in row) + "\n")


def read_csv(path):
    """Return (header, rows as float ndarray). Raises FormatError on junk."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n").rstrip("\r") for line in handle]
    lines = [line for line in lines if line]
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
    steps = np.diff(t)
    dt = float(np.mean(steps))
    if dt <= 0:
        raise NonUniformSignalError(f"{path}: time column is not increasing")
    jitter = float(np.max(np.abs(steps - dt)))
    if jitter > UNIFORMITY_RTOL * dt:
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
    header = ["t"] + list(columns)
    rows = (
        [t0 + k * traj.dt] + list(traj.states[k])
        for k in range(traj.states.shape[0])
    )
    write_csv(path, header, rows)


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


def render_svg(header, rows: np.ndarray) -> str:
    """Line chart: first column on the x axis, one polyline per other column.

    Output is fully deterministic: fixed canvas, fixed palette, fixed
    coordinate formatting, no timestamps or generator tags.
    """
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 2:
        raise FormatError("need at least one data row and two columns to plot")
    x = rows[:, 0]
    ys = rows[:, 1:]
    x_min, x_max = float(np.min(x)), float(np.max(x))
    y_min, y_max = float(np.min(ys)), float(np.max(ys))
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    inner_w = _SVG_WIDTH - 2 * _SVG_MARGIN
    inner_h = _SVG_HEIGHT - 2 * _SVG_MARGIN

    def sx(v: float) -> float:
        return _SVG_MARGIN + (v - x_min) / (x_max - x_min) * inner_w

    def sy(v: float) -> float:
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
    for col in range(ys.shape[1]):
        colour = _PALETTE[col % len(_PALETTE)]
        points = " ".join(
            f"{_fmt_coord(sx(x[k]))},{_fmt_coord(sy(ys[k, col]))}"
            for k in range(rows.shape[0])
        )
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        label = header[col + 1] if col + 1 < len(header) else f"c{col}"
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
