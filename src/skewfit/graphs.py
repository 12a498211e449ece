"""Data model for finitely sampled multivalued operators on R^n.

A sampled operator is a finite collection of (primal, dual) pairs.  The same
primal point may appear with several distinct dual points, so nothing here
assumes single-valuedness.  Comparisons between nearby vectors go through an
explicit ToleranceConfig; exact (bit-level) equality is reserved for
serialization round-trips and for graph inversion, which is an involution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

__all__ = [
    "DEFAULT_TOLERANCE",
    "GraphPoint",
    "OperatorGraph",
    "ParseError",
    "SkewfitError",
    "ToleranceConfig",
    "ValidationError",
    "domain",
    "dumps_canonical",
    "inverse_graph",
    "load_graph",
    "load_json_object",
    "save_graph",
    "translate",
    "vectors_close",
]


class SkewfitError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(SkewfitError, ValueError):
    """A value violates a structural invariant."""


class ParseError(SkewfitError, ValueError):
    """A byte stream could not be parsed into a graph."""


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)  # always copies
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be a 1-D sequence of reals, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute and relative thresholds for approximate comparisons.

    ``margin(scale)`` is the tolerance budget at a given scale, with the
    scale floored at 1 so that residuals near the origin are still judged
    against a positive budget.  Dividing a residual by its margin puts the
    tolerance boundary at 1.0 regardless of magnitude, which is how every
    report in this package normalizes its ``worst_violation``.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0.0 and self.rel_tol >= 0.0):
            raise ValidationError("tolerances must be nonnegative")
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValidationError("abs_tol and rel_tol cannot both be zero")

    def margin(self, scale):
        """Tolerance budget at ``scale`` (scalar or array), scale floored at 1."""
        return self.abs_tol + self.rel_tol * np.maximum(scale, 1.0)

    def to_dict(self) -> dict:
        return {"abs_tol": self.abs_tol, "rel_tol": self.rel_tol}


DEFAULT_TOLERANCE = ToleranceConfig()


def vectors_close(a, b, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether ``||a - b|| <= abs_tol + rel_tol * max(||a||, ||b||)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gap = float(np.linalg.norm(a - b))
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return gap <= tol.abs_tol + tol.rel_tol * scale


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """One sampled pair (x, xstar) with matching dimensions."""

    x: np.ndarray
    xstar: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "xstar", _as_vector(self.xstar, "xstar"))
        if self.x.size != self.xstar.size:
            raise ValidationError(
                f"x has dimension {self.x.size} but xstar has dimension {self.xstar.size}"
            )

    @property
    def dimension(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphPoint):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.xstar, other.xstar)

    def __repr__(self) -> str:
        return f"GraphPoint(x={self.x.tolist()}, xstar={self.xstar.tolist()})"


@dataclass(frozen=True, eq=False)
class OperatorGraph:
    """A finite, nonempty sample of a multivalued operator on R^dimension."""

    dimension: int
    points: tuple[GraphPoint, ...]

    def __post_init__(self) -> None:
        if isinstance(self.dimension, bool) or not isinstance(self.dimension, (int, np.integer)):
            raise ValidationError("dimension must be an integer")
        object.__setattr__(self, "dimension", int(self.dimension))
        if self.dimension < 1:
            raise ValidationError("dimension must be a positive integer")
        pts = tuple(self.points)
        if not pts:
            raise ValidationError("a graph must contain at least one point")
        for i, p in enumerate(pts):
            if not isinstance(p, GraphPoint):
                raise ValidationError(f"points[{i}] is not a GraphPoint")
            if p.dimension != self.dimension:
                raise ValidationError(
                    f"points[{i}] has dimension {p.dimension}, expected {self.dimension}"
                )
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_arrays(cls, primal, dual) -> "OperatorGraph":
        """Build a graph from two (m, n) arrays whose rows are vectors."""
        primal = np.atleast_2d(np.asarray(primal, dtype=np.float64))
        dual = np.atleast_2d(np.asarray(dual, dtype=np.float64))
        if primal.shape != dual.shape:
            raise ValidationError(
                f"primal rows have shape {primal.shape}, dual rows {dual.shape}"
            )
        pts = tuple(GraphPoint(primal[i], dual[i]) for i in range(primal.shape[0]))
        return cls(primal.shape[1], pts)

    @property
    def primal_matrix(self) -> np.ndarray:
        """(m, n) array whose rows are the primal points, in graph order."""
        return np.stack([p.x for p in self.points])

    @property
    def dual_matrix(self) -> np.ndarray:
        """(m, n) array whose rows are the dual points, in graph order."""
        return np.stack([p.xstar for p in self.points])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorGraph):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and len(self.points) == len(other.points)
            and all(a == b for a, b in zip(self.points, other.points))
        )

    def __repr__(self) -> str:
        return f"OperatorGraph(dimension={self.dimension}, points=<{len(self.points)}>)"


def domain(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> list[np.ndarray]:
    """Distinct primal points of ``g`` in first-appearance order.

    Two primal points count as the same element of the domain when
    ``vectors_close`` holds for them.
    """
    reps: list[np.ndarray] = []
    for p in g.points:
        if not any(vectors_close(p.x, r, tol) for r in reps):
            reps.append(p.x)
    return reps


def inverse_graph(g: OperatorGraph) -> OperatorGraph:
    """Swap primal and dual in every pair.  Applying it twice is the identity."""
    return OperatorGraph(
        g.dimension, tuple(GraphPoint(p.xstar, p.x) for p in g.points)
    )


def translate(g: OperatorGraph, u, ustar) -> OperatorGraph:
    """Shift every pair by (-u, -ustar), moving the basepoint (u, ustar) to (0, 0)."""
    u = _as_vector(u, "u")
    ustar = _as_vector(ustar, "ustar")
    if u.size != g.dimension:
        raise ValidationError(f"u has dimension {u.size}, expected {g.dimension}")
    if ustar.size != g.dimension:
        raise ValidationError(f"ustar has dimension {ustar.size}, expected {g.dimension}")
    return OperatorGraph(
        g.dimension, tuple(GraphPoint(p.x - u, p.xstar - ustar) for p in g.points)
    )


# ---------------------------------------------------------------------------
# Serialization.  Numbers are written with 17 significant digits, which is
# enough for IEEE binary64 values to survive a decimal round-trip bit for bit.
# ---------------------------------------------------------------------------

def _format_number(value: float) -> str:
    if not np.isfinite(value):
        raise ValidationError("cannot serialize a non-finite number")
    return format(float(value), ".17g")


def dumps_canonical(value) -> str:
    """Serialize to JSON with deterministic bytes and 17-significant-digit floats."""
    out: list[str] = []
    _write_json(value, out)
    return "".join(out)


def _write_json(value, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_number(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write_json(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            _write_json(item, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        _write_json(value.tolist(), out)
    else:
        raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


_GRAPH_KEYS = {"dimension", "points"}
_POINT_KEYS = {"x", "xstar"}


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _number_list(value, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be an array of numbers")
    entries = []
    for j, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"{where}[{j}] is not a number")
        entries.append(float(item))
    return np.array(entries, dtype=np.float64)


def _decode(data: bytes) -> str:
    try:
        return bytes(data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def load_json_object(data: bytes) -> dict:
    """Parse UTF-8 bytes holding one JSON object whose numbers are finite."""
    try:
        doc = json.loads(_decode(data), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


def _graph_from_json(doc: dict) -> OperatorGraph:
    unknown = sorted(set(doc) - _GRAPH_KEYS)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in graph document")
    missing = sorted(_GRAPH_KEYS - set(doc))
    if missing:
        raise ParseError(f"graph document is missing key {missing[0]!r}")
    dim = doc["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValidationError("dimension must be an integer")
    if dim < 1:
        raise ValidationError("dimension must be a positive integer")
    raw_points = doc["points"]
    if not isinstance(raw_points, list):
        raise ParseError("points must be an array")
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, dict):
            raise ParseError(f"points[{i}] must be an object")
        bad = sorted(set(entry) - _POINT_KEYS)
        if bad:
            raise ParseError(f"unknown key {bad[0]!r} in points[{i}]")
        lost = sorted(_POINT_KEYS - set(entry))
        if lost:
            raise ParseError(f"points[{i}] is missing key {lost[0]!r}")
        x = _number_list(entry["x"], f"points[{i}].x")
        xstar = _number_list(entry["xstar"], f"points[{i}].xstar")
        if x.size != dim:
            raise ValidationError(f"points[{i}].x has length {x.size}, expected {dim}")
        if xstar.size != dim:
            raise ValidationError(
                f"points[{i}].xstar has length {xstar.size}, expected {dim}"
            )
        points.append(GraphPoint(x, xstar))
    if not points:
        raise ValidationError("a graph must contain at least one point")
    return OperatorGraph(dim, tuple(points))


def _graph_from_csv(text: str) -> OperatorGraph:
    rows: list[np.ndarray] = []
    expected: int | None = None
    saw_first = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if not saw_first:
            saw_first = True
            try:
                float(fields[0])
            except ValueError:
                continue  # header row
        if expected is None:
            expected = len(fields)
            if expected < 2 or expected % 2 != 0:
                raise ParseError(
                    f"line {lineno}: expected an even number of columns (x then xstar), "
                    f"found {expected}"
                )
        elif len(fields) != expected:
            raise ParseError(
                f"line {lineno}: expected {expected} fields, found {len(fields)}"
            )
        values = np.empty(expected, dtype=np.float64)
        for fi, tok in enumerate(fields):
            try:
                values[fi] = float(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, field {fi + 1}: not a number: {tok.strip()!r}"
                ) from None
            if not np.isfinite(values[fi]):
                raise ParseError(f"line {lineno}, field {fi + 1}: non-finite value")
        rows.append(values)
    if not rows:
        raise ValidationError("a graph must contain at least one point")
    n = expected // 2  # type: ignore[operator]
    points = tuple(GraphPoint(r[:n], r[n:]) for r in rows)
    return OperatorGraph(n, points)


def load_graph(source: IO[bytes] | bytes, format: str = "json") -> OperatorGraph:
    """Parse a graph from a byte stream or bytes in ``json`` or ``csv`` format.

    JSON documents must match ``{"dimension": n, "points": [{"x": [...],
    "xstar": [...]}, ...]}`` exactly; unknown keys are rejected.  CSV rows
    carry 2n numeric columns, the first n being the primal point; a header
    row is detected by a non-numeric first token and skipped.
    """
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    if format == "json":
        return _graph_from_json(load_json_object(data))
    if format == "csv":
        return _graph_from_csv(_decode(data))
    raise ValidationError(f"unknown format {format!r}; expected 'json' or 'csv'")


def save_graph(g: OperatorGraph, format: str = "json") -> bytes:
    """Serialize a graph so that ``load_graph(save_graph(g))`` reproduces it exactly."""
    if format == "json":
        doc = {
            "dimension": g.dimension,
            "points": [
                {"x": p.x.tolist(), "xstar": p.xstar.tolist()} for p in g.points
            ],
        }
        return (dumps_canonical(doc) + "\n").encode("utf-8")
    if format == "csv":
        rows = [
            ",".join(_format_number(v) for v in (*p.x, *p.xstar)) for p in g.points
        ]
        return ("\n".join(rows) + "\n").encode("utf-8")
    raise ValidationError(f"unknown format {format!r}; expected 'json' or 'csv'")
