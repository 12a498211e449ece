"""Data model for finitely sampled multivalued operators on R^n.

A sampled operator is a finite collection of (primal, dual) pairs.  The same
primal point may appear with several distinct dual points, so nothing here
assumes single-valuedness.  An OperatorGraph stores the pairs as two
read-only (m, n) float64 arrays, the primal and the dual rows in sample
order.  Its one constructor, ``OperatorGraph(primal, dual)`` (also spelled
``OperatorGraph.from_arrays``), validates the two arrays as a whole; every
scan and fit works on them directly, and a GraphPoint is only a view of one
row pair, built when ``points`` is indexed.

Comparisons between nearby vectors go through an explicit ToleranceConfig;
exact (bit-level) equality is reserved for serialization round-trips and for
graph inversion, which is an involution.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import re
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from typing import IO

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
]


class SkewfitError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(SkewfitError, ValueError):
    """A value violates a structural invariant."""


class ParseError(SkewfitError, ValueError):
    """A byte stream could not be parsed into a graph."""


# Array code runs with numpy's overflow warnings silenced and hands what it
# computed to ``check_overflow``, so an overflow raises instead of passing.
quiet_overflow = np.errstate(over="ignore", invalid="ignore")


def check_overflow(broken: np.ndarray, name) -> None:
    """Raise ValidationError when ``broken`` marks any non-finite entry;
    ``name(flat_index)`` names the first one."""
    if broken.any():
        raise ValidationError(
            f"{name(int(np.argmax(broken)))} overflows double precision; rescale the sample"
        )


# ---------------------------------------------------------------------------
# Input rules shared by every module's readers and constructors: keys, finite
# arrays, nonnegative numbers and point indices, each written once.
# ---------------------------------------------------------------------------

def check_keys(doc, where: str, allowed, required, error: type[SkewfitError]) -> None:
    """Raise ``error`` unless ``doc`` is a dict with no key outside
    ``allowed`` and every key of ``required``; the first unknown key in
    sorted order, or the first missing one in ``required``'s order, is named."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object")
    unknown = doc.keys() - allowed
    if unknown:
        raise error(f"unknown key {min(unknown)!r} in {where}")
    for key in required:
        if key not in doc:
            raise error(f"{where} is missing key {key!r}")


def _reals(value, name: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=np.float64)  # always copies
    except (OverflowError, TypeError, ValueError) as exc:  # ragged, or not reals
        raise ValidationError(f"{name} is not an array of reals: {exc}") from exc
    # numpy reads None as NaN
    if np.isnan(arr).any() and any(v is None for v in np.array(value, dtype=object).flat):
        raise ValidationError(f"{name} is not an array of reals: it holds None")
    return arr


def finite_array(value, name: str, axes: int) -> np.ndarray:
    """A read-only float64 copy of ``value`` with ``axes`` axes and only
    finite entries, or ValidationError naming ``name``."""
    arr = _reals(value, name)
    if arr.ndim != axes:
        raise ValidationError(f"{name} must be a {axes}-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def nonnegative(value, name: str) -> float:
    """``value`` as a Python float when it is a real number, not a bool,
    finite and >= 0, or ValidationError naming ``name``."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            real = float(value)  # first: comparing a float32 with a bound casts the bound
            if 0.0 <= real < math.inf:
                return real
    except OverflowError:  # an integer beyond the range of a double
        pass
    raise ValidationError(f"{name} must be finite and nonnegative")


def point_index(g: OperatorGraph, idx, name: str) -> int:
    """``idx`` as the index of a point of ``g``: an integer, not a bool, in range."""
    if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
        raise ValidationError(f"{name} must be a point index")
    m = g.primal_matrix.shape[0]
    if not 0 <= idx < m:
        raise ValidationError(f"{name} index {idx} out of range for {m} points")
    return int(idx)


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
        object.__setattr__(self, "abs_tol", nonnegative(self.abs_tol, "abs_tol"))
        object.__setattr__(self, "rel_tol", nonnegative(self.rel_tol, "rel_tol"))
        if self.abs_tol == 0.0 and self.rel_tol == 0.0:
            raise ValidationError("abs_tol and rel_tol cannot both be zero")

    def margin(self, scale):
        """Tolerance budget at ``scale`` (scalar or array), scale floored at 1."""
        return self.abs_tol + self.rel_tol * np.maximum(scale, 1.0)

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLERANCE = ToleranceConfig()


@quiet_overflow
def _close(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig, name):
    """Whether ``||a - b|| <= abs_tol + rel_tol * max(||a||, ||b||)`` over the
    last axis, broadcasting leading axes.  Raises ValidationError when a
    distance or an allowance overflows; ``name(flat_index)`` names the first."""
    gap = np.linalg.norm(a - b, axis=-1)
    scale = np.maximum(np.linalg.norm(a, axis=-1), np.linalg.norm(b, axis=-1))
    allowed = tol.abs_tol + tol.rel_tol * scale
    check_overflow(~(np.isfinite(gap) & np.isfinite(allowed)), name)
    return gap <= allowed


@dataclass(frozen=True, eq=False)
class GraphPoint:
    """One sampled pair (x, xstar) with matching dimensions."""

    x: np.ndarray
    xstar: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", finite_array(self.x, "x", 1))
        object.__setattr__(self, "xstar", finite_array(self.xstar, "xstar", 1))
        if self.x.size != self.xstar.size:
            raise ValidationError(
                f"x has dimension {self.x.size} but xstar has dimension {self.xstar.size}"
            )

    @classmethod
    def _view(cls, x: np.ndarray, xstar: np.ndarray) -> "GraphPoint":
        """A point over two read-only rows of a graph, without copying them."""
        point = object.__new__(cls)
        object.__setattr__(point, "x", x)
        object.__setattr__(point, "xstar", xstar)
        return point

    @property
    def dimension(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphPoint):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.xstar, other.xstar)

    def __repr__(self) -> str:
        return f"GraphPoint(x={self.x.tolist()}, xstar={self.xstar.tolist()})"


class _Points(Sequence):
    """The pairs of a graph as a read-only sequence of GraphPoint views."""

    __slots__ = ("_x", "_s")

    def __init__(self, x: np.ndarray, s: np.ndarray) -> None:
        self._x = x
        self._s = s

    def __len__(self) -> int:
        return self._x.shape[0]

    def __getitem__(self, index) -> GraphPoint:
        index = operator.index(index)
        return GraphPoint._view(self._x[index], self._s[index])

    def __iter__(self):
        return map(GraphPoint._view, self._x, self._s)


class OperatorGraph:
    """A finite, nonempty sample of a multivalued operator on R^n.

    ``OperatorGraph(primal, dual)`` copies two (m, n) array-likes, m >= 1,
    whose rows are the primal and the dual points in sample order, into the
    read-only ``primal_matrix`` and ``dual_matrix``.  n may be zero, which is
    how a sample reduced to the trivial span is represented.
    """

    __slots__ = ("_x", "_s")

    def __init__(self, primal, dual) -> None:
        x, s = _reals(primal, "primal"), _reals(dual, "dual")
        if x.shape[:1] == (0,):
            raise ValidationError("a graph must contain at least one point")
        if x.ndim != 2 or x.shape != s.shape:
            raise ValidationError(f"primal rows have shape {x.shape}, dual rows {s.shape}")
        for name, rows in (("x", x), ("xstar", s)):
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:
                raise ValidationError(f"points[{bad[0]}].{name} contains non-finite entries")
        x.setflags(write=False)
        s.setflags(write=False)
        self._x, self._s = x, s

    @classmethod
    def from_arrays(cls, primal, dual) -> "OperatorGraph":
        """Build a graph from two (m, n) arrays whose rows are vectors; the
        same as ``OperatorGraph(primal, dual)``."""
        return cls(primal, dual)

    @property
    def dimension(self) -> int:
        return self._x.shape[1]

    @property
    def points(self) -> Sequence[GraphPoint]:
        """The pairs in graph order; indexing builds a GraphPoint view."""
        return _Points(self._x, self._s)

    @property
    def primal_matrix(self) -> np.ndarray:
        """Read-only (m, n) array whose rows are the primal points, in graph order."""
        return self._x

    @property
    def dual_matrix(self) -> np.ndarray:
        """Read-only (m, n) array whose rows are the dual points, in graph order."""
        return self._s

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorGraph):
            return NotImplemented
        return np.array_equal(self._x, other._x) and np.array_equal(self._s, other._s)

    def __repr__(self) -> str:
        return f"OperatorGraph(dimension={self.dimension}, points=<{len(self._x)}>)"


def contains_origin(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> bool:
    """Whether some pair of ``g`` is close to (0, 0) in both components."""
    zero = np.zeros(g.dimension)
    return bool(np.any(_close(g.primal_matrix, zero, tol, lambda i: f"points[{i}].x")
                       & _close(g.dual_matrix, zero, tol, lambda i: f"points[{i}].xstar")))


def domain(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> list[np.ndarray]:
    """Distinct primal points of ``g`` in first-appearance order.

    Two primal points count as the same element of the domain when ``_close``
    holds for them.  Closeness is not transitive, so each point is compared
    with the representatives kept so far, greedily.
    """
    x = g.primal_matrix
    reps = [0]
    for i in range(1, x.shape[0]):
        close = _close(x[reps], x[i], tol,
                       lambda r: f"the distance from points[{i}].x to points[{reps[r]}].x")
        if not np.any(close):
            reps.append(i)
    return [x[i] for i in reps]


def inverse_graph(g: OperatorGraph) -> OperatorGraph:
    """Swap primal and dual in every pair.  Applying it twice is the identity."""
    return OperatorGraph.from_arrays(g.dual_matrix, g.primal_matrix)


@quiet_overflow
def translate(g: OperatorGraph, u, ustar) -> OperatorGraph:
    """Shift every pair by (-u, -ustar), moving the basepoint (u, ustar) to (0, 0)."""
    u = finite_array(u, "u", 1)
    ustar = finite_array(ustar, "ustar", 1)
    if u.size != g.dimension:
        raise ValidationError(f"u has dimension {u.size}, expected {g.dimension}")
    if ustar.size != g.dimension:
        raise ValidationError(f"ustar has dimension {ustar.size}, expected {g.dimension}")
    return OperatorGraph.from_arrays(g.primal_matrix - u, g.dual_matrix - ustar)


# ---------------------------------------------------------------------------
# Serialization.  Floats are written in their shortest form that reads back
# to the same IEEE binary64 value, so every round-trip is exact.
# ---------------------------------------------------------------------------

def dumps_canonical(value) -> str:
    """Serialize plain Python values (dicts, lists, str, int, float, bool,
    None) to JSON with deterministic bytes and shortest round-trip floats."""
    try:
        return json.dumps(value, allow_nan=False)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    except ValueError as exc:
        raise ValidationError("cannot serialize a non-finite number") from exc


_GRAPH_KEYS = ("dimension", "points")
_POINT_KEYS = ("x", "xstar")
_NUMBER_TYPES = frozenset({int, float})


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _first_non_number(items: list) -> int | None:
    """Index of the first item that is not a JSON number, or None.  This is
    every reader's number rule: an int or a float, and never true or false."""
    if _NUMBER_TYPES.issuperset(map(type, items)):
        return None
    return next(j for j, item in enumerate(items) if type(item) not in _NUMBER_TYPES)


def _number_row(value, where: str, dim: int) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be an array of numbers")
    j = _first_non_number(value)
    if j is not None:
        raise ParseError(f"{where}[{j}] is not a number")
    if len(value) != dim:
        raise ValidationError(f"{where} has length {len(value)}, expected {dim}")
    return value


def json_array(value, name: str) -> np.ndarray:
    """A decoded JSON value as a float array; ragged or non-numeric is invalid."""
    leaves = np.array(value, dtype=object)
    flat = leaves.ravel().tolist()
    if list in map(type, flat):
        raise ValidationError(f"{name} is a ragged array")
    if _first_non_number(flat) is not None:
        raise ValidationError(f"{name} must hold only numbers")
    try:
        return leaves.astype(np.float64)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise ValidationError(f"{name} overflows double precision") from exc


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
    check_keys(doc, "graph document", _GRAPH_KEYS, _GRAPH_KEYS, ParseError)
    dim = doc["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValidationError("dimension must be an integer")
    if dim < 1:
        raise ValidationError("dimension must be a positive integer")
    raw_points = doc["points"]
    if not isinstance(raw_points, list):
        raise ParseError("points must be an array")
    primal, dual = [], []
    for i, entry in enumerate(raw_points):
        check_keys(entry, f"points[{i}]", _POINT_KEYS, _POINT_KEYS, ParseError)
        primal.append(_number_row(entry["x"], f"points[{i}].x", dim))
        dual.append(_number_row(entry["xstar"], f"points[{i}].xstar", dim))
    return OperatorGraph.from_arrays(primal, dual)


# A CSV field is a number when it is spelled as a JSON number, or as one of
# the non-finite values that ``float`` reads, which are then rejected as such.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
_NON_FINITE = re.compile(r"[-+]?(?:nan|inf|infinity)", re.IGNORECASE)


def _csv_number(field: str) -> float | None:
    """A stripped CSV field as a float, or None when it is not a number."""
    if _JSON_NUMBER.fullmatch(field) or _NON_FINITE.fullmatch(field):
        return float(field)
    return None


def _graph_from_csv(text: str) -> OperatorGraph:
    rows: list[list[float]] = []
    expected: int | None = None
    saw_first = False
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        if not line.strip():
            continue
        fields = [field.strip() for field in line.split(",")]
        values = list(map(_csv_number, fields))
        if not saw_first:
            saw_first = True
            if all(value is None for value in values):
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
        for fi, value in enumerate(values):
            if value is None:
                raise ParseError(f"line {lineno}, field {fi + 1}: not a number: {fields[fi]!r}")
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}, field {fi + 1}: non-finite value")
        rows.append(values)
    if not rows:
        raise ValidationError("a graph must contain at least one point")
    table = np.array(rows)
    n = expected // 2  # type: ignore[operator]
    return OperatorGraph.from_arrays(table[:, :n], table[:, n:])


def load_graph(source: IO[bytes] | bytes, format: str = "json") -> OperatorGraph:
    """Parse a graph from a byte stream or bytes in ``json`` or ``csv`` format.

    JSON documents must match ``{"dimension": n, "points": [{"x": [...],
    "xstar": [...]}, ...]}`` exactly, with n >= 1; unknown keys are
    rejected.  CSV rows carry 2n numeric columns, the first n being the
    primal point, each field a number spelled as JSON spells it; a leading
    byte order mark is dropped, and the first non-blank row is skipped as a
    header when none of its fields reads as a number.
    """
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    if format == "json":
        return _graph_from_json(load_json_object(data))
    if format == "csv":
        return _graph_from_csv(_decode(data))
    raise ValidationError(f"unknown format {format!r}; expected 'json' or 'csv'")


def save_graph(g: OperatorGraph, format: str = "json") -> bytes:
    """Serialize a graph so that ``load_graph(save_graph(g))`` reproduces it exactly."""
    primal = g.primal_matrix.tolist()
    dual = g.dual_matrix.tolist()
    if format == "json":
        doc = {
            "dimension": g.dimension,
            "points": [{"x": x, "xstar": s} for x, s in zip(primal, dual)],
        }
        return (dumps_canonical(doc) + "\n").encode("utf-8")
    if format == "csv":
        rows = [",".join(map(repr, x + s)) for x, s in zip(primal, dual)]
        return ("\n".join(rows) + "\n").encode("utf-8")
    raise ValidationError(f"unknown format {format!r}; expected 'json' or 'csv'")
