"""Constructive recovery of the linear skew representation of a sample.

A bimonotone sample, once translated so that one of its pairs sits at
(0, 0), is single-valued in the coordinates of the span of its primal
points, and the map from reduced primal to reduced dual coordinates is
linear and skew-symmetric.  This module extracts that span from one thin
SVD of the (m, n) array of translated primal points, at the smallest rank
that holds every primal point within tolerance, performs the coordinate
reduction, fits the representing matrix over all skew matrices by least
squares, and reassembles the affine offset of the untranslated sample.

Components of the dual points orthogonal to the span are invisible to the
reduction and do not affect bimonotonicity; they are deliberately
discarded, and all residuals are measured after projection onto the span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import ClassificationReport, bimonotone_check
from .graphs import (
    DEFAULT_TOLERANCE,
    GraphPoint,
    OperatorGraph,
    SkewfitError,
    ToleranceConfig,
    ValidationError,
    check_overflow,
    contains_origin,
    first_non_number,
    quiet_overflow,
    translate,
)

__all__ = [
    "InternalInconsistencyError",
    "NotBimonotoneError",
    "OrthonormalBasis",
    "ReconstructionReport",
    "SkewDecomposition",
    "build_skew_operator",
    "decompose",
    "reduce",
    "span_basis",
    "verify_reconstruction",
]

_EPS = float(np.finfo(np.float64).eps)


class NotBimonotoneError(SkewfitError):
    """The input sample is not bimonotone at the working tolerance."""

    def __init__(
        self,
        message: str,
        report: ClassificationReport | None = None,
        worst_index: int | None = None,
        residual: float | None = None,
    ) -> None:
        super().__init__(message)
        self.report = report
        self.worst_index = worst_index
        self.residual = residual


class InternalInconsistencyError(SkewfitError, RuntimeError):
    """Two internal views of the same data disagree; indicates a tolerance
    miscalibration rather than a property of the input."""


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _real_array(value, name: str) -> np.ndarray:
    """A decoded JSON value as a float array; ragged or non-numeric is invalid."""
    leaves = np.array(value, dtype=object)
    flat = leaves.ravel().tolist()
    if list in map(type, flat):
        raise ValidationError(f"{name} is a ragged array")
    if first_non_number(flat) is not None:
        raise ValidationError(f"{name} must hold only numbers")
    try:
        return leaves.astype(np.float64)
    except OverflowError as exc:  # an integer beyond the range of a double
        raise ValidationError(f"{name} overflows double precision") from exc


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Column-orthonormal matrix whose columns span a subspace of R^n.

    Zero columns (an empty basis for the trivial subspace) are allowed.
    """

    q: np.ndarray

    @quiet_overflow
    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_matrix(self.q, "q"))
        n, k = self.q.shape
        if k > n:
            raise ValidationError(f"basis has {k} columns but only {n} rows")
        gram = self.q.T @ self.q - np.eye(k)
        check_overflow(~np.isfinite(gram), lambda f: f"basis column {f // k}")
        gram_defect = _max_abs(gram)
        if gram_defect > 1e-12:
            raise ValidationError(
                f"basis columns are not orthonormal (defect {gram_defect:.3e})"
            )

    @property
    def ambient_dimension(self) -> int:
        return self.q.shape[0]

    @property
    def rank(self) -> int:
        return self.q.shape[1]


def span_basis(vectors, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OrthonormalBasis:
    """Orthonormal basis of the linear span of the rows of an (m, n) array.

    ``vectors`` is anything numpy reads as an (m, n) array, such as a list of
    m vectors of length n.  One thin SVD orders the directions by singular
    value.  The rank is the smallest k at which every vector v lies within
    abs_tol + rel_tol * ||v|| of the span of the first k directions, which is
    the in-span test that ``reduce`` applies, so a direction below tolerance
    never enters the basis.  No rows (m = 0) or all-zero rows yield a
    rank-zero basis of R^n.
    """
    try:
        stacked = np.asarray(vectors, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"vectors do not form an (m, n) array: {exc}") from exc
    if stacked.ndim != 2:
        raise ValidationError(f"vectors must form an (m, n) array, got shape {stacked.shape}")
    if not np.all(np.isfinite(stacked)):
        raise ValidationError("vectors contain non-finite entries")
    if not np.any(stacked):
        return OrthonormalBasis(np.zeros((stacked.shape[1], 0)))
    u, sing, vt = np.linalg.svd(stacked, full_matrices=False)
    # Coordinates along the singular directions in units of sing[0], so the
    # squares stay finite; tail[:, k] is each vector's distance to the span
    # of the first k directions.
    coords = u * (sing / sing[0])
    tail = np.sqrt(np.cumsum(coords[:, ::-1] ** 2, axis=1))[:, ::-1]
    allowed = tol.abs_tol / sing[0] + tol.rel_tol * tail[:, :1]
    k = int(np.argmax(np.append(np.all(tail <= allowed, axis=0), True)))
    return OrthonormalBasis(vt[:k].T.copy())


@quiet_overflow
def reduce(
    g: OperatorGraph,
    basis: OrthonormalBasis,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> OperatorGraph:
    """Express every pair in the coordinates of ``basis``.

    The result is a graph on R^k, where k = ``basis.rank`` may be zero.
    Primal points must lie in the span of the basis within vector
    tolerance.  Dual points are projected without such a requirement: their
    orthogonal components carry no pairing information and are dropped.
    Raises ValidationError when a point's residual or allowance overflows.
    """
    if basis.ambient_dimension != g.dimension:
        raise ValidationError(
            f"basis lives in R^{basis.ambient_dimension}, graph in R^{g.dimension}"
        )
    q = basis.q
    x = g.primal_matrix
    s = g.dual_matrix
    x_hat = x @ q
    s_hat = s @ q
    residual = np.linalg.norm(x - x_hat @ q.T, axis=1)
    allowed = tol.abs_tol + tol.rel_tol * np.linalg.norm(x, axis=1)
    check_overflow(~(np.isfinite(residual) & np.isfinite(allowed)), lambda i: f"points[{i}].x")
    bad = np.nonzero(residual > allowed)[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"points[{i}].x lies outside the span of the basis "
            f"(out-of-span residual {residual[i]:.6e})"
        )
    return OperatorGraph.from_arrays(x_hat, s_hat)


@quiet_overflow
def _span_residuals(q, a_hat, v_hat, g: OperatorGraph):
    """Per-point residuals of ``g`` against the fit, in ``q`` coordinates, and
    their scales.  Raises ValidationError when either overflows."""
    projected = g.dual_matrix @ q
    predicted = (g.primal_matrix @ q) @ a_hat.T + v_hat
    scale = np.maximum(np.linalg.norm(projected, axis=1), np.linalg.norm(predicted, axis=1))
    residual = np.linalg.norm(projected - predicted, axis=1)
    check_overflow(~(np.isfinite(residual) & np.isfinite(scale)), lambda i: f"points[{i}]")
    return residual, scale


def build_skew_operator(
    rg: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Least-squares skew-symmetric representing matrix of a reduced sample.

    Expects a reduced graph that contains (0, 0) and whose primal points
    span the reduced space.  With the thin SVD X = U diag(sigma) V^T of the
    reduced primal points and W = U^T S V for the reduced duals S, the skew
    matrix minimizing ||S - X A^T|| over all points is A = V C V^T with
    C_ij = (sigma_j W_ji - sigma_i W_ij) / (sigma_i^2 + sigma_j^2).  Every
    point is then checked against the fit.  The returned matrix is skew up to
    the rounding of the change of basis; callers wanting an exactly
    antisymmetric matrix should take its antisymmetric part.
    """
    k = rg.dimension
    if k == 0:
        return np.zeros((0, 0))
    if not contains_origin(rg, tol):
        raise ValidationError(
            "reduced graph does not contain (0, 0); translate by a graph point first"
        )
    x = rg.primal_matrix
    s = rg.dual_matrix
    u, sing, vt = np.linalg.svd(x, full_matrices=False)
    rank = int(np.count_nonzero(sing > max(x.shape) * _EPS * sing[0]))
    if rank < k:
        raise InternalInconsistencyError(
            f"reduced primal points span only {rank} of {k} directions; "
            "basis and reduction disagree"
        )
    w = u.T @ s @ vt.T
    r = sing / sing[0]  # relative singular values keep the squares finite
    core = (r[None, :] * w.T - r[:, None] * w) / (
        sing[0] * (r[:, None] ** 2 + r[None, :] ** 2)
    )
    fitted = vt.T @ core @ vt
    predicted = x @ fitted.T
    residual = np.linalg.norm(s - predicted, axis=1)
    scale = np.maximum(np.linalg.norm(s, axis=1), np.linalg.norm(predicted, axis=1))
    normalized = residual / tol.margin(scale)
    worst = int(np.argmax(normalized))
    if normalized[worst] > 1.0:
        raise NotBimonotoneError(
            f"reduced pair {worst} is not consistent with a skew-symmetric linear "
            f"map at tolerance (residual {residual[worst]:.6e}); the sample is not "
            "bimonotone at this tolerance",
            worst_index=worst,
            residual=float(residual[worst]),
        )
    return fitted


@dataclass(frozen=True, eq=False)
class SkewDecomposition:
    """Affine skew representation of a sample: on the span of the basis,
    dual = basis (a_hat (basis^T x) + v_hat) up to components orthogonal to
    the span.

    ``a_hat`` is exactly antisymmetric (the antisymmetric part of the raw
    fit); ``skewness_defect`` records how far the raw fit was from skew.
    ``max_residual`` is the largest reconstruction residual over the source
    graph, measured after projection onto the span.
    """

    basis: OrthonormalBasis
    a_hat: np.ndarray
    v_hat: np.ndarray
    basepoint: GraphPoint
    max_residual: float
    skewness_defect: float

    def __post_init__(self) -> None:
        if not isinstance(self.basis, OrthonormalBasis):
            raise ValidationError("basis must be an OrthonormalBasis")
        object.__setattr__(self, "a_hat", _as_matrix(self.a_hat, "a_hat"))
        k = self.basis.rank
        if self.a_hat.shape != (k, k):
            raise ValidationError(
                f"a_hat has shape {self.a_hat.shape}, expected ({k}, {k})"
            )
        v = np.array(self.v_hat, dtype=np.float64)
        if v.shape != (k,):
            raise ValidationError(f"v_hat has shape {v.shape}, expected ({k},)")
        if not np.all(np.isfinite(v)):
            raise ValidationError("v_hat contains non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "v_hat", v)
        if not isinstance(self.basepoint, GraphPoint):
            raise ValidationError("basepoint must be a GraphPoint")
        if self.basepoint.dimension != self.basis.ambient_dimension:
            raise ValidationError("basepoint dimension does not match the basis")
        for name in ("max_residual", "skewness_defect"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def rank(self) -> int:
        return self.basis.rank

    def to_dict(self) -> dict:
        return {
            "basis": self.basis.q.tolist(),
            "a_hat": self.a_hat.tolist(),
            "v_hat": self.v_hat.tolist(),
            "basepoint": {
                "x": self.basepoint.x.tolist(),
                "xstar": self.basepoint.xstar.tolist(),
            },
            "max_residual": self.max_residual,
            "skewness_defect": self.skewness_defect,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SkewDecomposition":
        if not isinstance(doc, dict):
            raise ValidationError("decomposition document must be an object")
        keys = {"basis", "a_hat", "v_hat", "basepoint", "max_residual", "skewness_defect"}
        unknown = sorted(set(doc) - keys)
        if unknown:
            raise ValidationError(f"unknown key {unknown[0]!r} in decomposition document")
        missing = sorted(keys - set(doc))
        if missing:
            raise ValidationError(f"decomposition document is missing key {missing[0]!r}")
        basis_raw = _real_array(doc["basis"], "basis")
        if basis_raw.ndim != 2:
            raise ValidationError("basis must be a 2-D array")
        basis = OrthonormalBasis(basis_raw)
        k = basis.rank
        try:
            a_hat = _real_array(doc["a_hat"], "a_hat").reshape(k, k)
            v_hat = _real_array(doc["v_hat"], "v_hat").reshape(k)
        except ValueError as exc:
            raise ValidationError(f"decomposition arrays have wrong shapes: {exc}") from exc
        bp = doc["basepoint"]
        if not isinstance(bp, dict) or set(bp) != {"x", "xstar"}:
            raise ValidationError("basepoint must be an object with keys x and xstar")
        basepoint = GraphPoint(
            _real_array(bp["x"], "basepoint.x"), _real_array(bp["xstar"], "basepoint.xstar")
        )
        scalars = {key: _real_array(doc[key], key) for key in ("max_residual", "skewness_defect")}
        if any(value.ndim for value in scalars.values()):
            raise ValidationError("max_residual and skewness_defect must be numbers")
        return cls(basis=basis, a_hat=a_hat, v_hat=v_hat, basepoint=basepoint, **scalars)


def decompose(
    g: OperatorGraph,
    basepoint: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> SkewDecomposition:
    """Recover the affine skew representation of a bimonotone sample.

    Pipeline: certify bimonotonicity, translate the chosen basepoint (the
    first point by default) to (0, 0), extract the span of the translated
    primal points, reduce to span coordinates, fit the skew representing
    matrix, and reassemble the offset so that
    basis^T xstar = a_hat basis^T x + v_hat holds over the original graph.

    Raises NotBimonotoneError when the input fails the bimonotone check
    (with the report attached) or when some pair misses the skew fit at
    tolerance, and InternalInconsistencyError when the reduced primal points
    fail to span the basis, which signals tolerance miscalibration rather
    than bad input.
    """
    report = bimonotone_check(g, tol)
    if not report.verdict:
        raise NotBimonotoneError(
            f"sample is not bimonotone at tolerance "
            f"(worst_violation {report.worst_violation:.6e} at pair {report.witness})",
            report=report,
        )
    idx = 0 if basepoint is None else basepoint
    if not isinstance(idx, (int, np.integer)) or isinstance(idx, bool):
        raise ValidationError("basepoint must be a point index")
    if not 0 <= idx < len(g.points):
        raise ValidationError(
            f"basepoint index {idx} out of range for {len(g.points)} points"
        )
    base = g.points[idx]
    shifted = translate(g, base.x, base.xstar)
    basis = span_basis(shifted.primal_matrix, tol)
    reduced = reduce(shifted, basis, tol)
    raw = build_skew_operator(reduced, tol)
    defect = _max_abs(raw + raw.T)
    a_hat = (raw - raw.T) / 2.0
    q = basis.q
    v_hat = q.T @ base.xstar - a_hat @ (q.T @ base.x)
    return SkewDecomposition(
        basis=basis,
        a_hat=a_hat,
        v_hat=v_hat,
        basepoint=base,
        max_residual=float(_span_residuals(q, a_hat, v_hat, g)[0].max()),
        skewness_defect=defect,
    )


@dataclass(frozen=True)
class ReconstructionReport:
    """Per-point residuals of a decomposition against a graph, measured in
    span coordinates.  Components orthogonal to the basis never contribute."""

    verdict: bool
    max_residual: float
    worst_index: int
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "worst_index": self.worst_index,
            "residuals": list(self.residuals),
        }


def verify_reconstruction(
    dec: SkewDecomposition,
    g: OperatorGraph,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> ReconstructionReport:
    """Check basis^T xstar = a_hat basis^T x + v_hat for every pair of ``g``."""
    if g.dimension != dec.basis.ambient_dimension:
        raise ValidationError(
            f"graph lives in R^{g.dimension}, decomposition in "
            f"R^{dec.basis.ambient_dimension}"
        )
    residuals, scale = _span_residuals(dec.basis.q, dec.a_hat, dec.v_hat, g)
    normalized = residuals / tol.margin(scale)
    worst = int(np.argmax(normalized))
    return ReconstructionReport(
        verdict=bool(normalized[worst] <= 1.0),
        max_residual=float(residuals.max()),
        worst_index=worst,
        residuals=tuple(float(r) for r in residuals),
    )
