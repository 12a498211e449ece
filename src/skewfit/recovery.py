"""Constructive recovery of the linear skew representation of a sample.

A bimonotone sample, once translated so that one of its pairs sits at
(0, 0), is single-valued in the coordinates of the span of its primal
points, and the map from reduced primal to reduced dual coordinates is
linear and skew-symmetric.  ``decompose`` and ``build_skew_operator`` share
one fit: one thin SVD of the translated primal points, cut at the rank of
``span_basis``, whose factors give both the span and the skew least-squares
fit in closed form.  The residual rule of ``verify_reconstruction`` accepts
that fit, with its affine offset, on the untranslated sample.

Components of the dual points orthogonal to the span are invisible to the
reduction and do not affect bimonotonicity; they are deliberately
discarded, and all residuals are measured after projection onto the span.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .classify import ClassificationReport, bimonotone_check
from .graphs import (
    DEFAULT_TOLERANCE,
    GraphPoint,
    OperatorGraph,
    SkewfitError,
    ToleranceConfig,
    ValidationError,
    check_keys,
    check_overflow,
    contains_origin,
    finite_array,
    json_array,
    nonnegative,
    point_index,
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


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Column-orthonormal matrix whose columns span a subspace of R^n.

    Zero columns (an empty basis for the trivial subspace) are allowed.
    """

    q: np.ndarray

    @quiet_overflow
    def __post_init__(self) -> None:
        object.__setattr__(self, "q", finite_array(self.q, "basis", 2))
        n, k = self.q.shape
        if k > n:
            raise ValidationError(f"basis has {k} columns but only {n} rows")
        gram = self.q.T @ self.q - np.eye(k)
        check_overflow(~np.isfinite(gram), lambda f: f"basis column {f // k}")
        gram_defect = float(np.max(np.abs(gram))) if k else 0.0
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


@quiet_overflow
def _span_svd(vectors, tol: ToleranceConfig):
    """The thin SVD of an (m, n) array cut at ``span_basis``'s rank k, as
    ``(u_k, sigma_k, q)``: the rows are, within tolerance, the rows of
    ``u_k diag(sigma_k) q^T``, and ``q`` is the (n, k) basis."""
    stacked = finite_array(vectors, "the (m, n) array of vectors", 2)
    m, n = stacked.shape
    if not np.any(stacked):
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    u, sing, vt = np.linalg.svd(stacked, full_matrices=False)
    # Coordinates along the singular directions in units of sing[0], so the
    # squares stay finite; tail[:, k] is each vector's distance to the span
    # of the first k directions.
    coords = u * (sing / sing[0])
    tail = np.sqrt(np.cumsum(coords[:, ::-1] ** 2, axis=1))[:, ::-1]
    allowed = tol.abs_tol / sing[0] + tol.rel_tol * tail[:, :1]
    k = int(np.argmax(np.append(np.all(tail <= allowed, axis=0), True)))
    return u[:, :k], sing[:k], vt[:k].T.copy()


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
    return OrthonormalBasis(_span_svd(vectors, tol)[2])


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


@dataclass(frozen=True)
class ReconstructionReport:
    """Per-point residuals of a decomposition against a graph, measured in
    span coordinates.  Components orthogonal to the basis never contribute."""

    verdict: bool
    max_residual: float
    worst_index: int
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {**vars(self), "residuals": list(self.residuals)}


@quiet_overflow
def _reconstruction(q, a_hat, v_hat, g: OperatorGraph, tol: ToleranceConfig, strict=False):
    """The residual rule: each pair of ``g`` against q^T xstar = a_hat q^T x
    + v_hat, normalized by the tolerance margin at the larger side's norm.
    Raises ValidationError when a residual or its scale overflows, and, if
    ``strict``, NotBimonotoneError when some pair misses the fit."""
    projected = g.dual_matrix @ q
    predicted = (g.primal_matrix @ q) @ a_hat.T + v_hat
    scale = np.maximum(np.linalg.norm(projected, axis=1), np.linalg.norm(predicted, axis=1))
    residual = np.linalg.norm(projected - predicted, axis=1)
    check_overflow(~(np.isfinite(residual) & np.isfinite(scale)), lambda i: f"points[{i}]")
    normalized = residual / tol.margin(scale)
    worst = int(np.argmax(normalized))
    if strict and normalized[worst] > 1.0:
        raise NotBimonotoneError(
            f"reduced pair {worst} is not consistent with a skew-symmetric linear "
            f"map at tolerance (residual {residual[worst]:.6e}); the sample is not "
            "bimonotone at this tolerance",
            worst_index=worst,
            residual=float(residual[worst]),
        )
    return ReconstructionReport(
        verdict=bool(normalized[worst] <= 1.0),
        max_residual=float(residual.max()),
        worst_index=worst,
        residuals=tuple(float(r) for r in residual),
    )


@quiet_overflow
def _skew_fit(w: np.ndarray, sing: np.ndarray) -> np.ndarray:
    """The skew C minimizing ||S V - U diag(sing) C^T|| given W = U^T S V:
    C_ij = (sing_j W_ji - sing_i W_ij) / (sing_i^2 + sing_j^2), exactly
    antisymmetric since C_ij and C_ji negate one numerator over one
    denominator.  An overflow leaves non-finite entries."""
    # each pair in units of its larger singular value: the denominator is in [1, 2]
    top = np.maximum(sing[:, None], sing[None, :])
    ri, rj = sing[:, None] / top, sing[None, :] / top
    return (rj * w.T - ri * w) / (ri**2 + rj**2) / top


def _fit(shifted: OperatorGraph, tol: ToleranceConfig):
    """``(q, a_hat)`` for a graph with a pair at (0, 0): the ``span_basis``
    of its primal points X = u diag(sing) q^T, and the skew least-squares
    fit in its coordinates from W = u^T S q.  Raises ValidationError when
    the fit overflows."""
    u, sing, q = _span_svd(shifted.primal_matrix, tol)
    a_hat = _skew_fit(u.T @ (shifted.dual_matrix @ q), sing)
    check_overflow(~np.isfinite(a_hat), lambda f: "the skew fit")
    return q, a_hat


@quiet_overflow
def build_skew_operator(
    rg: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Least-squares skew-symmetric representing matrix of a reduced sample.

    Expects a reduced graph that contains (0, 0) and whose primal points
    span the reduced space at the rank of ``span_basis``; a smaller rank
    raises InternalInconsistencyError.  The fit is ``decompose``'s: the skew
    A minimizing ||S - X A^T|| over the primal points X and duals S.  Every
    point is then checked against it by ``verify_reconstruction``'s rule.
    The returned matrix is skew up to the rounding of the change of basis;
    callers wanting an exactly antisymmetric matrix take its antisymmetric part.
    """
    if not contains_origin(rg, tol):
        raise ValidationError(
            "reduced graph does not contain (0, 0); translate by a graph point first"
        )
    q, c = _fit(rg, tol)
    k = rg.dimension
    if q.shape[1] < k:
        raise InternalInconsistencyError(
            f"reduced primal points span only {q.shape[1]} of {k} directions; "
            "basis and reduction disagree"
        )
    fitted = q @ c @ q.T
    _reconstruction(np.eye(k), fitted, np.zeros(k), rg, tol, strict=True)
    return fitted


@dataclass(frozen=True, eq=False)
class SkewDecomposition:
    """Affine skew representation of a sample: on the span of the basis,
    dual = basis (a_hat (basis^T x) + v_hat) up to components orthogonal to
    the span.

    ``a_hat`` must be exactly antisymmetric, and ``max_residual`` and
    ``skewness_defect`` finite and nonnegative; anything else certifies no
    skew form and raises ValidationError.  ``decompose`` writes 0.0 for
    ``skewness_defect``, a field kept so that older documents still load.
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
        object.__setattr__(self, "a_hat", finite_array(self.a_hat, "a_hat", 2))
        object.__setattr__(self, "v_hat", finite_array(self.v_hat, "v_hat", 1))
        k = self.basis.rank
        if self.a_hat.shape != (k, k):
            raise ValidationError(
                f"a_hat has shape {self.a_hat.shape}, expected ({k}, {k})"
            )
        if self.v_hat.shape != (k,):
            raise ValidationError(f"v_hat has shape {self.v_hat.shape}, expected ({k},)")
        if not np.array_equal(self.a_hat, -self.a_hat.T):
            raise ValidationError("a_hat must be exactly antisymmetric")
        if not isinstance(self.basepoint, GraphPoint):
            raise ValidationError("basepoint must be a GraphPoint")
        if self.basepoint.dimension != self.basis.ambient_dimension:
            raise ValidationError("basepoint dimension does not match the basis")
        for name in ("max_residual", "skewness_defect"):
            object.__setattr__(self, name, nonnegative(getattr(self, name), name))

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
        keys = [f.name for f in fields(cls)]
        check_keys(doc, "decomposition document", keys, keys, ValidationError)
        bp, bp_keys = doc["basepoint"], [f.name for f in fields(GraphPoint)]
        check_keys(bp, "basepoint", bp_keys, bp_keys, ValidationError)
        basis = OrthonormalBasis(json_array(doc["basis"], "basis"))
        a_hat = json_array(doc["a_hat"], "a_hat")
        if basis.rank == 0 and a_hat.shape == (0,):  # JSON writes a 0 x 0 array as []
            a_hat = a_hat.reshape(0, 0)
        basepoint = GraphPoint(
            json_array(bp["x"], "basepoint.x"), json_array(bp["xstar"], "basepoint.xstar")
        )
        return cls(basis=basis, a_hat=a_hat, v_hat=json_array(doc["v_hat"], "v_hat"),
                   basepoint=basepoint, max_residual=doc["max_residual"],
                   skewness_defect=doc["skewness_defect"])


@quiet_overflow
def decompose(
    g: OperatorGraph,
    basepoint: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCE,
) -> SkewDecomposition:
    """Recover the affine skew representation of a bimonotone sample.

    Pipeline: certify bimonotonicity, translate the chosen basepoint (the
    first point by default) to (0, 0), and take one thin SVD of the
    translated primal points cut at the tolerance rank: the basis is its
    right factor, and the skew least-squares fit comes from its other
    factors.  With the offset reassembled, the rule of
    ``verify_reconstruction`` accepts basis^T xstar = a_hat basis^T x +
    v_hat over the original graph, so the result verifies on ``g`` at ``tol``.

    Raises NotBimonotoneError when the input fails the bimonotone check
    (with the report attached) or when some pair misses the skew fit at
    tolerance, and ValidationError when the fit or a residual overflows.
    """
    report = bimonotone_check(g, tol)
    if not report.verdict:
        raise NotBimonotoneError(
            f"sample is not bimonotone at tolerance "
            f"(worst_violation {report.worst_violation:.6e} at pair {report.witness})",
            report=report,
        )
    base = g.points[point_index(g, 0 if basepoint is None else basepoint, "basepoint")]
    shifted = translate(g, base.x, base.xstar)
    q, a_hat = _fit(shifted, tol)
    basis = OrthonormalBasis(q)
    v_hat = q.T @ base.xstar - a_hat @ (q.T @ base.x)
    fit = _reconstruction(q, a_hat, v_hat, g, tol, strict=True)
    return SkewDecomposition(basis=basis, a_hat=a_hat, v_hat=v_hat, basepoint=base,
                             max_residual=fit.max_residual, skewness_defect=0.0)


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
    return _reconstruction(dec.basis.q, dec.a_hat, dec.v_hat, g, tol)
