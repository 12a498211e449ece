"""Constructive recovery of the linear skew representation of a sample.

A bimonotone sample, once translated so that its centre sits at (0, 0), is
single-valued in the coordinates of the span of its primal points (the
direction space of their affine hull), and the map from reduced primal to
reduced dual coordinates is linear and skew-symmetric.  ``decompose`` and
``build_skew_operator`` share one fit: one thin SVD of the translated
primal points, cut at the rank of ``span_basis``, whose factors give both
the span and the skew least-squares fit in closed form.  With
``verify_reconstruction`` they share one certificate, a fit's O(m n k)
bound, else ``bimonotone_check``'s O(m^2 n) pass (36-43 s for ``verify`` at
m = 20000, n = 20, measured on a 2-vCPU Intel Xeon), and refuse exactly
what that check refuses: NotBimonotoneError with its report (on the command
line, the not_bimonotone document, exit 1).  ``decompose`` translates by
the exactly summed centre of the sample, its ``basepoint``, which is finite
for any finite points; ``verify_reconstruction`` by the sample's mean clipped
to its range, since pairings do not change under translation.

Dual components orthogonal to the span are invisible to the reduction and
discarded; residuals are measured after projection onto the span.  ``_parts``
is the one projection onto a span, for the fit, the certificate and
``reduce``: coordinates xi, eta and off-span parts e, w of the rows.  By the
paper's identity a pairing is the misfit <dr, dxi> of the fit's residual r,
less the Gram term <deta, G dxi> of the basis's rounding, plus the leakage
<dw, de>; ``_bound`` bounds each.  The span is a ``graphs.OrthonormalBasis``;
the fallback is ``classify``'s.  Every norm is ``graphs._norm``'s, so a
residual, a scale or an allowance overflows only when its exact value lies
beyond double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .classify import ClassificationReport, bimonotone_check
from .graphs import (
    DEFAULT_TOLERANCE,
    GraphPoint,
    InternalInconsistencyError,
    OperatorGraph,
    OrthonormalBasis,
    SkewfitError,
    ToleranceConfig,
    ValidationError,
    _norm,
    check_keys,
    check_overflow,
    contains_origin,
    finite_array,
    nonnegative,
    quiet_overflow,
)

__all__ = [
    "NotBimonotoneError",
    "ReconstructionReport",
    "SkewDecomposition",
    "build_skew_operator",
    "decompose",
    "reduce",
    "span_basis",
    "verify_reconstruction",
]

class NotBimonotoneError(SkewfitError):
    """The sample is not bimonotone at the working tolerance, as ``report`` shows."""

    def __init__(self, message: str, report: ClassificationReport) -> None:
        super().__init__(message)
        self.report = report


@quiet_overflow
def _span_svd(vectors, tol: ToleranceConfig):
    """The thin SVD of an (m, n) array cut at ``span_basis``'s rank k, as
    ``(u_k, sigma_k, q)``: the rows are, within tolerance, the rows of
    ``u_k diag(sigma_k) q^T``, and ``q`` is the (n, k) basis."""
    stacked = finite_array(vectors, "vectors", 2)
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
def reduce(g: OperatorGraph, basis: OrthonormalBasis, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> OperatorGraph:
    """Express every pair in the coordinates of ``basis``.

    The result is a graph on R^k, where k = ``basis.rank`` may be zero.
    Primal points must lie in the span of the basis within vector
    tolerance.  Dual points are projected without such a requirement: their
    orthogonal components carry no pairing information and are dropped.
    Raises ValidationError when a point's residual or allowance lies beyond
    double range.
    """
    if basis.ambient_dimension != g.dimension:
        raise ValidationError(f"basis lives in R^{basis.ambient_dimension}, graph in R^{g.dimension}")
    x_hat, off_span, s_hat, _ = _parts(g.primal_matrix, g.dual_matrix, basis.q)
    residual = _norm(off_span)
    allowed = tol.abs_tol + tol.rel_tol * _norm(g.primal_matrix)
    check_overflow(~(np.isfinite(residual) & np.isfinite(allowed)), lambda i: f"points[{i}].x")
    bad = np.nonzero(residual > allowed)[0]
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"points[{i}].x lies outside the span of the basis "
                              f"(out-of-span residual {residual[i]:.6e})")
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
def _reconstruction(q, a_hat, v_hat, g: OperatorGraph, tol: ToleranceConfig, allowance: float):
    """The residual rule: each pair of ``g`` against q^T xstar = a_hat q^T x
    + v_hat, normalized by the larger of ``allowance`` and the tolerance
    margin at the larger side's norm.  Raises ValidationError when a residual
    or its scale lies beyond double range."""
    projected = g.dual_matrix @ q
    predicted = (g.primal_matrix @ q) @ a_hat.T + v_hat
    scale = np.maximum(_norm(projected), _norm(predicted))
    residual = _norm(projected - predicted)
    check_overflow(~(np.isfinite(residual) & np.isfinite(scale)), lambda i: f"points[{i}]")
    normalized = residual / np.maximum(tol.margin(scale), allowance)
    worst = int(np.argmax(normalized))
    return ReconstructionReport(verdict=bool(normalized[worst] <= 1.0), max_residual=float(residual.max()),
                                worst_index=worst, residuals=tuple(residual.tolist()))


def _certify(g: OperatorGraph, tol: ToleranceConfig) -> None:
    """The one refusal: NotBimonotoneError, with the report attached, unless
    ``bimonotone_check`` passes on ``g``."""
    report = bimonotone_check(g, tol)
    if not report.verdict:
        raise NotBimonotoneError(f"sample is not bimonotone at tolerance (worst_violation "
                                 f"{report.worst_violation:.6e} at pair {report.witness})", report)


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


@quiet_overflow
def _parts(x: np.ndarray, s: np.ndarray, q: np.ndarray):
    """The rows ``x``, ``s`` split by the basis ``q`` of a span, as ``(xi, e,
    eta, w)``: xi_i = q^T x_i and eta_i = q^T s_i in the span's coordinates,
    and e_i = x_i - q xi_i and w_i = s_i - q eta_i off the span."""
    xi, eta = x @ q, s @ q
    return xi, x - xi @ q.T, eta, s - eta @ q.T


@quiet_overflow
def _bound(x: np.ndarray, s: np.ndarray, q: np.ndarray, a_hat: np.ndarray, parts, tol: ToleranceConfig):
    """The one certificate: whether the bound B of a fit ``(q, a_hat)``, a_hat
    antisymmetric, keeps every pair of the primal and dual rows ``x``, ``s``
    within its margin; with that decision, B's terms and budget as a dict
    (misfit 4 rho R, gram 4 g H R, leakage 4 omega eps, rounding, budget).
    With ``parts`` = ``_parts(x, s, q)`` and the fit's residual r_i = eta_i -
    a_hat xi_i, exactly <ds, dx> = <dr, dxi> - <deta, G dxi> + <dw, de> for
    G = q^T q - I, so every pairing is at most B = 4 (rho R + g H R + omega
    eps), with g >= ||G||_2 and maxima over the points of upper bounds of |r|
    (rho), |xi| (R), |eta| (H), |w| (omega) and |e| (eps).  Each norm is
    padded by 2^-500, beyond underflow, and by tau = 4 (n + k + 4) sqrt(k + 1)
    (1 + g)^2 u times its row's norm (|x_i|, |s_i|, or |s_i| + ||a_hat|| |x_i|
    for r), beyond the rounding of a centred row and of each step here
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).
    ``bimonotone_check``'s rounding, gamma_{n+2} |ds| |dx|, is within
    rel_tol |ds| |dx| / 2 if rel_tol >= 2 gamma_{n+2}, else B adds it at the
    largest differences.  B <= (abs_tol + rel_tol / 2) (1 - 8 (n + 4) u) then
    keeps every pair within its margin, unless the pass overflows, which the
    guard on those differences rules out; a non-finite B certifies nothing."""
    (n, k), u = q.shape, np.finfo(np.float64).eps / 2
    gram = 2.0 * (_norm(q.T @ q - np.eye(k), None) + k * (n + 2) * u)
    tau = 4 * (n + k + 4) * math.sqrt(k + 1) * (1.0 + gram) ** 2 * u
    size_x, size_s = (tau * _norm(v) for v in (x, s))
    xi, e, eta, w = parts
    rows = (e, w, eta - xi @ a_hat.T, xi, eta)
    pads = (size_x, size_s, size_s + _norm(a_hat, None) * size_x, size_x, size_s)
    eps, omega, rho, xi, eta = (np.max(_norm(v) + p + 2.0**-500) for v, p in zip(rows, pads))
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    reach_x, reach_s = 2 * ((1 + gram) * xi + eps), 2 * ((1 + gram) * eta + omega)
    rounding = gamma * reach_x * reach_s if tol.rel_tol < 2 * gamma else 0.0
    bound = 4 * (rho * xi + gram * eta * xi + omega * eps) + rounding
    budget = (tol.abs_tol + tol.rel_tol / 2) * (1 - 8 * (n + 4) * u)
    guard = (n + 2) * (tol.abs_tol + tol.rel_tol + 1) * (reach_x + reach_s + 1) ** 2
    terms = {"misfit": 4 * rho * xi, "gram": 4 * gram * eta * xi, "leakage": 4 * omega * eps}
    return bool(np.isfinite(guard) and bound <= budget), {**terms, "rounding": rounding, "budget": budget}


@quiet_overflow
def _certified(g: OperatorGraph, centre: GraphPoint, tol: ToleranceConfig, fit=None):
    """The fit ``(q, a_hat)`` of the rows of ``g`` less ``centre``, once ``g``
    is certified bimonotone: by ``_bound`` on those rows, else by
    ``_certify``, run before anything raises.  Without a given ``fit`` it is
    the ``span_basis`` q of the primal rows X = u diag(sing) q^T and the skew
    least-squares fit in its coordinates from W = u^T S q, whose S q is the
    eta of the certificate's ``_parts``."""
    try:
        x, s = g.primal_matrix - centre.x, g.dual_matrix - centre.xstar
        u_k, sing, q = _span_svd(x, tol) if fit is None else (None, None, fit[0])
        parts = _parts(x, s, q)
        if fit is None:
            a_hat = _skew_fit(u_k.T @ parts[2], sing)
            check_overflow(~np.isfinite(a_hat), lambda f: "the skew fit")
            fit = q, a_hat
        certified = _bound(x, s, *fit, parts, tol)[0]
    except Exception:
        _certify(g, tol)
        raise
    if not certified:
        _certify(g, tol)
    return fit


def _sum(column: list, one_norm: float) -> float | None:
    """``math.fsum(column)``, its sum rounded once, or None when that sum
    lies beyond double range, from 2^1024 - 2^970 on.  A column whose 1-norm
    reaches 2^1023, where a partial sum of fsum's may overflow, is summed
    exactly, in integer multiples of 2^-1074, as every finite double is."""
    if one_norm < 2.0 ** 1023:
        return math.fsum(column)
    total = sum(n * (2 ** 1074 // d) for n, d in map(float.as_integer_ratio, column))
    return total / 2 ** 1074 if abs(total) < 2 ** 2098 - 2 ** 2044 else None


@quiet_overflow
def _centre(g: OperatorGraph) -> GraphPoint:
    """The centre of ``g``, ``decompose``'s ``basepoint``: each coordinate is
    its column's sum, rounded once by ``_sum``, over m.  When a sum lies
    beyond double range, every coordinate is summed in units of 2^e > m, so
    the centre of finite points is finite."""
    arrays, m = (g.primal_matrix, g.dual_matrix), len(g.primal_matrix)
    sums = [list(map(_sum, a.T.tolist(), np.add.reduce(np.abs(a), axis=0).tolist())) for a in arrays]
    if not any(None in row for row in sums):
        return GraphPoint(*([total / m for total in row] for row in sums))
    e = m.bit_length()
    return GraphPoint(*(np.ldexp([math.fsum(c.tolist()) / m for c in np.ldexp(a, -e).T], e) for a in arrays))


@quiet_overflow
def build_skew_operator(
    rg: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> np.ndarray:
    """Least-squares skew-symmetric representing matrix of a reduced sample.

    Expects a reduced graph that contains (0, 0) and whose primal points
    span the reduced space at the rank of ``span_basis``; a smaller rank
    raises InternalInconsistencyError.  Like ``decompose``, it refuses
    exactly what ``bimonotone_check`` refuses, running it only when the fit
    does not certify the sample, and its fit is ``decompose``'s: the skew A
    minimizing ||S - X A^T|| over the primal points X and duals S.
    The returned matrix is skew up to the rounding of the change of basis;
    callers wanting an exactly antisymmetric matrix take its antisymmetric part.
    """
    if not contains_origin(rg, tol):
        raise ValidationError(
            "reduced graph does not contain (0, 0); translate by a graph point first"
        )
    k = rg.dimension
    q, c = _certified(rg, GraphPoint(np.zeros(k), np.zeros(k)), tol)
    if q.shape[1] < k:
        raise InternalInconsistencyError(
            f"reduced primal points span only {q.shape[1]} of {k} directions; "
            "basis and reduction disagree"
        )
    return q @ c @ q.T


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
        basis = OrthonormalBasis(doc["basis"])
        a_hat = doc["a_hat"]
        if basis.rank == 0 and isinstance(a_hat, list) and not a_hat:
            a_hat = np.zeros((0, 0))  # JSON writes a 0 x 0 array as []
        try:
            basepoint = GraphPoint(bp["x"], bp["xstar"])
        except ValidationError as exc:
            raise ValidationError(f"basepoint.{exc}") from exc
        return cls(**{**doc, "basis": basis, "a_hat": a_hat, "basepoint": basepoint})


@quiet_overflow
def decompose(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> SkewDecomposition:
    """Recover the affine skew representation of a bimonotone sample.

    Pipeline: translate the centre (xbar, sbar) of the sample to (0, 0),
    take one thin SVD of the translated primal points cut at the tolerance
    rank (the basis is its right factor, and the skew least-squares fit comes
    from its other factors), and certify the sample.  The centre, recorded as
    ``basepoint``, sums each coordinate exactly (``math.fsum``), so the order
    of the points cannot change it.  With v_hat = basis^T sbar - a_hat basis^T xbar,
    ``max_residual`` is the fit's largest residual on ``g``.

    Raises NotBimonotoneError, with ``bimonotone_check``'s report attached,
    exactly when the input fails it, and otherwise ValidationError when the
    fit or a residual lies beyond double range.
    """
    centre = _centre(g)
    q, a_hat = _certified(g, centre, tol)
    v_hat = q.T @ centre.xstar - a_hat @ (q.T @ centre.x)
    fit = _reconstruction(q, a_hat, v_hat, g, tol, 0.0)
    return SkewDecomposition(basis=OrthonormalBasis(q), a_hat=a_hat, v_hat=v_hat, basepoint=centre,
                             max_residual=fit.max_residual, skewness_defect=0.0)


@quiet_overflow
def verify_reconstruction(dec: SkewDecomposition, g: OperatorGraph,
                          tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ReconstructionReport:
    """Check basis^T xstar = a_hat basis^T x + v_hat for every pair of ``g``
    within the larger of the margin and the document's ``max_residual``; if
    all pass, certify ``g`` as ``decompose`` does, with the document's basis
    and a_hat, on ``g`` less its own mean (not the ``basepoint``).  So
    ``max_residual`` buys no verdict: a sample within it that is not
    bimonotone raises NotBimonotoneError.  Pairings do not change under
    translation, so the mean need not be exact, only finite: each coordinate
    is clipped to the points' range."""
    if g.dimension != dec.basis.ambient_dimension:
        raise ValidationError(f"graph lives in R^{g.dimension}, decomposition in R^{dec.basis.ambient_dimension}")
    report = _reconstruction(dec.basis.q, dec.a_hat, dec.v_hat, g, tol, dec.max_residual)
    if report.verdict:
        arrays = g.primal_matrix, g.dual_matrix
        mean = (np.clip((a / len(a)).sum(axis=0), a.min(axis=0), a.max(axis=0)) for a in arrays)
        _certified(g, GraphPoint(*mean), tol, (dec.basis.q, dec.a_hat))
    return report
