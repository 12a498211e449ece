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
line, the not_bimonotone document, exit 1).  Both translate by the exactly
summed centre of the sample, which is finite for any finite points.

Dual components orthogonal to the span are invisible to the reduction and
discarded; residuals are measured after projection onto the span.  Off it, a
pairing gains <dw, de> from the discarded parts dw and off-span parts de.
"""

from __future__ import annotations

import math
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
    nonnegative,
    quiet_overflow,
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
    """The sample is not bimonotone at the working tolerance, as ``report`` shows."""

    def __init__(self, message: str, report: ClassificationReport) -> None:
        super().__init__(message)
        self.report = report


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
def _reconstruction(q, a_hat, v_hat, g: OperatorGraph, tol: ToleranceConfig, allowance: float):
    """The residual rule: each pair of ``g`` against q^T xstar = a_hat q^T x
    + v_hat, normalized by the larger of ``allowance`` and the tolerance
    margin at the larger side's norm.  Raises ValidationError when a residual
    or its scale overflows."""
    projected = g.dual_matrix @ q
    predicted = (g.primal_matrix @ q) @ a_hat.T + v_hat
    scale = np.maximum(np.linalg.norm(projected, axis=1), np.linalg.norm(predicted, axis=1))
    residual = np.linalg.norm(projected - predicted, axis=1)
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
def _bound_certifies(x: np.ndarray, s: np.ndarray, q: np.ndarray, a_hat: np.ndarray,
                     tol: ToleranceConfig) -> bool:
    """The one certificate: whether the bound B of a fit ``(q, a_hat)``, a_hat
    antisymmetric, keeps every pair of the primal and dual rows ``x``, ``s``
    within its margin.  With xi_i = q^T x_i, e_i = x_i - q xi_i (off the span),
    eta_i = q^T s_i, w_i = s_i - q eta_i and r_i = eta_i - a_hat xi_i (the fit's
    residual), exactly <ds, dx> = <dr, dxi> - <deta, G dxi> + <dw, de> for
    G = q^T q - I, so every pairing is at most B = 4 (rho R + g H R + omega eps),
    with g >= ||G||_2 and maxima over the points of upper bounds of |r| (rho),
    |xi| (R), |eta| (H), |w| (omega) and |e| (eps).  Each norm is padded by
    2^-500, beyond underflow, and by tau = 4 (n + k + 4) sqrt(k + 1) (1 + g)^2 u
    times its row's norm (|x_i|, |s_i|, or |s_i| + ||a_hat|| |x_i| for r),
    beyond the rounding of a centred row and of each step here (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3).
    ``bimonotone_check``'s rounding, gamma_{n+2} |ds| |dx|, is within
    rel_tol |ds| |dx| / 2 if rel_tol >= 2 gamma_{n+2}, else B adds it at the
    largest differences.  B <= (abs_tol + rel_tol / 2) (1 - 8 (n + 4) u) then
    keeps every pair within its margin, unless the pass overflows, which the
    guard on those differences rules out; a non-finite B certifies nothing."""
    (n, k), u = q.shape, np.finfo(np.float64).eps / 2
    gram = 2.0 * (np.linalg.norm(q.T @ q - np.eye(k)) + k * (n + 2) * u)
    tau = 4 * (n + k + 4) * math.sqrt(k + 1) * (1.0 + gram) ** 2 * u
    size_x, size_s = (tau * np.linalg.norm(v, axis=1) for v in (x, s))
    xi, eta = x @ q, s @ q
    parts = (x - xi @ q.T, s - eta @ q.T, eta - xi @ a_hat.T, xi, eta)
    pads = (size_x, size_s, size_s + np.linalg.norm(a_hat) * size_x, size_x, size_s)
    eps, omega, rho, xi, eta = (np.max(np.linalg.norm(v, axis=1) + p + 2.0**-500) for v, p in zip(parts, pads))
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    reach_x, reach_s = 2 * ((1 + gram) * xi + eps), 2 * ((1 + gram) * eta + omega)
    bound = 4 * (rho * xi + gram * eta * xi + omega * eps)
    bound += gamma * reach_x * reach_s if tol.rel_tol < 2 * gamma else 0.0
    guard = (n + 2) * (tol.abs_tol + tol.rel_tol + 1) * (reach_x + reach_s + 1) ** 2
    return bool(np.isfinite(guard) and bound <= (tol.abs_tol + tol.rel_tol / 2) * (1 - 8 * (n + 4) * u))


@quiet_overflow
def _certified(g: OperatorGraph, centre: GraphPoint, tol: ToleranceConfig, fit=None):
    """The fit ``(q, a_hat)`` of the rows of ``g`` less ``centre``, once ``g``
    is certified bimonotone: by ``_bound_certifies`` on those rows, else by
    ``_certify``, run before anything raises.  Without a given ``fit`` it is
    the ``span_basis`` q of the primal rows X = u diag(sing) q^T and the skew
    least-squares fit in its coordinates from W = u^T S q."""
    try:
        x, s = g.primal_matrix - centre.x, g.dual_matrix - centre.xstar
        if fit is None:
            u_k, sing, q = _span_svd(x, tol)
            a_hat = _skew_fit(u_k.T @ (s @ q), sing)
            check_overflow(~np.isfinite(a_hat), lambda f: "the skew fit")
            fit = q, a_hat
        certified = _bound_certifies(x, s, *fit, tol)
    except Exception:
        _certify(g, tol)
        raise
    if not certified:
        _certify(g, tol)
    return fit


# Rounds of extraction before what is left of a column goes to fsum whole
_EXTRACT_ROUNDS = 4


def _column_fsums(a: np.ndarray) -> list[float]:
    """``math.fsum`` of each column of the (m, n) array ``a``, for
    m max|a| < 2^1021, by the error-free extraction of Rump, Ogita and Oishi
    (SIAM J. Sci. Comput. 31, 2008): each round splits every entry p into
    q = (sigma + p) - sigma and p - q, with sigma a power of two at least
    (m + 2) max|p| over the column, so that q sums exactly in any order.
    fsum, correctly rounded, then adds those sums and the nonzero entries
    left after ``_EXTRACT_ROUNDS``.  A zero sum is taken again over the
    whole column, whose zeros fsum may sign otherwise than the parts'."""
    p = a.T.copy()
    shift = (p.shape[1] + 1).bit_length()
    parts = []
    for _ in range(_EXTRACT_ROUNDS):
        top = np.maximum(p.max(axis=1), -p.min(axis=1))
        sigma = np.ldexp(1.0, np.frexp(top)[1] + shift)[:, None]
        q = sigma + p
        q -= sigma
        p -= q
        parts.append(q.sum(axis=1))
        if not p.any():
            rests = [[]] * len(p)
            break
    else:
        rests = [rest[rest != 0].tolist() for rest in p]
    sums = []
    for column, exact, rest in zip(a.T, zip(*parts), rests):
        total = math.fsum([*exact, *rest])
        sums.append(total if total else math.fsum(column.tolist()))
    return sums


def _centre(g: OperatorGraph) -> GraphPoint:
    """The exact (``math.fsum``) centre of ``g``, finite for finite points.
    Sums that cannot reach 2^1021 go through ``_column_fsums``; otherwise,
    when a sum overflows, every coordinate is summed in units of 2^e > m."""
    arrays = g.primal_matrix, g.dual_matrix
    m = len(g.primal_matrix)
    big = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays)
    if math.frexp(big)[1] + m.bit_length() <= 1021:
        return GraphPoint(*([total / m for total in _column_fsums(a)] for a in arrays))
    try:
        return GraphPoint(*([math.fsum(c.tolist()) / len(c) for c in a.T] for a in arrays))
    except OverflowError:
        e = len(g.primal_matrix).bit_length()
        return GraphPoint(*(np.ldexp([math.fsum(c.tolist()) / len(c) for c in np.ldexp(a, -e).T], e) for a in arrays))


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
    fit or a residual overflows.
    """
    centre = _centre(g)
    q, a_hat = _certified(g, centre, tol)
    v_hat = q.T @ centre.xstar - a_hat @ (q.T @ centre.x)
    fit = _reconstruction(q, a_hat, v_hat, g, tol, 0.0)
    return SkewDecomposition(basis=OrthonormalBasis(q), a_hat=a_hat, v_hat=v_hat, basepoint=centre,
                             max_residual=fit.max_residual, skewness_defect=0.0)


def verify_reconstruction(dec: SkewDecomposition, g: OperatorGraph,
                          tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ReconstructionReport:
    """Check basis^T xstar = a_hat basis^T x + v_hat for every pair of ``g``
    within the larger of the margin and the document's ``max_residual``; if
    all pass, certify ``g`` as ``decompose`` does, on ``g`` less its own centre
    (not the ``basepoint``) with the document's basis and a_hat.  So
    ``max_residual`` buys no verdict: a sample within it that is not
    bimonotone raises NotBimonotoneError."""
    if g.dimension != dec.basis.ambient_dimension:
        raise ValidationError(f"graph lives in R^{g.dimension}, decomposition in R^{dec.basis.ambient_dimension}")
    report = _reconstruction(dec.basis.q, dec.a_hat, dec.v_hat, g, tol, dec.max_residual)
    if report.verdict:
        _certified(g, _centre(g), tol, (dec.basis.q, dec.a_hat))
    return report
