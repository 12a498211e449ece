"""Membership tests for sampled operators.

Each check scans all point pairs of a graph and reports the largest
tolerance-normalized violation it finds, so 1.0 is the tolerance boundary
for every check.  The conditions, for pairs (x, xstar) and (y, ystar):

* monotone:            <xstar - ystar, x - y> >= 0 within tolerance
* bimonotone:          <xstar - ystar, x - y> == 0 within tolerance
* paramonotone:        whenever that product vanishes, the crossed pairs
                       (x, ystar) and (y, xstar) must already be in the graph
* constant on domain:  all dual points coincide

All scans are exact double arithmetic over every pair, quadratic in the
number of points.  Paramonotone's crossed-pair search is exact too: it
bisects over the gap values with about log2(2 |V| m) 0/1 matrix products of
|V| x m x |V| (V: the points in vanishing pairs), as float32 BLAS products.
``analyze`` returns all four reports from one pairing scan and two gap scans
(primal and dual), the primal one only for a monotone sample.  Verdicts are
order-independent; witnesses break ties by the smallest index pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_TOLERANCE,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    check_overflow,
    quiet_overflow,
)

__all__ = [
    "ClassificationReport",
    "NotMonotone",
    "analyze",
    "bimonotone_check",
    "constant_on_domain_check",
    "monotone_check",
    "paramonotone_check",
]

# Upper bound on floats materialized per difference block when scanning pairs.
_CHUNK_FLOATS = 4_000_000


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of one membership test.

    ``worst_violation`` is the largest residual found, divided by the
    tolerance margin at its scale, so the verdict is exactly
    ``worst_violation <= 1``.  ``witness`` names the index pair realizing
    it.  A failing report always carries a witness.
    """

    verdict: bool
    worst_violation: float
    witness: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "worst_violation", float(self.worst_violation))
        if self.witness is not None:
            i, j = self.witness
            object.__setattr__(self, "witness", (int(i), int(j)))
        if self.verdict != (self.worst_violation <= 1.0):
            raise ValidationError("verdict must equal worst_violation <= 1")
        if not self.verdict and self.witness is None:
            raise ValidationError("a failing report requires a witness")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class NotMonotone:
    """Distinguished outcome: paramonotonicity is not defined for a sample
    that already fails the monotone check."""

    monotone: ClassificationReport

    def to_dict(self) -> dict:
        return {"status": "not_monotone", "monotone": self.monotone.to_dict()}


def _scan(
    g: OperatorGraph, tol: ToleranceConfig, terms, out: np.ndarray | None = None
) -> ClassificationReport:
    """Largest normalized violation over the pairs (i, j), j >= i, of ``g``.

    ``terms(i0, i1)`` returns the residual and the scale of every pair whose
    first index lies in [i0, i1), as two (i1 - i0, m) arrays; a violation is
    the residual over ``tol.margin(scale)``, or the residual itself when the
    scale is None (an already normalized block).  Rows arrive in blocks of
    about ``_CHUNK_FLOATS`` floats per (rows, m, n) difference array.  Pairs
    with j < i read -inf.  A non-finite margin or violation raises, so an
    overflow never passes.  Blocks arrive in ascending row order and
    np.argmax returns the first maximum in row-major order, so the witness is
    the smallest (i, j) among ties.  When ``out`` is given, each block's
    violations are also stored in its rows.
    """
    m, n = g.primal_matrix.shape
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    worst, witness = 0.0, None
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        residual, scale = terms(i0, i1)
        margin = 1.0 if scale is None else tol.margin(scale)
        viol = residual / margin
        below = np.arange(m)[None, :] < np.arange(i0, i1)[:, None]
        check_overflow(~(np.isfinite(viol) & np.isfinite(margin)) & ~below,
                       lambda f: f"pair {(i0 + f // m, f % m)}")
        viol[below] = -np.inf
        if out is not None:
            out[i0:i1] = viol
        flat = int(np.argmax(viol))
        if viol.flat[flat] > worst:
            worst = float(viol.flat[flat])
            witness = (i0 + flat // m, flat % m)
    return ClassificationReport(verdict=worst <= 1.0, worst_violation=worst, witness=witness)


def _pairing_terms(x: np.ndarray, s: np.ndarray):
    """-<s_i - s_j, x_i - x_j> against the product of the two difference norms."""
    def terms(i0, i1):
        dx = x[i0:i1, None, :] - x[None, :, :]
        ds = s[i0:i1, None, :] - s[None, :, :]
        prod = np.einsum("ijk,ijk->ij", ds, dx)
        scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
        return -prod, scale
    return terms


def _gap_terms(v: np.ndarray):
    """||v_i - v_j|| against the larger of the two norms."""
    norms = np.linalg.norm(v, axis=1)

    def terms(i0, i1):
        gap = np.linalg.norm(v[i0:i1, None, :] - v[None, :, :], axis=2)
        return gap, np.maximum(norms[i0:i1, None], norms[None, :])
    return terms


@quiet_overflow
def monotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> is nonnegative within tolerance."""
    return _scan(g, tol, _pairing_terms(g.primal_matrix, g.dual_matrix))


@quiet_overflow
def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    pairing = _pairing_terms(g.primal_matrix, g.dual_matrix)

    def terms(i0, i1):
        residual, scale = pairing(i0, i1)
        return np.abs(residual), scale
    return _scan(g, tol, terms)


@quiet_overflow
def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    return _scan(g, tol, _gap_terms(g.dual_matrix))


def _rows(gap: np.ndarray, pts: np.ndarray, a0: int, a1: int) -> np.ndarray:
    """Rows pts[a0:a1] of a gap matrix; a view when pts is every point."""
    return gap[a0:a1] if pts.size == gap.shape[0] else gap[pts[a0:a1]]


def _median_gap(gaps, pts: np.ndarray, lo: float, hi: float) -> float | None:
    """Median of the values strictly between ``lo`` and ``hi`` in rows ``pts``
    of the gap matrices, or None when there is none.  When those rows hold
    more than ``_CHUNK_FLOATS`` values, it is the median of an evenly strided
    sample, so memory stays O(_CHUNK_FLOATS)."""
    m = gaps[0].shape[0]
    rows = max(1, _CHUNK_FLOATS // m)
    stride = -(-len(gaps) * pts.size * m // _CHUNK_FLOATS)
    sample = []
    for gap in gaps:
        for a0 in range(0, pts.size, rows):
            block = _rows(gap, pts, a0, min(pts.size, a0 + rows))
            # copied, so that the strided view does not keep the block alive
            sample.append(block[(block > lo) & (block < hi)][::stride].copy())
    sample = np.concatenate(sample)
    if not sample.size:
        return None
    return float(np.partition(sample, sample.size // 2)[sample.size // 2])


def _unmatched(gap_x: np.ndarray, gap_s: np.ndarray, pts: np.ndarray, t: float) -> np.ndarray:
    """u[a, b]: no stored point l has gap_x[pts[a], l] <= t and
    gap_s[pts[b], l] <= t, i.e. (x_pts[a], xstar_pts[b]) is farther than t
    from the graph.  One float32 0/1 product per tile of about
    ``_CHUNK_FLOATS`` floats; its counts sum nonnegative terms, so a count is
    zero exactly when no l matches, at any m."""
    m, n = gap_x.shape[0], pts.size
    rows = max(1, _CHUNK_FLOATS // m)
    u = np.empty((n, n), dtype=bool)
    mx = np.empty((min(rows, n), m), dtype=np.float32)
    ms = np.empty_like(mx)
    for a0 in range(0, n, rows):
        a1 = min(n, a0 + rows)
        np.less_equal(_rows(gap_x, pts, a0, a1), t, out=mx[: a1 - a0])
        for b0 in range(0, n, rows):
            b1 = min(n, b0 + rows)
            np.less_equal(_rows(gap_s, pts, b0, b1), t, out=ms[: b1 - b0])
            np.equal(mx[: a1 - a0] @ ms[: b1 - b0].T, 0.0, out=u[a0:a1, b0:b1])
    return u


def _crossed_pairs(
    pairing: np.ndarray, gap_x: np.ndarray, gap_s: np.ndarray
) -> ClassificationReport:
    """Paramonotone report of a monotone sample from the normalized pairing
    and gap matrices that ``_scan`` stores.  The scan fills upper triangles;
    the gap matrices are mirrored in place, a row at a time.

    need(i, j) = min_l max(gap_x[l, i], gap_s[l, j]) is the distance from
    (x_i, xstar_j) to the nearest stored pair, and a vanishing pair i < j
    violates by max(need(i, j), need(j, i)).  Every need value is a gap
    entry, so the worst violation W is the smallest gap value t at which no
    vanishing pair is ``_unmatched`` either way.  Bisection finds it, each
    step testing the ``_median_gap`` of the values still bracketed.  A pair
    that matches at a failed t < W cannot attain W and leaves the search,
    with its points, so the pairs left at the end are exactly those
    attaining W, and the witness is the smallest of them in row-major order.
    About log2(2 |V| m) products of |V| x m x |V| (V: the points in
    vanishing pairs), shrinking as pairs leave.
    """
    for gap in (gap_x, gap_s):
        for i in range(1, gap.shape[0]):
            gap[i, :i] = gap[:i, i]
    # below the diagonal the scan stores -inf, which never vanishes
    active = (pairing >= -1.0) & (pairing <= 1.0)
    np.fill_diagonal(active, False)
    keep = active.any(axis=0) | active.any(axis=1)
    pts, active = np.flatnonzero(keep), active[np.ix_(keep, keep)]
    lo, hi = -np.inf, np.inf
    while pts.size and (t := _median_gap((gap_x, gap_s), pts, lo, hi)) is not None:
        u = _unmatched(gap_x, gap_s, pts, t)
        failing = active & (u | u.T)
        if not failing.any():
            hi = t
            continue
        lo = t
        keep = failing.any(axis=0) | failing.any(axis=1)
        pts, active = pts[keep], failing[np.ix_(keep, keep)]
    if lo == -np.inf:
        # no threshold failed: every crossed pair is stored (or none is needed)
        return ClassificationReport(verdict=True, worst_violation=0.0)
    a, b = divmod(int(np.argmax(active)), pts.size)
    return ClassificationReport(verdict=hi <= 1.0, worst_violation=hi, witness=(pts[a], pts[b]))


@quiet_overflow
def analyze(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> dict:
    """The four membership reports, keyed ``monotone``, ``bimonotone``,
    ``paramonotone`` (a report, or NotMonotone) and ``constant_on_domain``.

    Each report equals the one its ``*_check`` function returns.  One signed
    pairing scan gives the monotone report, and its absolute values the
    bimonotone one.  One dual gap scan gives the constant report.  For a
    monotone sample, a primal gap scan (run before the dual one) and the
    dual gap matrix then feed the crossed-pair search, about log2(2 |V| m)
    0/1 matrix products of |V| x m x |V| (V: the points in vanishing pairs).
    Memory O(m^2).
    """
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    pairing, gap_x, gap_s = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    mono = _scan(g, tol, _pairing_terms(x, s), out=pairing)
    bimonotone = _scan(g, tol, lambda i0, i1: (np.abs(pairing[i0:i1]), None))
    if mono.verdict:
        _scan(g, tol, _gap_terms(x), out=gap_x)
    constant = _scan(g, tol, _gap_terms(s), out=gap_s)
    paramonotone = NotMonotone(monotone=mono)
    if mono.verdict:
        paramonotone = _crossed_pairs(pairing, gap_x, gap_s)
    return {
        "monotone": mono,
        "bimonotone": bimonotone,
        "paramonotone": paramonotone,
        "constant_on_domain": constant,
    }


@quiet_overflow
def paramonotone_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport | NotMonotone:
    """Vanishing pairwise products force the crossed pairs into the graph.

    For every pair whose product <xstar_i - xstar_j, x_i - x_j> vanishes
    within tolerance, both (x_i, xstar_j) and (x_j, xstar_i) must match some
    stored pair within vector tolerance in both components.  The violation of
    a missing crossed pair is its smallest normalized distance to the graph.

    This is a statement about the sample only; it neither proves nor
    disproves paramonotonicity of an underlying operator.  Returns
    NotMonotone, after the one pairing scan, when the monotone check fails.
    Otherwise two gap scans feed the crossed-pair search that ``analyze``
    runs: about log2(2 |V| m) 0/1 matrix products of |V| x m x |V| (V: the
    points in vanishing pairs); memory O(m^2).
    """
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    pairing = np.empty((m, m))
    mono = _scan(g, tol, _pairing_terms(x, s), out=pairing)
    if not mono.verdict:
        return NotMonotone(monotone=mono)
    gap_x, gap_s = np.empty((m, m)), np.empty((m, m))
    _scan(g, tol, _gap_terms(x), out=gap_x)
    _scan(g, tol, _gap_terms(s), out=gap_s)
    return _crossed_pairs(pairing, gap_x, gap_s)
