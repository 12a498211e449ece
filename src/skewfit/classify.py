"""Membership tests for sampled operators.

Each check scans all point pairs of a graph and reports the largest
tolerance-normalized violation it finds, so 1.0 is the tolerance boundary
for every check.  The conditions, for pairs (x, xstar) and (y, ystar):

* monotone:            <xstar - ystar, x - y> >= 0 within tolerance
* bimonotone:          <xstar - ystar, x - y> == 0 within tolerance
* paramonotone:        whenever that product vanishes, the crossed pairs
                       (x, ystar) and (y, xstar) must already be in the graph
* constant on domain:  all dual points coincide

Every check is one pass over the upper triangle of point pairs, exact
double arithmetic quadratic in the number of points: each pair's differences
are formed once, and their product and two norms give the pairing and both
gap violations.  Paramonotone's crossed-pair search is exact too: it bisects
over the gap values.  ``_pair_pass`` and ``_crossed_pairs`` state what each
costs.  ``analyze`` returns all four reports from that one pass and the
search.  Verdicts are order-independent; witnesses break ties by the
smallest index pair.
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

# Upper bound on floats materialized per difference block when scanning
# pairs, and per float32 tile of the crossed-pair search: 8 MB of float64.
_CHUNK_FLOATS = 1 << 20


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


def _pair_pass(
    g: OperatorGraph, tol: ToleranceConfig, store: bool = False
) -> tuple[dict, tuple | ValidationError | None]:
    """The monotone, bimonotone and constant reports of ``g`` from one pass
    over its pairs (i, j), j >= i, and, with ``store``, the matrices that
    ``_crossed_pairs`` reads.

    Row blocks are sized for about ``_CHUNK_FLOATS`` floats (8 MB of float64)
    per (rows, m, n) array, and block [i0, i1) takes its differences dx, ds
    against the columns [i0, m) only.  It computes <ds, dx> and both
    difference norms once, and derives from them each normalized violation,
    a residual over ``tol.margin`` of its scale:

    * pairing:    -<ds, dx> against |ds| |dx|.  Its maximum is the monotone
                  report, the maximum of its absolute value the bimonotone one.
    * dual gap:   |ds| against max(|xstar_i|, |xstar_j|); the constant report.
    * primal gap: |dx| against max(|x_i|, |x_j|), with ``store`` only.

    Returns the reports, keyed by name, and ``stored``.  With ``store``,
    ``stored`` = (vanishing, gap_x, gap_s): the bool mask of the pairs i < j
    with |pairing| <= 1 and the upper triangles of both float64 gap
    matrices, 17 m^2 bytes.  They are allocated with the first block, unless
    it shows a monotone violation, and dropped, with the primal gap's
    computation, at the first block that does, so ``stored`` is None for a
    sample that is not monotone.

    A non-finite margin or violation overflows.  The pass keeps each
    quantity's first overflow error in place of what reads it: the pairing's
    in place of the monotone and bimonotone reports, the primal gap's, or
    else the dual gap's, in place of ``stored``, and the dual gap's in place
    of the constant report.  ``_read`` raises it.  Blocks arrive in
    ascending row order and np.argmax returns the first maximum in row-major
    order, so each witness, and each named pair, is the smallest (i, j)
    among ties.
    """
    x, s = g.primal_matrix, g.dual_matrix
    m, n = x.shape
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    norm_x, norm_s = np.linalg.norm(x, axis=1), np.linalg.norm(s, axis=1)
    best = dict.fromkeys(("monotone", "bimonotone", "constant"), (0.0, None))
    errors = {}  # first overflow errors of the pairing (monotone), dual gap (constant), primal gap
    stored = None
    for i0 in range(0, m, rows):
        i1, w = min(m, i0 + rows), m - i0
        below = np.arange(i0, m)[None, :] < np.arange(i0, i1)[:, None]
        dx = x[i0:i1, None, :] - x[None, i0:, :]
        ds = s[i0:i1, None, :] - s[None, i0:, :]
        nx, ns = np.linalg.norm(dx, axis=2), np.linalg.norm(ds, axis=2)
        terms = {"monotone": (-np.einsum("ijk,ijk->ij", ds, dx), ns * nx),
                 "constant": (ns, np.maximum(norm_s[i0:i1, None], norm_s[None, i0:]))}
        if store:
            terms["primal_gap"] = (nx, np.maximum(norm_x[i0:i1, None], norm_x[None, i0:]))
        viol = {}
        for name, (residual, scale) in terms.items():
            margin = tol.margin(scale)
            viol[name] = residual / margin
            if name not in errors:
                try:
                    check_overflow(~(np.isfinite(viol[name]) & np.isfinite(margin)) & ~below,
                                   lambda f: f"pair {(i0 + f // w, i0 + f % w)}")
                except ValidationError as exc:
                    errors[name] = exc
        viol["bimonotone"] = np.abs(viol["monotone"])
        for v in viol.values():
            v[below] = -np.inf
        for name, (worst, _) in best.items():
            flat = int(np.argmax(viol[name]))
            if viol[name].flat[flat] > worst:
                best[name] = (float(viol[name].flat[flat]), (i0 + flat // w, i0 + flat % w))
        if store and best["monotone"][0] > 1.0:
            store, stored = False, None  # not monotone: nothing stored is read
        if store:
            if stored is None:
                stored = (np.zeros((m, m), dtype=bool), np.empty((m, m)), np.empty((m, m)))
            np.less_equal(np.abs(viol["monotone"]), 1.0, out=stored[0][i0:i1, i0:])
            stored[1][i0:i1, i0:] = viol["primal_gap"]
            stored[2][i0:i1, i0:] = viol["constant"]
    if stored is not None:
        np.fill_diagonal(stored[0], False)
        stored = errors.get("primal_gap") or errors.get("constant") or stored
    errors["bimonotone"] = errors.get("monotone")
    found = {name: errors.get(name) or ClassificationReport(worst <= 1.0, worst, witness)
             for name, (worst, witness) in best.items()}
    return found, stored


def _read(value):
    """``value`` from what ``_pair_pass`` returns, or the overflow error it
    kept in its place, raised."""
    if isinstance(value, ValidationError):
        raise value
    return value


@quiet_overflow
def monotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> is nonnegative within tolerance."""
    return _read(_pair_pass(g, tol)[0]["monotone"])


@quiet_overflow
def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    return _read(_pair_pass(g, tol)[0]["bimonotone"])


@quiet_overflow
def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    return _read(_pair_pass(g, tol)[0]["constant"])


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
    vanishing: np.ndarray, gap_x: np.ndarray, gap_s: np.ndarray
) -> ClassificationReport:
    """Paramonotone report of a monotone sample from what ``_pair_pass``
    stores: the bool mask of the vanishing pairs i < j (an m x m upper
    triangle, m^2 bytes) and the upper triangles of the two normalized gap
    matrices (float64, 16 m^2 bytes), which are mirrored in place, a row at
    a time.

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
    vanishing pairs), shrinking as pairs leave, in float32 tiles of about
    ``_CHUNK_FLOATS`` floats.
    """
    for gap in (gap_x, gap_s):
        for i in range(1, gap.shape[0]):
            gap[i, :i] = gap[:i, i]
    keep = vanishing.any(axis=0) | vanishing.any(axis=1)
    pts, active = np.flatnonzero(keep), vanishing[np.ix_(keep, keep)]
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

    Each report equals the one its ``*_check`` function returns.  One
    ``_pair_pass`` gives the monotone, bimonotone and constant reports and,
    for a monotone sample, the matrices that the crossed-pair search
    ``_crossed_pairs`` reads; their docstrings give the cost of each.
    """
    found, stored = _pair_pass(g, tol, store=True)
    mono = _read(found["monotone"])
    return {
        "monotone": mono,
        "bimonotone": _read(found["bimonotone"]),
        "paramonotone": NotMonotone(monotone=mono) if stored is None else _crossed_pairs(*_read(stored)),
        "constant_on_domain": _read(found["constant"]),
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
    disproves paramonotonicity of an underlying operator.  It makes the pair
    pass and the crossed-pair search of ``analyze``, and returns NotMonotone
    for a sample that is not monotone.
    """
    found, stored = _pair_pass(g, tol, store=True)
    mono = _read(found["monotone"])
    return NotMonotone(monotone=mono) if stored is None else _crossed_pairs(*_read(stored))
