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
gap violations.  Paramonotone's crossed-pair search is exact too: it reads
the float64 gap values that the pass stores in one m x m matrix, the primal
gaps above its diagonal and the dual gaps below.  Each step tests a
threshold against every pair left, first over a subset of at most
``_SEED_POINTS`` points, whose worst violation seeds the search over all of
them; every other threshold is the exact violation of a sampled pair, and
the few pairs that the steps leave are read exactly.  ``analyze`` returns
all four reports from that one pass and the search.  Verdicts are
order-independent; witnesses break ties by the smallest index pair, and an
overflow raises ValidationError by the rule of ``_pair_pass``, which
carries the module's one overflow guard: the search only compares stored
gaps and multiplies 0/1 tiles whose counts stay at most m.

The search stores 9 m^2 bytes for m points: a bool mask and the gap matrix
(``_pair_pass`` and ``_crossed_pairs`` state what each stores and costs).
Beyond that, the working set is one 2 MB budget: the pass's difference
blocks, the search's gap blocks and gap lines, and its float32 tiles, which
take at least an eighth of the points each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_TOLERANCE,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
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

# The working-set budget of the module docstring, in floats: 2 MB of float64.
_CHUNK_FLOATS = 1 << 18
# The most points of the subset that seeds the crossed-pair search.
_SEED_POINTS = 128


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
        object.__setattr__(self, "verdict", bool(self.verdict))
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


@quiet_overflow
def _pair_pass(
    g: OperatorGraph, tol: ToleranceConfig, store: bool = False
) -> tuple[dict, list | None]:
    """The records of the monotone, bimonotone and constant violations of
    ``g`` from one pass over its pairs (i, j), j >= i, and, with ``store``,
    of the primal gap and the matrices that ``_crossed_pairs`` reads.

    Row blocks are sized for about ``_CHUNK_FLOATS`` floats (2 MB of float64)
    per (rows, m, n) array, and block [i0, i1) takes its differences dx, ds
    against the columns [i0, m) only.  It computes <ds, dx> and both
    difference norms once, and derives from them each normalized violation,
    a residual over ``tol.margin`` of its scale:

    * pairing:    -<ds, dx> against |ds| |dx|.  Its maximum is the monotone
                  record, the maximum of its absolute value the bimonotone one.
    * dual gap:   |ds| against max(|xstar_i|, |xstar_j|); the constant record.
    * primal gap: |dx| against max(|x_i|, |x_j|), with ``store`` only.

    Returns the records, keyed by name, each (worst, pair): the largest
    violation and the first pair in row-major order attaining it (blocks
    ascend, np.argmax takes the first maximum), or (0.0, None).  A violation
    whose value or margin is not finite overflows and counts as +inf, so an
    infinite worst names the first overflowing pair; ``_report`` raises it.

    With ``store``, ``stored`` = [vanishing, gaps], a list that
    ``_crossed_pairs`` empties: the bool mask of the pairs i < j with
    |pairing| <= 1, and one m x m float64 matrix holding, for each pair
    i < j, its primal gap at [i, j] and its dual gap at [j, i] (the zero
    diagonal serves both), 9 m^2 bytes in all, written block by block.  They
    are allocated with the first block, unless it shows a monotone violation,
    and dropped, with the primal gap's computation, at the first block that
    does, so ``stored`` is None for a sample that is not monotone.
    """
    x, s = g.primal_matrix, g.dual_matrix
    m, n = x.shape
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    norm_x, norm_s = np.linalg.norm(x, axis=1), np.linalg.norm(s, axis=1)
    records = dict.fromkeys(("monotone", "bimonotone", "constant", "primal_gap"), (0.0, None))
    stored = None
    for i0 in range(0, m, rows):
        i1, w = min(m, i0 + rows), m - i0
        below = np.arange(i0, m)[None, :] < np.arange(i0, i1)[:, None]
        dx = x[i0:i1, None, :] - x[None, i0:, :]
        ds = s[i0:i1, None, :] - s[None, i0:, :]
        pairing = -np.einsum("ijk,ijk->ij", ds, dx)
        # np.linalg.norm's arithmetic, squaring the differences in place
        nx, ns = (np.sqrt(np.add.reduce(np.square(d, out=d), axis=2)) for d in (dx, ds))
        terms = {"monotone": (pairing, ns * nx),
                 "constant": (ns, np.maximum(norm_s[i0:i1, None], norm_s[None, i0:]))}
        if store:
            terms["primal_gap"] = (nx, np.maximum(norm_x[i0:i1, None], norm_x[None, i0:]))
        viol = {}
        for name, (residual, scale) in terms.items():
            margin = tol.margin(scale)
            viol[name] = residual / margin
            viol[name][~(np.isfinite(viol[name]) & np.isfinite(margin))] = np.inf
        viol["bimonotone"] = np.abs(viol["monotone"])
        for name, v in viol.items():
            v[below] = -np.inf
            flat = int(np.argmax(v))
            if v.flat[flat] > records[name][0]:
                records[name] = (float(v.flat[flat]), (i0 + flat // w, i0 + flat % w))
        if store and records["monotone"][0] > 1.0:
            store, stored = False, None  # not monotone: nothing stored is read
        if store:
            if stored is None:
                stored = [np.zeros((m, m), dtype=bool), np.empty((m, m))]
            np.less_equal(np.abs(viol["monotone"]), 1.0, out=stored[0][i0:i1, i0:])
            stored[1][i0:, i0:i1] = viol["constant"].T  # dual gaps below the diagonal
            np.copyto(stored[1][i0:i1, i0:], viol["primal_gap"], where=~below)  # primal on and above
        del dx, ds  # before the next block allocates its own
    if stored is not None:
        np.fill_diagonal(stored[0], False)
    return records, stored


def _report(record: tuple) -> ClassificationReport:
    """The report of a ``_pair_pass`` record (worst, pair), or, for an
    infinite worst, the overflow at that pair, raised."""
    worst, pair = record
    if worst == np.inf:
        raise ValidationError(f"pair {pair} overflows double precision; rescale the sample")
    return ClassificationReport(worst <= 1.0, worst, pair)


def monotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> is nonnegative within tolerance."""
    return _report(_pair_pass(g, tol)[0]["monotone"])


def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    return _report(_pair_pass(g, tol)[0]["bimonotone"])


def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    return _report(_pair_pass(g, tol)[0]["constant"])


def _near(gaps: np.ndarray, pts: np.ndarray, t: float) -> np.ndarray:
    """near[a, l] = (gap_x[pts[a], l] <= t) + 2 (gap_s[pts[a], l] <= t), a
    |pts| x m uint8 matrix, read from the two-triangle matrix ``gaps`` of
    ``_pair_pass``: a point's primal gaps are its row right of the diagonal
    and its column above it, its dual gaps the other way round.

    Points are read in blocks of about ``_CHUNK_FLOATS // m``: a block of
    consecutive points is sliced, any other gathered by index (per seeded
    search, gathering every block took 1 ms more on certify's inputs and
    54 ms more at m = 3000; np.take, 1.4-2.1 ms more and 30 ms less)."""
    m = gaps.shape[0]
    near = np.empty((pts.size, m), dtype=np.uint8)
    ls = np.arange(m)
    step = max(1, _CHUNK_FLOATS // m)
    for a0 in range(0, pts.size, step):
        p = pts[a0:a0 + step]
        index = slice(p[0], p[-1] + 1) if p[-1] - p[0] == p.size - 1 else p
        row = gaps[index] <= t
        col = np.ascontiguousarray(gaps[:, index].T <= t)
        block = near[a0:a0 + p.size]
        block[...] = col  # dual: the column right of the diagonal, the row left of it
        np.copyto(block, row, where=ls < p[:, None])
        block += row  # row + col = primal + dual, so block = primal + 2 dual
        block += col
    return near


def _unmatched(gaps: np.ndarray, pts: np.ndarray, t: float) -> np.ndarray:
    """u[a, b]: no point l has gap_x[pts[a], l] <= t and gap_s[pts[b], l] <= t,
    i.e. (x_pts[a], xstar_pts[b]) is farther than t from the graph.  Each
    step thresholds the points' rows and columns once, into one |pts| x m
    uint8 matrix (``_near``).  One float32 0/1 product per pair of tiles;
    its counts sum nonnegative terms, so a count is zero exactly when no l
    matches, at any m.

    A tile is ``_CHUNK_FLOATS // m`` rows, but at least ceil(m / 8), since
    each dual tile is cast to float32 again for every primal tile (at
    m = 3000: 375 rows, 4.5 MB, which cut this function's time per seeded
    search from 1.3-1.7 to 0.8-1.2 s there; the floor binds only above
    m = 1448)."""
    m, n = gaps.shape[0], pts.size
    rows = max(_CHUNK_FLOATS // m, -(-m // 8))
    near = _near(gaps, pts, t)
    u = np.empty((n, n), dtype=bool)
    mx = np.empty((min(rows, n), m), dtype=np.float32)
    ms = np.empty_like(mx)
    for a0 in range(0, n, rows):
        a1 = min(n, a0 + rows)
        np.bitwise_and(near[a0:a1], 1, out=mx[: a1 - a0])
        for b0 in range(0, n, rows):
            b1 = min(n, b0 + rows)
            np.right_shift(near[b0:b1], 1, out=ms[: b1 - b0])
            np.equal(mx[: a1 - a0] @ ms[: b1 - b0].T, 0.0, out=u[a0:a1, b0:b1])
    return u


def _lines(gaps: np.ndarray, p: np.ndarray) -> tuple:
    """The primal and dual gap lines of the points ``p``, two |p| x m
    float64 matrices, read from ``gaps`` by the rule of ``_near``."""
    row, col = gaps[p], gaps[:, p].T
    left = np.arange(gaps.shape[0]) < p[:, None]
    return np.where(left, col, row), np.where(left, row, col)


def _violations(gaps: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The violation max(need(i, j), need(j, i)) of each pair of points
    (i[k], j[k]) (see ``_crossed_pairs``), from the gap lines of its two
    points, for blocks of pairs whose four line sets hold about
    ``_CHUNK_FLOATS`` floats."""
    out = np.empty(i.size)
    step = max(1, _CHUNK_FLOATS // (4 * gaps.shape[0]))
    for k0 in range(0, i.size, step):
        (xi, si), (xj, sj) = _lines(gaps, i[k0:k0 + step]), _lines(gaps, j[k0:k0 + step])
        need_ij, need_ji = np.maximum(xi, sj, out=xi).min(axis=1), np.maximum(xj, si, out=xj).min(axis=1)
        out[k0:k0 + step] = np.maximum(need_ij, need_ji)
        del xi, si, xj, sj  # before the next block reads its own
    return out


def _worst(gaps: np.ndarray, pts: np.ndarray, active: np.ndarray, t: float = -np.inf) -> tuple:
    """(W, pts, attaining): the worst violation W of the pairs ``active``
    (bool, |pts| x |pts|) of the points ``pts``, the pairs attaining it and
    their points.  While one gap line per pair exceeds ``_CHUNK_FLOATS``, a
    step tests a threshold t: ``t`` itself first unless it is -inf, then
    the largest violation below hi among an evenly strided sample of the
    active pairs, one block of ``_violations``.  If every pair matches,
    hi = t, else only the failing pairs stay, since one that matches at
    t < W cannot attain W.  Any t is a valid step; a sampled one is a real
    pair's violation, and about 1/k of the pairs outlast a sample of k.  If
    every sampled pair violates by hi, the step is just below hi, and the
    pairs that fail it attain W = hi; if a t <= 0 fails no pair, W = 0.
    Otherwise the pairs left are read exactly."""
    m, hi = gaps.shape[0], np.inf
    block = max(1, _CHUNK_FLOATS // (4 * m))
    while (n := np.count_nonzero(active)) * m > _CHUNK_FLOATS:
        if t == -np.inf:
            a, b = np.divmod(np.flatnonzero(active)[::-(-n // block)], pts.size)
            v = _violations(gaps, pts[a], pts[b])
            v = v[v < hi]
            t = v.max() if v.size else np.nextafter(hi, -np.inf)
        failing = _unmatched(gaps, pts, t)
        failing |= failing.T  # in place: numpy buffers the overlapping transpose
        failing &= active
        keep = failing.any(axis=0) | failing.any(axis=1)
        if keep.any():
            pts, active = pts[keep], failing[np.ix_(keep, keep)]
            if t == np.nextafter(hi, -np.inf):
                return float(hi), pts, active  # no active pair violates by more than hi
        elif t <= 0.0:
            return 0.0, pts, active  # no violation is negative
        else:
            hi = t
        del failing  # before the next step allocates its own
        t = -np.inf
    a, b = np.nonzero(active)
    v = _violations(gaps, pts[a], pts[b])
    w = float(v.max(initial=0.0))
    attaining = np.zeros_like(active)
    attaining[active] = v == w
    keep = attaining.any(axis=0) | attaining.any(axis=1)
    return w, pts[keep], attaining[np.ix_(keep, keep)]


def _crossed_pairs(stored: list) -> ClassificationReport:
    """Paramonotone report of a monotone sample from what ``_pair_pass``
    stores, [vanishing, gaps], which it takes out of ``stored``: the bool
    mask of the vanishing pairs i < j (an m x m upper triangle, m^2 bytes)
    and the m x m float64 matrix of the normalized gaps, primal above the
    diagonal and dual below it (8 m^2 bytes).

    need(i, j) = min_l max(gap_x[l, i], gap_s[l, j]) is the distance from
    (x_i, xstar_j) to the nearest stored pair, and a vanishing pair i < j
    violates by max(need(i, j), need(j, i)).  Every need value is a gap
    entry, so the worst violation W is the smallest gap value t at which no
    vanishing pair is ``_unmatched`` either way; ``_worst`` finds it, and
    the witness is the smallest pair attaining W in row-major order.

    When more than ``_SEED_POINTS`` points lie in vanishing pairs, ``_worst``
    first runs on an evenly strided subset of at most that many, with only
    their vanishing pairs active.  Their gap lines still cover all m points,
    so the subset's worst W_Q is the violation of a real pair, W >= W_Q,
    and the search over all the points steps first just below W_Q, keeping
    only the pairs that violate by W_Q or more.  If W_Q is 0, its first
    threshold is sampled, as it would be without the subset.

    On certify's 1000-point inputs this makes one step over 125 points,
    one over all of them (the most costly, in float32 tiles of
    ``_unmatched``), and exact reads of the pairs left.  Beside the 8 m^2
    bytes of gaps, the step over every point holds the active and failing
    pairs (bool, m^2 bytes each; the mask is dropped once the active pairs
    are copied out), the m x m uint8 matrix of ``_near`` and two float32
    tiles: about 12 m^2 bytes in all.  If W_Q is 0, the sample before that
    step holds the flat indices of the active pairs, 8 bytes each (4 m^2
    bytes if every pair vanishes), and drops them before the step.
    """
    vanishing, gaps = stored
    stored.clear()
    keep = vanishing.any(axis=0) | vanishing.any(axis=1)
    pts, active = np.flatnonzero(keep), vanishing[np.ix_(keep, keep)]
    del vanishing
    t = -np.inf
    if pts.size > _SEED_POINTS:
        every = -(-pts.size // _SEED_POINTS)
        w = _worst(gaps, pts[::every], active[::every, ::every])[0]
        if w > 0.0:
            t = np.nextafter(w, -np.inf)
    w, pts, attaining = _worst(gaps, pts, active, t)
    if w == 0.0:
        # every crossed pair is stored (or none is needed)
        return ClassificationReport(verdict=True, worst_violation=0.0)
    a, b = divmod(int(np.argmax(attaining)), pts.size)
    return ClassificationReport(verdict=w <= 1.0, worst_violation=w, witness=(pts[a], pts[b]))


def _paramonotone(records: dict, stored: list | None, mono) -> ClassificationReport | NotMonotone:
    """NotMonotone with the monotone report ``mono`` when ``_pair_pass``
    stored nothing, else, unless a gap overflows, the crossed-pair search."""
    if stored is None:
        return NotMonotone(monotone=mono)
    _report(records["primal_gap"])
    _report(records["constant"])
    return _crossed_pairs(stored)


def analyze(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> dict:
    """The four membership reports, keyed ``monotone``, ``bimonotone``,
    ``paramonotone`` (a report, or NotMonotone) and ``constant_on_domain``.

    Each report equals the one its ``*_check`` function returns.  One
    ``_pair_pass`` gives the monotone, bimonotone and constant reports and,
    for a monotone sample, the matrices that the crossed-pair search
    ``_crossed_pairs`` reads; their docstrings give the cost of each.
    """
    records, stored = _pair_pass(g, tol, store=True)
    mono = _report(records["monotone"])
    return {
        "monotone": mono,
        "bimonotone": _report(records["bimonotone"]),
        "paramonotone": _paramonotone(records, stored, mono),
        "constant_on_domain": _report(records["constant"]),
    }


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
    records, stored = _pair_pass(g, tol, store=True)
    return _paramonotone(records, stored, _report(records["monotone"]))
