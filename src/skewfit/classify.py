"""Membership tests for sampled operators.

Each check scans all point pairs of a graph and reports the largest
tolerance-normalized violation it finds, so 1.0 is the tolerance boundary
for every check.  The conditions, for pairs (x, xstar) and (y, ystar):

* monotone:            <xstar - ystar, x - y> >= 0 within tolerance
* bimonotone:          <xstar - ystar, x - y> == 0 within tolerance
* paramonotone:        whenever that product vanishes, the crossed pairs
                       (x, ystar) and (y, xstar) must already be in the graph
* constant on domain:  |xstar - ystar| |x - y| == 0 within the pairing's
                       margin, so constant => bimonotone => monotone, per pair

Every check is one pass over the upper triangle of point pairs, exact
double arithmetic quadratic in the number of points: each pair's differences
are formed once, and their product and two norms give the pairing and both
gap violations.  Paramonotone's crossed-pair search is exact too: it reads
the gaps that the pass stores as float32 in each triangle's own power-of-two
unit, rounded by one monotone rule r (``_Gaps``), and takes a gap again in
float64 only where r cannot order it against a threshold.  Each step tests a
threshold against every pair left, first over a subset of at most
``_SEED_POINTS`` points, whose worst violation seeds the search over all of
them; every other threshold is the exact violation of a sampled pair, and
the few pairs that the steps leave are read exactly.  ``analyze`` returns
all four reports from that one pass and the search.  Verdicts are
order-independent; witnesses break ties by the smallest index pair, and an
overflow raises ValidationError by the rule of ``_pair_pass``, which
carries the module's one overflow guard: the search compares stored gaps,
takes again only finite ones and multiplies 0/1 tiles whose counts stay at
most m.  Every norm is ``graphs._norm``'s, so a sample mapped by
(2^k x, 2^-k s) keeps its pairing reports bit for bit, and what overflows is
a pairing, a norm, a margin or a violation whose exact value lies beyond
double range.

The search stores 5 m^2 bytes for m points, a bool mask and the gaps, and
holds 3 m^2 bytes more at its step over every point (``_pair_pass`` and
``_crossed_pairs`` give each cost).  Beyond that, the working set is one 2 MB
budget: the pass's difference blocks, the search's gap lines, and its float32
tiles, which take at least an eighth of the points each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_TOLERANCE,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    _LEAST_NORM,
    _norm,
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
_TOP = 127  # every stored gap lies below 2^_TOP, and float32's largest value is near 2^128


@quiet_overflow
def _rounded(gap, e: int):
    """r(gap): float64 gaps (0 to inf) as float32 in units of 2^(e - _TOP),
    rounded to nearest, except that a nonzero gap is never sent to 0.  So r
    is monotone, and r(gap) is 0 exactly when the gap is."""
    return np.maximum(np.ldexp(gap, _TOP - e), 2.0 ** -149 * np.greater(gap, 0.0)).astype(np.float32)


class _Gaps:
    """The gaps that ``_crossed_pairs`` reads, for m points: ``values``, one
    m x m float32 matrix holding each pair i < j's primal gap at [i, j] and
    its dual gap at [j, i] (the zero diagonal serves both), each triangle
    rounded by ``_rounded`` in its own unit 2^(e - _TOP): with N its largest
    row norm, each gap is at most 2 N / margin(N), so below 2^e (``units``),
    or 2^1024, and float32 keeps 24 bits of every gap above 2^(e - 253)."""

    def __init__(self, x: np.ndarray, s: np.ndarray, tol: ToleranceConfig, norms: tuple) -> None:
        self.sides = ((x, tol.margin(norms[0])), (s, tol.margin(norms[1])))
        bounds = [n.max(initial=0.0) / tol.margin(n.max(initial=0.0)) for n in norms]
        self.units = tuple(int(np.frexp(b)[1]) + 2 if b < np.inf else 1024 for b in bounds)
        self.values = np.empty((len(x), len(x)), dtype=np.float32)

    @quiet_overflow
    def exact(self, side: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The float64 gaps between the points a and b, primal (``side`` 0)
        or dual (1), by ``_pair_pass``'s arithmetic, bit for bit."""
        v, margins = self.sides[side]
        margin = np.maximum(margins[a], margins[b])
        gap = _norm(v[a] - v[b]) / margin
        gap[~(np.isfinite(gap) & np.isfinite(margin))] = np.inf
        return gap


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
    of the two gaps and the matrices that ``_crossed_pairs`` reads.

    Row blocks are sized for about ``_CHUNK_FLOATS`` floats (2 MB of float64)
    per (rows, m, n) array, and block [i0, i1) takes its differences dx, ds
    against the columns [i0, m) only.  It computes <ds, dx> and both
    difference norms once, and derives from them each normalized violation,
    a residual over ``tol.margin`` of its scale.  The norms are squared as
    they are, which is ``graphs._norm``'s arithmetic; a pair j > i with a
    norm that ``_norm`` would take again, not above 2^-511 or not finite, has
    both its norms taken by ``_norm`` and its pairing in units of powers of
    two near them, which changes only values whose plain arithmetic
    overflowed or went subnormal:

    * pairing:    -<ds, dx> against |ds| |dx|.  Its maximum is the monotone
                  record, the maximum of its absolute value the bimonotone one.
    * constant:   max(|ds| |dx|, |<ds, dx>|) against |ds| |dx|, the pairing's.
    * primal gap: |dx| against max(|x_i|, |x_j|), with ``store`` only.
    * dual gap:   |ds| against max(|xstar_i|, |xstar_j|), with ``store`` only.

    Returns the records, keyed by name, each (worst, pair): the largest
    violation and the first pair in row-major order attaining it (blocks
    ascend, np.argmax takes the first maximum), or (0.0, None).  A violation
    whose value or margin is not finite, so lies beyond double range,
    overflows and counts as +inf, so an infinite worst names the first
    overflowing pair; ``_report`` raises it.

    With ``store``, ``stored`` = [vanishing, gaps], a list that
    ``_crossed_pairs`` empties: the bool mask of the pairs i < j with
    |pairing| <= 1, and a ``_Gaps`` holding both gaps of each pair i < j in
    one m x m float32 matrix, each triangle in the unit that its largest row
    norm fixes, 5 m^2 bytes in all, written block by block.  They are
    allocated with the first block, unless it shows a monotone violation,
    and dropped, with the gaps' computation, at the first block that does,
    so ``stored`` is None for a sample that is not monotone.
    """
    x, s = g.primal_matrix, g.dual_matrix
    m, n = x.shape
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    if store:
        norm_x, norm_s = _norm(x), _norm(s)
        # margin is monotone, so margin(max(|v_i|, |v_j|)) = max(margin(|v_i|), margin(|v_j|))
        margin_x, margin_s = tol.margin(norm_x), tol.margin(norm_s)
    records = dict.fromkeys(("monotone", "bimonotone", "constant", "primal_gap", "dual_gap"), (0.0, None))
    stored = None
    for i0 in range(0, m, rows):
        i1, w = min(m, i0 + rows), m - i0
        below = np.arange(i0, m)[None, :] < np.arange(i0, i1)[:, None]
        dx = x[i0:i1, None, :] - x[None, i0:, :]
        ds = s[i0:i1, None, :] - s[None, i0:, :]
        pairing = -np.einsum("ijk,ijk->ij", ds, dx)
        # np.linalg.norm's arithmetic, squaring the differences in place
        nx, ns = (np.sqrt(np.add.reduce(np.square(d, out=d), axis=2)) for d in (dx, ds))
        # a pair j > i (the diagonal's are exact zeros) with a norm that
        # ``_norm`` would take again: both norms are ``_norm``'s, and the
        # pairing is taken in units of 2^ex and 2^es, powers of two near them
        a, b = np.nonzero(~(np.isfinite(nx) & np.isfinite(ns)) | (nx <= _LEAST_NORM) | (ns <= _LEAST_NORM))
        a, b = a[a < b], b[a < b]
        if a.size:
            fx, fs = x[i0 + a] - x[i0 + b], s[i0 + a] - s[i0 + b]
            nx[a, b], ns[a, b] = _norm(fx), _norm(fs)
            ex, es = np.frexp(nx[a, b])[1], np.frexp(ns[a, b])[1]
            units = np.einsum("ij,ij->i", np.ldexp(fs, -es[:, None]), np.ldexp(fx, -ex[:, None]))
            pairing[a, b] = -np.ldexp(units, ex + es)
            del fx, fs
        margin = tol.margin(scale := ns * nx)
        terms = {"monotone": (pairing, margin), "constant": (np.maximum(scale, np.abs(pairing)), margin)}
        if store:
            terms["primal_gap"] = (nx, np.maximum(margin_x[i0:i1, None], margin_x[None, i0:]))
            terms["dual_gap"] = (ns, np.maximum(margin_s[i0:i1, None], margin_s[None, i0:]))
        viol = {}
        for name, (residual, margin) in terms.items():
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
                stored = [np.zeros((m, m), dtype=bool), _Gaps(x, s, tol, (norm_x, norm_s))]
            np.less_equal(np.abs(viol["monotone"]), 1.0, out=stored[0][i0:i1, i0:])
            gaps, (ux, us) = stored[1].values, stored[1].units
            gaps[i0:, i0:i1] = _rounded(viol["dual_gap"].T, us)  # dual gaps below the diagonal
            np.copyto(gaps[i0:i1, i0:], _rounded(viol["primal_gap"], ux), where=~below)  # primal on and above
        del dx, ds, pairing, nx, ns, a, b, scale, margin, terms, viol  # before the next block allocates its own
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
    """Every |xstar_i - xstar_j| |x_i - x_j| vanishes within the margin of the
    pairing, so duals may differ only at a repeated x; a constant sample is bimonotone."""
    return _report(_pair_pass(g, tol)[0]["constant"])


def _near(gaps: _Gaps, pts: np.ndarray, t: float) -> np.ndarray:
    """near[a, l] = (gap_x[pts[a], l] <= t) + 2 (gap_s[pts[a], l] <= t), a
    |pts| x m uint8 matrix, from the gap lines of blocks of about
    ``_CHUNK_FLOATS // m`` points, each compared with r(t) in its unit.  A
    stored 0 is an exact 0, and only an entry equal to a nonzero r(t), a gap
    within a part in 2^24 of a real pair's violation t, is taken again."""
    m = gaps.values.shape[0]
    near = np.zeros((pts.size, m), dtype=np.uint8)
    step = max(1, _CHUNK_FLOATS // m)
    for a0 in range(0, pts.size, step):
        p = pts[a0:a0 + step]
        block = near[a0:a0 + p.size]
        for side, line, level in zip((0, 1), _lines(gaps.values, p), (_rounded(t, e) for e in gaps.units)):
            within = line <= level
            if level > 0.0 and (line == level).any():
                a, b = np.divmod(np.flatnonzero(line == level), m)
                within[a, b] = gaps.exact(side, p[a], b) <= t
            for _ in range(1 + side):  # block = primal + 2 dual
                block += within
    return near


def _unmatched(gaps: _Gaps, pts: np.ndarray, t: float) -> np.ndarray:
    """u[a, b]: no point l has gap_x[pts[a], l] <= t and gap_s[pts[b], l] <= t,
    i.e. (x_pts[a], xstar_pts[b]) is farther than t from the graph.  Each
    step thresholds the points' gap lines once, into one |pts| x m uint8
    matrix (``_near``).  One float32 0/1 product per pair of tiles; its
    counts sum nonnegative terms, so a count is zero exactly when no l
    matches, at any m.

    A tile is ``_CHUNK_FLOATS // m`` rows, but at least ceil(m / 8), since
    each dual tile is cast to float32 again for every primal tile (at
    m = 3000: 375 rows, 4.5 MB, which cut this function's time per seeded
    search from 1.3-1.7 to 0.8-1.2 s there; the floor binds only above
    m = 1448)."""
    m, n = gaps.values.shape[0], pts.size
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


def _lines(values: np.ndarray, p: np.ndarray) -> tuple:
    """The primal and dual gap lines of the points ``p``, two |p| x m float32
    matrices: a point's primal gaps are its row of ``_Gaps.values`` right of
    the diagonal and its column left of it, its dual gaps the other way round."""
    index = slice(p[0], p[0] + p.size) if (np.diff(p) == 1).all() else p
    row, dual = values[index], values[:, index].T.copy()
    left = np.arange(values.shape[0], dtype=np.int32) < p.astype(np.int32)[:, None]  # m < 2^31 fits in memory
    primal = row.copy()
    np.copyto(primal, dual, where=left)
    np.copyto(dual, row, where=left)
    return primal, dual


@quiet_overflow
def _violations(gaps: _Gaps, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The violation max(need(i, j), need(j, i)) of each pair of points
    (i[k], j[k]) (see ``_crossed_pairs``), in blocks whose gap lines hold
    about ``_CHUNK_FLOATS`` floats.  The l whose stored gaps, in one unit,
    have the least maximum bounds a need by its exact value u; only another
    l with both gaps stored at most r(u) can attain it, and is read again."""
    out = np.empty(i.size)
    step = max(1, _CHUNK_FLOATS // (4 * gaps.values.shape[0]))
    shift = gaps.units[1] - gaps.units[0]
    for k0 in range(0, i.size, step):
        a, b = i[k0:k0 + step], j[k0:k0 + step]
        a, b = np.concatenate([a, b]), np.concatenate([b, a])  # the pairs' needs either way
        x, s = _lines(gaps.values, a)
        s = np.roll(s, -(a.size // 2), axis=0)  # the dual lines of b
        best = np.maximum(x, np.ldexp(s, shift) if shift else s).argmin(axis=1)
        need = np.maximum(gaps.exact(0, a, best), gaps.exact(1, b, best))
        tx, ts = (_rounded(need, e) for e in gaps.units)
        within = x <= tx[:, None]
        within &= s <= ts[:, None]
        within[np.arange(a.size), best] = False  # read already
        k, l = np.divmod(np.flatnonzero(within), x.shape[1])
        np.minimum.at(need, k, np.maximum(gaps.exact(0, a[k], l), gaps.exact(1, b[k], l)))
        out[k0:k0 + step] = np.maximum(need[:a.size // 2], need[a.size // 2:])
        del x, s, within  # before the next block reads its own
    return out


def _worst(gaps: _Gaps, pts: np.ndarray, active: np.ndarray, t: float = -np.inf) -> tuple:
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
    m, hi = gaps.values.shape[0], np.inf
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
    and the ``_Gaps`` of the normalized gaps, one m x m float32 matrix,
    primal above the diagonal and dual below it (4 m^2 bytes).

    need(i, j) = min_l max(gap_x[l, i], gap_s[l, j]) is the distance from
    (x_i, xstar_j) to the nearest stored pair, and a vanishing pair i < j
    violates by max(need(i, j), need(j, i)).  Every need value is a gap
    entry, so the worst violation W is the smallest gap value t at which no
    vanishing pair is ``_unmatched`` either way; ``_worst`` finds it, and
    the witness is the smallest pair attaining W in row-major order.  A
    step takes again only the stored gaps equal to r(t) (``_near``), and
    a pair read exactly only the gaps that can attain its needs
    (``_violations``): on certify's inputs, 0 to 4 entries per step, and
    four gaps per pair, rarely a few more.

    When more than ``_SEED_POINTS`` points lie in vanishing pairs, ``_worst``
    first runs on an evenly strided subset of at most that many, with only
    their vanishing pairs active.  Their gap lines still cover all m points,
    so the subset's worst W_Q is the violation of a real pair, W >= W_Q,
    and the search over all the points steps first just below W_Q, keeping
    only the pairs that violate by W_Q or more.  If W_Q is 0, its first
    threshold is sampled, as it would be without the subset.

    On certify's 1000-point inputs this makes one step over 125 points,
    one over all of them (the most costly, in float32 tiles of
    ``_unmatched``), and exact reads of the pairs left.  That step holds
    the gaps, the active and failing pairs (bool; the mask is dropped once
    the active pairs are copied out) and the uint8 matrix of ``_near``,
    m x m each, and two tiles: about 8 m^2 bytes.  If W_Q is 0, the sample
    before it holds the flat indices of the active pairs, 8 bytes each (4
    m^2 bytes if every pair vanishes), and drops them before the step.
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


def _searched(g: OperatorGraph, tol: ToleranceConfig) -> tuple:
    """The records of ``_pair_pass(g, tol, store=True)`` and the paramonotone
    report; a MemoryError is raised again with the search's size rule."""
    try:
        records, stored = _pair_pass(g, tol, store=True)
        mono = _report(records["monotone"])
        if stored is None:
            return records, NotMonotone(monotone=mono)
        _report(records["primal_gap"]), _report(records["dual_gap"])
        return records, _crossed_pairs(stored)
    except MemoryError as exc:
        m = len(g.primal_matrix)
        raise MemoryError(f"paramonotone's crossed-pair search of m = {m} points holds about 8 m^2 bytes, "
                          f"{8 * m * m / 2**30:.2f} GiB (5 m^2 stored, 3 m^2 more at its step over every "
                          f"point): {exc}") from exc


def analyze(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> dict:
    """The four membership reports, keyed ``monotone``, ``bimonotone``,
    ``paramonotone`` (a report, or NotMonotone) and ``constant_on_domain``.

    Each report equals the one its ``*_check`` function returns.  One
    ``_pair_pass`` gives the monotone, bimonotone and constant reports and,
    for a monotone sample, what the crossed-pair search ``_crossed_pairs``
    reads; their docstrings give the cost of each.
    """
    records, paramonotone = _searched(g, tol)
    return {
        "monotone": _report(records["monotone"]),
        "bimonotone": _report(records["bimonotone"]),
        "paramonotone": paramonotone,
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
    return _searched(g, tol)[1]
