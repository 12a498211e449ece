"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own vectorized code paths: plain
double loops and a least-squares fit over the free parameters of an
antisymmetric matrix, solved through the normal equations.  The two
exceptions are the former full-square pair scan, the bit-for-bit reference
for the library's upper-triangle pass, and the former per-column ``math.fsum``
centre at the end, the bit-for-bit reference for ``recovery._centre``.
"""

import math

import numpy as np

from skewfit import classify
from skewfit.classify import ClassificationReport, NotMonotone
from skewfit.graphs import GraphPoint, check_overflow, quiet_overflow


def pairwise_products(graph):
    """Every <xstar_i - xstar_j, x_i - x_j>, i < j, by direct double loop."""
    out = {}
    pts = graph.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out[(i, j)] = float(
                np.dot(pts[i].xstar - pts[j].xstar, pts[i].x - pts[j].x)
            )
    return out


def max_abs_pairing(graph):
    products = pairwise_products(graph)
    return max((abs(v) for v in products.values()), default=0.0)


def fit_skew_least_squares(primal_rows, dual_rows):
    """Least-squares antisymmetric fit of dual = A primal over all points.

    A k x k antisymmetric matrix has k(k-1)/2 free entries a[i, j], i < j.
    Stack the k equations of every point into a tall linear system in those
    parameters and solve its normal equations.
    """
    primal_rows = np.asarray(primal_rows, dtype=np.float64)
    dual_rows = np.asarray(dual_rows, dtype=np.float64)
    m, k = primal_rows.shape
    params = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if not params:
        return np.zeros((k, k))
    design = np.zeros((m * k, len(params)))
    for col, (i, j) in enumerate(params):
        for p in range(m):
            # (E_ij - E_ji) x contributes x[j] to row i and -x[i] to row j
            design[p * k + i, col] += primal_rows[p, j]
            design[p * k + j, col] -= primal_rows[p, i]
    rhs = dual_rows.reshape(-1)
    coef = np.linalg.solve(design.T @ design, design.T @ rhs)
    fitted = np.zeros((k, k))
    for col, (i, j) in enumerate(params):
        fitted[i, j] = coef[col]
        fitted[j, i] = -coef[col]
    return fitted


def residual_bound(graph, rank):
    """The largest reconstruction residual that the pair check allows a
    skew fit of rank k = ``rank`` through the centre of ``graph``:

        (||D||_F + sigma_{k+1} ||S_c||_F) / sigma_k + 4 (n + 4) u max_i ||s_i||,

    with D_ij = <s_i - s_j, x_i - x_j>, S_c the duals translated by their
    centre, sigma the singular values of the primal points X_c translated by
    theirs (sigma_{k+1} = 0 past the last) and u the unit roundoff.  The
    symmetric part E of S_c X_c^T, which no skew fit absorbs, is -J D J / 2
    by double centring (J the centring projection), so ||E||_F <= ||D||_F / 2;
    the directions cut at the rank add sigma_{k+1} ||S_c||_F, and the last
    term covers the rounding of the residuals themselves.
    """
    x, s = graph.primal_matrix, graph.dual_matrix
    n = x.shape[1]
    d = np.einsum("ijk,ijk->ij", s[:, None] - s[None], x[:, None] - x[None])
    sigma = np.append(np.linalg.svd(x - x.mean(axis=0), compute_uv=False), 0.0)
    s_c = np.linalg.norm(s - s.mean(axis=0))
    rounding = 4 * (n + 4) * np.finfo(float).eps / 2 * np.linalg.norm(s, axis=1).max()
    return (np.linalg.norm(d) + sigma[rank] * s_c) / sigma[rank - 1] + rounding


def _report(worst, witness):
    return {"verdict": worst <= 1.0, "worst_violation": worst, "witness": witness}


def _margin(tol, scale):
    return tol.abs_tol + tol.rel_tol * max(scale, 1.0)


def _norm(d):
    # a plain sum of squares rounds like the library's row norms; the dot
    # product inside np.linalg.norm(d) can differ in the last bit
    return np.sqrt(np.sum(d * d))


def _pairings(graph, tol):
    """{(i, j): (<xstar_i - xstar_j, x_i - x_j>, its margin)}, i < j, in
    row-major order."""
    x, s = graph.primal_matrix, graph.dual_matrix
    out = {}
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx, ds = x[i] - x[j], s[i] - s[j]
            out[(i, j)] = float(np.dot(ds, dx)), _margin(tol, _norm(ds) * _norm(dx))
    return out


def crossed_violations(graph, tol):
    """{(i, j): violation} of every pair i < j whose product vanishes, in
    row-major order, by plain loops.

    Every stored point l is tried as the match of the crossed pairs
    (x_i, xstar_j) and (x_j, xstar_i); the violation is the larger of their
    smallest normalized distances to the graph.
    """
    x, s = graph.primal_matrix, graph.dual_matrix
    m = len(x)

    def gaps(v):
        # gaps(v)[l][i]: normalized distance from v_l to v_i
        return [[_norm(v[l] - v[i]) / _margin(tol, max(_norm(v[l]), _norm(v[i])))
                 for i in range(m)] for l in range(m)]

    gx, gs = gaps(x), gaps(s)
    out = {}
    for (i, j), (prod, budget) in _pairings(graph, tol).items():
        if abs(prod) / budget <= 1.0:
            need_ij = min(max(gx[l][i], gs[l][j]) for l in range(m))
            need_ji = min(max(gx[l][j], gs[l][i]) for l in range(m))
            out[(i, j)] = max(need_ij, need_ji)
    return out


def paramonotone(graph, tol):
    """``paramonotone_check(graph, tol).to_dict()`` by plain loops.

    Pairs are visited in row-major order and the running maximum moves only
    on a strictly larger violation, so ties go to the smallest (i, j).
    """
    worst, witness = 0.0, None
    for (i, j), (prod, budget) in _pairings(graph, tol).items():
        if -prod / budget > worst:
            worst, witness = -prod / budget, [i, j]
    if worst > 1.0:
        return {"status": "not_monotone", "monotone": _report(worst, witness)}
    worst, witness = 0.0, None
    for (i, j), violation in crossed_violations(graph, tol).items():
        if violation > worst:
            worst, witness = violation, [i, j]
    return _report(worst, witness)


# ---------------------------------------------------------------------------
# The former full-square pair scan, kept as the bit-for-bit reference for
# classify's upper-triangle pass.  Each row block is differenced against all
# m columns, and the pairs below the diagonal are then overwritten with -inf.
# ``analyze`` ran one pairing scan, one scan of its absolute values and two
# gap scans (the primal one only for a monotone sample).
# ---------------------------------------------------------------------------

def _scan(g, tol, terms, out=None):
    m, n = g.primal_matrix.shape
    rows = max(1, classify._CHUNK_FLOATS // max(1, m * n))
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


def _pairing_terms(g):
    x, s = g.primal_matrix, g.dual_matrix

    def terms(i0, i1):
        dx = x[i0:i1, None, :] - x[None, :, :]
        ds = s[i0:i1, None, :] - s[None, :, :]
        prod = np.einsum("ijk,ijk->ij", ds, dx)
        scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
        return -prod, scale
    return terms


def _gap_terms(v):
    norms = np.linalg.norm(v, axis=1)

    def terms(i0, i1):
        gap = np.linalg.norm(v[i0:i1, None, :] - v[None, :, :], axis=2)
        return gap, np.maximum(norms[i0:i1, None], norms[None, :])
    return terms


@quiet_overflow
def scan_monotone(g, tol):
    return _scan(g, tol, _pairing_terms(g))


@quiet_overflow
def scan_bimonotone(g, tol):
    pairing = _pairing_terms(g)

    def terms(i0, i1):
        residual, scale = pairing(i0, i1)
        return np.abs(residual), scale
    return _scan(g, tol, terms)


@quiet_overflow
def scan_constant(g, tol):
    return _scan(g, tol, _gap_terms(g.dual_matrix))


def _stored(pairing, gap_x, gap_s):
    """[vanishing, gaps] as ``_pair_pass`` stores them for ``_crossed_pairs``:
    the mask of the vanishing pairs i < j, and the primal gaps on and above
    the diagonal with the dual gaps below it."""
    upper = np.triu(np.ones(pairing.shape, dtype=bool))
    return [np.triu(np.abs(pairing) <= 1.0, 1), np.where(upper, gap_x, gap_s.T)]


@quiet_overflow
def stored(g, tol):
    """What ``_pair_pass(g, tol, store=True)`` stores, from the full-square
    scans, or None for a sample that is not monotone."""
    m = g.primal_matrix.shape[0]
    pairing, gap_x, gap_s = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    if not _scan(g, tol, _pairing_terms(g), out=pairing).verdict:
        return None
    _scan(g, tol, _gap_terms(g.primal_matrix), out=gap_x)
    _scan(g, tol, _gap_terms(g.dual_matrix), out=gap_s)
    return _stored(pairing, gap_x, gap_s)


@quiet_overflow
def scan_paramonotone(g, tol):
    found = stored(g, tol)
    return NotMonotone(monotone=scan_monotone(g, tol)) if found is None else classify._crossed_pairs(found)


@quiet_overflow
def scan_analyze(g, tol):
    m = g.primal_matrix.shape[0]
    pairing, gap_x, gap_s = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    mono = _scan(g, tol, _pairing_terms(g), out=pairing)
    bimonotone = _scan(g, tol, lambda i0, i1: (np.abs(pairing[i0:i1]), None))
    if mono.verdict:
        _scan(g, tol, _gap_terms(g.primal_matrix), out=gap_x)
    constant = _scan(g, tol, _gap_terms(g.dual_matrix), out=gap_s)
    paramonotone = NotMonotone(monotone=mono)
    if mono.verdict:
        paramonotone = classify._crossed_pairs(_stored(pairing, gap_x, gap_s))
    return {"monotone": mono, "bimonotone": bimonotone,
            "paramonotone": paramonotone, "constant_on_domain": constant}


# each public entry point of classify and its full-square reference
FULL_SQUARE = {
    "analyze": scan_analyze,
    "monotone_check": scan_monotone,
    "bimonotone_check": scan_bimonotone,
    "paramonotone_check": scan_paramonotone,
    "constant_on_domain_check": scan_constant,
}


# ---------------------------------------------------------------------------
# The former centre: one ``math.fsum`` over each column's list of m floats,
# and when a sum overflows, every coordinate summed in units of 2^e > m.
# ---------------------------------------------------------------------------

def centre(g):
    arrays = g.primal_matrix, g.dual_matrix
    try:
        return GraphPoint(*([math.fsum(c.tolist()) / len(c) for c in a.T] for a in arrays))
    except OverflowError:
        e = len(g.primal_matrix).bit_length()
        return GraphPoint(*(np.ldexp([math.fsum(c.tolist()) / len(c) for c in np.ldexp(a, -e).T], e) for a in arrays))
