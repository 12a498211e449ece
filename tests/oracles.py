"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own vectorized code paths: plain
double loops and a least-squares fit over the free parameters of an
antisymmetric matrix, solved through the normal equations.  The one
exception is the former full-square pair scan at the end, the bit-for-bit
reference for the library's upper-triangle pass.
"""

import numpy as np

from skewfit import classify
from skewfit.classify import ClassificationReport, NotMonotone
from skewfit.graphs import check_overflow, quiet_overflow


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


@quiet_overflow
def scan_paramonotone(g, tol):
    m = g.primal_matrix.shape[0]
    pairing, gap_x, gap_s = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    mono = _scan(g, tol, _pairing_terms(g), out=pairing)
    if not mono.verdict:
        return NotMonotone(monotone=mono)
    _scan(g, tol, _gap_terms(g.primal_matrix), out=gap_x)
    _scan(g, tol, _gap_terms(g.dual_matrix), out=gap_s)
    return classify._crossed_pairs(pairing, gap_x, gap_s)


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
        paramonotone = classify._crossed_pairs(pairing, gap_x, gap_s)
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
