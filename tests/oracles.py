"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own vectorized code paths: plain
double loops and a least-squares fit over the free parameters of an
antisymmetric matrix, solved through the normal equations.
"""

import numpy as np


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
