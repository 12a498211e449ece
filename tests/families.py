"""Seeded sample families shared by the test modules, and the tolerance grid
they run at.

Each generator yields ``OperatorGraph`` samples from its own seeded stream,
so every module that draws ``count`` samples of a family gets the same ones.
``off_plane_rotation`` and ``converse_document`` give the planted
decompositions that ``verify`` must not accept on a sample that is not
bimonotone, and ``fallback_graph`` a bimonotone sample that the fit's bound
does not certify at m = 2000.  ``maps`` moves a sample by the maps that keep
the pairing condition, for the agreement and implication modules, and
``product_graph`` gives a sample that is bimonotone and paramonotone.
"""

import numpy as np

from skewfit import GraphPoint, OperatorGraph, OrthonormalBasis, SkewDecomposition, ToleranceConfig, make_fixture
from skewfit.fixtures import FixtureSpec

# (abs_tol, rel_tol) in {1e-12, 1e-9, 1e-6} x {0, 1e-9, 1e-6}
TOLERANCE_GRID = [ToleranceConfig(a, r) for a in (1e-12, 1e-9, 1e-6) for r in (0.0, 1e-9, 1e-6)]


def boundary_family(count):
    """Planted affine skew samples in R^2..R^5 with noise 10^U(-11, -7) at
    primal scales 10^U(-2, 3), so the noise straddles the default tolerance."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n, m = int(rng.integers(2, 6)), int(rng.integers(3, 31))
        b = rng.normal(size=(n, n))
        x = rng.normal(size=(m, n)) * 10 ** rng.uniform(-2, 3)
        v = rng.normal(size=n)
        eps = 10 ** rng.uniform(-11, -7)
        s = x @ ((b - b.T) / 2).T + v + eps * rng.normal(size=(m, n))
        yield OperatorGraph.from_arrays(x, s)


def hard_family_graph(family, n, k, m, seed):
    """A planted skew sample bent into one of the families that a rank rule
    at machine precision or a square pivoted solve gets wrong."""
    fix = make_fixture(FixtureSpec(n=n, k=k, m=m, offset_norm=1.0, seed=seed))
    q = fix.truth.basis.q
    x = fix.graph.primal_matrix
    rng = np.random.Generator(np.random.Philox(seed + 1))  # not the fixture's stream
    if family == "near_plane":
        # every point within 1e-12 of the planted span, off it along one normal
        raw = rng.normal(size=n)
        normal = raw - q @ (q.T @ raw)
        normal /= np.linalg.norm(normal)
        x = x + 1e-12 * rng.normal(size=(m, 1)) * normal
    elif family == "near_duplicate":
        x = np.repeat(x, 2, axis=0)
        x[1::2] += 1e-12 * rng.normal(size=(m, k)) @ q.T
    else:  # far_from_origin
        x = x + 1e6 * q @ rng.normal(size=k)
    return OperatorGraph.from_arrays(x, x @ fix.truth.operator.T + fix.truth.offset)


HARD_FAMILIES = ("near_plane", "near_duplicate", "far_from_origin")


def hard_families(count):
    """``count`` seeded samples of each hard family, in the order of
    ``HARD_FAMILIES``, drawn as ``test_certified_hard_families_decompose_and_verify``
    draws them."""
    rng = np.random.default_rng(2)
    for family in HARD_FAMILIES:
        for _ in range(count):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n if family == "near_plane" else n + 1))
            m = int(rng.integers(k + 1, 31))
            yield hard_family_graph(family, n, k, m, int(rng.integers(2**32)))


def two_branch_family(count):
    """Planted samples with two duals per point, some of them constant and
    some with orthogonal components on their branches."""
    rng = np.random.default_rng(1)
    for seed in range(count):
        n = int(rng.integers(2, 6))
        yield make_fixture(FixtureSpec(
            n=n, k=int(rng.integers(1, n + 1)), m=int(rng.integers(3, 16)), branches=2,
            offset_norm=1.0, noise_orthogonal=float(rng.uniform(0, 2)),
            zero_operator=seed % 4 == 0, seed=seed)).graph


def maps(g, seed):
    """``g`` translated by 10^3 N(0, I) in x and s, scaled by c = 0.01 and
    c = 100, mapped by a random P, and moved by the skew-affine map
    (x, s) -> (x, s + B x + c) with B = (b - b^T) / 2 and b, c ~ N(0, 1), each
    drawn from ``default_rng(seed)``, keyed by the map's name."""
    x, s = g.primal_matrix, g.dual_matrix
    rng = np.random.default_rng(seed)
    n = g.dimension
    p = rng.normal(size=(n, n))
    u, ustar = 1e3 * rng.normal(size=n), 1e3 * rng.normal(size=n)
    b, c = rng.normal(size=(n, n)), rng.normal(size=n)
    return {
        "translation": OperatorGraph.from_arrays(x + u, s + ustar),
        "c = 0.01": OperatorGraph.from_arrays(0.01 * x, s / 0.01),
        "c = 100": OperatorGraph.from_arrays(100.0 * x, s / 100.0),
        "random P": OperatorGraph.from_arrays(x @ p.T, s @ np.linalg.inv(p)),
        "skew-affine": OperatorGraph.from_arrays(x, s + x @ ((b - b.T) / 2).T + c),
    }


def converse_family(count):
    """Samples in R^3 whose planted decomposition (basis e_1, e_2, a_hat the
    rotation A = [[0, b], [-b, 0]], v_hat = 0) verifies while the sample need
    not be bimonotone: x = (xi, +-10^U(-11, -8)) sits just off the span, and
    s = (A xi, 10^U(2, 7) N(0, 1)) has large duals orthogonal to it."""
    rng = np.random.default_rng(11)
    for _ in range(count):
        m, b = int(rng.integers(10, 40)), rng.normal()
        off, far = 10 ** rng.uniform(-11, -8), 10 ** rng.uniform(2, 7)
        xi = rng.normal(size=(m, 2))
        x = np.column_stack([xi, off * rng.choice([-1.0, 1.0], size=m)])
        s = np.column_stack([xi @ np.array([[0.0, b], [-b, 0.0]]).T, far * rng.normal(size=m)])
        yield OperatorGraph.from_arrays(x, s)


def near_constant_family(count):
    """Samples in R^2..R^4 with duals within 10^U(-12, -8) N(0, 1) of one
    point c ~ N(0, I), over primal clouds of scale 10^U(-3, 6)."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        n, m = int(rng.integers(2, 5)), int(rng.integers(5, 40))
        x = 10 ** rng.uniform(-3, 6) * rng.normal(size=(m, n))
        s = rng.normal(size=n) + 10 ** rng.uniform(-12, -8) * rng.normal(size=(m, n))
        yield OperatorGraph.from_arrays(x, s)


def fallback_graph(m):
    """README's fallback graph of m points: the planted rank-8 skew sample
    ``FixtureSpec(n=20, k=8, m, offset_norm=0.3, seed=1)`` with noise off the
    planted span, 1e-11 N(0, 1) on the primal rows, then N(0, 1) on the dual
    rows, both from ``default_rng(5)``.  At the default tolerance the fit's
    bound B certifies it at m = 200 and 500 but not at m = 2000, where its
    leakage term 4 omega eps alone fits the budget."""
    fix = make_fixture(FixtureSpec(n=20, k=8, m=m, offset_norm=0.3, seed=1))
    q = fix.truth.basis.q
    rng = np.random.default_rng(5)
    off = [v - (v @ q) @ q.T for v in (rng.normal(size=(m, 20)), rng.normal(size=(m, 20)))]
    return OperatorGraph.from_arrays(fix.graph.primal_matrix + 1e-11 * off[0], fix.graph.dual_matrix + off[1])


def _planted_document(a_hat):
    """The decomposition on the basis e_1, e_2 of R^3 with skew ``a_hat`` and
    v_hat = 0, basepoint at the origin and no residual claimed."""
    return SkewDecomposition(basis=OrthonormalBasis(np.eye(3)[:, :2]), a_hat=a_hat, v_hat=np.zeros(2),
                             basepoint=GraphPoint(np.zeros(3), np.zeros(3)), max_residual=0.0,
                             skewness_defect=0.0)


def converse_document(g):
    """The planted decomposition of a ``converse_family`` sample: basis e_1,
    e_2 and the rotation [[0, b], [-b, 0]] with b refit from the sample by
    least squares."""
    x, s = g.primal_matrix, g.dual_matrix
    b = np.sum(s[:, 0] * x[:, 1] - s[:, 1] * x[:, 0]) / np.sum(x[:, 0] ** 2 + x[:, 1] ** 2)
    return _planted_document(np.array([[0.0, b], [-b, 0.0]]))


def off_plane_rotation():
    """``(g, dec)``: 40 points in R^3 with x = (xi, +-1.5e-9), xi ~ N(0, I_2),
    and duals (A xi, 1e6 N(0, 1)) for the rotation A = [[0, 1], [-1, 0]], and
    the planted decomposition (basis e_1, e_2, a_hat = A, v_hat = 0).  Every
    dual fits the document exactly on the span, yet the large duals off it
    make the sample fail ``bimonotone_check`` (52.03 at pair (3, 7))."""
    rng = np.random.default_rng(1)
    xi = rng.standard_normal((40, 2))
    sign = np.where(rng.random(40) < 0.5, 1.0, -1.0)
    z = 1e6 * rng.standard_normal(40)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g = OperatorGraph.from_arrays(np.column_stack([xi, 1.5e-9 * sign]), np.column_stack([xi @ a.T, z]))
    return g, _planted_document(a)


def overflowing_sum_family():
    """60 bimonotone samples in R^3 whose first coordinate sums beyond double
    range: x_i = (v, i, i mod 3) for v in {3e307, 7e307, 1e308, 1.7e308,
    -1.7e308} and m in {2, 3, 5, 7, 64, 1000} points, with zero duals or the
    skew duals (0, x_3, -x_2)."""
    for v in (3e307, 7e307, 1e308, 1.7e308, -1.7e308):
        for m in (2, 3, 5, 7, 64, 1000):
            i = np.arange(m, dtype=float)
            x = np.column_stack([np.full(m, v), i, i % 3])
            yield OperatorGraph.from_arrays(x, np.zeros((m, 3)))
            yield OperatorGraph.from_arrays(x, np.column_stack([np.zeros(m), x[:, 2], -x[:, 1]]))


def product_graph(domain, images, n, seed):
    """Every pair (d, r) of a product D x R in R^n: ``domain`` points D on the
    first n // 2 axes, and ``images`` points R = c + W with c fixed and W on
    the other axes, so R - R is orthogonal to D - D.  Each pairing
    <r - r', d - d'> sums products with a zero factor, so is exactly 0, and
    every crossed pair (d, r') is a point of the sample."""
    rng = np.random.default_rng(seed)
    half = n // 2
    d = np.zeros((domain, n))
    d[:, :half] = rng.normal(size=(domain, half))
    r = np.tile(rng.normal(size=n), (images, 1))
    r[:, half:] = rng.normal(size=(images, n - half))
    return OperatorGraph.from_arrays(np.repeat(d, images, axis=0), np.tile(r, (domain, 1)))
