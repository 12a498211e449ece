import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewfit import (
    ClassificationReport,
    NotMonotone,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    bimonotone_check,
    constant_on_domain_check,
    inverse_graph,
    make_fixture,
    monotone_check,
    paramonotone_check,
    skew_form_check,
    translate,
)
from skewfit import classify
from skewfit.fixtures import FixtureSpec

import oracles

SKEW_2D = np.array([[0.0, 1.0], [-1.0, 0.0]])


def skew_graph_2d(m=20, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(size=(m, 2))
    return OperatorGraph.from_arrays(x, x @ SKEW_2D.T)


def constant_graph(m=6, seed=1, value=(3.0, -1.0)):
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.normal(size=(m, 2))
    s = np.tile(np.asarray(value), (m, 1))
    return OperatorGraph.from_arrays(x, s)


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

def test_monotone_single_point():
    g = OperatorGraph.from_arrays([[1.0, 2.0]], [[3.0, 4.0]])
    rep = monotone_check(g)
    assert rep.verdict and rep.worst_violation == 0.0 and rep.witness is None


def test_monotone_identity_map():
    rng = np.random.Generator(np.random.Philox(2))
    x = rng.normal(size=(10, 3))
    rep = monotone_check(OperatorGraph.from_arrays(x, x))
    assert rep.verdict


def test_monotone_decreasing_false():
    g = OperatorGraph.from_arrays([[0.0], [1.0]], [[1.0], [0.0]])
    rep = monotone_check(g)
    assert not rep.verdict
    assert rep.witness == (0, 1)
    # raw pairing is -1, margin is abs + rel * max(1, |dxstar||dx|) = 2e-9
    assert rep.worst_violation == pytest.approx(1.0 / 2e-9)
    assert oracles.pairwise_products(g)[(0, 1)] == -1.0


def test_monotone_inverse_of_decreasing_also_false():
    g = inverse_graph(OperatorGraph.from_arrays([[0.0], [1.0]], [[1.0], [0.0]]))
    assert not monotone_check(g).verdict


# ---------------------------------------------------------------------------
# bimonotone
# ---------------------------------------------------------------------------

def test_bimonotone_constant_true():
    rep = bimonotone_check(constant_graph())
    assert rep.verdict and rep.worst_violation == 0.0


def test_bimonotone_skew_graph_true():
    rep = bimonotone_check(skew_graph_2d())
    assert rep.verdict
    # the pairings vanish identically for a skew map, up to rounding
    assert oracles.max_abs_pairing(skew_graph_2d()) <= 1e-14


def test_bimonotone_identity_false():
    rng = np.random.Generator(np.random.Philox(5))
    x = rng.normal(size=(6, 2))
    rep = bimonotone_check(OperatorGraph.from_arrays(x, x))
    assert not rep.verdict
    assert rep.witness is not None


def test_bimonotone_detects_in_span_perturbation():
    g = skew_graph_2d(seed=6)
    pts = [(p.x.copy(), p.xstar.copy()) for p in g.points]
    x3, s3 = pts[3]
    pts[3] = (x3, s3 + 1e-3 * x3 / np.linalg.norm(x3))
    bad = OperatorGraph.from_arrays([p[0] for p in pts], [p[1] for p in pts])
    # oracle: a direct scan sees a pairing of order 1e-3
    products = oracles.pairwise_products(bad)
    assert any(abs(v) > 1e-5 for v in products.values())
    rep = bimonotone_check(bad)
    assert not rep.verdict
    i, j = rep.witness
    assert 3 in (i, j)
    # witness must point at the largest normalized violation found by the scan
    assert abs(products[(i, j)]) > 1e-5


def test_bimonotone_implies_monotone():
    for seed in range(8):
        fix = make_fixture(FixtureSpec(n=4, k=2, m=5, branches=2,
                                       noise_orthogonal=float(seed % 2), seed=seed))
        if bimonotone_check(fix.graph).verdict:
            assert monotone_check(fix.graph).verdict


def test_bimonotone_inverse_symmetry_exact():
    for seed in range(4):
        fix = make_fixture(FixtureSpec(n=4, k=2, m=6, seed=seed,
                                       noise_in_span=1e-3 if seed % 2 else 0.0))
        a = bimonotone_check(fix.graph)
        b = bimonotone_check(inverse_graph(fix.graph))
        assert a.verdict == b.verdict
        assert a.worst_violation == b.worst_violation


# ---------------------------------------------------------------------------
# paramonotone
# ---------------------------------------------------------------------------

def test_paramonotone_constant_true():
    rep = paramonotone_check(constant_graph())
    assert isinstance(rep, ClassificationReport) and rep.verdict


def test_paramonotone_skew_on_axes_false():
    # two points e1, e2 of a nonzero skew map: the pairing vanishes but the
    # crossed pair (e1, A e2) is not in the graph
    x = np.eye(2)
    g = OperatorGraph.from_arrays(x, x @ SKEW_2D.T)
    assert oracles.pairwise_products(g)[(0, 1)] == 0.0
    rep = paramonotone_check(g)
    assert isinstance(rep, ClassificationReport)
    assert not rep.verdict
    assert rep.witness == (0, 1)


def test_paramonotone_shared_dual_true():
    g = OperatorGraph.from_arrays(
        [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]
    )
    rep = paramonotone_check(g)
    assert isinstance(rep, ClassificationReport) and rep.verdict


def test_paramonotone_strictly_monotone_map_true():
    rng = np.random.Generator(np.random.Philox(7))
    x = rng.normal(size=(8, 2))
    rep = paramonotone_check(OperatorGraph.from_arrays(x, x))
    assert isinstance(rep, ClassificationReport) and rep.verdict


def test_paramonotone_not_monotone_outcome():
    g = OperatorGraph.from_arrays([[0.0], [1.0]], [[1.0], [0.0]])
    out = paramonotone_check(g)
    assert isinstance(out, NotMonotone)
    assert not out.monotone.verdict
    assert out.to_dict()["status"] == "not_monotone"


# ---------------------------------------------------------------------------
# constant on domain
# ---------------------------------------------------------------------------

def test_constant_single_point():
    g = OperatorGraph.from_arrays([[1.0]], [[5.0]])
    assert constant_on_domain_check(g).verdict


def test_constant_fixture_true():
    assert constant_on_domain_check(constant_graph()).verdict


def test_constant_skew_graph_false():
    g = skew_graph_2d(seed=8)
    diffs = [
        np.linalg.norm(p.xstar - q.xstar)
        for p in g.points
        for q in g.points
    ]
    assert max(diffs) > 1e-3  # images genuinely differ
    rep = constant_on_domain_check(g)
    assert not rep.verdict and rep.witness is not None


def test_constant_implies_bimonotone_and_paramonotone():
    g = constant_graph(seed=9)
    assert constant_on_domain_check(g).verdict
    assert bimonotone_check(g).verdict
    para = paramonotone_check(g)
    assert isinstance(para, ClassificationReport) and para.verdict


# ---------------------------------------------------------------------------
# skew pairing form
# ---------------------------------------------------------------------------

def _translated(g):
    return translate(g, g.points[0].x, g.points[0].xstar)


def test_skew_form_translated_zero_duals():
    rng = np.random.Generator(np.random.Philox(10))
    x = np.vstack([np.zeros(2), rng.normal(size=(5, 2))])
    g = OperatorGraph.from_arrays(x, np.zeros((6, 2)))
    rep = skew_form_check(g)
    assert rep.verdict


def test_skew_form_translated_skew_graph_true():
    g = _translated(skew_graph_2d(seed=11))
    assert skew_form_check(g).verdict


def test_skew_form_radial_perturbation_false():
    g = _translated(skew_graph_2d(seed=12))
    pts = [(p.x.copy(), p.xstar.copy()) for p in g.points]
    x4, s4 = pts[4]
    assert np.linalg.norm(x4) > 0.1
    pts[4] = (x4, s4 + 1e-2 * x4 / np.linalg.norm(x4))
    bad = OperatorGraph.from_arrays([p[0] for p in pts], [p[1] for p in pts])
    # the point condition <xstar, x> = 0 now fails by about 1e-2 * ||x||
    assert abs(np.dot(pts[4][1], x4)) == pytest.approx(
        1e-2 * np.linalg.norm(x4), rel=1e-9
    )
    rep = skew_form_check(bad)
    assert not rep.verdict


def test_skew_form_requires_zero_pair():
    g = OperatorGraph.from_arrays([[1.0, 0.0]], [[0.0, 1.0]])
    with pytest.raises(ValidationError, match="translate"):
        skew_form_check(g)


def test_skew_form_matches_bimonotone_on_translated():
    for seed in range(6):
        noise = 1e-3 if seed % 2 else 0.0
        fix = make_fixture(FixtureSpec(n=3, k=2, m=6, noise_in_span=noise, seed=seed))
        g = _translated(fix.graph)
        assert skew_form_check(g).verdict == bimonotone_check(g).verdict


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_invariant_enforced():
    with pytest.raises(ValidationError):
        ClassificationReport(verdict=True, worst_violation=2.0, witness=(0, 1))
    with pytest.raises(ValidationError):
        ClassificationReport(verdict=False, worst_violation=5.0, witness=None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "check",
    [monotone_check, bimonotone_check, constant_on_domain_check, paramonotone_check],
)
def test_overflow_raises_instead_of_passing(check):
    # products and norms of 1e300 overflow to inf and then NaN; a NaN
    # violation must fail loudly, never vanish from the maximum
    g = OperatorGraph.from_arrays([[1e300], [-1e300]], [[1e300], [0.0]])
    with pytest.raises(ValidationError, match="overflows"):
        check(g)


@pytest.mark.filterwarnings("error")
def test_paramonotone_overflowing_gap_raises():
    # the pairing stays finite, but the primal gap's norm overflows to inf,
    # which makes the margin infinite and would normalize a real violation
    # of 1e9 to 0; every scan must raise instead
    g = OperatorGraph.from_arrays([[1e200], [-1e200]], [[1e-100], [0.0]])
    for check in (monotone_check, bimonotone_check, paramonotone_check):
        with pytest.raises(ValidationError, match="overflows"):
            check(g)


def test_witness_tie_breaks_to_smallest_pair():
    # pairs (0, 1) and (2, 3) violate with identical normalized size while
    # every cross pair has a positive product; (0, 1) must win the tie
    g = OperatorGraph.from_arrays(
        [[0.0], [1.0], [10.0], [11.0]],
        [[1.0], [0.0], [100.0], [99.0]],
    )
    prods = oracles.pairwise_products(g)
    assert prods[(0, 1)] == prods[(2, 3)] == -1.0
    assert all(v > 0 for k, v in prods.items() if k not in {(0, 1), (2, 3)})
    rep = monotone_check(g)
    assert not rep.verdict
    assert rep.witness == (0, 1)


_coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                    allow_infinity=False, width=64)


@st.composite
def graphs_and_permutations(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    x = [draw(st.lists(_coords, min_size=n, max_size=n)) for _ in range(m)]
    s = [draw(st.lists(_coords, min_size=n, max_size=n)) for _ in range(m)]
    perm = draw(st.permutations(range(m)))
    return (
        OperatorGraph.from_arrays(x, s),
        OperatorGraph.from_arrays([x[i] for i in perm], [s[i] for i in perm]),
    )


@settings(derandomize=True, max_examples=60)
@given(graphs_and_permutations())
def test_permutation_invariance(pair):
    g, shuffled = pair
    for check in (monotone_check, bimonotone_check, constant_on_domain_check):
        a = check(g)
        b = check(shuffled)
        assert a.verdict == b.verdict
        assert a.worst_violation == b.worst_violation


@settings(derandomize=True, max_examples=60)
@given(graphs_and_permutations())
def test_inverse_symmetry_property(pair):
    g, _ = pair
    a = bimonotone_check(g)
    b = bimonotone_check(inverse_graph(g))
    assert a.verdict == b.verdict
    assert a.worst_violation == b.worst_violation


# Few distinct coordinates make equal violations, duplicate points and
# vanishing pairs common, so ties straddle block boundaries.
_grid = st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def tie_prone_graphs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    rows = st.lists(st.lists(_grid, min_size=n, max_size=n), min_size=m, max_size=m)
    return OperatorGraph.from_arrays(draw(rows), draw(rows))


@settings(derandomize=True, max_examples=150)
@given(tie_prone_graphs())
def test_one_row_blocks_match_default_blocks(g):
    shifted = translate(g, g.points[0].x, g.points[0].xstar)
    cases = [(check, g) for check in (monotone_check, bimonotone_check,
                                      constant_on_domain_check, paramonotone_check)]
    cases.append((skew_form_check, shifted))
    reference = [check(graph) for check, graph in cases]
    with mock.patch.object(classify, "_CHUNK_FLOATS", 1):
        blocked = [check(graph) for check, graph in cases]
    assert blocked == reference


# A loose tolerance puts normalized distances between grid points on both
# sides of 1, so crossed pairs are found, missed and tied.
@settings(derandomize=True, max_examples=300)
@given(tie_prone_graphs(), st.sampled_from([ToleranceConfig(), ToleranceConfig(0.25, 0.25)]))
def test_paramonotone_matches_brute_force_oracle(g, tol):
    assert paramonotone_check(g, tol).to_dict() == oracles.paramonotone(g, tol)


def test_paramonotone_memory_is_blocked(monkeypatch):
    # one m x m x n difference array is 25.6 MB here; the scan holds blocks of
    # about 100_000 floats and a few m x m matrices.  A strictly monotone
    # sample has no vanishing pair; in a planted bimonotone one every pair
    # vanishes, so the crossed-pair search runs over all 400 points.
    monkeypatch.setattr(classify, "_CHUNK_FLOATS", 100_000)
    x = np.random.Generator(np.random.Philox(8)).normal(size=(400, 20))
    strict = OperatorGraph.from_arrays(x, 2.0 * x)
    planted = make_fixture(FixtureSpec(n=20, k=8, m=400, offset_norm=1.0, seed=8)).graph
    assert bimonotone_check(planted).verdict
    for g, verdict in ((strict, True), (planted, False)):
        tracemalloc.start()
        try:
            rep = paramonotone_check(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == verdict
        assert peak < 16e6
