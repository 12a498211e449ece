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


def test_paramonotone_not_monotone_outcome(monkeypatch):
    # the one pair pass decides the outcome; the crossed-pair search never runs
    calls = {"_pair_pass": 0, "_crossed_pairs": 0}
    for name in calls:
        def counted(*args, _name=name, _call=getattr(classify, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(classify, name, counted)
    g = OperatorGraph.from_arrays([[0.0], [1.0]], [[1.0], [0.0]])
    out = paramonotone_check(g)
    assert isinstance(out, NotMonotone)
    assert not out.monotone.verdict
    assert out.to_dict()["status"] == "not_monotone"
    assert calls == {"_pair_pass": 1, "_crossed_pairs": 0}
    # a monotone sample makes the same one pass before the search
    calls.update(dict.fromkeys(calls, 0))
    assert paramonotone_check(OperatorGraph.from_arrays([[0.0], [1.0]], [[0.0], [1.0]])).verdict
    assert calls == {"_pair_pass": 1, "_crossed_pairs": 1}


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
    checks = {"monotone": monotone_check, "bimonotone": bimonotone_check,
              "paramonotone": paramonotone_check, "constant_on_domain": constant_on_domain_check}
    reference = [(name, check(g)) for name, check in checks.items()]
    assert list(classify.analyze(g).items()) == reference
    _assert_matches_full_square_scan(g)
    with mock.patch.object(classify, "_CHUNK_FLOATS", 1):
        assert [(name, check(g)) for name, check in checks.items()] == reference
        assert list(classify.analyze(g).items()) == reference
        _assert_matches_full_square_scan(g)


def _outcome(call, g):
    """``repr`` of what ``call(g)`` returns, as plain dicts, or its error."""
    try:
        out = call(g, ToleranceConfig())
    except ValidationError as exc:
        return f"ValidationError: {exc}"
    if isinstance(out, dict):
        return repr({name: report.to_dict() for name, report in out.items()})
    return repr(out.to_dict())


def _assert_matches_full_square_scan(g):
    for name, reference in oracles.FULL_SQUARE.items():
        assert _outcome(getattr(classify, name), g) == _outcome(reference, g), name


def _seeded_samples():
    rng = np.random.Generator(np.random.Philox(11))
    x = rng.normal(size=(700, 20))
    skew = rng.normal(size=(20, 20))
    return {
        "planted": make_fixture(FixtureSpec(n=20, k=8, m=700, offset_norm=1.0, seed=11)).graph,
        "strictly monotone": OperatorGraph.from_arrays(x, x @ (np.eye(20) + skew - skew.T).T),
        "random": OperatorGraph.from_arrays(x, rng.normal(size=(700, 20))),
    }


@pytest.mark.parametrize("name", ["planted", "strictly monotone", "random"])
def test_pair_pass_matches_full_square_scan(name):
    # 700 points in R^20 take ten row blocks at the default _CHUNK_FLOATS and
    # three at 4_000_000, the former default: the block size changes no byte
    g = _seeded_samples()[name]
    for chunk, blocks in ((classify._CHUNK_FLOATS, 10), (4_000_000, 3)):
        with mock.patch.object(classify, "_CHUNK_FLOATS", chunk):
            assert len(range(0, 700, classify._CHUNK_FLOATS // (700 * 20))) == blocks
            _assert_matches_full_square_scan(g)


# Whichever of the pairing, the primal gap and the dual gap overflows, the
# error names the pair the full-square scans met first: the pairing's first
# overflow, then a monotone sample's primal gap, then the dual gap.  A norm
# above about 1.34e154 overflows while a difference of such points need not.
_BIG = 1.5e154
OVERFLOWS = {
    # the dual gap overflows at (0, 0), before the pairing at (0, 1)
    "pairing": ([[0.0, 0.0], [1e300, 0.0]], [[0.0, _BIG], [0.0, _BIG]], "pair (0, 1)"),
    # only the pairing overflows: the constant report never reads its error
    "pairing only": ([[0.0, 0.0], [1e300, 0.0]], [[0.0, 1.0], [0.0, 1.0]], "pair (0, 1)"),
    # monotone: the dual gap overflows at (0, 0), the primal gap at (0, 1)
    "primal gap": ([[1e154, 0.0], [_BIG, 0.0]], [[_BIG, 0.0], [_BIG, 0.0]], "pair (0, 1)"),
    # not monotone: the primal gap's overflow at (0, 1) is never used
    "dual gap": ([[1e154, 0.0], [_BIG, 0.0]], [[1.0, _BIG], [0.0, _BIG]], "pair (0, 0)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [1, None])
@pytest.mark.parametrize("first", sorted(OVERFLOWS))
def test_overflow_order_matches_full_square_scan(first, chunk):
    x, s, pair = OVERFLOWS[first]
    g = OperatorGraph.from_arrays(x, s)
    assert _outcome(classify.analyze, g) == f"ValidationError: {pair} overflows double precision; rescale the sample"
    with mock.patch.object(classify, "_CHUNK_FLOATS", chunk or classify._CHUNK_FLOATS):
        _assert_matches_full_square_scan(g)


# A loose tolerance puts normalized distances between grid points on both
# sides of 1, so crossed pairs are found, missed and tied.
@settings(derandomize=True, max_examples=300)
@given(tie_prone_graphs(), st.sampled_from([ToleranceConfig(), ToleranceConfig(0.25, 0.25)]))
def test_paramonotone_matches_brute_force_oracle(g, tol):
    expected = oracles.paramonotone(g, tol)
    assert paramonotone_check(g, tol).to_dict() == expected
    with mock.patch.object(classify, "_CHUNK_FLOATS", 1):
        assert paramonotone_check(g, tol).to_dict() == expected


# Two branches per domain point give duplicate primal points, whose vanishing
# pairs share crossed distances, so several pairs attain the worst one.  The
# constant sample stores every crossed pair: its worst violation is 0.
@pytest.mark.parametrize("tol", [ToleranceConfig(), ToleranceConfig(0.25, 0.25)])
@pytest.mark.parametrize("spec, matched", [
    (FixtureSpec(n=4, k=2, m=16, branches=2, offset_norm=1.0, noise_orthogonal=1.0, seed=3), False),
    (FixtureSpec(n=3, k=3, m=18, branches=2, offset_norm=1.0, seed=2), False),
    (FixtureSpec(n=3, k=2, m=17, branches=2, offset_norm=1.0, zero_operator=True), True),
])
def test_paramonotone_matches_oracle_on_tied_two_branch_fixtures(spec, matched, tol):
    g = make_fixture(spec).graph
    expected = oracles.paramonotone(g, tol)
    violations = oracles.crossed_violations(g, tol).values()
    assert sum(v == expected["worst_violation"] for v in violations) > 1
    assert (expected["worst_violation"] == 0.0) == (expected["witness"] is None) == matched
    assert paramonotone_check(g, tol).to_dict() == expected
    with mock.patch.object(classify, "_CHUNK_FLOATS", 1):
        assert paramonotone_check(g, tol).to_dict() == expected


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
    # At m = 1200 the pass stores an m x m bool mask and two float64 gap
    # matrices, 17 m^2 bytes, and the search adds m x m bool matrices and
    # blocks.  A float32 mask pair over every point with its count matrix
    # (12 m^2 bytes), or an array of every candidate gap (16 m^2), would not
    # fit under 32 m^2.
    m = 1200
    large = make_fixture(FixtureSpec(n=20, k=8, m=m, offset_norm=1.0, seed=8)).graph
    for g, verdict, bound in ((strict, True, 16e6), (planted, False, 16e6), (large, False, 32 * m * m)):
        tracemalloc.start()
        try:
            rep = paramonotone_check(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == verdict
        assert peak < bound


def _traced_peak(call, g):
    tracemalloc.start()
    try:
        out = call(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_pair_pass_peak_memory():
    # m = 1000 in R^20 at the default _CHUNK_FLOATS: a pass holds a few 8 MB
    # difference blocks, and analyze adds the 17 m^2 bytes it stores for the
    # crossed-pair search.  A float64 pairing matrix and 32 MB blocks peaked
    # at 125 MB and 101 MB.
    planted = make_fixture(FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, seed=3)).graph
    report, peak = _traced_peak(classify.analyze, planted)
    assert report["bimonotone"].verdict and peak < 64e6
    report, peak = _traced_peak(bimonotone_check, planted)
    assert report.verdict and peak < 40e6


def test_paramonotone_stores_nothing_for_a_sample_that_is_not_monotone():
    # the first block of a random sample shows a monotone violation, so the
    # pass never allocates the mask and gap matrices that analyze keeps for a
    # monotone sample of the same shape
    m = 1000
    planted = make_fixture(FixtureSpec(n=20, k=8, m=m, offset_norm=1.0, seed=3)).graph
    rng = np.random.Generator(np.random.Philox(5))
    random = OperatorGraph.from_arrays(rng.normal(size=(m, 20)), rng.normal(size=(m, 20)))
    report, monotone_peak = _traced_peak(classify.analyze, planted)
    assert report["monotone"].verdict
    report, peak = _traced_peak(paramonotone_check, random)
    assert isinstance(report, NotMonotone)
    assert peak <= monotone_peak - 12 * m * m
