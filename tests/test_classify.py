import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewfit import (
    ClassificationReport,
    NotMonotone,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    bimonotone_check,
    constant_on_domain_check,
    decompose,
    inverse_graph,
    make_fixture,
    monotone_check,
    paramonotone_check,
)
from skewfit import classify, graphs
from skewfit.fixtures import FixtureSpec

import oracles
from families import product_graph

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


def test_a_product_sample_is_bimonotone_and_paramonotone():
    # D x R with R - R orthogonal to D - D: every pairing is exactly 0 and
    # every crossed pair is stored, so the search ends at t = 0, where a
    # stored 0 is an exact 0, not a tie; the fit of the product is 0
    g = product_graph(12, 9, 6, seed=0)
    reports = classify.analyze(g)
    for name in ("bimonotone", "paramonotone"):
        assert reports[name] == ClassificationReport(True, 0.0), name
    assert np.abs(decompose(g).a_hat).max() <= 1e-12


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


@pytest.mark.parametrize("worst", [0.5, 2.0])
def test_report_from_numpy_values_survives_json(worst):
    # a verdict computed by numpy comparison is a numpy.bool, which json
    # cannot write; the report keeps a Python bool
    worst = np.float64(worst)
    doc = ClassificationReport(worst <= 1, worst, witness=(np.int64(0), np.int64(1))).to_dict()
    assert json.loads(json.dumps(doc)) == {"verdict": bool(worst <= 1), "worst_violation": float(worst),
                                          "witness": [0, 1]}


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
    # |dx| = 2e200 is finite, so its norm is too, by power-of-two scaling: the
    # margins stay finite, and the violation of 1e9 is reported, not hidden
    # by an infinite margin.  Where the gap itself lies beyond double range,
    # |dx| = 3.4e308, every scan raises
    g = OperatorGraph.from_arrays([[1e200], [-1e200]], [[1e-100], [0.0]])
    assert monotone_check(g) == ClassificationReport(True, 0.0)
    assert bimonotone_check(g) == ClassificationReport(False, 999999999.9999999, (0, 1))
    assert paramonotone_check(g) == ClassificationReport(True, 0.0)
    g = OperatorGraph.from_arrays([[1.7e308], [-1.7e308]], [[1e-100], [0.0]])
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


# README's sample (Tolerances): 50 points in R^3, x = 1e6 N(0, 1) drawn
# first, then xstar = 1 + 3e-10 N(0, 1), from default_rng(0); a constant
# rule in dual units called it constant, yet it is not monotone
_rng = np.random.default_rng(0)
README_SAMPLE = OperatorGraph.from_arrays(1e6 * _rng.normal(size=(50, 3)), 1 + 3e-10 * _rng.normal(size=(50, 3)))


@settings(derandomize=True, max_examples=150)
@given(tie_prone_graphs())
@example(README_SAMPLE)
def test_one_row_blocks_match_default_blocks(g):
    checks = {"monotone": monotone_check, "bimonotone": bimonotone_check,
              "paramonotone": paramonotone_check, "constant_on_domain": constant_on_domain_check}
    reference = [(name, check(g)) for name, check in checks.items()]
    assert list(classify.analyze(g).items()) == reference
    # constant => bimonotone => monotone, on the records and on every pair
    records = dict(reference)
    assert (records["constant_on_domain"].worst_violation >= records["bimonotone"].worst_violation
            >= records["monotone"].worst_violation)
    mono, bi, const = oracles.pair_violations(g, ToleranceConfig())
    assert (const >= bi).all() and (bi >= mono).all()
    _assert_matches_full_square_scan(g)
    _assert_stores_full_square_gaps(g)
    with mock.patch.object(classify, "_CHUNK_FLOATS", 1):
        assert [(name, check(g)) for name, check in checks.items()] == reference
        assert list(classify.analyze(g).items()) == reference
        _assert_matches_full_square_scan(g)
        _assert_stores_full_square_gaps(g)


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


def _assert_stores_full_square_gaps(g):
    # the mask equals the full-square scans' bit for bit; the float32 gap
    # matrix is their float64 gaps rounded by the rule, primal gaps on and
    # above the diagonal in the primal unit and dual gaps below in the dual
    # one, every finite gap below 2^e in its triangle's unit; and the exact
    # reads give back every one of those float64 gaps bit for bit
    tol = ToleranceConfig()
    stored, expected = classify._pair_pass(g, tol, store=True)[1], oracles.stored(g, tol)
    assert (stored is None) == (expected is None)
    if expected is None:
        return
    (mask, gaps), (vanishing, reference) = stored, expected
    assert (mask.dtype, mask.shape, mask.tobytes()) == (vanishing.dtype, vanishing.shape, vanishing.tobytes())
    rounded = oracles.rounded(reference, gaps.units)
    assert (gaps.values.dtype, gaps.values.shape, gaps.values.tobytes()) == (np.float32, rounded.shape, rounded.tobytes())
    i, j = np.indices(reference.shape)
    upper = i <= j
    for side, part in ((0, upper), (1, ~upper)):
        assert gaps.exact(side, i[part], j[part]).tobytes() == reference[part].tobytes()
        finite = reference[part][np.isfinite(reference[part])]
        assert (finite < np.ldexp(1.0, gaps.units[side])).all()


# Gaps of every kind the pass can store: 0, subnormals, normals on both
# sides of float32's range, and inf.
_gap_values = st.one_of(
    st.just(0.0), st.just(np.inf),
    st.floats(min_value=0.0, max_value=2.0 ** -1022, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=np.finfo(float).max),
)


@settings(derandomize=True, max_examples=300)
@given(st.lists(_gap_values, min_size=1, max_size=30), st.integers(-1071, 1026))
def test_the_gap_rounding_rule_is_monotone_and_keeps_exact_zeros(values, e):
    # every unit that ``_unit`` can pick, 2^(e - 127) with e from -1071 (a
    # bound of 2^-1074) to 1026: the stored value never decreases with the
    # gap, is 0 exactly when the gap is, and rounds a scalar threshold as it
    # rounds an array entry
    gaps = np.sort(np.array(values + [0.0, 5e-324, 2.0 ** -1022, 3.4e38, 1e39, np.finfo(float).max, np.inf]))
    stored = classify._rounded(gaps, e)
    assert stored.dtype == np.float32
    assert (stored[1:] >= stored[:-1]).all()
    assert ((stored == 0) == (gaps == 0)).all()
    assert [classify._rounded(v, e) for v in gaps] == list(stored)


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
    # 700 points in R^20 take 39 row blocks at the default _CHUNK_FLOATS,
    # three at 4_000_000, an earlier default, and 700 at 1: the block size
    # changes no byte, of a report or of what the pass stores
    g = _seeded_samples()[name]
    for chunk, blocks in ((classify._CHUNK_FLOATS, 39), (4_000_000, 3), (1, 700)):
        with mock.patch.object(classify, "_CHUNK_FLOATS", chunk):
            assert len(range(0, 700, max(1, classify._CHUNK_FLOATS // (700 * 20)))) == blocks
            _assert_stores_full_square_gaps(g)
            if chunk > 1:
                _assert_matches_full_square_scan(g)


# Whichever of the pairing, the primal gap and the dual gap overflows, the
# error names the pair the full-square scans met first: the pairing's first
# overflow, then a monotone sample's primal gap, then its dual gap.  A sample
# that is not monotone reads neither gap, so their overflows raise nothing.
# A case that raises nothing gives the witnesses of the reports that
# ``analyze`` returns (None for a passing one).  Only a quantity beyond double
# range overflows: a norm of 1.5e154, whose square does, is taken by
# ``graphs._norm``, so the first four cases, which overflowed while norms
# were squared as they are, return their reports.
_BIG = 1.5e154
OVERFLOWS = {
    # the dual norms are 2.1e154 and |dx| = 1e300: the pairing is 0
    "pairing": ([[0.0, 0.0], [1e300, 0.0]], [[0.0, _BIG], [0.0, _BIG]], [None] * 4),
    # |ds| |dx| = 0 * 1e300, which the constant report reads too
    "pairing only": ([[0.0, 0.0], [1e300, 0.0]], [[0.0, 1.0], [0.0, 1.0]], [None] * 4),
    # monotone, with primal and dual gaps against norms near 1.5e154
    "primal gap": ([[1e154, 0.0], [_BIG, 0.0]], [[_BIG, 0.0], [_BIG, 0.0]], [None] * 4),
    # not monotone: every report violates by about 1e9 at (0, 1)
    "dual gap": ([[1e154, 0.0], [_BIG, 0.0]], [[1.0, _BIG], [0.0, _BIG]], [(0, 1)] * 3),
    # monotone, with finite differences: the dual gap's margin, the norm of
    # row 0's dual, lies beyond double range at (0, 0), and the primal gap's,
    # row 1's primal norm, at (0, 1); the primal gap is read first
    "norms beyond range": ([[1.2e308, 1.2e308, 0.0], [1.2e308, 1.2e308, 6e307]],
                           [[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 1e-300]], "pair (0, 1)"),
    # not monotone, by about 5e8 at (0, 1): no gap is read, so neither
    # primal norm beyond double range raises
    "norms beyond range, not monotone": ([[1.7e308, 1.7e308, 0.0], [1.7e308, 1.7e308, 1.0]],
                                         [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0]], [(0, 1)] * 3),
    # row 0 violates monotonicity by about 1e9, finitely; the first overflow,
    # of the pairing (-4e308) and both gaps, is at (1, 2), in a later row block
    # when blocks are one row, and must still win
    "after a finite violation": ([[0.0, 0.0], [1e154, 0.0], [-1e154, 0.0]],
                                 [[0.0, 0.0], [-1e154, 0.0], [1e154, 0.0]], "pair (1, 2)"),
    # <ds, dx> = 1e400 - 1e400: the pairing is NaN, not +-inf, and the
    # scale |ds| |dx| is 2e400
    "NaN pairing": ([[0.0, 0.0], [1e200, -1e200]], [[0.0, 0.0], [1e200, 1e200]], "pair (0, 1)"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("chunk", [1, None])
@pytest.mark.parametrize("first", sorted(OVERFLOWS))
def test_overflow_order_matches_full_square_scan(first, chunk):
    x, s, expected = OVERFLOWS[first]
    g = OperatorGraph.from_arrays(x, s)
    if isinstance(expected, list):
        reports = classify.analyze(g).values()
        assert [r.witness for r in reports if isinstance(r, ClassificationReport)] == expected
    else:
        assert _outcome(classify.analyze, g) == f"ValidationError: {expected} overflows double precision; rescale the sample"
    with mock.patch.object(classify, "_CHUNK_FLOATS", chunk or classify._CHUNK_FLOATS):
        _assert_matches_full_square_scan(g)


@pytest.mark.filterwarnings("error")
def test_a_mixed_scale_pair_keeps_its_small_difference():
    # each norm is taken at its own row's scale: a sample rescaled as a whole
    # by 2^-e, e from frexp(max |x|) = 997, would flush 1e-20 to zero.  The
    # pairing reports read as they did while norms were squared as they are;
    # the row norms of 1e300, whose squares overflowed, now give a
    # paramonotone report instead of an overflow at pair (0, 0)
    x = [[1e300, 1e-20], [1e300, 2e-20], [1e300, 4e-20]]
    g = OperatorGraph.from_arrays(x, [[0.0, 0.0], [0.0, 1.0], [1.0, 3.0]])
    assert graphs._norm(np.subtract(x[1], x[0])) == 1e-20
    assert monotone_check(g) == ClassificationReport(True, 0.0)
    assert bimonotone_check(g) == ClassificationReport(True, 4.4999999999999993e-11, (0, 2))
    assert constant_on_domain_check(g) == ClassificationReport(True, 4.743416490252568e-11, (0, 2))
    assert paramonotone_check(g) == ClassificationReport(True, 3e-311, (0, 2))


def _assert_paramonotone_matches(g, tol, expected):
    # at the defaults, where a small sample's pairs are read exactly; in
    # one-float blocks, where the bisection runs to the end; and seeded from
    # a subset of two points, where on samples of more than two points in
    # vanishing pairs the seeded first step runs, or, when no pair of the
    # seed fails, the unseeded search does.  Each report goes through JSON,
    # as the CLI writes it, so a numpy scalar in it fails.
    def check():
        assert json.loads(json.dumps(paramonotone_check(g, tol).to_dict())) == expected
    check()
    for patch in ({"_CHUNK_FLOATS": 1}, {"_SEED_POINTS": 2}, {"_CHUNK_FLOATS": 1, "_SEED_POINTS": 2}):
        with mock.patch.multiple(classify, **patch):
            check()


# A loose tolerance puts normalized distances between grid points on both
# sides of 1, so crossed pairs are found, missed and tied.
@settings(derandomize=True, max_examples=300)
@given(tie_prone_graphs(), st.sampled_from([ToleranceConfig(), ToleranceConfig(0.25, 0.25)]))
def test_paramonotone_matches_brute_force_oracle(g, tol):
    _assert_paramonotone_matches(g, tol, oracles.paramonotone(g, tol))


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
    _assert_paramonotone_matches(g, tol, expected)


# 80 points (40 domain points, two branches each): a budget of 4 m floats
# would give _unmatched tiles of 4 rows, so its floor of ceil(m / 8) = 10 rows
# binds, and the search's shrinking point sets (80, 24, 3 here) end in
# partial tiles.
@pytest.mark.parametrize("tol", [ToleranceConfig(), ToleranceConfig(0.25, 0.25)])
def test_paramonotone_matches_oracle_where_the_tile_row_floor_binds(tol):
    spec = FixtureSpec(n=4, k=2, m=40, branches=2, offset_norm=1.0, noise_orthogonal=1.0, seed=3)
    g = make_fixture(spec).graph
    m = g.primal_matrix.shape[0]
    expected = oracles.paramonotone(g, tol)
    assert expected["witness"] is not None
    with mock.patch.object(classify, "_CHUNK_FLOATS", 4 * m):
        assert classify._CHUNK_FLOATS // m < -(-m // 8) < m
        assert paramonotone_check(g, tol).to_dict() == expected
        with mock.patch.object(classify, "_SEED_POINTS", 2):
            assert paramonotone_check(g, tol).to_dict() == expected


# The crossed-pair search stores float32 gaps in each triangle's own unit and
# takes a gap again in float64 wherever float32 cannot tell it from a
# threshold, so gaps at float32's edges, which one float32 unit for every
# gap would round to one value, are told apart exactly.  Each case is
# checked against the plain-loop oracle.

def test_paramonotone_crossed_distances_below_float32_subnormals():
    # points about 1e-60 apart: every nonzero normalized gap, about 1e-51, is
    # below float32's smallest subnormal
    g = skew_graph_2d(m=40, seed=4)
    g = OperatorGraph.from_arrays(g.primal_matrix * 1e-60, g.dual_matrix * 1e-60)
    tol = ToleranceConfig()
    expected = oracles.paramonotone(g, tol)
    assert 0.0 < expected["worst_violation"] < np.finfo(np.float32).smallest_subnormal
    _assert_paramonotone_matches(g, tol, expected)


def test_paramonotone_crossed_distances_above_float32_max():
    # primal points on the first axis and dual points on the second, so every
    # product is exactly 0 and every pair vanishes.  With an absolute
    # tolerance of 1 a gap is a distance: 1e38 fits float32, the others
    # exceed its maximum, and so does the worst violation
    rng = np.random.Generator(np.random.Philox(12))
    m = 16
    a = rng.choice([0.0, 1e38, 1e39, 3e39], size=m)
    b = rng.choice([0.0, 1e38, 2e39, 5e39], size=m)
    g = OperatorGraph.from_arrays(np.column_stack([a, np.zeros(m)]), np.column_stack([np.zeros(m), b]))
    tol = ToleranceConfig(abs_tol=1.0, rel_tol=0.0)
    expected = oracles.paramonotone(g, tol)
    assert np.finfo(np.float32).max < expected["worst_violation"] < np.inf
    _assert_paramonotone_matches(g, tol, expected)


def test_paramonotone_float32_tie_is_read_exactly_from_float64_gaps():
    # Blocks of two points, (c, c) and (c + (d, 0), c + (0, d)), along the
    # diagonal: each block's pair vanishes exactly, pairs of different blocks
    # do not, and a block's crossed pairs are d from the graph.  The seeded d
    # lie within one float32 step above 1, where float32 ties them all, and
    # the worst one is not block 0's.
    blocks = 8
    d = 1.0 + np.random.Generator(np.random.Philox(16)).integers(1, 2**17, size=blocks) * 2.0**-40
    x = np.repeat(64.0 * np.arange(blocks), 2)[:, None] * np.ones(2)
    s = x.copy()
    x[1::2, 0] += d
    s[1::2, 1] += d
    g = OperatorGraph.from_arrays(x, s)
    tol = ToleranceConfig(abs_tol=1.0, rel_tol=0.0)
    expected = oracles.paramonotone(g, tol)
    violations = list(oracles.crossed_violations(g, tol).values())
    assert len(violations) == blocks and all(1.0 < v < 1.0 + 2.0**-23 for v in violations)
    assert expected["worst_violation"] == d.max() and expected["witness"] != [0, 1]
    _assert_paramonotone_matches(g, tol, expected)


def _search_steps(g, seed_points=None):
    """The number of points of each step of the crossed-pair search of
    ``analyze(g)``, with the seed size ``seed_points`` if given."""
    sizes, unmatched = [], classify._unmatched

    def counted(gaps, pts, t):
        sizes.append(pts.size)
        return unmatched(gaps, pts, t)
    with mock.patch.object(classify, "_unmatched", counted), \
            mock.patch.object(classify, "_SEED_POINTS", seed_points or classify._SEED_POINTS):
        classify.analyze(g)
    return sizes


def _full_searches(g, seed_points=None):
    """How many of the crossed-pair search's steps run over every point."""
    return _search_steps(g, seed_points).count(g.primal_matrix.shape[0])


_PLANTED_1000 = FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, seed=3)


def test_seeded_search_takes_one_full_step_on_the_planted_sample():
    # every pair of the planted sample vanishes; the one step over all 1000
    # points, just below the seed's worst violation, leaves only the pairs
    # violating by as much or more, and the search reads those exactly,
    # where the unseeded search steps over more points in all
    g = make_fixture(_PLANTED_1000).graph
    assert _full_searches(g) == 1
    assert sum(_search_steps(g, seed_points=1000)) > sum(_search_steps(g))


def test_tiny_gaps_take_no_more_full_search_steps():
    # scaled by 1e-60, every nonzero gap of the planted sample lies below
    # float32's smallest subnormal, where a float32 copy in a fixed unit
    # would tie them all; in the triangles' own units the search runs over
    # all 1000 points no more often than on the unscaled sample, or than the
    # unseeded bisection
    g = make_fixture(_PLANTED_1000).graph
    tiny = OperatorGraph.from_arrays(g.primal_matrix * 1e-60, g.dual_matrix * 1e-60)
    assert _full_searches(tiny) <= min(_full_searches(g), _full_searches(tiny, seed_points=1000))


def test_a_seed_with_no_failing_pair_adds_no_full_search_step():
    # x = (a, 0), xstar = (0, b): every pair vanishes exactly.  On a 32 x 32
    # grid of (a, b) every crossed pair is stored; two points off the grid,
    # last, lie outside the seed (every 9th of 1026 points), so no pair of
    # the seed fails, and the search then runs as if unseeded
    a, b = np.meshgrid(np.arange(32.0), np.arange(32.0), indexing="ij")
    a, b = np.append(a.ravel(), [0.5, 7.5]), np.append(b.ravel(), [0.5, 3.5])
    zero = np.zeros_like(a)
    g = OperatorGraph.from_arrays(np.column_stack([a, zero]), np.column_stack([zero, b]))
    m = a.size
    assert -(-m // classify._SEED_POINTS) == 9 and (m - 2) % 9 and (m - 1) % 9
    seeded, unseeded = _search_steps(g), _search_steps(g, seed_points=m)
    assert seeded[len(seeded) - len(unseeded):] == unseeded
    assert max(seeded[:len(seeded) - len(unseeded)]) <= classify._SEED_POINTS
    assert 1 <= seeded.count(m) == unseeded.count(m) <= 4
    assert not paramonotone_check(g).verdict


def test_a_sample_with_every_crossed_pair_stored_takes_one_full_search_step():
    # every dual point of a zero-operator sample coincides, so every pair
    # vanishes and every crossed pair is stored: W = 0, and the first
    # threshold, 0, that fails no pair ends the search
    g = make_fixture(FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, zero_operator=True, seed=3)).graph
    assert _full_searches(g) == _full_searches(g, seed_points=1000) == 1
    assert paramonotone_check(g).to_dict() == {"verdict": True, "worst_violation": 0.0, "witness": None}


def _steps_and_reads(g):
    """The number of points of each step of the crossed-pair search of
    ``analyze(g)``, how many gaps each step takes again in float64, and the
    paramonotone report."""
    steps, reads, unmatched, exact = [], [], classify._unmatched, classify._Gaps.exact

    def step(gaps, pts, t):
        steps.append(pts.size)
        reads.append(0)
        try:
            return unmatched(gaps, pts, t)
        finally:
            steps.append(None)

    def counted(self, side, a, b):
        if steps and steps[-1] is not None:
            reads[-1] += np.size(a)
        return exact(self, side, a, b)
    with mock.patch.object(classify, "_unmatched", step), mock.patch.object(classify._Gaps, "exact", counted):
        report = classify.analyze(g)["paramonotone"]
    return [s for s in steps if s is not None], reads, report


def _hard_sample(name):
    if name == "zero operator":
        return make_fixture(FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, zero_operator=True, seed=3)).graph
    g = make_fixture(_PLANTED_1000).graph
    x, s = g.primal_matrix * 1e-60, g.dual_matrix * 1e-60
    k = 0 if name == "1e-60" else int(name.split("=")[1])
    return OperatorGraph.from_arrays(np.ldexp(x, k), np.ldexp(s, -k))


# Each sample's step sizes and report, as the search on float64 gaps made
# them: the planted sample scaled by 1e-60, where every nonzero gap lies
# below float32's smallest subnormal, then mapped by (2^k x, 2^-k s), which
# moves the primal and the dual gaps some 2^(2k) apart, and the zero-operator
# sample, whose dual gaps are all 0.
HARD_SEARCHES = {
    "1e-60": ([125, 1000, 743], ClassificationReport(True, 2.951967132762722e-51, (161, 638))),
    "k=-200": ([125, 1000], ClassificationReport(True, 2.709487607709353e-111, (161, 298))),
    "k=200": ([125, 1000, 376], ClassificationReport(True, 5.310434442325019e-111, (161, 638))),
    "k=600": ([125, 1000, 376], ClassificationReport(True, 2.0565145485685217e-231, (161, 638))),
    "zero operator": ([125, 1000], ClassificationReport(True, 0.0)),
}


@pytest.mark.parametrize("name", sorted(HARD_SEARCHES))
def test_float32_gaps_keep_the_search_steps_of_float64_gaps(name):
    # each triangle's own unit keeps the float32 gaps apart wherever float64
    # ones are: the search makes the steps it made on float64 gaps and
    # reaches the same report, and each step takes fewer than m gaps again
    steps, reads, report = _steps_and_reads(_hard_sample(name))
    assert (steps, report) == HARD_SEARCHES[name]
    assert max(reads) < 1000


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
    # At m = 1200 the pass stores an m x m bool mask and one float32 gap
    # matrix, 5 m^2 bytes, and the search adds m x m bool and uint8 matrices
    # and blocks: 8.1 m^2 traced in all (12.1 m^2 with a float64 gap
    # matrix).  Another m x m float32 matrix (4 m^2) would break the bound.
    m = 1200
    large = make_fixture(FixtureSpec(n=20, k=8, m=m, offset_norm=1.0, seed=8)).graph
    for g, verdict, bound in ((strict, True, 16e6), (planted, False, 16e6), (large, False, 10 * m * m)):
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
    # m = 1000 in R^20 at the default _CHUNK_FLOATS: a pass holds a few 2 MB
    # difference blocks (7.2 MB traced), and analyze adds the 5 m^2 bytes it
    # stores for the crossed-pair search and the search's m x m bool and
    # uint8 matrices (10.9 MB).  One float64 gap matrix, 9 m^2 bytes stored,
    # peaked at 14.6 MB, two at 24.6 MB; 8 MB blocks at 46.5 MB and 28.7 MB,
    # a float64 pairing matrix and 32 MB blocks at 125 MB and 101 MB.
    planted = make_fixture(FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, seed=3)).graph
    report, peak = _traced_peak(classify.analyze, planted)
    assert report["bimonotone"].verdict and peak < 12e6
    report, peak = _traced_peak(bimonotone_check, planted)
    assert report.verdict and peak < 10e6


def test_pair_pass_takes_no_norm_again_on_the_diagonal(monkeypatch):
    # a diagonal pair's differences are exact zeros, so its norms need no
    # second take: a planted sample of distinct points, 77 row blocks of 13
    # at m = 1000 in R^20, calls graphs._norm in none of them
    calls = []
    monkeypatch.setattr(classify, "_norm", lambda *args, **kwargs: calls.append(1) or graphs._norm(*args, **kwargs))
    planted = make_fixture(FixtureSpec(n=20, k=8, m=1000, offset_norm=1.0, seed=3)).graph
    assert len(range(0, 1000, classify._CHUNK_FLOATS // (1000 * 20))) == 77
    assert monotone_check(planted).verdict
    assert calls == []


def test_paramonotone_stores_nothing_for_a_sample_that_is_not_monotone():
    # the first block of a random sample shows a monotone violation, so the
    # pass never allocates the mask and the gap matrix that analyze
    # keeps for a monotone sample of the same shape; the margin is the float32
    # gaps' 4 m^2 bytes (5.3 m^2 measured)
    m = 1000
    planted = make_fixture(FixtureSpec(n=20, k=8, m=m, offset_norm=1.0, seed=3)).graph
    rng = np.random.Generator(np.random.Philox(5))
    random = OperatorGraph.from_arrays(rng.normal(size=(m, 20)), rng.normal(size=(m, 20)))
    report, monotone_peak = _traced_peak(classify.analyze, planted)
    assert report["monotone"].verdict
    report, peak = _traced_peak(paramonotone_check, random)
    assert isinstance(report, NotMonotone)
    assert peak <= monotone_peak - 4 * m * m
