import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewfit import (
    ClassificationReport,
    GraphPoint,
    InternalInconsistencyError,
    NotBimonotoneError,
    OperatorGraph,
    OrthonormalBasis,
    SkewDecomposition,
    ToleranceConfig,
    ValidationError,
    bimonotone_check,
    build_skew_operator,
    decompose,
    dumps_canonical,
    make_fixture,
    perturb,
    reduce,
    span_basis,
    translate,
    verify_reconstruction,
)
from skewfit import recovery
from skewfit.fixtures import FixtureSpec

import oracles
from families import (HARD_FAMILIES, TOLERANCE_GRID, boundary_family, converse_document, converse_family,
                      hard_families, hard_family_graph, off_plane_rotation, overflowing_sum_family,
                      two_branch_family)


# ---------------------------------------------------------------------------
# span_basis
# ---------------------------------------------------------------------------

def test_span_basis_two_axes():
    b = span_basis([np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])])
    assert b.rank == 2 and b.ambient_dimension == 3
    np.testing.assert_allclose(b.q.T @ b.q, np.eye(2), atol=1e-14)
    # both inputs reproduce under the projector
    p = b.q @ b.q.T
    for v in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0])):
        np.testing.assert_allclose(p @ v, v, atol=1e-13)


def test_span_basis_collinear():
    vs = [np.array([1.0, 2.0, 0.0]), np.array([2.0, 4.0, 0.0]),
          np.array([-3.0, -6.0, 0.0])]
    b = span_basis(vs)
    assert b.rank == 1
    direction = b.q[:, 0]
    np.testing.assert_allclose(
        np.abs(direction), np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0), atol=1e-14
    )


def test_span_basis_empty_and_zero():
    b = span_basis(np.zeros((0, 4)))
    assert b.rank == 0 and b.ambient_dimension == 4
    z = span_basis([np.zeros(3), np.zeros(3)])
    assert z.rank == 0 and z.ambient_dimension == 3


def test_span_basis_planted_rank_with_noise():
    rng = np.random.Generator(np.random.Philox(20))
    q0, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    coords = rng.normal(size=(12, 3))
    vectors = coords @ q0.T + 1e-16 * rng.normal(size=(12, 8))
    # oracle: the singular spectrum has a clean three/five split
    sing = np.linalg.svd(np.stack(list(vectors)), compute_uv=False)
    assert sing[2] > 1e-1 and sing[3] < 1e-13
    b = span_basis(vectors)
    assert b.rank == 3
    p = b.q @ b.q.T
    np.testing.assert_allclose(p @ q0, q0, atol=1e-12)


def test_span_basis_rank_follows_tolerance():
    # points within 1e-12 of a plane in R^3: the plane at the default
    # tolerance, all of R^3 once the tolerance is tighter than the offsets
    rng = np.random.Generator(np.random.Philox(23))
    vectors = rng.normal(size=(20, 3))
    vectors[:, 2] = 1e-12 * rng.normal(size=20)
    assert span_basis(vectors).rank == 2
    assert span_basis(vectors, ToleranceConfig(1e-15, 1e-15)).rank == 3
    rg = reduce(OperatorGraph.from_arrays(vectors, vectors), span_basis(vectors))
    assert rg.dimension == 2


def test_span_basis_input_validation():
    with pytest.raises(ValidationError, match=r"^vectors is not an array of reals: it is ragged"):
        span_basis([np.zeros(2), np.zeros(3)])
    for shape in ((0,), (3,), (2, 2, 2)):
        with pytest.raises(ValidationError, match="^vectors must be a 2-D array"):
            span_basis(np.ones(shape))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            span_basis([[bad, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_identity_basis_is_identity():
    g = OperatorGraph.from_arrays([[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]])
    rg = reduce(g, OrthonormalBasis(np.eye(2)))
    np.testing.assert_array_equal(rg.primal_matrix, g.primal_matrix)
    np.testing.assert_array_equal(rg.dual_matrix, g.dual_matrix)


def test_reduce_drops_orthogonal_dual_components():
    basis = OrthonormalBasis(np.eye(3)[:, :2])
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    s = np.array([[1.0, 1.0, 7.0], [0.0, -1.0, -3.0]])
    rg = reduce(OperatorGraph.from_arrays(x, s), basis)
    assert rg.dimension == 2
    np.testing.assert_array_equal(rg.primal_matrix, x[:, :2])
    np.testing.assert_array_equal(rg.dual_matrix, s[:, :2])


def test_reduce_rejects_out_of_span_primal():
    basis = OrthonormalBasis(np.eye(3)[:, :2])
    x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-3]])
    s = np.zeros((2, 3))
    with pytest.raises(ValidationError, match=r"points\[1\].*residual"):
        reduce(OperatorGraph.from_arrays(x, s), basis)


@pytest.mark.filterwarnings("error")
def test_reduce_overflow_raises_instead_of_passing():
    # the second point lies wholly outside the basis, but its residual and
    # its allowance both overflow to inf, and inf > inf is false
    g = OperatorGraph.from_arrays([[1e200, 0.0], [0.0, 1e200]], np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="overflows double precision"):
        reduce(g, OrthonormalBasis([[1.0], [0.0]]))
    # reduce called on its own, without decompose's bimonotone scan first
    g = translate(OperatorGraph.from_arrays([[1e200], [-1e200]], [[1e-100], [0.0]]),
                  [1e200], [1e-100])
    with pytest.raises(ValidationError, match="overflows double precision"):
        reduce(g, span_basis(g.primal_matrix))


def test_reduce_dimension_mismatch():
    basis = OrthonormalBasis(np.eye(3)[:, :2])
    g = OperatorGraph.from_arrays([[1.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValidationError, match="basis lives in"):
        reduce(g, basis)


@pytest.mark.filterwarnings("error")
def test_standalone_stages_raise_without_warning():
    # 1e-9 / 1e-320 overflows inside the rank rule; the row is within
    # abs_tol of 0, so the span is trivial
    assert span_basis([[1e-320, 0.0]]).rank == 0
    with pytest.raises(ValidationError, match=r"^points\[0\]\.x contains non-finite entries"):
        translate(OperatorGraph.from_arrays([[1e308]], [[0.0]]), [-1e308], [0.0])


# ---------------------------------------------------------------------------
# build_skew_operator
# ---------------------------------------------------------------------------

def test_build_exact_two_by_two():
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = x @ a0.T
    np.testing.assert_array_equal(
        s, np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [1.0, -1.0]])
    )
    fitted = build_skew_operator(OperatorGraph.from_arrays(x, s))
    np.testing.assert_allclose(fitted, a0, atol=1e-12)


def test_build_zero_operator():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    fitted = build_skew_operator(OperatorGraph.from_arrays(x, np.zeros((3, 2))))
    np.testing.assert_array_equal(fitted, np.zeros((2, 2)))


def test_build_rank_zero():
    rg = OperatorGraph.from_arrays(np.zeros((1, 0)), np.zeros((1, 0)))
    fitted = build_skew_operator(rg)
    assert fitted.shape == (0, 0)


def test_build_recovers_random_skew():
    k, m = 4, 12
    b = np.random.Generator(np.random.Philox(21)).standard_normal((k, k))
    a0 = (b - b.T) / 2.0
    rng = np.random.Generator(np.random.Philox(22))
    x = np.vstack([np.zeros(k), rng.normal(size=(m, k))])
    s = x @ a0.T
    fitted = build_skew_operator(OperatorGraph.from_arrays(x, s))
    np.testing.assert_allclose(fitted, a0, atol=1e-10)
    # a least-squares fit over all skew matrices lands on the same answer
    ls = oracles.fit_skew_least_squares(x, s)
    np.testing.assert_allclose(fitted, ls, atol=1e-9)


def test_build_is_the_skew_least_squares_fit():
    # duals off the planted map by noise inside the tolerance: the fit is
    # still the least-squares optimum over all skew matrices
    k, m = 4, 15
    b = np.random.Generator(np.random.Philox(24)).standard_normal((k, k))
    a0 = (b - b.T) / 2.0
    rng = np.random.Generator(np.random.Philox(25))
    x = np.vstack([np.zeros(k), rng.normal(size=(m, k))])
    s = x @ a0.T + 1e-11 * np.vstack([np.zeros(k), rng.normal(size=(m, k))])
    fitted = build_skew_operator(OperatorGraph.from_arrays(x, s))
    ls = oracles.fit_skew_least_squares(x, s)
    np.testing.assert_allclose(fitted, ls, atol=1e-14)
    np.testing.assert_allclose(fitted, -fitted.T, atol=1e-15)


def test_build_requires_zero_pair():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="translate"):
        build_skew_operator(OperatorGraph.from_arrays(x, np.zeros((2, 2))))


def test_build_rank_deficient_reduced_graph():
    # dimension says 2 but every primal point sits on the first axis
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(InternalInconsistencyError, match="span only"):
        build_skew_operator(OperatorGraph.from_arrays(x, np.zeros((3, 2))))


def test_build_ranks_by_the_span_basis_rule():
    # the second direction is 1e-12 long: below the default tolerance,
    # span_basis drops it, and so does the fit, which then spans too little;
    # at a tolerance below it, the fit spans it and recovers a0
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-12]])
    rg = OperatorGraph.from_arrays(x, x @ a0.T)
    assert span_basis(x).rank == 1
    with pytest.raises(InternalInconsistencyError, match="span only 1 of 2"):
        build_skew_operator(rg)
    fine = ToleranceConfig(1e-14, 1e-14)
    assert span_basis(x, fine).rank == 2
    np.testing.assert_allclose(build_skew_operator(rg, fine), a0, rtol=0, atol=1e-12)


def test_build_rejects_nonlinear_duals():
    # the one refusal is the pair check's: its report is attached, and its
    # witness pairs the perturbed point with another
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    s = x @ a0.T
    s[4] += np.array([0.5, 0.5])
    g = OperatorGraph.from_arrays(x, s)
    with pytest.raises(NotBimonotoneError, match=r"^sample is not bimonotone .* at pair \(1, 4\)\)$") as info:
        build_skew_operator(g)
    assert info.value.report == bimonotone_check(g)
    assert info.value.report.witness == (1, 4)
    assert info.value.report.worst_violation == pytest.approx(3.090170e8, rel=1e-6)


def test_build_rejects_symmetric_duals():
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = x @ sym.T
    with pytest.raises(NotBimonotoneError, match=r"worst_violation 6\.666667e\+08 at pair \(1, 2\)"):
        build_skew_operator(OperatorGraph.from_arrays(x, s))


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def planted_fixture(seed=30, **overrides):
    params = dict(n=6, k=3, m=10, branches=2, offset_norm=1.5,
                  noise_orthogonal=1.0, seed=seed)
    params.update(overrides)
    return make_fixture(FixtureSpec(**params))


def test_decompose_constant_graph():
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.normal(size=(6, 3))
    c = np.array([2.0, -1.0, 0.5])
    dec = decompose(OperatorGraph.from_arrays(x, np.tile(c, (6, 1))))
    assert dec.rank == 3  # six generic points span everything after translation
    np.testing.assert_array_equal(dec.a_hat, np.zeros((3, 3)))
    np.testing.assert_allclose(dec.v_hat, dec.basis.q.T @ c, atol=1e-12)
    assert dec.skewness_defect == 0.0
    assert dec.max_residual <= 1e-12


def test_decompose_single_point():
    g = OperatorGraph.from_arrays([[1.0, 2.0]], [[3.0, 4.0]])
    dec = decompose(g)
    assert dec.rank == 0
    assert dec.a_hat.shape == (0, 0) and dec.v_hat.shape == (0,)
    assert dec.max_residual == 0.0
    assert dec.basepoint == g.points[0]


def test_decompose_recovers_planted_operator():
    fix = planted_fixture()
    dec = decompose(fix.graph)
    assert dec.rank == 3
    q = dec.basis.q
    np.testing.assert_allclose(
        dec.a_hat, q.T @ fix.truth.operator @ q, atol=1e-10
    )
    assert dec.skewness_defect <= 1e-10
    assert dec.max_residual <= 1e-10
    # the planted offset reappears in span coordinates
    np.testing.assert_allclose(dec.v_hat, q.T @ fix.truth.offset, atol=1e-10)


def test_decompose_raises_with_report_attached():
    fix = planted_fixture(seed=32, noise_in_span=1e-3)
    with pytest.raises(NotBimonotoneError) as info:
        decompose(fix.graph)
    rep = info.value.report
    assert isinstance(rep, ClassificationReport)
    assert not rep.verdict and rep.witness is not None


def test_decompose_translates_by_the_exact_centre():
    # the document's basepoint is the centre of the sample, each coordinate
    # an exact sum over m, so no order of the points changes it; np.mean
    # rounds 1e16 + 1 and reads 0.25 for the first coordinate below
    x = np.array([[1e16, 0.0], [1.0, 1.0], [-1e16, 0.0], [1.0, -1.0]])
    s = np.array([[3.0, 4.0]] * 4)
    assert np.mean(x[:, 0]) == 0.25
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        dec = decompose(OperatorGraph.from_arrays(x[order], s[order]))
        assert dec.basepoint.x.tolist() == [0.5, 0.0]
        assert dec.basepoint.xstar.tolist() == [3.0, 4.0]


def test_decompose_fits_a_sample_whose_sum_overflows():
    # every difference is small, so the pair check passes; the sum of the
    # primal points is beyond double range, but their centre is not
    g = OperatorGraph.from_arrays([[1e308, 0.0], [1e308, 1.0]], np.zeros((2, 2)))
    assert bimonotone_check(g).verdict
    dec = decompose(g)
    assert dec.basepoint.x.tolist() == [1e308, 0.5]
    assert verify_reconstruction(dec, g).verdict


def test_decompose_fits_every_sample_of_the_overflowing_sum_family():
    """``decompose`` succeeds on all 60 samples of ``overflowing_sum_family``
    (an unscaled sum overflows on 52 of them), as
    ``bimonotone_check`` passes, and its JSON round-tripped document verifies;
    a permutation of the points keeps the basepoint.  Duals of about 1e307
    along the large coordinate can still be refused with "points[i]
    overflows", as at v = 1.7e308 and m = 3: the centre is an ulp (2e292) off
    the equal coordinates, and a norm above about 1.3e154 overflows (ROADMAP
    item 10)."""
    for g in overflowing_sum_family():
        assert bimonotone_check(g).verdict
        dec = decompose(g)
        loaded = SkewDecomposition.from_dict(json.loads(dumps_canonical(dec.to_dict())))
        assert verify_reconstruction(loaded, g).verdict
        reversed_graph = OperatorGraph.from_arrays(g.primal_matrix[::-1], g.dual_matrix[::-1])
        basepoint = decompose(reversed_graph).basepoint
        assert (basepoint.x.tolist(), basepoint.xstar.tolist()) == (dec.basepoint.x.tolist(),
                                                                    dec.basepoint.xstar.tolist())


def _assert_former_centre(g):
    got, want = recovery._centre(g), oracles.centre(g)
    assert got.x.tobytes() == want.x.tobytes()
    assert got.xstar.tobytes() == want.xstar.tobytes()


def _fsum_lengths(monkeypatch, g):
    """How many values each ``math.fsum`` call of ``recovery._centre(g)`` sums."""
    lengths, fsum = [], math.fsum

    def counted(values):
        values = list(values)
        lengths.append(len(values))
        return fsum(values)

    with monkeypatch.context() as patch:
        patch.setattr(math, "fsum", counted)
        recovery._centre(g)
    return lengths


_SMALLEST_NORMAL = 2.2250738585072014e-308
_column_kinds = {
    "any": st.floats(allow_nan=False, allow_infinity=False),
    "unit": st.floats(-1.0, 1.0),
    "zeros": st.sampled_from([0.0, -0.0]),
    "subnormal": st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),
}


@st.composite
def centre_graphs(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    columns = []
    for _ in range(2 * n):
        kind = draw(st.sampled_from([*_column_kinds, "equal"]))
        if kind == "equal":
            columns.append([draw(_column_kinds["any"] | _column_kinds["unit"])] * m)
        else:
            columns.append(draw(st.lists(_column_kinds[kind], min_size=m, max_size=m)))
    table = np.array(columns).T
    return OperatorGraph.from_arrays(table[:, :n], table[:, n:])


@settings(derandomize=True, max_examples=300)
@given(centre_graphs())
def test_centre_is_the_former_fsum_centre(g):
    _assert_former_centre(g)


@pytest.mark.parametrize("v", [0.1, 1 / 3, -2.5e-310, -0.0, 1e300])
@pytest.mark.parametrize("m", [1, 3, 1000])
def test_centre_of_equal_rows_is_the_former_fsum_centre(v, m):
    _assert_former_centre(OperatorGraph.from_arrays(np.full((m, 2), v), np.full((m, 2), -v)))


def test_centre_where_a_sum_may_overflow_is_the_former_fsum_centre():
    # the 1.7e308 rows sum beyond double range, so the former code runs as it was
    for g in overflowing_sum_family():
        _assert_former_centre(g)


def test_centre_of_a_column_spanning_600_decades_stops_extracting(monkeypatch):
    # each round resolves about 41 binary orders of magnitude at m = 3000, so
    # the round cap hands what is left, entry by entry, to fsum
    rng = np.random.Generator(np.random.Philox(38))
    x = rng.choice([-1.0, 1.0], size=(3000, 2)) * 10.0 ** rng.uniform(-300, 300, size=(3000, 2))
    g = OperatorGraph.from_arrays(x, rng.normal(size=(3000, 2)))
    _assert_former_centre(g)
    assert max(_fsum_lengths(monkeypatch, g)) > recovery._EXTRACT_ROUNDS


def test_centre_of_a_normal_sample_sums_at_most_64_values_at_once(monkeypatch):
    rng = np.random.Generator(np.random.Philox(39))
    g = OperatorGraph.from_arrays(rng.normal(size=(20000, 20)), rng.normal(size=(20000, 20)))
    _assert_former_centre(g)
    lengths = _fsum_lengths(monkeypatch, g)
    assert len(lengths) == 40 and max(lengths) <= 64


def test_decompose_basis_change_is_a_conjugation():
    fix = planted_fixture(seed=34)
    g = fix.graph
    m = len(g.points)
    perm = list(reversed(range(m)))
    shuffled = OperatorGraph.from_arrays(
        [g.points[i].x for i in perm], [g.points[i].xstar for i in perm]
    )
    dec1 = decompose(g)
    dec2 = decompose(shuffled)  # the same centre, whatever the order
    r = dec2.basis.q.T @ dec1.basis.q
    np.testing.assert_allclose(r @ r.T, np.eye(dec1.rank), atol=1e-12)
    np.testing.assert_allclose(dec2.a_hat, r @ dec1.a_hat @ r.T, atol=1e-10)
    np.testing.assert_allclose(dec2.v_hat, r @ dec1.v_hat, atol=1e-10)
    # expanded back to ambient coordinates the two representations agree
    for dec in (dec1, dec2):
        pred = (g.primal_matrix @ dec.basis.q) @ dec.a_hat.T + dec.v_hat
        ambient = pred @ dec.basis.q.T
        proj = (g.dual_matrix @ dec.basis.q) @ dec.basis.q.T
        np.testing.assert_allclose(ambient, proj, atol=1e-10)


def test_decompose_quadratic_form_vanishes():
    fix = planted_fixture(seed=35)
    dec = decompose(fix.graph)
    rng = np.random.Generator(np.random.Philox(36))
    for _ in range(10):
        z = rng.normal(size=dec.rank)
        assert abs(float(z @ (dec.a_hat @ z))) <= 1e-12 * (z @ z)


def test_decompose_antisymmetry_exact():
    fix = planted_fixture(seed=37)
    dec = decompose(fix.graph)
    np.testing.assert_array_equal(dec.a_hat, -dec.a_hat.T)


@pytest.mark.parametrize("sample", ["one_branch", "two_branches", "rank_zero"])
def test_decompose_runs_one_svd(monkeypatch, sample):
    # the span and the fit come from one factorization; a sample whose
    # primal points are all equal spans nothing and needs none
    if sample == "rank_zero":
        rng = np.random.Generator(np.random.Philox(47))
        g = OperatorGraph.from_arrays(np.ones((4, 3)), rng.normal(size=(4, 3)))
    else:
        g = planted_fixture(seed=46, branches=1 if sample == "one_branch" else 2).graph
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
    dec = decompose(g)
    assert (dec.rank, len(calls)) == ((0, 0) if sample == "rank_zero" else (3, 1))
    assert dec.a_hat.shape == (dec.rank, dec.rank)
    assert np.array_equal(dec.a_hat, -dec.a_hat.T)
    assert dec.skewness_defect == 0.0


@pytest.mark.filterwarnings("error")
def test_decompose_tiny_directions_fit_or_overflow():
    # a cloud centred at the origin: with abs_tol 0, two directions 1e-160
    # long enter the basis; their squares are subnormal, yet the fit is
    # exact, and an operator beyond double range raises instead of warning
    x = np.zeros((7, 3))
    x[1:3, 0], x[3:5, 1], x[5:7, 2] = [1.0, -1.0], [1e-160, -1e-160], [1e-160, -1e-160]
    s = np.zeros((7, 3))
    s[3:5, 2], s[5:7, 1] = [1e140, -1e140], [-1e140, 1e140]
    tol = ToleranceConfig(0.0, 1e-9)
    dec = decompose(OperatorGraph.from_arrays(x, s), tol=tol)
    q = dec.basis.q
    planted = np.zeros((3, 3))
    planted[2, 1], planted[1, 2] = 1e300, -1e300
    assert dec.rank == 3
    np.testing.assert_allclose(q @ dec.a_hat @ q.T, planted, atol=1e288)
    assert verify_reconstruction(dec, OperatorGraph.from_arrays(x, s), tol).verdict
    with pytest.raises(ValidationError, match="^the skew fit overflows double precision"):
        decompose(OperatorGraph.from_arrays(x, 1e9 * s), tol=tol)


def test_a_certified_fit_skips_the_pair_check(pair_checks):
    # the fit's own bound certifies a planted sample: neither decompose nor
    # build_skew_operator runs the O(m^2 n) pass
    fix = planted_fixture(seed=46, m=40)
    dec = decompose(fix.graph)
    first = fix.graph.points[0]
    build_skew_operator(reduce(translate(fix.graph, first.x, first.xstar), dec.basis))
    assert pair_checks == []
    # a sample kicked off the planted map falls back to the pass, once, and
    # is refused with the report that the pass returned
    g = perturb(fix.graph, 7, "in_span", 1e-3, fix.truth.basis, seed=3)
    with pytest.raises(NotBimonotoneError) as refused:
        decompose(g)
    assert len(pair_checks) == 1 and refused.value.report is pair_checks[0]
    assert refused.value.report == bimonotone_check(g) and not refused.value.report.verdict


@pytest.mark.parametrize("case", ["centre", "fit", "residual"])
def test_every_error_waits_for_the_pair_check(case, pair_checks):
    # a sample that would overflow in decompose, but is not bimonotone, is
    # refused as not bimonotone, as if the pass had run first; the centre of
    # finite points is finite, so the centre case has no overflow to wait for
    if case == "centre":
        x, s, tol = [[1e308, 0.0], [1e308, 1.0]], [[0.0, 0.0], [0.0, 1.0]], ToleranceConfig()
        error = None
    elif case == "fit":  # the operator of test_decompose_tiny_directions_fit_or_overflow
        x = np.zeros((7, 3))
        x[1:3, 0], x[3:5, 1], x[5:7, 2] = [1.0, -1.0], [1e-160, -1e-160], [1e-160, -1e-160]
        s = np.zeros((7, 3))
        s[3:5, 2], s[5:7, 1] = [1e149, -1e149], [-1e149, 1e149]
        s[1, 0], tol, error = 1.0, ToleranceConfig(0.0, 1e-9), "the skew fit"
    else:  # the decompose_overflow case of the CLI tests, one dual moved
        x = [[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]]
        s, tol, error = [[1e160, 0.0], [1e160, 1.0], [1e160, 0.0]], ToleranceConfig(), "points[0]"
    g = OperatorGraph.from_arrays(x, s)
    with pytest.raises(NotBimonotoneError) as refused:
        decompose(g, tol)
    assert len(pair_checks) == 1 and refused.value.report == bimonotone_check(g, tol)
    # the same sample with that dual put back is bimonotone, and overflows
    if error is not None:
        with pytest.raises(ValidationError, match="^" + re.escape(error) + " overflows double precision"):
            decompose(OperatorGraph.from_arrays(x, np.where(np.abs(s) == 1.0, 0.0, s)), tol)


def test_verify_refuses_an_overflowing_centre_through_the_pair_check(pair_checks):
    # every residual is within the document's max_residual, and the centre
    # overflows: the pair check runs first, once, and refuses the sample
    g = OperatorGraph.from_arrays([[1e308, 0.0], [1e308, 1.0]], [[0.0, 0.0], [0.0, 1.0]])
    dec = SkewDecomposition(basis=OrthonormalBasis([[0.0], [1.0]]), a_hat=[[0.0]], v_hat=[0.0],
                            basepoint=GraphPoint([0.0, 0.0], [0.0, 0.0]), max_residual=1.0,
                            skewness_defect=0.0)
    with pytest.raises(NotBimonotoneError, match=r"worst_violation 5\.000000e\+08 at pair \(0, 1\)"):
        verify_reconstruction(dec, g)
    assert len(pair_checks) == 1


@pytest.mark.parametrize("dual, error, message", [
    (1.0, NotBimonotoneError, r"worst_violation 1\.000000e\+09 at pair \(0, 1\)"),
    (0.0, ValidationError, "^the skew fit overflows double precision"),
], ids=["not-bimonotone", "overflow"])
def test_build_skew_operator_waits_for_the_pair_check(dual, error, message, pair_checks):
    # the "fit" graph of test_every_error_waits_for_the_pair_check, which
    # contains (0, 0): the pair check runs once, and decides before the
    # fit's overflow can
    x = np.zeros((7, 3))
    x[1:3, 0], x[3:5, 1], x[5:7, 2] = [1.0, -1.0], [1e-160, -1e-160], [1e-160, -1e-160]
    s = np.zeros((7, 3))
    s[3:5, 2], s[5:7, 1], s[1, 0] = [1e149, -1e149], [-1e149, 1e149], dual
    with pytest.raises(error, match=message):
        build_skew_operator(OperatorGraph.from_arrays(x, s), ToleranceConfig(0.0, 1e-9))
    assert len(pair_checks) == 1


@functools.cache
def grid_decompositions():
    """``(g, tol, decompose(g, tol) or the report it refused with)`` for all
    2000 boundary samples at the default and the abs-only tolerance, and for
    the first 600 of them, the two-branch fixtures and the hard families at
    every tolerance of ``TOLERANCE_GRID``."""
    boundary = list(boundary_family(2000))
    others = list(two_branch_family(20)) + list(hard_families(30))
    out = []
    for tol in TOLERANCE_GRID:
        wide = tol in (ToleranceConfig(), ToleranceConfig(1e-9, 0.0))
        for g in boundary[:2000 if wide else 600] + others:
            try:
                out.append((g, tol, decompose(g, tol)))
            except NotBimonotoneError as exc:
                out.append((g, tol, exc.report))
    return tuple(out)


def test_boundary_family_decomposition_verifies_on_its_sample(monkeypatch):
    # the paper's equivalence at every tolerance of the grid: decompose
    # refuses a sample only with the failing report of the pair check
    # (analyze's bimonotone report), it accepts only a sample that passes an
    # independent pair check (decompose runs none when its fit certifies the
    # sample), and every document it writes passes verify on its sample after
    # a JSON round trip, since verify allows each point the document's own
    # max_residual
    checks = {}

    def check(g, tol):
        # one pair pass per (sample, tolerance): the check is deterministic, so
        # this test's own call and the fallbacks of decompose and verify share it
        if (id(g), tol) not in checks:
            checks[id(g), tol] = g, bimonotone_check(g, tol)
        return checks[id(g), tol][1]

    monkeypatch.setattr(recovery, "bimonotone_check", check)
    wrong_refusals, wrong_acceptances, unverified = [], [], []
    for i, (g, tol, out) in enumerate(grid_decompositions()):
        if isinstance(out, ClassificationReport):
            if out.verdict or out != check(g, tol):
                wrong_refusals.append(i)
        else:
            if not check(g, tol).verdict:
                wrong_acceptances.append(i)
            back = SkewDecomposition.from_dict(json.loads(dumps_canonical(out.to_dict())))
            if not verify_reconstruction(back, g, tol).verdict:
                unverified.append(i)
    assert (wrong_refusals, wrong_acceptances, unverified) == ([], [], [])
    kinds = {type(out) for _, _, out in grid_decompositions()}
    assert kinds == {ClassificationReport, SkewDecomposition}  # the family reaches past the tolerance


def test_decompose_residual_within_the_pair_check_bound():
    # the paper's "bimonotone => the skew fit is good", in floating point:
    # the pair check bounds the fit's max_residual, which verify allows
    rng = np.random.default_rng(5)
    fixtures = []
    for seed in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        fixtures.append(make_fixture(FixtureSpec(
            n=n, k=k, m=int(rng.integers(k + 1, 31)), branches=int(rng.integers(1, 3)),
            offset_norm=float(rng.uniform(0, 2)), noise_orthogonal=float(rng.uniform(0, 2)),
            zero_operator=seed % 10 == 0, seed=seed)).graph)
    decs = [(g, out) for g, _, out in grid_decompositions() if isinstance(out, SkewDecomposition)]
    decs += [(g, decompose(g)) for g in fixtures]
    ratios = [dec.max_residual / oracles.residual_bound(g, dec.rank) for g, dec in decs if dec.rank > 0]
    assert len(ratios) > 5000 and max(ratios) <= 1.0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(HARD_FAMILIES),
    n=st.integers(2, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_hard_families_decompose_and_verify(family, n, data, seed):
    # the paper's equivalence at the working tolerance: a certified sample
    # decomposes, and the decomposition reproduces the sample
    k = data.draw(st.integers(1, n - 1 if family == "near_plane" else n), label="k")
    m = data.draw(st.integers(k + 1, 30), label="m")
    g = hard_family_graph(family, n, k, m, seed)
    if bimonotone_check(g).verdict:
        dec = decompose(g)
        assert verify_reconstruction(dec, g).verdict


# ---------------------------------------------------------------------------
# verify_reconstruction
# ---------------------------------------------------------------------------

def test_verify_clean_fixture():
    fix = planted_fixture(seed=38)
    dec = decompose(fix.graph)
    rep = verify_reconstruction(dec, fix.graph)
    assert rep.verdict
    assert rep.max_residual <= 1e-10
    assert len(rep.residuals) == len(fix.graph.points)


def test_verify_flags_in_span_perturbation():
    fix = planted_fixture(seed=39)
    dec = decompose(fix.graph)
    bad = perturb(fix.graph, index=3, direction="in_span", amplitude=1e-3,
                  basis=fix.truth.basis, seed=40)
    rep = verify_reconstruction(dec, bad)
    assert not rep.verdict
    assert rep.worst_index == 3
    assert 1e-4 < rep.max_residual < 1e-2


def test_verify_allows_the_documents_max_residual():
    # a document claims its fit within max_residual: a point off the fit by
    # less than that passes even beyond its margin of 2e-9, and a false
    # verdict names a point that fails, not the one with the largest residual;
    # every primal difference lies along e_1 and every misfit along e_2, so
    # no pairing moves and the sample stays bimonotone
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dec = SkewDecomposition(basis=OrthonormalBasis(np.eye(2)), a_hat=a0, v_hat=np.zeros(2),
                            basepoint=GraphPoint([0.0, 0.0], [0.0, 0.0]),
                            max_residual=1e-6, skewness_defect=0.0)
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1e6, 0.0]])
    s = x @ a0.T
    s[1, 1] += 5e-7
    rep = verify_reconstruction(dec, OperatorGraph.from_arrays(x, s))
    assert rep.verdict and rep.worst_index == 1
    s[1, 1] += 2e-6  # now beyond max_residual, and beyond its margin
    s[2, 1] += 5e-4  # half the margin at scale 1e6, five hundred times max_residual
    rep = verify_reconstruction(dec, OperatorGraph.from_arrays(x, s))
    assert not rep.verdict and rep.worst_index == 1
    assert rep.max_residual == pytest.approx(5e-4) and rep.residuals[1] == pytest.approx(2.5e-6)
    # the same misfit along e_1 makes the pairing of points 0 and 1 5e-7,
    # and max_residual buys no verdict on a sample that is not bimonotone
    s = x @ a0.T
    s[1, 0] += 5e-7
    g = OperatorGraph.from_arrays(x, s)
    with pytest.raises(NotBimonotoneError) as refused:
        verify_reconstruction(dec, g)
    assert refused.value.report == bimonotone_check(g) and refused.value.report.witness == (0, 1)


def test_verify_refuses_a_planted_rotation_off_its_plane():
    # the primal points sit 1.5e-9 off the plane of the document, and the
    # duals off it are 1e6: every residual on the plane is 0, yet the
    # sample is not bimonotone, and verify refuses it with the pair report
    g, dec = off_plane_rotation()
    assert recovery._reconstruction(dec.basis.q, dec.a_hat, dec.v_hat, g, ToleranceConfig(), 0.0).verdict
    report = bimonotone_check(g)
    assert not report.verdict and report.witness == (3, 7) and round(report.worst_violation, 2) == 52.03
    with pytest.raises(NotBimonotoneError) as refused:
        verify_reconstruction(dec, g)
    assert refused.value.report == report
    assert str(refused.value) == ("sample is not bimonotone at tolerance "
                                  "(worst_violation 5.202522e+01 at pair (3, 7))")


def test_verify_refuses_a_claimed_max_residual():
    # a document of a planted skew map fails on duals 1e3 N(0, 1) over the
    # same points; claiming a max_residual of 1e300 passes the residual rule
    # but not the certificate, since the sample is far from bimonotone
    rng = np.random.default_rng(0)
    x, b = rng.normal(size=(20, 3)), rng.normal(size=(3, 3))
    dec = decompose(OperatorGraph.from_arrays(x, x @ (b - b.T).T))
    g = OperatorGraph.from_arrays(x, 1e3 * rng.normal(size=(20, 3)))
    assert not verify_reconstruction(dec, g).verdict
    claim = dataclasses.replace(dec, max_residual=1e300)
    with pytest.raises(NotBimonotoneError) as refused:
        verify_reconstruction(claim, g)
    assert refused.value.report == bimonotone_check(g) and not refused.value.report.verdict


def test_verify_passes_exactly_the_bimonotone_converse_samples():
    # the paper's "if" direction at every tolerance of the grid: a planted
    # document, or decompose's own, verifies a converse sample exactly when
    # the sample passes the pair check, and a refusal carries its report
    mismatches, verified = [], []
    for tol in TOLERANCE_GRID:
        count = 0
        for i, g in enumerate(converse_family(60)):
            report = bimonotone_check(g, tol)
            try:
                planted = verify_reconstruction(converse_document(g), g, tol).verdict
            except NotBimonotoneError as exc:
                planted = exc.report == report and None
            try:
                made = verify_reconstruction(decompose(g, tol), g, tol).verdict
            except NotBimonotoneError as exc:
                made = exc.report == report and None
            if (planted, made) != ((True, True) if report.verdict else (None, None)):
                mismatches.append((tol, i, planted, made))
            count += planted is True
        verified.append(count)
    assert mismatches == []
    assert 0 in verified and 60 in verified and any(0 < c < 60 for c in verified)


# a rank-1 document that every sample with zero duals fits with residual 0
RANK_ONE = SkewDecomposition(basis=OrthonormalBasis([[1.0]]), a_hat=[[0.0]], v_hat=[0.0],
                             basepoint=GraphPoint([0.0], [0.0]), max_residual=0.0, skewness_defect=0.0)


@pytest.mark.filterwarnings("error")
def test_verify_certifies_a_sample_whose_sum_overflows_by_the_bound(pair_checks):
    # two equal points at 1e308: their sum overflows, but their centre is
    # 1e308, so verify keeps its verdict and residuals through the fit's
    # bound, with no pair check, and decompose fits the sample
    g = OperatorGraph.from_arrays([[1e308], [1e308]], [[0.0], [0.0]])
    report = verify_reconstruction(RANK_ONE, g)
    assert report.verdict and report.residuals == (0.0, 0.0)
    assert pair_checks == []
    assert decompose(g).basepoint.x.tolist() == [1e308]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", ["verify", "decompose"])
def test_a_centred_row_beyond_double_range_waits_for_the_pair_check(call):
    # the centre 1.7e308 / 3 is finite, but the second row less it is not:
    # the overflow of the pair check decides, for verify as for decompose
    g = OperatorGraph.from_arrays([[1.7e308], [-1.7e308], [1.7e308]], np.zeros((3, 1)))
    assert recovery._reconstruction(RANK_ONE.basis.q, RANK_ONE.a_hat, RANK_ONE.v_hat, g,
                                    ToleranceConfig(), 0.0).verdict
    with pytest.raises(ValidationError, match=r"^pair \(0, 1\) overflows double precision"):
        verify_reconstruction(RANK_ONE, g) if call == "verify" else decompose(g)


def test_verify_ignores_orthogonal_perturbation():
    fix = planted_fixture(seed=41)
    dec = decompose(fix.graph)
    bad = perturb(fix.graph, index=5, direction="orthogonal", amplitude=1.0,
                  basis=fix.truth.basis, seed=42)
    rep = verify_reconstruction(dec, bad)
    assert rep.verdict


def test_verify_dimension_mismatch():
    fix = planted_fixture(seed=43)
    dec = decompose(fix.graph)
    g = OperatorGraph.from_arrays([[1.0]], [[1.0]])
    with pytest.raises(ValidationError, match="graph lives in"):
        verify_reconstruction(dec, g)


# ---------------------------------------------------------------------------
# serialization of decompositions
# ---------------------------------------------------------------------------

def test_decomposition_round_trip_is_exact():
    fix = planted_fixture(seed=44)
    dec = decompose(fix.graph)
    doc = json.loads(dumps_canonical(dec.to_dict()))
    back = SkewDecomposition.from_dict(doc)
    np.testing.assert_array_equal(back.basis.q, dec.basis.q)
    np.testing.assert_array_equal(back.a_hat, dec.a_hat)
    np.testing.assert_array_equal(back.v_hat, dec.v_hat)
    np.testing.assert_array_equal(back.basepoint.x, dec.basepoint.x)
    np.testing.assert_array_equal(back.basepoint.xstar, dec.basepoint.xstar)
    assert back.max_residual == dec.max_residual
    assert back.skewness_defect == dec.skewness_defect


def test_decomposition_from_dict_validation():
    fix = planted_fixture(seed=45)
    doc = decompose(fix.graph).to_dict()
    extra = dict(doc)
    extra["note"] = "hi"
    with pytest.raises(ValidationError, match="unknown key"):
        SkewDecomposition.from_dict(extra)
    missing = dict(doc)
    del missing["v_hat"]
    with pytest.raises(ValidationError, match="missing key"):
        SkewDecomposition.from_dict(missing)
    bent = dict(doc)
    bent["a_hat"] = [[0.0]]
    with pytest.raises(ValidationError, match=re.escape("a_hat has shape (1, 1), expected (3, 3)")):
        SkewDecomposition.from_dict(bent)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("basis", [[1.0, 0.0], [0.0]], "ragged"),
        ("basis", "eye", "only numbers"),
        ("v_hat", ["0"], "only numbers"),
        ("basepoint", {"x": [0.0, None], "xstar": [0.0, 0.0]}, "only numbers"),
        ("max_residual", "small", "max_residual must be finite and nonnegative"),
        ("max_residual", [0.0], "max_residual must be finite and nonnegative"),
        ("skewness_defect", 1e400, "finite"),
        # true is not a number, not even among numbers that make an array of floats
        ("v_hat", [True, 0.0], "only numbers"),
        ("a_hat", [[0.0, True], [-1.0, 0.0]], "only numbers"),
        ("basepoint", {"x": [True, 0.0], "xstar": [0.0, 0.0]}, "only numbers"),
        ("max_residual", 10**400, "max_residual must be finite and nonnegative"),
    ],
)
def test_decomposition_from_dict_rejects_non_numbers(key, value, message):
    doc = {
        "basis": [[1.0, 0.0], [0.0, 1.0]], "a_hat": [[0.0, 1.0], [-1.0, 0.0]], "v_hat": [0.0, 0.0],
        "basepoint": {"x": [0.0, 0.0], "xstar": [0.0, 0.0]},
        "max_residual": 0.0, "skewness_defect": 0.0,
    }
    SkewDecomposition.from_dict(doc)
    doc[key] = value
    with pytest.raises(ValidationError, match=message) as info:
        SkewDecomposition.from_dict(doc)
    assert str(info.value).startswith(key)  # the message names the field


def test_orthonormal_basis_validation():
    with pytest.raises(ValidationError, match="orthonormal"):
        OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError, match="columns"):
        OrthonormalBasis(np.ones((1, 2)))


def _plane_document(**changes):
    doc = {
        "basis": [[1.0, 0.0], [0.0, 1.0]], "a_hat": [[0.0, 1.0], [-1.0, 0.0]], "v_hat": [0.0, 0.0],
        "basepoint": {"x": [0.0, 0.0], "xstar": [0.0, 0.0]},
        "max_residual": 0.0, "skewness_defect": 0.0,
    }
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "decomposition document must be an object"),
        ({**_plane_document(), "note": 1, "comment": 2}, "unknown key 'comment' in decomposition document"),
        ({k: v for k, v in _plane_document().items() if k not in ("v_hat", "basis")},
         "decomposition document is missing key 'basis'"),
        (_plane_document(basis=[1.0, 0.0]), "basis must be a 2-D array, got shape (2,)"),
        (_plane_document(basepoint=[0.0, 0.0]), "basepoint must be an object"),
        (_plane_document(basepoint={"x": [0.0, 0.0]}), "basepoint is missing key 'xstar'"),
        (_plane_document(basepoint={"x": [0.0, 0.0], "xstar": [0.0, 0.0], "y": [0.0, 0.0]}),
         "unknown key 'y' in basepoint"),
        (_plane_document(v_hat=[1e400, 0.0]), "v_hat contains non-finite entries"),
        (_plane_document(a_hat=[[0.0, 1e400], [-1e400, 0.0]]), "a_hat contains non-finite entries"),
        # each array has exactly its shape; only a rank-0 a_hat may be written []
        (_plane_document(a_hat=[0.0, 1.0, -1.0, 0.0]), "a_hat must be a 2-D array, got shape (4,)"),
        (_plane_document(v_hat=[[0.0], [0.0]]), "v_hat must be a 1-D array, got shape (2, 1)"),
        (_plane_document(a_hat=[]), "a_hat must be a 2-D array, got shape (0,)"),
        (_plane_document(basis=[[], []], a_hat=[[0.0]], v_hat=[]), "a_hat has shape (1, 1), expected (0, 0)"),
    ],
)
def test_decomposition_document_error_messages(doc, message):
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        SkewDecomposition.from_dict(doc)


def _direct_construction(**changes):
    fields = {
        "basis": OrthonormalBasis(np.eye(2)), "a_hat": np.array([[0.0, 1.0], [-1.0, 0.0]]),
        "v_hat": np.zeros(2), "basepoint": GraphPoint(np.zeros(2), np.zeros(2)),
        "max_residual": 0.0, "skewness_defect": 0.0,
    }
    fields.update(changes)
    return SkewDecomposition(**fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"basis": np.eye(2)}, "basis must be an OrthonormalBasis"),
        ({"a_hat": np.zeros(2)}, "a_hat must be a 2-D array, got shape (2,)"),
        ({"a_hat": np.zeros((1, 1))}, "a_hat has shape (1, 1), expected (2, 2)"),
        ({"a_hat": [[0.0, np.nan], [0.0, 0.0]]}, "a_hat contains non-finite entries"),
        ({"v_hat": np.zeros(3)}, "v_hat has shape (3,), expected (2,)"),
        ({"v_hat": [np.inf, 0.0]}, "v_hat contains non-finite entries"),
        ({"basepoint": (np.zeros(2), np.zeros(2))}, "basepoint must be a GraphPoint"),
        ({"basepoint": GraphPoint(np.zeros(3), np.zeros(3))},
         "basepoint dimension does not match the basis"),
    ],
)
def test_decomposition_construction_error_messages(changes, message):
    _direct_construction()
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        _direct_construction(**changes)


@pytest.mark.parametrize("name", ["max_residual", "skewness_defect"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, -1e-300, "0.25", True, None])
def test_decomposition_rejects_negative_or_non_finite_figures(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        _direct_construction(**{name: value})
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        SkewDecomposition.from_dict(_plane_document(**{name: value}))


def test_rank_zero_decomposition_round_trip():
    g = OperatorGraph.from_arrays([[1.0, 2.0]], [[3.0, 4.0]])
    dec = decompose(g)
    assert dec.rank == 0
    doc = json.loads(dumps_canonical(dec.to_dict()))
    assert doc["basis"] == [[], []] and doc["a_hat"] == [] and doc["v_hat"] == []
    back = SkewDecomposition.from_dict(doc)
    assert back.a_hat.shape == (0, 0) and back.v_hat.shape == (0,)
    assert verify_reconstruction(back, g).residuals == (0.0,)


@pytest.mark.parametrize(
    "a_hat",
    [
        [[2.0, 1.0], [1.0, 3.0]],  # symmetric
        [[0.0, 1.0], [-1.0, 1e-300]],  # a nonzero diagonal entry
        [[0.0, 1.0], [-1.0000000000000002, 0.0]],  # skew up to rounding only
    ],
)
def test_decomposition_requires_exactly_antisymmetric_a_hat(a_hat):
    with pytest.raises(ValidationError, match="^a_hat must be exactly antisymmetric$"):
        SkewDecomposition.from_dict(_plane_document(a_hat=a_hat))
    # -0.0 equals 0.0, so a signed zero is still antisymmetric
    SkewDecomposition.from_dict(_plane_document(a_hat=[[-0.0, 1.0], [-1.0, 0.0]]))
