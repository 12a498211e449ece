import json
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
    random_skew,
    reduce,
    span_basis,
    translate,
    verify_reconstruction,
)
from skewfit.fixtures import FixtureSpec

import oracles


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
    with pytest.raises(ValidationError, match=r"\(m, n\) array"):
        span_basis([np.zeros(2), np.zeros(3)])
    for shape in ((0,), (3,), (2, 2, 2)):
        with pytest.raises(ValidationError, match=r"\(m, n\) array"):
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
    a0 = random_skew(k, seed=21)
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
    a0 = random_skew(k, seed=24)
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
    a0 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    s = x @ a0.T
    s[4] += np.array([0.5, 0.5])
    with pytest.raises(NotBimonotoneError, match="not bimonotone") as info:
        build_skew_operator(OperatorGraph.from_arrays(x, s))
    assert info.value.worst_index is not None
    assert info.value.residual is not None and info.value.residual > 1e-3


def test_build_rejects_symmetric_duals():
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = x @ sym.T
    with pytest.raises(NotBimonotoneError, match="skew-symmetric"):
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


def test_decompose_basepoint_override():
    fix = planted_fixture(seed=33)
    dec = decompose(fix.graph, basepoint=2)
    assert dec.basepoint == fix.graph.points[2]
    with pytest.raises(ValidationError, match="out of range"):
        decompose(fix.graph, basepoint=99)
    with pytest.raises(ValidationError, match="point index"):
        decompose(fix.graph, basepoint=True)


def test_decompose_basis_change_is_a_conjugation():
    fix = planted_fixture(seed=34)
    g = fix.graph
    m = len(g.points)
    perm = list(reversed(range(m)))
    shuffled = OperatorGraph.from_arrays(
        [g.points[i].x for i in perm], [g.points[i].xstar for i in perm]
    )
    dec1 = decompose(g, basepoint=0)
    dec2 = decompose(shuffled, basepoint=m - 1)  # same underlying basepoint
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
    # with abs_tol 0, two directions 1e-160 long enter the basis; their
    # squares are subnormal, yet the fit is exact, and an operator beyond
    # double range raises instead of warning
    x = np.zeros((4, 3))
    x[1, 0], x[2, 1], x[3, 2] = 1.0, 1e-160, 1e-160
    s = np.zeros((4, 3))
    s[2, 2], s[3, 1] = 1e140, -1e140
    tol = ToleranceConfig(0.0, 1e-9)
    dec = decompose(OperatorGraph.from_arrays(x, s), tol=tol)
    q = dec.basis.q
    planted = np.zeros((3, 3))
    planted[2, 1], planted[1, 2] = 1e300, -1e300
    assert dec.rank == 3
    np.testing.assert_allclose(q @ dec.a_hat @ q.T, planted, atol=1e288)
    assert verify_reconstruction(dec, OperatorGraph.from_arrays(x, s), tol).verdict
    s[2, 2], s[3, 1] = 1e149, -1e149
    with pytest.raises(ValidationError, match="overflows double precision"):
        decompose(OperatorGraph.from_arrays(x, s), tol=tol)


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


def test_boundary_family_decomposition_verifies_on_its_sample():
    # decompose accepts its fit by verify's rule, so no sample decomposes and
    # then fails verify on its own written output
    raised = 0
    for i, g in enumerate(boundary_family(500)):
        try:
            dec = decompose(g)
        except NotBimonotoneError:
            raised += 1
            continue
        back = SkewDecomposition.from_dict(json.loads(dumps_canonical(dec.to_dict())))
        assert verify_reconstruction(back, g).verdict, f"sample {i}"
    assert raised > 0  # the family reaches past the tolerance


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["near_plane", "near_duplicate", "far_from_origin"]),
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
    with pytest.raises(ValidationError, match=message):
        SkewDecomposition.from_dict(doc)


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
