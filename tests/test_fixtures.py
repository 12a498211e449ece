import re
import warnings

import numpy as np
import pytest

from skewfit import (
    ClassificationReport,
    OperatorGraph,
    ParseError,
    ValidationError,
    bimonotone_check,
    build_skew_operator,
    constant_on_domain_check,
    decompose,
    domain,
    make_fixture,
    paramonotone_check,
    perturb,
    random_skew,
    reduce,
    span_basis,
    translate,
)
from skewfit.fixtures import FixtureSpec

import oracles


# ---------------------------------------------------------------------------
# random_skew
# ---------------------------------------------------------------------------

def test_random_skew_shapes_and_symmetry():
    assert random_skew(0, seed=0).shape == (0, 0)
    np.testing.assert_array_equal(random_skew(1, seed=0), np.array([[0.0]]))
    a = random_skew(3, seed=1)
    np.testing.assert_array_equal(a, -a.T)
    np.testing.assert_array_equal(np.diag(a), np.zeros(3))
    assert np.any(a)  # generically nonzero off the diagonal


def test_random_skew_seeded():
    np.testing.assert_array_equal(random_skew(4, seed=7), random_skew(4, seed=7))
    assert not np.array_equal(random_skew(4, seed=7), random_skew(4, seed=8))


# ---------------------------------------------------------------------------
# make_fixture
# ---------------------------------------------------------------------------

def test_fixture_exact_is_bimonotone():
    fix = make_fixture(FixtureSpec(n=5, k=3, m=8, seed=10))
    assert oracles.max_abs_pairing(fix.graph) <= 1e-12
    assert bimonotone_check(fix.graph).verdict


def test_fixture_with_branches_and_orthogonal_noise():
    spec = FixtureSpec(n=6, k=2, m=5, branches=3, offset_norm=1.0,
                       noise_orthogonal=2.0, seed=11)
    fix = make_fixture(spec)
    assert len(fix.graph.points) == spec.m * spec.branches
    assert bimonotone_check(fix.graph).verdict
    # multivalued in the ambient space, single-valued once reduced
    assert len(domain(fix.graph)) == spec.m
    base = fix.graph.points[0]
    shifted = translate(fix.graph, base.x, base.xstar)
    basis = span_basis(domain(shifted))
    fitted = build_skew_operator(reduce(shifted, basis))
    assert fitted.shape == (spec.k, spec.k)


def test_fixture_in_span_noise_breaks_bimonotonicity():
    fix = make_fixture(FixtureSpec(n=4, k=2, m=6, noise_in_span=1e-3, seed=12))
    assert not bimonotone_check(fix.graph).verdict
    worst = oracles.max_abs_pairing(fix.graph)
    assert 1e-5 < worst < 1e-1


def test_fixture_truth_matches_graph():
    spec = FixtureSpec(n=6, k=3, m=7, branches=2, offset_norm=0.5,
                       noise_orthogonal=1.0, seed=13)
    fix = make_fixture(spec)
    q0 = fix.truth.basis.q
    assert q0.shape == (6, 3)
    x = fix.graph.primal_matrix
    s = fix.graph.dual_matrix
    expected = x @ fix.truth.operator.T + fix.truth.offset
    # orthogonal noise disappears after projection onto the planted span
    np.testing.assert_allclose(s @ q0, expected @ q0, atol=1e-12)
    # primal points really live in the planted span
    np.testing.assert_allclose(x @ q0 @ q0.T, x, atol=1e-12)
    assert np.linalg.norm(fix.truth.offset) == pytest.approx(0.5)


def test_fixture_orthogonal_noise_has_stated_norm():
    spec = FixtureSpec(n=5, k=2, m=4, noise_orthogonal=3.0, seed=14)
    fix = make_fixture(spec)
    s = fix.graph.dual_matrix
    x = fix.graph.primal_matrix
    clean = x @ fix.truth.operator.T + fix.truth.offset
    off_span = s - clean
    np.testing.assert_allclose(np.linalg.norm(off_span, axis=1),
                               np.full(len(fix.graph.points), 3.0), atol=1e-12)


def test_fixture_constant_when_zero_operator():
    spec = FixtureSpec(n=3, k=3, m=5, offset_norm=2.0, zero_operator=True, seed=15)
    fix = make_fixture(spec)
    np.testing.assert_array_equal(fix.truth.operator, np.zeros((3, 3)))
    assert constant_on_domain_check(fix.graph).verdict
    assert bimonotone_check(fix.graph).verdict
    para = paramonotone_check(fix.graph)
    assert isinstance(para, ClassificationReport) and para.verdict


def test_fixture_determinism():
    spec = FixtureSpec(n=5, k=3, m=6, branches=2, offset_norm=1.0,
                       noise_orthogonal=0.5, seed=16)
    a = make_fixture(spec)
    b = make_fixture(spec)
    assert a.graph == b.graph  # exact, bit for bit
    np.testing.assert_array_equal(a.truth.operator, b.truth.operator)
    np.testing.assert_array_equal(a.truth.offset, b.truth.offset)
    np.testing.assert_array_equal(a.truth.basis.q, b.truth.basis.q)
    c = make_fixture(spec.with_seed(17))
    assert a.graph != c.graph


def test_fixture_full_rank_domain():
    # m >= k + 1 distinct points let the translated domain span the subspace
    for seed in range(5):
        spec = FixtureSpec(n=5, k=3, m=4, seed=seed)
        fix = make_fixture(spec)
        base = fix.graph.points[0]
        shifted = translate(fix.graph, base.x, base.xstar)
        assert span_basis(domain(shifted)).rank == 3


# ---------------------------------------------------------------------------
# FixtureSpec validation and serialization
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValidationError, match="k must lie"):
        FixtureSpec(n=2, k=3, m=4)
    with pytest.raises(ValidationError, match="n must be"):
        FixtureSpec(n=0, k=0, m=1)
    with pytest.raises(ValidationError, match="m must be"):
        FixtureSpec(n=1, k=1, m=0)
    with pytest.raises(ValidationError, match="branches"):
        FixtureSpec(n=1, k=1, m=1, branches=0)
    with pytest.raises(ValidationError, match="seed"):
        FixtureSpec(n=1, k=1, m=1, seed=-1)
    with pytest.raises(ValidationError, match="noise_in_span"):
        FixtureSpec(n=1, k=1, m=1, noise_in_span=-0.5)
    with pytest.raises(ValidationError, match="integer"):
        FixtureSpec(n=1.5, k=1, m=1)
    with pytest.raises(ValidationError, match="zero_operator"):
        FixtureSpec(n=1, k=1, m=1, zero_operator=1)


@pytest.mark.parametrize("value", ["one", None, [1.0], True, float("nan"), 10**400])
def test_spec_rejects_non_numeric_float_fields(value):
    with pytest.raises(ValidationError, match="offset_norm"):
        FixtureSpec(n=3, k=2, m=5, offset_norm=value)


def test_spec_stores_numpy_scalars_as_floats():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = FixtureSpec(n=3, k=2, m=5, offset_norm=np.float32(0.5), noise_in_span=np.int64(0))
    assert type(spec.offset_norm) is float and spec.offset_norm == 0.5
    assert type(spec.noise_in_span) is float and spec.noise_in_span == 0.0
    assert list(spec.to_dict()) == ["n", "k", "m", "branches", "offset_norm", "noise_in_span",
                                    "noise_orthogonal", "seed", "zero_operator"]


def test_spec_round_trip():
    spec = FixtureSpec(n=4, k=2, m=5, branches=2, offset_norm=0.25,
                       noise_in_span=0.0, noise_orthogonal=1.5, seed=99,
                       zero_operator=False)
    assert FixtureSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_defaults_and_errors():
    spec = FixtureSpec.from_dict({"n": 3, "k": 1, "m": 2})
    assert spec.branches == 1 and spec.seed == 0 and not spec.zero_operator
    with pytest.raises(ParseError, match="unknown key"):
        FixtureSpec.from_dict({"n": 3, "k": 1, "m": 2, "sigma": 1.0})
    with pytest.raises(ParseError, match="missing key"):
        FixtureSpec.from_dict({"n": 3, "k": 1})
    with pytest.raises(ParseError, match="object"):
        FixtureSpec.from_dict([1, 2, 3])


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

def planted(seed=20, **overrides):
    params = dict(n=5, k=2, m=6, offset_norm=1.0, seed=seed)
    params.update(overrides)
    return make_fixture(FixtureSpec(**params))


def test_perturb_zero_amplitude_is_identity():
    fix = planted()
    out = perturb(fix.graph, index=2, direction="in_span", amplitude=0.0,
                  basis=fix.truth.basis, seed=21)
    assert out == fix.graph


def test_perturb_orthogonal_keeps_bimonotonicity():
    fix = planted(seed=22)
    out = perturb(fix.graph, index=1, direction="orthogonal", amplitude=1.0,
                  basis=fix.truth.basis, seed=23)
    assert out != fix.graph
    assert bimonotone_check(out).verdict
    assert oracles.max_abs_pairing(out) <= 1e-12


def test_perturb_in_span_breaks_bimonotonicity():
    fix = planted(seed=24)
    out = perturb(fix.graph, index=4, direction="in_span", amplitude=1e-3,
                  basis=fix.truth.basis, seed=25)
    assert not bimonotone_check(out).verdict


def test_perturb_only_touches_one_dual():
    fix = planted(seed=26)
    out = perturb(fix.graph, index=3, direction="in_span", amplitude=1e-2,
                  basis=fix.truth.basis, seed=27)
    for i, (p, q) in enumerate(zip(fix.graph.points, out.points)):
        np.testing.assert_array_equal(p.x, q.x)
        if i == 3:
            assert np.linalg.norm(p.xstar - q.xstar) == pytest.approx(1e-2)
        else:
            np.testing.assert_array_equal(p.xstar, q.xstar)


def test_perturb_argument_errors():
    fix = planted(seed=28)
    with pytest.raises(ValidationError, match="out of range"):
        perturb(fix.graph, index=50, direction="in_span", amplitude=1.0,
                basis=fix.truth.basis, seed=29)
    with pytest.raises(ValidationError, match="direction"):
        perturb(fix.graph, index=0, direction="sideways", amplitude=1.0,
                basis=fix.truth.basis, seed=29)
    full = make_fixture(FixtureSpec(n=3, k=3, m=4, seed=30))
    with pytest.raises(ValidationError):
        perturb(full.graph, index=0, direction="orthogonal", amplitude=1.0,
                basis=full.truth.basis, seed=31)


def test_perturb_in_span_requires_nontrivial_span():
    fix = make_fixture(FixtureSpec(n=2, k=0, m=1, offset_norm=1.0, seed=32))
    with pytest.raises(ValidationError):
        perturb(fix.graph, index=0, direction="in_span", amplitude=1.0,
                basis=fix.truth.basis, seed=33)


# ---------------------------------------------------------------------------
# end-to-end recovery on fixture output
# ---------------------------------------------------------------------------

def test_recovery_grid_on_fixtures():
    for seed, (n, k, m) in enumerate([(2, 1, 3), (4, 2, 5), (6, 4, 9), (3, 3, 6)]):
        fix = make_fixture(FixtureSpec(n=n, k=k, m=m, branches=1 + seed % 2,
                                       offset_norm=0.5,
                                       noise_orthogonal=0.5 if k < n else 0.0,
                                       seed=40 + seed))
        dec = decompose(fix.graph)
        assert dec.rank == k
        q = dec.basis.q
        err = np.max(np.abs(dec.a_hat - q.T @ fix.truth.operator @ q))
        assert err <= 1e-9


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2, 3], "fixture spec must be an object"),
        ({"n": 3, "k": 1, "m": 2, "sigma": 1.0, "alpha": 0}, "unknown key 'alpha' in fixture spec"),
        # the required keys are named in the order n, k, m
        ({"k": 1}, "fixture spec is missing key 'n'"),
        ({"n": 3, "m": 2}, "fixture spec is missing key 'k'"),
        ({"n": 3, "k": 1}, "fixture spec is missing key 'm'"),
    ],
)
def test_spec_from_dict_error_messages(doc, message):
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        FixtureSpec.from_dict(doc)


@pytest.mark.parametrize(
    "index, message",
    [
        (True, "perturbed point must be a point index"),
        (1.0, "perturbed point must be a point index"),
        ("1", "perturbed point must be a point index"),
        (-1, "perturbed point index -1 out of range for 6 points"),
        (6, "perturbed point index 6 out of range for 6 points"),
    ],
)
def test_perturb_rejects_what_is_not_a_point_index(index, message):
    fix = planted(seed=28)
    assert len(fix.graph.points) == 6
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        perturb(fix.graph, index=index, direction="in_span", amplitude=1.0,
                basis=fix.truth.basis, seed=29)
    # a numpy integer is an index like any other
    out = perturb(fix.graph, index=np.int64(3), direction="in_span", amplitude=1.0,
                  basis=fix.truth.basis, seed=29)
    assert np.flatnonzero((out.dual_matrix != fix.graph.dual_matrix).any(axis=1)).tolist() == [3]


@pytest.mark.parametrize("amplitude", [None, "0.5", True, -1.0, float("nan"), 10**400])
def test_perturb_rejects_what_is_not_a_finite_nonnegative_amplitude(amplitude):
    fix = planted(seed=30)
    with pytest.raises(ValidationError, match="^amplitude must be finite and nonnegative$"):
        perturb(fix.graph, index=0, direction="in_span", amplitude=amplitude,
                basis=fix.truth.basis, seed=31)
