import dataclasses
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from skewfit import (
    ClassificationReport,
    InternalInconsistencyError,
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
    reduce,
    span_basis,
    translate,
)
from skewfit.fixtures import FixtureSpec, _unit

import oracles


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "seed, message",
    [(True, "seed must be an integer"), (1.5, "seed must be an integer"), ("1", "seed must be an integer"),
     (-1, "seed must be a 64-bit nonnegative integer"), (2**64, "seed must be a 64-bit nonnegative integer")],
)
def test_seeds_follow_the_integer_rule(seed, message):
    # every seed, not only a spec's, is checked before anything is drawn
    fix = planted(seed=28)
    for call in (lambda: FixtureSpec(n=1, k=1, m=1, seed=seed),
                 lambda: perturb(fix.graph, index=0, direction="in_span", amplitude=0.0,
                                 basis=fix.truth.basis, seed=seed)):
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            call()
    seed = FixtureSpec(n=1, k=1, m=1, seed=np.uint64(7)).seed
    assert seed == 7 and type(seed) is int


def test_validating_a_spec_imports_no_generator():
    # a Philox generator imports numpy.random, which costs a CLI child about
    # 18 ms; a spec checks its seed's range without one, accepted or rejected
    if int(np.__version__.split(".")[0]) < 2:
        pytest.skip("numpy 1.x loads numpy.random together with numpy")
    script = """if True:
        import sys
        from skewfit.fixtures import FixtureSpec
        from skewfit.graphs import ValidationError
        FixtureSpec(n=3, k=2, m=4, seed=2**64 - 1)
        for bad in ({"seed": 2**64}, {"offset_norm": "one"}):
            try:
                FixtureSpec(n=3, k=2, m=4, **bad)
            except ValidationError:
                pass
            else:
                raise AssertionError(bad)
        print(sorted(name for name in sys.modules if name.startswith("numpy.random")))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


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
    c = make_fixture(dataclasses.replace(spec, seed=17))
    assert a.graph != c.graph


def test_fixture_full_rank_domain():
    # m >= k + 1 distinct points let the translated domain span the subspace
    for seed in range(5):
        spec = FixtureSpec(n=5, k=3, m=4, seed=seed)
        fix = make_fixture(spec)
        base = fix.graph.points[0]
        shifted = translate(fix.graph, base.x, base.xstar)
        assert span_basis(domain(shifted)).rank == 3


def test_fixture_redraws_a_domain_sample_that_fails_to_span(monkeypatch):
    real_rank, calls = np.linalg.matrix_rank, []

    def first_rank_short(a, *args, **kwargs):
        calls.append(a)
        return real_rank(a, *args, **kwargs) - (len(calls) == 1)
    monkeypatch.setattr(np.linalg, "matrix_rank", first_rank_short)
    g = make_fixture(FixtureSpec(n=4, k=2, m=5, offset_norm=1.0, seed=3)).graph
    assert len(calls) == 2
    # make_fixture's draws: basis, operator core, offset direction, then two
    # domain samples, the second of which is kept
    rng = np.random.Generator(np.random.Philox(3))
    q0, _ = np.linalg.qr(rng.standard_normal((4, 2)))
    rng.standard_normal((2, 2))
    rng.standard_normal(4)
    np.testing.assert_array_equal(calls[0], rng.standard_normal((5, 2)))
    np.testing.assert_array_equal(g.primal_matrix, rng.standard_normal((5, 2)) @ q0.T)
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, *args, **kwargs: 0)
    with pytest.raises(InternalInconsistencyError,
                       match="^domain sample failed to span the planted subspace twice in a row$"):
        make_fixture(FixtureSpec(n=4, k=2, m=5, seed=3))


def test_unit_refuses_a_zero_vector():
    # no Gaussian draw or projection of one is exactly zero, so no spec
    # reaches this guard; a direct call does
    np.testing.assert_array_equal(_unit(np.array([[3.0, 4.0]])), [[0.6, 0.8]])
    with pytest.raises(InternalInconsistencyError, match="^cannot normalize a zero vector$"):
        _unit(np.array([[3.0, 4.0], [0.0, 0.0]]))


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
    for value in (1.5, True, "1"):
        with pytest.raises(ValidationError, match="^n must be an integer$"):
            FixtureSpec(n=value, k=1, m=1)
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
    # every argument is checked before amplitude 0 returns its copy
    fix = planted(seed=28)
    full = make_fixture(FixtureSpec(n=3, k=3, m=4, seed=30))
    trivial = make_fixture(FixtureSpec(n=2, k=0, m=1, offset_norm=1.0, seed=32))
    for amplitude in (0.0, 1.0):
        with pytest.raises(ValidationError, match="out of range"):
            perturb(fix.graph, index=50, direction="in_span", amplitude=amplitude,
                    basis=fix.truth.basis, seed=29)
        with pytest.raises(ValidationError, match="direction"):
            perturb(fix.graph, index=0, direction="sideways", amplitude=amplitude,
                    basis=fix.truth.basis, seed=29)
        with pytest.raises(ValidationError, match="^orthogonal complement of the span is trivial$"):
            perturb(full.graph, index=0, direction="orthogonal", amplitude=amplitude,
                    basis=full.truth.basis, seed=31)
        with pytest.raises(ValidationError, match=r"^basis lives in R\^3, graph in R\^5$"):
            perturb(fix.graph, index=0, direction="in_span", amplitude=amplitude,
                    basis=full.truth.basis, seed=29)
        with pytest.raises(ValidationError, match="^span is trivial; there is no in-span direction$"):
            perturb(trivial.graph, index=0, direction="in_span", amplitude=amplitude,
                    basis=trivial.truth.basis, seed=33)


def test_perturb_in_span_requires_nontrivial_span():
    fix = make_fixture(FixtureSpec(n=2, k=0, m=1, offset_norm=1.0, seed=32))
    with pytest.raises(ValidationError):
        perturb(fix.graph, index=0, direction="in_span", amplitude=1.0,
                basis=fix.truth.basis, seed=33)


def test_perturb_overflow_is_the_graphs_error_not_a_warning():
    g = OperatorGraph.from_arrays(np.zeros((2, 2)), np.full((2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^points\[0\]\.xstar contains non-finite entries$"):
            perturb(g, index=0, direction="in_span", amplitude=1e308,
                    basis=span_basis(np.eye(2)[:1]), seed=1)


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
        (True, "perturbed point must be an integer"),
        (1.0, "perturbed point must be an integer"),
        ("1", "perturbed point must be an integer"),
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
