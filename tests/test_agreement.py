"""The agreement contract: maps that keep the pairing condition keep the answers.

The paper's condition <x* - y*, x - y> = 0 is unchanged by permuting the
points, negating the duals, swapping primal and dual (``inverse_graph``),
translating both clouds, the scaling (x, s) -> (c x, s / c), and the map
(x, s) -> (P x, P^-T s) with P invertible.  Each test below asserts a cell
measured at 0 on the first 2000 samples of the seeded boundary family of
``test_recovery``, on seeded two-branch fixtures and on 30 seeded samples of
each hard family of ``test_recovery`` (near_plane, near_duplicate,
far_from_origin), at the default tolerance and at an abs-only one; the
module runs the first 600 boundary samples, which keeps it under 10 s:

- a permutation keeps every ``analyze`` verdict and worst violation, bit for
  bit, and ``decompose``, which fits through the exactly summed centre of
  the sample, succeeds exactly when it did;
- negating the duals keeps the bimonotone and constant reports, witness
  included, and ``decompose`` succeeds exactly when it did;
- ``inverse_graph`` keeps the monotone, bimonotone and paramonotone reports,
  witness included;
- translating both clouds by 10^3 N(0, I) and scaling by c = 0.01 or 100
  keep the bimonotone verdict, and so does a random P at abs-only
  tolerance, where a translation also keeps the ``decompose`` answer;
- on the two-branch fixtures, which sit far from the tolerance boundary,
  ``decompose`` keeps its answer under every map;
- on the hard families, a translation keeps the ``decompose`` answer and
  the bimonotone verdict, and so does scaling at the default tolerance,
  where every hard sample is bimonotone.

A permutation may move a witness to another pair of equal violation, so
only verdicts and worst violations are compared there.  On the boundary
family (of 2000) and the hard families (of 90, all far_from_origin) the
other maps change these answers (samples flipped, as bimonotone verdict /
``decompose`` success); the non-zero cells describe the program as it is,
nothing pins them, and the last column names the item of ROADMAP.md meant
to bring them to 0:

| map                     | default   | abs-only | hard, default | hard, abs-only | item           |
|-------------------------|-----------|----------|---------------|----------------|----------------|
| translation             | 0 / 94    | 0 / 0    | 0 / 0         | 0 / 0          | 3              |
| c = 0.01                | 0 / 54    | 0 / 340  | 0 / 0         | 2 / 13         | 6 (verdict), 3 |
| c = 100                 | 0 / 93    | 0 / 90   | 0 / 0         | 3 / 3          | 6 (verdict), 3 |
| random P                | 96 / 118  | 0 / 79   | 2 / 2         | 9 / 9          | 6 (verdict), 3 |

At abs-only tolerance the c = 0.01 cell counts every boundary sample that
decomposes (340 of the 430 bimonotone ones): the scaled duals are 100 times
longer, and so are the fit's residuals, against the same absolute margin.
Apart from that cell, random P is the one map under which the fit through
the centre flips more samples than a fit through point 0: 118 against 107
at the default tolerance (36 samples flip that did not, and 25 no longer
do), and 79 against 75 at abs-only.

Under P the default tolerance moves the bimonotone verdict because its
margin scales with |ds| |dx|, which P changes: the units of item 6.  At
abs-only tolerance a far_from_origin pairing carries the rounding of points
near |x| ~ 10^6, about 10^-10 per coordinate, so it sits at the margin: a
rescaling that moves that rounding moves the verdict, and 11 of the 30
far_from_origin samples are not bimonotone there.
"""

import functools

import numpy as np
import pytest

from skewfit import (
    NotBimonotoneError,
    OperatorGraph,
    ToleranceConfig,
    analyze,
    bimonotone_check,
    decompose,
    inverse_graph,
    make_fixture,
)
from skewfit.fixtures import FixtureSpec

from test_recovery import boundary_family, hard_family_graph

TOLERANCES = {"default": ToleranceConfig(), "abs-only": ToleranceConfig(abs_tol=1e-9, rel_tol=0.0)}


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


def hard_families(count):
    """``count`` seeded samples of each hard family of ``test_recovery``, in
    the order of ``HARD_FAMILIES``, drawn as its property test draws them."""
    rng = np.random.default_rng(2)
    for family in HARD_FAMILIES:
        for _ in range(count):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n if family == "near_plane" else n + 1))
            m = int(rng.integers(k + 1, 31))
            yield hard_family_graph(family, n, k, m, int(rng.integers(2**32)))


HARD_FAMILIES = ("near_plane", "near_duplicate", "far_from_origin")
BOUNDARY = list(boundary_family(600))
TWO_BRANCH = list(two_branch_family(20))
HARD = list(hard_families(30))
SAMPLES = BOUNDARY + TWO_BRANCH + HARD


def _permuted(i):
    """Sample ``i`` with its points in a seeded random order."""
    g = SAMPLES[i]
    perm = np.random.default_rng(10_000 + i).permutation(len(g.points))
    return OperatorGraph.from_arrays(g.primal_matrix[perm], g.dual_matrix[perm])


def _negated(i):
    return OperatorGraph.from_arrays(SAMPLES[i].primal_matrix, -SAMPLES[i].dual_matrix)


def _moved(i):
    """Sample ``i`` translated by 10^3 N(0, I) in x and s, scaled by c = 0.01
    and c = 100, and mapped by a random P, each drawn from the sample's seed."""
    g = SAMPLES[i]
    x, s = g.primal_matrix, g.dual_matrix
    rng = np.random.default_rng(20_000 + i)
    n = g.dimension
    p = rng.normal(size=(n, n))
    u, ustar = 1e3 * rng.normal(size=n), 1e3 * rng.normal(size=n)
    return {
        "translation": OperatorGraph.from_arrays(x + u, s + ustar),
        "c = 0.01": OperatorGraph.from_arrays(0.01 * x, s / 0.01),
        "c = 100": OperatorGraph.from_arrays(100.0 * x, s / 100.0),
        "random P": OperatorGraph.from_arrays(x @ p.T, s @ np.linalg.inv(p)),
    }


@functools.cache
def _analyze(i, tol_name):
    return analyze(SAMPLES[i], TOLERANCES[tol_name])


def _decomposes(g, tol):
    try:
        decompose(g, tol)
    except NotBimonotoneError:
        return False
    return True


@functools.cache
def _decomposes_unmapped(i, tol_name):
    return _decomposes(SAMPLES[i], TOLERANCES[tol_name])


def _mismatches(check, samples=None):
    """The indices of the samples, all by default, that fail ``check``."""
    return [i for i in (range(len(SAMPLES)) if samples is None else samples) if not check(i)]


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_permutation_keeps_every_verdict_and_worst_violation(tol_name):
    def same(i):
        before = _analyze(i, tol_name)
        after = analyze(_permuted(i), TOLERANCES[tol_name])
        return all(type(before[key]) is type(after[key])
                   and getattr(before[key], "verdict", None) == getattr(after[key], "verdict", None)
                   and getattr(before[key], "worst_violation", None)
                   == getattr(after[key], "worst_violation", None) for key in before)
    assert _mismatches(same) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_negation_keeps_the_bimonotone_and_constant_reports(tol_name):
    def same(i):
        before = _analyze(i, tol_name)
        after = analyze(_negated(i), TOLERANCES[tol_name])
        return all(before[key] == after[key] for key in ("bimonotone", "constant_on_domain"))
    assert _mismatches(same) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_inverse_graph_keeps_the_monotone_bimonotone_and_paramonotone_reports(tol_name):
    def same(i):
        before = _analyze(i, tol_name)
        after = analyze(inverse_graph(SAMPLES[i]), TOLERANCES[tol_name])
        return all(before[key] == after[key] for key in ("monotone", "bimonotone", "paramonotone"))
    assert _mismatches(same) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_decompose_keeps_its_answer_under_permutation_and_negation(tol_name):
    tol = TOLERANCES[tol_name]

    def same(i):
        before = _decomposes_unmapped(i, tol_name)
        return _decomposes(_permuted(i), tol) == before and _decomposes(_negated(i), tol) == before
    assert _mismatches(same) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_translation_and_scaling_keep_the_bimonotone_verdict(tol_name):
    tol = TOLERANCES[tol_name]
    maps = ["translation", "c = 0.01", "c = 100"] + (["random P"] if tol_name == "abs-only" else [])

    def same(i):
        before = _analyze(i, tol_name)["bimonotone"].verdict
        moved = _moved(i)
        return all(bimonotone_check(moved[name], tol).verdict == before for name in maps)
    # at abs-only tolerance the hard families keep only the translation's (below)
    assert _mismatches(same, range(len(SAMPLES) - len(HARD)) if tol_name == "abs-only" else None) == []


def test_translation_keeps_the_decompose_answer_at_abs_only_tolerance():
    tol = TOLERANCES["abs-only"]
    assert _mismatches(lambda i: _decomposes(_moved(i)["translation"], tol)
                       == _decomposes_unmapped(i, "abs-only")) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_decompose_keeps_its_answer_on_two_branch_fixtures_under_every_map(tol_name):
    tol = TOLERANCES[tol_name]

    def same(i):
        before = _decomposes_unmapped(i, tol_name)
        return all(_decomposes(g, tol) == before for g in _moved(i).values())
    assert _mismatches(same, range(len(BOUNDARY), len(BOUNDARY) + len(TWO_BRANCH))) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_hard_families_keep_both_answers_under_translation_and_scaling(tol_name):
    tol = TOLERANCES[tol_name]
    maps = ["translation"] + (["c = 0.01", "c = 100"] if tol_name == "default" else [])

    def same(i):
        bimonotone = _analyze(i, tol_name)["bimonotone"].verdict
        decomposes = _decomposes_unmapped(i, tol_name)
        moved = _moved(i)
        return ((bimonotone or tol_name == "abs-only")  # at the default, every sample is
                and all(bimonotone_check(moved[name], tol).verdict == bimonotone
                        and _decomposes(moved[name], tol) == decomposes for name in maps))
    assert _mismatches(same, range(len(SAMPLES) - len(HARD), len(SAMPLES))) == []
