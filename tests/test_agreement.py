"""The agreement contract: maps that keep the pairing condition keep the answers.

The paper's condition <x* - y*, x - y> = 0 is unchanged by permuting the
points, negating the duals, swapping primal and dual (``inverse_graph``),
translating both clouds, the scaling (x, s) -> (c x, s / c), the map
(x, s) -> (P x, P^-T s) with P invertible, and the paper's own symmetry,
the skew-affine map (x, s) -> (x, s + B x + c) with B skew, which adds
<B dx, dx> = 0 to every pairing.  Each test below asserts a cell
measured at 0 on the first 2000 samples of the seeded boundary family of
``families``, on seeded two-branch fixtures and on 30 seeded samples of
each hard family of ``families`` (near_plane, near_duplicate,
far_from_origin), at the default tolerance and at an abs-only one; the
module runs the first 600 boundary samples, which keeps it under 10 s:

- ``decompose`` succeeds exactly when ``bimonotone_check`` passes, on every
  sample and under every map below, so each map keeps the ``decompose``
  answer exactly where it keeps the bimonotone verdict;
- a permutation keeps every ``analyze`` verdict and worst violation, bit for
  bit, and ``decompose``, which fits through the exactly summed centre of
  the sample, succeeds exactly when it did;
- negating the duals keeps the bimonotone and constant reports, witness
  included, and ``decompose`` succeeds exactly when it did;
- ``inverse_graph`` keeps the monotone, bimonotone and paramonotone reports,
  witness included;
- translating both clouds by 10^3 N(0, I) and scaling by c = 0.01 or 100
  keep the bimonotone verdict, and so do a random P and the skew-affine map
  at abs-only tolerance, where a translation also keeps the ``decompose``
  answer;
- on the two-branch fixtures, which sit far from the tolerance boundary,
  ``decompose`` keeps its answer under every map;
- on the hard families, a translation keeps the ``decompose`` answer and
  the bimonotone verdict, and so do scaling and the skew-affine map at the
  default tolerance, where every hard sample is bimonotone;
- ``decompose`` skips the pair check only on a sample that passes it, at
  every tolerance of ``TOLERANCE_GRID``: on the first 200 boundary samples,
  the two-branch and hard samples, every tenth sample under each map, and
  the converse and near-constant samples of ``families``.

A permutation may move a witness to another pair of equal violation, so
only verdicts and worst violations are compared there.  On the boundary
family (of 2000) and the hard families (of 90, all far_from_origin) the
other maps change these answers (samples flipped, as bimonotone verdict /
``decompose`` success; a translation flips none); the non-zero cells
describe the program as it is, nothing pins them, and the last column names
the item of ROADMAP.md meant to bring them to 0:

| map                     | default   | abs-only | hard, default | hard, abs-only | item         |
|-------------------------|-----------|----------|---------------|----------------|--------------|
| c = 0.01                | 0 / 0     | 0 / 0    | 0 / 0         | 2 / 2          | none planned |
| c = 100                 | 0 / 0     | 0 / 0    | 0 / 0         | 3 / 3          | none planned |
| random P                | 96 / 96   | 0 / 0    | 2 / 2         | 9 / 9          | none planned |
| skew-affine             | 79 / 79   | 0 / 0    | 0 / 0         | 3 / 3          | none planned |

On the module's own 710 samples the non-zero cells read 24 / 24 for random
P and 23 / 23 for the skew-affine map at the default tolerance, and 2 / 2,
3 / 3, 9 / 9 and 3 / 3 for c = 0.01, c = 100, random P and the skew-affine
map at abs-only.

Under P and under the skew-affine map the default tolerance moves the
bimonotone verdict because its relative margin scales with |ds| |dx|,
which P changes and B x adds to.  The constant rule shares that margin
(item 6, done), which leaves these cells as they are, and no item is
planned for them.  At abs-only
tolerance a far_from_origin pairing carries the rounding of points near
|x| ~ 10^6, about 10^-10 per coordinate, so it sits at the margin: a
rescaling, or a B x near 10^6 added to s, moves that rounding and the
verdict (the skew-affine map's 3 flips are all far_from_origin), and 11
of the 30 far_from_origin samples are not bimonotone there.
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
)
from families import (TOLERANCE_GRID, boundary_family, converse_family, hard_families, maps,
                      near_constant_family, two_branch_family)

TOLERANCES = {"default": ToleranceConfig(), "abs-only": ToleranceConfig(abs_tol=1e-9, rel_tol=0.0)}


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


@functools.cache
def _moved(i):
    """Sample ``i`` under each map of ``families.maps``, drawn from its seed."""
    return maps(SAMPLES[i], 20_000 + i)


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


@functools.cache
def _mapped(i, name, tol_name):
    """``(bimonotone verdict, decompose succeeds)`` on sample ``i`` under the map ``name``."""
    g, tol = _moved(i)[name], TOLERANCES[tol_name]
    return bimonotone_check(g, tol).verdict, _decomposes(g, tol)


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
    maps = ["translation", "c = 0.01", "c = 100"] + (["random P", "skew-affine"] if tol_name == "abs-only" else [])

    def same(i):
        before = _analyze(i, tol_name)["bimonotone"].verdict
        return all(_mapped(i, name, tol_name)[0] == before for name in maps)
    # at abs-only tolerance the hard families keep only the translation's (below)
    assert _mismatches(same, range(len(SAMPLES) - len(HARD)) if tol_name == "abs-only" else None) == []


def test_translation_keeps_the_decompose_answer_at_abs_only_tolerance():
    assert _mismatches(lambda i: _mapped(i, "translation", "abs-only")[1]
                       == _decomposes_unmapped(i, "abs-only")) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_decompose_keeps_its_answer_on_two_branch_fixtures_under_every_map(tol_name):
    def same(i):
        before = _decomposes_unmapped(i, tol_name)
        return all(_mapped(i, name, tol_name)[1] == before for name in _moved(i))
    assert _mismatches(same, range(len(BOUNDARY), len(BOUNDARY) + len(TWO_BRANCH))) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_hard_families_keep_both_answers_under_translation_and_scaling(tol_name):
    maps = ["translation"] + (["c = 0.01", "c = 100", "skew-affine"] if tol_name == "default" else [])

    def same(i):
        before = (_analyze(i, tol_name)["bimonotone"].verdict, _decomposes_unmapped(i, tol_name))
        return ((before[0] or tol_name == "abs-only")  # at the default, every sample is
                and all(_mapped(i, name, tol_name) == before for name in maps))
    assert _mismatches(same, range(len(SAMPLES) - len(HARD), len(SAMPLES))) == []


@pytest.mark.parametrize("tol_name", TOLERANCES)
def test_decompose_succeeds_exactly_when_bimonotone_check_passes_on_every_mapped_sample(tol_name):
    def same(i):
        unmapped = (_analyze(i, tol_name)["bimonotone"].verdict, _decomposes_unmapped(i, tol_name))
        return all(len(set(pair)) == 1 for pair in [unmapped, *(_mapped(i, name, tol_name) for name in _moved(i))])
    assert _mismatches(same) == []


def test_a_fit_certifies_only_a_sample_that_passes_the_pair_check(pair_checks):
    # decompose runs no pair check when its fit's own bound shows that the
    # pass would pass; wherever it runs none, an independent one passes
    families = {
        "boundary": BOUNDARY[:200], "two-branch": TWO_BRANCH, "hard": HARD,
        "maps": [_moved(i)[name] for i in range(0, len(SAMPLES), 10) for name in _moved(i)],
        "converse": list(converse_family(60)), "near-constant": list(near_constant_family(60)),
    }
    certified, wrong = dict.fromkeys(families, 0), []
    for family, graphs in families.items():
        for tol in TOLERANCE_GRID:
            for i, g in enumerate(graphs):
                before = len(pair_checks)
                _decomposes(g, tol)
                if len(pair_checks) == before:
                    certified[family] += 1
                    if not bimonotone_check(g, tol).verdict:
                        wrong.append((family, i, tol))
    assert wrong == []
    assert all(certified.values())  # no family is vacuous
