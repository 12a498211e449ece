"""The paper's implications as one table over the tolerance grid.

A constant operator is bimonotone, a bimonotone one is monotone, and a
sample is bimonotone exactly when it restricts a skew-affine map on the span
of its domain, which ``decompose`` fits and ``verify`` checks.  Each test
below asserts, at every tolerance of ``TOLERANCE_GRID``, a cell that reads 0
on three families: the first 600 samples of ``boundary_family``,
``near_constant_family(60)`` and the skew-affine map of those 600 boundary
samples, drawn as ``tests/test_agreement.py`` draws it:

- constant => bimonotone => monotone, on the pass's records and on every
  pair of the full-square reference scan, bit for bit;
- bimonotone <=> ``decompose`` succeeds <=> ``verify`` passes on its output;
- ``verify`` passes => bimonotone.

The cells that do not read 0 describe the samples, not a fault, and nothing
pins them (abs_tol, rel_tol; boundary bimonotone, near-constant constant,
samples whose bimonotone verdict the skew-affine map flips):

| abs_tol | rel_tol | boundary: bimonotone | near-constant: constant | skew-affine: flips |
|---|---|---:|---:|---:|
| 1e-12 | 0    | 0 of 600   | 7 of 60  | 0  |
| 1e-12 | 1e-9 | 360 of 600 | 18 of 60 | 29 |
| 1e-12 | 1e-6 | 600 of 600 | 37 of 60 | 0  |
| 1e-9  | 0    | 129 of 600 | 18 of 60 | 0  |
| 1e-9  | 1e-9 | 381 of 600 | 21 of 60 | 23 |
| 1e-9  | 1e-6 | 600 of 600 | 37 of 60 | 0  |
| 1e-6  | 0    | 474 of 600 | 37 of 60 | 0  |
| 1e-6  | 1e-9 | 561 of 600 | 37 of 60 | 16 |
| 1e-6  | 1e-6 | 600 of 600 | 40 of 60 | 0  |

The flips sit at rel_tol > 0 only: the relative margin scales with
|ds| |dx|, which B x adds to, and no item is planned for them (ROADMAP item
9's design note).  ``counts`` gives every cell of this table and of the
asserted ones; CI writes it to the job summary.
"""

import functools

import pytest

from skewfit import NotBimonotoneError, decompose, verify_reconstruction
from skewfit import classify
from families import TOLERANCE_GRID, boundary_family, maps, near_constant_family

import oracles

BOUNDARY = list(boundary_family(600))
FAMILIES = {
    "boundary": BOUNDARY,
    "near-constant": list(near_constant_family(60)),
    "skew-affine": [maps(g, 20_000 + i)["skew-affine"] for i, g in enumerate(BOUNDARY)],
}
RECORDS = ("constant", "bimonotone", "monotone")


def _answers(g, tol):
    """The worst constant, bimonotone and monotone violations of the pass,
    whether ``decompose`` succeeds and whether ``verify`` passes on its
    output (False when it does not succeed)."""
    records = classify._pair_pass(g, tol)[0]
    try:
        dec = decompose(g, tol)
    except NotBimonotoneError:
        return *(records[name][0] for name in RECORDS), False, False
    try:
        verified = verify_reconstruction(dec, g, tol).verdict
    except NotBimonotoneError:
        verified = False
    return *(records[name][0] for name in RECORDS), True, verified


@functools.cache
def answers(family, k):
    """``_answers`` of every sample of ``family`` at ``TOLERANCE_GRID[k]``."""
    return [_answers(g, TOLERANCE_GRID[k]) for g in FAMILIES[family]]


def counts(family, k):
    """How many samples of ``family`` at ``TOLERANCE_GRID[k]`` are constant,
    bimonotone and monotone, break each asserted implication, and, for the
    skew-affine family, have the bimonotone verdict of their boundary sample
    flipped."""
    rows = answers(family, k)
    out = {name: sum(row[i] <= 1.0 for row in rows) for i, name in enumerate(RECORDS)}
    out["constant but not bimonotone"] = sum(c <= 1.0 < b for c, b, *_ in rows)
    out["bimonotone but not monotone"] = sum(b <= 1.0 < m for _, b, m, *_ in rows)
    out["bimonotone != decompose"] = sum((b <= 1.0) != d for _, b, _, d, _ in rows)
    out["decompose != verify"] = sum(d != v for *_, d, v in rows)
    out["verify but not bimonotone"] = sum(v and b > 1.0 for _, b, _, _, v in rows)
    if family == "skew-affine":
        unmapped = answers("boundary", k)
        out["flips"] = sum((row[1] <= 1.0) != (before[1] <= 1.0) for row, before in zip(rows, unmapped))
    return out


GRID = range(len(TOLERANCE_GRID))


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_implies_bimonotone_implies_monotone_on_every_pair(family):
    broken = []
    for k in GRID:
        for i, (g, (constant, bimonotone, monotone, *_)) in enumerate(zip(FAMILIES[family], answers(family, k))):
            mono, bi, const = oracles.pair_violations(g, TOLERANCE_GRID[k])
            if not (constant >= bimonotone >= monotone and (const >= bi).all() and (bi >= mono).all()):
                broken.append((k, i))
    assert broken == []
    if family == "near-constant":  # not vacuous: constant samples exist
        assert all(counts(family, k)["constant"] for k in GRID)


@pytest.mark.parametrize("family", FAMILIES)
def test_bimonotone_exactly_when_decompose_succeeds_and_verify_passes(family):
    for k in GRID:
        cells = counts(family, k)
        assert (cells["bimonotone != decompose"], cells["decompose != verify"],
                cells["verify but not bimonotone"]) == (0, 0, 0), TOLERANCE_GRID[k]
