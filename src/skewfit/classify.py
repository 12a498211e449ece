"""Membership tests for sampled operators.

Each check scans all point pairs of a graph and reports the largest
tolerance-normalized violation it finds, so 1.0 is the tolerance boundary
for every check.  The conditions, for pairs (x, xstar) and (y, ystar):

* monotone:            <xstar - ystar, x - y> >= 0 within tolerance
* bimonotone:          <xstar - ystar, x - y> == 0 within tolerance
* paramonotone:        whenever that product vanishes, the crossed pairs
                       (x, ystar) and (y, xstar) must already be in the graph
* constant on domain:  all dual points coincide

All scans are exact double arithmetic over every pair, quadratic in the
number of points (paramonotone's crossed-pair search is one min-max product
in m vector steps, cubic arithmetic).  ``analyze`` returns all four reports
from one pairing scan and two gap scans (primal and dual), the primal one
only for a monotone sample.  Verdicts are order-independent; witnesses break
ties by the smallest index pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_TOLERANCE,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    check_overflow,
    quiet_overflow,
)

__all__ = [
    "ClassificationReport",
    "NotMonotone",
    "analyze",
    "bimonotone_check",
    "constant_on_domain_check",
    "monotone_check",
    "paramonotone_check",
]

# Upper bound on floats materialized per difference block when scanning pairs.
_CHUNK_FLOATS = 4_000_000


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of one membership test.

    ``worst_violation`` is the largest residual found, divided by the
    tolerance margin at its scale, so the verdict is exactly
    ``worst_violation <= 1``.  ``witness`` names the index pair realizing
    it; a pair (i, i) marks a single-point condition.  A failing report
    always carries a witness.
    """

    verdict: bool
    worst_violation: float
    witness: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "worst_violation", float(self.worst_violation))
        if self.witness is not None:
            i, j = self.witness
            object.__setattr__(self, "witness", (int(i), int(j)))
        if self.verdict != (self.worst_violation <= 1.0):
            raise ValidationError("verdict must equal worst_violation <= 1")
        if not self.verdict and self.witness is None:
            raise ValidationError("a failing report requires a witness")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class NotMonotone:
    """Distinguished outcome: paramonotonicity is not defined for a sample
    that already fails the monotone check."""

    monotone: ClassificationReport

    def to_dict(self) -> dict:
        return {"status": "not_monotone", "monotone": self.monotone.to_dict()}


def _scan(
    g: OperatorGraph, tol: ToleranceConfig, terms, out: np.ndarray | None = None
) -> ClassificationReport:
    """Largest normalized violation over the pairs (i, j), j >= i, of ``g``.

    ``terms(i0, i1)`` returns the residual and the scale of every pair whose
    first index lies in [i0, i1), as two (i1 - i0, m) arrays; a violation is
    the residual over ``tol.margin(scale)``, or the residual itself when the
    scale is None (an already normalized block).  Rows arrive in blocks of
    about ``_CHUNK_FLOATS`` floats per (rows, m, n) difference array.  The
    diagonal holds single-point conditions, which are zero for the pairwise
    checks.  Pairs with j < i read -inf.  A non-finite margin or violation
    raises, so an overflow never passes.  Blocks arrive in ascending row order
    and np.argmax returns the first maximum in row-major order, so the witness
    is the smallest (i, j) among ties.  When ``out`` is given, each block's
    violations are also stored in its rows.
    """
    m, n = g.primal_matrix.shape
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    worst, witness = 0.0, None
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        residual, scale = terms(i0, i1)
        margin = 1.0 if scale is None else tol.margin(scale)
        viol = residual / margin
        below = np.arange(m)[None, :] < np.arange(i0, i1)[:, None]
        check_overflow(~(np.isfinite(viol) & np.isfinite(margin)) & ~below,
                       lambda f: f"pair {(i0 + f // m, f % m)}")
        viol[below] = -np.inf
        if out is not None:
            out[i0:i1] = viol
        flat = int(np.argmax(viol))
        if viol.flat[flat] > worst:
            worst = float(viol.flat[flat])
            witness = (i0 + flat // m, flat % m)
    return ClassificationReport(verdict=worst <= 1.0, worst_violation=worst, witness=witness)


def _pairing_terms(x: np.ndarray, s: np.ndarray):
    """-<s_i - s_j, x_i - x_j> against the product of the two difference norms."""
    def terms(i0, i1):
        dx = x[i0:i1, None, :] - x[None, :, :]
        ds = s[i0:i1, None, :] - s[None, :, :]
        prod = np.einsum("ijk,ijk->ij", ds, dx)
        scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
        return -prod, scale
    return terms


def _gap_terms(v: np.ndarray):
    """||v_i - v_j|| against the larger of the two norms."""
    norms = np.linalg.norm(v, axis=1)

    def terms(i0, i1):
        gap = np.linalg.norm(v[i0:i1, None, :] - v[None, :, :], axis=2)
        return gap, np.maximum(norms[i0:i1, None], norms[None, :])
    return terms


@quiet_overflow
def monotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> is nonnegative within tolerance."""
    return _scan(g, tol, _pairing_terms(g.primal_matrix, g.dual_matrix))


@quiet_overflow
def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    pairing = _pairing_terms(g.primal_matrix, g.dual_matrix)

    def terms(i0, i1):
        residual, scale = pairing(i0, i1)
        return np.abs(residual), scale
    return _scan(g, tol, terms)


@quiet_overflow
def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    return _scan(g, tol, _gap_terms(g.dual_matrix))


@quiet_overflow
def analyze(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> dict:
    """The four membership reports, keyed ``monotone``, ``bimonotone``,
    ``paramonotone`` (a report, or NotMonotone) and ``constant_on_domain``.

    Each report equals the one its ``*_check`` function returns.  One signed
    pairing scan gives the monotone report, and its absolute values the
    bimonotone one.  One dual gap scan gives the constant report.  For a
    monotone sample, a primal gap scan (run before the dual one) and the
    dual gap matrix then feed the crossed-pair search.  Memory O(m^2).
    """
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    pairing, gap_x, gap_s = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    mono = _scan(g, tol, _pairing_terms(x, s), out=pairing)
    bimonotone = _scan(g, tol, lambda i0, i1: (np.abs(pairing[i0:i1]), None))
    if mono.verdict:
        _scan(g, tol, _gap_terms(x), out=gap_x)
    constant = _scan(g, tol, _gap_terms(s), out=gap_s)
    paramonotone = NotMonotone(monotone=mono)
    if mono.verdict:
        # gap_*[l, i]: normalized distance from stored point l to point i,
        # made symmetric from the upper triangle the scan fills.  need[a, b]
        # is the distance from (x_V[a], xstar_V[b]) to the nearest stored
        # pair, V being the points in some vanishing pair.
        for gap in (gap_x, gap_s):
            np.maximum(gap, gap.T, out=gap)
        vanishing = np.triu(np.abs(pairing) <= 1.0, k=1)
        pts = np.flatnonzero(vanishing.any(axis=0) | vanishing.any(axis=1))
        need = np.full((pts.size, pts.size), np.inf)
        for l in range(m):
            np.minimum(need, np.maximum.outer(gap_x[l, pts], gap_s[l, pts]), out=need)
        crossed = np.zeros((m, m))
        crossed[np.ix_(pts, pts)] = np.maximum(need, need.T)
        paramonotone = _scan(
            g, tol, lambda i0, i1: (np.where(vanishing[i0:i1], crossed[i0:i1], 0.0), None)
        )
    return {
        "monotone": mono,
        "bimonotone": bimonotone,
        "paramonotone": paramonotone,
        "constant_on_domain": constant,
    }


def paramonotone_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport | NotMonotone:
    """Vanishing pairwise products force the crossed pairs into the graph.

    For every pair whose product <xstar_i - xstar_j, x_i - x_j> vanishes
    within tolerance, both (x_i, xstar_j) and (x_j, xstar_i) must match some
    stored pair within vector tolerance in both components.  The violation of
    a missing crossed pair is its smallest normalized distance to the graph.

    This is a statement about the sample only; it neither proves nor
    disproves paramonotonicity of an underlying operator.  Returns
    NotMonotone instead of a report when the monotone check fails.  Takes m
    vector steps over V x V (V: the points in vanishing pairs); memory O(m^2).
    The search runs inside ``analyze``.
    """
    return analyze(g, tol)["paramonotone"]
