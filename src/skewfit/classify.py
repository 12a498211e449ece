"""Membership tests for sampled operators.

Each check scans all point pairs of a graph and reports the largest
tolerance-normalized violation it finds, so 1.0 is the tolerance boundary
for every check.  The conditions, for pairs (x, xstar) and (y, ystar):

* monotone:            <xstar - ystar, x - y> >= 0 within tolerance
* bimonotone:          <xstar - ystar, x - y> == 0 within tolerance
* paramonotone:        whenever that product vanishes, the crossed pairs
                       (x, ystar) and (y, xstar) must already be in the graph
* constant on domain:  all dual points coincide
* skew pairing form:   for a graph translated to contain (0, 0),
                       <xstar, x> == 0 pointwise and
                       <xstar, y> == -<ystar, x> pairwise

All scans are exact double arithmetic over every pair, quadratic in the
number of points (paramonotone's crossed-pair search is one min-max product
in m vector steps, cubic arithmetic).  Verdicts are order-independent;
witnesses break ties by the smallest index pair.
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
    contains_origin,
    quiet_overflow,
)

__all__ = [
    "ClassificationReport",
    "NotMonotone",
    "bimonotone_check",
    "constant_on_domain_check",
    "monotone_check",
    "paramonotone_check",
    "skew_form_check",
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


def _pairing_terms(x: np.ndarray, s: np.ndarray, absolute: bool):
    """<s_i - s_j, x_i - x_j>, negated unless ``absolute``, against the
    product of the two difference norms."""
    def terms(i0, i1):
        dx = x[i0:i1, None, :] - x[None, :, :]
        ds = s[i0:i1, None, :] - s[None, :, :]
        prod = np.einsum("ijk,ijk->ij", ds, dx)
        scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
        return (np.abs(prod) if absolute else -prod), scale
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
    return _scan(g, tol, _pairing_terms(g.primal_matrix, g.dual_matrix, absolute=False))


@quiet_overflow
def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    return _scan(g, tol, _pairing_terms(g.primal_matrix, g.dual_matrix, absolute=True))


@quiet_overflow
def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    return _scan(g, tol, _gap_terms(g.dual_matrix))


@quiet_overflow
def skew_form_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Pairing conditions of a linear skew map, for graphs containing (0, 0).

    Verdict is true when <xstar, x> vanishes for every point (witness (i, i))
    and <xstar_i, x_j> + <xstar_j, x_i> vanishes for every pair (witness
    (i, j)).  Margins scale with the product of the participating norms.
    Raises ValidationError when the graph does not contain the pair (0, 0);
    translate by a graph point first.
    """
    if not contains_origin(g, tol):
        raise ValidationError(
            "graph does not contain the pair (0, 0); translate by a graph point first"
        )
    x = g.primal_matrix
    s = g.dual_matrix
    nx = np.linalg.norm(x, axis=1)
    ns = np.linalg.norm(s, axis=1)
    point = np.abs(np.einsum("ij,ij->i", s, x))

    def terms(i0, i1):
        # <xstar_i, x_j> + <xstar_j, x_i>, with <xstar_i, x_i> on the diagonal
        residual = np.abs(s[i0:i1] @ x.T + x[i0:i1] @ s.T)
        scale = np.maximum(np.outer(ns[i0:i1], nx), np.outer(nx[i0:i1], ns))
        diagonal = (np.arange(i1 - i0), np.arange(i0, i1))
        residual[diagonal] = point[i0:i1]
        scale[diagonal] = ns[i0:i1] * nx[i0:i1]
        return residual, scale
    return _scan(g, tol, terms)


@quiet_overflow
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
    """
    mono = monotone_check(g, tol)
    if not mono.verdict:
        return NotMonotone(monotone=mono)
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    pairing, gap_x, gap_s = (np.empty((m, m)) for _ in range(3))
    _scan(g, tol, _pairing_terms(x, s, absolute=True), out=pairing)
    # gap_*[l, i]: normalized distance from stored point l to point i, made
    # symmetric from the upper triangle the scan fills.  need[a, b] is the
    # distance from (x_V[a], xstar_V[b]) to the nearest stored pair, V being
    # the points in some vanishing pair.
    for gap, v in ((gap_x, x), (gap_s, s)):
        _scan(g, tol, _gap_terms(v), out=gap)
        np.maximum(gap, gap.T, out=gap)
    vanishing = np.triu(pairing <= 1.0, k=1)
    pts = np.flatnonzero(vanishing.any(axis=0) | vanishing.any(axis=1))
    need = np.full((pts.size, pts.size), np.inf)
    for l in range(m):
        np.minimum(need, np.maximum.outer(gap_x[l, pts], gap_s[l, pts]), out=need)
    crossed = np.zeros((m, m))
    crossed[np.ix_(pts, pts)] = np.maximum(need, need.T)
    return _scan(g, tol, lambda i0, i1: (np.where(vanishing[i0:i1], crossed[i0:i1], 0.0), None))
