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
number of points (cubic for paramonotone, which also searches for the
crossed pairs).  Verdicts are order-independent; witnesses break ties by
the smallest index pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    DEFAULT_TOLERANCE,
    OperatorGraph,
    ToleranceConfig,
    ValidationError,
    vectors_close,
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


# Scans silence numpy's overflow warnings; a NaN they produce raises instead.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _overflow(pair: tuple[int, int]) -> ValidationError:
    return ValidationError(f"pair {pair} overflows double precision; rescale the sample")


class _Worst:
    """Deterministic max-reduction over violation blocks.

    Blocks arrive in ascending row order and np.argmax returns the first
    maximum in row-major order, so ties resolve to the smallest (i, j).
    np.argmax also returns the first NaN, which raises: a NaN never passes.
    """

    def __init__(self) -> None:
        self.value = 0.0
        self.pair: tuple[int, int] | None = None

    def update(self, violations: np.ndarray, row_offset: int) -> None:
        if violations.size == 0:
            return
        flat = int(np.argmax(violations))
        val = float(violations.flat[flat])
        width = violations.shape[1]
        pair = (row_offset + flat // width, flat % width)
        if np.isnan(val):
            raise _overflow(pair)
        if val > self.value:
            self.value = val
            self.pair = pair

    def report(self) -> ClassificationReport:
        return ClassificationReport(
            verdict=self.value <= 1.0,
            worst_violation=self.value,
            witness=self.pair,
        )


def _row_chunks(m: int, n: int):
    rows = max(1, _CHUNK_FLOATS // max(1, m * n))
    for start in range(0, m, rows):
        yield start, min(m, start + rows)


@_quiet
def _pairing_check(g: OperatorGraph, tol: ToleranceConfig, absolute: bool) -> ClassificationReport:
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    cols = np.arange(m)
    worst = _Worst()
    for i0, i1 in _row_chunks(m, g.dimension):
        dx = x[i0:i1, None, :] - x[None, :, :]
        ds = s[i0:i1, None, :] - s[None, :, :]
        prod = np.einsum("ijk,ijk->ij", ds, dx)
        scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
        viol = (np.abs(prod) if absolute else -prod) / tol.margin(scale)
        viol[cols[None, :] <= np.arange(i0, i1)[:, None]] = -np.inf
        worst.update(viol, i0)
    return worst.report()


def monotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> is nonnegative within tolerance."""
    return _pairing_check(g, tol, absolute=False)


def bimonotone_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Every pairwise product <xstar - ystar, x - y> vanishes within tolerance.

    Equivalent to the sample and its negation both being monotone.
    """
    return _pairing_check(g, tol, absolute=True)


@_quiet
def constant_on_domain_check(
    g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE
) -> ClassificationReport:
    """All dual points of the graph coincide within vector tolerance."""
    s = g.dual_matrix
    m = s.shape[0]
    ns = np.linalg.norm(s, axis=1)
    cols = np.arange(m)
    worst = _Worst()
    for i0, i1 in _row_chunks(m, g.dimension):
        gap = np.linalg.norm(s[i0:i1, None, :] - s[None, :, :], axis=2)
        scale = np.maximum(ns[i0:i1, None], ns[None, :])
        viol = gap / tol.margin(scale)
        viol[cols[None, :] <= np.arange(i0, i1)[:, None]] = -np.inf
        worst.update(viol, i0)
    return worst.report()


@_quiet
def skew_form_check(g: OperatorGraph, tol: ToleranceConfig = DEFAULT_TOLERANCE) -> ClassificationReport:
    """Pairing conditions of a linear skew map, for graphs containing (0, 0).

    Verdict is true when <xstar, x> vanishes for every point (witness (i, i))
    and <xstar_i, x_j> + <xstar_j, x_i> vanishes for every pair (witness
    (i, j)).  Margins scale with the product of the participating norms.
    Raises ValidationError when the graph does not contain the pair (0, 0);
    translate by a graph point first.
    """
    zero = np.zeros(g.dimension)
    if not any(
        vectors_close(p.x, zero, tol) and vectors_close(p.xstar, zero, tol)
        for p in g.points
    ):
        raise ValidationError(
            "graph does not contain the pair (0, 0); translate by a graph point first"
        )
    x = g.primal_matrix
    s = g.dual_matrix
    m = x.shape[0]
    nx = np.linalg.norm(x, axis=1)
    ns = np.linalg.norm(s, axis=1)
    point_viol = np.abs(np.einsum("ij,ij->i", s, x)) / tol.margin(ns * nx)
    cols = np.arange(m)
    worst = _Worst()
    for i0, i1 in _row_chunks(m, g.dimension):
        rows = np.arange(i0, i1)
        cross = s[i0:i1] @ x.T  # <xstar_i, x_j>
        crossed = x[i0:i1] @ s.T  # <xstar_j, x_i>
        viol = np.abs(cross + crossed) / tol.margin(
            np.maximum(np.outer(ns[i0:i1], nx), np.outer(nx[i0:i1], ns))
        )
        viol[cols[None, :] < rows[:, None]] = -np.inf
        viol[np.arange(i1 - i0), rows] = point_viol[i0:i1]
        worst.update(viol, i0)
    return worst.report()


@_quiet
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
    NotMonotone instead of a report when the monotone check fails.  Cubic
    time and quadratic memory in the number of points.
    """
    mono = monotone_check(g, tol)
    if not mono.verdict:
        return NotMonotone(monotone=mono)
    x = g.primal_matrix
    s = g.dual_matrix
    nx = np.linalg.norm(x, axis=1)
    ns = np.linalg.norm(s, axis=1)
    dx = x[:, None, :] - x[None, :, :]
    ds = s[:, None, :] - s[None, :, :]
    prod = np.einsum("ijk,ijk->ij", ds, dx)
    scale = np.linalg.norm(ds, axis=2) * np.linalg.norm(dx, axis=2)
    vanishing = np.abs(prod) <= tol.margin(scale)
    # Normalized distance from every stored point l to each candidate component.
    gap_x = np.linalg.norm(dx, axis=2) / tol.margin(np.maximum(nx[:, None], nx[None, :]))
    gap_s = np.linalg.norm(ds, axis=2) / tol.margin(np.maximum(ns[:, None], ns[None, :]))
    nan = np.argwhere(np.isnan(gap_x) | np.isnan(gap_s))
    if nan.size:
        raise _overflow((int(nan[0, 0]), int(nan[0, 1])))
    worst = 0.0
    witness: tuple[int, int] | None = None
    for i, j in np.argwhere(np.triu(vanishing, k=1)):
        need_ij = float(np.min(np.maximum(gap_x[:, i], gap_s[:, j])))
        need_ji = float(np.min(np.maximum(gap_x[:, j], gap_s[:, i])))
        v = max(need_ij, need_ji)
        if v > worst:
            worst = v
            witness = (int(i), int(j))
    return ClassificationReport(verdict=worst <= 1.0, worst_violation=worst, witness=witness)
