"""Seeded synthesis of ground-truth samples.

Fixtures plant a skew-symmetric linear operator on a random k-dimensional
subspace of R^n, sample its graph at random domain points, optionally hang
several dual branches off each point by adding components orthogonal to the
subspace (which preserves bimonotonicity because the domain points lie in
the subspace, up to rounding), and optionally inject in-span noise (which
destroys it).  The planted operator, offset, and subspace are returned
alongside the graph so recovery can be checked against the truth.

All randomness flows from a counter-based generator seeded by the spec, so
identical specs produce bit-identical fixtures.  The noise of every point
and branch is drawn as one array, and the duals are computed from whole
arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .graphs import (InternalInconsistencyError, OperatorGraph, OrthonormalBasis, ParseError,
                     ValidationError, check_keys, integer, nonnegative, point_index, quiet_overflow)

__all__ = [
    "Fixture",
    "FixtureSpec",
    "FixtureTruth",
    "make_fixture",
    "perturb",
]


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one synthetic sample.

    n: ambient dimension; k: dimension of the planted subspace (k <= n);
    m: number of domain points; branches: dual points per domain point;
    offset_norm: norm of the constant offset added to every dual;
    noise_in_span: amplitude of in-span noise on each dual (breaks
    bimonotonicity when positive); noise_orthogonal: norm of the orthogonal
    component added per branch (harmless to bimonotonicity because the
    domain points lie in the subspace up to rounding; ignored when k = n
    since the complement is trivial); zero_operator: plant the zero
    matrix instead of a random skew one, making the sample constant.
    The fields are the keys of the spec document, n, k and m (required) first.
    """

    n: int
    k: int
    m: int
    branches: int = 1
    offset_norm: float = 0.0
    noise_in_span: float = 0.0
    noise_orthogonal: float = 0.0
    seed: int = 0
    zero_operator: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "k", "m", "branches", "seed"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.n < 1:
            raise ValidationError("n must be positive")
        if not 0 <= self.k <= self.n:
            raise ValidationError(f"k must lie in [0, n]; got k={self.k}, n={self.n}")
        if self.m < 1:
            raise ValidationError("m must be positive")
        if self.branches < 1:
            raise ValidationError("branches must be positive")
        if self.n * self.m * self.branches > np.iinfo(np.intp).max // 8:
            raise ValidationError("n * m * branches exceeds the largest float64 array")
        _seed(self.seed)  # range only: a generator would import numpy.random
        for name in ("offset_norm", "noise_in_span", "noise_orthogonal"):
            object.__setattr__(self, name, nonnegative(getattr(self, name), name))
        if not isinstance(self.zero_operator, bool):
            raise ValidationError("zero_operator must be a boolean")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FixtureSpec":
        keys = [f.name for f in fields(cls)]
        check_keys(doc, "fixture spec", keys, keys[:3], ParseError)
        return cls(**doc)


@dataclass(frozen=True, eq=False)
class FixtureTruth:
    """What was planted: the n x n skew operator (supported on the planted
    subspace), the constant offset, and the subspace basis."""

    operator: np.ndarray
    offset: np.ndarray
    basis: OrthonormalBasis

    def to_dict(self) -> dict:
        return {
            "operator": self.operator.tolist(),
            "offset": self.offset.tolist(),
            "basis": self.basis.q.tolist(),
        }


@dataclass(frozen=True, eq=False)
class Fixture:
    graph: OperatorGraph
    truth: FixtureTruth


def _seed(seed) -> int:
    """``seed`` if it is an ``integer`` in [0, 2**64), the seeds of a Philox generator."""
    if not 0 <= (seed := integer(seed, "seed")) < 2**64:
        raise ValidationError("seed must be a 64-bit nonnegative integer")
    return seed


def _unit(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm along its last axis."""
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if not np.all(norm):
        raise InternalInconsistencyError("cannot normalize a zero vector")
    return v / norm


@quiet_overflow
def make_fixture(spec: FixtureSpec) -> Fixture:
    """Synthesize the sample described by ``spec`` along with its truth.

    Draw order (fixed for determinism): subspace basis, operator core,
    offset direction, domain coordinates (with one redraw if they fail to
    span), then one block of noise with a row per (point, branch), in
    sample order, holding the n orthogonal normals and then the k in-span
    ones.
    """
    rng = np.random.Generator(np.random.Philox(spec.seed))
    n, k, m = spec.n, spec.k, spec.m
    if k > 0:
        q0, _ = np.linalg.qr(rng.standard_normal((n, k)))
    else:
        q0 = np.zeros((n, 0))
    core = np.zeros((k, k))
    if k > 0 and not spec.zero_operator:
        b = rng.standard_normal((k, k))
        core = (b - b.T) / 2.0
    operator = q0 @ core @ q0.T
    offset = np.zeros(n)
    if spec.offset_norm > 0:
        offset = spec.offset_norm * _unit(rng.standard_normal(n))
    coords = rng.standard_normal((m, k))
    if 0 < k <= m and np.linalg.matrix_rank(coords) < k:
        coords = rng.standard_normal((m, k))
        if np.linalg.matrix_rank(coords) < k:
            raise InternalInconsistencyError(
                "domain sample failed to span the planted subspace twice in a row"
            )
    primal = coords @ q0.T
    orth = n if spec.noise_orthogonal > 0 and k < n else 0
    span = k if spec.noise_in_span > 0 and k > 0 else 0
    noise = rng.standard_normal((m * spec.branches, orth + span))
    dual = np.repeat(primal @ operator.T + offset, spec.branches, axis=0)
    if orth:
        raw = noise[:, :orth]
        dual += spec.noise_orthogonal * _unit(raw - (raw @ q0) @ q0.T)
    if span:
        dual += spec.noise_in_span * (_unit(noise[:, orth:]) @ q0.T)
    graph = OperatorGraph.from_arrays(np.repeat(primal, spec.branches, axis=0), dual)
    truth = FixtureTruth(operator=operator, offset=offset, basis=OrthonormalBasis(q0))
    return Fixture(graph=graph, truth=truth)


@quiet_overflow
def perturb(
    g: OperatorGraph,
    index: int,
    direction: str,
    amplitude: float,
    basis: OrthonormalBasis,
    seed: int,
) -> OperatorGraph:
    """Return a copy of ``g`` with one dual point nudged by ``amplitude``.

    ``direction`` selects where the nudge lives relative to ``basis``:
    "in_span" draws a random unit vector inside the span (this breaks
    bimonotonicity of a planted sample), "orthogonal" draws one in the
    orthogonal complement (this keeps it only while the primal points lie in
    the span exactly).  Every argument is checked before amplitude zero
    returns an unchanged copy.
    """
    index = point_index(g, index, "perturbed point")
    rng = np.random.Generator(np.random.Philox(_seed(seed)))
    if direction not in ("in_span", "orthogonal"):
        raise ValidationError(f"direction must be 'in_span' or 'orthogonal', got {direction!r}")
    amplitude = nonnegative(amplitude, "amplitude")
    if basis.ambient_dimension != g.dimension:
        raise ValidationError(f"basis lives in R^{basis.ambient_dimension}, graph in R^{g.dimension}")
    if direction == "in_span" and basis.rank == 0:
        raise ValidationError("span is trivial; there is no in-span direction")
    if direction == "orthogonal" and basis.rank == g.dimension:
        raise ValidationError("orthogonal complement of the span is trivial")
    if amplitude == 0.0:
        return OperatorGraph.from_arrays(g.primal_matrix, g.dual_matrix)
    q, dual = basis.q, np.array(g.dual_matrix)
    if direction == "in_span":
        dual[index] += amplitude * (q @ _unit(rng.standard_normal(basis.rank)))
    else:
        raw = rng.standard_normal(g.dimension)
        dual[index] += amplitude * _unit(raw - q @ (q.T @ raw))
    return OperatorGraph.from_arrays(g.primal_matrix, dual)
