"""Analysis of finitely sampled multivalued operators on R^n.

The package classifies a finite sample of (primal, dual) pairs as monotone,
bimonotone (both the sample and its negation monotone), paramonotone, or
constant on its domain, and for bimonotone samples constructively recovers
the structure that forces those pairings to vanish: an orthonormal basis of
the relevant span, an exactly antisymmetric matrix acting in span
coordinates, and an affine offset.
"""

from .classify import (
    ClassificationReport,
    NotMonotone,
    analyze,
    bimonotone_check,
    constant_on_domain_check,
    monotone_check,
    paramonotone_check,
)
from .fixtures import (
    Fixture,
    FixtureSpec,
    FixtureTruth,
    make_fixture,
    perturb,
    random_skew,
)
from .graphs import (
    DEFAULT_TOLERANCE,
    GraphPoint,
    OperatorGraph,
    ParseError,
    SkewfitError,
    ToleranceConfig,
    ValidationError,
    domain,
    dumps_canonical,
    inverse_graph,
    load_graph,
    save_graph,
    translate,
)
from .recovery import (
    InternalInconsistencyError,
    NotBimonotoneError,
    OrthonormalBasis,
    ReconstructionReport,
    SkewDecomposition,
    build_skew_operator,
    decompose,
    reduce,
    span_basis,
    verify_reconstruction,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "DEFAULT_TOLERANCE",
    "Fixture",
    "FixtureSpec",
    "FixtureTruth",
    "GraphPoint",
    "InternalInconsistencyError",
    "NotBimonotoneError",
    "NotMonotone",
    "OperatorGraph",
    "OrthonormalBasis",
    "ParseError",
    "ReconstructionReport",
    "SkewDecomposition",
    "SkewfitError",
    "ToleranceConfig",
    "ValidationError",
    "analyze",
    "bimonotone_check",
    "build_skew_operator",
    "constant_on_domain_check",
    "decompose",
    "domain",
    "dumps_canonical",
    "inverse_graph",
    "load_graph",
    "make_fixture",
    "monotone_check",
    "paramonotone_check",
    "perturb",
    "random_skew",
    "reduce",
    "save_graph",
    "span_basis",
    "translate",
    "verify_reconstruction",
]
