"""Analysis of finitely sampled multivalued operators on R^n.

The package classifies a finite sample of (primal, dual) pairs as monotone,
bimonotone (both the sample and its negation monotone), paramonotone, or
constant on its domain, and for bimonotone samples constructively recovers
the structure that forces those pairings to vanish: an orthonormal basis of
the relevant span, an exactly antisymmetric matrix acting in span
coordinates, and an affine offset.

Each public name is declared once, in its module's ``__all__``.
"""

from . import classify, fixtures, graphs, recovery
from .classify import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .recovery import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = classify.__all__ + fixtures.__all__ + graphs.__all__ + recovery.__all__
