"""Exact calculator for bifiltered knot complexes and concordance order.

Core objects: CfkComplex (generators with Alexander and Maslov gradings,
arrows carrying U powers, coefficients mod 2), Laurent polynomials, and
region complexes from which the invariants tau, epsilon, a1, a2 are read.
On top: a totally ordered class group with a domination relation, knot
expressions (torus knots, cables, sums, mirrors, the doubled trefoil),
and machine-checkable independence certificates.
"""

from __future__ import annotations

from . import cfk, concordance, errors, invariants, knots, laurent, regions
from .cfk import *  # noqa: F401,F403
from .concordance import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .knots import *  # noqa: F401,F403
from .laurent import *  # noqa: F401,F403
from .regions import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *cfk.__all__,
    *concordance.__all__,
    *errors.__all__,
    *invariants.__all__,
    *knots.__all__,
    *laurent.__all__,
    *regions.__all__,
    "__version__",
]
