"""Proper scoring rules, Bregman divergences, and convex entropy geometry.

The package builds scoring rules as subgradients of convex entropies on a
finite measure space, extends them homogeneously to the positive cone,
evaluates the induced Bregman divergences, and numerically verifies the
structural facts that make the construction work: propriety, the Euler
identity, symmetry classification, and subgradient uniqueness on the
quasi-interior of a convex domain.  A periodic-grid Hyvarinen rule covers
the unnormalised-model use case.
"""

from .errors import *
from .measure import *
from .geometry import *
from .entropies import *
from .scoring import *
from .bregman import *
from .grid import *
from .sampling import *
from . import bregman, entropies, errors, geometry, grid, measure, sampling, scoring

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [name for module in (errors, measure, geometry, entropies, scoring, bregman, grid, sampling)
           for name in module.__all__] + ["__version__"]
