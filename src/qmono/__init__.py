"""q-calculus numerics.

Exact q-primitives, black-box higher-order q-differentiation, q-special
functions (q-gamma, q-digamma, polylogarithm and gamma-based composites),
finitely supported measures with q-Laplace transforms, and finite-order
certification of q-complete-monotonicity, q-log-complete-monotonicity and
q-Bernstein sign patterns.
"""

__version__ = "0.1.0"

from . import cert, qcore, qdiff, qmeasure, qspecial
from .qcore import *  # noqa: F401,F403
from .qdiff import *  # noqa: F401,F403
from .qmeasure import *  # noqa: F401,F403
from .qspecial import *  # noqa: F401,F403
from .cert import *  # noqa: F401,F403

# The public names are each module's `__all__`, in import order; the
# `+=` form is the one static checkers follow.
__all__ = ["__version__"]
__all__ += qcore.__all__
__all__ += qdiff.__all__
__all__ += qmeasure.__all__
__all__ += qspecial.__all__
__all__ += cert.__all__
