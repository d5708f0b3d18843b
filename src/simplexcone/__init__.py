"""Euclidean simplices as points of the cone of squared edge lengths.

Each module declares its public names in its own ``__all__``; the
package re-exports exactly those.
"""

from . import convexity, dual, extremal, linalg, simplex
from .convexity import *  # noqa: F403
from .dual import *  # noqa: F403
from .extremal import *  # noqa: F403
from .linalg import *  # noqa: F403
from .simplex import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (convexity, dual, extremal, linalg, simplex) for name in module.__all__
)
