"""Euclidean simplices as points of the cone of squared edge lengths.

Each module declares its public names in its own ``__all__``; the
package re-exports exactly those.  The modules are imported on the first
lookup of any such name (PEP 562), so ``import simplexcone`` alone loads
neither them nor numpy, and the CLI loads only what its command runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("convexity", "dual", "extremal", "linalg", "simplex")


def _export() -> None:
    """Bind every module's public names here, as star imports would."""
    names = globals()
    for name in _MODULES:
        module = importlib.import_module(f".{name}", __name__)
        names.update({attr: getattr(module, attr) for attr in module.__all__})
    names["__all__"] = sorted(attr for name in _MODULES for attr in names[name].__all__)


def __getattr__(name: str):
    # called only for a name not bound here.  The first call binds every
    # exported name at once, not just this one, so that code which patches a
    # function in each namespace holding it finds the package's binding too
    if "__all__" not in globals():
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _export()
    return sorted(globals())
