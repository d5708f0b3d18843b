"""The library's names resolve where their callers look for them.

``perfbench/spans.py`` wraps functions by name; a renamed or deleted name
would make ``--trace 1`` fail.  This reads its ``TARGETS`` list as it
stands and checks every name against the library.  The package surface is
the union of the modules' ``__all__`` lists, each name bound to the
module's own object.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_binding_resolves():
    targets = _targets()
    assert targets
    for name, home, attr, where in targets:
        owner = importlib.import_module("simplexcone" + home)
        original = getattr(owner, attr, None)
        assert callable(original), (name, home, attr)
        # a restricted target must still be bound where it is patched
        for space in where or ():
            module = importlib.import_module("simplexcone" + space)
            assert any(v is original for v in vars(module).values()), (name, space, attr)


MODULES = ("convexity", "dual", "extremal", "linalg", "simplex")


def test_package_exports_exactly_the_module_lists():
    import simplexcone

    modules = [importlib.import_module("simplexcone." + name) for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names)), "a name is exported by two modules"
    assert sorted(simplexcone.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(simplexcone, name) is getattr(module, name), name
