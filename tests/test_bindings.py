"""The library names the benchmark's tracer wraps still exist.

``perfbench/spans.py`` wraps functions by name; a renamed or deleted name
would make ``--trace 1`` fail.  This reads its ``TARGETS`` list as it
stands and checks every name against the library.
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
