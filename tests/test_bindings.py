"""The library's names resolve where their callers look for them.

``perfbench/spans.py`` wraps functions by name; a renamed or deleted name
would make ``--trace 1`` fail.  This reads its ``TARGETS`` list as it
stands and checks every name against the library.  The package surface is
the union of the modules' ``__all__`` lists, each name bound to the
module's own object, and it loads those modules on first use: a fresh
process that imports the package or the CLI loads only what it runs.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_lazy_package_surface():
    import simplexcone

    assert "validate" in simplexcone.__all__ and "__version__" not in simplexcone.__all__
    namespace = {}
    exec("from simplexcone import *", namespace)
    assert set(simplexcone.__all__) <= set(namespace)
    assert simplexcone.linalg is importlib.import_module("simplexcone.linalg")
    assert set(simplexcone.__all__) | set(MODULES) | {"__version__"} <= set(dir(simplexcone))
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        simplexcone.not_a_name


SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(code: str) -> list[str]:
    """The package's modules, and numpy if loaded, after ``code`` runs in a
    fresh interpreter that imports the package from this checkout."""
    script = code + (
        "\nimport json, sys\nprint(json.dumps(sorted(name for name in sys.modules"
        " if name.partition('.')[0] == 'simplexcone') + ['numpy'] * ('numpy' in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_neither_its_modules_nor_numpy():
    assert _loaded_after("import simplexcone") == ["simplexcone"]


def test_first_lookup_loads_every_module():
    loaded = _loaded_after("import simplexcone\nsimplexcone.validate")
    assert loaded == ["simplexcone"] + [f"simplexcone.{name}" for name in MODULES] + ["numpy"]


CLI_CORE = ["simplexcone", "simplexcone.cli", "simplexcone.linalg", "simplexcone.simplex"]


def test_importing_the_cli_loads_only_its_core():
    assert _loaded_after("import simplexcone.cli") == CLI_CORE + ["numpy"]


TRIANGLE = '{"dimension": 2, "squared_lengths": [1.0, 1.0, 1.0]}'
RIGHT = '{"dimension": 2, "squared_lengths": [1.0, 1.0, 2.0]}'


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", TRIANGLE], None),
        (["volume", TRIANGLE], None),
        (["faces", TRIANGLE, "--k", "1"], None),
        (["dual", TRIANGLE, "--ratio", "0", "1"], "dual"),
        (["probe", TRIANGLE, RIGHT, "--mode", "log"], "convexity"),
        (["counterexample", "nontri"], "convexity"),
        (["optimize", "--n", "2", "--total", "3", "--objective", "logprod", "--k", "1"],
         "extremal"),
    ],
)
def test_a_command_loads_the_modules_it_runs(argv, extra):
    code = f"import simplexcone.cli\nassert simplexcone.cli.main({argv!r}) == 0"
    expected = sorted(CLI_CORE + ([f"simplexcone.{extra}"] if extra else []))
    assert _loaded_after(code) == expected + ["numpy"]
