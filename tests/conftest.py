"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

# every module that may bind the solver: the CLI imports some only when it runs
from simplexcone import cli, convexity, dual, extremal, linalg  # noqa: F401


@pytest.fixture
def eigendecompose_calls(monkeypatch):
    """Sizes of the matrices handed to ``linalg.eigendecompose``, in call
    order, counted in every package namespace that binds it."""
    calls = []
    original = linalg.eigendecompose

    def counting(m, *args, **kwargs):
        calls.append(len(m))
        return original(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "simplexcone" or name.startswith("simplexcone."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices handed to ``np.linalg.svd``, in call order."""
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes
