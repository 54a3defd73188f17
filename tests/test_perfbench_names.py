"""The names perfbench/run.py traces must exist in lacelab, and the
counter draws it pins must hold.

run.py is read with ast, not imported: importing it rewrites os.environ.
A traced function that a refactor renames or deletes would otherwise break
`run.py --trace 1` while every library test still passes.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _literal(name):
    """The value of run.py's module-level constant `name`."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("%s is not assigned in %s" % (name, RUN_PY.name))


TRACED = _literal("TRACED")
METHODS = [attr for attr, _ in _literal("TRACED_METHODS")]
# run.py also counts calls to kernels.counter_uniform and reports USE_NUMBA
OTHER = ["kernels.counter_uniform", "kernels.USE_NUMBA"]


@pytest.mark.parametrize("name", TRACED + OTHER)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module("lacelab." + module), attr), name


@pytest.mark.parametrize("attr", METHODS)
def test_traced_method_resolves(attr):
    from lacelab.steps import StepDistribution
    assert callable(getattr(StepDistribution, attr, None)), attr


def test_golden_draws_hold_for_scalar_and_array_keys():
    from lacelab.kernels import counter_uniform
    golden = _literal("GOLDEN_DRAWS")
    counters = np.arange(len(golden), dtype=np.uint64)
    replicas = np.full(len(golden), 7, dtype=np.uint64)
    assert [counter_uniform(12345, 7, c) for c in range(len(golden))] == \
        golden
    assert counter_uniform(12345, 7, counters).tolist() == golden
    assert counter_uniform(12345, replicas, counters).tolist() == golden
