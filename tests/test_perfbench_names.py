"""The names perfbench/run.py traces must exist in lacelab, its counting
hooks must read arguments that exist, and the counter draws it pins must
hold.

run.py is read with ast, not imported: importing it rewrites os.environ.
A traced function that a refactor renames or deletes, or a signature edit
under a hook that reads arguments by position, would otherwise break
`run.py --trace 1` while every library test still passes.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from lacelab.ising import IsingConfig
from lacelab.kernels import metropolis_run
from lacelab.perc import ExactGraph

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _literal(name):
    """The value of run.py's module-level constant `name`."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("%s is not assigned in %s" % (name, RUN_PY.name))


def _function(name):
    """run.py's module-level function `name`, as an ast node."""
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise LookupError("%s is not defined in %s" % (name, RUN_PY.name))


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


def test_count_metropolis_reads_the_arguments_it_names():
    # the hook unpacks metropolis_run's positional arguments by index
    assign = next(node for node in _function("count_metropolis").body
                  if isinstance(node, ast.Assign))
    names = [target.id for target in assign.targets[0].elts]
    positions = [ast.literal_eval(value.slice)
                 for value in assign.value.elts]
    params = list(inspect.signature(metropolis_run).parameters)
    assert names == ["n_sites", "sweeps", "burn_in", "thinning"]
    assert [params[i] for i in positions] == names


@pytest.mark.parametrize("hook, attr, make_first", [
    ("count_exact_small", "bonds", lambda: ExactGraph(2, [(0, 1, 0.5)])),
    ("count_exact_ising", "n_sites",
     lambda: IsingConfig(J=np.zeros((2, 2)), z=0.1)),
])
def test_hooks_read_attributes_of_the_first_argument(hook, attr, make_first):
    # each hook reads args[0].<attr> of the call it counts
    reads = [node.attr for node in ast.walk(_function(hook))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Subscript)]
    assert reads == [attr]
    assert hasattr(make_first(), attr)
