"""What the benchmark in ``perfbench/`` needs from lpvsyn.

The benchmark wraps lpvsyn attributes by name, reads call arguments by
position to count work, and stamps ``_kernels.NUMBA_ENABLED`` into every
result.  Its files are loaded here read-only, by path, so a rename in
``src/`` that would break a benchmark run fails a test first.
"""
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load("tracer")


def test_every_wrapped_attribute_is_callable(tracer):
    for module_name, attr, _, _ in tracer.WRAPS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


def test_env_stamp_is_json_with_numba_disabled():
    stamp = load("run").env_stamp()
    assert json.loads(json.dumps(stamp)) == stamp
    assert stamp["numba_enabled"] is False


@pytest.mark.parametrize("module_name,attr,index,param,counter,key", [
    ("lpvsyn.plant", "generate_experiment", 3, "n_samples",
     "_experiment_samples", "samples"),
    ("lpvsyn.lfr", "simulate_closed_loop", 2, "reference", "_sim_samples",
     "samples"),
    ("lpvsyn.plant", "save_trace", 0, "trace", "_save_rows", "rows"),
], ids=["generate_experiment", "simulate_closed_loop", "save_trace"])
def test_counters_read_the_right_argument(tracer, module_name, attr, index,
                                          param, counter, key):
    fn = getattr(importlib.import_module(module_name), attr)
    params = list(inspect.signature(fn).parameters)
    assert params[index] == param
    # the counter sees 7 at the parameter's place, positionally or by name
    value = 7 if param == "n_samples" else [0.0] * 7
    args = [None] * len(params)
    args[index] = value
    count = getattr(tracer, counter)
    assert count(tuple(args), {}, None) == {key: 7}
    assert count(tuple(args[:index]), {param: value}, None) == {key: 7}
