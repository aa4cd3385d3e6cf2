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

import numpy as np
import pytest

from conftest import unstable_plant_problem
from lpvsyn import cli

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


def test_tracer_counts_every_synthesis_lp(tracer):
    # the LP counter reads A_ub by keyword, and the feasibility and bisection
    # spans come from wrapping bisect_gamma and feasibility_solve by name
    problem = unstable_plant_problem(np.linspace(0.05, 3.0, 16), gamma_lo=1.0,
                                     gamma_hi=100.0, gamma_rtol=0.05)
    rec = tracer.Tracer()
    rec.install()
    try:
        result = cli.bisect_gamma(problem)
    finally:
        rec.uninstall()
    metrics = tracer.layer_metrics(rec.spans)
    assert metrics["synthesis.lp_solves"] == metrics["telemetry_lp_solves"] \
        == result.telemetry["lp_solves"]
    assert result.telemetry["bisect_steps"] > 0
    assert metrics["synthesis.feasibility_solves"] \
        == 3 + result.telemetry["bisect_steps"]
    assert metrics["synthesis.lp_rows_max"] > 0
