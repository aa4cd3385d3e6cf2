"""What the benchmark in ``perfbench/`` needs from lpvsyn.

The benchmark wraps lpvsyn attributes by name, reads call arguments by
position to count work, and stamps ``_kernels.NUMBA_ENABLED`` into every
result.  Its files are loaded here read-only, by path, so a rename in
``src/`` that would break a benchmark run fails a test first.  Its config
files go through the CLI's config loader, so a stricter loader fails a test
first too.
"""
import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import lightly_damped_dp, unstable_plant_problem
from lpvsyn import (FrequencyGrid, analysis, cli, factorization, selection,
                    synthesis)
from test_cli import run, tiny_config, write_config

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


def test_record_path_feeds_the_layer_counters(tracer, tmp_path):
    # generate and estimate must reach the plant, trace, ETFE and factor
    # layers through the names the tracer wraps, or their metrics read zero
    cfg = tiny_config(tmp_path / "out")
    cfg_path = write_config(tmp_path, cfg)
    rec = tracer.Tracer()
    rec.install()
    try:
        for command in ("generate", "estimate"):
            res = run("--config", cfg_path, command)
            assert res.exit_code == 0, res.output
    finally:
        rec.uninstall()
    metrics = tracer.layer_metrics(rec.spans)
    n = cfg["experiment"]["n_samples"]
    assert metrics["plant.experiment_samples"] == 3 * n
    assert metrics["plant.trace_rows"] == 2 * 3 * n
    for name in ("plant.experiment_s", "plant.trace_write_s", "plant.trace_read_s",
                 "frfdata.etfe_s", "factorization.coprime_s"):
        assert metrics[name] > 0, name


def test_simulate_feeds_the_layer_counters(tracer, tmp_path, small_lpv_result):
    # simulate must reach the simulation and trace layers through the names
    # the tracer wraps, or lfr.sim_s and plant.trace_write_s read zero; its
    # four scenarios share one call, which counts the reference once
    cfg = tiny_config(tmp_path / "out")
    cfg_path = write_config(tmp_path, cfg)
    controller = tmp_path / "controller.json"
    controller.write_text(json.dumps(cli.controller_to_dict(small_lpv_result.theta,
                                                            200.0)))
    rec = tracer.Tracer()
    rec.install()
    try:
        res = run("--config", cfg_path, "simulate", str(controller))
        assert res.exit_code == 0, res.output
    finally:
        rec.uninstall()
    metrics = tracer.layer_metrics(rec.spans)
    n = round(cfg["scenario"]["duration_s"] * 200.0)
    assert metrics["lfr.sim_samples"] == n
    assert metrics["plant.trace_rows"] == 4 * n
    for name in ("lfr.sim_s", "plant.trace_write_s"):
        assert metrics[name] > 0, name


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
    # hi, lo, every bisection level not settled by a held theta, and theta*
    assert metrics["synthesis.feasibility_solves"] \
        == 3 + result.telemetry["bisect_steps"] - result.telemetry["skipped_steps"]
    assert metrics["synthesis.lp_rows_max"] > 0


def test_tracer_counts_multiplier_lps_apart_from_synthesis_lps(tracer):
    # analysis.linprog and synthesis.linprog are one function, wrapped under
    # two names; the benchmark's paper-data checks (no synthesis LP, at least
    # one multiplier LP) rely on each call landing under its own module's name
    assert analysis.linprog is synthesis.linprog
    grid = FrequencyGrid(np.linspace(1e-3, np.pi - 1e-9, 512))
    rec = tracer.Tracer()
    rec.install()
    try:
        cert = cli.check_stability({0.0: lightly_damped_dp(grid)}, grid)
    finally:
        rec.uninstall()
    assert cert.certified and cert.multipliers[0.0].beta.size > 0
    metrics = tracer.layer_metrics(rec.spans)
    assert metrics["analysis.multiplier_lps"] >= 1
    assert metrics["synthesis.lp_solves"] == 0


@pytest.mark.parametrize("path", sorted((PERFBENCH / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_benchmark_config_loads_with_default_options(path):
    # keys the default config lacks (a leftover "planes") are kept, not read
    cfg = cli.load_config(str(path), None, False)
    default = cli.load_config(None, None, False)
    assert dataclasses.asdict(cli._options_from_config(cfg)) \
        == dataclasses.asdict(cli._options_from_config(default))


def test_select_lpv_setup_builds_its_problem(tmp_path):
    # the select-lpv workload calls the default designs, the analytic factor
    # pairs, the scheduling basis and the options positionally
    bench = load("run")
    bench.factorization = factorization
    select = bench.Run("select-lpv", 0, tmp_path)
    bench.SelectLpv().setup(select)
    assert isinstance(select.problem, synthesis.SynthesisProblem)
    assert len(select.problem.grid) == 16
    assert len(select.problem.scheduling_grid) == 3


def test_select_lpv_lps_match_their_telemetry(tracer, tmp_path):
    # a traced select-lpv run is correct only if every LP the tracer records
    # is one that some returned bisection counted in its telemetry
    bench = load("run")
    bench.factorization = factorization
    select = bench.Run("select-lpv", 0, tmp_path)
    bench.SelectLpv().setup(select)
    rec = tracer.Tracer()
    rec.install()
    try:
        selection.basis_selection_iterate(select.problem, 1)
    finally:
        rec.uninstall()
    metrics = tracer.layer_metrics(rec.spans)
    assert metrics["synthesis.lp_solves"] == metrics["telemetry_lp_solves"] > 0
