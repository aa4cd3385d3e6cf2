"""Pipeline driver: data generation, estimation, synthesis, certification,
simulation and report tables as subcommands over a JSON config file.

Exit codes: 0 success, 2 config error, 3 infeasible or refuted, 4 numerical
failure.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import defaults
from .analysis import check_performance, check_stability, compute_achieved_gamma
from .exceptions import (ConfigError, DataFormatError, EstimationError,
                         SimulationDivergedError, SolverFailureError,
                         StabilizationError, SynthesisInfeasibleError)
# assemble_closed_loop is unused here but stays importable: the benchmark
# tracer (perfbench/tracer.py) wraps lpvsyn.cli.assemble_closed_loop by name
from .factorization import (CHANNELS, CoprimeFrfPair, assemble_closed_loop,
                            coprime_from_closed_loop)
from .frfdata import (FrequencyGrid, FrfDataset, SchedulingGrid, TimeRecord,
                      closed_loop_to_plant, default_scheduling_range,
                      etfe_estimate, load_dataset, save_dataset, write_table)
from .lfr import (build_lfr, constant_scheduling, filtered_square_reference,
                  frozen_controller_frf, simulate_closed_loop, square_scheduling,
                  step_metrics)
from .obf import ObfBasis, SchedulingBasis, laguerre_basis
from .plant import (LpvSurrogateModel, Trace, default_experiment_controller,
                    default_surrogate, generate_experiment, load_surrogate,
                    load_trace, save_trace)
from .rational import RationalTf
from .synthesis import (ControllerParameters, SynthesisOptions,
                        SynthesisProblem, SynthesisResult, WeightSet,
                        bisect_gamma, closed_loop_data)

EXIT_CONFIG = 2
EXIT_REFUTED = 3
EXIT_NUMERICAL = 4
RECORDS_FILE = "records_p{:g}.csv"  # the experiment record of one operating point


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, DataFormatError, FileNotFoundError, KeyError,
                ValueError) as exc:
            _fail(EXIT_CONFIG, str(exc))
        except (SynthesisInfeasibleError, StabilizationError) as exc:
            _fail(EXIT_REFUTED, str(exc))
        except (SolverFailureError, SimulationDivergedError, EstimationError,
                OverflowError) as exc:
            _fail(EXIT_NUMERICAL, str(exc))
    return wrapper


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

# what the leaves whose default is null hold when set
_ALTERNATIVE_TYPES = {"plant.constants_path": "", "experiment.controller0": {},
                      "synthesis.weights": {}, "synthesis.options.eps": 0.0}
# keys of older configs that no longer have a default: accepted, never read
_RETIRED_KEYS = {"synthesis.options.planes"}
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "list", dict: "object", type(None): "null"}


def _same_type(default, val) -> bool:
    """Whether ``val`` has the JSON type of ``default``: null, boolean,
    integer, number (which an integer also is), string, object, or a list
    whose items have the type of the default's items."""
    if isinstance(default, bool) or isinstance(val, bool):
        return type(val) is type(default)
    if isinstance(default, float):
        return isinstance(val, (int, float))
    if isinstance(default, list):
        return isinstance(val, list) and all(_same_type(d, v) for d in default[:1]
                                             for v in val)
    return isinstance(val, type(default))


def _check_leaf(name: str, default, val) -> None:
    allowed = [default]
    if name in _ALTERNATIVE_TYPES:
        allowed.append(_ALTERNATIVE_TYPES[name])
    if not any(_same_type(a, val) for a in allowed):
        kinds = " or ".join(_JSON_TYPES[type(a)] for a in allowed)
        raise ConfigError(f"config value {name} must be {kinds}, not {json.dumps(val)}")


def _deep_update(base: dict, override: dict, prefix: str = "") -> dict:
    """``override`` merged into ``base``; every key must be one of ``base``
    (or retired), a section that is an object in ``base`` must stay one, and
    a leaf of ``base`` keeps its type."""
    out = dict(base)
    for key, val in override.items():
        if key not in out:
            if f"{prefix}{key}" not in _RETIRED_KEYS:
                raise ConfigError(f"unknown config key {prefix}{key}")
            out[key] = val
        elif not isinstance(out[key], dict):
            _check_leaf(f"{prefix}{key}", out[key], val)
            out[key] = val
        elif isinstance(val, dict):
            out[key] = _deep_update(out[key], val, f"{prefix}{key}.")
        else:
            raise ConfigError(f"config section {prefix}{key} must be a JSON object")
    return out


def load_config(path: str | None, seed: int | None, paper_scale: bool) -> dict:
    cfg = defaults.default_config()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _deep_update(cfg, user)
    if seed is not None:
        cfg["seed"] = int(seed)
    if paper_scale:
        cfg["experiment"]["n_samples"] = defaults.PAPER_SCALE["n_samples"]
        cfg["experiment"]["grid"]["n"] = defaults.PAPER_SCALE["grid_n"]
    return cfg


def _model_from_config(cfg: dict) -> LpvSurrogateModel:
    plant = cfg["plant"]
    if plant["kind"] != "surrogate":
        raise ConfigError("this command needs the surrogate plant; "
                          "an external dataset cannot be simulated")
    path = plant["constants_path"]
    return load_surrogate(path) if path else default_surrogate()


def _grid_from_config(cfg: dict, sample_rate: float) -> FrequencyGrid:
    g = cfg["experiment"]["grid"]
    return FrequencyGrid.log_spaced(float(g["f_min_hz"]), float(g["f_max_hz"]),
                                    g["n"], sample_rate)


def _weight_from_config(spec) -> RationalTf:
    return RationalTf(np.asarray(spec["num"], dtype=float),
                      np.asarray(spec["den"], dtype=float))


def _weights_from_config(cfg: dict, sample_rate: float) -> WeightSet:
    spec = cfg["synthesis"]["weights"]
    if spec is None:
        return defaults.default_weights(sample_rate)
    try:
        return WeightSet(*(_weight_from_config(spec[c]) for c in CHANNELS))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed weight specification: {exc!r}") from exc


def _sched_basis_from_config(cfg: dict, p_range) -> SchedulingBasis:
    syn = cfg["synthesis"]
    kind = syn["scheduling.kind"]
    if kind == "constant":
        return SchedulingBasis.constant(p_range)
    if kind == "affine":
        return SchedulingBasis.affine(p_range)
    if kind == "polynomial":
        return SchedulingBasis.polynomial(syn["scheduling.degree"], p_range)
    raise ConfigError(f"unknown scheduling kind {kind!r}")


def _options_from_config(cfg: dict) -> SynthesisOptions:
    o = cfg["synthesis"]["options"]
    return SynthesisOptions(
        eps=o["eps"],
        gamma_lo=float(o["gamma_lo"]),
        gamma_hi=float(o["gamma_hi"]),
        gamma_rtol=float(o["gamma_rtol"]),
        integral_action=o["integral_action"],
        theta_bound=float(o["theta_bound"]),
    )


def _controller0_from_config(cfg: dict, sample_rate: float) -> RationalTf:
    spec = cfg["experiment"]["controller0"]
    if spec is None:
        return default_experiment_controller(sample_rate)
    return _weight_from_config(spec)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    if not out.parent.exists():
        raise ConfigError(f"output location {out.parent} does not exist")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_bytes(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, allow_nan=True)


def controller_to_dict(params: ControllerParameters, sample_rate: float) -> dict:
    return {
        "sample_rate": sample_rate,
        "wbar": params.wbar.tolist(),
        "vbar": params.vbar.tolist(),
        "basis_n_poles": [[z.real, z.imag] for z in params.basis_n.poles],
        "basis_d_poles": [[z.real, z.imag] for z in params.basis_d.poles],
        "scheduling": {"m": params.sched.m, "range": list(params.sched.p_range)},
    }


def controller_from_dict(raw: dict, sample_rate: float) -> ControllerParameters:
    """The controller of ``raw``; raises ConfigError if it was synthesized at
    a sample rate other than ``sample_rate``."""
    if float(raw["sample_rate"]) != sample_rate:
        raise ConfigError(f"controller sample rate {raw['sample_rate']} differs "
                          f"from the sample rate {sample_rate} in use")
    sched = SchedulingBasis(int(raw["scheduling"]["m"]),
                            tuple(raw["scheduling"]["range"]))
    basis_n = ObfBasis(np.array([complex(re, im) for re, im in raw["basis_n_poles"]]))
    basis_d = ObfBasis(np.array([complex(re, im) for re, im in raw["basis_d_poles"]]))
    return ControllerParameters(np.array(raw["wbar"]), np.array(raw["vbar"]),
                                basis_n, basis_d, sched)


def load_controller(path, sample_rate: float) -> ControllerParameters:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"controller file {p} does not exist")
    return controller_from_dict(json.loads(p.read_text()), sample_rate)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
@click.option("--config", "config_path", type=str, default=None,
              help="JSON pipeline configuration")
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--paper-scale", is_flag=True,
              help="use the original experiment sizes instead of desk-scale")
@click.pass_context
def main(ctx, config_path, seed, paper_scale):
    """Data-driven LPV controller synthesis pipeline."""
    ctx.ensure_object(dict)
    try:
        ctx.obj["cfg"] = load_config(config_path, seed, paper_scale)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, str(exc))


def _dataset_from_records(cfg: dict, model: LpvSurrogateModel, record) -> FrfDataset:
    """The fFRF dataset of the experiment records, one operating point at a
    time in sorted order.  ``record(i, p, period)`` gives the trace of p, the
    i-th point of the config, excited with the given period (None: aperiodic).
    Past the lead-in, S is estimated from d -> u + d (the plant input u_G) and
    GS from d -> y, then factored."""
    exp = cfg["experiment"]
    n, periods, lead_in = exp["n_samples"], exp["periods"], exp["lead_in_periods"]
    points = [float(p) for p in exp["operating_points"]]
    if not points:
        raise ConfigError("experiment.operating_points must not be empty")
    if len(set(points)) < len(points):
        raise ConfigError(f"experiment.operating_points must be distinct, not {points}")
    if n < 1:
        raise ConfigError(f"experiment.n_samples must be positive, not {n}")
    if exp["periodic"] and not 1 <= periods <= n:
        raise ConfigError(f"experiment.periods must be from 1 to n_samples, not {periods}")
    if exp["periodic"] and not 0 <= lead_in < periods:
        raise ConfigError("experiment.lead_in_periods must be from 0 to periods - 1, "
                          f"not {lead_in}")
    period = n // periods if exp["periodic"] else None
    skip = period * lead_in if period else 0
    fs = model.sample_rate
    k0 = _controller0_from_config(cfg, fs)
    grid = _grid_from_config(cfg, fs)

    def point_entries(i: int, p: float) -> dict:
        trace = record(i, p, period)
        if len(trace) != n:
            raise ConfigError(f"the record of p={p:g} has {len(trace)} samples, "
                              f"not experiment.n_samples = {n}")
        d, u_g, y = (TimeRecord(s[skip:], label) for s, label in
                     ((trace.d, "d"), (trace.u + trace.d, "u_G"), (trace.y, "y")))
        sens = etfe_estimate(d, u_g, grid, exp["window"], exp["segments"])
        proc = etfe_estimate(d, y, grid, exp["window"], exp["segments"])
        pair, _ = coprime_from_closed_loop(sens, proc, k0,
                                           bezout_tol=float(exp["bezout_tol"]))
        return {(p, "S"): sens, (p, "GS"): proc, (p, "G"): closed_loop_to_plant(sens, proc),
                (p, "N_G"): pair.n_g, (p, "D_G"): pair.d_g}

    entries = {}
    for i, p in sorted(enumerate(points), key=lambda ip: ip[1]):
        entries.update(point_entries(i, p))
    sched = SchedulingGrid(np.array(sorted(points)), default_scheduling_range(points))
    return FrfDataset(entries, grid, sched)


def _load_dataset(cfg: dict, out: Path) -> FrfDataset:
    """The dataset that ``generate`` wrote to ``out``, at the surrogate's
    sample rate; an external dataset takes ``plant.sample_rate``."""
    path = out / "dataset.csv"
    if not path.exists():
        raise ConfigError(f"dataset {path} does not exist; run generate first")
    plant = cfg["plant"]
    fs = (_model_from_config(cfg).sample_rate if plant["kind"] == "surrogate"
          else float(plant["sample_rate"]))
    return load_dataset(path, sample_rate=fs)


@main.command()
@click.pass_context
@handle_errors
def generate(ctx):
    """Run closed-loop experiments and write records plus the fFRF dataset."""
    cfg = ctx.obj["cfg"]
    model = _model_from_config(cfg)
    exp = cfg["experiment"]
    k0 = _controller0_from_config(cfg, model.sample_rate)
    out = _out_dir(cfg)

    def run_experiment(i: int, p: float, period: int | None) -> Trace:
        d, u_g, y = (r.samples for r in generate_experiment(
            model, k0, p, exp["n_samples"], float(exp["noise_std"]),
            cfg["seed"] + i, d_std=float(exp["d_std"]), periodic_period=period))
        trace = Trace(np.zeros(d.size), -y, u_g - d, d, y, np.full(d.size, p),
                      model.sample_rate, model.scheduling_range)
        save_trace(trace, out / RECORDS_FILE.format(p))
        return trace

    dataset = _dataset_from_records(cfg, model, run_experiment)
    save_dataset(dataset, out / "dataset.csv")
    click.echo(f"wrote {out / 'dataset.csv'} "
               f"({len(dataset.scheduling_grid)} operating points, "
               f"{len(dataset.grid)} frequencies)")


@main.command()
@click.pass_context
@handle_errors
def estimate(ctx):
    """Re-run ETFE estimation from previously written experiment records."""
    cfg = ctx.obj["cfg"]
    model = _model_from_config(cfg)
    out = _out_dir(cfg)

    def read_record(_i: int, p: float, _period) -> Trace:
        path = out / RECORDS_FILE.format(p)
        if not path.exists():
            raise ConfigError(f"missing experiment record {path}; run generate first")
        return load_trace(path, model.scheduling_range)

    dataset = _dataset_from_records(cfg, model, read_record)
    save_dataset(dataset, out / "dataset.csv")
    click.echo(f"wrote {out / 'dataset.csv'}")


def _coprime_pairs(dataset: FrfDataset) -> dict:
    """Operating point -> the dataset's (N_G, D_G) factor pair."""
    return {p: CoprimeFrfPair(dataset.response(p, "N_G"), dataset.response(p, "D_G"))
            for p in map(float, dataset.scheduling_grid.points)}


def _problem_from_dataset(cfg: dict, dataset: FrfDataset) -> SynthesisProblem:
    pairs = _coprime_pairs(dataset)
    p_range = dataset.scheduling_grid.range
    syn = cfg["synthesis"]
    basis_n = laguerre_basis(float(syn["obf.pole"]), syn["obf.order_n"])
    basis_d = laguerre_basis(float(syn["obf.pole"]), syn["obf.order_d"])
    weights = _weights_from_config(cfg, dataset.grid.sample_rate)
    return SynthesisProblem(pairs, weights, dataset.grid, dataset.scheduling_grid,
                            basis_n, basis_d,
                            _sched_basis_from_config(cfg, p_range),
                            _options_from_config(cfg))


def _closed_loop(cfg: dict, dataset: FrfDataset, params: ControllerParameters):
    """Grid, weights on it and per-point closed-loop data of a controller on
    the dataset's factor pairs.  The controller carries its own bases, so of
    the synthesis settings only the weights enter."""
    grid = dataset.grid
    weights = _weights_from_config(cfg, grid.sample_rate).on_grid(grid)
    return grid, weights, closed_loop_data(_coprime_pairs(dataset), params)


def result_to_dict(result: SynthesisResult, sample_rate: float) -> dict:
    margins = {f"p={p:g}/{c}": [round(float(v), 12) for v in arr]
               for (p, c), arr in sorted(result.margins.items())}
    # wall time, the LP count and the skipped levels depend on the run and the
    # search path, not on the result; they stay in result.telemetry for tracing
    telemetry = {k: v for k, v in result.telemetry.items()
                 if k not in ("wall_time_s", "lp_solves", "skipped_steps")}
    return {
        "gamma": result.gamma,
        "re_dp_min": result.re_dp_min,
        "controller": controller_to_dict(result.theta, sample_rate),
        "margins": margins,
        "telemetry": telemetry,
    }


@main.command()
@click.pass_context
@handle_errors
def synthesize(ctx):
    """Synthesize a controller from the dataset and write result files."""
    cfg = ctx.obj["cfg"]
    out = _out_dir(cfg)
    dataset = _load_dataset(cfg, out)
    problem = _problem_from_dataset(cfg, dataset)
    result = bisect_gamma(problem)
    payload = result_to_dict(result, dataset.grid.sample_rate)
    (out / "synthesis_result.json").write_text(_json_bytes(payload))
    (out / "controller.json").write_text(_json_bytes(payload["controller"]))
    click.echo(f"gamma = {result.gamma:.6g}; wrote {out / 'controller.json'}")


@main.command()
@click.argument("controller_file", type=str)
@click.option("--gamma", type=float, required=True,
              help="performance level to certify")
@click.pass_context
@handle_errors
def analyze(ctx, controller_file, gamma):
    """Certify stability and performance of a controller at a given gamma."""
    cfg = ctx.obj["cfg"]
    out = _out_dir(cfg)
    dataset = _load_dataset(cfg, out)
    params = load_controller(controller_file, dataset.grid.sample_rate)
    grid, weights, data = _closed_loop(cfg, dataset, params)
    stab = check_stability({p: block.d_p for p, block in data.items()}, grid)
    perf = check_performance(data, weights, gamma, grid)
    achieved = compute_achieved_gamma(data, weights)
    payload = {
        "gamma": gamma,
        "achieved_gamma": achieved,
        "stability": _certificate_dict(stab),
        "performance": _certificate_dict(perf),
    }
    (out / "certificate.json").write_text(_json_bytes(payload))
    click.echo(f"stability: {stab.status}; performance at gamma={gamma:g}: "
               f"{perf.status}; achieved {achieved:.6g}")
    if not (stab.certified and perf.certified):
        sys.exit(EXIT_REFUTED)


def _certificate_dict(cert) -> dict:
    return {
        "status": cert.status,
        "eps": cert.eps,
        "margins": {f"p={p:g}": m for p, m in sorted(cert.margins.items())},
        "multipliers": {
            f"p={p:g}": {"beta": mp.beta.tolist(), "delay": mp.delay,
                         "sign": mp.sign,
                         "basis_poles": [[z.real, z.imag] for z in mp.basis.poles]}
            for p, mp in sorted(cert.multipliers.items())},
        "detail": cert.detail,
    }


@main.command()
@click.argument("controller_file", type=str)
@click.pass_context
@handle_errors
def simulate(ctx, controller_file):
    """Frozen and time-varying closed-loop runs with trace and metrics files."""
    cfg = ctx.obj["cfg"]
    out = _out_dir(cfg)
    model = _model_from_config(cfg)
    params = load_controller(controller_file, model.sample_rate)
    ctrl = build_lfr(params)
    scn = cfg["scenario"]
    fs = model.sample_rate
    for key in ("duration_s", "ref_period_s", "sched_period_s"):
        if not float(scn[key]) > 0:
            raise ConfigError(f"scenario.{key} must be positive, not {scn[key]}")
    if not 0 < float(scn["cutoff_hz"]) < fs / 2:
        raise ConfigError(f"scenario.cutoff_hz must lie between 0 and the Nyquist "
                          f"frequency {fs / 2:g} Hz, not {scn['cutoff_hz']}")
    n = int(round(float(scn["duration_s"]) * fs))
    ref = filtered_square_reference(n, fs, float(scn["amplitude"]),
                                   float(scn["ref_period_s"]),
                                   float(scn["cutoff_hz"]))
    zero_d = TimeRecord(np.zeros(n), "d")
    metrics = {}
    for p in scn["frozen_points"]:
        trace = simulate_closed_loop(model, ctrl, ref,
                                     constant_scheduling(n, float(p)), zero_d)
        save_trace(trace, out / f"trace_frozen_p{float(p):g}.csv")
        metrics[f"frozen_p{float(p):g}"] = step_metrics(trace)
    sched = square_scheduling(n, fs, model.scheduling_range,
                              float(scn["sched_period_s"]))
    trace = simulate_closed_loop(model, ctrl, ref, sched, zero_d)
    save_trace(trace, out / "trace_timevarying.csv")
    metrics["timevarying"] = step_metrics(trace)
    (out / "metrics.json").write_text(_json_bytes(metrics))
    click.echo(f"wrote {out / 'metrics.json'}")


@main.command()
@click.pass_context
@handle_errors
def report(ctx):
    """Plot-ready CSV tables: plant fFRFs, 4-block magnitudes with weight
    bounds, and frozen controller responses."""
    cfg = ctx.obj["cfg"]
    out = _out_dir(cfg)
    dataset = _load_dataset(cfg, out)
    result_path = out / "synthesis_result.json"
    if not result_path.exists():
        raise ConfigError(f"{result_path} does not exist; run synthesize first")
    payload = json.loads(result_path.read_text())
    params = controller_from_dict(payload["controller"], dataset.grid.sample_rate)
    gamma = float(payload["gamma"])
    grid, weights, data = _closed_loop(cfg, dataset, params)
    ctrl = build_lfr(params)

    polar_fields = ("p", "omega", "hz", "mag", "phase_deg")

    def polar(values):
        return grid.omegas, grid.hz, np.abs(values), np.degrees(np.angle(values))

    write_table(out / "report_plant_frf.csv", polar_fields,
                [((f"{p:g}",), polar(dataset.response(p, "G").values))
                 for p in data])
    write_table(out / "report_fourblock.csv",
                ("p", "channel", "omega", "hz", "mag", "bound"),
                [((f"{p:g}", c), (grid.omegas, grid.hz,
                                  np.abs(block.numerator(c) / block.d_p),
                                  gamma / np.abs(weights[c])))
                 for p, block in data.items() for c in CHANNELS])
    write_table(out / "report_controller_frf.csv", polar_fields,
                [((f"{p:g}",), polar(frozen_controller_frf(ctrl, p, grid).values))
                 for p in data])
    click.echo(f"wrote report tables to {out}")


if __name__ == "__main__":
    main()
