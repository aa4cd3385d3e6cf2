"""Pipeline driver: data generation, estimation, synthesis, certification,
simulation and report tables as subcommands over a JSON config file.

Exit codes: 0 success, 2 config error, 3 infeasible or refuted, 4 numerical
failure.
"""
from __future__ import annotations

import functools
import json
import math
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
                      closed_loop_to_plant, etfe_estimate, load_dataset,
                      save_dataset)
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

def _deep_update(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], val)
        else:
            out[key] = val
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
    plant = cfg.get("plant", {})
    if plant.get("kind", "surrogate") != "surrogate":
        raise ConfigError("this command needs the surrogate plant; "
                          "an external dataset cannot be simulated")
    path = plant.get("constants_path")
    return load_surrogate(path) if path else default_surrogate()


def _data_sample_rate(cfg: dict) -> float:
    """Sample rate for dataset work; external datasets carry their own."""
    plant = cfg.get("plant", {})
    if plant.get("kind", "surrogate") == "surrogate":
        return _model_from_config(cfg).sample_rate
    return float(plant.get("sample_rate", 1.0))


def _grid_from_config(cfg: dict, sample_rate: float) -> FrequencyGrid:
    g = cfg["experiment"]["grid"]
    return FrequencyGrid.log_spaced(float(g["f_min_hz"]), float(g["f_max_hz"]),
                                    int(g["n"]), sample_rate)


def _weight_from_config(spec, sample_rate: float) -> RationalTf:
    return RationalTf(np.asarray(spec["num"], dtype=float),
                      np.asarray(spec["den"], dtype=float), sample_rate)


def _weights_from_config(cfg: dict, sample_rate: float) -> WeightSet:
    spec = cfg["synthesis"].get("weights")
    if spec is None:
        return defaults.default_weights(sample_rate)
    try:
        return WeightSet(*(_weight_from_config(spec[c], sample_rate)
                           for c in CHANNELS))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed weight specification: {exc!r}") from exc


def _sched_basis_from_config(cfg: dict, p_range) -> SchedulingBasis:
    syn = cfg["synthesis"]
    kind = syn.get("scheduling.kind", "affine")
    if kind in ("constant", "lti"):
        return SchedulingBasis.constant(p_range)
    if kind == "affine":
        return SchedulingBasis.affine(p_range)
    if kind == "polynomial":
        return SchedulingBasis.polynomial(int(syn.get("scheduling.degree", 1)), p_range)
    raise ConfigError(f"unknown scheduling kind {kind!r}")


def _options_from_config(cfg: dict) -> SynthesisOptions:
    o = cfg["synthesis"].get("options", {})
    return SynthesisOptions(
        eps=o.get("eps"),
        gamma_lo=float(o.get("gamma_lo", 0.01)),
        gamma_hi=float(o.get("gamma_hi", 1000.0)),
        gamma_rtol=float(o.get("gamma_rtol", 1e-3)),
        gamma_atol=o.get("gamma_atol"),
        integral_action=bool(o.get("integral_action", True)),
        planes=o.get("planes", "adaptive"),
        theta_bound=float(o.get("theta_bound", 1e4)),
    )


def _controller0_from_config(cfg: dict, sample_rate: float) -> RationalTf:
    spec = cfg["experiment"].get("controller0")
    if spec is None:
        return default_experiment_controller(sample_rate)
    return _weight_from_config(spec, sample_rate)


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


def controller_from_dict(raw: dict) -> tuple:
    sched = SchedulingBasis(int(raw["scheduling"]["m"]),
                            tuple(raw["scheduling"]["range"]))
    basis_n = ObfBasis(np.array([complex(re, im) for re, im in raw["basis_n_poles"]]))
    basis_d = ObfBasis(np.array([complex(re, im) for re, im in raw["basis_d_poles"]]))
    params = ControllerParameters(np.array(raw["wbar"]), np.array(raw["vbar"]),
                                  basis_n, basis_d, sched)
    return params, float(raw["sample_rate"])


def load_controller(path) -> tuple:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"controller file {p} does not exist")
    return controller_from_dict(json.loads(p.read_text()))


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


def _experiment_records(cfg: dict, model: LpvSurrogateModel):
    exp = cfg["experiment"]
    k0 = _controller0_from_config(cfg, model.sample_rate)
    period = None
    if exp.get("periodic", True):
        period = int(exp["n_samples"]) // int(exp.get("periods", 2))
    records = {}
    for i, p in enumerate(exp["operating_points"]):
        d, u_g, y = generate_experiment(
            model, k0, float(p), int(exp["n_samples"]),
            float(exp["noise_std"]), int(cfg["seed"]) + i,
            d_std=float(exp.get("d_std", 1.0)), periodic_period=period)
        records[float(p)] = (d, u_g, y)
    return k0, records


def _retain(cfg: dict, rec: TimeRecord) -> TimeRecord:
    """Drop the transient lead-in periods of a periodic experiment record."""
    exp = cfg["experiment"]
    if not exp.get("periodic", True):
        return rec
    period = len(rec) // int(exp.get("periods", 2))
    skip = period * int(exp.get("lead_in_periods", 1))
    return TimeRecord(rec.samples[skip:], rec.sample_rate, rec.label)


def _estimate_dataset(cfg: dict, model, k0, records) -> FrfDataset:
    exp = cfg["experiment"]
    grid = _grid_from_config(cfg, model.sample_rate)
    entries = {}
    points = sorted(records)
    bezout_tol = float(exp.get("bezout_tol", 0.5))
    for p in points:
        d, u_g, y = (_retain(cfg, r) for r in records[p])
        sens = etfe_estimate(d, u_g, grid, exp["window"], int(exp["segments"]))
        proc = etfe_estimate(d, y, grid, exp["window"], int(exp["segments"]))
        pair, _ = coprime_from_closed_loop(sens, proc, k0, bezout_tol=bezout_tol)
        entries[(p, "S")] = sens
        entries[(p, "GS")] = proc
        entries[(p, "G")] = closed_loop_to_plant(sens, proc)
        entries[(p, "N_G")] = pair.n_g
        entries[(p, "D_G")] = pair.d_g
    sched = SchedulingGrid(np.array(points),
                           (min(points), max(points)) if len(points) > 1
                           else (points[0] - 0.5, points[0] + 0.5))
    return FrfDataset(entries, grid, sched)


@main.command()
@click.pass_context
@handle_errors
def generate(ctx):
    """Run closed-loop experiments and write records plus the fFRF dataset."""
    cfg = ctx.obj["cfg"]
    model = _model_from_config(cfg)
    k0, records = _experiment_records(cfg, model)
    dataset = _estimate_dataset(cfg, model, k0, records)
    out = _out_dir(cfg)
    for p, (d, u_g, y) in records.items():
        n = len(d)
        trace = Trace(np.zeros(n), -y.samples, u_g.samples - d.samples,
                      d.samples, y.samples, np.full(n, p),
                      model.sample_rate, model.scheduling_range)
        save_trace(trace, out / f"records_p{p:g}.csv")
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
    exp = cfg["experiment"]
    out = _out_dir(cfg)
    k0 = _controller0_from_config(cfg, model.sample_rate)
    records = {}
    for p in exp["operating_points"]:
        path = out / f"records_p{float(p):g}.csv"
        if not path.exists():
            raise ConfigError(f"missing experiment record {path}; run generate first")
        trace = load_trace(path, model.scheduling_range)
        fs = model.sample_rate
        records[float(p)] = (TimeRecord(trace.d, fs, "d"),
                             TimeRecord(trace.u + trace.d, fs, "u_G"),
                             TimeRecord(trace.y, fs, "y"))
    dataset = _estimate_dataset(cfg, model, k0, records)
    save_dataset(dataset, out / "dataset.csv")
    click.echo(f"wrote {out / 'dataset.csv'}")


def _problem_from_dataset(cfg: dict, dataset: FrfDataset) -> SynthesisProblem:
    points = [float(p) for p in dataset.scheduling_grid.points]
    pairs = {p: CoprimeFrfPair(dataset.response(p, "N_G"), dataset.response(p, "D_G"))
             for p in points}
    p_range = dataset.scheduling_grid.range
    syn = cfg["synthesis"]
    basis_n = laguerre_basis(float(syn["obf.pole"]), int(syn["obf.order_n"]))
    basis_d = laguerre_basis(float(syn["obf.pole"]), int(syn["obf.order_d"]))
    weights = _weights_from_config(cfg, dataset.grid.sample_rate)
    return SynthesisProblem(pairs, weights, dataset.grid, dataset.scheduling_grid,
                            basis_n, basis_d,
                            _sched_basis_from_config(cfg, p_range),
                            _options_from_config(cfg))


def result_to_dict(result: SynthesisResult, sample_rate: float) -> dict:
    margins = {f"p={p:g}/{c}": [round(float(v), 12) for v in arr]
               for (p, c), arr in sorted(result.margins.items())}
    telemetry = {k: v for k, v in result.telemetry.items() if k != "wall_time_s"}
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
    dataset_path = out / "dataset.csv"
    if not dataset_path.exists():
        raise ConfigError(f"dataset {dataset_path} does not exist; run generate first")
    fs = _data_sample_rate(cfg)
    dataset = load_dataset(dataset_path, sample_rate=fs)
    problem = _problem_from_dataset(cfg, dataset)
    result = bisect_gamma(problem)
    payload = result_to_dict(result, fs)
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
    dataset = load_dataset(out / "dataset.csv", sample_rate=_data_sample_rate(cfg))
    params, _ = load_controller(controller_file)
    problem = _problem_from_dataset(cfg, dataset)
    grid = problem.grid
    weights = problem.weights.on_grid(grid)
    data = closed_loop_data(problem, params)
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
    params, _ = load_controller(controller_file)
    ctrl = build_lfr(params, model.sample_rate)
    scn = cfg["scenario"]
    fs = model.sample_rate
    n = int(round(float(scn["duration_s"]) * fs))
    ref = filtered_square_reference(n, fs, float(scn["amplitude"]),
                                   float(scn["ref_period_s"]),
                                   float(scn["cutoff_hz"]))
    zero_d = TimeRecord(np.zeros(n), fs, "d")
    metrics = {}
    for p in scn["frozen_points"]:
        trace = simulate_closed_loop(model, ctrl, ref,
                                     constant_scheduling(n, fs, float(p)), zero_d)
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
    fs = _data_sample_rate(cfg)
    dataset_path = out / "dataset.csv"
    result_path = out / "synthesis_result.json"
    if not dataset_path.exists() or not result_path.exists():
        raise ConfigError("report needs dataset.csv and synthesis_result.json; "
                          "run generate and synthesize first")
    dataset = load_dataset(dataset_path, sample_rate=fs)
    payload = json.loads(result_path.read_text())
    params, _ = controller_from_dict(payload["controller"])
    gamma = float(payload["gamma"])
    problem = _problem_from_dataset(cfg, dataset)
    grid = problem.grid
    weights = problem.weights.on_grid(grid)
    data = closed_loop_data(problem, params)
    ctrl = build_lfr(params, fs)

    lines = ["p,omega,hz,mag,phase_deg"]
    for p in data:
        g = dataset.response(p, "G").values
        for om, hz, v in zip(grid.omegas, grid.hz, g):
            lines.append(f"{p:g},{om!r},{hz!r},{abs(v)!r},{math.degrees(np.angle(v))!r}")
    (out / "report_plant_frf.csv").write_text("\n".join(lines) + "\n")

    lines = ["p,channel,omega,hz,mag,bound"]
    for p, block in data.items():
        for c in CHANNELS:
            mag = np.abs(block.numerator(c) / block.d_p)
            bound = gamma / np.abs(weights[c])
            for om, hz, v, b in zip(grid.omegas, grid.hz, mag, bound):
                lines.append(f"{p:g},{c},{om!r},{hz!r},{v!r},{b!r}")
    (out / "report_fourblock.csv").write_text("\n".join(lines) + "\n")

    lines = ["p,omega,hz,mag,phase_deg"]
    for p in data:
        resp = frozen_controller_frf(ctrl, p, grid).values
        for om, hz, v in zip(grid.omegas, grid.hz, resp):
            lines.append(f"{p:g},{om!r},{hz!r},{abs(v)!r},{math.degrees(np.angle(v))!r}")
    (out / "report_controller_frf.csv").write_text("\n".join(lines) + "\n")
    click.echo(f"wrote report tables to {out}")


if __name__ == "__main__":
    main()
