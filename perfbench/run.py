#!/usr/bin/env python3
"""Pipeline benchmark for lpvsyn.

Runs one workload repeatedly in this process for a fixed time, checks every
run's outputs, and prints each metric by name and unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md for the workloads and metrics.

    python3 perfbench/run.py --workload desk-lpv --seed 0 --seconds 36 --trace 0

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
runs with runs in which lpvsyn's layers are wrapped (perfbench/tracer.py),
and reports the per-layer metrics of the traced runs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One thread per BLAS call: on a shared machine extra BLAS threads only add
# noise, and the cap is stamped into every result.  Set before numpy loads.
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")
THREAD_CAP = "1"
SETUP_PROBES = 3
END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "gamma": "1"}
REFERENCE = json.loads((HERE / "data" / "reference.json").read_text())

# Filled in by load_lpvsyn(); imported late so the thread caps apply first.
cli = factorization = selection = tracer_mod = None


def load_lpvsyn() -> None:
    global cli, factorization, selection, tracer_mod
    if not (SRC / "lpvsyn" / "__init__.py").is_file():
        sys.exit(f"error: lpvsyn sources not found under {SRC}")
    for var in THREAD_CAP_VARS:
        os.environ[var] = THREAD_CAP
    sys.path.insert(0, str(SRC))
    import lpvsyn
    if Path(lpvsyn.__file__).resolve().parent != (SRC / "lpvsyn").resolve():
        sys.exit(f"error: imported lpvsyn from {lpvsyn.__file__}, not {SRC}")
    from lpvsyn import cli as _cli, factorization as _fac, selection as _sel
    import tracer as _tracer
    cli, factorization, selection, tracer_mod = _cli, _fac, _sel, _tracer


def env_stamp() -> dict:
    import numpy
    import scipy
    from lpvsyn import _kernels
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_CAP_VARS},
        "highs": "scipy linprog method='highs' defaults",
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Run:
    """One pipeline run: its output directory, stage exit codes and checks."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.config = out / "config.json"
        self.tracer = None
        self.codes = {}
        self.checks = {}
        self.gamma = math.nan
        self.problem = None

    def stage(self, name: str, *args: str) -> int:
        """Run one CLI command in this process; returns its exit code."""
        argv = ["--config", str(self.config), "--seed", str(self.seed), name, *args]
        span = self.tracer.span(f"cli.{name}") if self.tracer else contextlib.nullcontext()
        code = 0
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main.main(args=argv, standalone_mode=False)
            except SystemExit as exc:
                code = 1 if isinstance(exc.code, str) else int(exc.code or 0)
            except Exception:  # a crashing stage is a failed operation
                traceback.print_exc()
                code = 1
        self.codes[name] = code
        return code

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)


def _write_config(run: Run, name: str) -> None:
    cfg = json.loads((HERE / "configs" / f"{name}.json").read_text())
    cfg["out_dir"] = str(run.out)
    run.config.write_text(json.dumps(cfg, indent=1))


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


def _check_gamma(run: Run) -> None:
    ref = REFERENCE["workloads"][run.workload]["gamma"]
    run.check("gamma_reference",
              abs(run.gamma - ref) <= REFERENCE["gamma_rtol"] * ref)


def _check_analyze_outputs(run: Run) -> None:
    cert = _read_json(run.out / "certificate.json") or {}
    run.check("certificates_certified",
              all(cert.get(k, {}).get("status") == "certified"
                  for k in ("stability", "performance")))
    metrics = _read_json(run.out / "metrics.json")
    run.check("metrics_finite", isinstance(metrics, dict)
              and "timevarying" in metrics and _all_finite(metrics))


class DeskLpv:
    """Full CLI pipeline; analyze certifies at the synthesized gamma."""

    name = "desk-lpv"

    def setup(self, run: Run) -> None:
        _write_config(run, self.name)

    def pipeline(self, run: Run) -> None:
        run.stage("generate")
        run.stage("synthesize")
        result = _read_json(run.out / "synthesis_result.json") or {}
        run.gamma = float(result.get("gamma", math.nan))
        controller = str(run.out / "controller.json")
        run.stage("analyze", controller, "--gamma", repr(run.gamma))
        run.stage("simulate", controller)
        run.stage("report")

    def checks(self, run: Run) -> None:
        _check_gamma(run)
        _check_analyze_outputs(run)


class PaperData:
    """Data side of the pipeline with the stored controller; no synthesis."""

    name = "paper-data"

    def setup(self, run: Run) -> None:
        _write_config(run, self.name)
        stored = _read_json(HERE / "data" / "paper_controller.json")
        (run.out / "synthesis_result.json").write_text(json.dumps(stored))
        (run.out / "controller.json").write_text(json.dumps(stored["controller"]))

    def pipeline(self, run: Run) -> None:
        controller = str(run.out / "controller.json")
        gamma = REFERENCE["workloads"][self.name]["analyze_gamma"]
        run.stage("generate")
        run.stage("estimate")
        run.stage("analyze", controller, "--gamma", repr(gamma))
        cert = _read_json(run.out / "certificate.json") or {}
        run.gamma = float(cert.get("achieved_gamma", math.nan))
        run.stage("simulate", controller)
        run.stage("report")

    def checks(self, run: Run) -> None:
        _check_gamma(run)
        _check_analyze_outputs(run)


class SelectLpv:
    """basis_selection_iterate on analytic frozen coprime data.

    The data come from the surrogate model's frozen transfer functions, so
    they hold no randomness and the seed changes nothing.
    """

    name = "select-lpv"
    grid_lines = 16
    rounds = 1

    def __init__(self):
        self.plain_gamma = None

    def setup(self, run: Run) -> None:
        import numpy as np
        from lpvsyn import (FrequencyGrid, SchedulingBasis, SchedulingGrid,
                            SynthesisOptions, SynthesisProblem,
                            default_experiment_controller, default_surrogate,
                            frozen_tf, laguerre_basis)
        from lpvsyn.defaults import default_weights
        model = default_surrogate()
        k0 = default_experiment_controller(model.sample_rate)
        grid = FrequencyGrid.log_spaced(0.05, 90.0, self.grid_lines, model.sample_rate)
        points = (30.0, 40.0, 50.0)
        pairs = {p: factorization.frozen_coprime_from_model(frozen_tf(model, p), k0, grid)[0]
                 for p in points}
        sched_grid = SchedulingGrid(np.array(points), (30.0, 50.0))
        run.problem = SynthesisProblem(
            pairs, default_weights(model.sample_rate), grid, sched_grid,
            laguerre_basis(0.7, 5), laguerre_basis(0.7, 5),
            SchedulingBasis.affine(sched_grid.range),
            SynthesisOptions(integral_action=True, gamma_lo=0.01, gamma_hi=1000.0))

    def pipeline(self, run: Run) -> None:
        code = 0
        try:
            _, result = selection.basis_selection_iterate(run.problem, self.rounds)
            run.gamma = result.gamma
        except Exception:  # a failed selection is a failed operation
            traceback.print_exc()
            code = 1
        run.codes["basis_selection_iterate"] = code

    def checks(self, run: Run) -> None:
        _check_gamma(run)
        if self.plain_gamma is None:
            from lpvsyn.synthesis import bisect_gamma
            self.plain_gamma = bisect_gamma(run.problem).gamma
        run.check("no_worse_than_bisect", run.gamma <= self.plain_gamma * (1 + 1e-12))


WORKLOADS = {w.name: w for w in (DeskLpv(), PaperData(), SelectLpv())}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed: stage calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


def run_once(workload, seed: int, work: Path, index: int, tally: Tally,
             tracer=None) -> tuple:
    """Set up, run and check one pipeline run; returns (seconds, gamma)."""
    out = work / f"run{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    run = Run(workload.name, seed, out)
    run.tracer = tracer
    workload.setup(run)
    t0 = time.perf_counter()
    workload.pipeline(run)
    seconds = time.perf_counter() - t0
    workload.checks(run)
    for name, code in run.codes.items():
        tally.add(f"run{index}:{name} exit {code}", code == 0)
    for name, ok in run.checks.items():
        tally.add(f"run{index}:{name}", ok)
    shutil.rmtree(out, ignore_errors=True)
    return seconds, run.gamma


def timed_runs(budget: float, one, min_calls: int = 1) -> list:
    """Call one() until the next call would likely end past the budget."""
    samples = []
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples.append(one(len(samples)))
        walls.append(time.perf_counter() - t0)
        if (len(samples) >= min_calls
                and time.perf_counter() - start + statistics.median(walls) > budget):
            return samples


def summary(values: list) -> dict:
    """Median, and the highest percentile that has ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "samples": values}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = sorted(values)[math.ceil(pct / 100 * n) - 1]
    return out


def setup_seconds(args, work: Path) -> list:
    """Wall time of fresh processes that import lpvsyn and set up one run."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", str(work / f"probe{i}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
    return times


def measure_end_to_end(args, workload, work: Path, tally: Tally) -> dict:
    runs = timed_runs(args.seconds,
                      lambda i: run_once(workload, args.seed, work, i, tally))
    pipeline = [seconds for seconds, _ in runs]
    gammas = [gamma for _, gamma in runs]
    setup = setup_seconds(args, work)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"pipeline_s": summary(pipeline), "setup_s": summary(setup),
            "peak_rss_mb": {"median": rss_mb, "n": 1},
            "gamma": summary(gammas)}


def measure_layers(args, workload, work: Path, tally: Tally) -> tuple:
    """Alternate traced and untraced runs, so that the tracing overhead is
    measured under the same machine conditions.  The first run only warms up:
    it pays the one-time costs of a fresh process."""
    tracer = tracer_mod.Tracer()
    per_run = []
    spans = []
    untraced = []
    traced = []

    def one(i):
        if i % 2 == 0:
            seconds, _ = run_once(workload, args.seed, work, i, tally)
            if i:
                untraced.append(seconds)
            return
        tracer.spans = []
        tracer.install()
        try:
            seconds, _ = run_once(workload, args.seed, work, i, tally, tracer)
        finally:
            tracer.uninstall()
        layers = tracer_mod.layer_metrics(tracer.spans)
        tally.add(f"traced{i}:lp_records_match_telemetry",
                  layers["synthesis.lp_solves"] == layers["telemetry_lp_solves"])
        if workload.name == "paper-data":
            tally.add(f"traced{i}:no_synthesis_lps", layers["synthesis.lp_solves"] == 0)
            tally.add(f"traced{i}:multiplier_lps_used",
                      layers["analysis.multiplier_lps"] > 0)
        per_run.append(layers)
        spans.append(tracer.spans)
        traced.append(seconds)

    timed_runs(args.seconds, one, min_calls=3)
    metrics = {name: summary([layers[name] for layers in per_run])
               for name in tracer_mod.LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = {
        "median": statistics.median(traced) - statistics.median(untraced),
        "n": len(traced)}
    return metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_lpvsyn()
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        out = Path(args.setup_only)
        out.mkdir(parents=True, exist_ok=True)
        workload.setup(Run(workload.name, args.seed, out))
        return 0

    work = WORK / "work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        if args.trace:
            metrics, spans = measure_layers(args, workload, work, tally)
            units = tracer_mod.LAYER_UNITS
        else:
            metrics, spans = measure_end_to_end(args, workload, work, tally), None
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = env_stamp()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": stamp,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures,
              "metrics": {k: {**v, "unit": units[k]} for k, v in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"env {json.dumps(stamp, sort_keys=True)}")
    for name, stats in record["metrics"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stats.items()
                         if k.startswith("p") and k[1:].isdigit())
        print(f"{args.workload} {name} = {stats['median']:.6g} {stats['unit']} "
              f"(median, n={stats['n']}{', ' + extra if extra else ''})")
    print(f"{args.workload} failed_ops = {tally.failed}/{tally.attempted} ops"
          + (f" ({', '.join(tally.failures)})" if tally.failures else ""))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
