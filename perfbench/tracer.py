"""Span recorder that times lpvsyn's layers from outside the package.

The recorder replaces module attributes that lpvsyn looks up at call time
(for example ``lpvsyn.synthesis.linprog`` or the names ``lpvsyn.cli``
imports) with wrappers that record one span per call: name, start, end,
parent span and counters.  Spans stay in memory; the caller writes them out
when the run ends.  Nothing inside ``src/`` is edited.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager


def _rows(_args, _kwargs, result):
    return {"rows": len(result)}


def _save_rows(args, kwargs, _result):
    return {"rows": len(args[0] if args else kwargs["trace"])}


def _experiment_samples(args, kwargs, _result):
    return {"samples": int(args[3] if len(args) > 3 else kwargs["n_samples"])}


def _sim_samples(args, kwargs, _result):
    return {"samples": len(args[2] if len(args) > 2 else kwargs["reference"])}


def _feasibility(_args, _kwargs, result):
    return {"cuts": int(result.telemetry.get("cuts", 0))}


def _bisect(_args, _kwargs, result):
    return {"lp_solves": int(result.telemetry["lp_solves"]),
            "bisect_steps": int(result.telemetry["bisect_steps"])}


def _synthesis_lp(args, kwargs, result):
    a_ub = kwargs["A_ub"]
    counters = {"rows": int(a_ub.shape[0]), "cols": int(a_ub.shape[1]),
                "active": 0}
    marginals = getattr(getattr(result, "ineqlin", None), "marginals", None)
    if result.status == 0 and marginals is not None:
        counters["active"] = int((marginals != 0.0).sum())
        counters["optimal_rows"] = counters["rows"]
    return counters


# (module, attribute, span name, counter function or None).  Names imported
# into a module are wrapped in that module, because that is where the caller
# looks them up.
WRAPS = (
    ("lpvsyn.cli", "generate_experiment", "plant.experiment", _experiment_samples),
    ("lpvsyn.cli", "save_trace", "plant.trace_write", _save_rows),
    ("lpvsyn.cli", "load_trace", "plant.trace_read", _rows),
    ("lpvsyn.cli", "etfe_estimate", "frfdata.etfe", None),
    ("lpvsyn.cli", "save_dataset", "frfdata.dataset_write", None),
    ("lpvsyn.cli", "load_dataset", "frfdata.dataset_read", None),
    ("lpvsyn.cli", "coprime_from_closed_loop", "factorization.coprime", None),
    ("lpvsyn.factorization", "frozen_coprime_from_model", "factorization.coprime", None),
    ("lpvsyn.cli", "assemble_closed_loop", "factorization.assemble", None),
    ("lpvsyn.synthesis", "assemble_closed_loop", "factorization.assemble", None),
    ("lpvsyn.cli", "bisect_gamma", "synthesis.bisect", _bisect),
    ("lpvsyn.selection", "bisect_gamma", "synthesis.bisect", _bisect),
    ("lpvsyn.synthesis", "feasibility_solve", "synthesis.feasibility", _feasibility),
    ("lpvsyn.synthesis", "linprog", "synthesis.lp", _synthesis_lp),
    ("lpvsyn.synthesis", "eval_basis", "obf.eval_basis", None),
    ("lpvsyn.analysis", "eval_basis", "obf.eval_basis", None),
    ("lpvsyn.cli", "check_stability", "analysis.stability", None),
    ("lpvsyn.cli", "check_performance", "analysis.performance", None),
    ("lpvsyn.analysis", "linprog", "analysis.lp", None),
    ("lpvsyn.cli", "build_lfr", "lfr.build", None),
    ("lpvsyn.cli", "simulate_closed_loop", "lfr.sim", _sim_samples),
    ("lpvsyn.cli", "frozen_controller_frf", "lfr.controller_frf", None),
    ("lpvsyn.selection", "basis_selection_iterate", "selection.iterate", None),
)

STAGES = ("generate", "estimate", "synthesize", "analyze", "simulate", "report")

# per-layer metric name -> unit, in the order they are reported
LAYER_UNITS = {
    **{f"cli.{s}_s": "s" for s in STAGES},
    "synthesis.bisect_s": "s",
    "synthesis.setup_s": "s",
    "synthesis.feasibility_solves": "count",
    "synthesis.bisect_steps": "count",
    "synthesis.lp_solves": "count",
    "synthesis.lp_s": "s",
    "synthesis.lp_rows_total": "count",
    "synthesis.lp_rows_max": "count",
    "synthesis.lp_cols": "count",
    "synthesis.cuts": "count",
    "synthesis.active_row_ratio": "ratio",
    "plant.experiment_s": "s",
    "plant.experiment_samples": "count",
    "plant.trace_write_s": "s",
    "plant.trace_read_s": "s",
    "plant.trace_rows": "count",
    "lfr.build_s": "s",
    "lfr.sim_s": "s",
    "lfr.sim_samples": "count",
    "lfr.controller_frf_s": "s",
    "analysis.stability_s": "s",
    "analysis.performance_s": "s",
    "analysis.multiplier_lps": "count",
    "analysis.lp_s": "s",
    "frfdata.etfe_s": "s",
    "frfdata.dataset_write_s": "s",
    "frfdata.dataset_read_s": "s",
    "factorization.coprime_s": "s",
    "factorization.assemble_s": "s",
    "obf.eval_basis_s": "s",
    "selection.rounds": "count",
    "selection.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, "counters": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counter is not None:
                    record["counters"] = counter(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pipeline run from its spans.

    A span's self time is its duration minus the time its direct children of
    the named kind cover; children run one after another, so their durations
    add up without overlap.
    """
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    def total(name, counter=None):
        group = by_name.get(name, [])
        if counter is None:
            return sum(_duration(s) for s in group)
        return sum(s["counters"].get(counter, 0) for s in group)

    def self_time(name, child_name):
        out = 0.0
        for idx, span in enumerate(spans):
            if span["name"] == name:
                covered = sum(_duration(c) for c in children.get(idx, [])
                              if c["name"] == child_name)
                out += _duration(span) - covered
        return out

    lps = by_name.get("synthesis.lp", [])
    optimal_rows = total("synthesis.lp", "optimal_rows")
    selection_idx = [i for i, s in enumerate(spans) if s["name"] == "selection.iterate"]
    selection_bisects = sum(1 for i in selection_idx for c in children.get(i, [])
                            if c["name"] == "synthesis.bisect")
    metrics = {f"cli.{s}_s": total(f"cli.{s}") for s in STAGES}
    metrics.update({
        "synthesis.bisect_s": total("synthesis.bisect"),
        "synthesis.setup_s": self_time("synthesis.bisect", "synthesis.feasibility"),
        "synthesis.feasibility_solves": len(by_name.get("synthesis.feasibility", [])),
        "synthesis.bisect_steps": total("synthesis.bisect", "bisect_steps"),
        "synthesis.lp_solves": len(lps),
        "synthesis.lp_s": total("synthesis.lp"),
        "synthesis.lp_rows_total": total("synthesis.lp", "rows"),
        "synthesis.lp_rows_max": max((s["counters"].get("rows", 0) for s in lps),
                                     default=0),
        "synthesis.lp_cols": max((s["counters"].get("cols", 0) for s in lps), default=0),
        "synthesis.cuts": total("synthesis.feasibility", "cuts"),
        "synthesis.active_row_ratio": (total("synthesis.lp", "active") / optimal_rows
                                       if optimal_rows else 0.0),
        "plant.experiment_s": total("plant.experiment"),
        "plant.experiment_samples": total("plant.experiment", "samples"),
        "plant.trace_write_s": total("plant.trace_write"),
        "plant.trace_read_s": total("plant.trace_read"),
        "plant.trace_rows": (total("plant.trace_write", "rows")
                             + total("plant.trace_read", "rows")),
        "lfr.build_s": total("lfr.build"),
        "lfr.sim_s": total("lfr.sim"),
        "lfr.sim_samples": total("lfr.sim", "samples"),
        "lfr.controller_frf_s": total("lfr.controller_frf"),
        "analysis.stability_s": total("analysis.stability"),
        "analysis.performance_s": total("analysis.performance"),
        "analysis.multiplier_lps": len(by_name.get("analysis.lp", [])),
        "analysis.lp_s": total("analysis.lp"),
        "frfdata.etfe_s": total("frfdata.etfe"),
        "frfdata.dataset_write_s": total("frfdata.dataset_write"),
        "frfdata.dataset_read_s": total("frfdata.dataset_read"),
        "factorization.coprime_s": total("factorization.coprime"),
        "factorization.assemble_s": total("factorization.assemble"),
        "obf.eval_basis_s": total("obf.eval_basis"),
        "selection.rounds": max(selection_bisects - len(selection_idx), 0),
        "selection.self_s": self_time("selection.iterate", "synthesis.bisect"),
    })
    # telemetry total, compared with the per-LP records by the count checks
    metrics["telemetry_lp_solves"] = total("synthesis.bisect", "lp_solves")
    return metrics
