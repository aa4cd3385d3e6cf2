"""Surrogate LPV plant: frozen models, frozen FRFs and closed-loop experiments.

The default surrogate stands in for a gyroscope-like positioning system whose
dynamics depend on a disk velocity p in [30, 50] rad/s.  Its coefficients live
in ``data/surrogate_v1.json`` (schema: version, sample_rate, scheduling_range,
a0, a1, b, c with A(p) = a0 + p*a1) and are a calibrated stand-in, not a claim
about any physical device.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels
from .exceptions import SimulationDivergedError, StabilizationError
from .frfdata import (FrequencyGrid, FrfResponse, TimeRecord, check_range,
                      read_table, write_table)
from .rational import (RationalTf, closed_loop_maps, internally_stable,
                       statespace_response, statespace_tf)


@dataclass(frozen=True, eq=False)
class LpvSurrogateModel:
    """Discrete-time LPV state-space model with A(p) affine in the scalar p."""

    a0: np.ndarray
    a1: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sample_rate: float
    scheduling_range: tuple

    def __post_init__(self):
        a0 = np.asarray(self.a0, dtype=float)
        a1 = np.asarray(self.a1, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        n = a0.shape[0]
        if a0.shape != (n, n) or a1.shape != (n, n) or b.size != n or c.size != n:
            raise ValueError("inconsistent state-space dimensions")
        lo, hi = self.scheduling_range
        if not lo < hi:
            raise ValueError("empty scheduling range")
        for name, arr in (("a0", a0), ("a1", a1), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.flags.writeable = False
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "scheduling_range", (float(lo), float(hi)))

    @property
    def state_dim(self) -> int:
        return self.a0.shape[0]

    def a_at(self, p: float) -> np.ndarray:
        self.check_in_range(p)
        return self.a0 + p * self.a1

    def check_in_range(self, p) -> None:
        check_range(p, self.scheduling_range, "scheduling value")


def load_surrogate(path) -> LpvSurrogateModel:
    """Load surrogate constants from a JSON file with the documented schema."""
    raw = json.loads(Path(path).read_text())
    return LpvSurrogateModel(
        a0=np.array(raw["a0"]), a1=np.array(raw["a1"]),
        b=np.array(raw["b"]), c=np.array(raw["c"]),
        sample_rate=float(raw["sample_rate"]),
        scheduling_range=tuple(raw["scheduling_range"]),
    )


def default_surrogate() -> LpvSurrogateModel:
    with resources.as_file(resources.files("lpvsyn.data") / "surrogate_v1.json") as p:
        return load_surrogate(p)


def default_experiment_controller(sample_rate: float) -> RationalTf:
    """Fixed LTI controller used to collect closed-loop data.

    A negative gain with a second-order 1.8 Hz low-pass: the plant's unstable
    positioning pole wants negative low-frequency feedback while the resonant
    pair needs the loop phase lifted out of its destabilizing sector, which the
    low-pass roll-off provides.  Stabilizes every frozen surrogate model on
    [30, 50] with closed-loop spectral radius below 0.9951 (verified per
    operating point before use).
    """
    zd = np.exp(-2.0 * np.pi * 1.8 / sample_rate)
    lowpass = RationalTf(np.array([1.0 - zd]), np.array([1.0, -zd]))
    return -2.8 * lowpass * lowpass


# ---------------------------------------------------------------------------
# frozen views
# ---------------------------------------------------------------------------

def frozen_tf(model: LpvSurrogateModel, p: float) -> RationalTf:
    """Transfer function C (zI - A(p))^{-1} B of the frozen model."""
    return statespace_tf(model.a_at(p), model.b, model.c)


def frozen_frf(model: LpvSurrogateModel, p: float, grid: FrequencyGrid) -> FrfResponse:
    """Frozen transfer function evaluated at e^{i omega_k}.

    Computed by resolvent solves rather than through the polynomial
    coefficients, which lose accuracy near the lightly damped poles.
    """
    vals = statespace_response(model.a_at(p), model.b, model.c, 0.0, grid.z)
    return FrfResponse(vals, grid)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_lpv(model: LpvSurrogateModel, input: TimeRecord,
                 scheduling: TimeRecord) -> TimeRecord:
    """State recursion x_{k+1} = A(p_k) x_k + B u_k, y_k = C x_k from rest.

    Raises ``SimulationDivergedError`` at the first sample of y that is not
    finite; large finite outputs of a locally unstable model are returned.
    """
    if len(input) != len(scheduling):
        raise ValueError("input and scheduling records must have equal length")
    model.check_in_range(scheduling.samples)
    u, p = input.samples, scheduling.samples

    def chunk(lo, hi):
        return (model.a0 + p[lo:hi, None, None] * model.a1,
                np.outer(u[lo:hi], model.b))

    y = np.empty(len(u))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, xs in _kernels.lifted_states(len(u), model.state_dim, chunk):
            y[lo:hi] = xs @ model.c
            bad = _kernels.first_bad_index(y[lo:hi], np.inf)
            if bad >= 0:
                raise SimulationDivergedError("LPV simulation diverged", lo + bad)
    return TimeRecord(y, "y")


def generate_experiment(model: LpvSurrogateModel, controller0: RationalTf,
                        p: float, n_samples: int, noise_std: float, seed: int,
                        d_std: float = 1.0, periodic_period: int | None = None):
    """Closed-loop data experiment at frozen p with white-noise plant-input
    disturbance (std ``d_std``) and measurement noise on y (std ``noise_std``).

    ``periodic_period`` repeats one white-noise period instead, which makes
    leakage-free DFT-bin estimation possible once the transient has decayed.
    Returns records (d, u_G, y) for the maps d -> u_G and d -> y; deterministic
    for a fixed seed.  The loop e = -y, u_G = K0 e + d is LTI, so the records
    are filtered through its stable closed-loop maps: u_G = S (d - K0 n) and
    y = GS (d - K0 n) + n for the measurement noise n.
    """
    model.check_in_range(p)
    plant = frozen_tf(model, p)
    if not internally_stable(plant, controller0):
        raise StabilizationError(
            f"controller0 does not internally stabilize the frozen plant at p={p}")
    rng = np.random.default_rng(seed)
    if periodic_period:
        base = rng.standard_normal(periodic_period)
        reps = -(-n_samples // periodic_period)
        d = d_std * np.tile(base, reps)[:n_samples]
    else:
        d = d_std * rng.standard_normal(n_samples)
    if noise_std:
        noise = noise_std * rng.standard_normal(n_samples)
        excitation = d - controller0.filter(noise)
    else:
        noise = np.zeros(n_samples)
        excitation = d

    maps = closed_loop_maps(plant, controller0)
    with np.errstate(over="ignore", invalid="ignore"):
        u_g = maps["S"].filter(excitation)
        y_meas = maps["GS"].filter(excitation) + noise
    diverged = _kernels.first_bad_index(y_meas, 1e12)
    if diverged >= 0:
        raise SimulationDivergedError("closed-loop experiment diverged", diverged)
    return TimeRecord(d, "d"), TimeRecord(u_g, "u_G"), TimeRecord(y_meas, "y")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trace:
    """Closed-loop simulation record of the Fig.-2-style loop signals."""

    r: np.ndarray
    e: np.ndarray
    u: np.ndarray
    d: np.ndarray
    y: np.ndarray
    p: np.ndarray
    sample_rate: float
    scheduling_range: tuple

    def __post_init__(self):
        arrays = {}
        n = None
        for name in ("r", "e", "u", "d", "y", "p"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError("trace signals must have equal length")
            arrays[name] = arr
        check_range(arrays["p"], self.scheduling_range, "scheduling signal")
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.r.size

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) / self.sample_rate


TRACE_COLUMNS = ("t", "r", "e", "u", "d", "y", "p")


def save_trace(trace: Trace, path) -> None:
    """Write a trace as a CSV table with header t,r,e,u,d,y,p."""
    write_table(path, TRACE_COLUMNS, [((), (trace.t, trace.r, trace.e, trace.u,
                                            trace.d, trace.y, trace.p))])


def load_trace(path, scheduling_range=None) -> Trace:
    t, r, e, u, d, y, p = read_table(path, TRACE_COLUMNS)[1].T
    fs = 1.0 / (t[1] - t[0]) if t.size > 1 else 1.0
    # the hull skips NaN, so that the range check names a NaN row
    rng = scheduling_range or (float(np.fmin.reduce(p)),
                               float(np.fmax.reduce(p)) + 1e-9)
    return Trace(r, e, u, d, y, p, round(fs, 9), rng)
