"""Executable LFR controller, closed-loop LPV simulation and step metrics.

The controller factors are OBF banks weighted by scheduling-dependent gains.
D_K^{-1} is realized by algebraic feedback of the D bank output around its
unity feedthrough (valid because the normalization pins v_0(p) = 1), and the
controller is the series connection D_K^{-1} followed by N_K: both banks are
driven by the same inner signal, so the scheduling enters only through the
output weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.signal

from . import _kernels
from .exceptions import SimulationDivergedError
from .frfdata import FrequencyGrid, FrfResponse, TimeRecord
from .obf import realize_bank, scheduling_eval
from .plant import LpvSurrogateModel, Trace
from .rational import statespace_response
from .synthesis import ControllerParameters

OVERFLOW_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class LfrController:
    """LTI bank pair plus scheduling-dependent output weights."""

    a_n: np.ndarray
    b_n: np.ndarray
    a_d: np.ndarray
    b_d: np.ndarray
    params: ControllerParameters
    sample_rate: float

    @property
    def state_dim(self) -> int:
        return self.a_n.shape[0] + self.a_d.shape[0]


def build_lfr(params: ControllerParameters, sample_rate: float = 1.0) -> LfrController:
    """Realize the controller parameter tensor as an executable LFR."""
    bank_n = realize_bank(params.basis_n)
    bank_d = realize_bank(params.basis_d)
    return LfrController(bank_n.a, bank_n.b, bank_d.a, bank_d.b, params, sample_rate)


def frozen_lfr_matrices(ctrl: LfrController, p: float):
    """Frozen controller state-space (A, B, C, D) at operating point p."""
    params = ctrl.params
    psi = scheduling_eval(params.sched, p)
    w = params.wbar @ psi
    v = params.vbar @ psi
    n_n = ctrl.a_n.shape[0]
    n_d = ctrl.a_d.shape[0]
    vt = v[1:]
    a = np.zeros((n_n + n_d, n_n + n_d))
    a[:n_n, :n_n] = ctrl.a_n
    a[:n_n, n_n:] = -np.outer(ctrl.b_n, vt)
    a[n_n:, n_n:] = ctrl.a_d - np.outer(ctrl.b_d, vt)
    b = np.concatenate([ctrl.b_n, ctrl.b_d])
    c = np.concatenate([w[1:], -w[0] * vt])
    return a, b, c, float(w[0])


def frozen_controller_frf(ctrl: LfrController, p: float,
                          grid: FrequencyGrid) -> FrfResponse:
    """Resolvent evaluation of the frozen LFR on the grid."""
    a, b, c, d = frozen_lfr_matrices(ctrl, p)
    if a.size == 0:
        return FrfResponse(np.full(len(grid), d, dtype=complex), grid)
    return FrfResponse(statespace_response(a, b, c, d, grid.z), grid)


def simulate_closed_loop(model: LpvSurrogateModel, ctrl: LfrController,
                         reference: TimeRecord, scheduling: TimeRecord,
                         disturbance: TimeRecord) -> Trace:
    """Per-sample loop: e = r - y, u = K_p e, plant driven by u + d.

    The controller state and output use the current scheduling sample; the
    plant output is strictly causal in u, so there is no algebraic loop.
    The loop runs as one lifted recursion over z = [x; x_N; x_D] (plant, N
    bank, D bank).  With the inner signal v = e - v~(p) x_D = r - L z, where
    L = [c, 0, v~(p)], and B_v = [b w_0(p); b_N; b_D]:

        z_{k+1} = (blkdiag(A(p), A_N, A_D) - B_v L + b [0, w~(p), 0]) z_k
                  + B_v r_k + [b d_k; 0; 0],
        u_k = w_0(p) (r_k - L z_k) + w~(p) x_N,k.

    Raises SimulationDivergedError with the index of the first sample whose
    output is not finite or exceeds OVERFLOW_LIMIT in magnitude.
    """
    n = len(reference)
    if len(scheduling) != n or len(disturbance) != n:
        raise ValueError("reference, scheduling and disturbance lengths differ")
    model.check_in_range(scheduling.samples)
    r, p, d = reference.samples, scheduling.samples, disturbance.samples
    params = ctrl.params
    lo_p, hi_p = params.sched.p_range
    nx, n_n = model.state_dim, ctrl.a_n.shape[0]
    xn = slice(nx, nx + n_n)
    xd = slice(nx + n_n, nx + n_n + ctrl.a_d.shape[0])
    nz = xd.stop
    base = np.zeros((nz, nz))
    base[xn, xn] = ctrl.a_n
    base[xd, xd] = ctrl.a_d

    def weights(lo, hi):
        """w_0, [0, w~, 0] and L at samples lo..hi-1."""
        pt = (p[lo:hi] - 0.5 * (hi_p + lo_p)) / (0.5 * (hi_p - lo_p))
        psi = np.vander(pt, params.sched.m, increasing=True)
        w = psi @ params.wbar.T
        lift_w = np.zeros((hi - lo, nz))
        lift_w[:, xn] = w[:, 1:]
        lift_l = np.zeros((hi - lo, nz))
        lift_l[:, :nx] = model.c
        lift_l[:, xd] = psi @ params.vbar[1:].T
        return w[:, 0], lift_w, lift_l

    def chunk(lo, hi):
        w0, lift_w, lift_l = weights(lo, hi)
        b_v = np.empty((hi - lo, nz))
        b_v[:, :nx] = np.outer(w0, model.b)
        b_v[:, xn] = ctrl.b_n
        b_v[:, xd] = ctrl.b_d
        a_cl = np.tile(base, (hi - lo, 1, 1))
        a_cl[:, :nx, :nx] = model.a0 + p[lo:hi, None, None] * model.a1
        a_cl -= b_v[:, :, None] * lift_l[:, None, :]
        a_cl[:, :nx] += model.b[None, :, None] * lift_w[:, None, :]
        f = b_v * r[lo:hi, None]
        f[:, :nx] += np.outer(d[lo:hi], model.b)
        return a_cl, f

    e, u, y = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, zs in _kernels.lifted_states(n, nz, chunk):
            y[lo:hi] = np.einsum("ki,i->k", zs[:, :nx], model.c)
            bad = _kernels.first_bad_index(y[lo:hi], OVERFLOW_LIMIT)
            if bad >= 0:
                raise SimulationDivergedError("closed loop diverged", lo + bad)
            e[lo:hi] = r[lo:hi] - y[lo:hi]
            w0, lift_w, lift_l = weights(lo, hi)
            u[lo:hi] = w0 * r[lo:hi] + np.einsum(
                "ki,ki->k", lift_w - w0[:, None] * lift_l, zs)
    return Trace(r, e, u, d, y, p, model.sample_rate, model.scheduling_range)


# ---------------------------------------------------------------------------
# step metrics
# ---------------------------------------------------------------------------

def find_step_edges(r: np.ndarray) -> list:
    """Indices where the reference crosses the midline between its extremes."""
    lo, hi = float(np.min(r)), float(np.max(r))
    if hi - lo < 1e-12:
        return []
    mid = 0.5 * (lo + hi)
    above = r > mid
    return [int(k) for k in np.flatnonzero(above[1:] != above[:-1]) + 1]


def _interval_levels(r: np.ndarray, edges: list) -> list:
    """Reference plateau level for each inter-edge interval (central half)."""
    bounds = [0] + edges + [r.size]
    levels = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        span = b - a
        lo = a + span // 4
        hi = b - span // 4
        levels.append(float(np.median(r[lo:max(hi, lo + 1)])))
    return levels


def step_metrics(trace: Trace) -> dict:
    """l2/linf error norms plus per-edge overshoot and 2% settling time.

    Each edge is measured from the crossing until the reference departs from
    its new plateau again (so smooth, filtered references do not contaminate
    the tail).  Raises ValueError when the reference contains no step edges.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    edges = find_step_edges(trace.r)
    if not edges:
        raise ValueError("no step edges found in the reference")
    l2 = float(np.sqrt(np.sum(trace.e ** 2)))
    linf = float(np.max(np.abs(trace.e)))
    levels = _interval_levels(trace.r, edges)
    overshoots = []
    settlings = []
    bounds = edges + [len(trace)]
    for k, start in enumerate(edges):
        end = bounds[k + 1]
        prev, target = levels[k], levels[k + 1]
        amp = abs(target - prev)
        if amp < 1e-12:
            continue
        tol = 0.02 * amp
        r_seg = trace.r[start:end]
        mid = (end - start) // 2
        departing = np.flatnonzero(np.abs(r_seg[mid:] - target) > tol)
        stop = end if departing.size == 0 else start + mid + int(departing[0])
        sign = 1.0 if target > prev else -1.0
        seg_y = trace.y[start:stop]
        overshoots.append(max(0.0, float(np.max(sign * (seg_y - target))) / amp * 100.0))
        settled = np.abs(seg_y - target) <= tol
        if settled[-1]:
            last_bad = np.flatnonzero(~settled)
            s = 0 if last_bad.size == 0 else int(last_bad[-1]) + 1
            settlings.append(s / trace.sample_rate)
        else:
            settlings.append(math.inf)
    return {
        "l2_error": l2,
        "linf_error": linf,
        "overshoot_pct": max(overshoots) if overshoots else 0.0,
        "settling_s": max(settlings) if settlings else math.inf,
        "n_edges": len(edges),
    }


# ---------------------------------------------------------------------------
# scenario generators
# ---------------------------------------------------------------------------

def square_wave(n: int, period_samples: int, low: float, high: float,
                phase: int = 0) -> np.ndarray:
    k = (np.arange(n) + phase) % period_samples
    return np.where(k < period_samples // 2, high, low)


def filtered_square_reference(n: int, sample_rate: float, amplitude: float,
                              period_s: float, cutoff_hz: float = 0.7,
                              order: int = 3) -> TimeRecord:
    """Square wave through a low-pass filter, the tracking scenario shape."""
    raw = square_wave(n, max(2, int(round(period_s * sample_rate))),
                      -amplitude, amplitude)
    b, a = scipy.signal.butter(order, cutoff_hz / (0.5 * sample_rate))
    return TimeRecord(scipy.signal.lfilter(b, a, raw), sample_rate, "r")


def square_scheduling(n: int, sample_rate: float, p_range, period_s: float,
                      smooth_hz: float = 2.0) -> TimeRecord:
    """Square scheduling trajectory between the range endpoints, first-order
    smoothed and clipped so it never leaves the range."""
    lo, hi = p_range
    raw = square_wave(n, max(2, int(round(period_s * sample_rate))), lo, hi)
    zd = math.exp(-2.0 * math.pi * smooth_hz / sample_rate)
    smoothed = scipy.signal.lfilter([1.0 - zd], [1.0, -zd], raw - lo) + lo
    return TimeRecord(np.clip(smoothed, lo, hi), sample_rate, "p")


def constant_scheduling(n: int, sample_rate: float, p: float) -> TimeRecord:
    return TimeRecord(np.full(n, float(p)), sample_rate, "p")
