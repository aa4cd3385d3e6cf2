"""Executable LFR controller, closed-loop LPV simulation and step metrics.

The controller factors are OBF banks weighted by scheduling-dependent gains.
D_K^{-1} is realized by algebraic feedback of the D bank output around its
unity feedthrough (valid because the normalization pins v_0(p) = 1), and the
controller is the series connection D_K^{-1} followed by N_K: both banks are
driven by the same inner signal, so the scheduling enters only through the
output weights.  ``frozen_lfr_matrices`` is the one statement of that
realization: its (A_K, B_K, C_K, D_K)(p) give the frozen frequency response
and, one sample at a time, the scheduled closed-loop simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .exceptions import SimulationDivergedError
from .frfdata import FrequencyGrid, FrfResponse, TimeRecord
from .obf import realize_bank, scheduling_eval
from .plant import LpvSurrogateModel, Trace
from .rational import RationalTf, statespace_response
from .synthesis import ControllerParameters

OVERFLOW_LIMIT = 1e12
REFERENCE_FILTER_ORDER = 3   # Butterworth low-pass of the tracking reference
SCHEDULING_SMOOTH_HZ = 2.0   # first-order smoothing of the square scheduling


@dataclass(frozen=True, eq=False)
class LfrController:
    """LTI bank pair plus scheduling-dependent output weights."""

    a_n: np.ndarray
    b_n: np.ndarray
    a_d: np.ndarray
    b_d: np.ndarray
    params: ControllerParameters

    @property
    def state_dim(self) -> int:
        return self.a_n.shape[0] + self.a_d.shape[0]


def build_lfr(params: ControllerParameters) -> LfrController:
    """Realize the controller parameter tensor as an executable LFR."""
    bank_n = realize_bank(params.basis_n)
    bank_d = realize_bank(params.basis_d)
    return LfrController(bank_n.a, bank_n.b, bank_d.a, bank_d.b, params)


def frozen_lfr_matrices(ctrl: LfrController, p):
    """Frozen controller state-space (A, B, C, D) at operating point p.

    For an array of k operating points A is (k, n, n), C is (k, n) and D is
    (k,); B does not depend on p.
    """
    params = ctrl.params
    psi = scheduling_eval(params.sched, p)[..., None]
    w = (params.wbar @ psi)[..., 0]
    vt = (params.vbar @ psi)[..., 1:, 0]
    n_n = ctrl.a_n.shape[0]
    n = n_n + ctrl.a_d.shape[0]
    a = np.zeros(vt.shape[:-1] + (n, n))
    a[..., :n_n, :n_n] = ctrl.a_n
    a[..., :n_n, n_n:] = -(ctrl.b_n[:, None] * vt[..., None, :])
    a[..., n_n:, n_n:] = ctrl.a_d - ctrl.b_d[:, None] * vt[..., None, :]
    b = np.concatenate([ctrl.b_n, ctrl.b_d])
    c = np.concatenate([w[..., 1:], -w[..., :1] * vt], axis=-1)
    d = w[..., 0]
    return a, b, c, (float(d) if d.ndim == 0 else d)


def frozen_controller_frf(ctrl: LfrController, p: float,
                          grid: FrequencyGrid) -> FrfResponse:
    """Resolvent evaluation of the frozen LFR on the grid."""
    return FrfResponse(statespace_response(*frozen_lfr_matrices(ctrl, p), grid.z),
                       grid)


def simulate_closed_loop(model: LpvSurrogateModel, ctrl: LfrController,
                         reference: TimeRecord, scheduling: TimeRecord,
                         disturbance: TimeRecord) -> Trace:
    """Per-sample loop: e = r - y, u = K_p e, plant driven by u + d.

    The controller state and output use the current scheduling sample; the
    plant output is strictly causal in u, so there is no algebraic loop.
    The loop is the feedback interconnection of the plant (A(p), b, c) and
    the frozen LFR (A_K, B_K, C_K, D_K)(p_k) of ``frozen_lfr_matrices``, run
    as one lifted recursion over z = [x; x_K]:

        z_{k+1} = [[A(p) - b D_K c, b C_K], [-B_K c, A_K]] z_k
                  + [b (D_K r_k + d_k); B_K r_k],
        u_k = C_K x_K,k + D_K e_k.

    Raises SimulationDivergedError with the index of the first sample whose
    output is not finite or exceeds OVERFLOW_LIMIT in magnitude.
    """
    n = len(reference)
    if len(scheduling) != n or len(disturbance) != n:
        raise ValueError("reference, scheduling and disturbance lengths differ")
    model.check_in_range(scheduling.samples)
    r, p, d = reference.samples, scheduling.samples, disturbance.samples
    nx = model.state_dim
    nz = nx + ctrl.state_dim
    gains = {}  # lo -> (C_K, D_K) of the block, read back with its states

    def chunk(lo, hi):
        a_k, b_k, c_k, d_k = frozen_lfr_matrices(ctrl, p[lo:hi])
        gains[lo] = c_k, d_k
        a_cl = np.empty((hi - lo, nz, nz))
        a_cl[:, :nx, :nx] = (model.a0 + p[lo:hi, None, None] * model.a1
                             - d_k[:, None, None] * np.outer(model.b, model.c))
        a_cl[:, :nx, nx:] = model.b[:, None] * c_k[:, None, :]
        a_cl[:, nx:, :nx] = -np.outer(b_k, model.c)
        a_cl[:, nx:, nx:] = a_k
        f = np.empty((hi - lo, nz))
        f[:, :nx] = np.outer(d_k * r[lo:hi] + d[lo:hi], model.b)
        f[:, nx:] = np.outer(r[lo:hi], b_k)
        return a_cl, f

    e, u, y = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, zs in _kernels.lifted_states(n, nz, chunk):
            c_k, d_k = gains.pop(lo)
            y[lo:hi] = np.einsum("ki,i->k", zs[:, :nx], model.c)
            bad = _kernels.first_bad_index(y[lo:hi], OVERFLOW_LIMIT)
            if bad >= 0:
                raise SimulationDivergedError("closed loop diverged", lo + bad)
            e[lo:hi] = r[lo:hi] - y[lo:hi]
            u[lo:hi] = np.einsum("ki,ki->k", c_k, zs[:, nx:]) + d_k * e[lo:hi]
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

def square_wave(n: int, period_samples: int, low: float, high: float) -> np.ndarray:
    k = np.arange(n) % period_samples
    return np.where(k < period_samples // 2, high, low)


def filtered_square_reference(n: int, sample_rate: float, amplitude: float,
                              period_s: float, cutoff_hz: float = 0.7) -> TimeRecord:
    """Square wave through a Butterworth low-pass filter, the tracking scenario
    shape.

    The filter is the analog Butterworth low-pass of order
    ``REFERENCE_FILTER_ORDER`` at the prewarped cutoff
    wc = 2 fs tan(pi fc / fs), taken to discrete time by the bilinear
    transform, so its -3 dB point lands on ``cutoff_hz`` exactly.
    """
    raw = square_wave(n, max(2, int(round(period_s * sample_rate))),
                      -amplitude, amplitude)
    order = REFERENCE_FILTER_ORDER
    wc = 2.0 * sample_rate * math.tan(math.pi * cutoff_hz / sample_rate)
    poles = wc * np.exp(1j * math.pi * (2 * np.arange(order) + order + 1) / (2 * order))
    lowpass = RationalTf.from_continuous([wc ** order], np.poly(poles).real, sample_rate)
    return TimeRecord(lowpass.filter(raw), "r")


def square_scheduling(n: int, sample_rate: float, p_range,
                      period_s: float) -> TimeRecord:
    """Square scheduling trajectory between the range endpoints, first-order
    smoothed and clipped so it never leaves the range."""
    lo, hi = p_range
    raw = square_wave(n, max(2, int(round(period_s * sample_rate))), lo, hi)
    zd = math.exp(-2.0 * math.pi * SCHEDULING_SMOOTH_HZ / sample_rate)
    smoothed = RationalTf([1.0 - zd, 0.0], [1.0, -zd]).filter(raw - lo) + lo
    return TimeRecord(np.clip(smoothed, lo, hi), "p")


def constant_scheduling(n: int, p: float) -> TimeRecord:
    """The scheduling held at p for n samples."""
    return TimeRecord(np.full(n, float(p)), "p")
