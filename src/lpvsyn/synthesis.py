"""Quasi-convex controller synthesis over fFRF data.

For fixed gamma the constraint set

    Re{D_p(w, theta)} >= gamma^{-1} |W_c(w) N_p^c(w, theta)| + eps

is second-order-cone representable in the controller parameters theta (both
D_p and the channel numerators are affine in theta).  One ``ConstraintMap``,
built once per problem, holds every disc as a row r = (p, channel, omega).
Feasibility subproblems are linear programs over its tangent half-planes:
starting from an outer relaxation, exact-phase cuts (one per run of
neighbouring violated frequencies) are added until the returned theta
verifies against the true cone constraints or the relaxation certifies
infeasibility.  An outer bisection over gamma yields the performance
level.  A level at which the best verified theta so far already
holds needs no LP and counts as a skipped step; the levels stay those of the
plain bisection, so gamma does not depend on which were skipped.  Given an
``incumbent`` level to beat, the bisection first solves at the incumbent:
if it is infeasible the bisection ends at once at gamma_hi, and if it is
feasible its theta settles every level above the incumbent.

The LPs of one feasibility solve live in one HiGHS model (scipy's own
binding): cuts are added as rows and each cut round hot-starts from the
previous basis.  No solve loads the full fan of base planes: each starts
from a small working set (a few evenly spaced frequencies of every fan
block), inside the bisection plus the planes that were active in the
previous gamma's last optimal LP, rebuilt at the new gamma; any subset of
tangent planes is still an outer relaxation, so the cuts keep every answer
sound, and the full fan is just the working set with ``WORKING_ROWS >=
n_freq``.  Another row set may end on another vertex of a degenerate LP
optimum, so once the bracket closes theta* is taken from one central solve
at gamma*: a fresh working set without carried planes, cut by hot-started
dual simplex until a point verifies, then cut further with each round solved
from scratch by HiGHS's interior-point method without crossover, which stops
near the analytic centre of the optimal face rather than at a vertex.  The
simplex phase is deterministic and starts from the working set alone, so
theta* still depends on gamma* alone, not on the search path
(``theta_source`` "central"); if that solve runs out of cut rounds or finds
no feasible theta, the verified theta of the bisection stands ("warm").
Each LP here, and the multiplier LP of ``analysis``, is the max-margin LP of
``_max_margin_model``, solved through a module-level ``linprog`` that a tracer
wraps by name: ``synthesis.linprog`` here, the same as ``analysis.linprog``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ._extension import load_extension
from .exceptions import (CutRoundsExhaustedError, SolverFailureError,
                         SynthesisInfeasibleError)
from .factorization import CHANNELS, CoprimeFrfPair, assemble_closed_loop
from .frfdata import FrequencyGrid, SchedulingGrid
from .obf import (ObfBasis, SchedulingBasis, eval_basis, eval_basis_at, realize_bank,
                  scheduling_eval)
from .rational import RationalTf, statespace_tf

_hc = load_extension("scipy.optimize._highspy._core")


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Stable shaping weights for the four closed-loop channels."""

    s: RationalTf
    gs: RationalTf
    ks: RationalTf
    t: RationalTf

    def __post_init__(self):
        for name in ("s", "gs", "ks", "t"):
            w = getattr(self, name)
            if not isinstance(w, RationalTf):
                raise ValueError(f"weight W_{name.upper()} must be a RationalTf")
            if not w.is_stable():
                raise ValueError(f"weight W_{name.upper()} must be stable")

    def on_grid(self, grid: FrequencyGrid) -> dict:
        out = {}
        for channel, name in zip(CHANNELS, ("s", "gs", "ks", "t")):
            vals = getattr(self, name).on_grid(grid)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"weight for channel {channel} is not finite on the grid")
            out[channel] = vals
        return out


@dataclass(frozen=True, eq=False)
class ControllerParameters:
    """OBF coefficient tensors defining the controller factors.

    ``wbar[i, l]`` weighs basis function i of the numerator bank against the
    scheduling function l; ``vbar`` likewise for the denominator bank, with
    the normalization vbar[0] = [1, 0, ..., 0] so the denominator feedthrough
    is identically one.
    """

    wbar: np.ndarray
    vbar: np.ndarray
    basis_n: ObfBasis
    basis_d: ObfBasis
    sched: SchedulingBasis

    def __post_init__(self):
        wbar = np.asarray(self.wbar, dtype=float)
        vbar = np.asarray(self.vbar, dtype=float)
        m = self.sched.m
        if wbar.shape != (self.basis_n.size, m):
            raise ValueError(f"wbar must have shape {(self.basis_n.size, m)}")
        if vbar.shape != (self.basis_d.size, m):
            raise ValueError(f"vbar must have shape {(self.basis_d.size, m)}")
        if not (np.all(np.isfinite(wbar)) and np.all(np.isfinite(vbar))):
            raise ValueError("controller parameters must be finite")
        expected = np.zeros(m)
        expected[0] = 1.0
        if not np.array_equal(vbar[0], expected):
            raise ValueError("normalization requires vbar[0] = [1, 0, ..., 0]")
        object.__setattr__(self, "wbar", wbar)
        object.__setattr__(self, "vbar", vbar)
        wbar.flags.writeable = False
        vbar.flags.writeable = False


class ParameterLayout:
    """Flattening of the free controller parameters into one vector.

    Order: all wbar entries (basis-major), then vbar rows 1..n_D; the fixed
    normalization row of vbar is not a decision variable.
    """

    def __init__(self, basis_n: ObfBasis, basis_d: ObfBasis, sched: SchedulingBasis):
        self.basis_n = basis_n
        self.basis_d = basis_d
        self.sched = sched
        self.m = sched.m
        self.n_w = basis_n.size * sched.m
        self.n_v = basis_d.n * sched.m
        self.size = self.n_w + self.n_v

    def pack(self, params: ControllerParameters) -> np.ndarray:
        return np.concatenate([params.wbar.ravel(), params.vbar[1:].ravel()])

    def factor_maps(self, phi_n: np.ndarray, phi_d: np.ndarray, psi: np.ndarray):
        """Controller factors as maps of theta: N_K = nk theta and
        D_K = dk theta + phi_d[0], at the points where the numerator and
        denominator bases take the values ``phi_n`` and ``phi_d`` (basis
        index first) and the scheduling functions the values ``psi``."""
        n_pts = phi_n.shape[1]
        nk = np.zeros((n_pts, self.size), dtype=complex)
        dk = np.zeros((n_pts, self.size), dtype=complex)
        nk[:, :self.n_w] = np.einsum("iw,l->wil", phi_n, psi).reshape(n_pts, -1)
        dk[:, self.n_w:] = np.einsum("iw,l->wil", phi_d[1:], psi).reshape(n_pts, -1)
        return nk, dk

    def unpack(self, theta: np.ndarray) -> ControllerParameters:
        theta = np.asarray(theta, dtype=float)
        wbar = theta[:self.n_w].reshape(self.basis_n.size, self.m)
        vbar = np.zeros((self.basis_d.size, self.m))
        vbar[0, 0] = 1.0
        if self.n_v:
            vbar[1:] = theta[self.n_w:].reshape(self.basis_d.n, self.m)
        return ControllerParameters(wbar, vbar, self.basis_n, self.basis_d, self.sched)


def evaluate_factors(params: ControllerParameters, p: float, grid: FrequencyGrid):
    """Controller factor data (nk, dk) on the grid; linear in the parameters."""
    psi = scheduling_eval(params.sched, p)
    nk = (params.wbar @ psi) @ eval_basis(params.basis_n, grid)
    dk = (params.vbar @ psi) @ eval_basis(params.basis_d, grid)
    return nk, dk


def factor_rationals(params: ControllerParameters, p: float):
    """Frozen (N_K, D_K) as rational transfer functions at operating point p:
    each factor is the bank realization of its basis read out through the
    coefficients ``wbar @ psi`` or ``vbar @ psi`` (phi_0 as feedthrough)."""
    psi = scheduling_eval(params.sched, p)
    return tuple(statespace_tf(bank.a, bank.b, coef[1:], coef[0])
                 for bank, coef in ((realize_bank(params.basis_n), params.wbar @ psi),
                                    (realize_bank(params.basis_d), params.vbar @ psi)))


def frozen_controller_tf(params: ControllerParameters, p: float) -> RationalTf:
    """K(z, p) = N_K / D_K as one rational transfer function."""
    nk, dk = factor_rationals(params, p)
    num = np.convolve(nk.num, dk.den)
    den = np.convolve(nk.den, dk.num)
    return RationalTf(num, den)


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SynthesisOptions:
    eps: float | None = None
    gamma_lo: float = 1e-3
    gamma_hi: float = 1e3
    gamma_rtol: float = 1e-3
    integral_action: bool = False
    theta_bound: float = 1e4
    max_cut_rounds: int = 50


@dataclass(frozen=True, eq=False)
class SynthesisProblem:
    pairs: dict                      # operating point -> CoprimeFrfPair
    weights: WeightSet
    grid: FrequencyGrid
    scheduling_grid: SchedulingGrid
    basis_n: ObfBasis
    basis_d: ObfBasis
    sched_basis: SchedulingBasis
    options: SynthesisOptions = field(default_factory=SynthesisOptions)

    def __post_init__(self):
        if self.basis_d.n < self.basis_n.n:
            raise ValueError("denominator basis order must be >= numerator order")
        if self.options.eps is not None and not self.options.eps > 0:
            raise ValueError("certified output needs a strictness margin eps > 0")
        for p in self.scheduling_grid.points:
            pair = self.pairs.get(float(p))
            if pair is None:
                raise ValueError(f"no coprime data at operating point {p}")
            if not np.array_equal(pair.grid.omegas, self.grid.omegas):
                raise ValueError(f"coprime data at p={p} uses a different grid")
        if self.options.integral_action and self.grid.omegas[0] <= 0.0:
            raise ValueError("integral action requires omega = 0 off the grid")

    @property
    def layout(self) -> ParameterLayout:
        return ParameterLayout(self.basis_n, self.basis_d, self.sched_basis)

    @property
    def eps(self) -> float:
        """Strictness margin: ``options.eps``, by default 1e-6 times the
        median |D_G| over every operating point and frequency."""
        if self.options.eps is not None:
            return self.options.eps
        mags = np.concatenate([np.abs(self.pairs[float(p)].d_g.values)
                               for p in self.scheduling_grid.points])
        return 1e-6 * float(np.median(mags))


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    theta: ControllerParameters
    gamma: float
    margins: dict                    # (p, channel) -> per-frequency margin array
    re_dp_min: float
    telemetry: dict

    def margin_min(self) -> float:
        return min(float(np.min(v)) for v in self.margins.values())


_BASE_ANGLES = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])


@dataclass(frozen=True, eq=False)
class ConstraintMap:
    """Row r = (p, channel, omega) of the synthesis condition reads
    Re{D[r] theta + d0[r]} >= gamma^{-1} |N[r] theta + n0[r]| + eps, with
    D theta + d0 the characteristic data D_p and N theta + n0 the weighted
    numerator W_c N_p^c.  Rows are stacked by operating point, then channel
    (``CHANNELS`` order), then frequency, so each run of ``n_freq`` rows is
    one (p, channel) block; ``p`` and ``channel`` label every row.
    """

    D: np.ndarray
    d0: np.ndarray
    N: np.ndarray
    n0: np.ndarray
    p: np.ndarray
    channel: np.ndarray
    n_freq: int

    def apply(self, coef: np.ndarray, off: np.ndarray, rows, theta: np.ndarray):
        """coef theta + off at the sorted ``rows``, one product per (p, channel)
        block.  BLAS rounds by row count (one row is a dot), and the cut loop
        near gamma* turns last-bit differences into other LP counts, so the
        grouping is fixed to keep gamma and the LP count reproducible."""
        bounds = np.searchsorted(rows, np.arange(self.n_freq, self.d0.size, self.n_freq))
        return np.concatenate([coef[r] @ theta + off[r] for r in np.split(rows, bounds)])

    def evaluate(self, theta: np.ndarray, gamma_inv: float, eps: float):
        """(true margins, Re{D theta + d0}) at every row, from one stacked
        product per matrix whose members are ``apply``'s block products."""
        blocks = (self.d0.size // self.n_freq, self.n_freq, theta.size)
        re_d = ((self.D.reshape(blocks) @ theta).ravel() + self.d0).real
        n_abs = np.abs((self.N.reshape(blocks) @ theta).ravel() + self.n0)
        return re_d - gamma_inv * n_abs - eps, re_d

    def tangent_rows(self, rows, cos, sin, scale: float, eps: float):
        """LP rows a theta <= b of the tangent half-planes
        Re{D theta + d0} - scale (cos Re + sin Im){N theta + n0} >= eps
        at the given rows and phase angles."""
        n, n0, d0 = self.N[rows], self.n0[rows], self.d0[rows]
        a = scale * (cos[:, None] * n.real + sin[:, None] * n.imag) - self.D[rows].real
        b = d0.real - scale * (cos * n0.real + sin * n0.imag) - eps
        return a, b

    def by_block(self, values: np.ndarray) -> dict:
        """Per-row values as {(p, channel): per-frequency array}."""
        starts = range(0, values.size, self.n_freq)
        return {(float(self.p[r]), str(self.channel[r])): values[r:r + self.n_freq]
                for r in starts}


def constraint_map(problem: SynthesisProblem) -> ConstraintMap:
    """Gamma-independent constraint map of every (operating point, channel,
    frequency) row: the closed-loop data of the factor maps (D_p and each
    numerator linear in theta) and of their offset (0, phi_d[0])."""
    layout = problem.layout
    w_grid = problem.weights.on_grid(problem.grid)
    n_freq = len(problem.grid)
    phi_n = eval_basis(problem.basis_n, problem.grid)
    phi_d = eval_basis(problem.basis_d, problem.grid)
    parts = []
    for p in problem.scheduling_grid.points:
        p = float(p)
        pair = problem.pairs[p]
        psi = scheduling_eval(problem.sched_basis, p)
        lin = assemble_closed_loop(pair, *layout.factor_maps(phi_n, phi_d, psi))
        off = assemble_closed_loop(pair, np.zeros(n_freq, dtype=complex), phi_d[0])
        for channel in CHANNELS:
            w = w_grid[channel]
            parts.append((lin.d_p, off.d_p, w[:, None] * lin.numerator(channel),
                          w * off.numerator(channel), p, channel))
    D, d0, N, n0, ps, channels = zip(*parts)
    return ConstraintMap(np.vstack(D), np.concatenate(d0), np.vstack(N),
                         np.concatenate(n0), np.repeat(ps, n_freq),
                         np.repeat(channels, n_freq), n_freq)


def _gamma_inv(gamma: float) -> float:
    return 0.0 if math.isinf(gamma) else 1.0 / gamma


def assemble_constraints(problem: SynthesisProblem, gamma: float) -> tuple:
    """Cone constraints of the synthesis condition at performance level gamma.

    Returns (map, gamma_inv, eps): Re{D_p} >= gamma_inv |W_c N_p^c| + eps at
    every row of the constraint map, affine in theta.  gamma = inf yields
    the stability-only constraints Re{D_p} >= eps.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    return constraint_map(problem), _gamma_inv(gamma), problem.eps


def add_integral_action(problem: SynthesisProblem):
    """Equality constraints D_K(z=1, p_tau) = 0 for every grid operating point.

    The factor map at z = 1 gives D_K(1, p) = dk theta + phi_0(1); with
    n_D = 0 the constraints are unsatisfiable and feasibility reports
    infeasible.
    """
    layout = problem.layout
    one = np.array([1.0 + 0j])
    phi_n = eval_basis_at(problem.basis_n, one)
    phi_d = eval_basis_at(problem.basis_d, one)
    rows = []
    for p in problem.scheduling_grid.points:
        psi = scheduling_eval(problem.sched_basis, float(p))
        _, dk = layout.factor_maps(phi_n, phi_d, psi)
        rows.append(dk[0].real)
    return np.array(rows), np.full(len(rows), -phi_d[0, 0].real)


# ---------------------------------------------------------------------------
# feasibility and bisection
# ---------------------------------------------------------------------------

@dataclass
class FeasibilityOutcome:
    status: str                      # "feasible" | "infeasible"
    theta: np.ndarray | None
    margin: float
    telemetry: dict


# frequency rows taken from each (p, channel, angle) block of the base fan to
# start every solve: both ends and the middle.  Cuts add whatever else the
# solve needs, one per violated run (``_run_minima``), so a small start costs
# a few more rounds of far smaller LPs; any start is still an outer relaxation
WORKING_ROWS = 3
# dual simplex (strategy 1), no logging, and no presolve: on these small dense
# LPs presolve costs more per run than it removes
_HIGHS_OPTIONS = (("output_flag", False), ("simplex_strategy", 1), ("presolve", "off"))
# the central solve, once a simplex point verifies: interior point without
# crossover, so theta ends near the analytic centre of the optimal face, not
# at a vertex
_CENTRAL_OPTIONS = (("solver", "ipm"), ("run_crossover", "off"))
_SCIPY_STATUS = {_hc.HighsModelStatus.kOptimal: 0, _hc.HighsModelStatus.kInfeasible: 2}


def linprog(model, *, A_ub: np.ndarray) -> SimpleNamespace:
    """Solve the live HiGHS model, from its current basis if it has one.

    ``A_ub`` holds the model's inequality rows, which are its last rows.
    The result has the fields of scipy's ``linprog`` result that are read:
    ``status`` (0 optimal, 2 infeasible, 4 every other HiGHS outcome),
    ``message``, ``x``, ``fun`` and ``ineqlin.marginals``.  The name and the
    ``A_ub`` keyword are kept so that ``perfbench/tracer.py`` can wrap each
    LP and count its rows.
    """
    run_ok = model.run() != _hc.HighsStatus.kError
    model_status = model.getModelStatus()
    status = _SCIPY_STATUS.get(model_status, 4) if run_ok else 4
    res = SimpleNamespace(status=status, message=model.modelStatusToString(model_status),
                          x=None, fun=None, ineqlin=SimpleNamespace(marginals=None))
    if status == 0:
        solution = model.getSolution()
        res.x = np.array(solution.col_value)
        res.fun = model.getInfo().objective_function_value
        res.ineqlin.marginals = np.array(solution.row_dual)[-A_ub.shape[0]:]
    return res


def _add_rows(model, a: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    """Add the dense rows ``a`` to the model in compressed row form, exact
    zeros left out, nonzeros row by row in column order."""
    rows, cols = np.nonzero(a)
    starts = np.searchsorted(rows, np.arange(a.shape[0]))
    if model.addRows(a.shape[0], lower, upper, rows.size, starts, cols,
                     a[rows, cols]) == _hc.HighsStatus.kError:
        raise SolverFailureError("HiGHS rejected the LP rows")


def _max_margin_model(n_x: int, bound: float):
    """HiGHS model of max t over columns (x, t), |x| <= bound and t free,
    under ``_HIGHS_OPTIONS``."""
    model = _hc._Highs()
    for key, value in _HIGHS_OPTIONS:
        model.setOptionValue(key, value)
    bounds = np.full(n_x + 1, bound)
    bounds[-1] = _hc.kHighsInf
    model.addVars(n_x + 1, -bounds, bounds)
    model.changeColCost(n_x, -1.0)
    return model


def _add_margin_rows(model, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Append the rows [a, 1] (x, t) <= b; returns [a, 1]."""
    a_ub = np.hstack([a, np.ones((b.size, 1))])
    _add_rows(model, a_ub, np.full(b.size, -_hc.kHighsInf), b)
    return a_ub


def _working_set(cmap: ConstraintMap, carried) -> tuple:
    """(rows, cos, sin) labels that start a solve: the planes at every angle
    of ``_BASE_ANGLES`` on ``WORKING_ROWS`` evenly spaced frequency rows of
    each (p, channel) block, ordered by block, angle, then frequency, then the
    ``carried`` labels not already among them.  Every plane bounds its disc
    from outside; with ``WORKING_ROWS >= n_freq`` this is the full base fan."""
    pick = np.unique(np.linspace(0, cmap.n_freq - 1, WORKING_ROWS).round().astype(int))
    starts = np.arange(0, cmap.d0.size, cmap.n_freq)[:, None, None]
    base = np.broadcast_arrays(starts + pick, np.cos(_BASE_ANGLES)[:, None],
                               np.sin(_BASE_ANGLES)[:, None])
    labels = np.column_stack([a.ravel() for a in base])
    if carried is not None:
        labels = np.vstack([labels, np.column_stack(carried)])
        _, first = np.unique(labels, axis=0, return_index=True)
        labels = labels[np.sort(first)]
    return labels[:, 0].astype(int), labels[:, 1], labels[:, 2]


def _violated(cmap: ConstraintMap, theta: np.ndarray, gamma_inv: float, eps: float):
    """(true margins, violated rows) of theta: a row is violated when its
    margin is below -1e-12, and theta is accepted as feasible when none is."""
    margins, _ = cmap.evaluate(theta, gamma_inv, eps)
    return margins, np.flatnonzero(margins < -1e-12)


def _run_minima(bad: np.ndarray, margins: np.ndarray, n_freq: int) -> np.ndarray:
    """The most violated row of each run of the sorted violated rows ``bad``:
    a run is consecutive rows of one (p, channel) block, so it breaks at a
    gap or where a block of ``n_freq`` rows ends.  Ties go to the lowest row."""
    breaks = np.flatnonzero((np.diff(bad) != 1) | (np.diff(bad // n_freq) != 0)) + 1
    return np.array([run[np.argmin(margins[run])] for run in np.split(bad, breaks)],
                    dtype=bad.dtype)


def feasibility_solve(constraints: tuple, equalities=None,
                      options: SynthesisOptions | None = None,
                      warm: dict | None = None, *,
                      _central: bool = False) -> FeasibilityOutcome:
    """Find theta satisfying every cone constraint strictly, or certify
    infeasibility.

    ``constraints`` is (map, gamma_inv, eps) from ``assemble_constraints``.
    Solves max-margin linear programs over tangent half-planes in one live
    HiGHS model.  The LP is an outer relaxation refined with exact-phase
    cuts: each round splits the violated rows into runs of consecutive
    frequencies inside one (p, channel) block and cuts once per run, at its
    most violated row (``_run_minima``).  Any subset of tangent planes is
    still an outer relaxation, so "infeasible" is a certificate; a returned
    theta is verified against every row of the true cone constraints.
    Numerical solver failures raise, distinct from infeasibility; a cut loop
    that runs out of rounds raises ``CutRoundsExhaustedError``.

    Every solve starts from the planes of ``_working_set``.  Without
    ``warm`` that is the working set alone, and nothing is stored.  With it
    (a dict that ``bisect_gamma`` keeps across gamma steps) the labels in
    ``warm["labels"]`` are added, and the (row, cos, sin) labels of the
    planes with a nonzero dual in each optimal LP are stored back there.
    Cut rounds hot-start from the previous basis by dual simplex.  Under
    ``_central``, the central solve of ``bisect_gamma`` (without ``warm``),
    the first simplex point that verifies is not returned: the model
    switches to the interior-point method without crossover and keeps
    cutting, each LP solved from scratch, until an interior point verifies.
    Both phases share ``max_cut_rounds``; telemetry ``ipm_lps`` counts the
    interior-point LPs.
    """
    options = options or SynthesisOptions()
    cmap, gamma_inv, eps = constraints
    labels = _working_set(cmap, warm.get("labels") if warm else None)
    a_base, b_base = cmap.tangent_rows(*labels, gamma_inv, eps)

    # columns theta, then the margin t; maximize t.  Rows: equalities, the
    # base planes a theta + t <= b, then the cuts of each round.
    model = _max_margin_model(cmap.D.shape[1], options.theta_bound)
    if equalities is not None:
        a_eq, b_eq = equalities
        _add_rows(model, np.hstack([a_eq, np.zeros((b_eq.size, 1))]), b_eq, b_eq)
    a_ub = _add_margin_rows(model, a_base, b_base)

    lp_solves = 0
    ipm_lps = 0
    cuts_added = 0
    ipm = False
    for _ in range(options.max_cut_rounds):
        if ipm:
            model.clearSolver()
        res = linprog(model, A_ub=a_ub)
        lp_solves += 1
        ipm_lps += ipm
        tel = {"lp_solves": lp_solves, "ipm_lps": ipm_lps, "cuts": cuts_added,
               "rows": a_ub.shape[0]}
        if res.status == 2:
            return FeasibilityOutcome("infeasible", None, -math.inf, tel)
        if res.status != 0:
            raise SolverFailureError(f"LP solver failure: {res.message}")
        if warm is not None:
            active = res.ineqlin.marginals != 0.0
            warm["labels"] = tuple(label[active] for label in labels)
        t_star = -res.fun
        theta = res.x[:-1]
        tel["lp_margin"] = t_star
        if t_star < 0.0:
            return FeasibilityOutcome("infeasible", None, t_star, tel)
        margins, bad = _violated(cmap, theta, gamma_inv, eps)
        tel["margin"] = true_min = float(margins.min())
        if not bad.size:
            if ipm or not _central:
                return FeasibilityOutcome("feasible", theta, true_min, tel)
            # the central solve hands the same rows over to the interior-point
            # method; from here every LP is solved from scratch
            ipm = True
            for key, value in _CENTRAL_OPTIONS:
                model.setOptionValue(key, value)
            continue
        # exact-phase cuts: one plane per violated run, touching the disc of
        # its most violated row at that row's phase
        rows = _run_minima(bad, margins, cmap.n_freq)
        phases = np.angle(cmap.apply(cmap.N, cmap.n0, rows, theta))
        cut = (rows, np.cos(phases), np.sin(phases))
        a_ub = np.vstack([a_ub, _add_margin_rows(
            model, *cmap.tangent_rows(*cut, gamma_inv, eps))])
        labels = tuple(np.concatenate(pair) for pair in zip(labels, cut))
        cuts_added += rows.size
    raise CutRoundsExhaustedError("cutting-plane refinement did not converge", lp_solves)


def bisect_gamma(problem: SynthesisProblem, *,
                 incumbent: float | None = None) -> SynthesisResult:
    """Minimize gamma by bisection over cone-feasibility subproblems.

    A level at which the best verified theta so far already holds is feasible
    without an LP; telemetry ``skipped_steps`` counts those halvings among
    ``bisect_steps``.  The levels stay on the dyadic lattice of
    [gamma_lo, gamma_hi], so gamma and ``gamma_bracket`` do not depend on
    which levels were skipped.  A feasible gamma_lo closes the bracket at
    once: gamma = gamma_lo, ``gamma_bracket`` (gamma_lo, gamma_lo).

    ``incumbent``, a level to beat (the best gamma of another problem), adds
    one solve at that level right after the one at gamma_hi, when it lies
    below gamma_hi.  If the incumbent is infeasible, gamma* cannot be below
    it and the result returns at once: gamma = gamma_hi with the theta of
    that solve ("warm"), ``gamma_bracket`` (incumbent, gamma_hi).  If it is
    feasible, its theta holds at every lattice level above the incumbent,
    and the bisection skips them.
    """
    options = problem.options
    eps = problem.eps
    cmap = constraint_map(problem)
    equalities = add_integral_action(problem) if options.integral_action else None
    layout = problem.layout

    t_start = time.perf_counter()
    lp_solves = 0

    def solve_at(gamma: float, **kwargs) -> FeasibilityOutcome:
        nonlocal lp_solves
        out = feasibility_solve((cmap, _gamma_inv(gamma), eps), equalities, options,
                                **kwargs)
        lp_solves += out.telemetry["lp_solves"]
        return out

    def finish(gamma, theta, theta_source, bracket, bisect_steps, skipped_steps):
        all_margins, re_dp = cmap.evaluate(theta, 1.0 / gamma, eps)
        re_dp_min = float(re_dp.min())
        worst = float(all_margins.min())
        if worst < -1e-9 or re_dp_min < eps - 1e-9:
            raise SolverFailureError(
                f"recomputed margins are negative (min {worst:.3e}); "
                "solver responses were not monotone")
        telemetry = {
            "bisect_steps": bisect_steps,
            "lp_solves": lp_solves,
            "eps": eps,
            "wall_time_s": time.perf_counter() - t_start,
            "gamma_bracket": bracket,
            "theta_source": theta_source,
            "skipped_steps": skipped_steps,
        }
        return SynthesisResult(theta=layout.unpack(theta), gamma=gamma,
                               margins=cmap.by_block(all_margins),
                               re_dp_min=re_dp_min, telemetry=telemetry)

    warm = {}
    hi = options.gamma_hi
    lo = options.gamma_lo
    out_hi = solve_at(hi, warm=warm)
    if out_hi.status != "feasible":
        raise SynthesisInfeasibleError(
            f"infeasible at the gamma upper bound {hi}",
            diagnostics={"gamma": hi, "lp_margin": out_hi.margin,
                         **out_hi.telemetry})
    theta_best = out_hi.theta

    if incumbent is not None and incumbent < hi:
        try:
            out_inc = solve_at(incumbent, warm=warm)
        except CutRoundsExhaustedError as exc:
            # undecided: bisect as without an incumbent
            lp_solves += exc.lp_solves
        else:
            if out_inc.status != "feasible":
                return finish(hi, theta_best, "warm", (incumbent, hi), 0, 0)
            theta_best = out_inc.theta

    out_lo = solve_at(lo, warm=warm)
    bisect_steps = skipped_steps = 0
    if out_lo.status == "feasible":
        # the bracket closes at lo and the loop below runs no step
        hi, theta_best = lo, out_lo.theta
    while hi - lo > options.gamma_rtol * hi:
        mid = 0.5 * (lo + hi)
        bisect_steps += 1
        # the held theta settles this level: feasible without an LP
        if not _violated(cmap, theta_best, 1.0 / mid, eps)[1].size:
            hi = mid
            skipped_steps += 1
            continue
        out_mid = solve_at(mid, warm=warm)
        if out_mid.status == "feasible":
            hi, theta_best = mid, out_mid.theta
        else:
            lo = mid

    # Working sets land on other points of a degenerate LP optimum, so theta*
    # comes from one central solve at gamma*: no carried planes, simplex cut
    # rounds until a point verifies, then interior-point rounds, which end
    # near the analytic centre of the optimal face.  theta* then depends on
    # gamma* alone.  If that solve runs out of cut rounds or does not find theta
    # feasible, the verified theta of the bisection stands.
    theta_source = "warm"
    try:
        final = solve_at(hi, _central=True)
    except CutRoundsExhaustedError as exc:
        lp_solves += exc.lp_solves
    else:
        if final.status == "feasible":
            theta_best, theta_source = final.theta, "central"
    return finish(hi, theta_best, theta_source, (lo, hi), bisect_steps, skipped_steps)


def closed_loop_data(pairs: dict, params: ControllerParameters) -> dict:
    """Per operating point closed-loop factor data of the given controller
    with the plant factor data ``pairs`` (operating point -> CoprimeFrfPair),
    on each pair's grid and in the order of ``pairs``."""
    out = {}
    for p, pair in pairs.items():
        nk, dk = evaluate_factors(params, p, pair.grid)
        out[p] = assemble_closed_loop(pair, nk, dk)
    return out
