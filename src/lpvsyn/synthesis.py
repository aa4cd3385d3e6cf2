"""Quasi-convex controller synthesis over fFRF data.

For fixed gamma the constraint set

    Re{D_p(w, theta)} >= gamma^{-1} |W_c(w) N_p^c(w, theta)| + eps

is second-order-cone representable in the controller parameters theta (both
D_p and the channel numerators are affine in theta).  One ``ConstraintMap``,
built once per problem, holds every disc as a row r = (p, channel, omega).
Feasibility subproblems are linear programs over its tangent half-planes:
starting from an outer relaxation, exact-phase cuts are added until the
returned theta verifies against the true cone constraints or the relaxation
certifies infeasibility.  An outer bisection over gamma yields the
performance level.

The LPs of one feasibility solve live in one HiGHS model (scipy's own
binding): cuts are added as rows and each cut round hot-starts from the
previous basis.  Inside the bisection a solve does not load the full fan
of base planes: it starts from a small working set (a few evenly spaced
frequencies of every fan block) plus the planes that were active in the
previous gamma's last optimal LP, rebuilt at the new gamma; any subset of
tangent planes is still an outer relaxation, so the cuts keep every answer
sound.  Another row set may end on another vertex of a degenerate LP
optimum, so once the bracket closes theta* is taken from one central solve
at gamma*: a fresh working set without carried planes, each cut round solved
from scratch by HiGHS's interior-point method without crossover, which stops
near the analytic centre of the optimal face rather than at a vertex.
theta* then depends on gamma* alone, not on the search path
(``theta_source`` "central"); if that solve runs out of cut rounds or finds
no feasible theta, the verified theta of the bisection stands ("warm").
Each LP goes through the module-level ``linprog`` so that a tracer can wrap
it by name.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as _hc
from scipy.sparse import csr_array

from .exceptions import (CutRoundsExhaustedError, SolverFailureError,
                         SynthesisInfeasibleError)
from .factorization import CHANNELS, CoprimeFrfPair, assemble_closed_loop
from .frfdata import FrequencyGrid, FrfResponse, SchedulingGrid
from .obf import (ObfBasis, SchedulingBasis, eval_basis, eval_basis_at, realize_bank,
                  scheduling_eval)
from .rational import RationalTf, statespace_tf


@dataclass(frozen=True, eq=False)
class WeightSet:
    """Stable shaping weights for the four closed-loop channels."""

    s: object
    gs: object
    ks: object
    t: object

    def __post_init__(self):
        for name in ("s", "gs", "ks", "t"):
            w = getattr(self, name)
            if isinstance(w, RationalTf):
                if not w.is_stable():
                    raise ValueError(f"weight W_{name.upper()} must be stable")
            elif not isinstance(w, FrfResponse):
                raise ValueError("weights must be RationalTf or FrfResponse")

    def on_grid(self, grid: FrequencyGrid) -> dict:
        out = {}
        for channel, name in zip(CHANNELS, ("s", "gs", "ks", "t")):
            w = getattr(self, name)
            vals = w.on_grid(grid) if isinstance(w, RationalTf) else np.asarray(w.values)
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


def frozen_controller_tf(params: ControllerParameters, p: float,
                         sample_rate: float = 1.0) -> RationalTf:
    """K(z, p) = N_K / D_K as one rational transfer function."""
    nk, dk = factor_rationals(params, p)
    num = np.convolve(nk.num, dk.den)
    den = np.convolve(nk.den, dk.num)
    return RationalTf(num, den, sample_rate)


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
        """(true margins, Re{D theta + d0}) at every row."""
        rows = np.arange(self.d0.size)
        re_d = self.apply(self.D, self.d0, rows, theta).real
        n_abs = np.abs(self.apply(self.N, self.n0, rows, theta))
        return re_d - gamma_inv * n_abs - eps, re_d

    def fan(self):
        """(rows, cos, sin) of the base fan: one tangent plane per row and
        angle of ``_BASE_ANGLES``, ordered by (p, channel), then angle, then
        frequency.  Every plane bounds the disc from outside."""
        blocks = np.arange(self.d0.size).reshape(-1, 1, self.n_freq)
        fan = np.broadcast_arrays(blocks, np.cos(_BASE_ANGLES)[:, None],
                                  np.sin(_BASE_ANGLES)[:, None])
        return tuple(a.ravel() for a in fan)

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
# start a working-set solve; cuts add whatever else the solve needs
WORKING_ROWS = 8
# as scipy's linprog(method="highs"): dual simplex (strategy 1), no logging
_HIGHS_OPTIONS = (("output_flag", False), ("simplex_strategy", 1))
# the central solve: interior point without crossover, so theta ends near the
# analytic centre of the optimal face, not at a vertex
_CENTRAL_OPTIONS = (("solver", "ipm"), ("run_crossover", "off"))
_SCIPY_STATUS = {_hc.HighsModelStatus.kOptimal: 0, _hc.HighsModelStatus.kInfeasible: 2}


def linprog(model, *, A_ub: np.ndarray) -> OptimizeResult:
    """Solve the live HiGHS model, from its current basis if it has one.

    ``A_ub`` holds the model's inequality rows, which are its last rows.
    Status 0 is optimal and 2 infeasible, as in scipy's ``linprog``; every
    other HiGHS outcome is 4.  The name and the ``A_ub`` keyword are kept
    so that ``perfbench/tracer.py`` can wrap each LP and count its rows.
    """
    run_ok = model.run() != _hc.HighsStatus.kError
    model_status = model.getModelStatus()
    status = _SCIPY_STATUS.get(model_status, 4) if run_ok else 4
    res = OptimizeResult(status=status, message=model.modelStatusToString(model_status),
                         x=None, fun=None, ineqlin=OptimizeResult(marginals=None))
    if status == 0:
        solution = model.getSolution()
        res.x = np.array(solution.col_value)
        res.fun = model.getInfo().objective_function_value
        res.ineqlin.marginals = np.array(solution.row_dual)[-A_ub.shape[0]:]
    return res


def _add_rows(model, a: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
    a = csr_array(a)
    if model.addRows(a.shape[0], lower, upper, a.nnz, a.indptr[:-1], a.indices,
                     a.data) == _hc.HighsStatus.kError:
        raise SolverFailureError("HiGHS rejected the LP rows")


def _working_set(cmap: ConstraintMap, carried) -> tuple:
    """(rows, cos, sin) labels that start a working-set solve: ``WORKING_ROWS``
    evenly spaced frequency rows of every base fan block, then the
    ``carried`` labels not already among them."""
    rows, cos, sin = cmap.fan()
    pick = np.unique(np.linspace(0, cmap.n_freq - 1, WORKING_ROWS).round().astype(int))
    keep = (np.arange(0, rows.size, cmap.n_freq)[:, None] + pick).ravel()
    labels = np.column_stack([rows[keep], cos[keep], sin[keep]])
    if carried is not None:
        labels = np.vstack([labels, np.column_stack(carried)])
        _, first = np.unique(labels, axis=0, return_index=True)
        labels = labels[np.sort(first)]
    return labels[:, 0].astype(int), labels[:, 1], labels[:, 2]


def feasibility_solve(constraints: tuple, equalities=None,
                      options: SynthesisOptions | None = None,
                      warm: dict | None = None, *,
                      _central: bool = False) -> FeasibilityOutcome:
    """Find theta satisfying every cone constraint strictly, or certify
    infeasibility.

    ``constraints`` is (map, gamma_inv, eps) from ``assemble_constraints``.
    Solves max-margin linear programs over tangent half-planes in one live
    HiGHS model.  The LP is an outer relaxation refined with exact-phase
    cuts at violated points, so "infeasible" is a certificate; a returned
    theta is verified against the true cone constraints.  Numerical solver
    failures raise, distinct from infeasibility; a cut loop that runs out
    of rounds raises ``CutRoundsExhaustedError``.

    Without ``warm`` every LP is solved from scratch over the full fan of
    base planes.  With it (a dict that ``bisect_gamma`` keeps across gamma
    steps) the solve starts from the working set of ``_working_set`` and
    ``warm["labels"]``, cut rounds hot-start from the previous basis, and
    the (row, cos, sin) labels of the planes with a nonzero dual in each
    optimal LP are stored back in ``warm["labels"]``.  ``_central`` (without
    ``warm``) is the central solve of ``bisect_gamma``: the working set alone,
    every LP solved from scratch by the interior-point method without
    crossover.
    """
    options = options or SynthesisOptions()
    cmap, gamma_inv, eps = constraints
    n_theta = cmap.D.shape[1]
    if warm is not None:
        labels = _working_set(cmap, warm.get("labels"))
    else:
        labels = _working_set(cmap, None) if _central else cmap.fan()
    a_base, b_base = cmap.tangent_rows(*labels, gamma_inv, eps)

    # columns theta, then the margin t; maximize t.  Rows: equalities, the
    # base planes a theta + t <= b, then the cuts of each round.
    model = _hc._Highs()
    for key, value in _HIGHS_OPTIONS + (_CENTRAL_OPTIONS if _central else ()):
        model.setOptionValue(key, value)
    bound = np.full(n_theta + 1, options.theta_bound)
    bound[-1] = _hc.kHighsInf
    model.addVars(n_theta + 1, -bound, bound)
    model.changeColCost(n_theta, -1.0)
    if equalities is not None:
        a_eq, b_eq = equalities
        _add_rows(model, np.hstack([a_eq, np.zeros((b_eq.size, 1))]), b_eq, b_eq)
    a_ub = np.hstack([a_base, np.ones((b_base.size, 1))])
    _add_rows(model, a_ub, np.full(b_base.size, -_hc.kHighsInf), b_base)

    lp_solves = 0
    cuts_added = 0
    for _ in range(options.max_cut_rounds):
        if warm is None:
            model.clearSolver()
        res = linprog(model, A_ub=a_ub)
        lp_solves += 1
        if res.status == 2:
            return FeasibilityOutcome("infeasible", None, -math.inf,
                                      {"lp_solves": lp_solves, "cuts": cuts_added,
                                       "rows": a_ub.shape[0]})
        if res.status != 0:
            raise SolverFailureError(f"LP solver failure: {res.message}")
        if warm is not None:
            active = res.ineqlin.marginals != 0.0
            warm["labels"] = tuple(label[active] for label in labels)
        t_star = -res.fun
        theta = res.x[:-1]
        tel = {"lp_solves": lp_solves, "cuts": cuts_added, "rows": a_ub.shape[0],
               "lp_margin": t_star}
        if t_star < 0.0:
            return FeasibilityOutcome("infeasible", None, t_star, tel)
        margins, _ = cmap.evaluate(theta, gamma_inv, eps)
        tel["margin"] = true_min = float(margins.min())
        bad = np.flatnonzero(margins < -1e-12)
        if not bad.size:
            return FeasibilityOutcome("feasible", theta, true_min, tel)
        # exact-phase cuts: planes touching each violated disc at its phase
        phases = np.angle(cmap.apply(cmap.N, cmap.n0, bad, theta))
        cut = (bad, np.cos(phases), np.sin(phases))
        a_new, b_new = cmap.tangent_rows(*cut, gamma_inv, eps)
        a_new = np.hstack([a_new, np.ones((bad.size, 1))])
        _add_rows(model, a_new, np.full(bad.size, -_hc.kHighsInf), b_new)
        a_ub = np.vstack([a_ub, a_new])
        labels = tuple(np.concatenate(pair) for pair in zip(labels, cut))
        cuts_added += bad.size
    raise CutRoundsExhaustedError("cutting-plane refinement did not converge", lp_solves)


def bisect_gamma(problem: SynthesisProblem) -> SynthesisResult:
    """Minimize gamma by bisection over cone-feasibility subproblems."""
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

    warm = {}
    hi = options.gamma_hi
    lo = options.gamma_lo
    out_hi = solve_at(hi, warm=warm)
    if out_hi.status != "feasible":
        raise SynthesisInfeasibleError(
            f"infeasible at the gamma upper bound {hi}",
            diagnostics={"gamma": hi, "lp_margin": out_hi.margin,
                         **out_hi.telemetry})
    best = (hi, out_hi.theta)

    out_lo = solve_at(lo, warm=warm)
    bisect_steps = 0
    if out_lo.status == "feasible":
        best = (lo, out_lo.theta)
    else:
        while hi - lo > options.gamma_rtol * hi:
            mid = 0.5 * (lo + hi)
            out_mid = solve_at(mid, warm=warm)
            bisect_steps += 1
            if out_mid.status == "feasible":
                hi, best = mid, (mid, out_mid.theta)
            else:
                lo = mid

    # Working sets land on other points of a degenerate LP optimum, so theta*
    # comes from one central solve at gamma*: no carried planes, each cut
    # round solved from scratch by the interior-point method, which ends near
    # the analytic centre of the optimal face.  theta* then depends on gamma*
    # alone.  If that solve runs out of cut rounds or does not find theta
    # feasible, the verified theta of the bisection stands.
    gamma_star, theta_star = best
    theta_source = "warm"
    try:
        final = solve_at(gamma_star, _central=True)
    except CutRoundsExhaustedError as exc:
        lp_solves += exc.lp_solves
    else:
        if final.status == "feasible":
            theta_star, theta_source = final.theta, "central"
    params = layout.unpack(theta_star)
    all_margins, re_dp = cmap.evaluate(theta_star, 1.0 / gamma_star, eps)
    margins = cmap.by_block(all_margins)
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
        "gamma_bracket": (lo, hi),
        "theta_source": theta_source,
    }
    return SynthesisResult(theta=params, gamma=gamma_star, margins=margins,
                           re_dp_min=re_dp_min, telemetry=telemetry)


def closed_loop_data(problem: SynthesisProblem, params: ControllerParameters) -> dict:
    """Per operating point closed-loop factor data for the given controller."""
    out = {}
    for p in problem.scheduling_grid.points:
        p = float(p)
        nk, dk = evaluate_factors(params, p, problem.grid)
        out[p] = assemble_closed_loop(problem.pairs[p], nk, dk)
    return out
