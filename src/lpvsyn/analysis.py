"""A-posteriori certificates: stability and performance multiplier tests and
direct achieved-performance evaluation.  The symbolic ground truth for a
frozen loop is ``rational.internally_stable``.

The grid test asks for a stable multiplier alpha with Re{(D_p - r_c) alpha} > 0
at every grid frequency, where r_c = gamma^{-1} |W_c N_p^c| (zero radius for
plain stability).  alpha is parameterized as 1 + sum beta_i phi_i over an OBF
family, making the search a linear program per operating point.  Failure to
find a multiplier is "inconclusive" unless a refutation witness exists: a
grid frequency whose disc contains the origin, or a negative winding of the
characteristic data (no stable multiplier can unwind it).  The grid winding
counts encirclements only when the grid reaches 0 and pi or the data are real
at both end lines; otherwise it is neither a witness nor compensated.

The multiplier LP is the max-margin LP of ``synthesis``, solved through this
module's ``linprog`` (``synthesis.linprog`` imported), so a tracer can wrap
multiplier LPs apart from synthesis LPs by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SolverFailureError
from .factorization import CHANNELS, ClosedLoopFactorData
from .frfdata import FrequencyGrid
from .obf import ObfBasis, eval_basis, laguerre_basis
from .synthesis import _add_margin_rows, _gamma_inv, _max_margin_model, linprog


@dataclass(frozen=True, eq=False)
class MultiplierParameters:
    """alpha = sign * z^{-delay} (1 + sum beta_i phi_i) for one operating point.

    Fixing the constant coefficient to one removes the scale freedom only; the
    sign and a delay factor (compensating positive winding of the data) keep
    the normalized class complete.  alpha is stable and proper throughout.
    """

    beta: np.ndarray
    basis: ObfBasis
    delay: int = 0
    sign: float = 1.0

    def on_grid(self, grid: FrequencyGrid) -> np.ndarray:
        phi = eval_basis(self.basis, grid)
        core = phi[0] + (self.beta @ phi[1:] if self.beta.size else 0.0)
        return self.sign * core * np.exp(-1j * grid.omegas * self.delay)


@dataclass(frozen=True, eq=False)
class Certificate:
    status: str                       # "certified" | "refuted" | "inconclusive"
    margins: dict                     # operating point -> min certified margin
    multipliers: dict                 # operating point -> MultiplierParameters
    eps: float
    detail: dict

    @property
    def certified(self) -> bool:
        return self.status == "certified"


WINDING_TOL = 1e-2
BETA_BOUND = 1e6  # box on the multiplier coefficients; keeps the LP bounded


def grid_winding(values: np.ndarray) -> int:
    """Full-circle winding number of conjugate-symmetric data given on [0, pi]."""
    phase = np.unwrap(np.angle(values))
    return int(round((phase[-1] - phase[0]) / math.pi))


def winding_trusted(values: np.ndarray, grid: FrequencyGrid) -> bool:
    """Whether :func:`grid_winding` of ``values`` counts their encirclements
    of the origin: the grid reaches within ``WINDING_TOL`` rad of 0 and pi,
    or |Im| <= WINDING_TOL |value| at both end lines."""
    om = grid.omegas
    if om[0] <= WINDING_TOL and om[-1] >= math.pi - WINDING_TOL:
        return True
    ends = np.asarray(values)[[0, -1]]
    return bool(np.all(np.abs(ends.imag) <= WINDING_TOL * np.abs(ends)))


def _multiplier_lp(dtilde: np.ndarray, phi: np.ndarray):
    """max t s.t. Re{dtilde (1 + beta phi)} >= t rowwise; returns (beta, t)."""
    n_beta = phi.shape[0] - 1
    base = dtilde.real
    if n_beta == 0:
        return np.zeros(0), float(base.min())
    coef = (dtilde[None, :] * phi[1:]).real      # (n_beta, n_rows)
    model = _max_margin_model(n_beta, BETA_BOUND)
    res = linprog(model, A_ub=_add_margin_rows(model, -coef.T, base))
    if res.status == 2:
        return None, -math.inf
    if res.status != 0:
        raise SolverFailureError(f"multiplier LP failed: {res.message}")
    return res.x[:-1], -res.fun


def _escalation_bases(worst_omega: float):
    """Multiplier basis ladder: the default family first, then richer fans,
    then poles near ``worst_omega``, where Re D_p is smallest."""
    yield laguerre_basis(0.5, 8)
    yield laguerre_basis(0.5, 16)
    for radius in (0.8, 0.92):
        poles = [complex(radius), complex(-radius)]
        for ang in np.linspace(math.pi / 8, 7 * math.pi / 8, 7):
            poles += [radius * np.exp(1j * ang), radius * np.exp(-1j * ang)]
        yield ObfBasis(np.array(poles))
    for radius in (0.9, 0.97):
        poles = [complex(0.5)] * 4
        for ang in (worst_omega, max(worst_omega * 0.5, 1e-3),
                    min(worst_omega * 1.5, math.pi * 0.999)):
            poles += [radius * np.exp(1j * ang), radius * np.exp(-1j * ang)]
        yield ObfBasis(np.array(poles))


def _certify(rows_per_p: dict, grid: FrequencyGrid, eps: float,
             basis: ObfBasis | None, delays: dict):
    """Run the multiplier LP per operating point, escalating the basis when
    none was pinned by the caller.

    Rung 0 of the ladder is the constant multiplier alpha = +/-1 (the empty
    basis, which needs no LP): when it certifies, re-parameterized (absorbed)
    margins stay bit-identical.
    """
    margins = {}
    multipliers = {}
    for p, dtilde in rows_per_p.items():
        idx = int(np.argmin(dtilde.real)) % len(grid)
        worst = float(grid.omegas[idx])
        ladder = [ObfBasis(np.zeros(0, dtype=complex))]
        ladder += [basis] if basis is not None else list(_escalation_bases(worst))
        first_sign = 1.0 if float(np.mean(dtilde.real)) >= 0.0 else -1.0
        reps = dtilde.size // len(grid)
        phis = ((cand, np.tile(eval_basis(cand, grid), (1, reps))) for cand in ladder)
        for (cand, phi), sign in ((cp, s) for cp in phis for s in (first_sign, -first_sign)):
            beta, t_star = _multiplier_lp(sign * dtilde, phi)
            if beta is None or t_star < eps:
                continue
            alpha = sign * (phi[0] + beta @ phi[1:])
            check = (dtilde * alpha).real
            if float(check.min()) >= eps * (1.0 - 1e-9):
                margins[p] = float(check.min())
                multipliers[p] = MultiplierParameters(beta, cand, delays.get(p, 0), sign)
                break
        else:
            return None, p
    return (margins, multipliers), None


def _disc_certificate(discs: dict, grid: FrequencyGrid, eps: float,
                      basis: ObfBasis | None, detail: dict) -> Certificate:
    """Certify Re{(D_p - r_c) alpha_p} >= eps over ``discs`` = {p: (D_p,
    {channel: r_c})} with one multiplier per operating point.

    Refutation witnesses, per operating point in order: vanishing D_p at a
    grid frequency, negative winding of D_p (the data encircles the origin,
    which no stable multiplier can undo), or a disc that contains the origin.
    Otherwise failure to certify is inconclusive.  A nonzero winding that
    :func:`winding_trusted` rejects is listed in ``detail["winding_not_trusted"]``
    and treated as zero: no witness, and no delay in the multiplier.
    """
    rows = {}
    delays = {}
    for p, (dp, radii) in discs.items():
        dp = np.asarray(dp, dtype=complex)
        scale = float(np.max(np.abs(dp)))
        if scale == 0.0 or np.min(np.abs(dp)) <= 1e-12 * scale:
            k = int(np.argmin(np.abs(dp)))
            detail["witness"] = {"p": p, "omega": float(grid.omegas[k]),
                                 "reason": "zero characteristic data"}
            return Certificate("refuted", {}, {}, eps, detail)
        w = grid_winding(dp)
        if w and not winding_trusted(dp, grid):
            detail.setdefault("winding_not_trusted", []).append({"p": p, "winding": w})
            w = 0
        if w < 0:
            detail["witness"] = {"p": p, "winding": w,
                                 "reason": "characteristic data winds around the origin"}
            return Certificate("refuted", {}, {}, eps, detail)
        # positive winding is unwound by a z^{-w} factor in the multiplier
        shift = np.exp(-1j * grid.omegas * w)
        stacked = []
        for channel, radius in radii.items():
            contains = np.abs(dp) <= radius
            if np.any(contains):
                k = int(np.argmax(contains))
                detail["witness"] = {"p": p, "channel": channel,
                                     "omega": float(grid.omegas[k]),
                                     "reason": "disc contains the origin"}
                return Certificate("refuted", {}, {}, eps, detail)
            stacked.append((dp - radius) * shift)
        rows[p] = np.concatenate(stacked)
        delays[p] = w
    result, failed_p = _certify(rows, grid, eps, basis, delays)
    if result is None:
        detail["failed_at"] = failed_p
        return Certificate("inconclusive", {}, {}, eps, detail)
    margins, multipliers = result
    return Certificate("certified", margins, multipliers, eps, detail)


def check_stability(dp_data: dict, grid: FrequencyGrid, eps: float = 1e-9,
                    basis: ObfBasis | None = None) -> Certificate:
    """Certify Re{D_p alpha_p} >= eps on the grid for every operating point:
    the disc test with zero radius."""
    discs = {p: (dp, {"stability": 0.0}) for p, dp in dp_data.items()}
    return _disc_certificate(discs, grid, eps, basis,
                             {"grid_size": len(grid), "kind": "stability"})


def check_performance(data: dict, weights_on_grid: dict, gamma: float,
                      grid: FrequencyGrid, eps: float = 1e-9,
                      basis: ObfBasis | None = None) -> Certificate:
    """Certify Re{(D_p - gamma^{-1}|W_c N_p^c|) alpha_p} >= eps jointly over
    channels with one multiplier per operating point."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    gamma_inv = _gamma_inv(gamma)
    discs = {}
    for p, block in data.items():
        radii = {c: gamma_inv * np.abs(weights_on_grid[c] * block.numerator(c))
                 for c in CHANNELS}
        discs[p] = (block.d_p, radii)
    return _disc_certificate(discs, grid, eps, basis,
                             {"grid_size": len(grid), "kind": "performance",
                              "gamma": gamma})


def compute_achieved_gamma(data: dict, weights_on_grid: dict) -> float:
    """max over operating points, channels and frequencies of |W_c N_p^c / D_p|."""
    worst = 0.0
    for p, block in data.items():
        dp = np.abs(block.d_p)
        if np.any(dp == 0.0):
            raise ValueError(f"characteristic data vanishes at p={p}")
        for channel in CHANNELS:
            ratio = np.abs(weights_on_grid[channel] * block.numerator(channel)) / dp
            worst = max(worst, float(ratio.max()))
    return worst


def absorb_multiplier(block: ClosedLoopFactorData,
                      alpha: np.ndarray) -> ClosedLoopFactorData:
    """Factor data after re-parameterizing (N_K, D_K) as (N_K a, D_K a)."""
    alpha = np.asarray(alpha, dtype=complex)
    return ClosedLoopFactorData(
        d_p=block.d_p * alpha, n_s=block.n_s * alpha, n_gs=block.n_gs * alpha,
        n_ks=block.n_ks * alpha, n_t=block.n_t * alpha)
