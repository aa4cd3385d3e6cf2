"""Stable coprime-factor FRF data and closed-loop factor assembly.

The plant factors come from closed-loop estimates: with a stable stabilizing
controller K0, N_G = G S and D_G = S are stable, coprime, and certified by the
explicit witness pair (X, Y) = (K0, 1) since N_G K0 + D_G = S (1 + G K0) = 1.
An unstable K0 would need factoring itself and is rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import StabilizationError
from .frfdata import FrequencyGrid, FrfResponse
from .rational import RationalTf, internally_stable

BEZOUT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CoprimeFrfPair:
    """Coprime-factor response data (N_G, D_G) of one frozen plant."""

    n_g: FrfResponse
    d_g: FrfResponse

    def __post_init__(self):
        if not np.array_equal(self.n_g.grid.omegas, self.d_g.grid.omegas):
            raise ValueError("factor responses must share the frequency grid")

    @property
    def grid(self) -> FrequencyGrid:
        return self.n_g.grid


@dataclass(frozen=True, eq=False)
class BezoutWitness:
    """Stable pair (X, Y) with N_G X + D_G Y = 1 on the grid."""

    x: RationalTf
    y: RationalTf

    def residual(self, pair: CoprimeFrfPair) -> float:
        grid = pair.grid
        r = (pair.n_g.values * self.x.on_grid(grid)
             + pair.d_g.values * self.y.on_grid(grid) - 1.0)
        return float(np.max(np.abs(r)))


@dataclass(frozen=True, eq=False)
class ClosedLoopFactorData:
    """Characteristic data D_p and the four channel numerators on the grid."""

    d_p: np.ndarray
    n_s: np.ndarray
    n_gs: np.ndarray
    n_ks: np.ndarray
    n_t: np.ndarray

    def __post_init__(self):
        for name in ("n_s", "n_gs", "n_ks", "n_t"):
            if getattr(self, name).shape != self.d_p.shape:
                raise ValueError("channel numerator shape mismatch")

    def numerator(self, channel: str) -> np.ndarray:
        return {"S": self.n_s, "GS": self.n_gs, "KS": self.n_ks, "T": self.n_t}[channel]


CHANNELS = ("S", "GS", "KS", "T")


def coprime_from_closed_loop(sens: FrfResponse, proc_sens: FrfResponse,
                             controller0: RationalTf,
                             bezout_tol: float = BEZOUT_TOL):
    """Factor pair from sensitivity / process-sensitivity estimates.

    Returns (CoprimeFrfPair, BezoutWitness) with N_G = proc_sens, D_G = sens
    and witness (K0, 1); raises if K0 is unstable or the witness residual on
    the grid exceeds ``bezout_tol`` (non-stabilizing K0 or inconsistent data).
    The strict default suits analytically evaluated responses; estimates from
    windowed averaging carry bias and need a looser tolerance.
    """
    if not controller0.is_stable():
        raise StabilizationError(
            "this construction requires a stable K0; factor K0 first otherwise")
    pair = CoprimeFrfPair(n_g=proc_sens, d_g=sens)
    witness = BezoutWitness(x=controller0, y=RationalTf.constant(1.0))
    res = witness.residual(pair)
    if res > bezout_tol:
        raise StabilizationError(
            f"Bezout residual {res:.3e} exceeds {bezout_tol:g}: "
            "K0 is not consistent with the closed-loop estimates")
    return pair, witness


def frozen_coprime_from_model(g: RationalTf, controller0: RationalTf,
                              grid: FrequencyGrid):
    """Analytic counterpart of :func:`coprime_from_closed_loop`.

    Checks that K0 stabilizes g (``internally_stable``), then evaluates
    S = 1/(1 + g K0) and G S on the grid and hands them to
    :func:`coprime_from_closed_loop` for the factor pair and witness.
    """
    # an unstable K0 is rejected by coprime_from_closed_loop
    if controller0.is_stable() and not internally_stable(g, controller0):
        raise StabilizationError("controller0 does not stabilize the plant")
    g_vals = g.on_grid(grid)
    s_vals = 1.0 / (1.0 + g_vals * controller0.on_grid(grid))
    return coprime_from_closed_loop(FrfResponse(s_vals, grid),
                                    FrfResponse(g_vals * s_vals, grid), controller0)


def origin_factorization(g: RationalTf):
    """Coprime factors (num/z^n, den/z^n) with all factor poles at the origin.

    Valid for any proper rational with reduced coefficients; handy for turning
    an arbitrary (plant, controller) pair into characteristic data.
    """
    n = g.den.size - 1
    shift = np.zeros(n + 1)
    shift[0] = 1.0
    return RationalTf(g.num, shift), RationalTf(g.den, shift)


def characteristic_data(g: RationalTf, k: RationalTf,
                        grid: FrequencyGrid) -> np.ndarray:
    """D_p grid data for the loop of (g, k) via origin factorizations."""
    n_g, d_g = origin_factorization(g)
    n_k, d_k = origin_factorization(k)
    return (d_g.on_grid(grid) * d_k.on_grid(grid)
            + n_g.on_grid(grid) * n_k.on_grid(grid))


def assemble_closed_loop(pair: CoprimeFrfPair, nk: np.ndarray,
                         dk: np.ndarray) -> ClosedLoopFactorData:
    """Characteristic data and channel numerators for controller factor data.

    d_p = d_g dk + n_g nk; numerators (D_G D_K, N_G D_K, D_G N_K, N_G N_K) for
    the channels S, GS, KS, T.  Linear in (nk, dk), whose first axis is the
    grid; further axes (say the parameter columns of an affine map) are
    carried through.
    """
    nk = np.asarray(nk, dtype=complex)
    dk = np.asarray(dk, dtype=complex)
    if nk.shape[:1] != pair.n_g.values.shape or dk.shape != nk.shape:
        raise ValueError("controller factor data length does not match the grid")
    extra = (1,) * (nk.ndim - 1)
    n_g = pair.n_g.values.reshape(-1, *extra)
    d_g = pair.d_g.values.reshape(-1, *extra)
    return ClosedLoopFactorData(
        d_p=d_g * dk + n_g * nk,
        n_s=d_g * dk,
        n_gs=n_g * dk,
        n_ks=d_g * nk,
        n_t=n_g * nk,
    )
