"""Iterative basis selection: alternate synthesis with pole/zero clustering.

Each round synthesizes a controller, extracts the frozen controller pole and
zero locations across the operating points, clusters them (fuzzy c-means
stand-in), rebuilds conjugate-closed bases from the cluster centers and
re-synthesizes.  The best iterate is kept, so the achieved performance never
increases.  Each round's bisection gets the best gamma so far as its
incumbent and first checks whether it can go below it; a round that cannot
beat the best gamma ends the iteration (it would cluster the same best
controller again and rebuild the same candidate).  Iteration also stops on
the round limit or when the relative improvement drops below one percent.
"""
from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .exceptions import SynthesisInfeasibleError
from .obf import ObfBasis, cluster_poles
from .synthesis import (SynthesisProblem, SynthesisResult, bisect_gamma,
                        factor_rationals)

IMPROVEMENT_STOP = 0.01
DISK_CLIP = 0.98
CENTER_IMAG_TOL = 1e-7  # a center with |Im| below this counts as real


class BasisPair(NamedTuple):
    n: ObfBasis
    d: ObfBasis


def controller_root_samples(result: SynthesisResult, points) -> tuple:
    """Frozen controller pole and zero locations over the operating points.

    Poles are the roots of the D_K numerator polynomial, zeros those of the
    N_K numerator (the factor denominators are the current basis poles and
    would only anchor the clustering to itself).
    """
    poles = []
    zeros = []
    for p in points:
        nk, dk = factor_rationals(result.theta, float(p))
        zeros.extend(np.roots(nk.num) if nk.num.size > 1 else [])
        poles.extend(np.roots(dk.num) if dk.num.size > 1 else [])
    return np.asarray(poles, dtype=complex), np.asarray(zeros, dtype=complex)


def project_into_disk(samples: np.ndarray) -> np.ndarray:
    """Reflect unstable samples into the disk and clip radii to ``DISK_CLIP``."""
    samples = np.asarray(samples, dtype=complex)
    samples = samples[np.isfinite(samples)]
    out = samples.copy()
    outside = np.abs(out) > 1.0
    out[outside] = 1.0 / np.conj(out[outside])
    big = np.abs(out) > DISK_CLIP
    out[big] = out[big] * (DISK_CLIP / np.abs(out[big]))
    return out


def centers_to_basis(centers: np.ndarray, n_slots: int) -> ObfBasis:
    """Fill ``n_slots`` basis poles from cluster centers, conjugate-closed.

    Complex centers consume two slots as a conjugate pair; when only one slot
    remains, the center's real part is used.  Centers repeat cyclically if
    they do not fill the order.
    """
    poles = []
    idx = 0
    centers = np.asarray(centers, dtype=complex)
    while len(poles) < n_slots and centers.size:
        ctr = centers[idx % centers.size]
        idx += 1
        if abs(ctr.imag) < CENTER_IMAG_TOL:
            poles.append(complex(ctr.real))
        elif n_slots - len(poles) >= 2:
            poles.extend([ctr, np.conj(ctr)])
        else:
            poles.append(complex(ctr.real))
    return ObfBasis(np.asarray(poles, dtype=complex))


def basis_selection_iterate(problem: SynthesisProblem,
                            max_rounds: int) -> tuple:
    """Alternate synthesis and basis refinement; returns (BasisPair, result)."""
    best = (BasisPair(problem.basis_n, problem.basis_d), bisect_gamma(problem))
    points = problem.scheduling_grid.points
    for _ in range(max_rounds):
        pole_samples, zero_samples = controller_root_samples(best[1], points)
        basis_d = best[0].d
        basis_n = best[0].n
        if pole_samples.size:
            proj = project_into_disk(pole_samples)
            centers = cluster_poles(proj, min(problem.basis_d.n, proj.size))
            basis_d = centers_to_basis(centers, problem.basis_d.n)
        if zero_samples.size:
            proj = project_into_disk(zero_samples)
            centers = cluster_poles(proj, min(problem.basis_n.n, proj.size))
            basis_n = centers_to_basis(centers, problem.basis_n.n)
        candidate = replace(problem, basis_n=basis_n, basis_d=basis_d)
        gamma = best[1].gamma
        try:
            result = bisect_gamma(candidate, incumbent=gamma)
        except SynthesisInfeasibleError:
            break
        if not result.gamma < gamma:
            break
        best = (BasisPair(basis_n, basis_d), result)
        if gamma - result.gamma < IMPROVEMENT_STOP * gamma:
            break
    return best
