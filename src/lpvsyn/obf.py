"""Orthonormal basis functions in z, scheduling bases, and pole clustering.

The transfer-function basis is generated by a stable pole sequence: each real
pole contributes a first-order inner section, each conjugate pair a
second-order one (``_section_matrices``).  ``realize_bank`` puts the balanced
sections in series; the basis functions are by definition the state transfer
functions of that all-pass cascade (Laguerre functions when one real pole
repeats), and the constant function is always included as index 0.  The
cascade is the only statement of the basis: grid values are its resolvent
(``eval_basis_at``) and rational forms its state-space transfer functions
(``synthesis.factor_rationals``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frfdata import FrequencyGrid, check_range
from .rational import statespace_response

POLE_MARGIN = 1e-9


def _group_sections(poles: np.ndarray):
    """Split a conjugate-closed pole list into 1st/2nd-order section poles."""
    remaining = list(poles)
    sections = []
    while remaining:
        xi = remaining.pop(0)
        if abs(xi.imag) < 1e-14:
            sections.append((xi.real,))
        else:
            conj = np.conj(xi)
            for i, other in enumerate(remaining):
                if abs(other - conj) < 1e-12:
                    remaining.pop(i)
                    break
            else:
                raise ValueError(f"complex pole {xi} lacks its conjugate")
            sections.append((xi, conj))
    return sections


def _gramian(a, b):
    """Controllability Gramian w of a 2-state pair, a w a^T - w + b b^T = 0,
    solved as scipy's ``solve_discrete_lyapunov`` solves small ones (its
    "direct" method): (I - a kron a) vec(w) = vec(b b^T)."""
    return np.linalg.solve(np.eye(4) - np.kron(a, a), np.outer(b, b).ravel()).reshape(2, 2)


def _section_matrices(section):
    """Balanced state-space of the inner (all-pass) function for one section."""
    if len(section) == 1:
        a = float(section[0])
        r = math.sqrt(1.0 - a * a)
        return (np.array([[a]]), np.array([r]), np.array([r]), -a)
    xi = section[0]
    c1 = -2.0 * xi.real
    c2 = abs(xi) ** 2
    # inner function (c2 z^2 + c1 z + 1)/(z^2 + c1 z + c2), balanced so the
    # controllability Gramian is the identity
    a = np.array([[-c1, -c2], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    c = np.array([c1 * (1.0 - c2), 1.0 - c2 * c2])
    d = c2
    t = np.linalg.cholesky(_gramian(a, b))
    ti = np.linalg.inv(t)
    return (ti @ a @ t, ti @ b, c @ t, d)


@dataclass(frozen=True, eq=False)
class ObfBasis:
    """Pole-generated orthonormal function family {1, phi_1, ..., phi_n}."""

    poles: np.ndarray

    def __post_init__(self):
        poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        if not np.all(np.abs(poles) < 1.0 - POLE_MARGIN):
            raise ValueError("basis poles must be finite with modulus < 1 - 1e-9")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "_sections", _group_sections(poles))
        poles.flags.writeable = False

    @property
    def n(self) -> int:
        """Number of non-constant functions."""
        return self.poles.size

    @property
    def size(self) -> int:
        return self.n + 1


def laguerre_basis(a: float, n: int) -> ObfBasis:
    """Laguerre basis: one real pole ``a`` repeated ``n`` times."""
    if abs(a) >= 1.0:
        raise ValueError("Laguerre pole must satisfy |a| < 1")
    if n < 0:
        raise ValueError("order must be non-negative")
    return ObfBasis(np.full(n, float(a), dtype=complex))


def eval_basis_at(basis: ObfBasis, z: np.ndarray) -> np.ndarray:
    """(n+1, len(z)) matrix of basis values, row 0 identically one: the
    response of the bank realization at the points z."""
    return realize_bank(basis).response(z)


def eval_basis(basis: ObfBasis, grid: FrequencyGrid) -> np.ndarray:
    """Basis values on the grid: row i holds phi_i(e^{i omega_k})."""
    return eval_basis_at(basis, grid.z)


@dataclass(frozen=True, eq=False)
class BasisBankRealization:
    """State-space of the stacked bank [phi_0 ... phi_n]^T.

    Outputs are the input itself (phi_0) followed by the states, so
    c = [0; I], d = [1; 0].
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    def response(self, z: np.ndarray) -> np.ndarray:
        """(n+1, len(z)) bank response: the resolvent with c = [0; I],
        d = [1; 0]."""
        n = self.state_dim
        return statespace_response(self.a, self.b, np.eye(n + 1, n, -1),
                                   np.eye(n + 1)[0], np.ravel(z))


def realize_bank(basis: ObfBasis) -> BasisBankRealization:
    """Minimal cascade realization whose state transfer functions are the
    basis: inner sections in series, each balanced so states are orthonormal."""
    n = basis.n
    a = np.zeros((n, n))
    b = np.zeros(n)
    # running map u -> section input: x-feed row vector and direct gain
    feed = np.zeros(n)
    gain = 1.0
    row = 0
    for section in basis._sections:
        a_s, b_s, c_s, d_s = _section_matrices(section)
        k = a_s.shape[0]
        a[row:row + k, row:row + k] = a_s
        a[row:row + k, :row] = np.outer(b_s, feed[:row])
        b[row:row + k] = b_s * gain
        feed[:row] = d_s * feed[:row]
        feed[row:row + k] = c_s
        gain = d_s * gain
        row += k
    return BasisBankRealization(a, b)


# ---------------------------------------------------------------------------
# scheduling bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SchedulingBasis:
    """Monomial functions of the rescaled operating point, psi_1 = 1.

    The operating point is affinely mapped onto [-1, 1] before evaluation so
    raw monomials stay well-conditioned for low degrees.
    """

    m: int
    p_range: tuple

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("scheduling basis needs at least the constant term")
        lo, hi = self.p_range
        if not lo < hi:
            raise ValueError("empty scheduling range")
        object.__setattr__(self, "p_range", (float(lo), float(hi)))

    @staticmethod
    def constant(p_range) -> "SchedulingBasis":
        return SchedulingBasis(1, tuple(p_range))

    @staticmethod
    def affine(p_range) -> "SchedulingBasis":
        return SchedulingBasis(2, tuple(p_range))

    @staticmethod
    def polynomial(degree: int, p_range) -> "SchedulingBasis":
        return SchedulingBasis(degree + 1, tuple(p_range))

    def rescale(self, p: float) -> float:
        lo, hi = self.p_range
        return (2.0 * p - (lo + hi)) / (hi - lo)


def scheduling_eval(basis: SchedulingBasis, p) -> np.ndarray:
    """[psi_1(p), ..., psi_m(p)] = [1, ptilde, ptilde^2, ...]; for an array
    of operating points, one such row per point.  A point outside
    ``p_range`` is rejected as extrapolation, except by a constant basis
    (m = 1), which does not depend on p and takes any finite point."""
    p = np.asarray(p, dtype=float)
    if basis.m > 1:
        check_range(p, basis.p_range, "operating point")
    elif not np.all(np.isfinite(p)):
        raise ValueError(f"operating point not finite: {p[~np.isfinite(p)].flat[0]}")
    return np.vander(np.ravel(basis.rescale(p)), basis.m,
                     increasing=True).reshape(p.shape + (basis.m,))


# ---------------------------------------------------------------------------
# fuzzy c-means pole clustering
# ---------------------------------------------------------------------------

FCM_FUZZINESS = 2.0  # membership exponent; must exceed 1
FCM_TOL = 1e-9
FCM_MAX_ITER = 500


def cluster_poles(samples, c: int) -> np.ndarray:
    """Fuzzy c-means cluster centers of complex pole locations.

    Deterministic farthest-point initialization; iterates the standard FCM
    update until the centers move less than ``FCM_TOL`` or ``FCM_MAX_ITER``
    iterations have run.  Centers stay inside the unit disk because they are
    convex combinations of the samples.
    """
    samples = np.atleast_1d(np.asarray(samples, dtype=complex))
    if samples.size == 0:
        raise ValueError("no pole samples to cluster")
    if c < 1 or c > samples.size:
        raise ValueError("cluster count must be in [1, number of samples]")
    if np.max(np.abs(samples)) >= 1.0:
        raise ValueError("pole samples must lie inside the unit disk")

    pts = np.column_stack([samples.real, samples.imag])
    # farthest-point init seeded at the sample closest to the centroid
    centroid = pts.mean(axis=0)
    centers = [pts[np.argmin(np.sum((pts - centroid) ** 2, axis=1))]]
    while len(centers) < c:
        d2 = np.min([np.sum((pts - ctr) ** 2, axis=1) for ctr in centers], axis=0)
        centers.append(pts[np.argmax(d2)])
    centers = np.array(centers, dtype=float)

    for _ in range(FCM_MAX_ITER):
        # clamping d^2 away from zero makes coincident points crisply owned
        d2 = np.maximum(
            ((pts[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2), 1e-30)
        inv = np.power(d2, -1.0 / (FCM_FUZZINESS - 1.0))
        u = inv / inv.sum(axis=0, keepdims=True)
        w = u ** FCM_FUZZINESS
        new_centers = (w @ pts) / w.sum(axis=1, keepdims=True)
        shift = np.max(np.abs(new_centers - centers))
        centers = new_centers
        if shift < FCM_TOL:
            break
    return centers[:, 0] + 1j * centers[:, 1]
