"""Discrete-time rational transfer functions and polynomial helpers.

Coefficients are stored in descending powers of z (numpy convention), so
``RationalTf([1.0], [1.0, -0.5])`` is 1/(z - 0.5).  Frequencies are in
rad/sample, as in :mod:`frfdata`: a transfer function carries no sample rate,
and Hz enters only through the rate that :meth:`RationalTf.from_continuous`
takes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._extension import load_extension

dtbtrs = load_extension("scipy.linalg._flapack").dtbtrs


def trim_poly(c) -> np.ndarray:
    """Drop exactly-zero leading coefficients; keep at least one entry."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    nz = np.flatnonzero(c != 0.0)
    if nz.size == 0:
        return np.zeros(1)
    return c[nz[0]:]


def polyadd(a, b) -> np.ndarray:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = max(a.size, b.size)
    out = np.zeros(n)
    out[n - a.size:] += a
    out[n - b.size:] += b
    return out


def polymul(a, b) -> np.ndarray:
    return np.convolve(np.atleast_1d(a), np.atleast_1d(b))


@dataclass(frozen=True, eq=False)
class RationalTf:
    """Proper real-rational transfer function in z, without a sample rate."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = trim_poly(self.num)
        den = trim_poly(self.den)
        if not np.all(np.isfinite(num)) or not np.all(np.isfinite(den)):
            raise ValueError("non-finite coefficients")
        if np.all(den == 0.0):
            raise ValueError("zero denominator")
        if num.size > den.size and np.any(num != 0.0):
            raise ValueError(
                f"improper transfer function (deg num {num.size - 1} > deg den {den.size - 1})"
            )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        num.flags.writeable = False
        den.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(c: float) -> "RationalTf":
        return RationalTf(np.array([float(c)]), np.array([1.0]))

    @staticmethod
    def from_continuous(num_s, den_s, sample_rate: float) -> "RationalTf":
        """Bilinear (Tustin) transform of a continuous-time rational at
        ``sample_rate`` Hz."""
        num_s = trim_poly(num_s)
        den_s = trim_poly(den_s)
        n = max(num_s.size, den_s.size) - 1
        k = 2.0 * sample_rate

        def compose(c):
            # c(s) -> c(k (z-1)/(z+1)) * (z+1)^n, expanded in z
            out = np.zeros(n + 1)
            deg = c.size - 1
            for j, cj in enumerate(c):
                e = deg - j  # power of s
                term = (k ** e) * np.array([1.0])
                for _ in range(e):
                    term = polymul(term, [1.0, -1.0])
                for _ in range(n - e):
                    term = polymul(term, [1.0, 1.0])
                out = polyadd(out, cj * term)
            return out

        return RationalTf(compose(num_s), compose(den_s))

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.den.size - 1

    def poles(self) -> np.ndarray:
        return np.roots(self.den) if self.den.size > 1 else np.zeros(0)

    def is_stable(self) -> bool:
        p = self.poles()
        return bool(p.size == 0 or np.max(np.abs(p)) < 1.0)

    def dc_gain(self) -> float:
        return float(np.real(self.eval_at(np.array([1.0 + 0j]))[0]))

    # -- evaluation ------------------------------------------------------------

    def eval_at(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.polyval(self.num, z) / np.polyval(self.den, z)

    def on_grid(self, grid) -> np.ndarray:
        """Frequency response at the grid's e^{i omega_k}."""
        return self.eval_at(np.exp(1j * np.asarray(grid.omegas)))

    # -- filtering -------------------------------------------------------------

    def filter(self, u: np.ndarray) -> np.ndarray:
        """Output from rest for the 1-D input u, the same recursion as a
        direct-form filter.

        With b and a the coefficients normalized by den[0] and b0 = b[0], the
        output is b0 u + w for the strictly proper remainder
        w = (b - b0 a) / a: its numerator, delayed one sample, is v, and
        ``a * w = v`` is a banded lower-triangular Toeplitz system that
        LAPACK's ``dtbtrs`` solves by forward substitution.  Adding the
        feedthrough term last, as a direct-form filter does in each sample,
        keeps (S d - d) + d == S d bit for bit where S has unit feedthrough.
        """
        u = np.asarray(u, dtype=float)
        a = self.den / self.den[0]
        b = np.zeros(a.size)
        b[a.size - self.num.size:] = self.num / self.den[0]
        n = u.size
        if a.size == 1 or n == 0:
            return b[0] * u
        v = np.zeros(n)
        v[1:] = np.convolve(b[1:] - b[0] * a[1:], u)[:n - 1]
        # Fortran band storage of the lower-triangular Toeplitz matrix: row i
        # holds a_i; a_0 = 1 exactly, so the unit diagonal is not referenced
        kd = min(a.size - 1, n - 1)
        ab = np.tile(a[:kd + 1], (n, 1)).T
        w, _ = dtbtrs(ab, v[:, None], uplo="L", diag="U", overwrite_b=1)
        return b[0] * u + w[:, 0]

    # -- algebra ---------------------------------------------------------------

    def __mul__(self, other):
        if np.isscalar(other):
            return RationalTf(self.num * float(other), self.den)
        return RationalTf(polymul(self.num, other.num), polymul(self.den, other.den))

    __rmul__ = __mul__

    def __add__(self, other):
        if np.isscalar(other):
            other = RationalTf.constant(float(other))
        num = polyadd(polymul(self.num, other.den), polymul(other.num, self.den))
        return RationalTf(num, polymul(self.den, other.den))

    def __sub__(self, other):
        if np.isscalar(other):
            other = RationalTf.constant(float(other))
        return self + (other * -1.0)

    __radd__ = __add__


def statespace_tf(a, b, c, d=0.0) -> RationalTf:
    """C (zI - A)^{-1} B + D as a RationalTf via the Faddeev-LeVerrier recursion."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    n = a.shape[0]
    den = np.zeros(n + 1)
    den[0] = 1.0
    num = np.zeros(n)
    m = np.eye(n)
    for k in range(n):
        num[k] = c @ m @ b
        am = a @ m
        den[k + 1] = -np.trace(am) / (k + 1)
        m = am + den[k + 1] * np.eye(n)
    return RationalTf(polyadd(num, float(d) * den), den)


def statespace_response(a, b, c, d, z: np.ndarray) -> np.ndarray:
    """Resolvent evaluation C (zI - A)^{-1} B + D at every point of z, as one
    batched linear solve over the stack of (zI - A).

    A 1-D c gives an array shaped like z; a c with several rows gives one
    response row per output, each shaped like z, with d a scalar or one
    feedthrough per row.  An empty A gives D everywhere.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float)
    z = np.asarray(z, dtype=complex)
    x = np.linalg.solve(z.reshape(-1, 1, 1) * np.eye(a.shape[0]) - a, b)
    out = (np.atleast_2d(c) @ x)[..., 0] + d
    return out.T.reshape(c.shape[:-1] + z.shape)


def closed_loop_char_poly(g: RationalTf, k: RationalTf) -> np.ndarray:
    """n_g n_k + d_g d_k, the closed-loop characteristic polynomial."""
    return polyadd(polymul(g.num, k.num), polymul(g.den, k.den))


def internally_stable(g: RationalTf, k: RationalTf) -> bool:
    """Internal stability of the unity feedback loop of g and k.

    Forms the characteristic polynomial of all four closed-loop maps; a drop in
    its leading degree means an ill-posed (improper) loop and counts as
    unstable.  Raises if 1 + g k vanishes identically.
    """
    phi = closed_loop_char_poly(g, k)
    expected_deg = (g.den.size - 1) + (k.den.size - 1)
    scale = max(np.max(np.abs(phi)), np.max(np.abs(polymul(g.den, k.den))))
    if scale == 0.0 or np.max(np.abs(phi)) <= 1e-12 * scale:
        raise ValueError("degenerate loop: 1 + G K vanishes identically")
    phi_t = trim_poly(phi)
    if phi_t.size - 1 < expected_deg and abs(phi[0]) <= 1e-9 * scale:
        return False  # effective pole at infinity
    roots = np.roots(phi_t)
    return bool(roots.size == 0 or np.max(np.abs(roots)) < 1.0)


def closed_loop_maps(g: RationalTf, k: RationalTf) -> dict:
    """The four closed-loop transfer functions {S, GS, KS, T} of the loop."""
    phi = closed_loop_char_poly(g, k)
    dgdk = polymul(g.den, k.den)
    return {
        "S": RationalTf(dgdk, phi),
        "GS": RationalTf(polymul(g.num, k.den), phi),
        "KS": RationalTf(polymul(g.den, k.num), phi),
        "T": RationalTf(polymul(g.num, k.num), phi),
    }
