"""Scalar per-sample recursions of lpvsyn's three simulated loops.

They are the reference for the library's simulation path, which filters LTI
loops through their closed-loop maps and runs LPV loops as one lifted matrix
recursion.  Each oracle evaluates the block diagram one sample at a time,
block by block, with the states of each block kept apart.
"""
import numpy as np


def controllable_canonical(tf):
    """(A, B, C, D) of a proper rational in controllable canonical form."""
    a = tf.den / tf.den[0]
    b_full = np.zeros(a.size)
    b_full[a.size - tf.num.size:] = tf.num / tf.den[0]
    n = a.size - 1
    d = b_full[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), np.zeros(0), float(d)
    a_mat = np.zeros((n, n))
    a_mat[0, :] = -a[1:]
    if n > 1:
        a_mat[1:, :-1] = np.eye(n - 1)
    b_vec = np.zeros(n)
    b_vec[0] = 1.0
    c_vec = b_full[1:] - d * a[1:]
    return a_mat, b_vec, c_vec, float(d)


def lpv_recursion(a0, a1, b, c, u, p, x0):
    """x_{k+1} = (A0 + p_k A1) x_k + B u_k,  y_k = C x_k."""
    x = x0.copy()
    y = np.zeros(u.shape[0])
    for k in range(u.shape[0]):
        y[k] = c @ x
        x = (a0 + p[k] * a1) @ x + b * u[k]
    return y


def closed_loop_recursion(a0, a1, b, c, an, bn, ad, bd, wbar, vbar,
                          p_lo, p_hi, r, p, d, overflow):
    """One-sample-consistent LPV loop: e = r - y, u = K_p e, plant input u + d.

    The controller is the series LFR N_K D_K^{-1} realized as two OBF banks
    sharing the D-inverse output; scheduling enters through monomials of the
    rescaled operating point.  Returns (e, u, y, diverged_index) with
    diverged_index = -1 on a clean run.
    """
    x, xn, xd = np.zeros(a0.shape[0]), np.zeros(an.shape[0]), np.zeros(ad.shape[0])
    e, u, y = np.zeros(r.shape[0]), np.zeros(r.shape[0]), np.zeros(r.shape[0])
    for k in range(r.shape[0]):
        yk = c @ x
        if not np.isfinite(yk) or abs(yk) > overflow:
            return e, u, y, k
        y[k] = yk
        e[k] = r[k] - yk
        pt = (p[k] - 0.5 * (p_hi + p_lo)) / (0.5 * (p_hi - p_lo))
        psi = pt ** np.arange(wbar.shape[1])
        w, v = wbar @ psi, vbar @ psi
        # D_K^{-1}: algebraic feedback around the unity feedthrough
        v_in = e[k] - v[1:] @ xd
        u[k] = w[0] * v_in + w[1:] @ xn
        xn, xd = an @ xn + bn * v_in, ad @ xd + bd * v_in
        x = (a0 + p[k] * a1) @ x + b * (u[k] + d[k])
    return e, u, y, -1


def lti_experiment_recursion(a_p, b, c, ak, bk, ck, dk, d, noise, overflow):
    """Frozen-plant closed-loop data experiment: r = 0, e = -(y + noise),
    u_G = K0 e + d.  Returns (u_G, y_measured, diverged_index)."""
    xg, xk = np.zeros(a_p.shape[0]), np.zeros(ak.shape[0])
    u_g, y = np.zeros(d.shape[0]), np.zeros(d.shape[0])
    for k in range(d.shape[0]):
        yk = c @ xg + noise[k]
        if not np.isfinite(yk) or abs(yk) > overflow:
            return u_g, y, k
        y[k] = yk
        u_g[k] = ck @ xk + dk * -yk + d[k]
        xk = ak @ xk + bk * -yk
        xg = a_p @ xg + b * u_g[k]
    return u_g, y, -1
