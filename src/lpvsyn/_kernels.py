"""The one time-domain simulation kernel: a lifted linear recursion.

Loops that scheduling makes time-varying (the LPV plant alone, or the plant
closed with the LFR controller) are written as one recursion
z_{k+1} = A_cl(k) z_k + f_k from rest over the stacked state of every block
in the loop.  The caller builds A_cl and f for at most ``CHUNK`` samples at a
time, so memory stays flat at any record length, and reads its outputs off
the stacked states.  LTI loops need no recursion here: they are filtered
through their closed-loop transfer functions (``RationalTf.filter``).

``NUMBA_ENABLED`` is always False, because lpvsyn compiles nothing.  It is
kept only for the environment stamp of ``perfbench/run.py``.
"""
import numpy as np

NUMBA_ENABLED = False
CHUNK = 1024


def lifted_states(n, nz, chunk):
    """Yield ``(lo, hi, zs)`` with zs[j] = z_{lo+j} for consecutive blocks of
    at most ``CHUNK`` samples covering 0..n-1, where z_0 = 0 and
    z_{k+1} = A_cl(k) z_k + f_k.

    ``chunk(lo, hi)`` returns A_cl(lo..hi-1) of shape (hi-lo, nz, nz) and
    f(lo..hi-1) of shape (hi-lo, nz).  A consumer may stop early, for example
    at the first block whose outputs overflow.
    """
    z = np.zeros(nz)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        a_cl, f = chunk(lo, hi)
        zs = np.empty((hi - lo, nz))
        for k in range(hi - lo):
            zs[k] = z
            z = a_cl[k] @ z + f[k]
        yield lo, hi, zs


def first_bad_index(y, limit):
    """Index of the first sample of ``y`` that is not finite or exceeds
    ``limit`` in magnitude; -1 when there is none."""
    bad = np.flatnonzero(~np.isfinite(y) | (np.abs(y) > limit))
    return int(bad[0]) if bad.size else -1
