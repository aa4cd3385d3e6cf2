"""The one time-domain simulation kernel: a lifted linear recursion.

Loops that scheduling makes time-varying (the LPV plant alone, or the plant
closed with the LFR controller) are written as one recursion
z_{k+1} = A_cl(k) z_k + f_k from rest over the stacked state of every block
in the loop.  Several such loops of one state size (one per scheduling
record, say) advance together along a batch axis: each sample is one stacked
matrix-vector product over the batch, whose members stay independent.  The
caller builds A_cl and f for at most ``CHUNK`` sample-loops at a time, so
memory stays flat at any record length and batch size, and reads its
outputs off the stacked states.  LTI loops need no recursion here: they are
filtered through their closed-loop transfer functions (``RationalTf.filter``).

``NUMBA_ENABLED`` is always False, because lpvsyn compiles nothing.  It is
kept only for the environment stamp of ``perfbench/run.py``.
"""
import math

import numpy as np

NUMBA_ENABLED = False
CHUNK = 1024


def lifted_states(n, shape, chunk):
    """Yield ``(lo, hi, zs)`` for consecutive blocks covering samples
    0..n-1, where zs[j] = z_{lo+j} of shape ``(*batch, nz, 1)`` for the state
    shape ``shape = (*batch, nz)``, z_0 = 0 and z_{k+1} = A_cl(k) z_k + f_k.
    A block holds at most ``CHUNK // prod(batch)`` samples (at least one).

    ``chunk(lo, hi)`` returns A_cl(lo..hi-1) of shape (hi-lo, *batch, nz, nz)
    and f(lo..hi-1) of shape (hi-lo, *batch, nz, 1).  A consumer may stop
    early, for example at the first block whose outputs overflow.
    """
    *batch, nz = shape
    step = max(1, CHUNK // math.prod(batch))
    z = np.zeros((*batch, nz, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        a_cl, f = chunk(lo, hi)
        zs = np.empty((hi - lo + 1, *batch, nz, 1))
        zs[0] = z
        for a_k, f_k, z_k, z_next in zip(a_cl, f, zs, zs[1:]):
            np.matmul(a_k, z_k, out=z_next)
            z_next += f_k
        z = zs[-1]
        yield lo, hi, zs[:-1]


def first_bad_index(y, limit):
    """Index of the first sample of ``y`` that is not finite or exceeds
    ``limit`` in magnitude; -1 when there is none."""
    bad = np.flatnonzero(~np.isfinite(y) | (np.abs(y) > limit))
    return int(bad[0]) if bad.size else -1
