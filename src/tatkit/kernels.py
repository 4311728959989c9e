"""Hot numeric kernels, in numpy.

Three row-wise kernels that the engines call by name: the monomial feature
rows of the polynomial method, the bilinear form ``U[j] @ G @ V[j]`` per row,
and the per-row sums of the hard-instance curve.  Each is a few whole-array
operations with no Python loop over rows.
"""

import numpy as np


def feature_rows(M, size, blocks):
    """Raw monomials of each row of ``M`` over a ``size``-entry graded basis.

    Column 0 is the constant 1.  Each row (dst, src, length, v) of
    ``blocks`` fills columns ``dst:dst + length`` as columns
    ``src:src + length``, filled earlier, times ``M[:, v]``: one product on
    contiguous slices, with no gather.  O(n k) work with no buffer larger
    than the n x k output.

    The result is the transpose of a k x n buffer, so each block is a run of
    whole rows of that buffer.
    """
    mt = np.ascontiguousarray(M.T)
    out = np.empty((size, M.shape[0]))
    out[0] = 1.0
    for dst, src, length, v in blocks.tolist():
        np.multiply(out[src:src + length], mt[v], out=out[dst:dst + length])
    return out.T


def bilinear_rows(U, G, V):
    """``out[j] = U[j] @ G @ V[j]``: one GEMM, then a row-wise dot product."""
    return ((U @ G) * V).sum(axis=1)


def hard_probe_rows(H, V, lam):
    """Per-row (g, g', h, h') of the hard-instance curve at ``lam``, n x 4.

    With M_i = exp(lam * H[i]): g = ||M_i @ V||^2, h = (sum M_i)^2, and
    g', h' their derivatives in lam.
    """
    Mh = np.exp(lam * H)
    HM = H * Mh
    r = Mh.sum(axis=1)
    s = HM.sum(axis=1)
    A = Mh @ V
    B = HM @ V
    out = np.empty((H.shape[0], 4))
    out[:, 0] = (A * A).sum(axis=1)
    out[:, 1] = 2.0 * (A * B).sum(axis=1)
    out[:, 2] = r * r
    out[:, 3] = 2.0 * r * s
    return out
