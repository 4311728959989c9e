"""Hot numeric kernels, in numpy.

Three row-wise kernels that the engines call by name: the monomial feature
rows of the polynomial method, the bilinear form ``U[j] @ G @ V[j]`` per row,
and the per-row sums of the hard-instance curve.  Each is a few whole-array
operations with no Python loop over rows.
"""

import numpy as np


def feature_rows(M, parents, variables, bounds, weights):
    """Monomials of each row of ``M`` over a graded basis, times ``weights``.

    Column 0 is the constant 1, and column i > 0 is column ``parents[i]``
    times ``M[:, variables[i]]``.  Degree m fills columns
    ``bounds[m]:bounds[m + 1]`` from parents of degree m - 1 only, so one
    product per degree builds it.  ``weights=None`` leaves raw monomials.
    O(n k) work with no buffer larger than the n x k output.

    The result is the transpose of a k x n buffer: gathering whole rows of
    that buffer is a block copy, where gathering columns of an n x k one is
    a strided copy per entry.
    """
    mt = np.ascontiguousarray(M.T)
    out = np.empty((parents.shape[0], M.shape[0]))
    out[0] = 1.0
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        np.multiply(out[parents[lo:hi]], mt[variables[lo:hi]], out=out[lo:hi])
    if weights is not None:
        out *= weights[:, None]
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
