"""Hot numeric kernels, in numpy.

Three row-wise kernels, each called by name: the monomial feature rows of
the polynomial method (the fast engine's feature map), the bilinear form
``U[j] @ G @ V[j]`` per row (only the specification builder
``build_Pb_factors``) and the per-row sums of the hard-instance curve (the
probe).  Each is a few whole-array operations with no Python loop over rows.
The feature kernel loops over its basis' one run table, ``runs``, in one
of two schedules picked by the row length against ``SHORT_ROWS``.  The probe
kernel's one scratch buffer, L x n x n^2 for a block of L lambdas, is
updated in place, so the caller's block size bounds all of its scratch.
"""

import numpy as np

# The longest row of the k x n feature buffer (n = M's row count) that
# ``feature_rows`` fills against a gathered factor block; longer rows
# broadcast one degree-1 row per run.  Measured on a 2-vCPU Xeon VM (numpy
# 2.4.6), d = 2..4, g = 4..9: the factor block took 0.61-0.96 of the
# broadcast schedule's time at 192 to 2048 columns, 0.81-1.04 at 3072 and
# 1.04-1.68 at 6144.  grad_fast's rows are 3n long: 192 at n = 64, d = 3,
# and 6144 at n = 2048, d = 2.
SHORT_ROWS = 2048


def feature_rows(M, basis):
    """Raw monomials of each row of ``M`` over the graded ``basis``.

    Column 0 is the constant 1.  Columns 1..d are the degree-1 entries,
    M's columns: they are copied in one step (none exist when the basis is
    column 0 alone).  Each run of ``basis.runs``, (dst, src, factor, row),
    fills columns dst as columns src, filled earlier, times column
    ``row`` = 1 + v, the degree-1 entry of the run's variable v: one
    product per run, in one of two schedules chosen by the row length n of
    the k x n buffer the result transposes, which walk the same table:

    - up to ``SHORT_ROWS``, one fancy-index gather copies the degree-1 rows
      into a factor block, rows ``basis.factor_rows``: row 1 + v repeated
      as often as v's longest run.  Each run is then one product of
      contiguous rows, src times the block's rows ``factor``.  numpy runs a
      product that broadcasts one row over several through its buffered
      iterator, which nearly doubles its time at these lengths (1.7 against
      0.9 us for 6 x 192 entries);
    - past it, each run multiplies by row ``row`` broadcast, with no factor
      block; there the gather's extra pass and allocation cost more than
      the broadcast.

    Both do the same products in the same order, so their results agree
    bit for bit.  O(n k) work; the short schedule's factor block holds the
    longest run of each variable, the other schedule allocates nothing but
    the n x k output.

    The result is the transpose of a k x n buffer, so each block is a run of
    whole rows of that buffer.  ``M`` is read once, by that copy, in any
    layout.
    """
    d = M.shape[1]
    out = np.empty((basis.size, M.shape[0]))
    out[0] = 1.0
    out[1:d + 1] = M.T[:basis.size - 1]
    if M.shape[0] <= SHORT_ROWS:
        factors = out[basis.factor_rows]
        for dst, src, factor, _ in basis.runs:
            np.multiply(out[src], factors[factor], out=out[dst])
    else:
        for dst, src, _, row in basis.runs:
            np.multiply(out[src], out[row], out=out[dst])
    return out.T


def bilinear_rows(U, G, V):
    """``out[j] = U[j] @ G @ V[j]``: one GEMM, then a row-wise dot product."""
    return ((U @ G) * V).sum(axis=1)


def hard_probe_rows(H, V, lams):
    """Per-row (g, g', h, h', g''/h, h''/h) of the hard-instance curve at each of ``lams``.

    Returns an L x n x 6 array for L values of lambda.  With
    M_i = exp(lam * H[i]), r = sum M_i and A = M_i @ V: g = ||A||^2,
    h = r^2, and primes are derivatives in lam.  Each derivative multiplies
    M_i by H[i] once more: s = sum H o M_i and B = (H o M_i) @ V for the
    first, u = sum H^2 o M_i and C = (H^2 o M_i) @ V for the second, so
    g' = 2 A.B, h' = 2 r s, g'' = 2 (B.B + A.C) and h'' = 2 (s^2 + r u).
    The last two are returned over h and formed from A/r, B/r, C/r, s/r and
    u/r: s^2 and r u exceed r^2 by ~Ba^2, so the unnormalized g'' and h''
    overflow a double ahead of h.  Holds one L x n x n^2 buffer, updated in
    place: lam * H, then M, then H o M, then H^2 o M, each read before the
    next overwrites it.
    """
    M = np.asarray(lams, dtype=np.float64)[:, None, None] * H
    np.exp(M, out=M)
    r = M.sum(axis=2)
    A = M @ V
    M *= H
    s = M.sum(axis=2)
    B = M @ V
    M *= H
    u = M.sum(axis=2)
    C = M @ V
    out = np.empty(r.shape + (6,))
    out[..., 0] = (A * A).sum(axis=2)
    out[..., 1] = 2.0 * (A * B).sum(axis=2)
    out[..., 2] = r * r
    out[..., 3] = 2.0 * r * s
    rn = r[..., None]
    A /= rn
    B /= rn
    C /= rn
    s /= r
    out[..., 4] = 2.0 * (B * B + A * C).sum(axis=2)
    out[..., 5] = 2.0 * (s * s + u / r)
    return out
