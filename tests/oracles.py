"""Independent slow oracles used to freeze and cross-check expected values.

Everything here is written with explicit loops straight from the defining
formulas, deliberately sharing no code path with the library's vectorized
implementations.  The one exception is ``feature_rows_gather``, the earlier
gather form of the feature recurrence, kept as a bit-exact reference.
"""

import math

import numpy as np


def kron_loops(a, b):
    n1, d1 = a.shape
    n2, d2 = b.shape
    out = np.zeros((n1 * n2, d1 * d2))
    for i1 in range(n1):
        for i2 in range(n2):
            for j1 in range(d1):
                for j2 in range(d2):
                    out[i1 * n2 + i2, j1 * d2 + j2] = a[i1, j1] * b[i2, j2]
    return out


def col_kron_loops(a, b):
    n1, d = a.shape
    n2 = b.shape[0]
    out = np.zeros((n1 * n2, d))
    for i1 in range(n1):
        for i2 in range(n2):
            for j in range(d):
                out[i1 * n2 + i2, j] = a[i1, j] * b[i2, j]
    return out


def row_kron_loops(a, b):
    n, d1 = a.shape
    d2 = b.shape[1]
    out = np.zeros((n, d1 * d2))
    for i in range(n):
        for j1 in range(d1):
            for j2 in range(d2):
                out[i, j1 * d2 + j2] = a[i, j1] * b[i, j2]
    return out


def feature_rows_loops(m, exponents, weights):
    """out[i, j] = weights[j] * prod_t m[i, t] ** exponents[j, t], one entry at a time."""
    n = m.shape[0]
    k, d = exponents.shape
    out = np.zeros((n, k))
    for i in range(n):
        for j in range(k):
            v = float(weights[j])
            for t in range(d):
                v *= float(m[i, t]) ** int(exponents[j, t])
            out[i, j] = v
    return out


def feature_rows_gather(m, parents, variables, bounds):
    """The raw feature rows by one fancy-index gather per degree.

    Column i > 0 is column ``parents[i]`` times ``m[:, variables[i]]``, one
    whole degree ``bounds[g]:bounds[g + 1]`` at a time; every entry is one
    product, as in the library's slice recurrence, so the two agree bit for bit.
    """
    mt = np.ascontiguousarray(m.T)
    out = np.empty((parents.shape[0], m.shape[0]))
    out[0] = 1.0
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        np.multiply(out[parents[lo:hi]], mt[variables[lo:hi]], out=out[lo:hi])
    return out.T


def odot3_tensor_loops(u, v, w):
    n, k = u.shape
    t = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                t[i, j, l] = sum(u[i, a] * v[j, a] * w[l, a] for a in range(k))
    return t


def third_mode_loops(x3, a1, a2, a3):
    n = a1.shape[0]
    d1, d2, d3 = x3.shape
    out = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for l in range(n):
                acc = 0.0
                for a in range(d1):
                    for b in range(d2):
                        for c in range(d3):
                            acc += x3[a, b, c] * a1[i, a] * a2[j, b] * a3[l, c]
                out[i, j, l] = acc
    return out


def attention_rows(inst):
    """Row-normalized attention matrix, n x n^2, from the raw definition."""
    n, d = inst.n, inst.d
    q = inst.A1 @ inst.X1
    k1 = inst.A2 @ inst.X2
    k2 = inst.A3 @ inst.X3
    f = np.zeros((n, n * n))
    for j0 in range(n):
        for j in range(n):
            for l in range(n):
                s = sum(q[j0, a] * k1[j, a] * k2[l, a] for a in range(d)) / d
                f[j0, j * n + l] = math.exp(s)
        f[j0] /= f[j0].sum()
    return f


def value_rows(inst):
    n, d = inst.n, inst.d
    v1 = inst.A4 @ inst.Y1
    v2 = inst.A5 @ inst.Y2
    h = np.zeros((n * n, d))
    for j in range(n):
        for l in range(n):
            for i0 in range(d):
                h[j * n + l, i0] = v1[j, i0] * v2[l, i0]
    return h


def forward_dense(inst):
    return attention_rows(inst) @ value_rows(inst)


def loss_dense(inst):
    r = forward_dense(inst) - inst.E
    return 0.5 * float((r * r).sum())


def p_rows_dense(inst):
    """P via the literal per-row Jacobian formula (diag(F_j) - F_j F_j^T) W_j."""
    f = attention_rows(inst)
    h = value_rows(inst)
    vres = f @ h - inst.E
    w = vres @ h.T
    n = inst.n
    p = np.zeros_like(w)
    for j0 in range(n):
        jac = np.diag(f[j0]) - np.outer(f[j0], f[j0])
        p[j0] = jac @ w[j0]
    return f, h, vres, w, p


def hard_curve_dense(hi, lam):
    """f(lam) from the raw definition: normalize exp(lam H) rows, square-sum."""
    m = np.exp(lam * hi.H)
    g = m / m.sum(axis=1)[:, None]
    gv = g @ hi.V
    return float((gv * gv).sum())


def hard_curve_rowsum(hi, lam):
    """f(lam) as the per-row double-sum quotient, the other route."""
    n = hi.n
    total = 0.0
    for i in range(n):
        e = np.exp(lam * hi.H[i])
        h = e.sum() ** 2
        g = 0.0
        for l in range(hi.d):
            sel = hi.V[:, l] == 1.0
            g += e[sel].sum() ** 2
        total += g / h
    return total
