"""References that share no code with tatkit, and the tolerances they are used with.

Everything here is plain numpy written from the defining formulas of the
third-order attention loss

    L(X) = 0.5 * || softmax_rows((A1 X)(A2 kron A3)^T / d) (V1 colkron V2) - E ||_F^2,

with X = X1 (X2^T rowkron X3^T), V1 = A4 Y1 and V2 = A5 Y2, and of the hard
curve f(lam) = || rownormalize(exp(lam H)) V ||_F^2.  An instance is any
object with the attributes A1..A5, E, X1, X2, X3, Y1, Y2.

Every tolerance is relative to the largest entry of the reference:

* ``FAST_RTOL`` is the accuracy a ``grad_fast`` caller asks for (eps).
* ``EXACT_RTOL``: ``grad_exact`` and :func:`check_instance_grad` are both
  exact, so only rounding separates them (measured below 1e-13).
* ``FD_STEP`` and :func:`fd_rtol`: a central difference with step h has
  truncation error ~h^2 |L'''| / 6 and rounding error ~u |L| / h
  (u = 2.2e-16).  At h = 1e-3 the truncation part measures below 1e-8 of
  the largest gradient entry; the rounding part grows with |L| / max|G|,
  so the gate is the larger of ``FD_RTOL`` and 20 u |L| / (h max|G|).
* ``PROBE_RTOL``: the printed f0, f1 are the same sums evaluated in another
  order, so only rounding separates them.
"""

import types

import numpy as np

BLOCKS = ("A1", "A2", "A3", "A4", "A5", "E", "X1", "X2", "X3", "Y1", "Y2")
FAST_RTOL = 1e-6
EXACT_RTOL = 1e-10
FD_STEP = 1e-3
FD_RTOL = 1e-6
PROBE_RTOL = 1e-12


def row_kron(a, b):
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def composite_x(inst):
    """X = X1 @ (X2^T rowkron X3^T), shape d x d^2."""
    return inst.X1 @ row_kron(inst.X2.T, inst.X3.T)


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def loss_at(inst, x):
    """The loss with the composite query-side variable set to ``x``."""
    n, d = inst.A1.shape
    f = _softmax_rows((inst.A1 @ x) @ np.kron(inst.A2, inst.A3).T / d)
    v1, v2 = inst.A4 @ inst.Y1, inst.A5 @ inst.Y2
    r = f @ (v1[:, None, :] * v2[None, :, :]).reshape(n * n, d) - inst.E
    return 0.5 * float((r * r).sum())


def fd_grad(inst, step=FD_STEP):
    """Central differences of :func:`loss_at` in every entry of X."""
    x0 = composite_x(inst)
    g = np.empty_like(x0)
    for idx in np.ndindex(*x0.shape):
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (loss_at(inst, xp) - loss_at(inst, xm)) / (2.0 * step)
    return g


def fd_rtol(inst, ref, step=FD_STEP):
    """Relative gate for :func:`fd_grad` against the gradient ``ref``."""
    loss0 = loss_at(inst, composite_x(inst))
    rounding = np.finfo(np.float64).eps * abs(loss0) / (step * np.abs(ref).max())
    return max(FD_RTOL, 20.0 * rounding)


def check_instance(inst, rows):
    """Blocks of ``inst`` with A1 zero outside ``rows`` and every A3 row = A3[0].

    Returned as a dict keyed by block name, ready for ``AttnInstance(n, d, **blocks)``.
    """
    blocks = {k: getattr(inst, k) for k in BLOCKS}
    a1 = np.zeros_like(inst.A1)
    a1[rows] = inst.A1[rows]
    blocks["A1"] = a1
    blocks["A3"] = np.repeat(inst.A3[:1], inst.A3.shape[0], axis=0)
    return blocks


def check_instance_grad(inst):
    """Exact gradient on an instance whose A3 rows are all equal.

    Then K2 = A3 X3 has one row c, so the score of (j0, j, l) does not
    depend on l: F[j0, (j, l)] = f[j0, j] / n with f a softmax over j, and
    every n^2-long sum collapses to a sum over j.  Rows j0 with A1[j0] = 0
    drop out of A1^T P, so the cost is O(|S| n d) for the support S of A1.
    """
    n, d = inst.A1.shape
    if not np.array_equal(inst.A3, np.repeat(inst.A3[:1], n, axis=0)):
        raise ValueError("check_instance_grad needs every row of A3 equal")
    s = np.flatnonzero(np.abs(inst.A1).sum(axis=1))
    a1 = inst.A1[s]
    q = a1 @ inst.X1
    k1 = inst.A2 @ inst.X2
    c = inst.A3[0] @ inst.X3
    v1 = inst.A4 @ inst.Y1
    m2 = (inst.A5 @ inst.Y2).mean(axis=0)
    f = _softmax_rows((q * c) @ k1.T / d)        # |S| x n
    vres = (f @ v1) * m2 - inst.E[s]             # |S| x d
    wbar = (vres * m2) @ v1.T                    # mean over l of W[j0, (j, l)]
    rho = (f * wbar).sum(axis=1)
    p = f * (wbar - rho[:, None])                # sum over l of P[j0, (j, l)]
    g3 = np.einsum("sa,sb,c->abc", a1, p @ inst.A2, inst.A3[0])
    return g3.reshape(d, d * d) / d


def probe_f(h, v, lam):
    """f(lam) = || rownormalize(exp(lam H)) V ||_F^2."""
    e = np.exp(lam * (h - h.max(axis=1, keepdims=True)))
    a = (e / e.sum(axis=1, keepdims=True)) @ v
    return float((a * a).sum())


def rel_err(g, ref):
    """max |g - ref| / max |ref|; inf when g is not finite or shapes differ."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape != ref.shape or not np.isfinite(g).all():
        return float("inf")
    return float(np.abs(g - ref).max() / np.abs(ref).max())


def parse_instance_text(text):
    """The blocks of a TATINST file as attributes (header and labels checked)."""
    lines = text.split("\n")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "TATINST":
        raise ValueError(f"not an instance file: {lines[0]!r}")
    n, d = int(head[1]), int(head[2])
    blocks, pos = {}, 1
    for name in BLOCKS:
        if lines[pos] != name:
            raise ValueError(f"expected block {name}, got {lines[pos]!r}")
        rows = n if name[0] in "AE" else d
        blocks[name] = np.array(
            [[float(t) for t in ln.split()] for ln in lines[pos + 1:pos + 1 + rows]]
        )
        pos += 1 + rows
    return types.SimpleNamespace(**blocks)


def parse_matrix_text(text):
    return np.array([[float(t) for t in ln.split()] for ln in text.strip().split("\n")])
