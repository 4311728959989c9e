"""Exact dense engine: forward pass, loss, intermediates, closed-form gradient.

Every softmax argument is computed, so the engine is cubic in n and guarded
by a sequence cap.  It serves as the ground-truth oracle for the low-rank
engine.  ``forward``, ``loss`` and ``grad_exact`` stream the n x n^2
attention matrix F through ``_row_blocks``, which runs the cap and
exp-limit checks once per call and then yields b rows of F at a time, with
b = ``block_len(n^2)``: the gradient holds one row block of F and one of
P = (W - r) * F, never a whole n x n^2 buffer.  ``attention_weights`` and
``compute_intermediates`` materialize the dense matrices through
``_scores`` as the specification the tests read.  H is always
``col_kron(V1, V2)`` of the projections.  Every dense stream, the
hard-curve probe included, takes its exp-limit test (``check_exp_limit``)
and its scratch budget (``block_len``) from here.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .lowrank import softmax_arg_bound
from .tensorops import col_kron, kron

DEFAULT_EXACT_CAP = 256
EXP_ARG_LIMIT = 700.0
FD_N_CAP = 8
FD_D_CAP = 4
# entries of a scratch block (1 MiB); of 2^15..2^18, the fastest at n=128
_BLOCK_ENTRIES = 1 << 17


def exact_cap():
    """Sequence-length cap for the dense engine (env TAT_EXACT_CAP overrides).

    Unset or empty gives ``DEFAULT_EXACT_CAP``; any other value must be a
    positive integer, or ``ValidationError`` names it.
    """
    raw = os.environ.get("TAT_EXACT_CAP", "")
    if not raw:
        return DEFAULT_EXACT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"TAT_EXACT_CAP must be a positive integer, got {raw!r}")
    return cap


def _check_cap(n):
    cap = exact_cap()
    if n > cap:
        raise ValidationError(
            f"exact engine capped at n <= {cap} (got n={n}); "
            f"set TAT_EXACT_CAP to override"
        )


def check_exp_limit(what, value):
    """Raise ``NumericalError`` unless ``value``, a bound on |exp arguments|, is
    within ``EXP_ARG_LIMIT``; a nan (an overflowed projection or lambda) fails."""
    if not value <= EXP_ARG_LIMIT:
        raise NumericalError(f"{what} {value:.6g} exceeds exp limit {EXP_ARG_LIMIT:g}")


def block_len(item_entries):
    """Items of ``item_entries`` doubles per scratch block, at least one."""
    return max(1, _BLOCK_ENTRIES // item_entries)


def _scores(inst, x=None, a23=None):
    """The n x n^2 softmax arguments, after the cap and exp-limit checks.

    By default they come from the projections, ``(Q / d) @ col_kron(K1, K2).T``,
    checked against the a-priori row bound.  A composite ``x`` (d x d^2)
    replaces the one derived from X1, X2, X3; those scores are checked
    against their realised maximum.  ``a23`` is ``kron(A2, A3)``, built here
    when not given.
    """
    _check_cap(inst.n)
    if x is None:
        q, k1, k2, _, _ = inst.projected()
        check_exp_limit("softmax argument bound", softmax_arg_bound(q, k1, k2))
        return (q / inst.d) @ col_kron(k1, k2).T
    if a23 is None:
        a23 = kron(inst.A2, inst.A3)
    scores = (inst.A1 @ x) @ a23.T / inst.d
    check_exp_limit("softmax argument max", float(np.abs(scores).max()))
    return scores


def _softmax_rows(scores):
    """Row softmax of a score buffer (``_scores`` or one row block), in place: F."""
    scores -= scores.max(axis=1)[:, None]
    np.exp(scores, out=scores)
    scores *= 1.0 / scores.sum(axis=1)[:, None]
    return scores


def attention_weights(inst):
    """Row-normalized attention matrix F, shape n x n^2."""
    return _softmax_rows(_scores(inst))


def _block_rows(n):
    """Rows b per row block of F: ``block_len(n^2)``, at most n."""
    return min(n, block_len(n * n))


def _row_blocks(inst):
    """H (n^2 x d) and an iterator over row blocks ``(rows, F_J, Y_J)`` of F.

    The cap and exp-limit checks run once, here, before anything n^2-sized
    is built.  Each block holds b = ``_block_rows(n)`` rows of the normalized
    F and their forward rows Y_J = F_J @ H.  F_J is a view of one buffer
    that the next block overwrites.
    """
    n = inst.n
    _check_cap(n)
    q, k1, k2, v1, v2 = inst.projected()
    check_exp_limit("softmax argument bound", softmax_arg_bound(q, k1, k2))
    h = col_kron(v1, v2)
    keys_t = np.ascontiguousarray(col_kron(k1, k2).T)
    q = q / inst.d
    b = _block_rows(n)

    def blocks():
        buf = np.empty((b, n * n))
        for lo in range(0, n, b):
            rows = slice(lo, min(lo + b, n))
            f = buf[:rows.stop - lo]
            np.matmul(q[rows], keys_t, out=f)
            _softmax_rows(f)
            yield rows, f, f @ h

    return h, blocks()


def forward(inst):
    """Attention output F @ H, shape n x d."""
    _, blocks = _row_blocks(inst)
    out = np.empty((inst.n, inst.d))
    for rows, _, y in blocks:
        out[rows] = y
    return out


def loss(inst):
    """0.5 * squared Frobenius distance between the forward pass and E."""
    r = forward(inst) - inst.E
    return 0.5 * float((r * r).sum())


def _loss_given_x(inst, x, a23, h):
    # a23 = kron(A2, A3) and h = col_kron(V1, V2) do not depend on x
    r = _softmax_rows(_scores(inst, x, a23)) @ h - inst.E
    return 0.5 * float((r * r).sum())


@dataclass(frozen=True)
class ExactIntermediates:
    """Dense intermediates of the gradient pipeline.

    F is the n x n^2 row-stochastic attention matrix, H the n^2 x d value
    matrix, Vres the n x d residual and W = Vres @ H.T.  P applies each
    row's softmax Jacobian to the matching row of W: P = (W - r) * F with
    r the row-wise dot product of F and W.  This is the dense
    specification: F, W and P are each a whole n x n^2 buffer here, while
    ``grad_exact`` forms them one row block at a time.
    """

    F: np.ndarray
    H: np.ndarray
    Vres: np.ndarray
    W: np.ndarray
    P: np.ndarray


def compute_intermediates(inst):
    f = _softmax_rows(_scores(inst))
    h = col_kron(*inst.projected()[3:])
    vres = f @ h - inst.E
    w = vres @ h.T
    p = w - np.einsum("ij,ij->i", f, w)[:, None]
    p *= f
    return ExactIntermediates(F=f, H=h, Vres=vres, W=w, P=p)


def grad_exact(inst):
    """Closed-form loss gradient w.r.t. the composite X, shape d x d^2.

    Computed as ``(A1.T @ P) @ kron(A2, A3) / d`` over the row blocks of
    ``_row_blocks``: each block's W_J = (Y_J - E_J) @ H.T is formed in a
    second block buffer and turned in place into P_J = (W_J - r_J) * F_J,
    and A1_J.T @ P_J is summed into a d x n^2 accumulator.  One GEMM with
    the n^2 x d^2 Kronecker factor (512 KiB at n=128, d=2) finishes it.
    """
    n = inst.n
    h, blocks = _row_blocks(inst)
    h_t = np.ascontiguousarray(h.T)
    acc = np.zeros((inst.d, n * n))
    part = np.empty_like(acc)
    wbuf = np.empty((_block_rows(n), n * n))
    for rows, f, y in blocks:
        w = wbuf[:f.shape[0]]
        y -= inst.E[rows]
        np.matmul(y, h_t, out=w)
        w -= np.einsum("ij,ij->i", f, w)[:, None]
        w *= f
        np.matmul(inst.A1[rows].T, w, out=part)
        acc += part
    return acc @ kron(inst.A2, inst.A3) / inst.d


def grad_fd(inst, step):
    """Central-difference gradient w.r.t. the composite X (slow oracle).

    Requires d*d^2 paired loss evaluations, so the instance must be tiny:
    n <= 8 and d <= 4.
    """
    if not 0 < step < math.inf:  # a nan fails too
        raise ValidationError(f"step must be positive and finite, got {step}")
    if inst.n > FD_N_CAP or inst.d > FD_D_CAP:
        raise ValidationError(
            f"finite differences capped at n <= {FD_N_CAP}, d <= {FD_D_CAP} "
            f"(got n={inst.n}, d={inst.d})"
        )
    d = inst.d
    x0 = inst.composite_x()
    a23 = kron(inst.A2, inst.A3)
    h = col_kron(*inst.projected()[3:])
    g = np.empty((d, d * d))
    for i in range(d):
        for j in range(d * d):
            xp = x0.copy()
            xp[i, j] += step
            lp = _loss_given_x(inst, xp, a23, h)
            xm = x0.copy()
            xm[i, j] -= step
            lm = _loss_given_x(inst, xm, a23, h)
            g[i, j] = (lp - lm) / (2.0 * step)
    return g
