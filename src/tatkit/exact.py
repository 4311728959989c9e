"""Exact dense engine: forward pass, loss, intermediates, closed-form gradient.

Every softmax argument is computed, so the engine is cubic in n and guarded
by a sequence cap.  It serves as the ground-truth oracle for the low-rank
engine.  Every path is admitted once per call by ``_admit``: the cap check
and one exp-limit check of R, the largest of the per-row bounds r
(``lowrank.row_bounds`` of the projections' buffer) on the softmax
arguments.  ``forward``, ``loss`` and ``grad_exact`` share one kernel,
``_moments``.  It forms the unnormalized attention weights of
b = ``block_len(n^2)`` query rows at a time, exp(s - r[j0]) straight from
the score GEMM when 4 R is within the exp limit (a row max past it), and
reads each block once, by two Kronecker contractions (over l, then over
j) against the two key sides of ``lowrank.key_operands``, which the fast
engine reads too.  Per query row it keeps a (d+1)^3 moment tensor, from which the forward row
and the gradient row are read, so the forward rows of ``forward`` and
``grad_exact`` are the same bits.  No n x n^2 matrix exists besides one
block of weights.
``attention_weights`` and ``compute_intermediates`` materialize F, W and P
through ``_scores`` as the specification the tests read.  ``grad_fd``
shifts that one score matrix into all 2 d^3 perturbed ones as a single
batch, and adds one exp-limit check of the batch.  H is always
``col_kron(V1, V2)`` of the projections ``_admit`` returned, so each call
projects once.  Every dense stream, the hard-curve probe included, takes
its exp-limit test (``check_exp_limit``) and its scratch budget
(``block_len``) from here.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import lowrank
from .errors import NumericalError, ValidationError
from .tensorops import col_kron

DEFAULT_EXACT_CAP = 256
EXP_ARG_LIMIT = 700.0
FD_N_CAP = 8
FD_D_CAP = 4
# entries of a scratch block (1 MiB); of 2^15..2^18, the fastest at n=128
_BLOCK_ENTRIES = 1 << 17
# multiply-adds of the largest BLAS call OpenBLAS keeps on one thread
_GEMM_MACS = 1 << 18


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


def _within_exp_limit(value):
    """Whether ``value``, a bound on |exp arguments|, is within ``EXP_ARG_LIMIT``;
    a nan is not."""
    return value <= EXP_ARG_LIMIT


def check_exp_limit(what, value):
    """Raise ``NumericalError`` unless ``value``, a bound on |exp arguments|, is
    within ``EXP_ARG_LIMIT``; a nan (an overflowed projection or lambda) fails."""
    if not _within_exp_limit(value):
        raise NumericalError(f"{what} {value:.6g} exceeds exp limit {EXP_ARG_LIMIT:g}")


def block_len(item_entries):
    """Items of ``item_entries`` doubles per scratch block, at least one."""
    return max(1, _BLOCK_ENTRIES // item_entries)


def _admit(inst):
    """The projections (Q, K1, K2, V1, V2) and the row bounds r, after the checks.

    r is ``lowrank.row_bounds`` of the projections' buffer: row j0's scores
    lie in [-r[j0], r[j0]].  The cap is checked first, then R = max r
    against the exp limit.
    """
    _check_cap(inst.n)
    proj = inst.projected()
    r = lowrank.row_bounds(proj[0].base[:, :3 * inst.n], inst.n)[0]
    check_exp_limit("softmax argument bound", float(r.max()))
    return proj, r


def _scores(inst, proj=None):
    """The n x n^2 softmax arguments ``(Q / d) @ col_kron(K1, K2).T``, admitted.

    A caller that needs the values too passes the projections it took from
    ``_admit(inst)``; otherwise they are admitted here.
    """
    q, k1, k2, _, _ = _admit(inst)[0] if proj is None else proj
    return (q / inst.d) @ col_kron(k1, k2).T


def _softmax_rows(scores):
    """Softmax over the last axis of a ``_scores`` buffer or a stack of them, in place: F."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores *= 1.0 / scores.sum(axis=-1, keepdims=True)
    return scores


def attention_weights(inst):
    """Row-normalized attention matrix F, shape n x n^2."""
    return _softmax_rows(_scores(inst))


def _block_rows(n):
    """Rows b per row block of the weights: ``block_len(n^2)``, at most n."""
    return min(n, block_len(n * n))


def _matmul_rows(a, b, out):
    """``out = a @ b`` in row chunks of at most ``_GEMM_MACS`` multiply-adds.

    OpenBLAS keeps a product of up to 2^18 multiply-adds on one thread and
    spreads one of 2^19 or more over every core.  On a shared 2-vCPU host
    such threaded calls stalled for ~8 ms at a time, while one-thread chunks
    ran as fast; chunks of 2^18 ran the moment kernel ~6% faster than
    chunks of 2^17.
    """
    step = max(1, _GEMM_MACS // b.size)
    for lo in range(0, a.shape[0], step):
        np.matmul(a[lo:lo + step], b, out=out[lo:lo + step])


def _moments(inst):
    """Forward rows Y (n x d) and the unnormalized attention moments T.

    T (n x (d+1)^3) holds, per query row j0 with unnormalized weights
    w = exp(s - c[j0]) and M' = [1 | M] for each n x d matrix M,

        T[j0, b, e, f] = sum_{j,l} w[j0, (j, l)] V1'[j, b] V2'[l, b] A2'[j, e] A3'[l, f],

    so T[j0, 0, 0, 0] is the row total, Y_j0 = T[j0, 1:, 0, 0] / total and
    T[j0, :, 1:, 1:] is what the gradient contracts.  A shift c[j0] scales
    row j0 of T by e^-c[j0], and every output is a ratio within one row, so
    any shift that keeps the row's weights finite and its total nonzero
    gives the same outputs up to rounding.  ``_admit`` runs once, here,
    before anything n^2-sized is built, and its row bounds r place every
    score of row j0 in [-r[j0], r[j0]].

    Each block of ``_block_rows(n)`` query rows J forms its weights in one
    |J|*n x n buffer by one GEMM, [Q_J * K1 | -c_J] @ [K2.T / d ; 1], which
    gives s - c[j0], and one in-place exp.  With c = r every weight lies in
    [e^-2R, 1], so no row max is taken.  That scales a row's moments by as
    little as e^-2R against the row-max form, and small values then sink
    into subnormals: at R = 349 a row of equal scores -R with value
    products near 1e-16 read ``forward`` 5e-6 off.  So c = r only while
    4 R is within the exp limit, which keeps e^-350 (~1e-152) of range in
    hand.  Past that, c = 0 and the row max is subtracted after the GEMM,
    as it must be: a row's largest weight could underflow to 0 (a 1 x 1
    instance with score -400 would give 0 / 0).  The block is then read once:
    stage 1 contracts l, w @ row_kron(V2', A3') with an n x (d+1)^2
    operand; stage 2 contracts j against row_kron(V1', A2'), one matmul
    batched over (j0, b).  Both are sides of ``lowrank.key_operands``.  No
    BLAS call exceeds ``_GEMM_MACS`` multiply-adds (see ``_matmul_rows``).
    Nothing else is of size n^2.
    """
    n, d = inst.n, inst.d
    (q, k1, k2, v1, v2), r = _admit(inst)
    fold = _within_exp_limit(4.0 * float(r.max()))  # c = r, else c = 0 and a row max
    d1 = d + 1  # columns of [1 | M]
    over_j, over_l = lowrank.key_operands(inst, v1, v2)  # (b, e, j) and (b, f, l)
    # stage 1 reads side 1 as (l, (b, f)) in C order: one-thread OpenBLAS
    # ran the chunked GEMM ~2x slower against the transposed view
    over_l = np.ascontiguousarray(over_l.reshape(d1 * d1, n).T)
    keys = np.empty((d1, n))  # [K2.T / d ; 1]
    np.divide(k2.T, d, out=keys[:d])
    keys[d] = 1.0
    block = _block_rows(n)
    # [Q_J * K1 | -c_J] transposed, one column per (j0, j): filled by
    # contiguous writes and read by BLAS as a transposed operand
    lhs_buf = np.empty((d1, block, n))
    w_buf = np.empty((block * n, n))
    s1_buf = np.empty((block * n, d1 * d1))
    t = np.empty((n, d1, d1, d1))
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        m = (rows.stop - lo) * n
        lhs, w, s1 = lhs_buf[:, :rows.stop - lo], w_buf[:m], s1_buf[:m]
        np.multiply(q.T[:, rows, None], k1.T[:, None, :], out=lhs[:d])
        lhs[d] = -r[rows, None] if fold else 0.0
        _matmul_rows(lhs.reshape(d1, m).T, keys, w)
        flat = w.reshape(-1, n * n)
        if not fold:
            flat -= np.max(flat, axis=1, keepdims=True)
        np.exp(flat, out=flat)
        _matmul_rows(w, over_l, s1)
        np.matmul(over_j, s1.reshape(-1, n, d1, d1).transpose(0, 2, 1, 3), out=t[rows])
    return t[:, 1:, 0, 0] / t[:, :1, 0, 0], t


def forward(inst):
    """Attention output F @ H, shape n x d."""
    return _moments(inst)[0]


def loss(inst):
    """0.5 * squared Frobenius distance between the forward pass and E."""
    r = forward(inst) - inst.E
    return 0.5 * float((r * r).sum())


@dataclass(frozen=True)
class ExactIntermediates:
    """Dense intermediates of the gradient pipeline.

    F is the n x n^2 row-stochastic attention matrix, H the n^2 x d value
    matrix, Vres the n x d residual and W = Vres @ H.T.  P applies each
    row's softmax Jacobian to the matching row of W: P = (W - r) * F with
    r the row-wise dot product of F and W.  This is the dense
    specification: F, W and P are each a whole n x n^2 buffer here, while
    ``grad_exact`` forms none of them.
    """

    F: np.ndarray
    H: np.ndarray
    Vres: np.ndarray
    W: np.ndarray
    P: np.ndarray


def compute_intermediates(inst):
    proj, _ = _admit(inst)
    f = _softmax_rows(_scores(inst, proj))
    h = col_kron(*proj[3:])
    vres = f @ h - inst.E
    w = vres @ h.T
    p = w - np.einsum("ij,ij->i", f, w)[:, None]
    p *= f
    return ExactIntermediates(F=f, H=h, Vres=vres, W=w, P=p)


def grad_exact(inst):
    """Closed-form loss gradient w.r.t. the composite X, shape d x d^2.

    Specified as ``(A1.T @ P) @ kron(A2, A3) / d`` with P = (W - r) * F,
    W = U2 @ H.T, U2 = Y - E and r = <Y, U2> per row.  Row j0 of P summed
    against the Kronecker columns over the key pairs (j, l) is
    (sum_b U2_b T[b, 1:, 1:] - r T[0, 1:, 1:]) / total in the moments T of
    ``_moments``, which is sum_b U2_b C_b with the centered moments
    C_b = (T[b, 1:, 1:] - Y_b T[0, 1:, 1:]) / total.  The gradient is one
    contraction of those rows with A1: W, P, H and kron(A2, A3) are never
    formed.  At n = 1 the one attention weight is 1 for every X, so the
    gradient is exactly 0; it is returned as such, after the checks.  A
    gradient whose last contraction overflows raises ``NumericalError``.
    """
    n, d = inst.n, inst.d
    y, t = _moments(inst)
    if n == 1:
        return np.zeros((d, d * d))
    c = t[:, 1:, 1:, 1:] - y[:, :, None, None] * t[:, :1, 1:, 1:]  # (j0, b, e, f)
    z = ((y - inst.E) / t[:, :1, 0, 0])[:, :, None] * inst.A1[:, None, :]  # (j0, b, a)
    with np.errstate(over="ignore", invalid="ignore"):
        g = z.reshape(-1, d).T @ c.reshape(-1, d * d) / d
    if not np.isfinite(g).all():
        raise NumericalError("non-finite gradient: the last contraction overflowed")
    return g


def grad_fd(inst, step):
    """Central-difference gradient w.r.t. the composite X (slow oracle).

    The scores are A1 X kron(A2, A3)^T / d, linear in X, so moving X[a, (b, c)]
    by +-step moves score (i, (j, l)) by +-step A1[i, a] A2[j, b] A3[l, c] / d.
    All 2 d^3 perturbed score matrices are one 2 x d^3 x n x n^2 batch: those
    shifts, added to ``_scores`` once.  Admission is ``grad_exact``'s (the cap
    and the row bound, in ``_admit``, whose projections also give H) plus
    one exp-limit check of the batch's largest |score|; a nan fails it.  The
    caps n <= 8 and d <= 4 keep the batch at or below 2 * 4^3 * 8^3 entries,
    half a scratch block.
    """
    if not 0 < step < math.inf:  # a nan fails too
        raise ValidationError(f"step must be positive and finite, got {step}")
    if inst.n > FD_N_CAP or inst.d > FD_D_CAP:
        raise ValidationError(
            f"finite differences capped at n <= {FD_N_CAP}, d <= {FD_D_CAP} "
            f"(got n={inst.n}, d={inst.d})"
        )
    n, d = inst.n, inst.d
    proj, _ = _admit(inst)
    scores = _scores(inst, proj)
    z = np.empty((2, d, d, d, n, n, n))  # (sign, a, b, c, i, j, l)
    np.einsum("ia,jb,lc->abcijl", inst.A1, inst.A2, inst.A3 * (step / d), out=z[0])
    np.negative(z[0], out=z[1])
    z = z.reshape(2, d ** 3, n, n * n)
    z += scores
    check_exp_limit("softmax argument max", np.maximum(z.max(), -z.min()))
    r = _softmax_rows(z) @ col_kron(*proj[3:]) - inst.E
    r *= r
    losses = 0.5 * r.reshape(2, d ** 3, n * d).sum(axis=-1)
    return ((losses[0] - losses[1]) / (2.0 * step)).reshape(d, d * d)
