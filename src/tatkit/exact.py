"""Exact dense engine: forward pass, loss, intermediates, closed-form gradient.

Everything here materializes the full n x n^2 attention matrix, so it is
cubic in n and guarded by a sequence cap.  It serves as the ground-truth
oracle for the low-rank engine.  Every path builds its softmax arguments
through ``_scores``, which holds the cap and exp-limit checks, and
normalizes them in place.  The gradient holds three n x n^2 buffers at its
peak: F, W and P = (W - r) * F, contracted by two GEMMs.
"""

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


def _check_exp_bound(q, k1, k2):
    # every softmax argument is bounded by the row bound R that also sets the
    # fast engine's degree (lowrank.softmax_arg_bound); an overflowed
    # projection makes R nan, which must fail too
    bound = softmax_arg_bound(q, k1, k2)
    if not bound <= EXP_ARG_LIMIT:
        raise NumericalError(
            f"softmax argument bound {bound:.6g} exceeds exp limit {EXP_ARG_LIMIT:g}"
        )
    return bound


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
        _check_exp_bound(q, k1, k2)
        return (q / inst.d) @ col_kron(k1, k2).T
    if a23 is None:
        a23 = kron(inst.A2, inst.A3)
    scores = (inst.A1 @ x) @ a23.T / inst.d
    amax = float(np.abs(scores).max()) if scores.size else 0.0
    if not amax <= EXP_ARG_LIMIT:
        raise NumericalError(
            f"softmax argument bound {amax:.6g} exceeds exp limit {EXP_ARG_LIMIT:g}"
        )
    return scores


def _softmax_rows(scores):
    """Row softmax of a fresh ``_scores`` buffer, normalized in place: F."""
    scores -= scores.max(axis=1)[:, None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1)[:, None]
    return scores


def attention_weights(inst):
    """Row-normalized attention matrix F, shape n x n^2."""
    return _softmax_rows(_scores(inst))


def _value_matrix(inst):
    v1, v2 = inst.A4 @ inst.Y1, inst.A5 @ inst.Y2
    return col_kron(v1, v2)


def forward(inst):
    """Attention output F @ H, shape n x d."""
    return attention_weights(inst) @ _value_matrix(inst)


def loss(inst):
    """0.5 * squared Frobenius distance between the forward pass and E."""
    r = forward(inst) - inst.E
    return 0.5 * float((r * r).sum())


def _loss_given_x(inst, x, a23, h):
    # a23 = kron(A2, A3) and h = _value_matrix(inst) do not depend on x
    r = _softmax_rows(_scores(inst, x, a23)) @ h - inst.E
    return 0.5 * float((r * r).sum())


@dataclass(frozen=True)
class ExactIntermediates:
    """Dense intermediates of the gradient pipeline.

    F is the n x n^2 row-stochastic attention matrix, H the n^2 x d value
    matrix, Vres the n x d residual and W = Vres @ H.T.  P applies each
    row's softmax Jacobian to the matching row of W: P = (W - r) * F with
    r the row-wise dot product of F and W.  F, W and P are the only
    n x n^2 buffers.
    """

    F: np.ndarray
    H: np.ndarray
    Vres: np.ndarray
    W: np.ndarray
    P: np.ndarray


def compute_intermediates(inst):
    f = _softmax_rows(_scores(inst))
    h = _value_matrix(inst)
    vres = f @ h - inst.E
    w = vres @ h.T
    p = w - np.einsum("ij,ij->i", f, w)[:, None]
    p *= f
    return ExactIntermediates(F=f, H=h, Vres=vres, W=w, P=p)


def grad_exact(inst):
    """Closed-form loss gradient w.r.t. the composite X, shape d x d^2.

    Computed as ``(A1.T @ P) @ kron(A2, A3) / d``: two GEMMs, with the
    n^2 x d^2 Kronecker factor materialized (512 KiB at n=128, d=2).
    """
    p = compute_intermediates(inst).P
    return (inst.A1.T @ p) @ kron(inst.A2, inst.A3) / inst.d


def grad_fd(inst, step):
    """Central-difference gradient w.r.t. the composite X (slow oracle).

    Requires d*d^2 paired loss evaluations, so the instance must be tiny:
    n <= 8 and d <= 4.
    """
    if step <= 0:
        raise ValidationError(f"step must be positive, got {step}")
    if inst.n > FD_N_CAP or inst.d > FD_D_CAP:
        raise ValidationError(
            f"finite differences capped at n <= {FD_N_CAP}, d <= {FD_D_CAP} "
            f"(got n={inst.n}, d={inst.d})"
        )
    d = inst.d
    x0 = inst.composite_x()
    a23 = kron(inst.A2, inst.A3)
    h = _value_matrix(inst)
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
