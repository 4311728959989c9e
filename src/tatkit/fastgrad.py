"""Almost-linear gradient engine.

The gradient is a sum over the factor triples of F o W (Pa) and of Pb,
contracted against A1, A2 and A3.  The builders ``build_residual_U2``,
``build_W_factors``, ``build_Pa_factors`` and ``build_Pb_factors``, with
:func:`~tatkit.lowrank.build_F_factors`, form those triples explicitly and
are the specification.  :func:`grad_fast` calls none of them and builds no
factor triple; it computes the same contractions in five stages:

- ``feature_map``: ``lowrank.staged_features`` at eps / 2, the admission
  and the k1 x 3n buffer Phi of raw monomials of [K1; K2; Q], scaled so
  that none exceeds 1, with the weights c in log space.  Every weight goes
  on a k1-sized result only.
- ``key_contract``: one GEMM per key side, Phi(K1) and Phi(K2) against
  the two sides of ``lowrank.key_operands``, row_kron([1 | A4 Y1], [1 | A2])
  and row_kron([1 | A5 Y2], [1 | A3]).  Each yields that side's Pa and Pb
  contractions, its half of the residual's middle factor
  mid = (V1^T V2) * (W1^T W2), which is also Pb's Gram, and its column
  sums.
- ``residual_u2``: one GEMM of c * [s ; mid^T] against Phi(Q)^T gives the
  row normalizer d~ and Y = U1 @ mid; then U2 = Y - E and
  R~ = rowsum(Y * U2).
- ``query_contract``: one GEMM of Phi(Q)^T against
  row_kron(A1, [-R~ | U2] / d~), times c, gives the A1 side of Pb and Pa.
  U1 = Phi(Q) diag(c) / d~ is never formed.
- ``assemble``: the d x d^2 gradient from the three d x k5 contractions.

Operand layouts.  Both sides of a GEMM are read in place: Phi's blocks as
k1 x n row blocks of the k1 x 3n buffer, the key operands as the transpose
of ``key_operands``' 2 x (d+1)^2 x n buffer and the query operand as the
transpose of its d(d+1) x n rows.  One-thread OpenBLAS multiplies a
C-contiguous n x (d+1)^2 key operand faster at d = 3 and n <= 256, but
copying the operand into that layout cost more than the GEMM saved at
d = 2, and whole calls at n = 64, d = 3 read 3-7% slower with the copy; an
n-major query operand cost more to write than its GEMM saved.

No step ever materializes an n x n^2 (or even n x n) buffer.  The largest is
the feature buffer, 3 n k1 entries; every other one is O(n d^2).  The report
carries what the call chose (degree, ranks, R and the stage timings);
``eps_target``, which nothing on the gradient path needs, is computed when
the report's reader first asks for it.  No array the call allocated
outlives it.
"""

import functools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels, lowrank
from .errors import NumericalError, ValidationError
from .lowrank import (  # noqa: F401  (build_F_factors: the specification, kept importable here)
    RANK_CAP, LowRankTriple, build_F_factors, check_row_normalizer,
)
from .tensorops import row_kron

EPS_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class FastGradientReport:
    """Output of :func:`grad_fast` plus rank/ timing/ error bookkeeping.

    ``k1`` is the feature rank C(d+g, g) at ``degree`` g, ``k2`` = d the rank
    of W, ``k3`` = k1*d and ``k4`` = k1 the ranks of Pa and Pb, and ``k5``
    their sum, the length of the contractions the gradient is assembled
    from.  ``arg_bound`` is the bound R on the softmax arguments, the largest
    row bound of :func:`~tatkit.lowrank.row_bounds`, and ``degree`` is
    ``choose_degree(arg_bound, eps / 2)``: half of the caller's eps goes to
    the attention factors.  A reported call passed the one cap check,
    k1*d <= ``RANK_CAP``.  ``stage_timings`` holds the seconds spent in
    each stage of the module docstring: ``feature_map``, which also covers
    the projection, R and the degree, ``key_contract``, ``residual_u2``,
    ``query_contract`` and ``assemble``.

    ``eps_target`` is computed when first read, then kept: a worst-case
    bound on the gradient error from that eps / 2, n and the instance
    magnitudes, not the degree or R, and very loose (135 against a measured
    max error of 2.3e-13 at eps 1e-6 on ``random_instance(64, 2, 0.8, 1)``).
    For it the report holds the caller's instance, whose arrays are
    read-only, eps / 2 and max |U2| (``_budget``), and no array the call
    allocated; the instance is projected again on that first read.
    """

    g_tilde: np.ndarray
    k1: int
    k2: int
    k3: int
    k4: int
    k5: int
    degree: int
    arg_bound: float
    stage_timings: dict
    _budget: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def eps_target(self):
        return _error_budget(*self._budget)


def build_residual_U2(inst, f_factors):
    """Residual U2 = U1 @ ((V1.T @ A4 Y1) * (W1.T @ A5 Y2)) - E, shape n x d.

    The middle factor applies the Gram trick, so the cost is O(n k1 d) and
    the n^2-row value matrix never exists.
    """
    _, _, _, v1h, v2h = inst.projected()
    mid = (f_factors.V.T @ v1h) * (f_factors.W.T @ v2h)
    return f_factors.U @ mid - inst.E


def build_W_factors(inst, u2):
    """Factor triple for W: (U2, A4 Y1, A5 Y2), rank d (exact given U2)."""
    u2 = np.asarray(u2, dtype=np.float64)
    if u2.shape != (inst.n, inst.d):
        raise ValidationError(
            f"u2 must have shape ({inst.n}, {inst.d}), got {u2.shape}"
        )
    _, _, _, v1h, v2h = inst.projected()
    return LowRankTriple(U=u2, V=v1h, W=v2h)


def build_Pa_factors(f_factors, w_factors):
    """Factor triple for Pa = F o W via row-wise products, rank k1*k2."""
    if f_factors.n != w_factors.n:
        raise ValidationError(
            f"factor row counts differ: {f_factors.n} vs {w_factors.n}"
        )
    k3 = f_factors.k * w_factors.k
    if k3 > RANK_CAP:
        raise ValidationError(f"Pa rank k1*k2 = {k3} exceeds rank cap {RANK_CAP}")
    return LowRankTriple(
        U=row_kron(f_factors.U, w_factors.U),
        V=row_kron(f_factors.V, w_factors.V),
        W=row_kron(f_factors.W, w_factors.W),
    )


def build_Pb_factors(f_factors, w_factors):
    """Factor triple for Pb (rows R_j * F_j) plus the per-row scalars R.

    R[j] = U1[j] @ ((V1.T V2) * (W1.T W2)) @ U2[j]; the two k1 x k2 Gram
    matrices are formed once, then each row costs O(k1 k2).
    """
    if f_factors.n != w_factors.n:
        raise ValidationError(
            f"factor row counts differ: {f_factors.n} vs {w_factors.n}"
        )
    gram = (f_factors.V.T @ w_factors.V) * (f_factors.W.T @ w_factors.W)
    r_tilde = kernels.bilinear_rows(f_factors.U, gram, w_factors.U)
    triple = LowRankTriple(
        U=r_tilde[:, None] * f_factors.U,
        V=f_factors.V,
        W=f_factors.W,
    )
    return triple, r_tilde


def _error_budget(inst, eps_f, u2_max):
    # worst-case amplification of the entrywise F error through the pipeline;
    # rows of the (approximate) attention matrix sum to 1 and stay in (0, 1].
    # u2_max is max |U2|, and h_inf is max |col_kron(A4 Y1, A5 Y2)| without
    # forming it: the largest product of the W factors' column maxima
    n, d = inst.n, inst.d
    col_max = lowrank.row_bounds(inst.projected()[0].base, n)[1]
    h_inf = float((col_max[:, 3] * col_max[:, 4]).max())
    delta_f = eps_f
    delta_v = min(2.0, n * n * delta_f) * h_inf
    w_inf = d * (u2_max + delta_v) * h_inf
    delta_w = d * delta_v * h_inf
    delta_pa = delta_w + delta_f * w_inf
    delta_r = delta_w + n * n * delta_f * w_inf
    delta_pb = delta_r + delta_f * w_inf
    delta_p = delta_pa + delta_pb
    amp = (
        float(np.abs(inst.A1).max())
        * float(np.abs(inst.A2).max())
        * float(np.abs(inst.A3).max())
    )
    return (n ** 3 / d) * amp * delta_p


def grad_fast(inst, eps):
    """Approximate gradient w.r.t. the composite X in near-linear time.

    The admission (R, the degree at eps / 2 and the one k1*d cap check,
    raising ``ValidationError``) and the features are
    ``lowrank.staged_features``; the stages are those of the module
    docstring, and the result matches the explicit factor builders within
    rounding.  An eps outside (0, 1), nan included, is rejected before any
    projection.  A nonpositive or non-finite row normalizer raises
    ``NumericalError``, and so does a gradient whose last contraction
    overflows.
    """
    if not eps < 1:  # a nan fails too
        raise ValidationError(f"eps must be below 1, got {eps}")
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if eps < EPS_NOISE_FLOOR:
        warnings.warn(
            f"eps={eps:g} is below {EPS_NOISE_FLOOR:g}; double-precision "
            f"rounding noise will dominate the approximation error"
        )
    n, d = inst.n, inst.d
    eps_f = eps / 2.0

    t0 = time.perf_counter()
    (_, _, _, v1, v2), arg_bound, basis, phi_t, c = lowrank.staged_features(inst, eps_f)
    k1 = phi_t.shape[0]
    t1 = time.perf_counter()

    # Phi of each side's keys against its key_operands side, read as
    # [e, b, :] over e, b <= d (index 0 the constant): e > 0 is the Pa
    # contraction for b > 0 and the Pb row A^T Phi for b = 0, e = 0 the
    # Gram V^T Phi for b > 0 and the column sums of Phi for b = 0
    ops = lowrank.key_operands(inst, v1, v2).reshape(2, -1, n)
    phi_keys = phi_t[:, :2 * n].reshape(k1, 2, n).transpose(1, 0, 2)
    key = (phi_keys @ ops.transpose(0, 2, 1)).transpose(0, 2, 1)
    key = key.reshape(2, d + 1, d + 1, k1).transpose(0, 2, 1, 3)
    del ops
    g2 = key[0, 1:].reshape(d, -1)
    g3 = key[1, 1:].reshape(d, -1)
    # c * [s ; mid^T]: mid = (V1^T V2) * (W1^T W2) is the residual's
    # middle factor and Pb's Gram alike, s the column sums behind the row
    # normalizer
    weighted = key[0, 0] * key[1, 0]
    weighted *= c
    t2 = time.perf_counter()

    # [1 ; Y^T] * d_tilde in one GEMM, Y = U1 @ mid the attention output
    phi_q_t = phi_t[:, 2 * n:]
    yd = weighted @ phi_q_t
    d_tilde = yd[0]
    check_row_normalizer(d_tilde)
    y_t = yd[1:] / d_tilde
    # z = [R | U2], U2 = Y - E and R = rowsum(Y * U2)
    z = np.empty((d + 1, n))
    u2_t = np.subtract(y_t, inst.E.T, out=z[1:])
    np.add.reduce(y_t * u2_t, axis=0, out=z[0])
    u2_max = float(np.maximum.reduce(np.abs(u2_t), axis=None))
    t3 = time.perf_counter()

    # query side: Phi(Q)^T @ row_kron(A1, [-R | U2] / d_tilde), times c,
    # is [-Pb | Pa] contracted against A1, with U1 = Phi(Q) diag(c) / d_tilde
    np.negative(z[0], out=z[0])
    z /= d_tilde
    query_op = np.empty((d, d + 1, n))
    np.multiply(inst.A1.T[:, None, :], z[None, :, :], out=query_op)
    g1 = (phi_q_t @ query_op.reshape(-1, n).T).T * c
    g1 = g1.reshape(d, -1)
    t4 = time.perf_counter()

    # sum_k g1[a, k] g2[b, k] g3[c, k] as one (d^2 x k) @ (k x d) GEMM.
    # Its columns k run over (value column, feature) pairs, column 0 Pb's,
    # the reverse of build_Pa_factors' order, which the sum does not see.
    # einsum writes g12 directly, where a broadcast multiply is no faster and
    # has numpy's iterator buffer both inputs at the size of the output.
    g12 = np.einsum("ak,bk->abk", g1, g2).reshape(d * d, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        g_tilde = (g12 @ g3.T).reshape(d, d * d) / d
    if not np.isfinite(g_tilde).all():
        raise NumericalError("non-finite gradient: the last contraction overflowed")
    t5 = time.perf_counter()

    return FastGradientReport(
        g_tilde=g_tilde,
        k1=k1, k2=d, k3=k1 * d, k4=k1, k5=k1 * (d + 1),
        degree=basis.g,
        arg_bound=arg_bound,
        stage_timings={"feature_map": t1 - t0, "key_contract": t2 - t1,
                       "residual_u2": t3 - t2, "query_contract": t4 - t3,
                       "assemble": t5 - t4},
        _budget=(inst, eps_f, u2_max),
    )
