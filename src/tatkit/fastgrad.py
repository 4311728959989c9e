"""Almost-linear gradient engine.

The gradient is a sum over the factor triples of F o W (Pa) and of Pb,
contracted against A1, A2 and A3.  The builders ``build_residual_U2``,
``build_W_factors``, ``build_Pa_factors`` and ``build_Pb_factors``, with
:func:`~tatkit.lowrank.build_F_factors`, form those triples explicitly and
are the specification.  :func:`grad_fast` calls none of them and builds no
factor triple; it computes the same contractions in five stages:

- ``feature_map``: one raw monomial map Phi of the stacked rows
  [K1; K2; Q/d], a k1 x 3n buffer.  The series weights c (the basis's
  ``series_weights``) go on the k1-sized results below, never on an n x k1
  array.
- ``key_contract``: one GEMM per key side, Phi(K1)^T against
  row_kron([A2 | 1], [A4 Y1 | 1]) and Phi(K2)^T against
  row_kron([A3 | 1], [A5 Y2 | 1]).  Each yields that side's Pa and Pb
  contractions, its half of the residual's middle factor
  mid = (V1^T V2) * (W1^T W2), which is also Pb's Gram, and its column
  sums.
- ``residual_u2``: one GEMM of Phi(Q/d)^T against c * [mid | s] gives the
  row normalizer d~ and Y = U1 @ mid; then U2 = Y - E and
  R~ = rowsum(Y * U2).
- ``query_contract``: one GEMM of Phi(Q/d)^T against
  row_kron(A1, [U2 | -R~] / d~), times c, gives the A1 side of Pa and Pb.
  U1 = Phi(Q/d) diag(c) / d~ is never formed.
- ``assemble``: the d x d^2 gradient from the three d x k5 contractions.

No step ever materializes an n x n^2 (or even n x n) buffer.  The largest is
the feature buffer, 3 n k1 entries; every other one is O(n d^2).
``eps_target`` reads the W factors U2, A4 Y1 and A5 Y2 from arrays it holds.
"""

import time
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, lowrank
from .errors import NumericalError, ValidationError
from .lowrank import (  # noqa: F401  (build_F_factors: the specification, kept importable here)
    RANK_CAP, LowRankTriple, build_F_factors, check_row_normalizer, col_abs_max, f_degree,
    softmax_arg_bound,
)
from .tensorops import row_kron

EPS_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class FastGradientReport:
    """Output of :func:`grad_fast` plus rank/ timing/ error bookkeeping.

    ``k1`` is the feature rank C(d+g, g) at ``degree`` g, ``k2`` = d the rank
    of W, ``k3`` = k1*d and ``k4`` = k1 the ranks of Pa and Pb, and ``k5``
    their sum, the length of the contractions the gradient is assembled
    from.  ``arg_bound`` is the bound R on the softmax arguments that set
    ``degree`` (:func:`~tatkit.lowrank.softmax_arg_bound`).  ``eps_target``
    is a worst-case runtime bound on the gradient error, derived from the
    requested eps, n and the instance magnitudes, not the degree or R.  It
    is very loose: 135 against a measured max error of 2.3e-13 at eps 1e-6
    on ``random_instance(64, 2, 0.8, 1)``.  ``stage_timings`` holds the
    seconds spent in each stage of the module docstring: ``feature_map``,
    ``key_contract``, ``residual_u2``, ``query_contract`` and ``assemble``.
    ``peak_bytes`` is filled only on audited runs.
    """

    g_tilde: np.ndarray
    k1: int
    k2: int
    k3: int
    k4: int
    k5: int
    degree: int
    arg_bound: float
    eps_requested: float
    eps_internal: float
    eps_target: float
    stage_timings: dict
    peak_bytes: int = 0


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


def _error_budget(inst, eps_internal, u2, v2, w2):
    # worst-case amplification of the entrywise F error through the pipeline;
    # rows of the (approximate) attention matrix sum to 1 and stay in (0, 1].
    # u2, v2, w2 are the W factors (U2, A4 Y1, A5 Y2), and h_inf is
    # max |col_kron(v2, w2)| without forming it: the largest column-max product
    n, d = inst.n, inst.d
    h_inf = float((col_abs_max(v2) * col_abs_max(w2)).max())
    delta_f = eps_internal
    delta_v = min(2.0, n * n * delta_f) * h_inf
    w_inf = d * (float(np.abs(u2).max()) + delta_v) * h_inf
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


def _audit_named(arrays, limit_entries):
    for name, a in arrays:
        if a.size >= limit_entries:
            raise NumericalError(
                f"allocation audit: buffer {name} has {a.size} entries, "
                f"over the n^2 = {limit_entries} limit"
            )


def grad_fast(inst, eps, audit=False):
    """Approximate gradient w.r.t. the composite X in near-linear time.

    The projections are computed once and shared by every stage.  The
    degree, from the softmax-argument bound R, and the ranks k1 and
    k3 = k1*d are fixed first, and an instance whose k1 or k3 is over
    ``RANK_CAP`` is rejected with ``ValidationError`` before any factor is
    allocated.  The stages are those of the module docstring; the result
    matches the explicit factor builders within rounding.  A nonpositive or
    non-finite row normalizer raises ``NumericalError``.

    ``audit=True`` additionally traces allocations: every named pipeline
    buffer must stay below n^2 entries and the traced peak must stay below
    three n^2-entry float64 buffers.  Tracing starts and stops here only if
    it was off; a caller's session keeps running, with its peak reset.  The
    audit is meaningful in the target regime n*k1 << n^2 and slows the run;
    leave it off when timing.
    """
    if eps >= 1:
        raise ValidationError(f"eps must be below 1, got {eps}")
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    if eps < EPS_NOISE_FLOOR:
        warnings.warn(
            f"eps={eps:g} is below {EPS_NOISE_FLOOR:g}; double-precision "
            f"rounding noise will dominate the approximation error"
        )
    n, d = inst.n, inst.d
    eps_internal = eps / 2.0
    proj = inst.projected()
    q, kq1, kq2, v2, w2 = proj
    arg_bound = softmax_arg_bound(q, kq1, kq2)
    degree, k1 = f_degree(d, arg_bound, eps_internal)
    k2 = d
    k3 = k1 * k2
    if k3 > RANK_CAP:
        raise ValidationError(
            f"degree g={degree} gives Pa rank k1*d = {k3}, over the cap {RANK_CAP}; "
            f"loosen eps or shrink the entry bound"
        )
    k4 = k1
    k5 = k3 + k4
    basis = lowrank.build_basis(d, degree)
    c = basis.series_weights

    peak_bytes = 0
    own_trace = audit and not tracemalloc.is_tracing()
    if own_trace:
        tracemalloc.start()
    try:
        if audit:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        timings = {}
        t = time.perf_counter()
        rows = np.empty((3 * n, d))
        rows[:n] = kq1
        rows[n:2 * n] = kq2
        np.divide(q, d, out=rows[2 * n:])
        # k1 x 3n: the columns of Phi(K1), Phi(K2) and Phi(Q/d) side by side
        phi_t = lowrank.feature_map(rows, basis).T
        del rows
        timings["feature_map"] = time.perf_counter() - t

        # each key side: Phi^T @ row_kron([A | 1], [V | 1]) read as [a, b, :]
        # over a, b <= d.  a, b < d is the Pa contraction, b = d the Pb
        # column A^T Phi, a = d the Gram V^T Phi and a = b = d the column sums
        # of Phi.  Operands are built transposed, as rows of length n, so
        # every write is contiguous.
        t = time.perf_counter()
        key = []
        for a, v, phi_side in ((inst.A2, v2, phi_t[:, :n]),
                               (inst.A3, w2, phi_t[:, n:2 * n])):
            key_op = np.empty((d + 1, d + 1, n))
            np.multiply(a.T[:, None, :], v.T[None, :, :], out=key_op[:d, :d])
            key_op[:d, d] = a.T
            key_op[d, :d] = v.T
            key_op[d, d] = 1.0
            contracted = phi_side @ key_op.reshape(-1, n).T
            key.append(contracted.T.reshape(d + 1, d + 1, k1))
        g2 = key[0][:d].reshape(d, -1)
        g3 = key[1][:d].reshape(d, -1)
        # c * [mid^T ; s]: mid = (V1^T V2) * (W1^T W2) is the residual's
        # middle factor and Pb's Gram alike, s the column sums behind the row
        # normalizer
        weighted = key[0][d] * key[1][d]
        weighted *= c
        timings["key_contract"] = time.perf_counter() - t

        # [Y^T ; 1] * d_tilde in one GEMM, Y = U1 @ mid the attention output
        t = time.perf_counter()
        phi_q_t = phi_t[:, 2 * n:]
        yd = weighted @ phi_q_t
        d_tilde = yd[d]
        check_row_normalizer(d_tilde)
        y_t = yd[:d] / d_tilde
        u2_t = y_t - inst.E.T
        r_tilde = (y_t * u2_t).sum(axis=0)
        timings["residual_u2"] = time.perf_counter() - t

        # query side: Phi(Q/d)^T @ row_kron(A1, [U2 | -R] / d_tilde), times
        # c, is [Pa | -Pb] contracted against A1, with
        # U1 = Phi(Q/d) diag(c) / d_tilde
        t = time.perf_counter()
        z = np.empty((d + 1, n))
        np.divide(u2_t, d_tilde, out=z[:d])
        np.divide(r_tilde, d_tilde, out=z[d])
        np.negative(z[d], out=z[d])
        query_op = np.empty((d, d + 1, n))
        np.multiply(inst.A1.T[:, None, :], z[None, :, :], out=query_op)
        g1 = (phi_q_t @ query_op.reshape(-1, n).T).T * c
        g1 = g1.reshape(d, -1)
        timings["query_contract"] = time.perf_counter() - t

        if audit:
            _audit_named(
                [
                    ("Phi(K1)", phi_t[:, :n]), ("Phi(K2)", phi_t[:, n:2 * n]),
                    ("Phi(Q/d)", phi_q_t), ("key operand", key_op),
                    ("query operand", query_op), ("U2", u2_t), ("R", r_tilde),
                ],
                n * n,
            )

        t = time.perf_counter()
        # sum_k g1[a, k] g2[b, k] g3[c, k] as one (d^2 x k) @ (k x d) GEMM.
        # The Pa columns k run over (W column, F column) pairs, the reverse
        # of build_Pa_factors' order; the sum does not see the order.
        g12 = np.einsum("ak,bk->abk", g1, g2).reshape(d * d, -1)
        g_tilde = (g12 @ g3.T).reshape(d, d * d) / d
        timings["assemble"] = time.perf_counter() - t

        if audit:
            peak_bytes = tracemalloc.get_traced_memory()[1] - base
    finally:
        if own_trace:
            tracemalloc.stop()
    limit = 3 * n * n * 8
    if audit and peak_bytes >= limit:
        raise NumericalError(
            f"allocation audit: traced peak {peak_bytes} bytes is over "
            f"the limit {limit} (three n^2-entry float64 buffers)"
        )

    eps_target = _error_budget(inst, eps_internal, u2_t.T, v2, w2)
    return FastGradientReport(
        g_tilde=g_tilde,
        k1=k1, k2=k2, k3=k3, k4=k4, k5=k5,
        degree=degree,
        arg_bound=arg_bound,
        eps_requested=eps,
        eps_internal=eps_internal,
        eps_target=eps_target,
        stage_timings=timings,
        peak_bytes=peak_bytes,
    )
