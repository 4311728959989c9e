"""Almost-linear gradient engine.

Builds low-rank factor triples for the attention matrix, the residual-driven
matrix W, and the two softmax-Jacobian pieces Pa and Pb, and contracts them
against A1, A2, A3.  No step ever materializes an n x n^2 (or even n x n)
buffer.  The largest buffers are the n x k1 factors of F and Pb: Pa, of rank
k1*d, is never materialized in :func:`grad_fast`.  Its factors are row-wise
Kronecker products, so each of its three contractions runs as one GEMM
against an n x d^2 scratch (:func:`_contract_row_kron`).  Only the d x k
results are concatenated.
"""

import time
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError, ValidationError
from .lowrank import (
    RANK_CAP, LowRankTriple, build_F_factors, col_abs_max, f_degree, softmax_arg_bound,
)
from .tensorops import row_kron

EPS_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class FastGradientReport:
    """Output of :func:`grad_fast` plus rank/ timing/ error bookkeeping.

    ``arg_bound`` is the bound R on the softmax arguments that set
    ``degree`` (:func:`~tatkit.lowrank.softmax_arg_bound`).  ``eps_target``
    is a worst-case runtime bound on the gradient error, derived from the
    requested eps and the instance magnitudes; the measured error is
    typically far below it.  ``peak_bytes`` is filled only on audited runs.
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


def build_residual_U2(inst, f_factors, proj=None):
    """Residual U2 = U1 @ ((V1.T @ A4 Y1) * (W1.T @ A5 Y2)) - E, shape n x d.

    The middle factor applies the Gram trick, so the cost is O(n k1 d) and
    the n^2-row value matrix never exists.  ``proj`` is the tuple
    ``inst.projected()`` returns, computed here when not given.
    """
    _, _, _, v1h, v2h = inst.projected() if proj is None else proj
    mid = (f_factors.V.T @ v1h) * (f_factors.W.T @ v2h)
    return f_factors.U @ mid - inst.E


def build_W_factors(inst, u2, proj=None):
    """Factor triple for W: (U2, A4 Y1, A5 Y2), rank d (exact given U2).

    ``proj`` is the tuple ``inst.projected()`` returns, computed here when
    not given.
    """
    u2 = np.asarray(u2, dtype=np.float64)
    if u2.shape != (inst.n, inst.d):
        raise ValidationError(
            f"u2 must have shape ({inst.n}, {inst.d}), got {u2.shape}"
        )
    _, _, _, v1h, v2h = inst.projected() if proj is None else proj
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


def _contract_row_kron(a, b, c):
    """``a.T @ row_kron(b, c)`` without the n x kb*kc product.

    Computed as ``row_kron(a, b).T @ c``: an n x d*kb scratch and one GEMM,
    whose d*kb x kc result is, read in C order, the d x kb*kc answer.
    """
    return (row_kron(a, b).T @ c).reshape(a.shape[1], -1)


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


def _colkron_inf_norm(a, b):
    # max |col_kron(a, b)| without forming it: per-column max product
    return float((col_abs_max(a) * col_abs_max(b)).max())


def _error_budget(inst, eps_internal, w_factors):
    # worst-case amplification of the entrywise F error through the pipeline;
    # rows of the (approximate) attention matrix sum to 1 and stay in (0, 1]
    n, d = inst.n, inst.d
    u2 = w_factors.U
    h_inf = _colkron_inf_norm(w_factors.V, w_factors.W)
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
    allocated.

    ``audit=True`` additionally traces allocations: every named pipeline
    buffer must stay below n^2 entries and the traced peak must stay below
    three n^2-entry float64 buffers.  The audit is meaningful in the target
    regime n*k1 << n^2 and slows the run; leave it off when timing.
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
    arg_bound = softmax_arg_bound(*proj[:3])
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
    if audit:
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]

    timings = {}
    t = time.perf_counter()
    f_factors, _ = build_F_factors(inst, eps_internal, proj, arg_bound)
    timings["f_factors"] = time.perf_counter() - t

    t = time.perf_counter()
    u2 = build_residual_U2(inst, f_factors, proj)
    timings["residual_u2"] = time.perf_counter() - t

    t = time.perf_counter()
    w_factors = build_W_factors(inst, u2, proj)
    timings["w_factors"] = time.perf_counter() - t

    # Pa = W o F has the factors row_kron(U2, U1), row_kron(V2, V1) and
    # row_kron(W2, W1): build_Pa_factors' triple with its columns permuted
    # alike, which the sum over columns below does not see.  Only their
    # d x k3 contractions are formed.
    t = time.perf_counter()
    pa1 = _contract_row_kron(inst.A1, w_factors.U, f_factors.U)
    pa2 = _contract_row_kron(inst.A2, w_factors.V, f_factors.V)
    pa3 = _contract_row_kron(inst.A3, w_factors.W, f_factors.W)
    timings["pa_factors"] = time.perf_counter() - t

    t = time.perf_counter()
    pb, r_tilde = build_Pb_factors(f_factors, w_factors)
    timings["pb_factors"] = time.perf_counter() - t

    if audit:
        _audit_named(
            [
                ("U1", f_factors.U), ("V1", f_factors.V), ("W1", f_factors.W),
                ("U2", w_factors.U), ("V2", w_factors.V), ("W2", w_factors.W),
                ("U4", pb.U), ("R", r_tilde),
            ],
            n * n,
        )

    t = time.perf_counter()
    g1 = np.hstack([pa1, -(inst.A1.T @ pb.U)])
    g2 = np.hstack([pa2, inst.A2.T @ pb.V])
    g3 = np.hstack([pa3, inst.A3.T @ pb.W])
    g_tilde = np.einsum("ak,bk,ck->abc", g1, g2, g3).reshape(d, d * d) / d
    timings["assemble"] = time.perf_counter() - t

    peak_bytes = 0
    if audit:
        peak_bytes = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
        limit = 3 * n * n * 8
        if peak_bytes >= limit:
            raise NumericalError(
                f"allocation audit: traced peak {peak_bytes} bytes is over "
                f"the limit {limit} (three n^2-entry float64 buffers)"
            )

    eps_target = _error_budget(inst, eps_internal, w_factors)
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
