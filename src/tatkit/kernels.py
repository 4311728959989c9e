"""Hot numeric kernels with numba-jitted and pure-numpy implementations.

The jitted path is the default whenever numba imports cleanly.  Setting the
environment variable ``TAT_NUMBA=0`` before import forces the numpy path
(useful for debugging and as a dependency-free fallback).  Every kernel with
two paths has identical semantics on both up to floating-point
reassociation.  ``feature_rows`` has only the numpy path, whatever the
backend: it builds each monomial from an earlier one with one vectorised
product per degree.

Thread control: :func:`set_threads` selects how many workers the
row-parallel kernels may use.  Each outer iteration writes a disjoint slice
of the output, so results are bit-identical regardless of worker count; the
parallel variants are compiled lazily and only when more than one thread is
requested.  With ``set_threads(1)`` (the default) only the serial variants
run.
"""

import math
import os

import numpy as np

_env = os.environ.get("TAT_NUMBA", "").strip().lower()
if _env in ("0", "false", "off", "no"):
    _numba = None
else:
    try:
        import numba as _numba
    except ImportError:
        _numba = None

NUMBA_ENABLED = _numba is not None

if NUMBA_ENABLED:
    prange = _numba.prange
else:
    prange = range

_threads = 1
_parallel_cache = {}


def set_threads(n):
    """Set the worker count for the row-parallel kernels (1 = serial)."""
    global _threads
    n = max(1, int(n))
    if _numba is not None:
        n = min(n, _numba.config.NUMBA_NUM_THREADS)
        if n > 1:
            _numba.set_num_threads(n)
    _threads = n


def get_threads():
    return _threads


def backend():
    """Name of the active kernel backend, 'numba' or 'numpy'."""
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# kernel bodies (plain Python, jitted below; outer loops are row-parallel)
# ---------------------------------------------------------------------------

def _bilinear_rows_impl(U, G, V, out):
    # out[j] = U[j, :] @ G @ V[j, :]
    n, ka = U.shape
    kb = V.shape[1]
    for j in prange(n):
        acc = 0.0
        for a in range(ka):
            s = 0.0
            for b in range(kb):
                s += G[a, b] * V[j, b]
            acc += U[j, a] * s
        out[j] = acc


def _softmax_row_body(j0, Q, K1, K2, frow):
    # fill frow with the normalized attention row of query j0 (max-shifted)
    n, d = Q.shape
    m = -np.inf
    idx = 0
    for j in range(n):
        for l in range(n):
            s = 0.0
            for a in range(d):
                s += Q[j0, a] * K1[j, a] * K2[l, a]
            frow[idx] = s
            if s > m:
                m = s
            idx += 1
    tot = 0.0
    for t in range(n * n):
        v = math.exp(frow[t] - m)
        frow[t] = v
        tot += v
    inv = 1.0 / tot
    for t in range(n * n):
        frow[t] *= inv


def _value_rows_body(V1, V2):
    # H[(j)*n + l, i0] = V1[j, i0] * V2[l, i0]
    n, dh = V1.shape
    H = np.empty((n * n, dh))
    idx = 0
    for j in range(n):
        for l in range(n):
            for i0 in range(dh):
                H[idx, i0] = V1[j, i0] * V2[l, i0]
            idx += 1
    return H


def _forward_row_body(j0, Q, K1, K2, H, frow, out):
    n = Q.shape[0]
    dh = H.shape[1]
    _softmax_row_body(j0, Q, K1, K2, frow)
    for i0 in range(dh):
        acc = 0.0
        for t in range(n * n):
            acc += frow[t] * H[t, i0]
        out[j0, i0] = acc


def _grad_row_body(j0, Q, K1, K2, H, E, A2, A3, frow, wrow, vrow, tmp, TP):
    # TP[j0] = A2.T @ reshape(P_j0, (n, n)) @ A3, where
    # P_j0 = F_j0 o W_j0 - <F_j0, W_j0> F_j0 is the softmax Jacobian applied
    # to the residual-driven row W_j0.
    n, d = Q.shape
    dh = H.shape[1]
    _softmax_row_body(j0, Q, K1, K2, frow)
    for i0 in range(dh):
        acc = 0.0
        for t in range(n * n):
            acc += frow[t] * H[t, i0]
        vrow[i0] = acc - E[j0, i0]
    r = 0.0
    for t in range(n * n):
        w = 0.0
        for i0 in range(dh):
            w += vrow[i0] * H[t, i0]
        wrow[t] = w
        r += frow[t] * w
    for j in range(n):
        base = j * n
        for c in range(d):
            acc = 0.0
            for l in range(n):
                acc += frow[base + l] * (wrow[base + l] - r) * A3[l, c]
            tmp[j, c] = acc
    for b in range(d):
        for c in range(d):
            acc = 0.0
            for j in range(n):
                acc += A2[j, b] * tmp[j, c]
            TP[j0, b, c] = acc


def _attn_forward_impl(Q, K1, K2, V1, V2, out):
    # Streaming forward pass: rebuild one softmax row at a time, never
    # holding the n x n^2 attention matrix.  One shared row buffer.
    n = Q.shape[0]
    H = _value_rows_body(V1, V2)
    frow = np.empty(n * n)
    for j0 in range(n):
        _forward_row_body(j0, Q, K1, K2, H, frow, out)


def _attn_forward_par(Q, K1, K2, V1, V2, out):
    n = Q.shape[0]
    H = _value_rows_body(V1, V2)
    for j0 in prange(n):
        frow = np.empty(n * n)
        _forward_row_body(j0, Q, K1, K2, H, frow, out)


def _grad_row_contract_impl(Q, K1, K2, V1, V2, E, A2, A3, TP):
    n, d = Q.shape
    H = _value_rows_body(V1, V2)
    frow = np.empty(n * n)
    wrow = np.empty(n * n)
    vrow = np.empty(H.shape[1])
    tmp = np.empty((n, d))
    for j0 in range(n):
        _grad_row_body(j0, Q, K1, K2, H, E, A2, A3, frow, wrow, vrow, tmp, TP)


def _grad_row_contract_par(Q, K1, K2, V1, V2, E, A2, A3, TP):
    n, d = Q.shape
    H = _value_rows_body(V1, V2)
    for j0 in prange(n):
        frow = np.empty(n * n)
        wrow = np.empty(n * n)
        vrow = np.empty(H.shape[1])
        tmp = np.empty((n, d))
        _grad_row_body(j0, Q, K1, K2, H, E, A2, A3, frow, wrow, vrow, tmp, TP)


def _hard_probe_row_body(i, H, V, lam, erow, out):
    # out[i] = (g, g', h, h') for one row of the hard-instance curve
    m = H.shape[1]
    d = V.shape[1]
    r = 0.0
    s = 0.0
    for k in range(m):
        e = math.exp(lam * H[i, k])
        erow[k] = e
        r += e
        s += H[i, k] * e
    g = 0.0
    gp = 0.0
    for l in range(d):
        a = 0.0
        b = 0.0
        for k in range(m):
            if V[k, l] != 0.0:
                a += erow[k]
                b += H[i, k] * erow[k]
        g += a * a
        gp += 2.0 * a * b
    out[i, 0] = g
    out[i, 1] = gp
    out[i, 2] = r * r
    out[i, 3] = 2.0 * r * s


def _hard_probe_rows_impl(H, V, lam, out):
    erow = np.empty(H.shape[1])
    for i in range(H.shape[0]):
        _hard_probe_row_body(i, H, V, lam, erow, out)


def _hard_probe_rows_par(H, V, lam, out):
    for i in prange(H.shape[0]):
        erow = np.empty(H.shape[1])
        _hard_probe_row_body(i, H, V, lam, erow, out)


_IMPLS_SERIAL = {
    "bilinear_rows": _bilinear_rows_impl,
    "attn_forward": _attn_forward_impl,
    "grad_row_contract": _grad_row_contract_impl,
    "hard_probe_rows": _hard_probe_rows_impl,
}
# parallel variants allocate their row buffers inside the loop
_IMPLS_PARALLEL = {
    "bilinear_rows": _bilinear_rows_impl,
    "attn_forward": _attn_forward_par,
    "grad_row_contract": _grad_row_contract_par,
    "hard_probe_rows": _hard_probe_rows_par,
}

if NUMBA_ENABLED:
    # jit the shared row bodies first so the outer kernels bind to them
    _softmax_row_body = _numba.njit(cache=True)(_softmax_row_body)
    _value_rows_body = _numba.njit(cache=True)(_value_rows_body)
    _forward_row_body = _numba.njit(cache=True)(_forward_row_body)
    _grad_row_body = _numba.njit(cache=True)(_grad_row_body)
    _hard_probe_row_body = _numba.njit(cache=True)(_hard_probe_row_body)
    _serial = {name: _numba.njit(cache=True)(fn) for name, fn in _IMPLS_SERIAL.items()}
else:
    _serial = {}


def _kernel(name):
    if _threads > 1:
        fn = _parallel_cache.get(name)
        if fn is None:
            fn = _numba.njit(parallel=True, cache=True)(_IMPLS_PARALLEL[name])
            _parallel_cache[name] = fn
        return fn
    return _serial[name]


# ---------------------------------------------------------------------------
# numpy fallbacks
# ---------------------------------------------------------------------------

def bilinear_rows_np(U, G, V):
    return np.einsum("ja,ab,jb->j", U, G, V, optimize=True)


def hard_probe_rows_np(H, V, lam):
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


# ---------------------------------------------------------------------------
# public dispatchers
# ---------------------------------------------------------------------------

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
    if not NUMBA_ENABLED:
        return bilinear_rows_np(U, G, V)
    out = np.empty(U.shape[0])
    _kernel("bilinear_rows")(U, G, V, out)
    return out


def attn_forward_stream(Q, K1, K2, V1, V2):
    """Jitted streaming forward; exact.py holds the numpy alternative."""
    if not NUMBA_ENABLED:
        raise RuntimeError("streaming kernels require the numba backend")
    out = np.empty((Q.shape[0], V1.shape[1]))
    _kernel("attn_forward")(Q, K1, K2, V1, V2, out)
    return out


def grad_row_contract_stream(Q, K1, K2, V1, V2, E, A2, A3):
    if not NUMBA_ENABLED:
        raise RuntimeError("streaming kernels require the numba backend")
    n, d = Q.shape
    TP = np.empty((n, d, d))
    _kernel("grad_row_contract")(Q, K1, K2, V1, V2, E, A2, A3, TP)
    return TP


def hard_probe_rows(H, V, lam):
    if not NUMBA_ENABLED:
        return hard_probe_rows_np(H, V, lam)
    out = np.empty((H.shape[0], 4))
    _kernel("hard_probe_rows")(H, V, lam, out)
    return out
