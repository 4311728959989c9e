"""Algebraic identity checks on small random integer matrices.

Each check draws its own shapes and entries from the supplied generator and
asserts exact (or 1e-12, where real-valued) agreement.  Every check runs the
library's ``kron``, ``col_kron``, ``row_kron`` or ``LowRankTriple.materialize``
against the loop oracles or plain numpy: vec is ``ravel``, the matricized
tensor is a reshape, and the identity tensor I_d, matricized, is
``np.eye(d * d)[::d + 1]`` (row a holds its one at column a * (d + 1)).  Unit
tests run a handful of cases per identity; the acceptance suite runs 200 each.
"""

import numpy as np

import tatkit as tk

from oracles import odot3_tensor_loops, third_mode_loops


def _ints(rng, *shape):
    return rng.integers(-3, 4, size=shape).astype(np.float64)


def _dims(rng):
    return int(rng.integers(1, 6)), int(rng.integers(1, 6))


def check_swap_product(rng):
    # (A1 kron A2) @ col_kron(W1, W2) == col_kron(A1 @ W1, A2 @ W2)
    n, d = _dims(rng)
    a1, a2 = _ints(rng, n, d), _ints(rng, n, d)
    w1, w2 = _ints(rng, d, d), _ints(rng, d, d)
    lhs = np.kron(a1, a2) @ tk.col_kron(w1, w2)
    rhs = tk.col_kron(a1 @ w1, a2 @ w2)
    assert (lhs == rhs).all()


def check_distribution(rng):
    # row_kron factors distribute over the triple product as a Hadamard split
    d, k = _dims(rng)
    n1, n2, n3 = (int(rng.integers(1, 6)) for _ in range(3))
    u1, u2 = _ints(rng, n1, d), _ints(rng, n1, k)
    v1, v2 = _ints(rng, n2, d), _ints(rng, n2, k)
    w1, w2 = _ints(rng, n3, d), _ints(rng, n3, k)
    lhs = tk.row_kron(u1, u2) @ tk.col_kron(tk.row_kron(v1, v2), tk.row_kron(w1, w2)).T
    rhs = (u1 @ tk.col_kron(v1, w1).T) * (u2 @ tk.col_kron(v2, w2).T)
    assert (lhs == rhs).all()


def check_vec_trick(rng):
    # vec(A1 @ X @ A2.T) == kron(A1, A2) @ vec(X), vec the row-major ravel
    n1, d1 = _dims(rng)
    n2, d2 = _dims(rng)
    a1, a2 = _ints(rng, n1, d1), _ints(rng, n2, d2)
    x = _ints(rng, d1, d2)
    assert ((a1 @ x @ a2.T).ravel() == np.kron(a1, a2) @ x.ravel()).all()


def check_transpose_rules(rng):
    n1, d = _dims(rng)
    n2 = int(rng.integers(1, 6))
    k1, k2 = _ints(rng, n1, d), _ints(rng, n2, d)
    assert (tk.col_kron(k1, k2).T == tk.row_kron(k1.T, k2.T)).all()
    d2 = int(rng.integers(1, 6))
    q1, q2 = _ints(rng, n1, d), _ints(rng, n1, d2)
    assert (tk.row_kron(q1, q2).T == tk.col_kron(q1.T, q2.T)).all()
    v1, v2 = _ints(rng, n1, d), _ints(rng, n2, d2)
    assert (np.kron(v1, v2).T == np.kron(v1.T, v2.T)).all()


def check_swap_rules(rng):
    # the kron/row_kron variant of this rule only holds up to a column
    # permutation, so only the col_kron form is asserted
    n, d = _dims(rng)
    m, k = _dims(rng)
    v1, v2 = _ints(rng, n, d), _ints(rng, n, k)
    w1, w2 = _ints(rng, m, d), _ints(rng, m, k)
    lhs = tk.col_kron(tk.row_kron(v1, v2), tk.row_kron(w1, w2))
    rhs = tk.row_kron(tk.col_kron(v1, w1), tk.col_kron(v2, w2))
    assert (lhs == rhs).all()


def check_kron_identity_collapse(rng):
    # kron(A1, A2) @ mat(I_d).T == col_kron(A1, A2)
    n, d = _dims(rng)
    a1, a2 = _ints(rng, n, d), _ints(rng, n, d)
    eye = np.eye(d * d)[::d + 1]
    assert (np.kron(a1, a2) @ eye.T == tk.col_kron(a1, a2)).all()


def check_odot_matricization(rng):
    # the dense triple U @ col_kron(V, W).T flattens the rank-k triple tensor
    n, k = _dims(rng)
    u, v, w = _ints(rng, n, k), _ints(rng, n, k), _ints(rng, n, k)
    want = odot3_tensor_loops(u, v, w).reshape(n, n * n)
    assert (tk.LowRankTriple(U=u, V=v, W=w).materialize() == want).all()


def check_third_mode_distribute(rng):
    # pushing maps through a rank-k triple tensor hits each factor:
    # A1.T @ mat(T) @ kron(A2, A3) is the triple (A1.T W1, A2.T W2, A3.T W3)
    n, d = _dims(rng)
    k = int(rng.integers(1, 6))
    a1, a2, a3 = (_ints(rng, n, d) for _ in range(3))
    w1, w2, w3 = (_ints(rng, n, k) for _ in range(3))
    t = tk.LowRankTriple(U=w1, V=w2, W=w3).materialize()
    lhs = a1.T @ t @ np.kron(a2, a3)
    rhs = odot3_tensor_loops(a1.T @ w1, a2.T @ w2, a3.T @ w3).reshape(d, d * d)
    assert (lhs == rhs).all()


def check_third_mode_matricization(rng):
    # A1 @ mat(X) @ kron(A2, A3).T agrees with the mode-wise contraction
    n, d = _dims(rng)
    x3 = _ints(rng, d, d, d)
    a1, a2, a3 = (_ints(rng, n, d) for _ in range(3))
    lhs = a1 @ x3.reshape(d, d * d) @ np.kron(a2, a3).T
    rhs = third_mode_loops(x3, a1, a2, a3).reshape(n, n * n)
    assert (lhs == rhs).all()


def check_identity_tensor_collapse(rng):
    # through the identity tensor the triple product is the dense triple
    # (A1, A2, A3), i.e. A1 @ col_kron(A2, A3).T
    n, d = _dims(rng)
    a1, a2, a3 = (_ints(rng, n, d) for _ in range(3))
    eye = np.eye(d * d)[::d + 1]
    lhs = third_mode_loops(eye.reshape(d, d, d), a1, a2, a3).reshape(n, n * n)
    mid = a1 @ eye @ np.kron(a2, a3).T
    rhs = tk.LowRankTriple(U=a1, V=a2, W=a3).materialize()
    assert (lhs == mid).all() and (mid == rhs).all()


def check_gram_trick(rng):
    # col_kron(A1, A2).T @ col_kron(B1, B2) == (A1.T @ B1) * (A2.T @ B2);
    # real-valued, so up to 1e-12
    d1, d2 = _dims(rng)
    n1, n2 = _dims(rng)
    a1 = rng.uniform(-1, 1, (n1, d1))
    a2 = rng.uniform(-1, 1, (n2, d1))
    b1 = rng.uniform(-1, 1, (n1, d2))
    b2 = rng.uniform(-1, 1, (n2, d2))
    want = tk.col_kron(a1, a2).T @ tk.col_kron(b1, b2)
    got = (a1.T @ b1) * (a2.T @ b2)
    assert np.abs(got - want).max() <= 1e-12


ALL_CHECKS = (
    check_swap_product,
    check_distribution,
    check_vec_trick,
    check_transpose_rules,
    check_swap_rules,
    check_kron_identity_collapse,
    check_odot_matricization,
    check_third_mode_distribute,
    check_third_mode_matricization,
    check_identity_tensor_collapse,
    check_gram_trick,
)
