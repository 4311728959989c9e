"""The two Kronecker-family products the attention engines are built from.

Index convention, used consistently by both routines here and by the
engines built on top: in any combined axis the *first* factor's index moves
slowest.  Concretely, with 1-based indices,

* ``col_kron(A, B)[(i1-1)*n2 + i2, j] = A[i1, j]  * B[i2, j]``
* ``row_kron(A, B)[i, (j1-1)*d2 + j2] = A[i, j1]  * B[i, j2]``

Each is one broadcast product reshaped to that layout: ``col_kron`` pairs
all rows and shares columns, ``row_kron`` pairs all columns and shares rows.
The full Kronecker product of both axes is ``np.kron``.
"""

import numpy as np

from .errors import ValidationError


def _as_matrix(name, a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must be nonempty, got shape {a.shape}")
    return a


def col_kron(a, b):
    """Column-wise Kronecker (Khatri-Rao) product: all row pairs, shared columns.

    ``a`` is n1 x d and ``b`` is n2 x d; the result is n1*n2 x d with row
    block ``i1`` holding ``a[i1, :] * b[i2, :]`` for each ``i2``.
    """
    a = _as_matrix("a", a)
    b = _as_matrix("b", b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"col_kron needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    n1, d = a.shape
    n2 = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(n1 * n2, d)


def row_kron(a, b):
    """Row-wise Kronecker (face-splitting) product: all column pairs, shared rows."""
    a = _as_matrix("a", a)
    b = _as_matrix("b", b)
    if a.shape[0] != b.shape[0]:
        raise ValidationError(
            f"row_kron needs equal row counts, got {a.shape[0]} and {b.shape[0]}"
        )
    n, d1 = a.shape
    d2 = b.shape[1]
    return (a[:, :, None] * b[:, None, :]).reshape(n, d1 * d2)
