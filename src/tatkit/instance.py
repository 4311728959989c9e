"""Problem instances for the third-order attention loss."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensorops import col_kron, row_kron  # noqa: F401  (col_kron: perfbench/spans.py WRAPS looks it up here)

MATRIX_FIELDS = ("A1", "A2", "A3", "A4", "A5", "E", "X1", "X2", "X3", "Y1", "Y2")


def matrix_shape(name, n, d):
    """Shape of block ``name``: A1..A5 and E are n x d; X1..X3, Y1, Y2 are d x d."""
    return (n, d) if name in ("A1", "A2", "A3", "A4", "A5", "E") else (d, d)


@dataclass(frozen=True)
class AttnInstance:
    """One optimization instance.

    A1..A5 and the target E are n x d; X1, X2, X3 parameterize the query/key
    projections and Y1, Y2 the value projection, all d x d.  The composite
    query-side variable is ``X = X1 @ (X2.T rowkron X3.T)`` of shape d x d^2;
    gradients are taken with respect to this X.

    Every block is a read-only, C-ordered float64 array, converted once.  A
    block passed in as a read-only array is kept when it already has that
    form; any other is copied first, so no later write of the caller's
    reaches the instance or a report that holds it.
    """

    n: int
    d: int
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    A4: np.ndarray
    A5: np.ndarray
    E: np.ndarray
    X1: np.ndarray
    X2: np.ndarray
    X3: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValidationError(f"n and d must be positive, got n={self.n} d={self.d}")
        for name in MATRIX_FIELDS:
            a = getattr(self, name)
            if isinstance(a, np.ndarray) and not a.flags.writeable:
                a = np.ascontiguousarray(a, dtype=np.float64)
            else:
                a = np.array(a, dtype=np.float64, order="C")
            a.flags.writeable = False
            object.__setattr__(self, name, a)
            want = matrix_shape(name, self.n, self.d)
            if a.shape != want:
                raise ValidationError(f"{name} must have shape {want}, got {a.shape}")
            if not np.isfinite(a).all():
                raise ValidationError(f"{name} contains non-finite entries")

    def composite_x(self):
        """X = X1 @ (X2.T rowkron X3.T), shape d x d^2."""
        return self.X1 @ row_kron(self.X2.T, self.X3.T)

    def projected(self):
        """The five projected inputs (Q, K1, K2, V1, V2), each n x d.

        They are the transposed blocks of one fresh d x 5n buffer, their
        ``base``, whose rows are [K1^T | K2^T | Q^T | V1^T | V2^T]; each is
        ``A @ X`` written in place, with the same bits.  Both engines read
        those contiguous rows in place (``lowrank.row_bounds``, the feature
        map), and the caller owns the buffer: ``lowrank.staged_features``
        rescales its first three blocks.
        """
        rows = np.empty((self.d, 5 * self.n))
        k1, k2, q, v1, v2 = rows.reshape(self.d, 5, self.n).transpose(1, 2, 0)
        np.matmul(self.A2, self.X2, out=k1)
        np.matmul(self.A3, self.X3, out=k2)
        np.matmul(self.A1, self.X1, out=q)
        np.matmul(self.A4, self.Y1, out=v1)
        np.matmul(self.A5, self.Y2, out=v2)
        return q, k1, k2, v1, v2


def philox(seed):
    """The counter-based Philox generator keyed by ``seed``, an integer in [0, 2^128)."""
    # numpy's key range, where it raises a bare ValueError outside; a float
    # seed is refused, not truncated
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 1 << 128):
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


def random_instance(n, d, bound, seed):
    """Draw an instance with i.i.d. uniform entries in [-bound, bound].

    Uses the Philox generator of :func:`philox` keyed by ``seed``, drawing the
    blocks in the fixed order A1 A2 A3 A4 A5 E X1 X2 X3 Y1 Y2 (row-major
    within each block), so the same seed yields the same bytes on every
    platform.  The fresh blocks are handed over read-only, so the instance
    keeps them without a copy.
    """
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be positive, got n={n} d={d}")
    if not 0 <= 2.0 * bound < math.inf:  # the draws span 2 * bound; a nan fails too
        raise ValidationError(f"bound must be nonnegative with 2 * bound finite, got {bound}")
    rng = philox(seed)
    blocks = {}
    for name in MATRIX_FIELDS:
        blocks[name] = rng.uniform(-bound, bound, size=matrix_shape(name, n, d))
        blocks[name].flags.writeable = False
    return AttnInstance(n=n, d=d, **blocks)
