"""Low-rank factorization of the attention matrix via truncated-series features.

The attention matrix rows are softmax(<q_j0, k1_j * k2_l> / d) over all pairs
(j, l).  Replacing exp by its degree-g Taylor series turns each exponential
into an inner product of monomial feature vectors:

    exp(<q, k>) ~ sum_{|alpha| <= g}  (q^alpha / prod_t alpha_t!) * k^alpha,

where k = k1 * k2 entrywise, so k^alpha = k1^alpha * k2^alpha splits into the
two key-side factors.  :func:`choose_degree` picks g by one log-space test
of the Lagrange remainder.  :class:`MonomialBasis` is that series: each run
of degree-m entries is one variable times a run of degree m - 1, every
per-entry array (exponents, the exact integers alpha!) is filled run by
run, and both schedules of ``kernels.feature_rows`` walk its one run table.
Its one coefficient form is ``log_factorials``, log alpha! of those exact
integers: the series' coefficients 1/alpha! are exp(-log alpha!), and the
engine folds them into its weights in log space, where no alpha! overflows.
:func:`feature_map` returns raw monomials.  The raw key-side V, W make
``col_kron(V, W)`` rows equal raw monomials of k1_j * k2_l, and the
weights go on the query side.

Both engines read one d x 5n buffer of projections through two routines
here.  :func:`row_bounds` forms the per-row bounds r, whose largest is R:
every |<q_j0, k1_j * k2_l>| / d is at most r[j0].  The exact engine checks
R against its exp limit and shifts row j0's scores by r[j0].
:func:`key_operands` builds both key sides' row_kron([1 | V], [1 | A]).

:func:`staged_features` is the polynomial method's one admission and
feature stage, called by ``fastgrad.grad_fast`` at eps / 2 and by the
specification :func:`build_F_factors` at eps.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NumericalError, ValidationError
from .tensorops import col_kron

RANK_CAP = 100_000
MATERIALIZE_CAP = 32


def choose_degree(r, eps):
    """Smallest truncation degree meeting the remainder target on [-r, r].

    Returns the least g with ``e^r r^(g+1)/(g+1)! <= eps``, the Lagrange
    remainder on [-r, r], that also keeps the remainder below ``e^-r``, so
    every approximated attention weight stays positive and the row
    normalizer cannot vanish.  The test runs in log space, where r = 0
    (remainder 0, no log) gets g = 0.  Always terminates: the factorial
    beats the power.
    """
    if not math.isfinite(r):
        raise ValidationError(f"range must be finite, got {r}")
    if r < 0:
        raise ValidationError(f"range must be nonnegative, got {r}")
    if not (0 < eps < 1):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if r == 0.0:
        return 0
    log_eps, log_r = math.log(eps), math.log(r)

    def ok(g):
        lb = r + (g + 1) * log_r - math.lgamma(g + 2)  # log of the remainder
        return lb <= log_eps and lb < -r

    # the log remainder rises until g ~ r - 2 and falls after, so when g = 0
    # fails the feasible set is an upper ray: probe g = 0, 1, 3, 7, ... and
    # bisect between the last failure and the first success
    hi = 0
    while not ok(hi):
        hi = 2 * hi + 1
    lo = (hi - 1) // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All exponent vectors of total degree <= g over d variables.

    Entries are in graded-lexicographic order (degree first, then lex with
    the first variable ranked highest), so factor matrices built on the same
    basis are reproducible byte for byte.

    The basis is built from its runs.  In this order the entries of degree
    m whose first nonzero exponent is v are one contiguous run, and they are
    e_v plus the last C(m+d-2-v, d-1-v) entries of degree m - 1, in the
    same order; every per-entry array is filled run by run.  Entry 0 is the
    constant monomial and entries 1..d, the runs of degree 1, are e_0..e_{d-1}.
    ``runs`` is the one run table, which both schedules of
    ``kernels.feature_rows`` walk: one (dst, src, factor, row) per run past
    degree 1, in order, where dst and src are slices of entries, so
    ``exponents[dst]`` is ``exponents[src] + e_v``, ``row`` = 1 + v is the
    degree-1 entry of variable v, and ``factor`` is a slice of the short-row
    schedule's factor block.  That block's rows are ``factor_rows``: row
    1 + v repeated as often as v's longest run past degree 1, variable by
    variable, so ``factor_rows[factor]`` is ``row`` throughout.

    Each run also carries the exact integer alpha! = prod_t alpha_t! forward
    from its source run, and ``log_factorials`` holds ``math.log`` of it per
    entry: the one form of the series' coefficients, since 1/alpha! is
    exp(-log alpha!).  It is the log of the exact integer, not a sum of
    per-variable logs, and its bits matter: the sum, at most one ulp away,
    moves ``grad_fast`` on ``random_instance(32, 2, 2.0, 1)`` (R = 31.3,
    g = 132) by 1.2e-6 relative, more than its eps of 1e-6.

    The constructor takes d and g only: every array is derived from them,
    and passing one raises ``TypeError``.  All arrays are read-only, and
    ``runs`` is a tuple.
    Equality and hashing are by identity (``eq=False``): generated ones
    would compare the arrays, and numpy arrays neither compare to one bool
    nor hash.  ``build_basis`` hands out one shared basis per (d, g).
    """

    d: int
    g: int
    exponents: np.ndarray = field(init=False)
    log_factorials: np.ndarray = field(init=False)
    factor_rows: np.ndarray = field(init=False)
    runs: tuple = field(init=False)

    def __post_init__(self):
        d, g = self.d, self.g
        if d < 1:
            raise ValidationError(f"d must be positive, got {d}")
        if g < 0:
            raise ValidationError(f"g must be nonnegative, got {g}")
        size = math.comb(d + g, g)
        if size > RANK_CAP:
            raise ValidationError(
                f"basis size C({d}+{g},{g}) = {size} exceeds rank cap {RANK_CAP}"
            )
        exps = np.zeros((size, d), dtype=np.int64)
        denoms = np.ones(size, dtype=object)  # exact integers alpha!
        runs, longest = [], [0] * d
        i = 1  # degree 0 is entry 0 alone
        for m in range(1, g + 1):
            lo = i  # degree m - 1 ends where degree m starts
            for v in range(d):
                length = math.comb(m + d - 2 - v, d - 1 - v)
                src = lo - length
                run = slice(i, i + length)
                exps[run] = exps[src:lo]
                exps[run, v] += 1
                denoms[run] = denoms[src:lo] * exps[run, v].astype(object)
                if m > 1:
                    runs.append((i, src, length, v))
                    longest[v] = max(longest[v], length)
                i += length
        logf = np.array([math.log(q) for q in denoms.tolist()])
        # variable v's rows of the factor block start where v - 1's end
        starts = np.cumsum([0] + longest[:-1]).tolist()
        factor_rows = np.repeat(np.arange(1, d + 1, dtype=np.intp), longest)
        for name, a in (("exponents", exps), ("log_factorials", logf),
                        ("factor_rows", factor_rows)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "runs", tuple(
            (slice(dst, dst + length), slice(src, src + length),
             slice(starts[v], starts[v] + length), 1 + v)
            for dst, src, length, v in runs))

    @property
    def size(self):
        return self.exponents.shape[0]


@functools.lru_cache(maxsize=64)
def build_basis(d, g):
    """The (shared, read-only) :class:`MonomialBasis` for d variables up to degree g."""
    return MonomialBasis(d=d, g=g)


def feature_map(m, basis):
    """Raw monomial features of each row of ``m`` over ``basis``, n x basis.size.

    Entry alpha of row i is prod_t m[i, t]^alpha_t.  Weighted query features
    paired against two raw key sides reproduce the truncated series of
    exp(<q, k1 * k2>) as a plain inner product (see the module docstring).

    ``m`` is read in the layout it comes in: a float64 ``m`` whose
    transpose is C-contiguous (the d x 3n rows :func:`staged_features`
    scales, passed as ``rows.T``) reaches ``kernels.feature_rows`` with no
    copy.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValidationError(f"feature_map input must be 2-D, got ndim={m.ndim}")
    if m.shape[1] != basis.d:
        raise ValidationError(
            f"feature_map input has {m.shape[1]} columns, basis expects {basis.d}"
        )
    return kernels.feature_rows(m, basis)


@dataclass(frozen=True)
class LowRankTriple:
    """Implicit n x n^2 matrix ``U @ col_kron(V, W).T`` held as three factors."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        if not (self.U.ndim == self.V.ndim == self.W.ndim == 2):
            raise ValidationError("factors must be 2-D")
        if not (self.U.shape[1] == self.V.shape[1] == self.W.shape[1]):
            raise ValidationError(
                f"factors must share a column count, got "
                f"{self.U.shape[1]}, {self.V.shape[1]}, {self.W.shape[1]}"
            )
        if not (self.U.shape[0] == self.V.shape[0] == self.W.shape[0]):
            raise ValidationError(
                f"factors must share a row count, got "
                f"{self.U.shape[0]}, {self.V.shape[0]}, {self.W.shape[0]}"
            )

    @property
    def n(self):
        return self.U.shape[0]

    @property
    def k(self):
        return self.U.shape[1]

    def materialize(self):
        """Dense n x n^2 matrix, n <= MATERIALIZE_CAP: the one dense form of a
        triple, which the specification tests and the identities compare to."""
        if self.n > MATERIALIZE_CAP:
            raise ValidationError(
                f"materialize capped at n <= {MATERIALIZE_CAP} (got n={self.n})"
            )
        n, k = self.n, self.k
        # accumulate over column blocks so the col_kron scratch stays small
        blk = max(1, 4_194_304 // (n * n))
        out = np.zeros((n, n * n))
        for lo in range(0, k, blk):
            hi = min(lo + blk, k)
            out += self.U[:, lo:hi] @ col_kron(self.V[:, lo:hi], self.W[:, lo:hi]).T
        return out


def row_bounds(rows, n):
    """Per-row bounds r on the softmax arguments, and the column maxima they use.

    ``rows`` is d x m n: the first m >= 3 blocks of ``AttnInstance.projected``'s
    buffer [K1^T | K2^T | Q^T | V1^T | V2^T].  ``col_max[a, i]`` is the largest
    |entry| of row a of block i, and r[j0] = sum_a |q_j0,a| * max_j |k1_j,a| *
    max_l |k2_l,a| / d bounds every |<q_j0, k1_j * k2_l>| / d, in O(n d).
    Division by d is monotone, so R = max r has the bits of the row max taken
    before dividing.  No other code takes column maxima of the projections.
    """
    d = rows.shape[0]
    blocks = np.abs(rows).reshape(d, -1, n)
    col_max = np.maximum.reduce(blocks, axis=2)
    r = (col_max[:, 0] * col_max[:, 1]) @ blocks[:, 2]
    r /= d
    return r, col_max


def key_operands(inst, v1, v2):
    """Both key sides' row_kron([1 | V], [1 | A]), transposed: 2 x (d+1) x (d+1) x n.

    ``ops[0, b, e, j] = V1'[j, b] * A2'[j, e]`` and ``ops[1, b, f, l] =
    V2'[l, b] * A3'[l, f]`` with M' = [1 | M] and ``v1``, ``v2`` the value
    projections: the constant at index 0, the value index first.
    """
    n, d = inst.n, inst.d
    ops = np.empty((2, d + 1, d + 1, n))
    ops[:, 0, 0] = 1.0
    ops[0, 0, 1:] = inst.A2.T
    ops[1, 0, 1:] = inst.A3.T
    ops[0, 1:, 0] = v1.T
    ops[1, 1:, 0] = v2.T
    np.multiply(ops[:, 1:, :1], ops[:, :1, 1:], out=ops[:, 1:, 1:])
    return ops


def check_row_normalizer(d_tilde):
    """Raise ``NumericalError`` unless every row normalizer is positive and finite."""
    # two reductions: a nan fails the first comparison, an inf the second
    if not (np.minimum.reduce(d_tilde) > 0 and np.maximum.reduce(d_tilde) < np.inf):
        raise NumericalError("nonpositive or non-finite row normalizer in the factored "
                             "attention matrix: eps too coarse or features overflowed")


def staged_features(inst, eps):
    """The polynomial method's one admission and feature stage.

    Projects ``inst`` once; R is the largest of :func:`row_bounds` of
    [K1^T | K2^T | Q^T], g = ``choose_degree(R, eps)`` and k1 = C(d+g, g).
    One check rejects a k1*d over ``RANK_CAP`` (so any k1 over it) with
    ``ValidationError`` before any n x k1 buffer exists.  One in-place
    multiply then divides each column of K1, K2 and Q by its maximum where
    that exceeds 1, so no feature exceeds 1, and one raw feature map fills
    Phi, k1 x 3n: the columns of Phi(K1), Phi(K2) and Phi(Q) side by side.
    The weights c = prod_a (s_a / d)^alpha_a / alpha!, s_a the product of
    variable a's three divisors, are formed in log space, so Phi(Q)^T
    diag(c) against the raw key sides is the series of exp(<q, k1 * k2> / d).

    Returns (projections, R, basis, Phi, c); of ``inst.projected()``'s
    (Q, K1, K2, V1, V2), the first three are now scaled.
    """
    n, d = inst.n, inst.d
    proj = inst.projected()
    rows = proj[0].base  # [K1^T | K2^T | Q^T | V1^T | V2^T], d x 5n
    r, col_max = row_bounds(rows[:, :3 * n], n)
    # Reductions here call the ufunc's reduce: ndarray.max and .sum add a
    # Python-level wrapper call each, a fixed cost on every small call
    arg_bound = float(np.maximum.reduce(r))
    g = choose_degree(arg_bound, eps)
    k1 = math.comb(d + g, g)
    # the one cap check: k1*d <= RANK_CAP also holds k1 within it, since d >= 1
    if k1 * d > RANK_CAP:
        raise ValidationError(
            f"degree g={g} gives Pa rank k1*d = {k1 * d}, over the cap {RANK_CAP}; "
            f"loosen eps or shrink the entry bound"
        )
    basis = build_basis(d, g)
    scale = np.maximum(col_max, 1.0)
    staged = rows.reshape(d, 5, n)[:, :3]
    np.multiply(staged, 1.0 / scale[:, :, None], out=staged)
    c = np.exp(np.dot(basis.exponents, np.log(np.multiply.reduce(scale, axis=1) / d))
               - basis.log_factorials)
    phi_t = feature_map(rows[:, :3 * n].T, basis).T
    return proj, arg_bound, basis, phi_t, c


def build_F_factors(inst, eps):
    """Factor the attention matrix as ``U1 @ col_kron(V1, W1).T``.

    Returns the factor triple and the row-normalizer vector that was folded
    into U1.  The admission and features are :func:`staged_features` at
    ``eps``: V1 = Phi(K1)^T and W1 = Phi(K2)^T are raw, and
    U1 = Phi(Q)^T diag(c) / d~ carries the weights and the row normalizer,
    so the approximated attention rows sum to exactly 1.  The materialized
    product is entrywise within ``eps`` of the exact attention matrix.
    """
    phi_t, c = staged_features(inst, eps)[3:]
    v1, w1, phi_q = phi_t.reshape(c.size, 3, inst.n).transpose(1, 2, 0)
    u_raw = phi_q * c
    # row sums of u_raw @ col_kron(v1, w1).T without the tall product
    d_tilde = u_raw @ (v1.sum(axis=0) * w1.sum(axis=0))
    check_row_normalizer(d_tilde)
    u1 = u_raw / d_tilde[:, None]
    return LowRankTriple(U=u1, V=v1, W=w1), d_tilde
