"""Low-rank factorization of the attention matrix via truncated-series features.

The attention matrix rows are softmax(<q_j0, k1_j * k2_l> / d) over all pairs
(j, l).  Replacing exp by its degree-g Taylor series turns each exponential
into an inner product of monomial feature vectors:

    exp(<q, k>) ~ sum_{|alpha| <= g}  (q^alpha / prod_t alpha_t!) * k^alpha,

where k = k1 * k2 entrywise, so k^alpha = k1^alpha * k2^alpha splits into the
two key-side factors.  :func:`feature_map` returns raw monomials.  The series
weights 1/alpha! (``MonomialBasis.series_weights``) have two readers, both on
the query side: :func:`build_F_factors` multiplies its U by them and
``fastgrad.grad_fast`` its k1-sized contractions.  The raw key-side V, W make
``col_kron(V, W)`` rows equal raw monomials of k1_j * k2_l.

The argument range [-R, R] comes from the row bound of
:func:`softmax_arg_bound`: R = max_j0 sum_a |q_j0,a| / d * max_j |k1_j,a| *
max_l |k2_l,a|, which dominates every |<q_j0, k1_j * k2_l>| / d.  The exact
engine checks the same R against its exp limit.  The degree is chosen from
the Lagrange remainder ``e^R R^(g+1) / (g+1)!`` on [-R, R], with the extra
requirement that the remainder be below ``e^-R`` so every approximated
attention weight stays positive and the row normalizer cannot vanish.  The
row normalizer is folded into the U factor, so the approximated attention
rows sum to exactly 1.
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


def _log_remainder(r, g):
    # log of e^r * r^(g+1) / (g+1)!
    if r == 0.0:
        return -math.inf
    return r + (g + 1) * math.log(r) - math.lgamma(g + 2)


def choose_degree(r, eps):
    """Smallest truncation degree meeting the remainder target on [-r, r].

    Returns the least g with ``e^r r^(g+1)/(g+1)! <= eps`` that also keeps
    the remainder below ``e^-r`` (the positivity guard).  Always terminates:
    the factorial beats the power.
    """
    if not math.isfinite(r):
        raise ValidationError(f"range must be finite, got {r}")
    if r < 0:
        raise ValidationError(f"range must be nonnegative, got {r}")
    if not (0 < eps < 1):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    log_eps = math.log(eps)

    def ok(g):
        lb = _log_remainder(r, g)
        return lb <= log_eps and lb < -r

    if ok(0):
        return 0
    # when g=0 fails, the feasible set is an upper ray (the remainder rises
    # until g ~ r - 2 and falls after), so double then bisect
    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class PolyExpApprox:
    """Truncated exponential series with its validity range.

    coeffs[j] = 1/j! (in log space past 170!, as in :class:`MonomialBasis`),
    valid on [-range_, range_] with worst-case error
    ``e^range_ * range_^(degree+1) / (degree+1)!``.
    """

    degree: int
    range_: float
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.degree < 0:
            raise ValidationError(f"degree must be nonnegative, got {self.degree}")
        if self.range_ < 0:
            raise ValidationError(f"range must be nonnegative, got {self.range_}")
        c = np.array([1.0 / math.factorial(j) if j <= 170 else math.exp(-math.lgamma(j + 1))
                      for j in range(self.degree + 1)])
        object.__setattr__(self, "coeffs", c)

    def remainder_bound(self):
        if self.range_ == 0.0:
            return 0.0
        lb = _log_remainder(self.range_, self.degree)
        return math.inf if lb > 709.0 else math.exp(lb)

    def evaluate(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for c in self.coeffs[::-1]:
            out = out * x + c
        return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of total degree <= g over d variables.

    Entries are in graded-lexicographic order (degree first, then lex with
    the first variable ranked highest), so factor matrices built on the same
    basis are reproducible byte for byte.  ``weights`` holds the multinomial
    coefficient |alpha|! / prod_t alpha_t! of each entry and
    ``series_weights`` the series weight 1 / prod_t alpha_t!.

    The recurrence fields let each monomial be built from one earlier one:
    entry i > 0 equals its parent ``parents[i]`` times variable
    ``variables[i]`` (the first variable with a nonzero exponent), so
    ``exponents[i] = exponents[parents[i]] + e_variables[i]``.  Entry 0, the
    constant monomial, has parent and variable -1.  Degree m occupies the
    entries ``degree_bounds[m]:degree_bounds[m + 1]``, and every parent of
    degree m lies in degree m - 1.

    In this order the entries of degree m whose first nonzero variable is v
    are one contiguous run, and their parents are the last entries of degree
    m - 1, in the same order.  ``blocks`` lists these runs, one row
    (dst, src, length, v) per (m, v) with m >= 1: entries
    ``dst:dst + length`` are entries ``src:src + length`` times variable v.
    All arrays are read-only.
    """

    d: int
    g: int
    exponents: np.ndarray = field(default=None)
    weights: np.ndarray = field(default=None)
    degrees: np.ndarray = field(default=None)
    series_weights: np.ndarray = field(default=None)
    parents: np.ndarray = field(default=None)
    variables: np.ndarray = field(default=None)
    degree_bounds: np.ndarray = field(default=None)
    blocks: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"d must be positive, got {self.d}")
        if self.g < 0:
            raise ValidationError(f"g must be nonnegative, got {self.g}")
        size = math.comb(self.d + self.g, self.g)
        if size > RANK_CAP:
            raise ValidationError(
                f"basis size C({self.d}+{self.g},{self.g}) = {size} exceeds "
                f"rank cap {RANK_CAP}"
            )
        exps = np.empty((size, self.d), dtype=np.int64)
        w = np.empty(size)
        sw = np.empty(size)
        deg = np.empty(size, dtype=np.int64)
        parents = np.full(size, -1, dtype=np.intp)
        variables = np.full(size, -1, dtype=np.intp)
        bounds = np.empty(self.g + 2, dtype=np.intp)
        index = {}
        i = 0
        for m in range(self.g + 1):
            bounds[m] = i
            m_fact = math.factorial(m)
            for alpha in _compositions(m, self.d):
                exps[i] = alpha
                index[alpha] = i
                if m > 0:
                    v = next(t for t, a in enumerate(alpha) if a)
                    parents[i] = index[alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:]]
                    variables[i] = v
                denom = 1
                for a in alpha:
                    denom *= math.factorial(a)
                w[i] = float(m_fact // denom)  # multinomials are integers
                # series weight 1/denom; drop to log space once the exact
                # integer no longer fits in a double
                if denom.bit_length() <= 1000:
                    sw[i] = 1.0 / float(denom)
                else:
                    sw[i] = math.exp(-sum(math.lgamma(a + 1) for a in alpha))
                deg[i] = m
                i += 1
        bounds[self.g + 1] = i
        # a run starts wherever the degree or the first variable changes
        starts = np.flatnonzero((deg[1:] != deg[:-1]) | (variables[1:] != variables[:-1])) + 1
        ends = np.append(starts, size)[1:]
        blocks = np.stack([starts, parents[starts], ends - starts, variables[starts]], axis=1)
        for name, a in (("exponents", exps), ("weights", w), ("series_weights", sw),
                        ("degrees", deg), ("parents", parents),
                        ("variables", variables), ("degree_bounds", bounds),
                        ("blocks", blocks)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def size(self):
        return self.exponents.shape[0]


@functools.lru_cache(maxsize=64)
def build_basis(d, g):
    """The (shared, read-only) :class:`MonomialBasis` for d variables up to degree g."""
    return MonomialBasis(d=d, g=g)


def feature_map(m, basis):
    """Raw monomial features of each row of ``m`` over ``basis``, n x basis.size.

    Entry alpha of row i is prod_t m[i, t]^alpha_t.  The callers apply
    ``basis.series_weights`` on the query side (see the module docstring):
    weighted query features paired against two raw key sides reproduce the
    truncated series of exp(<q, k1 * k2>) as a plain inner product.
    """
    m = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    if m.ndim != 2:
        raise ValidationError(f"feature_map input must be 2-D, got ndim={m.ndim}")
    if m.shape[1] != basis.d:
        raise ValidationError(
            f"feature_map input has {m.shape[1]} columns, basis expects {basis.d}"
        )
    return kernels.feature_rows(m, basis.size, basis.blocks)


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

    def materialize(self, cap=MATERIALIZE_CAP):
        """Dense n x n^2 matrix; desk-scale verification only (n capped)."""
        if self.n > cap:
            raise ValidationError(
                f"materialize capped at n <= {cap} (got n={self.n})"
            )
        n, k = self.n, self.k
        # accumulate over column blocks so the col_kron scratch stays small
        blk = max(1, 4_194_304 // (n * n))
        out = np.zeros((n, n * n))
        for lo in range(0, k, blk):
            hi = min(lo + blk, k)
            out += self.U[:, lo:hi] @ col_kron(self.V[:, lo:hi], self.W[:, lo:hi]).T
        return out


def col_abs_max(m):
    """Largest absolute entry of each column of an n x d matrix, as a d-vector.

    Reduces a contiguous transposed copy along its rows, which numpy does
    about ten times faster than ``np.abs(m).max(axis=0)`` on a tall, narrow
    C-ordered matrix; the result is the same bit for bit.
    """
    return np.abs(np.ascontiguousarray(m.T)).max(axis=1)


def softmax_arg_bound(q, k1, k2):
    """Row bound R on every softmax argument |<q_j0, k1_j * k2_l>| / d.

    R = max_j0 sum_a |q_j0,a| / d * max_j |k1_j,a| * max_l |k2_l,a|: each
    term of the inner product is bounded by its column maxima on the key
    sides.  Costs O(n d) and never forms a key pair.
    """
    d = q.shape[1]
    return float((np.abs(q) @ (col_abs_max(k1) * col_abs_max(k2))).max()) / d


def f_degree(d, r, eps):
    """Degree g and rank k1 = C(d+g, g) of the attention factors at ``eps``.

    ``r`` bounds every softmax argument in absolute value (see
    :func:`softmax_arg_bound`); the degree follows from :func:`choose_degree`
    on [-r, r].  Raises ``ValidationError`` when k1 is over ``RANK_CAP``.
    Allocates nothing, so callers can admit or reject an instance before any
    feature map exists.
    """
    if not (0 < eps < 1):
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    if not math.isfinite(r):
        raise ValidationError(f"softmax argument bound {r:.6g} is too large")
    g = choose_degree(r, eps)
    size = math.comb(d + g, g)
    if size > RANK_CAP:
        raise ValidationError(
            f"required degree g={g} gives rank k1={size}, over the cap {RANK_CAP}; "
            f"loosen eps or shrink the entry bound"
        )
    return g, size


def check_row_normalizer(d_tilde):
    """Raise ``NumericalError`` unless every row normalizer is positive and finite."""
    if not (np.isfinite(d_tilde) & (d_tilde > 0)).all():
        raise NumericalError("nonpositive or non-finite row normalizer in the factored "
                             "attention matrix: eps too coarse or features overflowed")


def build_F_factors(inst, eps):
    """Factor the attention matrix as ``U1 @ col_kron(V1, W1).T``.

    Returns the factor triple and the row-normalizer vector that was folded
    into U1.  The degree comes from :func:`f_degree` on the bound R of
    :func:`softmax_arg_bound`.  U1 carries the series weights, V1 and W1 are
    raw.  The materialized product is entrywise within ``eps`` of the exact
    attention matrix.
    """
    q, k1, k2, _, _ = inst.projected()
    g, _ = f_degree(inst.d, softmax_arg_bound(q, k1, k2), eps)
    basis = build_basis(inst.d, g)
    u_raw = feature_map(q / inst.d, basis)
    u_raw *= basis.series_weights
    v1 = feature_map(k1, basis)
    w1 = feature_map(k2, basis)
    # row sums of u_raw @ col_kron(v1, w1).T without the tall product
    d_tilde = u_raw @ (v1.sum(axis=0) * w1.sum(axis=0))
    check_row_normalizer(d_tilde)
    u1 = u_raw / d_tilde[:, None]
    return LowRankTriple(U=u1, V=v1, W=w1), d_tilde
