"""Hard-instance machinery: the normalized-exponential curve and its probes.

A hard instance pairs a score matrix H (n x n^2, entries in [1, Ba], at
least half of each row pinned to Ba) with a 0/1 value matrix V.  The scalar
curve

    f(lam) = || rownormalize(exp(lam * H)) @ V ||_F^2

has derivatives bounded by O(Ba n d), which is what lets forward values be
recovered from an average of gradient evaluations.  This module evaluates
f, its analytic first and second derivatives, the row normalizers and the
averaging estimator, all via per-row sums (g, g', h, h', and g''/h, h''/h
from row-normalized sums) so no quotient is formed before the row-level
division and no product of row sums overflows ahead of h.  ``curve`` is the
one evaluator: it takes a vector of lambdas and batches them through
``kernels.hard_probe_rows``, so each caller evaluates a lambda grid in one
call: ``f_prime`` reads it at one lambda and
``empirical_second_derivative_bound`` takes max |f''| on the grid
{k/100 : k = 0..100}.  ``sweep`` streams the union of that grid and the
averaging grid {k/t} through ``curve`` one kernel block at a time: it is
``avg_estimate`` with no fixed grid, and ``tat probe`` reads f, f', f'', h
and s_t from one such pass.  f at one lambda is ``curve(hi, [lam]).f[0]``.
``make_hard_instance`` draws from the same seeded Philox generator as
``random_instance``.  The exp-limit test and the kernel's block budget are
the exact engine's (``exact``).
"""

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError, ValidationError
from .exact import _check_cap, block_len, check_exp_limit
from .instance import philox


@dataclass(frozen=True)
class HardInstance:
    n: int
    d: int
    Ba: float
    H: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValidationError(f"n and d must be positive, got n={self.n} d={self.d}")
        if self.Ba < 1:
            raise ValidationError(f"Ba must be at least 1, got {self.Ba}")
        h = np.ascontiguousarray(np.asarray(self.H, dtype=np.float64))
        v = np.ascontiguousarray(np.asarray(self.V, dtype=np.float64))
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "V", v)
        n, d = self.n, self.d
        if h.shape != (n, n * n):
            raise ValidationError(f"H must be {n} x {n * n}, got {h.shape}")
        if v.shape != (n * n, d):
            raise ValidationError(f"V must be {n * n} x {d}, got {v.shape}")
        if not (h.min() >= 1 and h.max() <= self.Ba):  # a nan fails too
            raise ValidationError("H entries must lie in [1, Ba]")
        if not ((v == 0.0) | (v == 1.0)).all():  # a nan fails too
            raise ValidationError("V entries must be 0 or 1")
        need = -(-(n * n) // 2)  # ceil(n^2 / 2)
        rows_at_ba = (h == self.Ba).sum(axis=1)
        if (rows_at_ba < need).any():
            raise ValidationError(
                f"each H row needs at least {need} entries equal to Ba"
            )


def make_hard_instance(n, d, ba, seed):
    """Random instance satisfying the row-majority structure, seed-stable."""
    if n < 1 or d < 1:
        raise ValidationError(f"n and d must be positive, got n={n} d={d}")
    _check_cap(n)  # H is dense, n x n^2
    if not 1 <= ba < math.inf:  # a nan fails too
        raise ValidationError(f"Ba must be finite and at least 1, got {ba}")
    rng = philox(seed)
    m = n * n
    need = -(-m // 2)
    h = np.empty((n, m))
    for i in range(n):
        count = need + int(rng.integers(0, m - need + 1))
        h[i] = rng.uniform(1.0, ba, size=m)
        pos = rng.permutation(m)[:count]
        h[i, pos] = ba
    v = rng.integers(0, 2, size=(m, d)).astype(np.float64)
    return HardInstance(n=n, d=d, Ba=float(ba), H=h, V=v)


F2_INTERVALS = 100  # max |f''| is taken over the grid {k/100 : k = 0..100}

Curve = namedtuple("Curve", "f fp fpp h")


def _probe_block(hi, lam_abs):
    """Lambdas per hard_probe_rows call, once ``lam_abs`` * Ba is within the exp limit.

    ``lam_abs`` is the largest |lambda| of the grid: a large negative lambda
    underflows every exp(lambda * H) to 0 as surely as a large positive one
    overflows it.  The ``exact.block_len(n^3)`` lambdas of a block bound the
    kernel's whole scratch, as it holds one L x n x n^2 buffer.
    """
    check_exp_limit("lambda * Ba =", float(lam_abs) * hi.Ba)
    return block_len(hi.H.size)


def curve(hi, lams):
    """f, f', f'' (length L) and the row normalizers h (L x n) at each of L ``lams``.

    ``lams`` must be a non-empty 1-D array (``ValidationError`` otherwise).
    Per row, with q = g/h: f' sums q' = g'/h - q (h'/h), which forms no
    product of two row sums, and f'' sums q'' = g''/h - 2 q' (h'/h) - q (h''/h),
    whose g''/h and h''/h the kernel forms from row-normalized sums.  The
    exp limit is checked once, on the largest |lambda| (a nan fails it)
    before the kernel runs, which gets blocks of ``exact.block_len(n^3)``
    lambdas: one block is all the scratch a kernel call holds.  A row sum
    that overflows (h = (sum M_i)^2 does, past lambda * Ba ~ 350 at n=8, and
    h' a little before it) raises ``NumericalError`` instead of returning a
    nan.
    """
    lams = np.asarray(lams, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise ValidationError(f"lams must be a non-empty 1-D array, got shape {lams.shape}")
    block = _probe_block(hi, np.abs(lams).max())
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate([kernels.hard_probe_rows(hi.H, hi.V, lams[i:i + block])
                               for i in range(0, lams.size, block)])
        g, gp, h, hp, g2h, h2h = np.moveaxis(rows, -1, 0)
        q, hph = g / h, hp / h
        qp = gp / h - q * hph
        out = Curve(f=q.sum(axis=1), fp=qp.sum(axis=1),
                    fpp=(g2h - 2.0 * qp * hph - q * h2h).sum(axis=1), h=h)
    if not all(np.isfinite(v).all() for v in out):
        raise NumericalError("non-finite hard-curve value: a row sum overflowed")
    return out


def f_prime(hi, lam):
    """Analytic derivative of f via the per-row quotient rule."""
    return float(curve(hi, [lam]).fp[0])


def empirical_second_derivative_bound(hi):
    """max |f''| over {k/100 : k = 0..100}, from the analytic f'' in one call."""
    lams = np.arange(F2_INTERVALS + 1) / F2_INTERVALS
    return float(np.abs(curve(hi, lams).fpp).max())


def sweep(hi, t, fixed=0):
    """s_t, and the curve on {j/fixed : j = 0..fixed}, from one pass over both grids.

    s_t is the mean of f' over the left-endpoint grid {0, 1/t, ..., (t-1)/t}
    and approximates f(1) - f(0) with error at most max|f''| / t.  The sorted
    union of that grid and the fixed one (none when ``fixed`` is 0) goes
    through ``curve`` one kernel block at a time, so a lambda on both grids
    is evaluated once, and memory does not grow with t.  The grids are
    merged as integers over the denominator t * fixed, so every lambda is
    the correctly rounded k/t or j/fixed (while t * fixed < 2^53).  The
    merge sorts and drops repeats: ``np.union1d``'s hash-based unique held
    ~1 MiB more process memory.  f' is summed in grid order, so s_t does
    not depend on the blocking or on the fixed grid.
    """
    if not (isinstance(t, numbers.Integral) and t >= 1):  # a float is not truncated
        raise ValidationError(f"t must be at least 1 and an integer, got {t!r}")
    step = max(fixed, 1)  # k/t is the key k * step, j/fixed the key j * t
    denom, points = t * step, fixed + 1 if fixed else 0
    block = _probe_block(hi, 1.0 if fixed else (t - 1) / t)
    total, parts = 0, []
    k = j = 0
    while k < t or j < points:
        ks = np.arange(k, min(k + block, t)) * step
        js = np.arange(j, min(j + block, points)) * t
        keys = np.sort(np.concatenate((ks, js)))
        keys = keys[np.diff(keys, prepend=-1) != 0][:block]
        k += int(np.searchsorted(ks, keys[-1], "right"))
        j += int(np.searchsorted(js, keys[-1], "right"))
        c = curve(hi, keys / denom)
        total = sum(c.fp[(keys % step == 0) & (keys < denom)].tolist(), total)
        if fixed:
            on_fixed = keys % t == 0
            parts.append([v[on_fixed] for v in c])
    fixed_curve = Curve(*map(np.concatenate, zip(*parts))) if parts else None
    return total / t, fixed_curve


def avg_estimate(hi, t):
    """s_t: the mean of f' over the left-endpoint grid {0, 1/t, ..., (t-1)/t}.

    ``sweep`` with no fixed grid: one kernel block at a time, in grid order.
    """
    return sweep(hi, t)[0]
