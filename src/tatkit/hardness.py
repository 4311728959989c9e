"""Hard-instance machinery: the normalized-exponential curve and its probes.

A hard instance pairs a score matrix H (n x n^2, entries in [1, Ba], at
least half of each row pinned to Ba) with a 0/1 value matrix V.  The scalar
curve

    f(lam) = || rownormalize(exp(lam * H)) @ V ||_F^2

has derivatives bounded by O(Ba n d), which is what lets forward values be
recovered from an average of gradient evaluations.  This module evaluates
f, its analytic derivative, and the averaging estimator, all via per-row
sums (g, g', h, h') so no quotient is formed before the row-level division.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericalError, ValidationError
from .exact import EXP_ARG_LIMIT


@dataclass(frozen=True)
class HardInstance:
    n: int
    d: int
    Ba: float
    H: np.ndarray
    V: np.ndarray

    def __post_init__(self):
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
        if h.min() < 1 or h.max() > self.Ba:
            raise ValidationError("H entries must lie in [1, Ba]")
        if not np.isin(v, (0.0, 1.0)).all():
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
    if ba < 1:
        raise ValidationError(f"Ba must be at least 1, got {ba}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
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


def _check_lam(hi, lam):
    if lam * hi.Ba > EXP_ARG_LIMIT:
        raise NumericalError(
            f"lambda * Ba = {lam * hi.Ba:.6g} exceeds exp limit {EXP_ARG_LIMIT:g}"
        )


def f_lambda(hi, lam):
    """f(lam) = squared Frobenius norm of the row-normalized curve times V."""
    _check_lam(hi, lam)
    rows = kernels.hard_probe_rows(hi.H, hi.V, float(lam))
    return float((rows[:, 0] / rows[:, 2]).sum())


def f_prime(hi, lam):
    """Analytic derivative of f via the per-row quotient rule."""
    _check_lam(hi, lam)
    rows = kernels.hard_probe_rows(hi.H, hi.V, float(lam))
    g, gp, h, hp = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    return float(((gp * h - g * hp) / (h * h)).sum())


def f_prime_fd(hi, lam, step=1e-6):
    return (f_lambda(hi, lam + step) - f_lambda(hi, lam - step)) / (2.0 * step)


def f_second_fd(hi, lam, step=1e-5):
    return (f_prime(hi, lam + step) - f_prime(hi, lam - step)) / (2.0 * step)


def row_denominators(hi, lam):
    """The per-row squared normalizers h(lam, i), for the sandwich bound."""
    _check_lam(hi, lam)
    rows = kernels.hard_probe_rows(hi.H, hi.V, float(lam))
    return rows[:, 2].copy()


def empirical_second_derivative_bound(hi, grid_points=101):
    """max |f''| over [0, 1], estimated by differencing the analytic f'."""
    lams = np.linspace(0.0, 1.0, grid_points)
    return max(abs(f_second_fd(hi, float(l))) for l in lams)


def avg_estimate(hi, t):
    """s_t: the mean of f' over the left-endpoint grid {0, 1/t, ..., (t-1)/t}.

    Approximates f(1) - f(0) with error at most max|f''| / t.
    """
    t = int(t)
    if t < 1:
        raise ValidationError(f"t must be at least 1, got {t}")
    return sum(f_prime(hi, i / t) for i in range(t)) / t
