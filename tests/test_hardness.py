import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import tatkit as tk
from tatkit import exact, hardness
from tatkit.errors import NumericalError, ValidationError
from tatkit.tensorops import col_kron

from oracles import hard_curve_dense, hard_curve_rowsum


def test_generator_degenerate_range():
    hi = tk.make_hard_instance(2, 1, 1.0, 0)
    assert (hi.H == 1.0).all()


def test_generator_determinism():
    a = tk.make_hard_instance(4, 2, 3.0, 5)
    b = tk.make_hard_instance(4, 2, 3.0, 5)
    assert a.H.tobytes() == b.H.tobytes()
    assert a.V.tobytes() == b.V.tobytes()
    c = tk.make_hard_instance(4, 2, 3.0, 6)
    assert a.H.tobytes() != c.H.tobytes()


def test_generator_structure():
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    need = -(-(16) // 2)
    assert ((hi.H == 3.0).sum(axis=1) >= need).all()
    assert hi.H.min() >= 1.0 and hi.H.max() <= 3.0
    assert np.isin(hi.V, (0.0, 1.0)).all()
    with pytest.raises(ValidationError):
        tk.make_hard_instance(4, 2, 0.5, 5)


def test_hard_instance_validation():
    good = tk.make_hard_instance(2, 1, 2.0, 0)
    with pytest.raises(ValidationError, match="at least"):
        tk.HardInstance(n=2, d=1, Ba=2.0,
                        H=np.full((2, 4), 1.5), V=good.V)
    with pytest.raises(ValidationError, match="0 or 1"):
        tk.HardInstance(n=2, d=1, Ba=2.0, H=good.H, V=good.V + 0.5)
    with pytest.raises(ValidationError, match="0 or 1"):
        tk.HardInstance(n=2, d=1, Ba=2.0, H=good.H, V=np.where(good.V == 1.0, np.nan, 0.0))


def test_hard_instance_checks_n_and_d_first():
    # n = 0 ended in numpy's bare ValueError from H.min() of an empty H, and
    # d = 0 with a (1, 0) V constructed
    for n, d, h, v in ((0, 1, np.empty((0, 0)), np.empty((0, 1))),
                       (1, 0, np.full((1, 1), 2.0), np.empty((1, 0))),
                       (-1, 1, np.empty((0, 0)), np.empty((0, 1)))):
        with pytest.raises(ValidationError, match="n and d must be positive"):
            tk.HardInstance(n=n, d=d, Ba=2.0, H=h, V=v)


def test_hard_instance_rejects_nan_in_h():
    # nan < 1 and nan > Ba are both false, so a nan entry passed the range
    # check, and curve later failed with a misleading row-sum overflow
    hi = tk.make_hard_instance(2, 1, 2.0, 3)
    for row, col in ((0, 0), (1, 0)):
        h = hi.H.copy()
        h[row, col] = np.nan
        with pytest.raises(ValidationError, match=r"\[1, Ba\]"):
            tk.HardInstance(n=2, d=1, Ba=2.0, H=h, V=hi.V)


def test_f_uniform_all_ones():
    hi = tk.HardInstance(n=2, d=1, Ba=1.0, H=np.ones((2, 4)), V=np.ones((4, 1)))
    assert hardness.curve(hi, [0.0]).f[0] == pytest.approx(2.0)  # n * d


def test_f_zero_target():
    hi = tk.HardInstance(n=2, d=1, Ba=2.0,
                         H=tk.make_hard_instance(2, 1, 2.0, 1).H,
                         V=np.zeros((4, 1)))
    assert hardness.curve(hi, [0.7]).f[0] == 0.0
    assert tk.f_prime(hi, 0.7) == 0.0
    assert tk.avg_estimate(hi, 10) == 0.0


def test_f_frozen_value_and_double_sum_form():
    hi = tk.make_hard_instance(2, 1, 2.0, 3)
    got = hardness.curve(hi, [0.5]).f[0]
    assert got == pytest.approx(0.10828177185666124, abs=1e-14)
    assert abs(got - hard_curve_dense(hi, 0.5)) <= 1e-14
    assert abs(got - hard_curve_rowsum(hi, 0.5)) <= 1e-10


def test_f_prime_fd_cross_check():
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    fp = tk.f_prime(hi, 0.3)
    step = 1e-6
    f_plus, f_minus = hardness.curve(hi, [0.3 + step, 0.3 - step]).f
    fd = (f_plus - f_minus) / (2.0 * step)
    assert abs(fp - fd) <= 1e-6 * max(1.0, abs(fp))


def test_f_prime_bound_on_grid():
    hi = tk.make_hard_instance(8, 2, 3.0, 5)
    bound = 8.0 * hi.Ba * hi.n * hi.d
    for lam in np.linspace(0.0, 1.0, 21):
        assert abs(tk.f_prime(hi, float(lam))) <= bound


def test_row_denominator_sandwich():
    hi = tk.make_hard_instance(8, 2, 3.0, 5)
    n, ba = hi.n, hi.Ba
    for lam in np.linspace(0.0, 1.0, 21):
        h = hardness.curve(hi, [lam]).h[0]
        lo = (n * n / 2.0) ** 2 * np.exp(2 * ba * lam)
        hi_b = float(n) ** 4 * np.exp(2 * ba * lam)
        assert (h >= lo * (1 - 1e-12)).all()
        assert (h <= hi_b * (1 + 1e-12)).all()


def test_avg_estimate_bound_and_convergence():
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    f0, f1 = hardness.curve(hi, [0.0]).f[0], hardness.curve(hi, [1.0]).f[0]
    b_emp = hardness.empirical_second_derivative_bound(hi)
    errs = {}
    for t in (1, 10, 100):
        st = tk.avg_estimate(hi, t)
        errs[t] = abs(st - (f1 - f0))
        assert errs[t] <= b_emp / t
    assert errs[100] <= errs[1] / 10


def test_curve_blocks_match_one_batch(monkeypatch):
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    lams = np.linspace(-0.2, 1.0, 11)
    whole = hardness.curve(hi, lams)
    calls = []
    kernel = hardness.kernels.hard_probe_rows
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows",
                        lambda *a: calls.append(1) or kernel(*a))
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 3 * hi.H.size)
    blocked = hardness.curve(hi, lams)
    assert len(calls) == 4
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)
    assert whole.f[3] == hardness.curve(hi, [float(lams[3])]).f[0]
    assert whole.fp[3] == tk.f_prime(hi, float(lams[3]))


def test_curve_scratch_is_one_block(traced_peak):
    # the kernel held two L x n x n^2 buffers and a transient third: 1.74 MiB
    # traced over the 202-lambda grid of the f'' central difference, one
    # block at n=8; this 101-lambda f'' grid replaced it
    hi = tk.make_hard_instance(8, 2, 3.0, 0)
    grid = np.arange(hardness.F2_INTERVALS + 1) / hardness.F2_INTERVALS
    assert grid.size <= exact.block_len(hi.H.size)
    _, peak = traced_peak(lambda: hardness.curve(hi, grid))
    assert peak <= 8 * exact._BLOCK_ENTRIES + (128 << 10)


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ba", [1.5, 3.0, 10.0, 180.0])
def test_f_second_matches_differenced_f_prime(n, d, ba):
    # relative to max |f''| over the grid, as the central difference's own
    # error at Ba = 180 is ~1e-6 of |f''| where f'' is small
    hi = tk.make_hard_instance(n, d, ba, n + d)
    lams = np.arange(hardness.F2_INTERVALS + 1) / hardness.F2_INTERVALS
    step = 1e-5
    fpp = hardness.curve(hi, lams).fpp
    fd = (hardness.curve(hi, lams + step).fp - hardness.curve(hi, lams - step).fp) / (2 * step)
    assert np.abs(fpp - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


def test_f_second_finite_without_warnings():
    # g'' = 2 (B.B + A.C) and h'' = 2 (s^2 + r u) exceed h by ~Ba^2; as
    # row-normalized sums they stay finite wherever f' does
    hi = tk.make_hard_instance(8, 2, 180.0, 0)
    lams = np.arange(hardness.F2_INTERVALS + 1) / hardness.F2_INTERVALS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fpp = hardness.curve(hi, lams).fpp
        b_emp = hardness.empirical_second_derivative_bound(hi)
    assert np.isfinite(fpp).all() and b_emp == np.abs(fpp).max()


@pytest.mark.parametrize("lams, shape", [([], "(0,)"), ([[0.1, 0.2]], "(1, 2)"),
                                         (np.float64(0.3), "()")])
def test_curve_rejects_lams_not_a_nonempty_vector(monkeypatch, lams, shape):
    # each ended in a bare numpy ValueError or IndexError; the shape is
    # checked before the exp limit and the kernel
    hi = tk.make_hard_instance(2, 1, 2.0, 0)
    monkeypatch.setattr(hardness, "check_exp_limit", None)
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows", None)
    with pytest.raises(ValidationError, match=f"got shape {re.escape(shape)}"):
        hardness.curve(hi, lams)


def test_avg_estimate_streams_its_grid(monkeypatch):
    # s_t is the grid-order sum over one batch, bit for bit, at every blocking
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    want = {t: sum(hardness.curve(hi, np.arange(t) / t).fp.tolist()) / t
            for t in (1, 5, 6, 7, 13)}
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 6 * hi.H.size)
    for t, s_t in want.items():
        assert tk.avg_estimate(hi, t) == s_t


@pytest.mark.parametrize("block", [1, 4, 7, 256])
def test_sweep_evaluates_each_lambda_once(monkeypatch, block):
    # the union of {k/t} and {j/fixed} in kernel blocks: each lambda once,
    # in ascending order, and s_t and the fixed-grid curve bit for bit as
    # when each grid is evaluated on its own
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    want_s = {t: tk.avg_estimate(hi, t) for t in (1, 3, 7, 20, 30)}
    lams = np.arange(21) / 20
    want_c = hardness.curve(hi, lams)
    seen = []
    kernel = hardness.kernels.hard_probe_rows
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows",
                        lambda H, V, lams: seen.append(lams) or kernel(H, V, lams))
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", block * hi.H.size)
    for t, s_t in want_s.items():
        seen.clear()
        got_s, got_c = hardness.sweep(hi, t, 20)
        assert got_s == s_t
        for a, b in zip(got_c, want_c):
            assert np.array_equal(a, b)
        lam = np.concatenate(seen)
        assert max(len(x) for x in seen) <= block
        union = np.union1d(np.arange(t) / t, lams)
        assert np.array_equal(lam, union), t
        assert len(seen) == -(-union.size // block)


def test_avg_estimate_memory_flat_in_t(monkeypatch):
    # the t-point grid was evaluated in one curve call: 10.0 MiB traced at
    # t = 2e4 with these blocks, and growing linearly in t
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 1 << 14)
    hi = tk.make_hard_instance(8, 2, 3.0, 0)
    tracemalloc.start()
    try:
        tk.avg_estimate(hi, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_avg_estimate_validation():
    hi = tk.make_hard_instance(2, 1, 2.0, 0)
    with pytest.raises(ValidationError):
        tk.avg_estimate(hi, 0)
    # t went through int() before its check: nan raised a bare ValueError,
    # inf an OverflowError, and 2.7 ran the t = 2 grid
    for t in (math.nan, math.inf, 2.7, 2.0, np.float64(3.0)):
        with pytest.raises(ValidationError, match="t must be at least 1 and an integer"):
            tk.avg_estimate(hi, t)
        with pytest.raises(ValidationError, match="t must be at least 1 and an integer"):
            hardness.sweep(hi, t, 4)
    assert tk.avg_estimate(hi, np.int64(3)) == tk.avg_estimate(hi, 3)


def test_overflow_guard(monkeypatch):
    hi = tk.make_hard_instance(2, 1, 2.0, 0)
    with pytest.raises(NumericalError, match="exp limit"):
        hardness.curve(hi, [400.0])
    # a streamed grid is checked whole, before its first block runs
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", hi.H.size)
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows", None)
    with pytest.raises(NumericalError, match="exp limit"):
        tk.avg_estimate(tk.make_hard_instance(2, 1, 800.0, 0), 100)


def test_negative_lambda_fails_the_exp_limit():
    # -400 * Ba = -800 underflows every exp(lambda * H) to 0; the exp limit
    # on |lambda| * Ba names that, where the kernel's h = 0 read as "a row
    # sum overflowed"
    hi = tk.make_hard_instance(2, 1, 2.0, 0)
    for lams in ([-400.0], [0.5, -400.0]):
        with pytest.raises(NumericalError, match="lambda \\* Ba = 800 exceeds exp limit"):
            hardness.curve(hi, lams)
    assert np.isfinite(hardness.curve(hi, [-100.0]).f).all()


def test_nan_lambda_fails_the_exp_limit_before_the_kernel(monkeypatch):
    # lambda * Ba > limit was false for a nan lambda: the kernel ran and the
    # curve then failed as "a row sum overflowed"
    hi = tk.make_hard_instance(2, 1, 2.0, 0)
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows", None)
    for lams in ([np.nan], [0.5, np.nan]):
        with pytest.raises(NumericalError, match="lambda \\* Ba = nan exceeds exp limit"):
            hardness.curve(hi, lams)


def test_curve_finite_past_quotient_overflow():
    # lambda * Ba = 180: g' and h each fit a double, their product did not,
    # so f' was nan; as normalized row sums it matches a central difference
    hi = tk.make_hard_instance(8, 2, 180.0, 0)
    c = hardness.curve(hi, [0.5, 1.0])
    assert all(np.isfinite(v).all() for v in c)
    step = 1e-6
    f_plus, f_minus = hardness.curve(hi, [1.0 + step, 1.0 - step]).f
    fd = (f_plus - f_minus) / (2.0 * step)
    assert abs(c.fp[1] - fd) <= 1e-6 * max(1.0, abs(fd))
    # lambda * Ba = 400 is inside the exp limit, but h = (sum M_i)^2 is not
    # a double: a nan would pass every tolerance comparison unseen
    with pytest.raises(NumericalError, match="non-finite"):
        hardness.curve(tk.make_hard_instance(8, 2, 400.0, 0), [1.0])


def test_gradient_recovers_curve_increments():
    # Interpolation smoke test: with a zero target, identity value
    # projections, and the query projection X1 = lam*d*I, the loss is half
    # the hard curve of H = Q (K1 colkron K2)^T, so the analytic curve
    # derivative equals 2d * sum_a g[a, a*d+a] from the exact engine.
    rng = np.random.default_rng(11)
    n, d = 8, 2
    mats = {nm: rng.uniform(-0.6, 0.6, (n, d)) for nm in ("A1", "A2", "A3", "A4", "A5")}
    eye = np.eye(d)

    def instance(lam):
        return tk.AttnInstance(
            n=n, d=d, E=np.zeros((n, d)), X1=lam * d * eye, X2=eye, X3=eye,
            Y1=eye, Y2=eye, **mats,
        )

    def curve(lam):
        scores = mats["A1"] @ col_kron(mats["A2"], mats["A3"]).T
        m = np.exp(lam * scores)
        g = m / m.sum(axis=1)[:, None]
        gv = g @ col_kron(mats["A4"], mats["A5"])
        return float((gv * gv).sum())

    def curve_prime(lam):
        g = tk.grad_exact(instance(lam))
        return 2.0 * d * sum(g[a, a * d + a] for a in range(d))

    # analytic-vs-FD agreement of the gradient-based derivative
    lam = 0.4
    fd = (curve(lam + 1e-6) - curve(lam - 1e-6)) / 2e-6
    assert abs(curve_prime(lam) - fd) <= 1e-5 * max(1.0, abs(fd))

    # averaging the gradient-based derivative recovers f(1) - f(0)
    delta = curve(1.0) - curve(0.0)
    grid = np.linspace(0.0, 1.0, 51)
    fps = [curve_prime(float(l)) for l in grid]
    b_emp = max(
        abs(fps[i + 1] - fps[i - 1]) / (grid[i + 1] - grid[i - 1])
        for i in range(1, len(grid) - 1)
    )
    for t in (10, 50):
        s_t = sum(curve_prime(i / t) for i in range(t)) / t
        assert abs(s_t - delta) <= b_emp / t + 1e-9
