import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest

import tatkit as tk
from tatkit import exact
from tatkit.errors import NumericalError, ValidationError

from oracles import attention_rows, forward_dense, loss_dense, p_rows_dense, value_rows


def _instance(n, d, seed, bound=1.0):
    return tk.random_instance(n, d, bound, seed)


def _with_target(inst, e):
    return tk.AttnInstance(
        n=inst.n, d=inst.d, A1=inst.A1, A2=inst.A2, A3=inst.A3, A4=inst.A4,
        A5=inst.A5, E=e, X1=inst.X1, X2=inst.X2, X3=inst.X3, Y1=inst.Y1, Y2=inst.Y2,
    )


def _weights_at(inst, x):
    # F with a composite x in place of the one derived from X1, X2, X3,
    # from the specification's formula and not from exact._scores
    scores = (inst.A1 @ x) @ np.kron(inst.A2, inst.A3).T / inst.d
    exact.check_exp_limit("softmax argument max", float(np.abs(scores).max()))
    return exact._softmax_rows(scores)


def _column_instance(n=2, d=1):
    c = np.array([[1.0], [-1.0]])
    one = np.array([[1.0]])
    return tk.AttnInstance(n=n, d=d, A1=c, A2=c, A3=c, A4=c, A5=c,
                           E=np.zeros((2, 1)), X1=one, X2=one, X3=one, Y1=one, Y2=one)


def _uniform_instance():
    # zero query: uniform attention over value products (3, 4, 6, 8)
    z = np.zeros((1, 1))
    one = np.ones((1, 1))
    return tk.AttnInstance(
        n=2, d=1,
        A1=np.array([[1.0], [2.0]]), A2=np.array([[1.0], [2.0]]),
        A3=np.array([[1.0], [2.0]]),
        A4=np.array([[1.0], [2.0]]), A5=np.array([[3.0], [4.0]]),
        E=np.zeros((2, 1)), X1=z, X2=one, X3=one, Y1=one, Y2=one,
    )


def test_forward_single_entry():
    one = np.ones((1, 1))
    inst = tk.AttnInstance(n=1, d=1, A1=one, A2=one, A3=one,
                           A4=2 * one, A5=3 * one, E=np.zeros((1, 1)),
                           X1=one, X2=one, X3=one, Y1=one, Y2=one)
    assert tk.forward(inst) == pytest.approx(6.0)


def test_forward_uniform_attention():
    out = tk.forward(_uniform_instance())
    assert np.abs(out - 5.25).max() <= 1e-14


def test_forward_column_instance_frozen():
    # frozen from the loop-based dense oracle; equals tanh(1) by symmetry
    inst = _column_instance()
    out = tk.forward(inst)
    want = forward_dense(inst)
    assert np.abs(out - want).max() <= 1e-14
    assert out[0, 0] == pytest.approx(0.7615941559557649, abs=1e-14)
    assert out[1, 0] == pytest.approx(-0.7615941559557649, abs=1e-14)


def test_loss_zero_and_unit_residual():
    inst = _instance(3, 2, 0)
    at_optimum = _with_target(inst, tk.forward(inst))
    assert tk.loss(at_optimum) <= 1e-28
    shifted = _with_target(inst, tk.forward(inst) + 1.0)
    assert tk.loss(shifted) == pytest.approx(0.5 * inst.n * inst.d, rel=1e-12)


def test_loss_seed7_frozen():
    inst = _instance(4, 2, 7)
    assert tk.loss(inst) == pytest.approx(1.4786819461985696, rel=1e-12)
    assert tk.loss(inst) == pytest.approx(loss_dense(inst), rel=1e-12)


def test_intermediates_uniform_softmax():
    z = np.zeros((2, 2))
    inst = _instance(3, 2, 1)
    inst = tk.AttnInstance(n=3, d=2, A1=inst.A1, A2=inst.A2, A3=inst.A3,
                           A4=inst.A4, A5=inst.A5, E=inst.E, X1=z,
                           X2=inst.X2, X3=inst.X3, Y1=inst.Y1, Y2=inst.Y2)
    inter = tk.compute_intermediates(inst)
    assert np.abs(inter.F - 1.0 / 9.0).max() <= 1e-15


def test_intermediates_zero_residual():
    inst = _instance(3, 2, 2)
    inst = _with_target(inst, tk.forward(inst))
    inter = tk.compute_intermediates(inst)
    assert np.abs(inter.Vres).max() <= 1e-15
    assert np.abs(inter.W).max() <= 1e-14
    assert np.abs(inter.P).max() <= 1e-14


def test_intermediates_match_per_row_formula():
    inst = _instance(2, 1, 7)
    inter = tk.compute_intermediates(inst)
    f, h, vres, w, p = p_rows_dense(inst)
    assert np.abs(inter.F - f).max() <= 1e-14
    assert np.abs(inter.Vres - vres).max() <= 1e-14
    assert np.abs(inter.P - p).max() <= 1e-14


def test_intermediates_invariants():
    for seed in range(5):
        inst = _instance(int(np.random.default_rng(seed).integers(2, 7)), 2, seed)
        inter = tk.compute_intermediates(inst)
        rowsums = inter.F.sum(axis=1)
        assert np.abs(rowsums - 1.0).max() <= 1e-12
        assert (inter.F > 0).all() and (inter.F <= 1.0).all()
        assert np.abs(inter.W - inter.Vres @ inter.H.T).max() <= 1e-12


def test_grad_finite_without_warning_at_exp_limit():
    # R = 699.5 is admitted, and each row's unnormalized sum n^2 * e^699.5
    # overflows a double; the gradient never needs that sum
    n = 200
    a = np.full((n, 1), 699.5 ** (1.0 / 3.0))
    one = np.ones((1, 1))
    inst = tk.AttnInstance(n=n, d=1, A1=a, A2=a, A3=a, A4=a, A5=a, E=np.zeros((n, 1)),
                           X1=one, X2=one, X3=one, Y1=one, Y2=one)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = tk.grad_exact(inst)
    assert np.isfinite(g).all()


def _one_block_bound(n, d):
    # one block of weights (at most _BLOCK_ENTRIES doubles), that block's
    # stage-1 output and scaled queries (b*n rows of (d+1)^2 + d), terms
    # linear in n (the (d+1)^3 moments per row and the operands) and one
    # 64 KiB numpy iterator buffer: no n^2 or n^2 d^2 term
    e = d + 1
    rows = exact._block_rows(n) * n
    return 8 * (exact._BLOCK_ENTRIES + rows * (e * e + d) + 8 * n * e ** 3) + (64 << 10)


@pytest.mark.parametrize("n", [64, 128, 192, 256])
def test_grad_exact_peak_is_two_row_blocks(n, traced_peak):
    # the id is kept from when the gradient held two blocks; it holds one
    for d in (2, 3):
        inst = _instance(n, d, 1, bound=0.8)
        _, peak = traced_peak(lambda: tk.grad_exact(inst))
        assert peak < _one_block_bound(n, d), (d, peak)


@pytest.mark.parametrize("n", [64, 128, 192, 256])
def test_forward_peak_is_one_weight_block(n, traced_peak):
    for d in (2, 3):
        inst = _instance(n, d, 1, bound=0.8)
        _, peak = traced_peak(lambda: tk.forward(inst))
        assert peak < _one_block_bound(n, d), (d, peak)


def _dense_grad(inst):
    # the dense specification of the gradient, from the whole P
    p = tk.compute_intermediates(inst).P
    return (inst.A1.T @ p) @ np.kron(inst.A2, inst.A3) / inst.d


# (n, entries per block): one block holding every row; a prime n whose
# last block is short, at the module's own budget (b = 7, last block 5
# rows) and at a small one (b = 3, last block 1 row); blocks of one row,
# and a budget below one row, which still takes one row per block
BLOCKINGS = [(1, None), (2, None), (131, None), (13, 3 * 169), (6, 36), (5, 7)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n, entries", BLOCKINGS)
def test_row_blocks_match_dense_spec(n, entries, d, monkeypatch):
    if entries is not None:
        monkeypatch.setattr(exact, "_BLOCK_ENTRIES", entries)
    inst = _instance(n, d, 30 + n)
    want = _dense_grad(inst)
    got = tk.grad_exact(inst)
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1e-300)
    h = tk.col_kron(inst.A4 @ inst.Y1, inst.A5 @ inst.Y2)
    y = exact.attention_weights(inst) @ h
    assert np.abs(tk.forward(inst) - y).max() <= 1e-14
    assert tk.loss(inst) == pytest.approx(0.5 * float(((y - inst.E) ** 2).sum()), rel=1e-12)


def test_row_blocks_check_bound_once(monkeypatch):
    # 13 rows in blocks of 3: five blocks, one evaluation of the row bounds,
    # which both the exp-limit check and the kernel's shift read
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 3 * 169)
    calls = []
    bounds = tk.lowrank.row_bounds
    monkeypatch.setattr(tk.lowrank, "row_bounds", lambda *a: calls.append(1) or bounds(*a))
    inst = _instance(13, 2, 5)
    tk.grad_exact(inst)
    assert len(calls) == 1
    tk.forward(inst)
    assert len(calls) == 2


def test_grad_zero_at_optimum():
    inst = _instance(4, 2, 3)
    inst = _with_target(inst, tk.forward(inst))
    assert np.abs(tk.grad_exact(inst)).max() == 0.0


def test_grad_n1_degenerate():
    inst = _instance(1, 3, 4)
    assert np.abs(tk.grad_exact(inst)).max() == 0.0
    assert np.abs(tk.grad_fd(inst, 1e-5)).max() <= 1e-9


def test_grad_matches_fd_seed11():
    inst = _instance(3, 2, 11)
    g = tk.grad_exact(inst)
    fd = tk.grad_fd(inst, 1e-5)
    rel = np.abs(g - fd).max() / max(1.0, np.abs(g).max())
    assert rel <= 1e-5


def test_grad_fd_noise_floor_and_convergence():
    inst = _instance(4, 2, 5)
    at_optimum = _with_target(inst, tk.forward(inst))
    assert np.abs(tk.grad_fd(at_optimum, 1e-5)).max() <= 1e-9

    # larger entries so FD truncation error dominates rounding noise
    curved = _instance(4, 2, 2, bound=1.5)
    g = tk.grad_exact(curved)
    coarse = np.abs(tk.grad_fd(curved, 1e-4) - g).max()
    fine = np.abs(tk.grad_fd(curved, 1e-5) - g).max()
    assert fine < coarse / 5


def test_grad_fd_matches_loss_loop():
    # reference: one loss evaluation per perturbed x, each rebuilding its
    # scores from x; grad_fd must agree bit for bit
    step = 1e-5
    for d in (1, 2, 3):
        inst = _instance(6, d, 20 + d, bound=0.8)
        h = tk.col_kron(inst.A4 @ inst.Y1, inst.A5 @ inst.Y2)

        def loss_at(x):
            r = _weights_at(inst, x) @ h - inst.E
            return 0.5 * float((r * r).sum())

        x0 = inst.composite_x()
        want = np.empty((d, d * d))
        for i in range(d):
            for j in range(d * d):
                xp, xm = x0.copy(), x0.copy()
                xp[i, j] += step
                xm[i, j] -= step
                want[i, j] = (loss_at(xp) - loss_at(xm)) / (2.0 * step)
        assert np.array_equal(tk.grad_fd(inst, step), want), d


def test_grad_fd_scores_once(monkeypatch):
    # the 2 d^3 perturbed score matrices are shifts of one _scores call
    calls = []
    scores = exact._scores
    monkeypatch.setattr(exact, "_scores", lambda *a: calls.append(1) or scores(*a))
    tk.grad_fd(_instance(3, 2, 0), 1e-5)
    assert len(calls) == 1


@pytest.mark.parametrize("fn", [tk.grad_exact, lambda inst: tk.grad_fd(inst, 1e-5),
                                tk.compute_intermediates,
                                lambda inst: tk.grad_fast(inst, 1e-6),
                                lambda inst: tk.build_F_factors(inst, 1e-6)],
                         ids=["grad_exact", "grad_fd", "compute_intermediates",
                              "grad_fast", "build_F_factors"])
def test_projects_once(fn, monkeypatch):
    # grad_fd and compute_intermediates projected again for H = col_kron(V1, V2);
    # every entry point forms the row bounds once, from that projection
    calls = []
    projected, bounds = tk.AttnInstance.projected, tk.lowrank.row_bounds
    monkeypatch.setattr(tk.AttnInstance, "projected",
                        lambda self: calls.append("projected") or projected(self))
    monkeypatch.setattr(tk.lowrank, "row_bounds",
                        lambda *a: calls.append("row_bounds") or bounds(*a))
    fn(_instance(8, 2, 1))
    assert calls == ["projected", "row_bounds"]


@pytest.mark.parametrize("n, d", [(8, 1), (8, 4), (1, 4), (5, 3)])
def test_grad_fd_at_the_caps(n, d):
    inst = _instance(n, d, 40 + n + d)
    g = tk.grad_exact(inst)
    fd = tk.grad_fd(inst, 1e-5)
    assert np.abs(fd - g).max() <= 1e-8 * max(1.0, np.abs(g).max())


def test_grad_fd_peak_within_one_block(traced_peak):
    # the perturbed batch is at most half a scratch block; the bound is one
    # block's bytes plus one 64 KiB numpy iterator buffer
    inst = _instance(exact.FD_N_CAP, exact.FD_D_CAP, 6)
    _, peak = traced_peak(lambda: tk.grad_fd(inst, 1e-5))
    assert peak <= 8 * exact._BLOCK_ENTRIES + (64 << 10), peak
    with pytest.raises(NumericalError, match="softmax argument max"):
        tk.grad_fd(inst, 1e4)


def test_grad_fd_caps():
    with pytest.raises(ValidationError, match="capped"):
        tk.grad_fd(_instance(9, 2, 0), 1e-5)
    with pytest.raises(ValidationError, match="capped"):
        tk.grad_fd(_instance(4, 5, 0), 1e-5)
    with pytest.raises(ValidationError):
        tk.grad_fd(_instance(4, 2, 0), 0.0)
    # nan and inf steps passed the old "step <= 0" test and failed later as
    # a NumericalError about the softmax-argument bound
    for step in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="step"):
            tk.grad_fd(_instance(4, 2, 0), step)


def test_attention_row_derivative_identity():
    # d F_j0 / d X[a, m] equals (col o F_j0 - <col, F_j0> F_j0) / d, where
    # col[t] = A1[j0, a] * kron(A2, A3)[t, m]; checked by central differences
    inst = _instance(2, 2, 9)
    n, d = inst.n, inst.d
    x0 = inst.composite_x()
    ka = np.kron(inst.A2, inst.A3)
    f0 = exact.attention_weights(inst)
    h = 1e-6
    for a in range(d):
        for m in range(d * d):
            xp = x0.copy(); xp[a, m] += h
            xm = x0.copy(); xm[a, m] -= h
            fd = (_weights_at(inst, xp) - _weights_at(inst, xm)) / (2 * h)
            for j0 in range(n):
                col = inst.A1[j0, a] * ka[:, m]
                want = (col * f0[j0] - (col @ f0[j0]) * f0[j0]) / d
                assert np.abs(fd[j0] - want).max() <= 1e-6


def test_caps_and_overflow_guard(monkeypatch):
    monkeypatch.setenv("TAT_EXACT_CAP", "4")
    with pytest.raises(ValidationError, match="TAT_EXACT_CAP"):
        tk.forward(_instance(5, 2, 0))
    monkeypatch.delenv("TAT_EXACT_CAP")
    assert exact.exact_cap() == exact.DEFAULT_EXACT_CAP
    monkeypatch.setenv("TAT_EXACT_CAP", "")
    assert exact.exact_cap() == exact.DEFAULT_EXACT_CAP

    big = _instance(2, 1, 0)
    scaled = tk.AttnInstance(n=2, d=1, A1=big.A1 * 100, A2=big.A2 * 100,
                             A3=big.A3 * 100, A4=big.A4, A5=big.A5, E=big.E,
                             X1=np.array([[100.0]]), X2=np.array([[100.0]]),
                             X3=np.array([[100.0]]), Y1=big.Y1, Y2=big.Y2)
    with pytest.raises(NumericalError, match="exceeds exp limit"):
        tk.forward(scaled)


def _diagonal_instance(c):
    # Q = c I, K1 = diag(10, 1), K2 = diag(1, 10): the largest argument is
    # c * 10 / 2, attained, while |Q|max |K1|max |K2|max = 100 c
    eye = np.eye(2)
    return tk.AttnInstance(n=2, d=2, A1=c * eye, A2=np.diag([10.0, 1.0]),
                           A3=np.diag([1.0, 10.0]), A4=eye, A5=eye,
                           E=np.zeros((2, 2)), X1=eye, X2=eye, X3=eye, Y1=eye, Y2=eye)


@pytest.mark.parametrize("raw", ["1e3", "abc", "0", "-4"])
def test_exact_cap_rejects_malformed_env(raw, monkeypatch):
    # a malformed cap fell back to the default, and the cap error then told
    # the user to set the same variable
    monkeypatch.setenv("TAT_EXACT_CAP", raw)
    with pytest.raises(ValidationError, match=f"TAT_EXACT_CAP.*'{raw}'"):
        exact.exact_cap()


def test_exp_guard_uses_row_bound():
    inst = _diagonal_instance(20.0)  # R = 100, old product 2000
    assert float(np.abs(exact._scores(inst)).max()) == 100.0
    g = tk.grad_exact(inst)
    assert np.isfinite(g).all() and np.isfinite(tk.forward(inst)).all()
    with pytest.raises(NumericalError, match="exceeds exp limit"):
        tk.grad_exact(_diagonal_instance(150.0))  # R = 750
    # Q overflows to inf and K1 is zero: R and every score are nan
    one, eye = np.ones((2, 1)), np.eye(1)
    nan_bound = tk.AttnInstance(n=2, d=1, A1=1e200 * one, A2=0 * one, A3=one,
                                A4=one, A5=one, E=0 * one, X1=1e200 * eye,
                                X2=eye, X3=eye, Y1=eye, Y2=eye)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="nan"):
        tk.forward(nan_bound)
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="nan"):
        tk.grad_fd(nan_bound, 1e-5)


class _NumpyLog:
    """numpy, but ``matmul`` logs the multiply-adds of its BLAS calls and
    ``max`` counts its calls: the moment kernel's row-max passes."""

    def __init__(self):
        self.macs = []
        self.row_maxes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        # a stacked matmul is one BLAS call per trailing 2-D product
        self.macs.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return np.matmul(a, b, out=out)

    def max(self, *args, **kwargs):
        self.row_maxes += 1
        return np.max(*args, **kwargs)


def _numpy_log(monkeypatch):
    log = _NumpyLog()
    monkeypatch.setattr(exact, "np", log)
    return log


def test_unsafe_fold_falls_back_to_row_max(monkeypatch):
    # the one score is -400 and r = 400: shifted by r it would be -800, whose
    # exp underflows to 0 and leaves 0 / 0, so the kernel takes the row max
    one = np.ones((1, 1))
    inst = tk.AttnInstance(n=1, d=1, A1=-20 * one, A2=20 * one, A3=one, A4=one, A5=one,
                           E=0 * one, X1=one, X2=one, X3=one, Y1=one, Y2=one)
    assert float(exact._scores(inst)[0, 0]) == -400.0
    log = _numpy_log(monkeypatch)
    assert tk.forward(inst).tolist() == [[1.0]]
    assert log.row_maxes == 1
    assert tk.loss(inst) == 0.5


@pytest.mark.parametrize("c, folded", [(20.0, True), (80.0, False)])
def test_shift_matches_dense_spec_on_both_sides(c, folded, monkeypatch):
    # R = 100 (shifted by r inside the score GEMM) and R = 400 (row max)
    inst = _diagonal_instance(c)
    want = _dense_grad(inst)
    y = exact.attention_weights(inst) @ tk.col_kron(inst.A4 @ inst.Y1, inst.A5 @ inst.Y2)
    log = _numpy_log(monkeypatch)
    got = tk.grad_exact(inst)
    assert log.row_maxes == (0 if folded else 1)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(tk.forward(inst) - y).max() <= 1e-14


@pytest.mark.parametrize("r_max, folded", [(174.9, True), (175.1, False)])
def test_blocked_shift_at_the_switch(r_max, folded, monkeypatch):
    # 13 rows in blocks of 3, A1 scaled so that R sits just below or just
    # above a quarter of the exp limit, where the kernel switches its shift
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 3 * 169)
    base = _instance(13, 2, 8)
    scale = r_max / float(tk.lowrank.row_bounds(base.projected()[0].base, 13)[0].max())
    inst = tk.AttnInstance(n=13, d=2, **{k: getattr(base, k) for k in (
        "A2", "A3", "A4", "A5", "E", "X1", "X2", "X3", "Y1", "Y2")}, A1=scale * base.A1)
    want = _dense_grad(inst)
    y = exact.attention_weights(inst) @ tk.col_kron(inst.A4 @ inst.Y1, inst.A5 @ inst.Y2)
    log = _numpy_log(monkeypatch)
    got = tk.grad_exact(inst)
    assert log.row_maxes == (0 if folded else 5)  # one per block
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(tk.forward(inst) - y).max() <= 1e-13 * np.abs(y).max()


@pytest.mark.parametrize("r_max", [174.9, 349.0])
@pytest.mark.parametrize("v", [1.0, 1e-4, 1e-8])
def test_shift_keeps_small_values_normal(r_max, v):
    # keys of one value and a negative query: every score of row 0 is -r(0),
    # so shifted by r its weights are all e^-2r.  With r = 349 and value
    # products near v^2 = 1e-16 they would sink into subnormals (forward
    # read 5e-6 off); the switch at 4R keeps such rows on the row max
    col, one = np.ones((2, 1)), np.ones((1, 1))
    a = math.sqrt(r_max)
    inst = tk.AttnInstance(n=2, d=1, A1=np.array([[-a], [0.5 * a]]), A2=a * col, A3=col,
                           A4=v * np.array([[1.0], [2.0]]), A5=v * np.array([[3.0], [-1.0]]),
                           E=np.zeros((2, 1)), X1=one, X2=one, X3=one, Y1=one, Y2=one)
    y = exact.attention_weights(inst) @ tk.col_kron(inst.A4, inst.A5)
    assert np.abs(tk.forward(inst) - y).max() <= 1e-13 * np.abs(y).max()


@pytest.mark.parametrize("n", [128, 256])
def test_moment_kernel_gemms_fit_one_thread(n, monkeypatch):
    # OpenBLAS keeps a call of up to 2^18 multiply-adds on one thread (see
    # exact._matmul_rows); every call of the moment kernel stays there.
    # The kernel multiplies only through np.matmul, so the log sees every
    # call.
    for fn in (exact._moments, exact._matmul_rows):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
    log = _numpy_log(monkeypatch)
    for d in (2, 3, 4):
        inst = _instance(n, d, 1, bound=0.8)
        tk.grad_exact(inst)
        tk.forward(inst)
    assert log.macs and max(log.macs) <= 1 << 18, max(log.macs)


def test_instance_validation():
    with pytest.raises(ValidationError):
        tk.AttnInstance(n=2, d=1, A1=np.ones((3, 1)), A2=np.ones((2, 1)),
                        A3=np.ones((2, 1)), A4=np.ones((2, 1)), A5=np.ones((2, 1)),
                        E=np.ones((2, 1)), X1=np.ones((1, 1)), X2=np.ones((1, 1)),
                        X3=np.ones((1, 1)), Y1=np.ones((1, 1)), Y2=np.ones((1, 1)))
    bad = np.array([[np.nan]])
    with pytest.raises(ValidationError, match="non-finite"):
        tk.AttnInstance(n=1, d=1, A1=bad, A2=np.ones((1, 1)), A3=np.ones((1, 1)),
                        A4=np.ones((1, 1)), A5=np.ones((1, 1)), E=np.ones((1, 1)),
                        X1=np.ones((1, 1)), X2=np.ones((1, 1)), X3=np.ones((1, 1)),
                        Y1=np.ones((1, 1)), Y2=np.ones((1, 1)))


def test_seed_must_be_an_integer():
    # a float seed was truncated by int(): seed 1.5 drew seed 1's bytes, and
    # the hard generator's 2.9 drew seed 2's
    for seed in (1.5, 1.0, np.float64(2.0), math.nan, math.inf):
        with pytest.raises(ValidationError, match="seed must be an integer in"):
            tk.random_instance(3, 2, 0.8, seed)
    with pytest.raises(ValidationError, match="seed must be an integer in"):
        tk.make_hard_instance(2, 1, 2.0, 2.9)
    # Python and numpy integers key the same generator
    for seed in (np.int64(1), np.uint8(1)):
        assert tk.random_instance(3, 2, 0.8, seed).A1.tobytes() == \
            tk.random_instance(3, 2, 0.8, 1).A1.tobytes()
    assert tk.make_hard_instance(2, 1, 2.0, np.int32(2)).H.tobytes() == \
        tk.make_hard_instance(2, 1, 2.0, 2).H.tobytes()


def test_forward_deterministic():
    inst = _instance(6, 2, 12)
    assert tk.forward(inst).tobytes() == tk.forward(inst).tobytes()
    assert tk.grad_exact(inst).tobytes() == tk.grad_exact(inst).tobytes()


def test_attention_matches_dense_oracle():
    inst = _instance(3, 2, 13)
    f = exact.attention_weights(inst)
    assert np.abs(f - attention_rows(inst)).max() <= 1e-14
    h = value_rows(inst)
    inter = tk.compute_intermediates(inst)
    assert np.abs(inter.H - h).max() <= 1e-14
