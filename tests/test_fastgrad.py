import tracemalloc

import numpy as np
import pytest

import tatkit as tk
from tatkit import fastgrad, kernels, lowrank
from tatkit.errors import NumericalError, ValidationError


def _with_target(inst, e):
    return tk.AttnInstance(
        n=inst.n, d=inst.d, A1=inst.A1, A2=inst.A2, A3=inst.A3, A4=inst.A4,
        A5=inst.A5, E=e, X1=inst.X1, X2=inst.X2, X3=inst.X3, Y1=inst.Y1, Y2=inst.Y2,
    )


def _uniform_instance():
    # zero query, value products (3, 4, 6, 8), zero target
    z = np.zeros((1, 1))
    one = np.ones((1, 1))
    return tk.AttnInstance(
        n=2, d=1,
        A1=np.array([[1.0], [2.0]]), A2=np.array([[1.0], [2.0]]),
        A3=np.array([[1.0], [2.0]]),
        A4=np.array([[1.0], [2.0]]), A5=np.array([[3.0], [4.0]]),
        E=np.zeros((2, 1)), X1=z, X2=one, X3=one, Y1=one, Y2=one,
    )


def test_residual_u2_uniform_case():
    inst = _uniform_instance()
    ff, _ = tk.build_F_factors(inst, 1e-8)
    u2 = tk.build_residual_U2(inst, ff)
    assert np.abs(u2 - 5.25).max() <= 1e-12


def test_residual_u2_near_zero_at_optimum():
    eps = 1e-10
    inst = tk.random_instance(6, 2, 0.7, 1)
    inst = _with_target(inst, tk.forward(inst))
    ff, _ = tk.build_F_factors(inst, eps)
    u2 = tk.build_residual_U2(inst, ff)
    assert np.abs(u2).max() <= 10 * eps


def test_residual_u2_matches_exact_seed13():
    inst = tk.random_instance(8, 2, 0.8, 13)
    ff, _ = tk.build_F_factors(inst, 1e-8)
    u2 = tk.build_residual_U2(inst, ff)
    vres = tk.compute_intermediates(inst).Vres
    assert np.abs(u2 - vres).max() <= 1e-7


def test_w_factors():
    inst = tk.random_instance(8, 2, 0.8, 13)
    inter = tk.compute_intermediates(inst)
    ff, _ = tk.build_F_factors(inst, 1e-8)
    u2 = tk.build_residual_U2(inst, ff)
    wf = tk.build_W_factors(inst, u2)
    assert wf.k == inst.d
    assert np.abs(wf.materialize() - inter.W).max() <= 1e-6

    at_opt = _with_target(inst, tk.forward(inst))
    ff0, _ = tk.build_F_factors(at_opt, 1e-10)
    wf0 = tk.build_W_factors(at_opt, tk.build_residual_U2(at_opt, ff0))
    assert np.abs(wf0.materialize()).max() <= 1e-7

    with pytest.raises(ValidationError):
        tk.build_W_factors(inst, np.ones((3, 3)))


def test_w_factors_uniform_case():
    inst = _uniform_instance()
    ff, _ = tk.build_F_factors(inst, 1e-10)
    wf = tk.build_W_factors(inst, tk.build_residual_U2(inst, ff))
    want = tk.compute_intermediates(inst).W
    assert np.abs(wf.materialize() - want).max() <= 1e-9


def test_pa_factors_rank_one_toy():
    # hand expansion: U1(V1 o W1)^T entry u1v1w1, second factor u2v2w2,
    # Hadamard product of the two rank-one sheets
    ff = tk.LowRankTriple(U=np.array([[1.0], [2.0]]), V=np.array([[3.0], [4.0]]),
                          W=np.array([[5.0], [6.0]]))
    wf = tk.LowRankTriple(U=np.array([[1.0], [-1.0]]), V=np.array([[2.0], [0.0]]),
                          W=np.array([[1.0], [3.0]]))
    pa = tk.build_Pa_factors(ff, wf)
    want = ff.materialize() * wf.materialize()
    assert (pa.materialize() == want).all()
    assert pa.k == 1


def test_pa_factors_annihilator_and_product_identity():
    inst = tk.random_instance(8, 2, 0.8, 13)
    ff, _ = tk.build_F_factors(inst, 1e-8)
    zero = tk.LowRankTriple(U=np.zeros((8, 2)), V=np.ones((8, 2)), W=np.ones((8, 2)))
    assert np.abs(tk.build_Pa_factors(ff, zero).materialize()).max() == 0.0

    u2 = tk.build_residual_U2(inst, ff)
    wf = tk.build_W_factors(inst, u2)
    pa = tk.build_Pa_factors(ff, wf)
    assert pa.k == ff.k * wf.k
    assert np.abs(pa.materialize() - ff.materialize() * wf.materialize()).max() <= 1e-12

    inter = tk.compute_intermediates(inst)
    assert np.abs(pa.materialize() - inter.F * inter.W).max() <= 1e-6


def test_pb_factors():
    inst = tk.random_instance(8, 2, 0.8, 13)
    inter = tk.compute_intermediates(inst)
    ff, _ = tk.build_F_factors(inst, 1e-8)
    wf = tk.build_W_factors(inst, tk.build_residual_U2(inst, ff))
    pb, r_tilde = tk.build_Pb_factors(ff, wf)
    r_exact = (inter.F * inter.W).sum(axis=1)
    assert np.abs(r_tilde - r_exact).max() <= 1e-7
    pb_exact = r_exact[:, None] * inter.F
    assert np.abs(pb.materialize() - pb_exact).max() <= 1e-6
    assert pb.k == ff.k

    zero = tk.LowRankTriple(U=np.zeros((8, 2)), V=np.ones((8, 2)), W=np.ones((8, 2)))
    pb0, r0 = tk.build_Pb_factors(ff, zero)
    assert np.abs(r0).max() == 0.0 and np.abs(pb0.materialize()).max() == 0.0


def test_pb_single_row_inner_product():
    inst = tk.random_instance(1, 2, 0.8, 3)
    inter = tk.compute_intermediates(inst)
    ff, _ = tk.build_F_factors(inst, 1e-10)
    wf = tk.build_W_factors(inst, tk.build_residual_U2(inst, ff))
    _, r_tilde = tk.build_Pb_factors(ff, wf)
    assert r_tilde.shape == (1,)
    assert abs(r_tilde[0] - float(inter.F[0] @ inter.W[0])) <= 1e-10


def test_grad_fast_stationary_and_degenerate():
    inst = tk.random_instance(6, 2, 0.7, 2)
    at_opt = _with_target(inst, tk.forward(inst))
    rep = tk.grad_fast(at_opt, 1e-8)
    assert np.abs(rep.g_tilde).max() <= rep.eps_target
    assert np.abs(rep.g_tilde).max() <= 1e-8

    one = tk.random_instance(1, 3, 0.8, 4)
    rep1 = tk.grad_fast(one, 1e-8)
    assert np.abs(rep1.g_tilde).max() <= 1e-12


def test_grad_fast_matches_exact_seed17():
    inst = tk.random_instance(16, 2, 0.8, 17)
    rep = tk.grad_fast(inst, 1e-8)
    g = tk.grad_exact(inst)
    err = np.abs(rep.g_tilde - g).max()
    assert err <= 1e-6
    assert err <= rep.eps_target


def test_grad_fast_matches_explicit_factors():
    # the explicit route: hstack the Pa and Pb factors, contract against A
    eps = 1e-6
    cases = [(n, d, 0.8) for n in (8, 64) for d in (1, 2, 3, 4)]
    cases += [(2048, 2, 0.8), (64, 3, 1.0)]
    for n, d, bound in cases:
        inst = tk.random_instance(n, d, bound, 100 + n + d)
        ff, _ = tk.build_F_factors(inst, eps / 2)
        u2 = tk.build_residual_U2(inst, ff)
        wf = tk.build_W_factors(inst, u2)
        pa = tk.build_Pa_factors(ff, wf)
        pb, r_tilde = tk.build_Pb_factors(ff, wf)
        g1 = inst.A1.T @ np.hstack([pa.U, -pb.U])
        g2 = inst.A2.T @ np.hstack([pa.V, pb.V])
        g3 = inst.A3.T @ np.hstack([pa.W, pb.W])
        want = np.einsum("ak,bk,ck->abc", g1, g2, g3).reshape(d, d * d) / d
        got = tk.grad_fast(inst, eps).g_tilde
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (n, d, bound)
        # Pb's Gram is the residual's middle factor, so R = rowsum(Y o U2)
        mid = (ff.V.T @ wf.V) * (ff.W.T @ wf.W)
        r_direct = ((ff.U @ mid) * u2).sum(axis=1)
        assert np.abs(r_tilde - r_direct).max() <= 1e-13 * np.abs(r_tilde).max(), (n, d)


def test_rank_admission_before_allocation():
    # R=6.66 needs g=32, so k1=58905 is under the cap but k1*d=235620 is
    # over it; the feature maps alone would take gigabytes
    inst = tk.random_instance(2048, 4, 1.05, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="k1\\*d"):
            tk.grad_fast(inst, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grad_fast_projects_once(monkeypatch):
    calls = []
    projected = tk.AttnInstance.projected

    def counted(self):
        calls.append(self)
        return projected(self)

    monkeypatch.setattr(tk.AttnInstance, "projected", counted)
    tk.grad_fast(tk.random_instance(16, 2, 0.8, 3), 1e-6)
    assert len(calls) == 1


def test_grad_fast_one_feature_map_one_degree(monkeypatch):
    calls = {"feature_rows": 0, "choose_degree": 0, "projected": 0, "build_W_factors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "feature_rows", counted("feature_rows", kernels.feature_rows))
    monkeypatch.setattr(lowrank, "choose_degree", counted("choose_degree", lowrank.choose_degree))
    monkeypatch.setattr(tk.AttnInstance, "projected",
                        counted("projected", tk.AttnInstance.projected))
    monkeypatch.setattr(fastgrad, "build_W_factors",
                        counted("build_W_factors", fastgrad.build_W_factors))
    tk.grad_fast(tk.random_instance(16, 2, 0.8, 3), 1e-6)
    assert calls == {"feature_rows": 1, "choose_degree": 1, "projected": 1,
                     "build_W_factors": 0}


def test_rank_bookkeeping():
    for seed in (0, 1):
        inst = tk.random_instance(8, 3, 0.6, seed)
        rep = tk.grad_fast(inst, 1e-6)
        assert rep.k2 == inst.d
        assert rep.k3 == rep.k1 * rep.k2
        assert rep.k4 == rep.k1
        assert rep.k5 == rep.k3 + rep.k4


def test_eps_validation_and_warning():
    inst = tk.random_instance(4, 2, 0.8, 0)
    with pytest.raises(ValidationError):
        tk.grad_fast(inst, 1.0)
    with pytest.raises(ValidationError):
        tk.grad_fast(inst, -1e-3)
    with pytest.warns(UserWarning, match="rounding noise"):
        tk.grad_fast(inst, 1e-13)


def test_report_contents():
    inst = tk.random_instance(8, 2, 0.8, 5)
    rep = tk.grad_fast(inst, 1e-6)
    assert rep.eps_requested == 1e-6
    assert rep.eps_internal == 5e-7
    assert rep.eps_target > 0
    q, k1, k2, _, _ = inst.projected()
    assert rep.arg_bound == lowrank.softmax_arg_bound(q, k1, k2)
    assert rep.degree == tk.choose_degree(rep.arg_bound, rep.eps_internal)
    assert set(rep.stage_timings) == {
        "feature_map", "key_contract", "residual_u2", "query_contract", "assemble",
    }
    assert all(t >= 0 for t in rep.stage_timings.values())
    assert rep.g_tilde.shape == (2, 4)
    assert rep.peak_bytes == 0


def test_allocation_audit():
    inst = tk.random_instance(512, 2, 0.8, 6)
    rep = tk.grad_fast(inst, 1e-6, audit=True)
    assert 0 < rep.peak_bytes < 3 * 512 * 512 * 8
    # audited result identical to the unaudited one
    plain = tk.grad_fast(inst, 1e-6)
    assert (rep.g_tilde == plain.g_tilde).all()


def test_audit_leaves_an_outer_trace_running():
    inst = tk.random_instance(512, 2, 0.8, 6)
    tracemalloc.start()
    try:
        rep = tk.grad_fast(inst, 1e-6, audit=True)
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert rep.peak_bytes > 0


def test_audit_stops_its_trace_when_it_raises():
    # n = 8 is below k1, so the named-buffer audit fails on Phi(K1)
    with pytest.raises(NumericalError, match="allocation audit"):
        tk.grad_fast(tk.random_instance(8, 2, 0.8, 1), 1e-6, audit=True)
    assert not tracemalloc.is_tracing()
    # the normalizer check fails inside the traced pass too
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="row normalizer"):
            tk.grad_fast(tk.random_instance(64, 1, 3.0, 3), 1e-6, audit=True)
    assert not tracemalloc.is_tracing()


def test_grad_fast_rejects_overflowed_features():
    # R = 63.9 is admitted at g = 273 and k1 = 274, but the raw key features
    # overflow; without a finiteness check the gradient comes back all NaN,
    # while the exact one is finite (max ~ 9.98)
    inst = tk.random_instance(64, 1, 3.0, 3)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="non-finite"):
            tk.grad_fast(inst, 1e-6)


def test_peak_memory_is_features_plus_operands():
    # the fused path holds the three n x k1 feature maps and, per row, the
    # key operand's (d+1)^2 entries plus the query side's Y, U2, R, its
    # scaled [U2 | -R] and operand, under 3 (d+1)^2 more; no other n x k1
    # buffer may exist at any point
    n, d = 8192, 3
    rep = tk.grad_fast(tk.random_instance(n, d, 0.8, 1), 1e-6, audit=True)
    bound = 8 * (3 * n * rep.k1 + 4 * n * (d + 1) ** 2)
    assert 0 < rep.peak_bytes < bound, (rep.peak_bytes, bound, rep.k1)


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(7)
    for _ in range(4):
        n = int(rng.choice([4, 8, 16]))
        d = int(rng.choice([2, 3]))
        inst = tk.random_instance(n, d, 0.8, int(rng.integers(10 ** 6)))
        rep = tk.grad_fast(inst, 1e-8)
        g = tk.grad_exact(inst)
        assert np.abs(rep.g_tilde - g).max() <= 1e-6


def test_error_budget_monotone_in_eps():
    inst = tk.random_instance(8, 2, 0.8, 9)
    t1 = tk.grad_fast(inst, 1e-4).eps_target
    t2 = tk.grad_fast(inst, 1e-8).eps_target
    assert t2 < t1
