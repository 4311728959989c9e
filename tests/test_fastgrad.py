import collections
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import tatkit as tk
from tatkit import exact, fastgrad, kernels, lowrank
from tatkit.errors import ValidationError

from oracles import error_budget, grad_poly_dense


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


def _explicit_grad(inst, eps):
    # the explicit route: hstack the Pa and Pb factors, contract against A;
    # returns the gradient, the F and W triples and Pb's per-row scalars
    d = inst.d
    ff, _ = tk.build_F_factors(inst, eps / 2)
    wf = tk.build_W_factors(inst, tk.build_residual_U2(inst, ff))
    pa = tk.build_Pa_factors(ff, wf)
    pb, r_tilde = tk.build_Pb_factors(ff, wf)
    g1 = inst.A1.T @ np.hstack([pa.U, -pb.U])
    g2 = inst.A2.T @ np.hstack([pa.V, pb.V])
    g3 = inst.A3.T @ np.hstack([pa.W, pb.W])
    grad = np.einsum("ak,bk,ck->abc", g1, g2, g3).reshape(d, d * d) / d
    return grad, ff, wf, r_tilde


def test_grad_fast_matches_explicit_factors():
    eps = 1e-6
    cases = [(n, d, 0.8) for n in (8, 64) for d in (1, 2, 3, 4)]
    cases += [(2048, 2, 0.8), (64, 3, 1.0)]
    for n, d, bound in cases:
        inst = tk.random_instance(n, d, bound, 100 + n + d)
        want, ff, wf, r_tilde = _explicit_grad(inst, eps)
        got = tk.grad_fast(inst, eps).g_tilde
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (n, d, bound)
        # Pb's Gram is the residual's middle factor, so R = rowsum(Y o U2)
        mid = (ff.V.T @ wf.V) * (ff.W.T @ wf.W)
        r_direct = ((ff.U @ mid) * wf.U).sum(axis=1)
        assert np.abs(r_tilde - r_direct).max() <= 1e-13 * np.abs(r_tilde).max(), (n, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_grad_fast_matches_truncated_series_oracle(d):
    # grad_exact's dense closed form with exp replaced by p_g at the
    # report's degree is what grad_fast computes in exact arithmetic; the
    # oracle shares no code with the feature stage
    for bound in (0.8, 1.2):
        for n, seed in ((4, 1), (16, 2), (32, 1)):
            inst = tk.random_instance(n, d, bound, seed)
            rep = tk.grad_fast(inst, 1e-6)
            want = grad_poly_dense(inst, rep.degree)
            err = np.abs(rep.g_tilde - want).max()
            assert err <= 1e-13 * np.abs(want).max(), (n, bound, seed, rep.degree)


def test_rank_admission_before_allocation():
    # R=6.66 needs g=32, so k1=58905 is under the cap but k1*d=235620 is
    # over it; the feature maps alone would take gigabytes.  At d=1,
    # R=29048 needs g=125459, so k1 alone is over the cap, and the same
    # one k1*d check rejects it
    for inst in (tk.random_instance(2048, 4, 1.05, 0), tk.random_instance(8, 1, 8.0, 0)):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="k1\\*d"):
                tk.grad_fast(inst, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, inst.d


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


def test_eps_nan_rejected_before_projection(monkeypatch):
    # a nan eps passed every comparison and was rejected only in
    # choose_degree, after the projections and R
    def projected(self):
        raise AssertionError("projected before eps was checked")

    inst = tk.random_instance(4, 2, 0.8, 0)
    monkeypatch.setattr(tk.AttnInstance, "projected", projected)
    with pytest.raises(ValidationError, match="eps must be below 1, got nan"):
        tk.grad_fast(inst, math.nan)


def _budget_cases():
    # test_grad_fast_matches_explicit_factors' cases, n = 1 and the
    # stationary instance of test_grad_fast_stationary_and_degenerate
    cases = [(tk.random_instance(n, d, b, 100 + n + d), 1e-6)
             for n, d, b in [(n, d, 0.8) for n in (8, 64) for d in (1, 2, 3, 4)]
             + [(2048, 2, 0.8), (64, 3, 1.0)]]
    cases.append((tk.random_instance(1, 3, 0.8, 4), 1e-8))
    inst = tk.random_instance(6, 2, 0.7, 2)
    cases.append((_with_target(inst, tk.forward(inst)), 1e-8))
    return cases


def test_eps_target_is_the_error_budget_bit_for_bit():
    # the report holds the caller's instance and two floats, no array of
    # the call; max|U2| is the fused U2's, within rounding of the builders'
    for inst, eps in _budget_cases():
        rep = tk.grad_fast(inst, eps)
        held, eps_f, u2_max = rep._budget
        assert held is inst and eps_f == eps / 2
        assert type(u2_max) is float
        _, _, _, v2, w2 = inst.projected()
        want = error_budget(inst, eps / 2, np.array([[u2_max]]), v2, w2)
        assert rep.eps_target == want, (inst.n, inst.d)
        ff, _ = tk.build_F_factors(inst, eps / 2)
        u2 = tk.build_residual_U2(inst, ff)
        scale = max(1.0, float(np.abs(inst.E).max()))
        assert abs(u2_max - float(np.abs(u2).max())) <= 1e-12 * scale, (inst.n, inst.d)


def test_eps_target_computed_on_first_read_only(monkeypatch):
    calls = []
    budget = fastgrad._error_budget

    def counted(*args):
        calls.append(args)
        return budget(*args)

    monkeypatch.setattr(fastgrad, "_error_budget", counted)
    rep = tk.grad_fast(tk.random_instance(8, 2, 0.8, 5), 1e-6)
    assert len(calls) == 0
    first = rep.eps_target
    assert len(calls) == 1
    assert rep.eps_target == first
    assert len(calls) == 1


def test_eps_target_after_replace():
    inst = tk.random_instance(8, 2, 0.8, 5)
    rep = tk.grad_fast(inst, 1e-6)
    moved = dataclasses.replace(rep, g_tilde=rep.g_tilde + 1.0)
    _, _, _, v2, w2 = inst.projected()
    want = error_budget(inst, 0.5e-6, np.array([[rep._budget[2]]]), v2, w2)
    assert moved.eps_target == want
    assert rep.eps_target == want


def test_eps_target_is_fixed_at_return():
    # the report holds the caller's instance, whose arrays are read-only,
    # and the instance copied the caller's writable source arrays, so no
    # write before the first read moves the bound
    base = tk.random_instance(8, 2, 0.8, 5)
    unchanged = tk.grad_fast(base, 1e-6).eps_target
    a1 = base.A1.copy()
    inst = dataclasses.replace(base, A1=a1)
    rep = tk.grad_fast(inst, 1e-6)
    with pytest.raises(ValueError, match="read-only"):
        inst.A1[0, 0] = 50.0
    a1[0, 0] = 50.0
    assert inst.A1[0, 0] == base.A1[0, 0]
    assert rep.eps_target == unchanged


def _profile_events(fn, *args):
    # the call and c_call events sys.setprofile sees while fn(*args) runs
    events = collections.Counter()

    def profile(frame, event, arg):
        events[event] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return events["call"] + events["c_call"]


# One warm grad_fast made 137 call and c_call events at (n, d) = (64, 3)
# (52 call, 85 c_call) and 129 at (8, 2) (48, 81) before its fixed cost
# was cut, then 91 and 83, then 97 and 89 once it scaled its features, then
# 98 (37, 61) and 90 (33, 57) once lowrank.staged_features held that stage,
# then 97 (37, 60) and 89 (33, 56) once short feature rows took no
# .tolist() of the run table, with 98 (37, 61) at (2048, 2).  It makes 82
# (29, 53) at all three now that choose_degree tests the remainder in one
# function and both feature schedules walk one run table, with numpy 2.4.6
# on CPython 3.11.7.  (64, 3) and (8, 2) take feature_rows' short-row
# schedule and (2048, 2) the long-row one.  The count includes grad_fast's
# own call and the c_call of sys.setprofile(None); 7 are the assemble's
# np.einsum, whose dispatcher is a generator, and 16 are choose_degree's
# search, its own call included, at all three (31, 23 and 31 before).
FIXED_COST_EVENTS = 100


@pytest.mark.parametrize("n, d", [(64, 3), (8, 2), (2048, 2)])
def test_grad_fast_fixed_cost_events(n, d):
    # a deterministic gate on per-call Python and C-call overhead: it does
    # not depend on n, the degree or the machine's speed
    inst = tk.random_instance(n, d, 0.8, 1)
    tk.grad_fast(inst, 1e-6)
    events = _profile_events(fastgrad.grad_fast, inst, 1e-6)
    assert events <= FIXED_COST_EVENTS, events


def test_report_contents():
    inst = tk.random_instance(8, 2, 0.8, 5)
    rep = tk.grad_fast(inst, 1e-6)
    assert rep.eps_target > 0
    assert rep.arg_bound == float(lowrank.row_bounds(inst.projected()[0].base, inst.n)[0].max())
    assert rep.degree == tk.choose_degree(rep.arg_bound, 1e-6 / 2)
    assert set(rep.stage_timings) == {
        "feature_map", "key_contract", "residual_u2", "query_contract", "assemble",
    }
    assert all(t >= 0 for t in rep.stage_timings.values())
    assert rep.g_tilde.shape == (2, 4)


def test_allocation_audit(traced_peak):
    # in the regime n * k1 << n^2 a whole call, traced from outside, stays
    # below one n^2-entry float64 buffer, so no n x n^2 (or n x n) buffer
    # can have existed; tracing does not change the result
    n = 512
    inst = tk.random_instance(n, 2, 0.8, 6)
    rep, peak = traced_peak(lambda: tk.grad_fast(inst, 1e-6))
    assert 0 < peak < n * n * 8
    assert np.array_equal(rep.g_tilde, tk.grad_fast(inst, 1e-6).g_tilde)


def test_grad_fast_features_do_not_overflow():
    # R = 63.9 is admitted at g = 273 and k1 = 274.  max|K1| = 3.2 and
    # max|K2| = 5.04, so the raw key features' column sums reached ~1e138
    # and ~1e192, their product overflowed and grad_fast raised
    # NumericalError where the exact gradient is finite (max ~ 9.98).  Over
    # their column maxima no feature exceeds 1, and the two agree
    inst = tk.random_instance(64, 1, 3.0, 3)
    rep = tk.grad_fast(inst, 1e-6)
    want = tk.grad_exact(inst)
    assert (rep.degree, rep.k1) == (273, 274)
    assert np.abs(rep.g_tilde - want).max() <= 1e-13 * np.abs(want).max()


def test_build_f_factors_agrees_at_large_r():
    # the specification shares grad_fast's scaled features, so its raw key
    # features no longer overflow: it raised NumericalError on both.  At
    # R = 134 (g = 576) the materialized F is within eps of the dense one;
    # at R = 63.9 (n = 64, past the materialize cap) the explicit triples'
    # gradient agrees with the exact one
    eps = 5e-7
    inst = tk.random_instance(16, 1, 3.0, 1)
    triple, _ = tk.build_F_factors(inst, eps)
    assert np.abs(triple.materialize() - exact.attention_weights(inst)).max() <= eps
    inst = tk.random_instance(64, 1, 3.0, 3)
    want = tk.grad_exact(inst)
    got = _explicit_grad(inst, 1e-6)[0]
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def test_peak_memory_is_features_plus_operands(traced_peak):
    # the fused path holds the five n x d projections, the three n x k1
    # feature maps and, per row, the key operand's (d+1)^2 entries plus the
    # query side's Y, U2, R, its scaled [U2 | -R] and operand, under
    # 3 (d+1)^2 more; no other n x k1 buffer may exist at any point
    n, d = 8192, 3
    inst = tk.random_instance(n, d, 0.8, 1)
    rep, peak = traced_peak(lambda: tk.grad_fast(inst, 1e-6))
    bound = 8 * (3 * n * rep.k1 + 4 * n * (d + 1) ** 2 + 5 * n * d)
    assert 0 < peak < bound, (peak, bound, rep.k1)


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
