import math

import numpy as np
import pytest

import tatkit as tk
from tatkit import exact, lowrank
from tatkit.errors import NumericalError, ValidationError


def _remainder(r, g):
    return math.exp(r) * r ** (g + 1) / math.factorial(g + 1)


def test_choose_degree_examples():
    assert tk.choose_degree(0.0, 0.5) == 0
    # frozen from evaluating the remainder formula directly
    assert tk.choose_degree(1.0, 1e-6) == 9
    assert _remainder(1.0, 9) <= 1e-6 < _remainder(1.0, 8)
    assert tk.choose_degree(0.5, 1e-8) == 8
    assert _remainder(0.5, 8) <= 1e-8 < _remainder(0.5, 7)


def test_choose_degree_is_minimal_and_positive():
    for r in (0.3, 1.0, 2.5):
        for eps in (1e-3, 1e-6, 1e-10):
            g = tk.choose_degree(r, eps)
            assert _remainder(r, g) <= eps
            assert _remainder(r, g) < math.exp(-r)
            if g > 0:
                bigger = _remainder(r, g - 1)
                assert bigger > eps or bigger >= math.exp(-r)


def test_choose_degree_validation():
    with pytest.raises(ValidationError):
        tk.choose_degree(-1.0, 1e-6)
    with pytest.raises(ValidationError):
        tk.choose_degree(1.0, 2.0)
    with pytest.raises(ValidationError):
        tk.choose_degree(1.0, 0.0)
    for r in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite"):
            tk.choose_degree(r, 1e-6)


def test_poly_approx_past_largest_double_factorial():
    # 171! overflows a double; the degree the engine admits at R=60 is 256
    g = tk.choose_degree(60.0, 5e-7)
    assert g > 170
    poly = tk.PolyExpApprox(degree=g, range_=60.0)
    assert poly.coeffs[:171].tolist() == [1.0 / math.factorial(j) for j in range(171)]
    tail = poly.coeffs[171:]
    assert (tail >= 0).all() and (np.diff(tail) <= 0).all()
    assert math.isclose(tail[0], math.exp(-math.lgamma(172)))
    assert poly.remainder_bound() <= 5e-7
    xs = np.linspace(0.0, 60.0, 61)
    assert np.abs(poly.evaluate(xs) / np.exp(xs) - 1.0).max() <= 1e-12


def test_poly_approx_grid_error_within_remainder():
    for r, eps in ((0.5, 1e-6), (1.0, 1e-8), (2.0, 1e-4)):
        g = tk.choose_degree(r, eps)
        poly = tk.PolyExpApprox(degree=g, range_=r)
        xs = np.linspace(-r, r, 1001)
        err = np.abs(poly.evaluate(xs) - np.exp(xs)).max()
        assert err <= poly.remainder_bound() <= eps
        # remainder below e^-r forces positivity on the whole range
        assert (poly.evaluate(xs) > 0).all()


def test_basis_graded_lex_order_and_weights():
    b = tk.build_basis(2, 2)
    assert b.exponents.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert b.weights.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 1.0]

    b1 = tk.build_basis(1, 3)
    assert b1.size == 4 and (b1.weights == 1.0).all()

    assert tk.build_basis(2, 9).size == 55


def test_basis_count_law():
    for d in (1, 2, 3):
        for g in (0, 1, 4):
            assert tk.build_basis(d, g).size == math.comb(d + g, g)


def test_basis_parent_recurrence_and_cache():
    for d, g in ((1, 5), (2, 7), (3, 6), (4, 4)):
        b = tk.build_basis(d, g)
        assert b.parents[0] == -1 and b.variables[0] == -1
        for i in range(1, b.size):
            p, v = b.parents[i], b.variables[i]
            assert b.degrees[p] == b.degrees[i] - 1
            assert (b.exponents[i] - b.exponents[p] == np.eye(d, dtype=int)[v]).all()
        for m in range(g + 1):
            lo, hi = b.degree_bounds[m], b.degree_bounds[m + 1]
            assert (b.degrees[lo:hi] == m).all()
        assert b.degree_bounds[-1] == b.size
        assert tk.build_basis(d, g) is b
        for a in (b.exponents, b.weights, b.series_weights, b.degrees,
                  b.parents, b.variables, b.degree_bounds):
            assert not a.flags.writeable


def test_basis_blocks_reproduce_recurrence():
    # each (degree, first variable) run is a contiguous slice whose parents
    # are a contiguous slice of the previous degree; together they cover 1..size
    for d in range(1, 6):
        for g in range(13):
            b = tk.build_basis(d, g)
            assert b.blocks.shape == (g * d, 4)
            assert not b.blocks.flags.writeable
            covered = np.zeros(b.size, dtype=int)
            for dst, src, length, v in b.blocks:
                assert length > 0
                assert (b.parents[dst:dst + length] == np.arange(src, src + length)).all()
                assert (b.variables[dst:dst + length] == v).all()
                assert b.degrees[src] == b.degrees[dst] - 1
                covered[dst:dst + length] += 1
            assert covered[0] == 0 and (covered[1:] == 1).all(), (d, g)


def test_basis_rank_cap():
    with pytest.raises(ValidationError, match="rank cap"):
        tk.build_basis(30, 30)


def test_basis_inner_product_identity():
    # <q, k>^j  ==  sum over |alpha| = j of m(alpha) q^alpha k^alpha
    rng = np.random.default_rng(0)
    b = tk.build_basis(3, 4)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        k = rng.uniform(-1, 1, 3)
        for j in range(5):
            sel = b.degrees == j
            terms = (
                b.weights[sel]
                * np.prod(q[None, :] ** b.exponents[sel], axis=1)
                * np.prod(k[None, :] ** b.exponents[sel], axis=1)
            )
            want = (q @ k) ** j
            assert abs(terms.sum() - want) <= 1e-10 * max(1.0, abs(want))


def test_feature_map_examples():
    b = tk.build_basis(2, 2)
    z = tk.feature_map(np.zeros((3, 2)), b)
    assert (z[:, 0] == 1.0).all() and (z[:, 1:] == 0.0).all()

    # raw monomials: 2^2 = 4, not the series-weighted 2^2 / 2!
    b1 = tk.build_basis(1, 2)
    assert tk.feature_map(np.array([[2.0]]), b1).tolist() == [[1.0, 2.0, 4.0]]

    with pytest.raises(ValidationError):
        tk.feature_map(np.ones((2, 3)), b)


def test_feature_map_reproduces_truncated_series():
    # paired features against the scalar series of exp(<q, k1 o k2>)
    rng = np.random.default_rng(1)
    g = 9
    b = tk.build_basis(2, g)
    poly = tk.PolyExpApprox(degree=g, range_=0.5)
    for _ in range(25):
        q = rng.uniform(-0.5, 0.5, (1, 2))
        k1 = rng.uniform(-0.5, 0.5, (1, 2))
        k2 = rng.uniform(-0.5, 0.5, (1, 2))
        fq = tk.feature_map(q, b) * b.series_weights
        f1 = tk.feature_map(k1, b)
        f2 = tk.feature_map(k2, b)
        got = float((fq @ (f1 * f2).T)[0, 0])
        want = float(poly.evaluate(np.array(q[0] @ (k1[0] * k2[0]))))
        assert abs(got - want) <= 1e-12


def test_build_f_factors_uniform_is_exact():
    z = np.zeros((2, 2))
    base = tk.random_instance(4, 2, 0.8, 3)
    inst = tk.AttnInstance(n=4, d=2, A1=base.A1, A2=base.A2, A3=base.A3,
                           A4=base.A4, A5=base.A5, E=base.E, X1=z,
                           X2=base.X2, X3=base.X3, Y1=base.Y1, Y2=base.Y2)
    triple, d_tilde = tk.build_F_factors(inst, 1e-6)
    mat = triple.materialize()
    assert np.abs(mat - 1.0 / 16.0).max() == 0.0
    assert np.abs(d_tilde - 16.0).max() <= 1e-12


def test_build_f_factors_error_contract():
    inst = tk.random_instance(8, 2, 0.8, 1)
    triple, _ = tk.build_F_factors(inst, 1e-8)
    f = exact.attention_weights(inst)
    assert np.abs(triple.materialize() - f).max() <= 1e-8


def _arg_bound(inst):
    q, k1, k2, _, _ = inst.projected()
    return lowrank.softmax_arg_bound(q, k1, k2)


def test_build_f_factors_rank_law_and_row_sums():
    inst = tk.random_instance(8, 2, 0.8, 2)
    for eps in (1e-4, 1e-6, 1e-8):
        triple, _ = tk.build_F_factors(inst, eps)
        g = tk.choose_degree(_arg_bound(inst), eps)
        assert triple.k == math.comb(inst.d + g, g)
        rowsums = triple.materialize().sum(axis=1)
        assert np.abs(rowsums - 1.0).max() <= 1e-12


def test_build_f_factors_rank_report_shape():
    # d=2 with degree 9 must give 55 columns on each factor
    inst = tk.random_instance(4, 2, 0.8, 4)
    r = _arg_bound(inst)
    eps = _remainder(r, 9) * 1.001  # lands exactly on degree 9
    g = tk.choose_degree(r, eps)
    triple, _ = tk.build_F_factors(inst, eps)
    assert g == 9 and triple.k == 55
    assert triple.U.shape == triple.V.shape == triple.W.shape == (4, 55)


def _blocks(inst, **over):
    blocks = {k: getattr(inst, k) for k in
              ("A1", "A2", "A3", "A4", "A5", "E", "X1", "X2", "X3", "Y1", "Y2")}
    blocks.update(over)
    return tk.AttnInstance(n=inst.n, d=inst.d, **blocks)


def test_softmax_arg_bound_is_rigorous():
    # b_eff^3 >= R >= every realised softmax argument
    cases = []
    for d in (1, 2, 3, 4):
        for seed in range(3):
            inst = tk.random_instance(6, d, 0.9, 40 * d + seed)
            cases.append(inst)
            # nonpositive A1, A2, A3 and X1
            cases.append(_blocks(inst, A1=-np.abs(inst.A1), A2=-np.abs(inst.A2),
                                 A3=-np.abs(inst.A3), X1=-np.abs(inst.X1)))
            # zero rows on the query and key sides
            a1, a2 = inst.A1.copy(), inst.A2.copy()
            a1[0] = 0.0
            a2[1:3] = 0.0
            cases.append(_blocks(inst, A1=a1, A2=a2))
            # perfbench's check-instance shape: A1 zero outside four rows,
            # every A3 row equal
            a1 = np.zeros_like(inst.A1)
            a1[:4] = inst.A1[:4]
            cases.append(_blocks(inst, A1=a1, A3=np.repeat(inst.A3[:1], 6, axis=0)))
    zero = cases[0]
    cases.append(_blocks(zero, A1=np.zeros_like(zero.A1)))
    for inst in cases:
        r = _arg_bound(inst)
        top = float(np.abs(exact._scores(inst)).max())
        assert inst.b_eff() ** 3 >= r >= top, (inst.d, r, top)
        if inst.d == 1:  # one column: the bound is attained
            assert r == top


def test_build_f_factors_validation():
    inst = tk.random_instance(4, 2, 0.8, 5)
    with pytest.raises(ValidationError):
        tk.build_F_factors(inst, 1.5)
    scaled = tk.AttnInstance(
        n=4, d=2, A1=inst.A1 * 40, A2=inst.A2 * 40, A3=inst.A3 * 40,
        A4=inst.A4, A5=inst.A5, E=inst.E, X1=inst.X1 * 40, X2=inst.X2 * 40,
        X3=inst.X3 * 40, Y1=inst.Y1, Y2=inst.Y2,
    )
    with pytest.raises(ValidationError, match="rank"):
        tk.build_F_factors(scaled, 1e-8)


def test_build_f_factors_rejects_overflowed_normalizer():
    # R = 63.9 is admitted at g = 273, but the raw key features overflow, so
    # the row normalizer is NaN
    inst = tk.random_instance(64, 1, 3.0, 3)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalError, match="non-finite"):
            tk.build_F_factors(inst, 5e-7)


def test_materialize_cap():
    t = tk.LowRankTriple(U=np.ones((40, 2)), V=np.ones((40, 2)), W=np.ones((40, 2)))
    with pytest.raises(ValidationError, match="capped"):
        t.materialize()
    assert t.materialize(cap=64).shape == (40, 1600)


def test_lowrank_triple_validation():
    with pytest.raises(ValidationError):
        tk.LowRankTriple(U=np.ones((3, 2)), V=np.ones((3, 3)), W=np.ones((3, 2)))
    with pytest.raises(ValidationError):
        tk.LowRankTriple(U=np.ones((3, 2)), V=np.ones((4, 2)), W=np.ones((3, 2)))


def test_scalar_series_fidelity_invariant():
    # induced scalar approximation of exp matches the truncated series
    rng = np.random.default_rng(6)
    r = 1.0
    g = tk.choose_degree(r, 1e-6)
    poly = tk.PolyExpApprox(degree=g, range_=r)
    xs = rng.uniform(-r, r, 1000)
    series = np.zeros_like(xs)
    for j in range(g + 1):
        series += xs ** j / math.factorial(j)
    assert np.abs(poly.evaluate(xs) - series).max() <= 1e-13
