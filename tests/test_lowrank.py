import math

import numpy as np
import pytest

import tatkit as tk
from tatkit import exact, lowrank
from tatkit.errors import ValidationError


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


def test_choose_degree_matches_a_scan():
    # the doubling-and-bisection search against a scan g = 0, 1, 2, ... with
    # the same log-space remainder test: the search returns the least g
    def scan(r, eps):
        if r == 0.0:
            return 0
        g = 0
        while True:
            lb = r + (g + 1) * math.log(r) - math.lgamma(g + 2)
            if lb <= math.log(eps) and lb < -r:
                return g
            g += 1

    rng = np.random.default_rng(4)
    rs = [0.0, 1e-300, 1e-10, 0.5, 1.0, 2.5] + np.linspace(0.25, 60.0, 240).tolist()
    rs += rng.uniform(0.0, 60.0, 60).tolist() + np.exp(rng.uniform(-20.0, 4.1, 60)).tolist()
    for r in rs:
        for eps in (0.5, 1e-2, 1e-4, 5e-7, 1e-6, 1e-8, 1e-12, 1e-15):
            assert tk.choose_degree(r, eps) == scan(r, eps), (r, eps)


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
    # eps outside (0, 1), nan included
    for eps in (1.0, -1e-3, math.nan):
        with pytest.raises(ValidationError, match="eps must lie in"):
            tk.choose_degree(1.0, eps)


def _series(x, g):
    # the scalar truncated series sum_{j <= g} x^j / j!, term by term
    out = np.zeros_like(x)
    for j in range(g + 1):
        out += x ** j / math.factorial(j)
    return out


def test_poly_approx_past_largest_double_factorial():
    # 171! overflows a double; the degree the engine admits at R=60 is 256.
    # At d = 1 the basis is the scalar series grad_fast evaluates
    g = tk.choose_degree(60.0, 5e-7)
    assert g > 170
    # log j! stays finite and accurate where 1/j! underflows
    logf = tk.build_basis(1, g).log_factorials
    assert np.allclose(logf, [math.lgamma(j + 1) for j in range(g + 1)], rtol=1e-14, atol=0)
    c = np.exp(-logf)
    tail = c[171:]
    assert (tail >= 0).all() and (np.diff(tail) <= 0).all()
    assert 60.0 + (g + 1) * math.log(60.0) - math.lgamma(g + 2) <= math.log(5e-7)
    xs = np.linspace(0.0, 60.0, 61)
    got = np.polynomial.polynomial.polyval(xs, c)
    assert np.abs(got / np.exp(xs) - 1.0).max() <= 1e-12


def test_log_factorials_are_logs_of_exact_integers():
    # log alpha! is math.log of the exact integer prod_t alpha_t!, bit for
    # bit: a sum of per-variable logs can sit one ulp away, and at large R
    # that ulp moves grad_fast by more than its eps
    def want(b):
        return [math.log(math.prod(map(math.factorial, a))) for a in b.exponents.tolist()]

    for d in range(1, 6):
        for g in range(13):
            b = tk.build_basis(d, g)
            assert b.log_factorials.tolist() == want(b), (d, g)
    # past 170, where alpha! is no longer a finite double
    b = tk.build_basis(1, 300)
    assert b.log_factorials.tolist() == want(b)


def test_poly_approx_grid_error_within_remainder():
    for r, eps in ((0.5, 1e-6), (1.0, 1e-8), (2.0, 1e-4)):
        g = tk.choose_degree(r, eps)
        b = tk.build_basis(1, g)
        xs = np.linspace(-r, r, 1001)
        p = tk.feature_map(xs[:, None], b) @ np.exp(-b.log_factorials)
        err = np.abs(p - np.exp(xs)).max()
        assert err <= _remainder(r, g) <= eps
        # remainder below e^-r forces positivity on the whole range
        assert (p > 0).all()


def _multinomials(b):
    # |alpha|! / alpha!, exact integers from the exponents
    return np.array([math.factorial(sum(a)) // math.prod(map(math.factorial, a))
                     for a in b.exponents.tolist()])


def test_basis_graded_lex_order_and_weights():
    b = tk.build_basis(2, 2)
    assert b.exponents.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert _multinomials(b).tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 1.0]

    b1 = tk.build_basis(1, 3)
    assert b1.size == 4 and (_multinomials(b1) == 1.0).all()

    assert tk.build_basis(2, 9).size == 55


def test_basis_is_every_composition_in_graded_lex_order():
    # distinct, C(d+g, g) of them, degree <= g: every composition once; and
    # sorted by (degree, descending lex)
    for d in range(1, 6):
        for g in range(11):
            rows = [tuple(r) for r in tk.build_basis(d, g).exponents.tolist()]
            assert len(set(rows)) == len(rows) == math.comb(d + g, g)
            assert all(min(r) >= 0 and sum(r) <= g for r in rows)
            want = sorted(rows, key=lambda r: (sum(r), [-a for a in r]))
            assert rows == want, (d, g)


def test_basis_count_law():
    for d in (1, 2, 3):
        for g in (0, 1, 4):
            assert tk.build_basis(d, g).size == math.comb(d + g, g)


def test_basis_parent_recurrence_and_cache():
    for d, g in ((1, 5), (2, 7), (3, 6), (4, 4)):
        b = tk.build_basis(d, g)
        assert (b.exponents[0] == 0).all()
        assert (b.exponents[1:d + 1] == np.eye(d, dtype=int)).all()
        for dst, src, factor, row in b.runs:
            step = b.exponents[dst] - b.exponents[src]
            assert (step == np.eye(d, dtype=int)[row - 1]).all()
        assert tk.build_basis(d, g) is b
        for a in (b.exponents, b.log_factorials, b.factor_rows):
            assert not a.flags.writeable


def test_basis_compares_and_hashes_by_identity():
    # the generated __eq__ and __hash__ covered the arrays: == raised numpy's
    # ambiguous-truth ValueError and hash raised TypeError
    a, b = tk.MonomialBasis(2, 2), tk.MonomialBasis(2, 2)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    for d, g in ((1, 3), (2, 2), (3, 5)):
        assert tk.build_basis(d, g) is tk.build_basis(d, g)
        assert tk.build_basis(d, g) == tk.build_basis(d, g)


def test_basis_blocks_reproduce_recurrence():
    # each (degree, first variable) run is a contiguous slice that is a
    # contiguous slice of the previous degree times one variable; with the
    # degree-1 entries, e_0..e_{d-1} at 1..d, the runs cover 1..size
    for d in range(1, 6):
        for g in range(13):
            b = tk.build_basis(d, g)
            covered = np.zeros(b.size, dtype=int)
            degrees = b.exponents.sum(axis=1)
            if g >= 1:
                assert (b.exponents[1:d + 1] == np.eye(d, dtype=int)).all()
                covered[1:d + 1] += 1
            for dst, src, factor, row in b.runs:
                assert 0 < dst.stop - dst.start == src.stop - src.start
                assert dst.step is None and src.step is None
                step = b.exponents[dst] - b.exponents[src]
                assert (step == np.eye(d, dtype=int)[row - 1]).all()
                assert degrees[src.start] == degrees[dst.start] - 1 >= 1
                covered[dst] += 1
            assert covered[0] == 0 and (covered[1:] == 1).all(), (d, g)


def test_basis_run_slices_are_the_run_table():
    # one (dst, src, factor, row) per run past degree 1, in entry order, and
    # every factor-block row a run reads is its variable's degree-1 entry,
    # row; each variable's rows are one contiguous stretch, as long as its
    # longest run
    for d in range(1, 6):
        for g in range(13):
            b = tk.build_basis(d, g)
            assert isinstance(b.runs, tuple)
            assert len(b.runs) == max(g - 1, 0) * d
            assert [dst.start for dst, _, _, _ in b.runs] == sorted(
                dst.start for dst, _, _, _ in b.runs)
            longest = np.zeros(d, dtype=int)
            for dst, src, factor, row in b.runs:
                length = dst.stop - dst.start
                assert 1 <= row <= d and factor.stop - factor.start == length
                assert (b.factor_rows[factor] == row).all()
                longest[row - 1] = max(longest[row - 1], length)
            assert (b.factor_rows == np.repeat(np.arange(1, d + 1), longest)).all(), (d, g)


@pytest.mark.parametrize("name", ["exponents", "log_factorials", "factor_rows", "runs"])
def test_basis_takes_only_d_and_g(name):
    # the arrays were constructor parameters that __post_init__ overwrote,
    # so MonomialBasis(d=2, g=2, log_factorials=w) silently dropped w
    with pytest.raises(TypeError, match=name):
        tk.MonomialBasis(d=2, g=2, **{name: np.ones(6)})
    assert tk.MonomialBasis(2, 2).size == 6


def test_basis_rank_cap():
    with pytest.raises(ValidationError, match="rank cap"):
        tk.build_basis(30, 30)


def test_basis_inner_product_identity():
    # <q, k>^j  ==  sum over |alpha| = j of m(alpha) q^alpha k^alpha
    rng = np.random.default_rng(0)
    b = tk.build_basis(3, 4)
    degrees = b.exponents.sum(axis=1)
    for _ in range(20):
        q = rng.uniform(-1, 1, 3)
        k = rng.uniform(-1, 1, 3)
        for j in range(5):
            sel = degrees == j
            terms = (
                _multinomials(b)[sel]
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
    for _ in range(25):
        q = rng.uniform(-0.5, 0.5, (1, 2))
        k1 = rng.uniform(-0.5, 0.5, (1, 2))
        k2 = rng.uniform(-0.5, 0.5, (1, 2))
        fq = tk.feature_map(q, b) * np.exp(-b.log_factorials)
        f1 = tk.feature_map(k1, b)
        f2 = tk.feature_map(k2, b)
        got = float((fq @ (f1 * f2).T)[0, 0])
        want = float(_series(np.array(q[0] @ (k1[0] * k2[0])), g))
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
    return float(lowrank.row_bounds(inst.projected()[0].base, inst.n)[0].max())


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


def _bound_cases():
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
    return cases


def test_softmax_arg_bound_is_rigorous():
    # b^3 >= R >= every realised softmax argument, b the largest projected entry
    for inst in _bound_cases():
        r = _arg_bound(inst)
        top = float(np.abs(exact._scores(inst)).max())
        b = max(float(np.abs(m).max()) for m in inst.projected())
        assert b ** 3 >= r >= top, (inst.d, r, top)
        if inst.d == 1:  # one column: the bound is attained
            assert r == top


def test_softmax_row_bounds_bound_each_row():
    # R is the rows' largest bound bit for bit, and equals the formula it had
    # before the per-row vector existed (max, then divide by d)
    for inst in _bound_cases():
        q, k1, k2, _, _ = inst.projected()
        rows, col_max = lowrank.row_bounds(q.base, inst.n)
        blocks = (k1, k2, q) + inst.projected()[3:]
        assert np.array_equal(col_max, np.stack([np.abs(m).max(axis=0) for m in blocks], 1))
        r = float(rows.max())
        assert r == rows.max()
        c = np.abs(k1).max(axis=0) * np.abs(k2).max(axis=0)
        assert r == float((np.abs(q) @ c).max()) / inst.d
        top = np.abs(exact._scores(inst)).max(axis=1)
        assert rows.shape == (inst.n,) and (rows >= top).all(), (inst.d, rows, top)
        if inst.d == 1:  # one column: every row's bound is attained
            assert (rows == top).all()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_projected_is_a_at_x_bit_for_bit(d):
    # the five projections are written into one d x 5n buffer, rows
    # [K1^T | K2^T | Q^T | V1^T | V2^T], with the bits of A @ X
    for n in (1, 5, 64, 2048):
        inst = tk.random_instance(n, d, 0.8, 10 * d + n)
        proj = inst.projected()
        want = (inst.A1 @ inst.X1, inst.A2 @ inst.X2, inst.A3 @ inst.X3,
                inst.A4 @ inst.Y1, inst.A5 @ inst.Y2)
        assert all(np.array_equal(p, w) for p, w in zip(proj, want)), n
        rows = proj[0].base
        assert rows.shape == (d, 5 * n) and rows.flags.c_contiguous
        for i, m in enumerate((proj[1], proj[2], proj[0], proj[3], proj[4])):
            assert m.base is rows and np.array_equal(rows[:, i * n:(i + 1) * n], m.T)


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


def test_materialize_cap():
    t = tk.LowRankTriple(U=np.ones((40, 2)), V=np.ones((40, 2)), W=np.ones((40, 2)))
    with pytest.raises(ValidationError, match="capped"):
        t.materialize()


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
    b = tk.build_basis(1, g)
    xs = rng.uniform(-r, r, 1000)
    got = tk.feature_map(xs[:, None], b) @ np.exp(-b.log_factorials)
    assert np.abs(got - _series(xs, g)).max() <= 1e-13
