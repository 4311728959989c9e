import numpy as np

import tatkit as tk
from tatkit import kernels

from oracles import feature_rows_gather, feature_rows_loops, hard_probe_rows_loops


def test_feature_rows_matches_oracle():
    # the parent-times-variable recurrence against prod_t M**alpha_t * w
    # entry by entry, with exact zeros and negative entries in every column
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4):
        m = rng.uniform(-1.5, 1.5, (4, d))
        m[1, 0] = 0.0
        m[2] = 0.0
        m[3] = -np.abs(m[3])
        for g in (0, 1, 7, 24):
            b = tk.build_basis(d, g)
            raw = tk.feature_map(m, b)
            assert raw.shape == (4, b.size)
            c = np.exp(-b.log_factorials)
            for weighted, w in ((False, np.ones(b.size)), (True, c)):
                got = raw * c if weighted else raw
                want = feature_rows_loops(m, b.exponents, w)
                assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all(), (d, g, weighted)


def test_feature_map_matches_gather_bit_for_bit(monkeypatch):
    # both schedules of feature_rows do the same products as one gather per
    # degree: rows on each side of SHORT_ROWS, and 37 rows with the constant
    # moved to either side of them, so the largest bases run both schedules
    # at a small size
    rng = np.random.default_rng(1)
    short = kernels.SHORT_ROWS
    for n, short_rows in ((short, short), (short + 1, short), (37, 37), (37, 36)):
        monkeypatch.setattr(kernels, "SHORT_ROWS", short_rows)
        m = rng.uniform(-1.5, 1.5, (n, 5))
        m[5] = 0.0
        for d in (1, 2, 3, 5):
            for g in (0, 1, 6, 12):
                b = tk.build_basis(d, g)
                if b.size * n > 1 << 21:  # d = 5, g = 12 past 37 rows: 100 MB
                    continue
                got = tk.feature_map(m[:, :d], b)
                # the gather's index arrays, one entry per column: the
                # degree-1 entries are the constant times e_v, the rest come
                # from the run table
                parents = np.full(b.size, -1, dtype=np.intp)
                variables = np.full(b.size, -1, dtype=np.intp)
                parents[1:d + 1] = 0
                variables[1:d + 1] = np.arange(d)[:b.size - 1]
                for dst, src, factor, row in b.runs:
                    parents[dst] = np.arange(src.start, src.stop)
                    variables[dst] = row - 1
                # entries of degree m start where the exponent sums first reach m
                bounds = np.searchsorted(b.exponents.sum(axis=1), np.arange(g + 2))
                want = feature_rows_gather(m[:, :d], parents, variables, bounds)
                assert np.array_equal(got, want), (n, short_rows, d, g)


def test_feature_map_reads_staged_rows_in_place(traced_peak):
    # d x n rows passed as rows.T reach the kernel uncopied: a call
    # allocates its k x n output and nothing n-long besides, and gives the
    # bits of a C-ordered n x d input
    n, d = 16384, 3
    rows = np.random.default_rng(2).uniform(-1.0, 1.0, (d, n))
    b = tk.build_basis(d, 2)
    got, peak = traced_peak(lambda: tk.feature_map(rows.T, b))
    assert np.array_equal(got, tk.feature_map(np.ascontiguousarray(rows.T), b))
    out_bytes = 8 * n * b.size
    assert out_bytes <= peak < out_bytes + 8 * n, (peak, out_bytes)


def test_hard_probe_rows_matches_loops():
    # one lambda and a grid of many, negative lambdas included
    for n in (1, 2, 4, 8):
        for d in (1, 2, 3):
            hi = tk.make_hard_instance(n, d, 3.0, n + d)
            for lams in ([0.7], np.linspace(-1.0, 1.0, 9)):
                got = kernels.hard_probe_rows(hi.H, hi.V, lams)
                want = hard_probe_rows_loops(hi.H, hi.V, lams)
                assert got.shape == (len(lams), n, 6)
                assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all(), (n, d, len(lams))
