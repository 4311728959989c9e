import numpy as np

import tatkit as tk
from oracles import feature_rows_gather, feature_rows_loops


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
            for weighted, w in ((False, np.ones(b.size)), (True, b.series_weights)):
                got = raw * b.series_weights if weighted else raw
                want = feature_rows_loops(m, b.exponents, w)
                assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all(), (d, g, weighted)


def test_feature_map_matches_gather_bit_for_bit():
    # the slice recurrence does the same products as one gather per degree
    rng = np.random.default_rng(1)
    for d in (1, 2, 3, 5):
        m = rng.uniform(-1.5, 1.5, (37, d))
        m[5] = 0.0
        for g in (0, 1, 6, 12):
            b = tk.build_basis(d, g)
            got = tk.feature_map(m, b)
            want = feature_rows_gather(m, b.parents, b.variables, b.degree_bounds)
            assert np.array_equal(got, want), (d, g)
