import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tatkit as tk
from tatkit.errors import ValidationError

from identities import ALL_CHECKS
from oracles import col_kron_loops, row_kron_loops


def test_col_kron_examples():
    assert (tk.col_kron([[1], [2]], [[3], [4]]).ravel() == [3, 4, 6, 8]).all()
    assert (tk.col_kron(np.ones((3, 2)), np.ones((2, 2))) == np.ones((6, 2))).all()
    assert (tk.col_kron([[1, 2], [3, 4]], [[5, 6]]) == [[5, 12], [15, 24]]).all()


def test_row_kron_examples():
    assert (tk.row_kron([[1, 2]], [[3, 4]]) == [[3, 4, 6, 8]]).all()
    a = np.arange(8.0).reshape(4, 2)
    assert (tk.row_kron(a, np.ones((4, 1))) == a).all()
    assert (tk.row_kron([[1, 0], [0, 1]], [[2, 3], [4, 5]])
            == [[2, 3, 0, 0], [0, 0, 4, 5]]).all()


def test_shape_validation():
    with pytest.raises(ValidationError):
        tk.col_kron(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        tk.row_kron(np.ones((2, 2)), np.ones((3, 2)))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kron_matches_loop_oracle(n1, n2, d1, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, (n1, d1)).astype(float)
    b = rng.integers(-3, 4, (n2, d1 + 1)).astype(float)
    assert (tk.row_kron(a[: min(n1, n2)], b[: min(n1, n2)])
            == row_kron_loops(a[: min(n1, n2)], b[: min(n1, n2)])).all()


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_col_kron_matches_loop_oracle(n1, n2, d, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, (n1, d)).astype(float)
    b = rng.integers(-3, 4, (n2, d)).astype(float)
    assert (tk.col_kron(a, b) == col_kron_loops(a, b)).all()


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_identities_small_sample(check):
    rng = np.random.default_rng(hash(check.__name__) % 2 ** 32)
    for _ in range(20):
        check(rng)


def test_outputs_stay_finite():
    rng = np.random.default_rng(6)
    a = rng.uniform(-10, 10, (3, 2))
    b = rng.uniform(-10, 10, (4, 2))
    for out in (np.kron(a, b), tk.col_kron(a, b), tk.row_kron(a, a)):
        assert np.isfinite(out).all()
