"""The benchmark's references agree with dense closed forms, and its gates bite.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repository root.
"""

import numpy as np
import pytest

import references as ref
import tatkit as tk
from tatkit import fileio


def dense_grad(inst):
    """A1^T P (A2 kron A3) / d with every n x n^2 matrix materialized."""
    n, d = inst.A1.shape
    x = ref.composite_x(inst)
    s = (inst.A1 @ x) @ np.kron(inst.A2, inst.A3).T / d
    f = np.exp(s - s.max(axis=1, keepdims=True))
    f /= f.sum(axis=1, keepdims=True)
    v1, v2 = inst.A4 @ inst.Y1, inst.A5 @ inst.Y2
    h = np.stack([np.outer(v1[:, i], v2[:, i]).ravel() for i in range(d)], axis=1)
    w = (f @ h - inst.E) @ h.T
    p = f * w - (f * w).sum(axis=1, keepdims=True) * f
    return inst.A1.T @ p @ np.kron(inst.A2, inst.A3) / d


@pytest.mark.parametrize("n,d,seed", [(6, 2, 0), (5, 3, 1), (8, 2, 4)])
def test_check_instance_grad_matches_dense(n, d, seed):
    inst = tk.random_instance(n, d, 0.8, seed)
    ci = tk.AttnInstance(n=n, d=d, **ref.check_instance(inst, [0, 2, 3]))
    g = ref.check_instance_grad(ci)
    assert ref.rel_err(g, dense_grad(ci)) < 1e-13
    assert ref.rel_err(tk.grad_exact(ci), g) < 1e-13


def test_check_instance_grad_needs_equal_a3_rows():
    with pytest.raises(ValueError):
        ref.check_instance_grad(tk.random_instance(4, 2, 0.8, 0))


@pytest.mark.parametrize("n,d,seed", [(6, 2, 0), (4, 3, 2), (8, 2, 7)])
def test_fd_grad_matches_dense(n, d, seed):
    inst = tk.random_instance(n, d, 0.8, seed)
    g = dense_grad(inst)
    assert ref.rel_err(ref.fd_grad(inst), g) <= ref.fd_rtol(inst, g)
    assert ref.rel_err(tk.grad_exact(inst), g) < 1e-12


def test_probe_f_matches_row_loop():
    hi = tk.make_hard_instance(4, 2, 3.0, 0)
    for lam in (0.0, 0.3, 1.0):
        want = 0.0
        for row in hi.H:
            e = np.exp(lam * row)
            want += float(((e / e.sum()) @ hi.V) @ ((e / e.sum()) @ hi.V))
        assert abs(ref.probe_f(hi.H, hi.V, lam) - want) <= ref.PROBE_RTOL * want


def test_perturbed_gradients_fail_their_checks():
    inst = tk.random_instance(6, 2, 0.8, 3)
    ci = tk.AttnInstance(n=6, d=2, **ref.check_instance(inst, [1, 4]))
    g = ref.check_instance_grad(ci)
    bump = np.zeros_like(g)
    bump[0, 1] = 10 * ref.FAST_RTOL * np.abs(g).max()
    assert ref.rel_err(tk.grad_fast(ci, 1e-6).g_tilde, g) <= ref.FAST_RTOL
    assert ref.rel_err(g + bump, g) > ref.FAST_RTOL

    fd = ref.fd_grad(inst)
    rtol = ref.fd_rtol(inst, fd)
    bump = np.zeros_like(fd)
    bump[1, 2] = 10 * rtol * np.abs(fd).max()
    assert ref.rel_err(tk.grad_exact(inst), fd) <= rtol
    assert ref.rel_err(tk.grad_exact(inst) + bump, fd) > rtol
    assert ref.rel_err(np.full_like(fd, np.nan), fd) > rtol


def test_parse_instance_text_reads_what_tat_gen_writes():
    inst = tk.random_instance(3, 2, 0.8, 9)
    got = ref.parse_instance_text(fileio.format_instance(inst))
    for name in ref.BLOCKS:
        assert np.array_equal(getattr(got, name), getattr(inst, name))
