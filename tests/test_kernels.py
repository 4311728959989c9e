import os
import subprocess
import sys

import numpy as np
import pytest

import tatkit as tk
from oracles import feature_rows_loops
from tatkit import kernels


needs_numba = pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba backend off")


def test_backend_reports():
    assert kernels.backend() in ("numba", "numpy")


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
            for weighting, w in (("full", b.series_weights), ("none", np.ones(b.size))):
                got = tk.feature_map(m, b, weighting)
                want = feature_rows_loops(m, b.exponents, w)
                assert got.shape == (4, b.size)
                assert (np.abs(got - want) <= 1e-14 * np.abs(want)).all(), (d, g, weighting)


@needs_numba
def test_bilinear_rows_paths_agree():
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, (9, 5))
    g = rng.uniform(-1, 1, (5, 4))
    v = rng.uniform(-1, 1, (9, 4))
    a = kernels.bilinear_rows(u, g, v)
    b = kernels.bilinear_rows_np(u, g, v)
    assert np.abs(a - b).max() <= 1e-13


@needs_numba
def test_hard_probe_paths_agree():
    hi = tk.make_hard_instance(4, 2, 3.0, 5)
    a = kernels.hard_probe_rows(hi.H, hi.V, 0.4)
    b = kernels.hard_probe_rows_np(hi.H, hi.V, 0.4)
    assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


@needs_numba
def test_streaming_matches_materialized_pipeline():
    inst = tk.random_instance(6, 2, 0.8, 2)
    inter = tk.compute_intermediates(inst)
    out = tk.forward(inst)
    assert np.abs(out - inter.F @ inter.H).max() <= 1e-13


def test_set_threads_clamps():
    kernels.set_threads(0)
    assert kernels.get_threads() == 1
    kernels.set_threads(1)
    assert kernels.get_threads() == 1


def test_env_flag_selects_numpy_backend():
    code = (
        "import tatkit as tk\n"
        "from tatkit import kernels\n"
        "import numpy as np\n"
        "assert kernels.backend() == 'numpy'\n"
        "inst = tk.random_instance(4, 2, 0.8, 7)\n"
        "print(repr(float(np.abs(tk.grad_exact(inst)).max())))\n"
    )
    # The child must import the same tatkit the parent tested, however the
    # parent found it, so keep the environment and prepend the package root.
    env = dict(os.environ, TAT_NUMBA="0")
    root = os.path.dirname(os.path.dirname(tk.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    inst = tk.random_instance(4, 2, 0.8, 7)
    here = float(np.abs(tk.grad_exact(inst)).max())
    assert abs(float(proc.stdout.strip()) - here) <= 1e-12 * max(1.0, here)
