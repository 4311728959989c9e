"""The benchmark still runs against this tatkit.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``WRAPS`` with
a timing wrapper, so a deleted or renamed name would only surface as a crash
in a traced benchmark run.  This resolves each one the way ``install`` does,
through ``getattr`` on the package, without wrapping anything.  A short run
of each workload must pass the benchmark's own gate: every output correct
and no call failed.  Nothing under ``perfbench/`` is changed.
"""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

import tatkit
import tatkit.cli  # noqa: F401  (the package does not import its CLI)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    missing = []
    for owner, attr, _ in spans.WRAPS:
        obj = tatkit
        for part in owner.split("."):
            obj = getattr(obj, part, None)
        target = obj.get(attr) if isinstance(obj, dict) else getattr(obj, attr, None)
        if not callable(target):
            missing.append(f"{owner}.{attr}")
    assert not missing, f"names wrapped by perfbench/spans.py are gone: {missing}"


def test_grad_fast_attrs_reads_a_real_report(monkeypatch):
    # the traced run folds these report fields into per-layer metrics
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    inst = tatkit.random_instance(64, 3, 0.8, 1)
    report = tatkit.fastgrad.grad_fast(inst, 1e-6)
    attrs = spans._grad_fast_attrs((inst, 1e-6), report)
    assert attrs["g"] == report.degree and attrs["k1"] == report.k1
    assert attrs["k5"] == report.k5
    for key in ("g", "k1", "k5", "factor_mib"):
        assert math.isfinite(attrs[key]) and attrs[key] > 0, (key, attrs)


@pytest.mark.parametrize("workload", ["long-seq", "high-rank", "exact-oracle", "verify"])
def test_benchmark_run_passes_its_gate(workload):
    # a short run of each workload, as the benchmark runs it from the
    # repository root: every output passes its checks and no call fails
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(run.stdout.strip().split("\n")[-1])
    assert result["correct"] is True and result["failed"] == 0, result
