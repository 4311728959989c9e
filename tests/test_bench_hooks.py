"""Every name the benchmark's traced run wraps still exists in tatkit.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``WRAPS`` with
a timing wrapper, so a deleted or renamed name would only surface as a crash
in a traced benchmark run.  This resolves each one the way ``install`` does,
through ``getattr`` on the package, without wrapping anything.
"""

import importlib
import math
import os

import tatkit
import tatkit.cli  # noqa: F401  (the package does not import its CLI)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
