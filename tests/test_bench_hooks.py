"""Every name the benchmark's traced run wraps still exists in tatkit.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``WRAPS`` with
a timing wrapper, so a deleted or renamed name would only surface as a crash
in a traced benchmark run.  This resolves each one the way ``install`` does,
through ``getattr`` on the package, without wrapping anything.
"""

import importlib
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
