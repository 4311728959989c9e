"""Fixtures shared by the test modules."""

import dataclasses
import tracemalloc

import pytest

from tatkit import fastgrad


@pytest.fixture
def perturb_grad_fast(monkeypatch):
    """``perturb_grad_fast(delta)`` makes ``fastgrad.grad_fast`` return g~ + delta."""
    grad_fast = fastgrad.grad_fast

    def perturb(delta):
        def perturbed(inst, eps, **kw):
            rep = grad_fast(inst, eps, **kw)
            return dataclasses.replace(rep, g_tilde=rep.g_tilde + delta)

        monkeypatch.setattr(fastgrad, "grad_fast", perturbed)

    return perturb


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` returns ``(fn(), peak)``, peak the traced bytes of one call.

    An untraced warm-up call comes first, so what a call caches for the
    next (the basis ``build_basis`` keeps) is not counted.  Tracing runs
    around the second call only, from outside it, and stops even if it raises.
    """
    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
