"""Fixtures shared by the test modules."""

import dataclasses

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
