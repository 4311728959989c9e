"""The four workloads: their inputs, their operations and their checks.

``setup`` makes a workload's inputs from the seed alone.  ``ops`` lists the
calls of one step, and ``checks`` the timed checks that follow each step, as
(kind, callable) pairs; a check returns True when it passes.
``references`` lists the checks run once, on the outputs of the first
step.  Every tatkit function is looked up on its module at call time, so
the traced run sees the wrapped name.
"""

import contextlib
import io
import math
import os

import references as ref

BOUND = 0.8
EPS = 1e-6
CHECK_ROWS = slice(0, 4)  # S: the rows of A1 that a check instance keeps


class OpFailed(Exception):
    """A CLI call that returned a nonzero exit code."""


class Batch:
    """One gradient of every instance ``random_instance(n, d, BOUND, seed + i)``, i < batch.

    Timed checks: for each batch instance, a check instance with A1 zero
    outside the rows ``CHECK_ROWS`` and every A3 row equal to its first.
    There ``references.check_instance_grad`` gives the exact gradient in
    O(|S| n d), and the engine must match it within ``rtol``, relative.
    """

    def __init__(self, n, d, batch):
        self.n, self.d, self.batch = n, d, batch

    def setup(self, tk, seed, workdir):
        return [tk.instance.random_instance(self.n, self.d, BOUND, seed + i)
                for i in range(self.batch)]

    def ops(self, tk, insts):
        return [("probe", lambda inst=inst: self.grad(tk, inst)) for inst in insts]

    def checks(self, tk, insts):
        cis = [tk.instance.AttnInstance(n=self.n, d=self.d,
                                        **ref.check_instance(inst, CHECK_ROWS))
               for inst in insts]
        return [("check", lambda ci=ci: ref.rel_err(self.grad(tk, ci),
                                                     ref.check_instance_grad(ci)) <= self.rtol)
                for ci in cis]

    def references(self, tk, insts, outputs):
        return []


class FastBatch(Batch):
    """``grad_fast`` at eps ``EPS``; checked within eps."""

    rtol = ref.FAST_RTOL

    def grad(self, tk, inst):
        return tk.fastgrad.grad_fast(inst, EPS).g_tilde


class ExactBatch(Batch):
    """``grad_exact``; checked within rounding on the check instances.

    The first step's gradients are also checked once against central
    differences of ``references.loss_at``, within ``references.fd_rtol``.
    """

    rtol = ref.EXACT_RTOL

    def grad(self, tk, inst):
        return tk.exact.grad_exact(inst)

    def references(self, tk, insts, outputs):
        def check(inst, g):
            fd = ref.fd_grad(inst)
            return ref.rel_err(g, fd) <= ref.fd_rtol(inst, fd)

        return [("reference", lambda inst=inst, g=g: check(inst, g))
                for inst, g in zip(insts, outputs)]


def cli_call(tk, argv):
    """Run ``tat <argv>`` in this process; its stdout text, or OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tk.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"tat {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


class Verify:
    """The ``tat`` CLI as a user runs it: ``check`` on instance files, then ``probe``.

    Set-up writes ``files`` instance files with ``tat gen``.  Checks: every
    call exits 0; ``tat grad`` with each engine matches central differences
    of ``references.loss_at`` on each file; the f0 and f1 that ``tat probe``
    prints match ``references.probe_f`` on the same hard instance, and the
    printed values satisfy |s_t - (f1 - f0)| <= b_emp / t.
    """

    def __init__(self, n, d, files, ba, t):
        self.n, self.d, self.files, self.ba, self.t = n, d, files, ba, t

    def _probe_argv(self, seed):
        return ["probe", "--n", str(self.n), "--d", str(self.d), "--ba", str(self.ba),
                "--seed", str(seed), "--t", str(self.t)]

    def setup(self, tk, seed, workdir):
        paths = []
        for i in range(self.files):
            path = os.path.join(workdir, f"inst{i}.tat")
            cli_call(tk, ["gen", "--n", str(self.n), "--d", str(self.d),
                          "--bound", str(BOUND), "--seed", str(seed + i), "--out", path])
            paths.append(path)
        return {"paths": paths, "seed": seed}

    def ops(self, tk, state):
        ops = [("check", lambda p=p: cli_call(tk, ["check", "--in", p]))
               for p in state["paths"]]
        ops.append(("probe", lambda: cli_call(tk, self._probe_argv(state["seed"]))))
        return ops

    def checks(self, tk, state):
        return []

    def references(self, tk, state, outputs):
        def check_grad(path, engine):
            with open(path, encoding="ascii") as fh:
                inst = ref.parse_instance_text(fh.read())
            fd = ref.fd_grad(inst)
            g = ref.parse_matrix_text(cli_call(tk, ["grad", "--in", path, "--engine", engine]))
            return ref.rel_err(g, fd) <= ref.fd_rtol(inst, fd)

        def check_probe():
            if outputs[-1] is None:  # the first step's probe failed
                return False
            vals = dict(line.split("=") for line in outputs[-1].strip().split("\n"))
            f0, f1, s_t, b_emp = (float(vals[k]) for k in ("f0", "f1", "s_t", "b_emp"))
            hi = tk.hardness.make_hard_instance(self.n, self.d, self.ba, state["seed"])
            ok = all(math.isclose(v, ref.probe_f(hi.H, hi.V, lam), rel_tol=ref.PROBE_RTOL)
                     for v, lam in ((f0, 0.0), (f1, 1.0)))
            return ok and abs(s_t - (f1 - f0)) <= b_emp / self.t

        return [("reference", lambda p=p, e=e: check_grad(p, e))
                for p in state["paths"] for e in ("exact", "fast")] + [("reference", check_probe)]


WORKLOADS = {
    "long-seq": FastBatch(n=2048, d=2, batch=32),
    "high-rank": FastBatch(n=64, d=3, batch=96),
    "exact-oracle": ExactBatch(n=128, d=2, batch=4),
    "verify": Verify(n=8, d=2, files=4, ba=3.0, t=100),
}
