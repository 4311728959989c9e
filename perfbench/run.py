#!/usr/bin/env python3
"""Benchmark for tatkit: one workload per process, outputs checked, metrics as JSON.

Run from the root of a tatkit checkout (it imports ``src/tatkit``):

    python3 perfbench/run.py --workload long-seq --seed 1 --seconds 20 --trace 0

Workloads: long-seq, high-rank, exact-oracle, verify (see README.md).  The
run repeats steps, each followed by one round of timed checks, for about
``--seconds``.  A timed set-up (a fresh interpreter importing tatkit, then
the workload's inputs made from the seed) comes before the first step, and
one more falls due every ``SETUP_EVERY`` seconds of run; it runs before the
next call, outside that call's time.  So set-up is sampled over the whole
run like the steps, and as often on every workload.  Last, the first
step's outputs are checked against references.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
around tatkit's public functions with ``--trace 1``.  Exit code 2 when the
checkout holds no ``src/tatkit``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_EVERY = 2.0  # seconds of run per timed set-up
MIN_STEPS = 3


def import_tatkit(src):
    sys.path.insert(0, src)
    import tatkit
    import tatkit.cli  # noqa: F401  (the package does not import its CLI)
    return tatkit


def import_seconds(src):
    """Wall time of a fresh interpreter that imports tatkit and exits."""
    code = f"import sys; sys.path.insert(0, {src!r}); import tatkit, tatkit.cli"
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t


def same_output(a, b):
    """True when a step output is finite and bit-identical to the first step's."""
    if isinstance(a, str):
        return a == b
    return bool(np.isfinite(a).all()) and np.array_equal(a, b)


class Calls:
    """A fixed list of (kind, callable) pairs, called in whole rounds.

    Keeps each call's times across rounds and its output of the first round,
    and counts the calls attempted and the calls that raised ``failures``.
    ``between``, when given, is called before each call, outside its time.
    """

    def __init__(self, calls, failures):
        self.calls, self.failures = calls, failures
        self.times = [[] for _ in calls]
        self.first = None
        self.attempted = self.failed = 0

    def round(self, between=None):
        """The outputs of one call of each, and the sum of the calls' times."""
        outputs, total = [], 0.0
        for (kind, fn), times in zip(self.calls, self.times):
            if between:
                between()
            t = time.perf_counter()
            try:
                outputs.append(fn())
            except self.failures as e:
                print(f"perfbench: {kind} failed: {e}", file=sys.stderr)
                outputs.append(None)
                self.failed += 1
            times.append(time.perf_counter() - t)
            total += times[-1]
        self.attempted += len(self.calls)
        if self.first is None:
            self.first = outputs
        return outputs, total

    def per_call(self, kind):
        """Each call's median time over the rounds, for the calls of ``kind``."""
        return [statistics.median(times)
                for (k, _), times in zip(self.calls, self.times) if k == kind]


def run(args, tk, src):
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    failures = (tk.TatError, workloads.OpFailed)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(tk)
    span = tracer.span if tracer else (lambda name, attrs=None: contextlib.nullcontext())
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)

    def set_up():
        import_s = import_seconds(src)
        with span("bench.setup"):
            t = time.perf_counter()
            state = wl.setup(tk, args.seed, workdir)
            return import_s + time.perf_counter() - t, state

    def due_set_ups():
        nonlocal next_setup
        while time.perf_counter() >= next_setup:
            setup_times.append(set_up()[0])
            next_setup += SETUP_EVERY

    try:
        setup_s, state = set_up()
        setup_times, next_setup = [setup_s], time.perf_counter() + SETUP_EVERY
        # steps, each followed by one round of the timed checks, so both are
        # sampled over the whole run.  The set-ups fall between calls, so
        # they too are spread over the run; a traced run keeps them between
        # rounds, out of the steps' spans.  A traced run keeps tracemalloc on
        # in every other step only: the times come from the steps without
        # it, the peaks from the steps with it.
        between = None if tracer else due_set_ups
        steps = Calls(wl.ops(tk, state), failures)
        checks = Calls(wl.checks(tk, state), failures)
        correct = True
        step_times, round_times = [], []
        loop_start = time.perf_counter()
        while True:
            memory = bool(tracer) and len(round_times) % 2 == 1
            t = time.perf_counter()
            with span("bench.step", {"memory": memory}):
                if memory:
                    tracer.memory(True)
                outputs, step_t = steps.round(between)
                if memory:
                    tracer.memory(False)
            if not memory:
                step_times.append(step_t)
            correct = correct and all(o is None or same_output(o, f)
                                      for o, f in zip(outputs, steps.first))
            with span("bench.check"):
                oks, _ = checks.round(between)
                correct = correct and all(ok is not False for ok in oks)
            due_set_ups()
            round_times.append(time.perf_counter() - t)
            # stop at the round end nearest to --seconds
            elapsed = time.perf_counter() - loop_start
            if (len(round_times) >= MIN_STEPS
                    and elapsed + statistics.median(round_times) / 2 > args.seconds):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        with span("bench.reference"):
            references = Calls(wl.references(tk, state, steps.first), failures)
            oks, _ = references.round()
            correct = correct and all(ok is not False for ok in oks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    step_s = statistics.median(step_times)
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"steps={len(round_times)} set-ups={len(setup_times)} step_s={step_s:.6g}",
          file=sys.stderr)
    if tracer:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(path)
        metrics = tracer.per_layer()
    else:
        # per-call times are averaged over a batch, whose calls differ in rank
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "step_s": {"value": step_s, "unit": "s"},
            "check_s": {"value": statistics.fmean(
                steps.per_call("check") + checks.per_call("check")), "unit": "s"},
            "probe_s": {"value": statistics.fmean(steps.per_call("probe")), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    attempted = steps.attempted + checks.attempted + references.attempted
    failed = steps.failed + checks.failed + references.failed
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("long-seq", "high-rank", "exact-oracle", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tatkit", "__init__.py")):
        print("perfbench: no src/tatkit under the current directory; "
              "run from the root of a tatkit checkout", file=sys.stderr)
        return 2
    result = run(args, import_tatkit(src), src)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
