"""Spans around calls into tatkit's public functions, for the traced run only.

``install`` replaces each traced name where its caller looks it up (a
module global, a class attribute or the CLI dispatch table) with a wrapper
that records a span: name, start, end, parent and, while ``memory`` is on,
the tracemalloc peak above the bytes live at its start.  Spans stay in
memory and are written out once, when the run ends.  ``per_layer`` turns
them into the per-layer metrics listed in ``PER_LAYER``: the peaks from the
steps with tracemalloc on, everything else from the steps with it off, so
that no span time pays for tracking allocations.
"""

import contextlib
import functools
import gzip
import json
import statistics
import time
import tracemalloc

MIB = 1 << 20

# (owner, attribute, span name); the owner is a module of tatkit, or
# "instance.AttnInstance" for the method, or "cli._DISPATCH" for subcommands
WRAPS = (
    ("instance", "random_instance", "instance.random_instance"),
    ("cli", "random_instance", "instance.random_instance"),
    ("instance.AttnInstance", "projected", "instance.projected"),
    ("instance", "row_kron", "tensorops.row_kron"),
    ("instance", "col_kron", "tensorops.col_kron"),
    ("lowrank", "feature_map", "lowrank.feature_map"),
    ("lowrank", "col_kron", "tensorops.col_kron"),
    ("kernels", "feature_rows", "kernels.feature_rows"),
    ("kernels", "bilinear_rows", "kernels.bilinear_rows"),
    ("kernels", "hard_probe_rows", "kernels.hard_probe_rows"),
    ("fastgrad", "build_F_factors", "lowrank.build_F_factors"),
    ("fastgrad", "row_kron", "tensorops.row_kron"),
    ("fastgrad", "build_residual_U2", "fastgrad.build_residual_U2"),
    ("fastgrad", "build_W_factors", "fastgrad.build_W_factors"),
    ("fastgrad", "build_Pa_factors", "fastgrad.build_Pa_factors"),
    ("fastgrad", "build_Pb_factors", "fastgrad.build_Pb_factors"),
    ("fastgrad", "grad_fast", "fastgrad.grad_fast"),
    ("exact", "col_kron", "tensorops.col_kron"),
    ("exact", "compute_intermediates", "exact.compute_intermediates"),
    ("exact", "grad_exact", "exact.grad_exact"),
    ("exact", "grad_fd", "exact.grad_fd"),
    ("fileio", "read_instance", "fileio.read_instance"),
    ("fileio", "format_instance", "fileio.format_instance"),
    ("hardness", "f_prime", "hardness.f_prime"),
    ("hardness", "empirical_second_derivative_bound",
     "hardness.empirical_second_derivative_bound"),
    ("hardness", "avg_estimate", "hardness.avg_estimate"),
    ("cli._DISPATCH", "check", "cli.check"),
    ("cli._DISPATCH", "probe", "cli.probe"),
)

# name, unit, statistic, span, scope.  Statistics over the spans of that
# name inside one scope: "self" sums self seconds, "total" sums inclusive
# seconds, "calls" counts, "peak" takes the largest tracemalloc peak in MiB,
# and "max:<key>" / "sum:<key>" fold a value the gradient report carried.
# Scopes: one set-up ("bench.setup"), one step ("bench.step"), one gradient
# call inside a step, one `tat check` or `tat probe` call inside a step.
# The value is the median over the scope's instances, 0 if there are none;
# "peak" takes the instances inside steps with tracemalloc on, every other
# statistic those outside them.
PER_LAYER = (
    ("instance.random_instance_s", "s", "total", "instance.random_instance", "setup"),
    ("instance.projected_s", "s", "total", "instance.projected", "step"),
    ("instance.projected_calls", "count", "calls", "instance.projected", "gradient"),
    ("lowrank.feature_map_s", "s", "total", "lowrank.feature_map", "step"),
    ("kernels.feature_rows_s", "s", "total", "kernels.feature_rows", "step"),
    ("lowrank.build_F_factors_self_s", "s", "self", "lowrank.build_F_factors", "step"),
    ("lowrank.feature_map_peak_mib", "MiB", "peak", "lowrank.feature_map", "step"),
    ("lowrank.degree_g_max", "count", "max:g", "fastgrad.grad_fast", "step"),
    ("lowrank.k1_sum", "count", "sum:k1", "fastgrad.grad_fast", "step"),
    ("fastgrad.build_residual_U2_s", "s", "total", "fastgrad.build_residual_U2", "step"),
    ("fastgrad.build_W_factors_s", "s", "total", "fastgrad.build_W_factors", "step"),
    ("fastgrad.build_Pa_factors_s", "s", "total", "fastgrad.build_Pa_factors", "step"),
    ("tensorops.row_kron_s", "s", "total", "tensorops.row_kron", "step"),
    ("fastgrad.build_Pa_factors_peak_mib", "MiB", "peak", "fastgrad.build_Pa_factors", "step"),
    ("fastgrad.build_Pb_factors_self_s", "s", "self", "fastgrad.build_Pb_factors", "step"),
    ("kernels.bilinear_rows_s", "s", "total", "kernels.bilinear_rows", "step"),
    ("fastgrad.grad_fast_self_s", "s", "self", "fastgrad.grad_fast", "step"),
    ("fastgrad.grad_fast_peak_mib", "MiB", "peak", "fastgrad.grad_fast", "step"),
    ("fastgrad.k5_sum", "count", "sum:k5", "fastgrad.grad_fast", "step"),
    ("fastgrad.factor_mib", "MiB_computed", "max:factor_mib", "fastgrad.grad_fast", "step"),
    ("exact.compute_intermediates_s", "s", "total", "exact.compute_intermediates", "step"),
    ("exact.grad_exact_self_s", "s", "self", "exact.grad_exact", "step"),
    ("tensorops.col_kron_s", "s", "total", "tensorops.col_kron", "step"),
    ("exact.grad_exact_peak_mib", "MiB", "peak", "exact.grad_exact", "step"),
    ("exact.grad_fd_s", "s", "total", "exact.grad_fd", "check"),
    ("fileio.read_instance_s", "s", "total", "fileio.read_instance", "check"),
    ("cli.check_self_s", "s", "self", "cli.check", "check"),
    ("fileio.format_instance_s", "s", "total", "fileio.format_instance", "setup"),
    ("hardness.f_prime_s", "s", "total", "hardness.f_prime", "probe"),
    ("hardness.f_prime_calls", "count", "calls", "hardness.f_prime", "probe"),
    ("hardness.empirical_second_derivative_bound_s", "s", "total",
     "hardness.empirical_second_derivative_bound", "probe"),
    ("hardness.avg_estimate_s", "s", "total", "hardness.avg_estimate", "probe"),
    ("kernels.hard_probe_rows_s", "s", "total", "kernels.hard_probe_rows", "probe"),
    ("kernels.hard_probe_rows_calls", "count", "calls", "kernels.hard_probe_rows", "probe"),
    ("cli.probe_self_s", "s", "self", "cli.probe", "probe"),
)

SCOPE_ROOTS = {
    "setup": ("bench.setup",),
    "step": ("bench.step",),
    "gradient": ("fastgrad.grad_fast", "exact.grad_exact"),
    "check": ("cli.check",),
    "probe": ("cli.probe",),
}


class Tracer:
    """Spans as lists [name, start, end, parent, peak_bytes, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []  # [span index, bytes live at start, peak seen]
        self._memory = False

    def memory(self, on):
        """Start or stop tracemalloc; peaks are kept only while it runs."""
        if on:
            tracemalloc.start()
        else:
            tracemalloc.stop()
        self._memory = on

    def _traced_memory(self):
        return tracemalloc.get_traced_memory() if self._memory else (0, 0)

    def open(self, name, attrs=None):
        cur, peak = self._traced_memory()
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], peak)
        if self._memory:
            tracemalloc.reset_peak()
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), cur, cur])
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0, attrs])

    def close(self, attrs=None):
        end = time.perf_counter()
        _, peak = self._traced_memory()
        idx, base, seen = self._stack.pop()
        seen = max(seen, peak)
        span = self.spans[idx]
        span[2], span[4] = end, seen - base
        if attrs is not None:
            span[5] = attrs
        if self._stack:
            top = self._stack[-1]
            top[2] = max(top[2], seen)

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        self.open(name, attrs)
        try:
            yield
        finally:
            self.close()

    def wrap(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                self.close(attrs(args, out) if attrs and out is not None else None)
        return traced

    def install(self, tk):
        """Wrap every name in ``WRAPS``."""
        for owner, attr, name in WRAPS:
            obj = tk
            for part in owner.split("."):
                obj = getattr(obj, part)
            attrs = _grad_fast_attrs if name == "fastgrad.grad_fast" else None
            if isinstance(obj, dict):
                obj[attr] = self.wrap(obj[attr], name, attrs)
            else:
                setattr(obj, attr, self.wrap(getattr(obj, attr), name, attrs))

    def write(self, path):
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "peak_bytes", "attrs"],
                       "spans": self.spans}, fh)

    def per_layer(self):
        """Every metric of ``PER_LAYER`` as {name: {"value", "unit"}}."""
        spans = self.spans
        last = list(range(len(spans)))  # last descendant of each span
        for i in range(len(spans) - 1, -1, -1):
            p = spans[i][3]
            if p >= 0 and last[i] > last[p]:
                last[p] = last[i]
        step_of = [-1] * len(spans)  # the step a span lies in, or -1
        for i, s in enumerate(spans):
            step_of[i] = i if s[0] == "bench.step" else (step_of[s[3]] if s[3] >= 0 else -1)
        memory = [step_of[i] >= 0 and spans[step_of[i]][5]["memory"]
                  for i in range(len(spans))]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        groups = {}  # (scope, memory) -> per root, {span name: [span fields + child time]}
        for scope, names in SCOPE_ROOTS.items():
            for r, s in enumerate(spans):
                if s[0] in names and (scope in ("setup", "step") or step_of[r] >= 0):
                    by_name = {}
                    for i in range(r, last[r] + 1):
                        by_name.setdefault(spans[i][0], []).append(spans[i] + [child_time[i]])
                    groups.setdefault((scope, memory[r]), []).append(by_name)
        out = {}
        for metric, unit, stat, target, scope in PER_LAYER:
            values = [_fold(stat, g.get(target, []))
                      for g in groups.get((scope, stat == "peak"), [])]
            out[metric] = {"value": statistics.median(values) if values else 0.0,
                           "unit": unit}
        return out


def _fold(stat, sel):
    if stat == "total":
        return sum(s[2] - s[1] for s in sel)
    if stat == "self":
        return sum(s[2] - s[1] - s[6] for s in sel)
    if stat == "calls":
        return len(sel)
    if stat == "peak":
        return max((s[4] for s in sel), default=0) / MIB
    how, key = stat.split(":")
    vals = [s[5][key] for s in sel if s[5]]
    return (max(vals, default=0) if how == "max" else sum(vals))


def _grad_fast_attrs(args, report):
    # factor buffers one call holds, from their shapes: the F, W and Pa
    # triples and the new U of Pb, each n x k float64
    n = args[0].n
    cols = 3 * report.k1 + 3 * report.k2 + 3 * report.k3 + report.k4
    return {"g": report.degree, "k1": report.k1, "k5": report.k5,
            "factor_mib": 8 * n * cols / MIB}
