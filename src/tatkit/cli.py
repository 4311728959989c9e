"""Command-line front end.

Subcommands: gen, grad, check, bench, probe.  Machine output (instance
files, matrix text, CSV) goes to stdout or the requested output file; every
diagnostic goes to stderr.  Exit codes: 0 success, 1 validation error,
2 tolerance or numerical failure, 3 I/O error.

The argument parser is built once per process, at the first ``main`` call,
and every later call shares it: ``parse_args`` returns a fresh namespace and
never mutates the parser, and usage errors and help look up the output
stream and the terminal width when they run.  It is not built at import, so
``import tatkit.cli`` does not pay the build.
"""

import argparse
import csv
import functools
import io
import statistics
import sys
import time

import numpy as np

from . import exact, fastgrad, fileio, hardness
from .errors import NumericalError, ToleranceError, ValidationError
from .instance import random_instance

FD_REL_GATE = 1e-4
CSV_COLUMNS = (
    "n", "d", "eps", "degree_g", "k1", "k5",
    "method", "wall_seconds", "linf_err_vs_exact", "seed",
    "wall_min_seconds", "wall_spread_seconds", "ns_per_n3",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@functools.cache
def _build_parser():
    """The ``tat`` parser, built at the first call and shared afterwards; never mutate it."""
    # the docstring's last paragraph is about this module, not the commands
    p = _Parser(prog="tat", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--bound", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")

    r = sub.add_parser("grad", help="compute a gradient with one engine")
    r.add_argument("--in", dest="infile", required=True)
    r.add_argument("--engine", choices=("exact", "fast"), required=True)
    r.add_argument("--eps", type=float, default=1e-8)
    r.add_argument("--out")

    c = sub.add_parser("check", help="cross-verify both engines (and FD when tiny)")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--eps", type=float, default=1e-8)
    c.add_argument("--tol", type=float, default=1e-6)

    b = sub.add_parser("bench", help="time an engine over a list of sizes")
    b.add_argument("--n-list", required=True,
                   help="comma-separated sequence lengths, e.g. 256,512,1024")
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--eps", type=float, default=1e-6)
    b.add_argument("--engine", choices=("exact", "fast"), required=True)
    b.add_argument("--csv", help="CSV output path (default stdout)")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--bound", type=float, default=0.8)
    b.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("probe", help="hard-instance derivative and averaging checks")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--ba", type=float, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--t", type=int, default=100)
    return p


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_text(m):
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n"


def _cmd_gen(args):
    inst = random_instance(args.n, args.d, args.bound, args.seed)
    _emit(fileio.format_instance(inst), args.out)
    return 0


def _cmd_grad(args):
    inst = fileio.read_instance(args.infile)
    if args.engine == "exact":
        g = exact.grad_exact(inst)
    else:
        g = fastgrad.grad_fast(inst, args.eps).g_tilde
    _emit(_matrix_text(g), args.out)
    return 0


def _cmd_check(args):
    if not args.tol >= 0:  # a nan fails too
        raise ValidationError(f"--tol must be a nonnegative number, got {args.tol}")
    inst = fileio.read_instance(args.infile)
    g_ref = exact.grad_exact(inst)
    g_fast = fastgrad.grad_fast(inst, args.eps).g_tilde
    diff = float(np.abs(g_fast - g_ref).max())
    print(f"check: engines |g_fast - g_exact|_inf = {diff:.6e} (tol {args.tol:g})",
          file=sys.stderr)
    if not diff <= args.tol:  # a nan fails too
        raise ToleranceError(
            f"engine disagreement {diff:.6e} exceeds tol {args.tol:g}"
        )
    if inst.n <= exact.FD_N_CAP and inst.d <= exact.FD_D_CAP:
        g_fd = exact.grad_fd(inst, 1e-5)
        rel = float(np.abs(g_ref - g_fd).max()) / max(1.0, float(np.abs(g_ref).max()))
        print(f"check: finite differences relative error = {rel:.6e} "
              f"(gate {FD_REL_GATE:g})", file=sys.stderr)
        if not rel <= FD_REL_GATE:
            raise ToleranceError(
                f"finite-difference disagreement {rel:.6e} exceeds {FD_REL_GATE:g}"
            )
    else:
        print("check: instance too large for finite differences, skipped",
              file=sys.stderr)
    print("check: OK", file=sys.stderr)
    return 0


def _wall_times(fn, repeats):
    """The warm-up call's result, then median, min and max - min of ``repeats`` timed calls."""
    result = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times), min(times), max(times) - min(times)


def _cmd_bench(args):
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be at least 1, got {args.repeats}")
    try:
        ns = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"bad --n-list {args.n_list!r}")
    if not ns:
        raise ValidationError("--n-list is empty")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for n in ns:
        inst = random_instance(n, args.d, args.bound, args.seed)
        if args.engine == "exact":
            _, wall, lo, spread = _wall_times(lambda: exact.grad_exact(inst), args.repeats)
            row = [n, args.d, repr(args.eps), "", "", "",
                   "exact", repr(wall), "", args.seed]
            per_n3 = repr(wall / n ** 3 * 1e9)  # the exact engine is cubic
        else:
            report, wall, lo, spread = _wall_times(
                lambda: fastgrad.grad_fast(inst, args.eps), args.repeats
            )
            if n <= exact.exact_cap():
                err = float(np.abs(report.g_tilde - exact.grad_exact(inst)).max())
                err_s = repr(err)
            else:
                err_s = ""
            row = [n, args.d, repr(args.eps), report.degree, report.k1,
                   report.k5, "fast", repr(wall), err_s, args.seed]
            per_n3 = ""
        writer.writerow(row + [repr(lo), repr(spread), per_n3])
        print(f"bench: n={n} engine={args.engine} wall={wall:.6g}s",
              file=sys.stderr)
    _emit(buf.getvalue(), args.csv)
    return 0


def _cmd_probe(args):
    """Check |f'| <= 8 Ba n d, the normalizer sandwich and |s_t - (f1 - f0)| <= b_emp / t.

    One ``hardness.sweep`` evaluates the curve once at each lambda of the
    union of the averaging grid {k/t} and the f'' grid {k/100}, which holds
    the 21 check points k/20 and both ends.  b_emp is max |f''| over the
    f'' grid, so it equals ``empirical_second_derivative_bound``, and s_t
    equals ``avg_estimate``.  The last check allows 4 ulps times
    n (|f0| + |f1| + max |f'|) of rounding, as f and f' are sums of n row
    terms: a flat curve (Ba = 1) has b_emp = 0.
    """
    hi = hardness.make_hard_instance(args.n, args.d, args.ba, args.seed)
    n, d, ba = hi.n, hi.d, hi.Ba
    s_t, f2 = hardness.sweep(hi, args.t, hardness.F2_INTERVALS)
    grid = np.arange(21) / 20
    curve = hardness.Curve(*(v[::hardness.F2_INTERVALS // 20] for v in f2))
    bound = 8.0 * ba * n * d
    slack = 1.0 + 1e-12
    abs_fp = np.abs(curve.fp)
    i = int(np.argmax(abs_fp))
    max_fp = float(abs_fp[i])
    if max_fp > bound:
        raise ToleranceError(
            f"|f'({grid[i]:g})| = {max_fp:.6g} exceeds 8*Ba*n*d = {bound:.6g}"
        )
    growth = np.exp(2.0 * ba * grid)[:, None]
    lo, hisup = (n * n / 2.0) ** 2 * growth, float(n) ** 4 * growth
    outside = ((curve.h < lo / slack) | (curve.h > hisup * slack)).any(axis=1)
    if outside.any():
        raise ToleranceError(
            f"row normalizer sandwich violated at lambda={grid[np.argmax(outside)]:g}"
        )
    f0, f1 = float(curve.f[0]), float(curve.f[-1])
    b_emp = float(np.abs(f2.fpp).max())
    gap = abs(s_t - (f1 - f0))
    rounding = 4.0 * np.finfo(float).eps * n * (abs(f0) + abs(f1) + max_fp)
    if gap > b_emp / args.t * slack + rounding:
        raise ToleranceError(
            f"averaging error {gap:.6g} exceeds b_emp/t = {b_emp / args.t:.6g}"
        )
    out = (
        f"f0={f0!r}\nf1={f1!r}\ns_t={s_t!r}\nb_emp={b_emp!r}\n"
        f"max_abs_fprime={max_fp!r}\nfprime_bound={bound!r}\n"
    )
    sys.stdout.write(out)
    print("probe: OK", file=sys.stderr)
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "grad": _cmd_grad,
    "check": _cmd_check,
    "bench": _cmd_bench,
    "probe": _cmd_probe,
}


def main(argv=None):
    """Run one ``tat`` command; return its exit code.

    The parser is built by the process's first call and reused by every
    later one, so in-process callers pay its construction once.
    """
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"tat: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return _DISPATCH[args.cmd](args)
    except ValidationError as e:
        print(f"tat: validation error: {e}", file=sys.stderr)
        return 1
    except (NumericalError, ToleranceError) as e:
        print(f"tat: numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"tat: i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
