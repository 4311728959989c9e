import csv
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tatkit as tk
from tatkit import cli, exact, fastgrad, fileio, hardness
from tatkit.errors import ValidationError


def _gen(tmp_path, name="inst.tat", n=8, d=2, bound=0.8, seed=7):
    path = tmp_path / name
    rc = cli.main(["gen", "--n", str(n), "--d", str(d), "--bound", str(bound),
                   "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return path


def test_gen_byte_stable(tmp_path):
    p1 = _gen(tmp_path, "a.tat")
    p2 = _gen(tmp_path, "b.tat")
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_stdout(capsys):
    assert cli.main(["gen", "--n", "2", "--d", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("TATINST 2 1\nA1\n")


def test_roundtrip_byte_identical(tmp_path):
    path = _gen(tmp_path)
    text = path.read_text()
    inst = fileio.parse_instance(text)
    assert fileio.format_instance(inst) == text
    # and through the library value path
    inst2 = tk.random_instance(8, 2, 0.8, 7)
    assert fileio.format_instance(inst2) == text


def test_parser_rejects_bad_files(tmp_path):
    good = _gen(tmp_path).read_text().split("\n")

    swapped = list(good)
    a1 = swapped.index("A1")
    a2 = swapped.index("A2")
    swapped[a1], swapped[a2] = swapped[a2], swapped[a1]
    with pytest.raises(ValidationError, match=r"line \d+.*expected block"):
        fileio.parse_instance("\n".join(swapped))

    short_row = list(good)
    short_row[2] = "1.0"
    with pytest.raises(ValidationError, match="line 3"):
        fileio.parse_instance("\n".join(short_row))

    bad_value = list(good)
    bad_value[2] = "nan 1.0"
    with pytest.raises(ValidationError, match="non-finite"):
        fileio.parse_instance("\n".join(bad_value))

    with pytest.raises(ValidationError, match="header"):
        fileio.parse_instance("NOTHDR 2 2\n")

    with pytest.raises(ValidationError, match="trailing"):
        fileio.parse_instance("\n".join(good) + "extra\n")


def test_parser_allocates_only_the_rows_it_reads(tmp_path):
    # the header used to size each block before its rows were read:
    # np.empty raised a bare ValueError here ...
    huge = "TATINST 1000000000000 1000000000000\nA1\n1.0 2.0\n"
    with pytest.raises(ValidationError, match="line 3"):
        fileio.parse_instance(huge)
    path = tmp_path / "huge.tat"
    path.write_text(huge)
    assert cli.main(["grad", "--in", str(path), "--engine", "exact"]) == 1
    # ... and held 45.8 MiB here before failing at the missing row
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="line 4"):
            fileio.parse_instance("TATINST 3000000 2\nA1\n1.0 2.0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("cmd", ["grad", "check"])
@pytest.mark.parametrize("bad", [b"\xff", "\u00e9".encode()], ids=["0xff", "utf8-e-acute"])
def test_non_ascii_file_is_a_line_numbered_error(tmp_path, capsys, cmd, bad):
    # read_instance decoded the file as ASCII text and let the
    # UnicodeDecodeError escape as a traceback
    path = _gen(tmp_path, n=2)
    lines = path.read_bytes().split(b"\n")
    lines[2] = bad + lines[2]
    path.write_bytes(b"\n".join(lines))
    engine = ["--engine", "exact"] if cmd == "grad" else []
    assert cli.main([cmd, "--in", str(path)] + engine) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["gen", "bench", "probe"])
@pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["-1", "2**128"])
def test_seed_outside_philox_key_range(cmd, seed, capsys):
    # numpy's Philox key must lie in [0, 2^128): the seed ended in its
    # ValueError traceback
    argv = {"gen": ["gen", "--n", "2", "--d", "1"],
            "bench": ["bench", "--n-list", "4", "--engine", "fast"],
            "probe": ["probe", "--n", "4", "--d", "2", "--ba", "3"]}[cmd]
    assert cli.main(argv + ["--seed", str(seed)]) == 1
    assert "seed" in capsys.readouterr().err


def test_grad_exact_and_fast_agree(tmp_path, capsys):
    path = _gen(tmp_path, n=6)
    assert cli.main(["grad", "--in", str(path), "--engine", "exact"]) == 0
    g_exact = capsys.readouterr().out
    assert cli.main(["grad", "--in", str(path), "--engine", "fast",
                     "--eps", "1e-8"]) == 0
    g_fast = capsys.readouterr().out
    a = np.array([[float(v) for v in r.split()] for r in g_exact.strip().split("\n")])
    b = np.array([[float(v) for v in r.split()] for r in g_fast.strip().split("\n")])
    assert a.shape == (2, 4)
    assert np.abs(a - b).max() <= 1e-6


def test_grad_cap_guard(tmp_path, monkeypatch):
    path = _gen(tmp_path, n=8)
    monkeypatch.setenv("TAT_EXACT_CAP", "4")
    rc = cli.main(["grad", "--in", str(path), "--engine", "exact"])
    assert rc == 1


def test_check_pass_and_perturbation_hook(tmp_path, capsys, perturb_grad_fast):
    path = _gen(tmp_path)
    assert cli.main(["check", "--in", str(path), "--eps", "1e-8",
                     "--tol", "1e-6"]) == 0
    err = capsys.readouterr().err
    assert "OK" in err

    perturb_grad_fast(1e-3)
    rc = cli.main(["check", "--in", str(path), "--eps", "1e-8", "--tol", "1e-6"])
    assert rc == 2


def test_grad_fast_rejects_nan_eps_before_projecting(tmp_path, capsys, monkeypatch):
    # a nan eps was rejected only inside choose_degree, after the projections
    path = _gen(tmp_path)

    def projected(self):
        raise AssertionError("projected before eps was checked")

    monkeypatch.setattr(tk.AttnInstance, "projected", projected)
    assert cli.main(["grad", "--in", str(path), "--engine", "fast", "--eps", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "validation error: eps must be below 1, got nan" in captured.err


def test_check_rejects_nan_tol(tmp_path, capsys, perturb_grad_fast):
    # every comparison with a nan tol is false, so an engine off by 1.0 passed
    path = _gen(tmp_path)
    perturb_grad_fast(1.0)
    assert cli.main(["check", "--in", str(path), "--tol", "nan"]) == 1
    assert "validation error: --tol" in capsys.readouterr().err


def test_check_rejects_negative_tol(tmp_path, capsys):
    # agreeing engines were reported as an engine disagreement (exit 2)
    path = _gen(tmp_path)
    assert cli.main(["check", "--in", str(path), "--tol", "-1"]) == 1
    assert "validation error: --tol" in capsys.readouterr().err


def test_check_passes_where_key_features_overflowed(tmp_path, capsys):
    # random_instance(64, 1, 3.0, 3) has R = 63.9 at g = 273: the raw key
    # features overflowed there and check exited 2
    path = _gen(tmp_path, n=64, d=1, bound=3.0, seed=3)
    assert cli.main(["check", "--in", str(path)]) == 0
    err = capsys.readouterr().err
    assert float(err.split("|g_fast - g_exact|_inf = ")[1].split()[0]) <= 1e-6


def test_fast_engine_stops_at_the_rank_cap(tmp_path, capsys):
    # at bound 1.5, d = 4 the degree is 52 and k1*d = 1,469,160: the fast
    # engine and check refuse before any feature buffer, the exact engine runs
    path = _gen(tmp_path, n=8, d=4, bound=1.5, seed=1)
    for argv in (["grad", "--in", str(path), "--engine", "fast"], ["check", "--in", str(path)]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree g=52 gives Pa rank k1*d = 1469160, over the cap" in captured.err
    assert cli.main(["grad", "--in", str(path), "--engine", "exact"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 4 and all(len(r.split()) == 16 for r in rows)


def _overflow_file(tmp_path):
    # projections and R stay small, but each engine's last contraction
    # (A1 against the A2 (x) A3 moments) overflows: exact gave inf, fast nan
    inst = tk.random_instance(9, 2, 0.8, 0)
    big = {k: getattr(inst, k) * 1e105 for k in ("A1", "A2", "A3")}
    small = {k: getattr(inst, k) * 1e-105 for k in ("X1", "X2", "X3")}
    path = tmp_path / "overflow.tat"
    path.write_text(fileio.format_instance(dataclasses.replace(inst, **big, **small)))
    return path


def test_check_rejects_overflowed_gradients(tmp_path, capsys):
    # |g_fast - g_exact| was nan, which passed the tol gate: "check: OK", exit 0
    path = _overflow_file(tmp_path)
    assert cli.main(["check", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "check: OK" not in err and "non-finite gradient" in err


@pytest.mark.parametrize("engine", ["exact", "fast"])
def test_grad_rejects_overflowed_gradient(tmp_path, capsys, engine):
    path = _overflow_file(tmp_path)
    assert cli.main(["grad", "--in", str(path), "--engine", engine]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite gradient" in captured.err


def test_check_rejects_nan_finite_differences(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path)
    monkeypatch.setattr(exact, "grad_fd", lambda inst, step: np.full((2, 4), np.nan))
    assert cli.main(["check", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "check: OK" not in err and "finite-difference disagreement" in err


def test_check_machine_output_stays_clean(tmp_path, capsys):
    path = _gen(tmp_path)
    cli.main(["check", "--in", str(path), "--eps", "1e-8", "--tol", "1e-6"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "rows.csv"
    rc = cli.main(["bench", "--n-list", "4,8", "--d", "2", "--eps", "1e-6",
                   "--engine", "fast", "--repeats", "1", "--seed", "3",
                   "--csv", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row) == len(cli.CSV_COLUMNS)
        assert row[6] == "fast"
        assert int(row[3]) > 0 and int(row[4]) > 0 and int(row[5]) > 0
        assert float(row[8]) <= 1e-6  # err vs exact filled under the cap
        assert row[9] == "3"
        assert 0 < float(row[10]) <= float(row[7])  # min <= median
        assert float(row[11]) >= 0.0
        assert row[12] == ""  # ns per n^3 is for the cubic engine only

    rc = cli.main(["bench", "--n-list", "4", "--engine", "exact",
                   "--repeats", "1", "--csv", str(out)])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[1][3] == "" and rows[1][4] == "" and rows[1][5] == ""
    assert rows[1][6] == "exact" and rows[1][8] == ""
    assert 0 < float(rows[1][10]) <= float(rows[1][7]) and float(rows[1][11]) >= 0.0
    assert float(rows[1][12]) == pytest.approx(float(rows[1][7]) / 4 ** 3 * 1e9, rel=1e-12)


def test_bench_bad_nlist():
    assert cli.main(["bench", "--n-list", "4,x", "--engine", "fast"]) == 1


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_bench_rejects_repeats_below_one(repeats, capsys):
    # one timed call ran, and the CSV row reported an option not honoured
    assert cli.main(["bench", "--n-list", "4", "--engine", "fast",
                     "--repeats", repeats]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "validation error: --repeats" in captured.err


@pytest.mark.parametrize("bound", ["inf", "nan", "1e308"])
def test_gen_rejects_bound_without_finite_range(bound, capsys):
    # the uniform draw over [-bound, bound] raised OverflowError
    assert cli.main(["gen", "--n", "2", "--d", "1", "--bound", bound]) == 1
    assert "validation error: bound" in capsys.readouterr().err


def test_bench_rejects_infinite_bound(capsys):
    assert cli.main(["bench", "--n-list", "4", "--engine", "fast",
                     "--bound", "inf"]) == 1
    assert "validation error: bound" in capsys.readouterr().err


def test_probe_ok(capsys):
    rc = cli.main(["probe", "--n", "8", "--d", "2", "--ba", "3",
                   "--seed", "5", "--t", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    keys = {line.split("=")[0] for line in out.strip().split("\n")}
    assert keys == {"f0", "f1", "s_t", "b_emp", "max_abs_fprime", "fprime_bound"}


def test_probe_evaluates_each_lambda_grid_once(capsys, monkeypatch):
    # one kernel call over the union of the t-point average and the 101-point
    # f'' grid, which holds the 21 check points; it was three, one per grid
    # (21 checks, 2 x 101 shifted lambdas for a central-difference f'',
    # t = 100 for the average), and b_emp read 0.06734502469019077
    calls = []
    kernel = hardness.kernels.hard_probe_rows
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows",
                        lambda *a: calls.append(1) or kernel(*a))
    assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", "3",
                     "--seed", "5", "--t", "100"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "f0=4.384765625\nf1=4.333171253057967\ns_t=-0.05187622287537929\n"
        "b_emp=0.06734502479151594\nmax_abs_fprime=0.0824455231065433\n"
        "fprime_bound=384.0\n"
    )


@pytest.mark.parametrize("t", [1, 7, 20, 100, 250])
def test_probe_prints_what_the_library_computes(capsys, t):
    # s_t and b_emp come from one pass over the union of both grids; each
    # matches the library function that evaluates its grid alone
    assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", "3",
                     "--seed", "1", "--t", str(t)]) == 0
    vals = dict(line.split("=") for line in capsys.readouterr().out.strip().split("\n"))
    hi = hardness.make_hard_instance(8, 2, 3.0, 1)
    assert vals["s_t"] == repr(hardness.avg_estimate(hi, t))
    assert vals["b_emp"] == repr(hardness.empirical_second_derivative_bound(hi))


def test_probe_rejects_t_below_one_before_the_kernel(capsys, monkeypatch):
    monkeypatch.setattr(hardness.kernels, "hard_probe_rows", None)
    for t in ("0", "-3"):
        assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", "3", "--t", t]) == 1
        assert "t must be at least 1" in capsys.readouterr().err


def test_probe_memory_flat_in_t(monkeypatch, traced_peak):
    # the averaging grid streams with the f'' grid: under the 2 MiB that
    # bounds avg_estimate alone at the same t and blocks
    monkeypatch.setattr(exact, "_BLOCK_ENTRIES", 1 << 14)
    argv = ["probe", "--n", "8", "--d", "2", "--ba", "3", "--seed", "0", "--t", "20000"]
    rc, peak = traced_peak(lambda: cli.main(argv))
    assert rc == 0 and peak < 2 << 20


@pytest.mark.parametrize("ba, rc", [(345, 0), (347, 0), (349, 2)])
def test_probe_f_second_does_not_overflow_first(capsys, ba, rc):
    # g'' = 2 (B.B + A.C) and h'' = 2 (s^2 + r u) exceed h by ~Ba^2: formed
    # unnormalized they overflowed at Ba = 345, where f' and h still fit.
    # At 349 h' = 2 r s itself overflows, as before f'' was analytic.
    assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", str(ba), "--seed", "0"]) == rc
    assert ("probe: OK" in capsys.readouterr().err) == (rc == 0)


def test_probe_large_ba_finite_or_rejected(capsys):
    # f' was (g' h - g h') / h^2, and g' h overflowed past lambda * Ba ~ 177:
    # Ba = 180 printed s_t, b_emp and max_abs_fprime as nan, then "probe: OK"
    assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", "180", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split("=")[1]) for line in out.strip().split("\n")]
    assert len(values) == 6 and np.isfinite(values).all()
    # past lambda * Ba ~ 350 the row sum h itself overflows: exit 2, no OK
    assert cli.main(["probe", "--n", "8", "--d", "2", "--ba", "400", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "probe: OK" not in captured.err
    assert "non-finite hard-curve value" in captured.err


@pytest.mark.parametrize("argv", [["--n", "2", "--d", "1"], ["--n", "3", "--d", "2"],
                                  ["--n", "4", "--d", "2", "--t", "7"]])
def test_probe_flat_curve_passes(argv, capsys):
    # Ba = 1 makes H all ones and the curve flat, so b_emp = 0: a gap of one
    # ulp between s_t and f1 - f0 failed against b_emp / t = 0
    assert cli.main(["probe", "--ba", "1", *argv]) == 0
    assert "probe: OK" in capsys.readouterr().err


def test_probe_rounding_allowance_still_catches_an_averaging_error(capsys, monkeypatch):
    argv = ["probe", "--n", "8", "--d", "2", "--ba", "3", "--t", "100"]
    sweep = hardness.sweep

    def shifted(s_t):
        def fake(hi, t, fixed=0):
            st, grid = sweep(hi, t, fixed)
            return s_t(hi, t, st), grid
        return fake

    # seed 5: b_emp / t = 6.7e-4, and s_t off by 1e-3 fails
    monkeypatch.setattr(hardness, "sweep", shifted(lambda hi, t, st: st + 1e-3))
    assert cli.main(argv + ["--seed", "5"]) == 2
    assert "averaging error" in capsys.readouterr().err
    # seed 0: a gap 1e-9 relative past b_emp / t fails; the allowance is ~1e-13
    hi = hardness.make_hard_instance(8, 2, 3.0, 0)
    f0, f1 = hardness.curve(hi, [0.0, 1.0]).f
    b_emp = hardness.empirical_second_derivative_bound(hi)
    monkeypatch.setattr(hardness, "sweep",
                        shifted(lambda hi, t, st: f1 - f0 + b_emp / t * (1 + 1e-9)))
    assert cli.main(argv + ["--seed", "0"]) == 2
    assert "averaging error" in capsys.readouterr().err


def test_probe_validation():
    assert cli.main(["probe", "--n", "4", "--d", "2", "--ba", "0.5"]) == 1


@pytest.mark.parametrize("ba", ["inf", "nan"])
def test_probe_rejects_non_finite_ba(ba, capsys):
    # the uniform draw over [1, ba] raised OverflowError
    assert cli.main(["probe", "--n", "4", "--d", "2", "--ba", ba]) == 1
    assert "validation error: Ba" in capsys.readouterr().err


def test_probe_rejects_n_over_exact_cap(capsys, monkeypatch):
    # H is n x n^2: n=100000 ended in a MemoryError traceback (7.11 PiB)
    assert cli.main(["probe", "--n", "100000", "--d", "2", "--ba", "3"]) == 1
    assert "capped at n <= 256" in capsys.readouterr().err
    monkeypatch.setenv("TAT_EXACT_CAP", "4")
    with pytest.raises(ValidationError, match="capped"):
        hardness.make_hard_instance(5, 2, 3.0, 0)
    assert hardness.make_hard_instance(4, 2, 3.0, 0).n == 4


def test_unknown_flag_and_usage(capsys):
    assert cli.main(["--definitely-not-a-flag", "gen"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert cli.main(["gen", "--n", "2"]) == 1  # missing required --d


def test_missing_input_is_io_error(tmp_path):
    rc = cli.main(["grad", "--in", str(tmp_path / "nope.tat"),
                   "--engine", "exact"])
    assert rc == 3


def test_grad_out_file(tmp_path):
    path = _gen(tmp_path, n=4)
    out = tmp_path / "g.txt"
    rc = cli.main(["grad", "--in", str(path), "--engine", "fast",
                   "--eps", "1e-8", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().split("\n")
    assert len(rows) == 2 and len(rows[0].split()) == 4


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    # every main call built the 6-parser tree again, over a millisecond
    path = _gen(tmp_path, n=4)
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    argv = ["grad", "--in", str(path), "--engine", "exact", "--out", str(tmp_path / "g")]
    assert cli.main(argv) == 0
    built.clear()
    assert cli.main(argv) == 0
    assert built == []


def test_shared_parser_carries_no_state(tmp_path, capsys):
    path = _gen(tmp_path)
    assert cli.main(["check"]) == 1  # missing --in
    assert cli.main(["check", "--in", str(path), "--tol", "1e-300"]) == 2
    capsys.readouterr()
    assert cli.main(["check", "--in", str(path)]) == 0
    assert "(tol 1e-06)" in capsys.readouterr().err


def test_shared_parser_restores_defaults(tmp_path, monkeypatch):
    path = _gen(tmp_path, n=4)
    eps_seen = []
    grad_fast = fastgrad.grad_fast
    monkeypatch.setattr(fastgrad, "grad_fast",
                        lambda inst, eps: eps_seen.append(eps) or grad_fast(inst, eps))
    argv = ["grad", "--in", str(path), "--engine", "fast", "--out", str(tmp_path / "g")]
    assert cli.main(argv + ["--eps", "1e-3"]) == 0
    assert cli.main(argv) == 0
    assert eps_seen == [1e-3, 1e-8]


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: tat", *argv[:-1]]) + " ")


def test_import_builds_no_parser():
    # built at import, the parser would cost every importer over a millisecond
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: built.append(1) or init(self, *a, **kw)\n"
        "import tatkit.cli\n"
        "print(len(built))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "0\n"
