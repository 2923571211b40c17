import errno
import json
import math
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from derangetropy import DistributionSpec, TransformKind, checks, cli, from_analytic, iterate, spectral
from derangetropy.cli import main

import oracles


def run(*argv):
    return main(list(argv))


def _csv_reference(header, *columns):
    # row by row, each cell as `%.17g` renders it
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return header + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def _trace_csv_reference(trace):
    return "step,x,f,F\n" + "".join(
        _csv_reference("", np.full(g.n, k), g.xs, g.values, g.cdf) for k, g in enumerate(trace.steps)
    )


def _assert_same_lines(text, reference):
    # line by line, failing on the first line that differs: pytest's diff of
    # two whole traces of a megabyte or more runs for minutes
    lines, expected = text.splitlines(keepends=True), reference.splitlines(keepends=True)
    for number, (line, want) in enumerate(zip(lines, expected), start=1):
        if line != want:
            pytest.fail(f"line {number} is {line!r}, expected {want!r}")
    assert len(lines) == len(expected), f"{len(lines)} lines, expected {len(expected)}"


# --- argument handling --------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "transform" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert run() == 2
    capsys.readouterr()


def test_unknown_choice_is_usage_error(capsys):
    assert run("verify", "--suite", "nosuch") == 2
    assert run("transform", "--dist", "cauchy") == 2
    capsys.readouterr()


def test_even_grid_rejected(capsys):
    assert run("transform", "--grid", "64") == 2
    assert "odd" in capsys.readouterr().err


def test_bad_params_rejected(capsys):
    assert run("transform", "--params", "a") == 2
    assert capsys.readouterr() == ("", "error: --params entries must look like key=value, got 'a'\n")
    assert run("transform", "--params", "a=1;b=2") == 2
    assert run("transform", "--params", "a=x") == 2
    assert run("transform", "--dist", "uniform", "--params", "a=2,b=1") == 2
    capsys.readouterr()
    assert run("transform", "--dist", "normal", "--params", "stddev=inf") == 2
    assert "'stddev'" in capsys.readouterr().err
    # the pdf divides by the radius, whose reciprocal overflows here
    assert run("transform", "--dist", "semicircle", "--params", "radius=1e-320") == 2
    assert "'radius'" in capsys.readouterr().err
    # 129 nodes between two adjacent floats would collapse onto two x values
    assert run("transform", "--dist", "uniform", "--params", "a=1e17,b=1.0000000000000002e17",
               "--grid", "129") == 2
    assert "'a'" in capsys.readouterr().err
    # the pdf divides by the scale, whose reciprocal overflows: 1/stddev and 1/(b - a)
    assert run("transform", "--dist", "normal", "--params", "stddev=1e-320", "--grid", "129") == 2
    assert "'stddev'" in capsys.readouterr().err
    assert run("transform", "--dist", "uniform", "--params", "a=0,b=1e-310", "--grid", "129") == 2
    assert "'b'" in capsys.readouterr().err
    # the scale's reciprocal is finite but the cumulative rule's panel sums overflow
    for dist, params, name in (("exponential", "rate=2e307", "'rate'"), ("normal", "stddev=1e-308", "'stddev'"),
                               ("uniform", "a=0,b=1e-308", "'b'")):
        assert run("transform", "--dist", dist, "--params", params, "--grid", "129") == 2
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["transform", "--dist", "exponential", "--params", "rate=1, rate=2", "--out", "{out}/t.csv"],
    ["iterate", "--dist", "exponential", "--params", "rate=1,rate=2", "--out", "{out}/t.csv"],
    ["spectral", "--dist", "exponential", "--params", "rate=2,rate=2", "--outdir", "{out}/sp"],
], ids=["transform", "iterate", "spectral"])
def test_repeated_params_key_is_usage_error(tmp_path, capsys, argv):
    assert run(*(a.replace("{out}", str(tmp_path)) for a in argv)) == 2
    assert capsys.readouterr().err == "error: --params names 'rate' more than once\n"
    assert list(tmp_path.iterdir()) == []


def test_params_skips_empty_entries(tmp_path):
    for name, params in (("plain.csv", "a=0,b=2"), ("doubled.csv", "a=0,,b=2")):
        assert run("transform", "--grid", "129", "--params", params, "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "doubled.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_io_failure_maps_to_exit_3(tmp_path, capsys):
    assert run("transform", "--grid", "129", "--out", str(tmp_path)) == 3
    assert run("transform", "--grid", "129", "--out", str(tmp_path / "no" / "dir.csv")) == 3
    capsys.readouterr()


# --- transform ------------------------------------------------------------------


def test_transform_writes_contracted_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert run("transform", "--dist", "uniform", "--kind", "type3",
               "--grid", "257", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,f,F,transformed"
    assert len(lines) == 258
    mid = lines[1 + 128].split(",")
    assert float(mid[0]) == 0.5
    assert float(mid[3]) == pytest.approx(2.0, abs=1e-6)


def test_transform_stdout_when_no_out(capsys):
    assert run("transform", "--grid", "129") == 0
    out = capsys.readouterr().out
    assert out.startswith("x,f,F,transformed\n")


def test_transform_arcsine_type2_peaks_at_center(tmp_path):
    out = tmp_path / "a.csv"
    assert run("transform", "--dist", "arcsine", "--kind", "type2",
               "--grid", "4097", "--out", str(out)) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    xs, transformed = rows[:, 0], rows[:, 3]
    step = xs[1] - xs[0]
    assert abs(xs[np.argmax(transformed)] - 0.5) <= step * (1 + 1e-12)


def test_transform_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run("transform", "--dist", "normal", "--kind", "type1",
                   "--grid", "513", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


# --- iterate --------------------------------------------------------------------


def test_iterate_requires_positive_n_and_out(tmp_path, capsys):
    assert run("iterate", "--n", "0", "--out", str(tmp_path / "x.csv")) == 2
    assert run("iterate", "--n", "2") == 2
    capsys.readouterr()


def test_iterate_rejects_an_empty_out_before_building_the_grid(tmp_path, capsys, monkeypatch):
    # an empty --out would name the sidecar ".diagnostics.json" in the
    # working directory; it is refused before the grid is built
    def build_grid(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "_build_grid", build_grid)
    monkeypatch.chdir(tmp_path)
    assert run("iterate", "--out", "") == 2
    assert capsys.readouterr().err == ("error: iterate requires a non-empty --out"
                                       " (a diagnostics sidecar is written next to it)\n")
    assert list(tmp_path.iterdir()) == []


def test_iterate_writes_trace_and_sidecar(tmp_path):
    out = tmp_path / "trace.csv"
    assert run("iterate", "--dist", "uniform", "--kind", "type3",
               "--n", "2", "--grid", "513", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,x,f,F"
    assert len(lines) == 1 + 3 * 513

    side = tmp_path / "trace.diagnostics.json"
    rows = json.loads(side.read_text())
    assert [r["step"] for r in rows] == [0, 1, 2]

    # step-2 density is unimodal with argmax at the median
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    step2 = data[data[:, 0] == 2]
    f2 = step2[:, 2]
    peak = int(np.argmax(f2))
    assert abs(step2[peak, 1] - 0.5) <= (step2[1, 1] - step2[0, 1]) * (1 + 1e-12)
    assert np.all(np.diff(f2[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(f2[peak:]) <= 1e-12)


def test_iterate_past_resolution_exits_1_after_writing(tmp_path, capsys):
    # uniform/type3 at 4097 nodes: integralError first passes the registry's
    # 1e-4 mass gate at step 10 (3.4e-4) and reaches 0.94 by step 14
    out = tmp_path / "t.csv"
    assert run("iterate", "--out", str(out)) == 1
    assert "step 10 " in capsys.readouterr().err
    assert out.exists() and (tmp_path / "t.diagnostics.json").exists()
    assert run("iterate", "--n", "9", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""


def test_iterate_overflow_names_the_step(tmp_path, capsys):
    # each type3 step raises the exponential's peak (1.0e307 at rate 1e307,
    # 1.04e307 after step 1), and the step-2 density's cumulative sums overflow
    out = tmp_path / "o.csv"
    assert run("iterate", "--dist", "exponential", "--params", "rate=1e307",
               "--grid", "129", "--n", "8", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 2 ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_iterate_nonfinite_diagnostic_names_the_step(tmp_path, capsys):
    # the source's 4e301-wide support squares to an infinite variance at
    # step 0; no numpy warning escapes, and no file is written
    out = tmp_path / "o.csv"
    assert run("iterate", "--dist", "exponential", "--params", "rate=1e-300",
               "--grid", "4097", "--n", "2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0 ") and "variance inf is not finite" in err
    assert err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "o.diagnostics.json").exists()


@pytest.mark.parametrize("rate, n, step", [("1e300", "1", 0), ("1e153", "3", 3)])
def test_iterate_variance_below_normal_floats_exits_1_after_writing(tmp_path, capsys, rate, n, step):
    # the exponential's variance is 1/rate^2: 1e-600 reads 0.0 from step 0,
    # and at rate 1e153 the step-3 variance is subnormal (1.05e-308)
    out = tmp_path / "v.csv"
    assert run("iterate", "--dist", "exponential", "--params", f"rate={rate}", "--n", n,
               "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: step {step} variance ") and err.count("\n") == 1
    assert "is not a positive normal float" in err
    rows = json.loads((tmp_path / "v.diagnostics.json").read_text())
    assert len(rows) == int(n) + 1 and out.exists()
    assert all(r["variance"] >= sys.float_info.min for r in rows[:step])
    assert not rows[step]["variance"] >= sys.float_info.min


def test_iterate_exponential_median_stays_near_ln2(tmp_path):
    out = tmp_path / "e.csv"
    assert run("iterate", "--dist", "exponential", "--kind", "type3",
               "--n", "2", "--grid", "4097", "--out", str(out)) == 0
    rows = json.loads((tmp_path / "e.diagnostics.json").read_text())
    assert 0.6 <= rows[2]["median"] <= 0.8
    assert rows[2]["median"] == pytest.approx(math.log(2.0), abs=1e-3)


@pytest.mark.parametrize("nodes, n", [(129, 1), (129, 2), (129, 3), (4097, 3)], ids=["1", "2", "3", "4097-3"])
def test_iterate_writes_the_per_cell_reference(tmp_path, nodes, n):
    # the forked child formats the even row blocks of every step and dlab the
    # odd ones; dlab then writes the header and copies the blocks in job
    # order. At 129 nodes the blocks hold 8 or 9 rows
    out = tmp_path / "t.csv"
    assert run("iterate", "--dist", "normal", "--kind", "type1", "--grid", str(nodes),
               "--n", str(n), "--out", str(out)) == 0
    _assert_no_child_left()
    trace = iterate(TransformKind.TYPE1, from_analytic(DistributionSpec("normal"), nodes), n)
    assert len(trace.steps) == n + 1
    _assert_same_lines(out.read_text(), _trace_csv_reference(trace))
    rows = json.loads((tmp_path / "t.diagnostics.json").read_text(), object_pairs_hook=list)
    assert rows == [[("step", k), ("variance", d.variance), ("median", d.median), ("mean", d.mean),
                     ("integralError", d.integral_error)] for k, d in enumerate(trace.diagnostics)]


def test_iterate_formats_at_most_one_row_block_per_call(tmp_path, monkeypatch):
    # each process formats and writes one row block of ceil(n / 16) rows or
    # fewer at a time, so neither holds a step's text, let alone its half of
    # the trace; the forked child inherits the patch
    real, limit, rows = cli.csv_rows, math.ceil(4097 / 16), []

    def csv_rows(*columns):
        rows.append(len(columns[0]))
        if rows[-1] > limit:
            raise RuntimeError(f"csv_rows called on {rows[-1]} rows, more than {limit}")
        return real(*columns)

    monkeypatch.setattr(cli, "csv_rows", csv_rows)
    out = tmp_path / "t.csv"
    assert run("iterate", "--grid", "4097", "--n", "3", "--out", str(out)) == 0
    _assert_no_child_left()
    assert rows and max(rows) <= limit
    assert out.read_text().count("\n") == 1 + 4 * 4097


def _plant_in_formatter(monkeypatch, in_child, action):
    """Run action() at every `csv_rows` call made in the forked child (in_child)
    or in this process (not in_child). The forked child inherits the patch."""
    real, own = cli.csv_rows, os.getpid()

    def csv_rows(*columns):
        if (os.getpid() != own) == in_child:
            action()
        return real(*columns)

    monkeypatch.setattr(cli, "csv_rows", csv_rows)


def _raise():
    raise RuntimeError("planted failure formatting a block")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_EARLIER = b"the bytes of an earlier run\n"


def _assert_earlier_output_kept(path):
    # the new file is written under a temporary name, which is removed on
    # failure, so path keeps its bytes and nothing else is left beside it
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
    assert path.read_bytes() == _EARLIER


@pytest.mark.parametrize("action, how, cause", [
    (_raise, "exited with status 1", ": RuntimeError: planted failure formatting a block\n"),
    (_kill_self, "was killed by signal 9", "was killed by signal 9\n"),
], ids=["raises", "killed"])
def test_iterate_failed_writer_process_exits_3(tmp_path, capsys, monkeypatch, action, how, cause):
    # the failure is planted in the forked child only, which names what it
    # raised; a killed one leaves nothing to name
    _plant_in_formatter(monkeypatch, True, action)
    (tmp_path / "t.csv").write_bytes(_EARLIER)
    assert run("iterate", "--grid", "129", "--n", "2", "--out", str(tmp_path / "t.csv")) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: the process formatting row blocks 0, 2, ... of {tmp_path / 't.csv'} ")
    assert err.count("\n") == 1
    assert how in err
    assert err.endswith(cause)
    _assert_earlier_output_kept(tmp_path / "t.csv")
    _assert_no_child_left()


def test_iterate_unwritable_sidecar_keeps_the_earlier_trace(tmp_path, capsys):
    # both files are written under temporary names and the sidecar replaces
    # its path first, so a directory in its place leaves the earlier trace
    trace, sidecar = tmp_path / "t.csv", tmp_path / "t.diagnostics.json"
    trace.write_bytes(_EARLIER)
    sidecar.mkdir()
    assert run("iterate", "--grid", "129", "--n", "2", "--out", str(trace)) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [trace.name, sidecar.name]
    assert trace.read_bytes() == _EARLIER
    assert list(sidecar.iterdir()) == []
    _assert_no_child_left()


def test_iterate_into_a_directory_writes_nothing(tmp_path, capsys):
    # no file can replace a directory, so iterate fails before the sidecar
    # replaces its path
    out = tmp_path / "t.csv"
    out.mkdir()
    assert run("iterate", "--grid", "129", "--n", "1", "--out", str(out)) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    _assert_no_child_left()


def test_iterate_failed_formatting_reaps_the_writer_process(tmp_path, monkeypatch):
    # the failure is planted in this process only; the writer process is
    # killed and reaped
    _plant_in_formatter(monkeypatch, False, _raise)
    (tmp_path / "t.csv").write_bytes(_EARLIER)
    with pytest.raises(RuntimeError, match="planted failure"):
        run("iterate", "--grid", "129", "--n", "2", "--out", str(tmp_path / "t.csv"))
    _assert_earlier_output_kept(tmp_path / "t.csv")
    _assert_no_child_left()


def test_iterate_writer_process_never_unwinds_the_caller(tmp_path):
    # the forked writer leaves through os._exit, so a caller's `finally`
    # (pytest's teardown, a profiler writing its report) runs once
    log = tmp_path / "finally.log"
    try:
        assert run("iterate", "--grid", "129", "--n", "3", "--out", str(tmp_path / "t.csv")) == 0
    finally:
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
    assert log.read_text().splitlines() == [str(os.getpid())]
    assert (tmp_path / "t.csv").read_text().count("\n") == 1 + 4 * 129
    _assert_no_child_left()


def test_outputs_get_the_mode_of_a_new_file(tmp_path):
    # each file is written under a temporary name and renamed onto --out; it
    # gets the mode open(path, "w") gives a new file, not mkstemp's 0600
    umask = os.umask(0o027)
    try:
        assert run("transform", "--grid", "129", "--out", str(tmp_path / "t.csv")) == 0
        assert run("iterate", "--grid", "129", "--n", "1", "--out", str(tmp_path / "i.csv")) == 0
    finally:
        os.umask(umask)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["i.csv", "i.diagnostics.json", "t.csv"]
    assert all((tmp_path / name).stat().st_mode & 0o777 == 0o640 for name in names)


# --- verify ---------------------------------------------------------------------


def test_verify_constants_suite(tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "--suite", "constants", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["suite"] == "constants"
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"type1_normalizer", "type2_normalizer"}
    for c in report["checks"]:
        assert c["passed"] is True
        assert abs(c["observed"] - c["expected"]) <= c["tolerance"]


def test_verify_csv_format(capsys):
    assert run("verify", "--suite", "constants", "--format", "csv") == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "name,expected,observed,tolerance,passed"
    assert all(line.endswith(",true") for line in lines[1:])


@pytest.mark.parametrize("suite", ["normalization", "ode", "median"])
def test_verify_individual_suites(suite, capsys):
    assert run("verify", "--suite", suite) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("suite", ["all", "convergence", "ode"])
def test_verify_reports_the_registry_rows_in_order(tmp_path, suite, fmt):
    # the units run on two processes (ode is one unit, all of it the forked
    # child's), and their rows are merged back in registry order
    out = tmp_path / f"report.{fmt}"
    assert run("verify", "--suite", suite, "--format", fmt, "--out", str(out)) == 0
    _assert_no_child_left()
    expected = [(c.name, c.expected, c.observed, c.tolerance) for c in checks.run(suite)]
    if fmt == "json":
        report = json.loads(out.read_text())
        got = [(c["name"], c["expected"], c["observed"], c["tolerance"]) for c in report["checks"]]
    else:
        lines = out.read_text().splitlines()[1:]
        got = [(name, float(e), float(o), float(t)) for name, e, o, t, _ in (line.split(",") for line in lines)]
    assert got == expected


def _planted_unit():
    raise RuntimeError("planted failure in a check unit")


def _constants_unit():
    return checks.run("constants")


def test_verify_failed_child_unit_exits_3(tmp_path, capsys, monkeypatch):
    # unit 0 is the forked child's share
    monkeypatch.setitem(checks.SUITES, "ode", (_planted_unit, _constants_unit))
    assert run("verify", "--suite", "ode", "--out", str(tmp_path / "report.json")) == 3
    err = capsys.readouterr().err
    assert err == ("i/o error: the process running check units 0, 2, ... of suite ode exited with status 1:"
                   " RuntimeError: planted failure in a check unit\n")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


def test_verify_failed_parent_unit_reaps_the_child(tmp_path, monkeypatch):
    # unit 1 is this process's share
    monkeypatch.setitem(checks.SUITES, "ode", (_constants_unit, _planted_unit))
    with pytest.raises(RuntimeError, match="planted failure"):
        run("verify", "--suite", "ode", "--out", str(tmp_path / "report.json"))
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_left()


# --- the fork helper --------------------------------------------------------------


def _refuse_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("argv, what, out", [
    (["iterate", "--grid", "129", "--n", "1", "--out", "{tmp}/t.csv"],
     "the process formatting row blocks 0, 2, ... of {tmp}/t.csv", "t.csv"),
    (["verify", "--suite", "ode", "--out", "{tmp}/report.json"],
     "the process running check units 0, 2, ... of suite ode", "report.json"),
    (["spectral", "--grid", "129", "--n", "2", "--outdir", "{tmp}/sp"],
     "the process formatting the CF dumps", "sp/diagnostics.csv"),
], ids=["iterate", "verify", "spectral"])
def test_failed_fork_exits_3_and_closes_the_pipe(tmp_path, capsys, monkeypatch, argv, what, out):
    # the trace's temporary files are open at the fork and are removed; the
    # sidecar, the report and the spectral files are never written, so an
    # earlier output is kept
    monkeypatch.setattr(os, "fork", _refuse_fork)
    (tmp_path / out).parent.mkdir(exist_ok=True)
    (tmp_path / out).write_bytes(_EARLIER)
    fds = len(os.listdir("/proc/self/fd"))
    assert run(*(a.replace("{tmp}", str(tmp_path)) for a in argv)) == 3
    assert len(os.listdir("/proc/self/fd")) == fds
    what = what.replace("{tmp}", str(tmp_path))
    assert capsys.readouterr().err == (f"i/o error: could not start {what}:"
                                       f" [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n")
    _assert_earlier_output_kept(tmp_path / out)


def test_two_processes_return_a_reply_longer_than_the_pipe_buffer():
    # ~1.5 MB of UTF-8 from a job of the forked child, far past a pipe's
    # buffer: if the helper reaped the child before reading its reply, both
    # would block and the timeout fails the test instead of hanging the run
    probe = textwrap.dedent("""
        from derangetropy.cli import _in_two_processes
        text = "".join(f"{i}:\\u00e9\\u2192\\U0001d53c;" for i in range(100_000))
        results = _in_two_processes([lambda: text, lambda: "here", lambda: "child"], "the probe's child")
        assert results == [text, "here", "child"], [len(r) for r in results]
        print(len(text.encode()))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 1_400_000


def _float_bits(value):
    return [_float_bits(v) for v in value] if isinstance(value, list) else float.hex(value)


def test_two_processes_return_every_result_in_job_order_bit_for_bit():
    # each value is the result of jobs i and i + 5, so one of them runs in the
    # forked child and comes back through JSON
    values = [0.1 + 0.2, 5e-324, -0.0, math.nan, [math.inf, [-math.inf, [5e-324, -0.0]], []]]
    results = cli._in_two_processes([lambda v=v: v for v in values * 2], "the probe's child")
    _assert_no_child_left()
    assert [_float_bits(r) for r in results] == [_float_bits(v) for v in values * 2]
    assert math.isnan(results[3]) and math.isnan(results[8])


# --- spectral -------------------------------------------------------------------


def test_spectral_outputs(tmp_path):
    outdir = tmp_path / "sp"
    assert run("spectral", "--dist", "uniform", "--n", "3", "--grid", "513",
               "--outdir", str(outdir)) == 0
    # each file is the per-cell reference of the library's numbers
    g = from_analytic(DistributionSpec("uniform"), 513)
    d = spectral.gaussian_convergence(TransformKind.TYPE3, g, 3)
    phi = spectral.char_function(g)

    def cf(values):
        return _csv_reference("t,re,im\n", phi.ts, values.real, values.imag)

    expected = {
        "diagnostics.csv": _csv_reference("n,variance,median,sup_distance,rate_product\n", np.arange(4),
                                          d.variance, d.median, d.sup_distance, d.rate_product),
        "cf_source.csv": cf(phi.values),
    }
    for step in (1, 2):
        phi = spectral.t_operator(phi)
        expected[f"cf_shift_step{step}_raw.csv"] = cf(phi.values)
        expected[f"cf_shift_step{step}_renormalized.csv"] = cf(phi.values / phi.at_zero())
    assert {p.name: p.read_text() for p in outdir.iterdir()} == expected

    # renormalized shift dumps carry value 1 at t = 0; the raw second step
    # carries the 3/2 that documents non-preservation of normalization
    raw2 = np.loadtxt(outdir / "cf_shift_step2_raw.csv", delimiter=",", skiprows=1)
    mid = raw2[raw2[:, 0] == 0.0][0]
    assert mid[1] == pytest.approx(1.5, abs=1e-9)
    ren2 = np.loadtxt(outdir / "cf_shift_step2_renormalized.csv", delimiter=",", skiprows=1)
    mid = ren2[ren2[:, 0] == 0.0][0]
    assert mid[1] == pytest.approx(1.0, abs=1e-12)


def test_spectral_zero_steps(tmp_path):
    outdir = tmp_path / "sp0"
    assert run("spectral", "--n", "0", "--grid", "513", "--outdir", str(outdir)) == 0
    diag = (outdir / "diagnostics.csv").read_text().strip().split("\n")
    assert len(diag) == 2
    assert float(diag[1].split(",")[1]) == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_spectral_deterministic_bytes(tmp_path):
    # the diagnostics carry a centre accumulated over the re-grids, in a
    # fixed order of float additions, so a rerun writes the same bytes
    first, second = tmp_path / "a", tmp_path / "b"
    for outdir in (first, second):
        assert run("spectral", "--dist", "exponential", "--n", "40", "--grid", "1025",
                   "--outdir", str(outdir)) == 0
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 6
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("rate", ["1e307", "1e-300"])
def test_spectral_degenerate_variance_names_the_step(tmp_path, capsys, rate):
    # the source's centered variance, 1/rate^2, underflows to 0 at rate 1e307
    # and overflows to inf at rate 1e-300
    outdir = tmp_path / "sp"
    assert run("spectral", "--dist", "exponential", "--params", f"rate={rate}",
               "--grid", "129", "--n", "8", "--outdir", str(outdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0 ") and err.count("\n") == 1
    # the convergence loop raises in dlab, which kills and reaps the forked
    # child formatting the CF dumps before anything is created
    assert not outdir.exists()
    _assert_no_child_left()


def test_spectral_failed_cf_process_exits_3_and_keeps_the_earlier_files(tmp_path, capsys, monkeypatch):
    # the CF dumps are formatted in a forked child; when it raises, no file
    # is replaced
    outdir = tmp_path / "sp"
    argv = ("spectral", "--grid", "129", "--n", "2", "--outdir", str(outdir))
    assert run(*argv) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert len(names) == 6
    for name in names:
        (outdir / name).write_bytes(_EARLIER)
    _plant_in_formatter(monkeypatch, True, _raise)
    assert run(*argv) == 3
    assert capsys.readouterr().err == ("i/o error: the process formatting the CF dumps exited with status 1:"
                                       " RuntimeError: planted failure formatting a block\n")
    assert sorted(p.name for p in outdir.iterdir()) == names
    assert all((outdir / name).read_bytes() == _EARLIER for name in names)
    _assert_no_child_left()


def test_spectral_rejects_negative_n(tmp_path, capsys):
    assert run("spectral", "--n", "-1", "--outdir", str(tmp_path / "x")) == 2
    capsys.readouterr()


# the first --tmax past the CF window cap at a step of 2*pi/64
_FIRST_WIDE_TMAX = (spectral.MAX_HALF_COUNT + 1) * math.tau / 64.0


@pytest.mark.parametrize("flag,value", [
    # every CF is sampled at tstep = 2*pi/64, so the step is not a flag and
    # argparse rejects any step divisor, including ones past the dump cap
    ("--tstep-div", "0"), ("--tstep-div", "-64"), ("--tmax", "inf"), ("--tmax", "nan"),
    pytest.param("--tstep-div", str(spectral.MAX_HALF_COUNT // 32 + 1), id="--tstep-div-first-past-cap"),
    pytest.param("--tstep-div", str(10**401), id="--tstep-div-10**401"),
    pytest.param("--tmax", repr(_FIRST_WIDE_TMAX), id="--tmax-first-past-cap"),
    ("--tmax", "1e300"),
    # narrower than one step of 2*pi/64: the window would hold only t = 0
    ("--tmax", "0.05"),
])
def test_spectral_rejects_bad_frequency_window(tmp_path, capsys, flag, value):
    outdir = tmp_path / "sp"
    assert run("spectral", flag, value, "--grid", "129", "--n", "2", "--outdir", str(outdir)) == 2
    err = capsys.readouterr().err
    if flag == "--tstep-div":
        assert f"unrecognized arguments: {flag} {value}\n" in err
    else:
        # the step is fixed, so only --tmax can be at fault
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "tstep" not in err
    if value in ("inf", "nan"):
        assert err == f"error: spectral --tmax {value}: tmax must be finite and positive\n"
    assert not outdir.exists()


def test_spectral_cf_dumps_span_64_pi(tmp_path):
    # |t| <= 64*pi at tstep = 2*pi/64 is 2048 frequencies per side
    outdir = tmp_path / "sp"
    assert run("spectral", "--grid", "129", "--n", "0", "--outdir", str(outdir)) == 0
    t = np.loadtxt(outdir / "cf_source.csv", delimiter=",", skiprows=1)[:, 0]
    assert t.shape == (2 * 2048 + 1,)
    assert t[-1] == 2048 * spectral.DEFAULT_TSTEP == -t[0]


def test_spectral_accepts_the_widest_comparison_window(tmp_path):
    # the last accepted --tmax: exactly MAX_HALF_COUNT steps of the default tstep
    outdir = tmp_path / "sp"
    tmax = spectral.MAX_HALF_COUNT * math.tau / 64.0
    assert run("spectral", "--tmax", repr(tmax), "--grid", "129", "--n", "0", "--outdir", str(outdir)) == 0
    assert len(list(outdir.iterdir())) == 6


# --- figures --------------------------------------------------------------------


def test_figures_fig1(tmp_path):
    outdir = tmp_path / "f1"
    assert run("figures", "--which", "fig1", "--grid", "513", "--outdir", str(outdir)) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == ["arcsine.csv", "exponential.csv", "normal.csv",
                     "semicircle.csv", "uniform.csv"]
    lines = (outdir / "uniform.csv").read_text().strip().split("\n")
    assert lines[0] == "x,f,rho,tau"
    data = np.loadtxt(outdir / "uniform.csv", delimiter=",", skiprows=1)
    i = int(np.argmax(data[:, 2]))
    assert data[i, 0] == pytest.approx(0.5, abs=data[1, 0] - data[0, 0])
    assert data[i, 2] == pytest.approx(12.0 / (math.pi * math.e), abs=1e-4)


def test_figures_fig2(tmp_path):
    outdir = tmp_path / "f2"
    assert run("figures", "--which", "fig2", "--grid", "513", "--outdir", str(outdir)) == 0
    lines = (outdir / "normal.csv").read_text().strip().split("\n")
    assert lines[0] == "x,f,nu1,nu2"
    data = np.loadtxt(outdir / "normal.csv", delimiter=",", skiprows=1)
    # two type3 applications stay median-centered for a symmetric source
    assert data[int(np.argmax(data[:, 3])), 0] == pytest.approx(0.0, abs=data[1, 0] - data[0, 0])


def test_figures_bad_grid_creates_no_outdir(tmp_path, capsys):
    # a failing run writes nothing, not even the directory it would have filled
    assert run("figures", "--grid", "64", "--outdir", str(tmp_path / "out")) == 2
    assert "odd" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, blocked", [
    (["spectral", "--grid", "129", "--n", "2"], "cf_source.csv"),
    (["figures", "--grid", "129"], "normal.csv"),
], ids=["spectral", "figures"])
def test_unwritable_later_file_keeps_every_earlier_file(tmp_path, capsys, argv, blocked):
    # every file of a run is written under a temporary name and none is
    # renamed onto its path until all are complete, so a directory in place
    # of a later file leaves each earlier file's bytes and nothing beside them
    outdir = tmp_path / "out"
    assert run(*argv, "--outdir", str(outdir)) == 0
    names = sorted(p.name for p in outdir.iterdir())
    for name in names:
        (outdir / name).write_bytes(_EARLIER)
    (outdir / blocked).unlink()
    (outdir / blocked).mkdir()
    assert run(*argv, "--outdir", str(outdir)) == 3
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(outdir / blocked)!r}\n"
    assert sorted(p.name for p in outdir.iterdir()) == names
    assert all((outdir / name).read_bytes() == _EARLIER for name in names if name != blocked)
    assert list((outdir / blocked).iterdir()) == []


def test_failed_rename_keeps_the_paths_not_yet_replaced(tmp_path, capsys, monkeypatch):
    # the renames run in path order once every file is complete, so one that
    # fails leaves the paths before it new, the paths after it as they were,
    # and no temporary file beside them
    outdir = tmp_path / "out"
    names = ["diagnostics.csv", "cf_source.csv", "cf_shift_step1_raw.csv", "cf_shift_step1_renormalized.csv",
             "cf_shift_step2_raw.csv", "cf_shift_step2_renormalized.csv"]
    argv = ("spectral", "--grid", "129", "--n", "2", "--outdir", str(outdir))
    assert run(*argv) == 0
    new = {name: (outdir / name).read_bytes() for name in names}
    for name in names:
        (outdir / name).write_bytes(_EARLIER)
    targets = []
    replace = os.replace

    def refuse_third(src, dst):
        targets.append(dst)
        if len(targets) == 3:
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", refuse_third)
    assert run(*argv) == 3
    assert targets == [str(outdir / name) for name in names[:3]]
    blocked = str(outdir / names[2])
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {blocked!r}\n"
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)
    assert [(outdir / name).read_bytes() for name in names] == [new[name] for name in names[:2]] + [_EARLIER] * 4


def test_figures_default_outdir_named_after_panel(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("figures", "--which", "fig2", "--grid", "257") == 0
    assert (tmp_path / "fig2" / "uniform.csv").exists()


# --- console entry point ----------------------------------------------------------


def test_console_script_runs():
    # the child sees this process's sys.path, so a checkout that is not
    # installed finds the package through pytest's `pythonpath` setting
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "derangetropy.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "dlab" in proc.stdout


def test_dlab_loads_no_scipy_or_process_launchers(tmp_path):
    # numpy is the package's only runtime dependency, and the second process
    # of `iterate`, `spectral` and `verify` is a bare os.fork: no pool, spawn or exec. Each step records
    # main's exit code and then the watched modules loaded so far; modules are
    # never unloaded, so a leak shows from the step that caused it onwards.
    calls = [
        ["iterate", "--grid", "129", "--n", "2", "--out", "t.csv"],
        ["spectral", "--dist", "uniform", "--kind", "type3", "--grid", "129"],
        ["transform", "--kind", "type1", "--grid", "129", "--out", "t1.csv"],
        ["iterate", "--dist", "normal", "--kind", "type2", "--grid", "129", "--n", "2", "--out", "t2.csv"],
        ["verify", "--suite", "all", "--out", "report.json"],
        ["spectral", "--dist", "normal", "--kind", "type1", "--grid", "129", "--outdir", "s1"],
        ["figures", "--which", "fig1", "--grid", "129"],
    ]
    probe = textwrap.dedent("""
        import json, sys
        WATCHED = ('scipy', 'multiprocessing', 'concurrent', 'subprocess')
        def watched_modules():
            return sorted(m for m in sys.modules if m.partition('.')[0] in WATCHED)
        import derangetropy
        loaded = {'import derangetropy': watched_modules()}
        from derangetropy.cli import main
        loaded['import derangetropy.cli'] = watched_modules()
        for argv in json.loads(sys.argv[1]):
            loaded[' '.join(argv)] = [main(argv), *watched_modules()]
        print(json.dumps(loaded))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(calls)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import derangetropy": [], "import derangetropy.cli": [],
                      **{" ".join(argv): [0] for argv in calls}}
    for out in ("t.csv", "spectral/diagnostics.csv", "t1.csv", "t2.csv", "report.json",
                "s1/diagnostics.csv", "fig1/uniform.csv"):
        assert (tmp_path / out).exists(), out


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # the quadrature sums must not go through BLAS, whose threads split long
    # sums at points that depend on the thread count
    calls = [
        ["verify", "--suite", "constants", "--out", "report.json"],
        ["iterate", "--grid", "16385", "--n", "3", "--out", "trace.csv"],
    ]
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "derangetropy.cli", *argv],
                                  capture_output=True, env=env, cwd=cwd)
            assert proc.returncode == 0, proc.stderr
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    assert sorted(outputs["1"]) == ["report.json", "trace.csv", "trace.diagnostics.json"]
    for name, data in outputs["1"].items():
        assert outputs["2"][name] == data, name


def _ulps(a, b, scale):
    """|a - b| in units in the last place of scale."""
    return np.abs(np.asarray(a) - np.asarray(b)) / np.spacing(np.abs(scale))


def test_numbers_do_not_depend_on_the_simd_level(tmp_path):
    # numpy's AVX-512 and AVX2 loops for exp and log round some inputs 1 ulp
    # away from its baseline loops. A Type I/II transform takes one exp per
    # pdf cell and one exp and two logs per kernel cell, then about ten
    # products, quotients and positive sums, each carrying at most a few ulps
    # of those seeds; so every cell must agree within 16 ulps across levels.
    # A step of `iterate` or `spectral` is such a transform and carries the
    # earlier steps' error forward, so step k may differ by 16 (k + 1) ulps of
    # its scale: a density column's peak, the value itself for moments and
    # medians, and 1 for quantities that cancel against 1 (the mass defect,
    # the sup distance, the CF cells, which a density of mass 1 bounds by 1).
    pytest.importorskip("numpy.lib.introspect")
    child = textwrap.dedent("""
        from numpy.lib.introspect import opt_func_info
        from derangetropy.cli import main
        info = opt_func_info(func_name="^(exp|log)$", signature="float64")
        print(sorted(loop["current"] for loops in info.values() for loop in loops.values()))
        for kind in ("type1", "type2"):
            assert main(["transform", "--dist", "exponential", "--kind", kind, "--out", kind + ".csv"]) == 0
        # a non-default rate takes the pdf through its change of variable, exp(-x / scale)
        dist = ["--dist", "exponential", "--kind", "type2", "--params", "rate=2.5"]
        assert main(["iterate", *dist, "--n", "6", "--out", "trace.csv"]) == 0
        assert main(["spectral", *dist, "--n", "30", "--outdir", "sp"]) == 0
    """)
    levels, outputs = {}, {}
    for name, disabled in (("default", ""), ("baseline", "X86_V4 X86_V3")):
        cwd = tmp_path / name
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, cwd=cwd)
        assert proc.returncode == 0, proc.stderr
        levels[name] = proc.stdout
        csvs = ["type1.csv", "type2.csv", "trace.csv", *(f"sp/{p.name}" for p in sorted((cwd / "sp").iterdir()))]
        outputs[name] = {path: np.loadtxt(cwd / path, delimiter=",", skiprows=1) for path in csvs}
        outputs[name]["sidecar"] = json.loads((cwd / "trace.diagnostics.json").read_text())
    if levels["default"] == levels["baseline"]:
        pytest.skip(f"the float64 exp and log loops run at {levels['default'].strip()} either way")
    a, b = outputs["default"], outputs["baseline"]
    assert sorted(a) == sorted(b)
    for kind in ("type1.csv", "type2.csv"):
        assert a[kind].shape == b[kind].shape
        ulps = _ulps(a[kind], b[kind], np.maximum(np.abs(a[kind]), np.abs(b[kind])))
        assert ulps.max() <= 16, (kind, ulps.max(axis=0))
    # trace.csv: step, x, f, F; each step's columns against their peak
    assert a["trace.csv"].shape == b["trace.csv"].shape == (7 * 4097, 4)
    for k, (ta, tb) in enumerate(zip(np.split(a["trace.csv"], 7), np.split(b["trace.csv"], 7))):
        ulps = _ulps(ta, tb, np.abs(ta).max(axis=0))
        assert ulps.max() <= 16 * (k + 1), ("trace.csv", k, ulps.max(axis=0))
    for k, (ra, rb) in enumerate(zip(a["sidecar"], b["sidecar"], strict=True)):
        assert ra.keys() == rb.keys() and ra["step"] == rb["step"] == k
        for key in ("mean", "variance", "median"):
            assert _ulps(ra[key], rb[key], ra[key]) <= 16 * (k + 1), ("sidecar", k, key)
        assert _ulps(ra["integralError"], rb["integralError"], 1.0) <= 16 * (k + 1), ("sidecar", k)
    # diagnostics.csv: n, variance, median, sup_distance, rate_product = 2 pi^2 n variance
    da, db = a["sp/diagnostics.csv"], b["sp/diagnostics.csv"]
    assert da.shape == db.shape == (31, 5)
    scale = np.where(np.arange(5) == 3, 1.0, np.abs(da))
    ulps = _ulps(da, db, scale)
    assert np.all(ulps <= 16 * (da[:, :1] + 1)), ("diagnostics.csv", ulps.max(axis=0))
    # The source's CF is one step. The shift operator forms v(t) - (v(t + 2 pi)
    # + v(t - 2 pi))/2, which at most doubles an absolute error; renormalizing
    # divides by the raw value at t = 0, c, each raw file's largest cell here,
    # which at most doubles it again and divides it by |c|.
    for shifts in range(3):
        path = f"sp/cf_shift_step{shifts}_raw.csv" if shifts else "sp/cf_source.csv"
        bound = 16 * 2**shifts
        raw = a[path]
        assert raw.shape == b[path].shape and _ulps(raw, b[path], 1.0).max() <= bound, path
        if shifts:
            c = np.abs(raw[raw[:, 0] == 0.0, 1:]).max()
            assert c == np.abs(raw[:, 1:]).max()
            path = path.replace("raw", "renormalized")
            assert _ulps(a[path], b[path], 1.0).max() <= 2 * bound / c, path
