import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from derangetropy import spectral
from derangetropy.cli import main

import oracles


def run(*argv):
    return main(list(argv))


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
    assert run("transform", "--params", "a=1;b=2") == 2
    assert run("transform", "--params", "a=x") == 2
    assert run("transform", "--dist", "uniform", "--params", "a=2,b=1") == 2
    capsys.readouterr()
    assert run("transform", "--dist", "normal", "--params", "stddev=inf") == 2
    assert "'stddev'" in capsys.readouterr().err
    # r^2 underflows to 0 in the semicircle's 2/(pi r^2)
    assert run("transform", "--dist", "semicircle", "--params", "radius=1e-170") == 2
    assert "'radius'" in capsys.readouterr().err
    # 129 nodes between two adjacent floats would collapse onto two x values
    assert run("transform", "--dist", "uniform", "--params", "a=1e17,b=1.0000000000000002e17",
               "--grid", "129") == 2
    assert "'a'" in capsys.readouterr().err
    # the pdf's normalizer overflows: 1/(stddev sqrt(2 pi)) and 1/(b - a)
    assert run("transform", "--dist", "normal", "--params", "stddev=1e-320", "--grid", "129") == 2
    assert "'stddev'" in capsys.readouterr().err
    assert run("transform", "--dist", "uniform", "--params", "a=0,b=1e-310", "--grid", "129") == 2
    assert "'b'" in capsys.readouterr().err
    # the normalizer is finite but the cumulative rule's panel sums overflow
    for dist, params, name in (("exponential", "rate=2e307", "'rate'"), ("normal", "stddev=1e-308", "'stddev'"),
                               ("uniform", "a=0,b=1e-308", "'b'")):
        assert run("transform", "--dist", dist, "--params", params, "--grid", "129") == 2
        assert name in capsys.readouterr().err


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


def test_iterate_exponential_median_stays_near_ln2(tmp_path):
    out = tmp_path / "e.csv"
    assert run("iterate", "--dist", "exponential", "--kind", "type3",
               "--n", "2", "--grid", "4097", "--out", str(out)) == 0
    rows = json.loads((tmp_path / "e.diagnostics.json").read_text())
    assert 0.6 <= rows[2]["median"] <= 0.8
    assert rows[2]["median"] == pytest.approx(math.log(2.0), abs=1e-3)


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


# --- spectral -------------------------------------------------------------------


def test_spectral_outputs(tmp_path):
    outdir = tmp_path / "sp"
    assert run("spectral", "--dist", "uniform", "--n", "3", "--grid", "513",
               "--outdir", str(outdir)) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "cf_shift_step1_raw.csv",
        "cf_shift_step1_renormalized.csv",
        "cf_shift_step2_raw.csv",
        "cf_shift_step2_renormalized.csv",
        "cf_source.csv",
        "diagnostics.csv",
    ]
    diag = (outdir / "diagnostics.csv").read_text().strip().split("\n")
    assert diag[0] == "n,variance,median,sup_distance,rate_product"
    assert len(diag) == 5

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
    assert not (outdir / "diagnostics.csv").exists()


def test_spectral_rejects_negative_n(tmp_path, capsys):
    assert run("spectral", "--n", "-1", "--outdir", str(tmp_path / "x")) == 2
    capsys.readouterr()


# the first rejected values past the CF window cap: the dump window of 32*D
# frequencies per side, and the comparison window of floor(tmax*D/(2*pi)) at
# the default D = 64
_FIRST_WIDE_TSTEP_DIV = spectral.MAX_HALF_COUNT // 32 + 1
_FIRST_WIDE_TMAX = (spectral.MAX_HALF_COUNT + 1) * math.tau / 64.0


@pytest.mark.parametrize("flag,value", [
    ("--tstep-div", "0"), ("--tstep-div", "-64"), ("--tmax", "inf"), ("--tmax", "nan"),
    pytest.param("--tstep-div", str(_FIRST_WIDE_TSTEP_DIV), id="--tstep-div-first-past-cap"),
    pytest.param("--tstep-div", str(10**401), id="--tstep-div-10**401"),
    pytest.param("--tmax", repr(_FIRST_WIDE_TMAX), id="--tmax-first-past-cap"),
    ("--tmax", "1e300"),
])
def test_spectral_rejects_bad_frequency_window(tmp_path, capsys, flag, value):
    outdir = tmp_path / "sp"
    assert run("spectral", flag, value, "--grid", "129", "--n", "2", "--outdir", str(outdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not outdir.exists()


def test_spectral_dump_window_error_names_the_dump_window(tmp_path, capsys):
    # the default --tmax fits; only the CF dumps' window |t| <= 64*pi is past the cap
    assert run("spectral", "--tstep-div", str(_FIRST_WIDE_TSTEP_DIV), "--grid", "129", "--n", "2",
               "--outdir", str(tmp_path / "sp")) == 2
    err = capsys.readouterr().err
    assert "CF dumps' window" in err
    assert "--tmax" not in err


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


def test_dlab_loads_no_scipy(tmp_path):
    # numpy is the package's only runtime dependency. Each step records main's
    # exit code and then the scipy modules loaded so far; modules are never
    # unloaded, so a leak shows from the step that caused it onwards.
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
        def scipy_modules():
            return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')
        import derangetropy
        loaded = {'import derangetropy': scipy_modules()}
        from derangetropy.cli import main
        loaded['import derangetropy.cli'] = scipy_modules()
        for argv in json.loads(sys.argv[1]):
            loaded[' '.join(argv)] = [main(argv), *scipy_modules()]
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
