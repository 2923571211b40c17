"""Fingerprint the bytes of a fixed `dlab` run matrix.

Runs every case below with the package imported from SRC (default: the
`src/` next to this file), each in its own directory under one temporary
directory, and prints one `sha256 exit-code path` line per output file,
plus one for each run's stderr and one for its stdout if it is not empty.
A first line names the numpy build and the SIMD level its float64 `exp`
and `log` loops run at: the bytes hold for one numpy build on one CPU at
one SIMD level, so a diff across hosts that differ there is not a change.
Two runs of the same tree on the same host print the same lines, so

    python tools/dlab_bytes.py /path/to/old/src > old.txt
    python tools/dlab_bytes.py > new.txt
    diff old.txt new.txt

checks that a change keeps the output of `dlab` byte for byte. Standard
library only; the package itself needs numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")
KINDS = ("type1", "type2", "type3")

# (case name, dlab arguments); "{out}" is replaced by the case's directory
MATRIX: list[tuple[str, list[str]]] = [
    *((f"transform-{fam}-{kind}", ["transform", "--dist", fam, "--kind", kind, "--out", "{out}/t.csv"])
      for fam in FAMILIES for kind in KINDS),
    ("iterate-defaults", ["iterate", "--out", "{out}/trace.csv"]),
    ("iterate-exponential-type3", ["iterate", "--dist", "exponential", "--kind", "type3", "--n", "8",
                                   "--grid", "16385", "--out", "{out}/trace.csv"]),
    ("iterate-arcsine-type1", ["iterate", "--dist", "arcsine", "--kind", "type1", "--n", "30",
                               "--out", "{out}/trace.csv"]),
    ("iterate-normal-type2", ["iterate", "--dist", "normal", "--kind", "type2",
                              "--params", "mean=0.3,stddev=1.7", "--out", "{out}/trace.csv"]),
    # the trace is written by two processes, each formatting every other one of a step's 16 row blocks:
    # two steps, the smallest grid (blocks of 8 and 9 rows), then the trace-export benchmark's shape
    ("iterate-one-step", ["iterate", "--n", "1", "--out", "{out}/trace.csv"]),
    ("iterate-grid129", ["iterate", "--grid", "129", "--n", "3", "--out", "{out}/trace.csv"]),
    ("iterate-arcsine-type1-grid65537", ["iterate", "--dist", "arcsine", "--kind", "type1", "--grid", "65537",
                                         "--n", "8", "--out", "{out}/trace.csv"]),
    # a variance of 1e-600 reads 0.0: both files are written, then exit 1
    ("iterate-variance-underflow", ["iterate", "--dist", "exponential", "--params", "rate=1e300", "--n", "1",
                                    "--out", "{out}/trace.csv"]),
    ("figures-fig1", ["figures", "--which", "fig1", "--outdir", "{out}"]),
    ("figures-fig2", ["figures", "--which", "fig2", "--outdir", "{out}"]),
    ("verify-json", ["verify", "--suite", "all", "--format", "json", "--out", "{out}/report.json"]),
    ("verify-csv", ["verify", "--suite", "all", "--format", "csv", "--out", "{out}/report.csv"]),
    # verify runs its check units on two processes: five units, then one, which leaves this process none
    ("verify-convergence-csv", ["verify", "--suite", "convergence", "--format", "csv",
                                "--out", "{out}/report.csv"]),
    ("verify-ode", ["verify", "--suite", "ode", "--out", "{out}/report.json"]),
    *((f"spectral-{kind}", ["spectral", "--kind", kind, "--outdir", "{out}"]) for kind in ("type3", "type1", "type2")),
    # 16385 nodes put the Bluestein FFTs at 16875 = 3**3 * 5**4 points, a length with no factor 2
    ("spectral-uniform-grid16385", ["spectral", "--dist", "uniform", "--grid", "16385",
                                    "--outdir", "{out}"]),
    # a forked child formats the CF dumps while dlab runs the convergence loop; here the loop is short
    ("spectral-grid129", ["spectral", "--grid", "129", "--n", "2", "--outdir", "{out}"]),
    # the skewed step-1 tail that the re-grid window must keep is widest here
    ("spectral-exponential-type2", ["spectral", "--dist", "exponential", "--kind", "type2",
                                    "--outdir", "{out}"]),
    # exit 2 before any file is written: only their stderr is fingerprinted
    ("spectral-tmax-below-one-step", ["spectral", "--tmax", "0.05", "--outdir", "{out}/sp"]),
    ("spectral-tmax-inf", ["spectral", "--tmax", "inf", "--outdir", "{out}/sp"]),
    ("spectral-tmax-past-cap", ["spectral", "--tmax", "1e300", "--outdir", "{out}/sp"]),
    ("transform-params-without-equals-sign", ["transform", "--params", "a", "--out", "{out}/t.csv"]),
    # an empty --out would put the sidecar at ".diagnostics.json" in the working directory
    ("iterate-empty-out", ["iterate", "--out", ""]),
    # the iteration stops at step 0, whose variance underflows to 0
    ("spectral-variance-underflow", ["spectral", "--dist", "exponential", "--params", "rate=1e307",
                                     "--grid", "129", "--n", "8", "--outdir", "{out}/sp"]),
    ("transform-uniform-collapsed-nodes", ["transform", "--dist", "uniform", "--params",
                                           "a=1e17,b=1.0000000000000002e17", "--grid", "129",
                                           "--out", "{out}/t.csv"]),
    # without --out the table goes to stdout, which is fingerprinted too
    ("transform-exponential-type2-stdout", ["transform", "--dist", "exponential", "--kind", "type2"]),
    ("verify-constants-csv-stdout", ["verify", "--suite", "constants", "--format", "csv"]),
    # each family's pdf at parameters other than its defaults, through its loc and scale
    *((f"transform-{fam}-params", ["transform", "--dist", fam, "--params", params, "--out", "{out}/t.csv"])
      for fam, params in (("uniform", "a=-3,b=0.1"), ("semicircle", "center=0.25,radius=3"),
                          ("arcsine", "a=-1,b=2"))),
    # x cells near 1e-300 and f cells from 5e+285 to 8e+299: three-digit exponents both ways, and
    # the cells below 1e-290 and from 1e280 up that csv_rows formats with `%` itself
    ("transform-normal-tiny-scale", ["transform", "--dist", "normal", "--params", "mean=0,stddev=1e-300",
                                     "--grid", "129", "--out", "{out}/t.csv"]),
]


# run in a child with the cases' environment, so this tool needs no numpy
# and reports what NPY_DISABLE_CPU_FEATURES leaves switched on
BUILD_PROBE = """
import numpy
try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy 1.x cannot say
    levels = "unknown"
else:
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    levels = ", ".join(f"{name} {loop['current']}" for name, loops in info.items() for loop in loops.values())
print(f"# numpy {numpy.__version__}; float64 loops: {levels}")
"""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(src: str, root: str, name: str, argv: list[str]) -> list[str]:
    """Run one case and return its fingerprint lines: stderr, stdout if any, then files in path order."""
    out = os.path.join(root, name)
    os.makedirs(out)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "derangetropy.cli", *(a.replace("{out}", out) for a in argv)],
        cwd=out, env=env, capture_output=True, check=False,
    )
    # a message naming a file names it inside the temporary root, which differs per run
    stderr = proc.stderr.replace(root.encode(), b"<root>")
    lines = [f"{_sha256(stderr)} {proc.returncode} {name}/stderr"]
    if proc.stdout:
        lines.append(f"{_sha256(proc.stdout)} {proc.returncode} {name}/stdout")
    files = []
    for dirpath, _, filenames in os.walk(out):
        files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        with open(path, "rb") as fh:
            digest = _sha256(fh.read())
        lines.append(f"{digest} {proc.returncode} {os.path.relpath(path, root)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the derangetropy package (default: ../src)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "derangetropy")):
        parser.error(f"no derangetropy package under {src}")
    probe = subprocess.run([sys.executable, "-c", BUILD_PROBE], env={**os.environ, "PYTHONPATH": src},
                           capture_output=True, text=True, check=True)
    print(probe.stdout, end="", flush=True)
    with tempfile.TemporaryDirectory(prefix="dlab_bytes_") as root:
        for name, case_argv in MATRIX:
            for line in run_case(src, root, name, case_argv):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
