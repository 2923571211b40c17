"""Fingerprint the bytes of a fixed `dlab` run matrix.

Runs every case below with the package imported from SRC (default: the
`src/` next to this file), each in its own directory under one temporary
directory, and prints one `sha256 exit-code path` line per output file,
plus one for each run's stderr. Two runs of the same tree print the same
lines, so

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
    ("figures-fig1", ["figures", "--which", "fig1", "--outdir", "{out}"]),
    ("figures-fig2", ["figures", "--which", "fig2", "--outdir", "{out}"]),
    ("verify-json", ["verify", "--suite", "all", "--format", "json", "--out", "{out}/report.json"]),
    ("verify-csv", ["verify", "--suite", "all", "--format", "csv", "--out", "{out}/report.csv"]),
    *((f"spectral-{kind}", ["spectral", "--kind", kind, "--outdir", "{out}"]) for kind in ("type3", "type1", "type2")),
    # 16385 nodes put the Bluestein FFTs at 16875 = 3**3 * 5**4 points, a length with no factor 2
    ("spectral-uniform-grid16385", ["spectral", "--dist", "uniform", "--grid", "16385",
                                    "--outdir", "{out}"]),
    # usage errors (exit 2): only their stderr is fingerprinted
    ("spectral-tstep-div-past-dump-cap", ["spectral", "--tstep-div", "8193", "--outdir", "{out}/sp"]),
    ("spectral-tmax-inf", ["spectral", "--tmax", "inf", "--outdir", "{out}/sp"]),
    ("transform-uniform-collapsed-nodes", ["transform", "--dist", "uniform", "--params",
                                           "a=1e17,b=1.0000000000000002e17", "--grid", "129",
                                           "--out", "{out}/t.csv"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(src: str, root: str, name: str, argv: list[str]) -> list[str]:
    """Run one case and return its fingerprint lines, stderr first, then files in path order."""
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
    with tempfile.TemporaryDirectory(prefix="dlab_bytes_") as root:
        for name, case_argv in MATRIX:
            for line in run_case(src, root, name, case_argv):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
