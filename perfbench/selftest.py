"""Self-tests for the benchmark's output checkers.

    python3 perfbench/selftest.py

Exits 0 only if the checkers flag both planted defects and pass a clean run:

1. past resolution: `dlab iterate --dist uniform --kind type3 --n 30
   --grid 4097` exits 0, but the grid stops resolving the bump: from step 10
   integralError exceeds its 1e-4 gate, and it reaches 0.94 by step 14. The
   trace checker must fail it;
2. corruption: a clean `dlab iterate` output passes, and the same output with
   one digit flipped fails as a repetition of it.
"""

from __future__ import annotations

import re
import shutil
import sys

import checks
import run
from run import WORK, Invocation, Tally, Workload


_DIGIT = re.compile(rb"[0-9]")


def flip_digit(data: bytes) -> bytes:
    """Replace the first digit after the middle of `data` with another digit."""
    m = _DIGIT.search(data, len(data) // 2)
    if m is None:
        raise ValueError("no digit to flip")
    i = m.start()
    return data[:i] + bytes([ord("0") + (data[i] - ord("0") + 5) % 10]) + data[i + 1:]


def iterate_workload(family: str, kind: str, steps: int, nodes: int) -> Workload:
    inv = Invocation(
        ("iterate", "--dist", family, "--kind", kind, "--grid", str(nodes), "--n", str(steps), "--out", "t.csv"),
        ("t.csv", "t.diagnostics.json"),
        lambda d: checks.check_trace(d / "t.csv", family, {}, kind, steps, nodes),
    )
    return Workload((inv,), "fixed")


def first_rep(work: Workload, rep_dir) -> tuple[Tally, dict[str, str]]:
    tally, digests = Tally(), {}
    _, children = run.run_rep(work, rep_dir, traced=False)
    run.evaluate(work, rep_dir, children, tally, digests, full=True)
    return tally, digests


def report(label: str, tally: Tally, want_failure: bool) -> bool:
    ok = bool(tally.failed) == want_failure
    verdict = "flagged" if tally.failed else "clean"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}, {len(tally.failed)} of {tally.attempted} operations failed")
    for name in tally.failed[:5]:
        print(f"       {name}")
    return ok


def main() -> int:
    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    results = []

    past, _ = first_rep(iterate_workload("uniform", "type3", 30, 4097), base / "past")
    results.append(report("iterate --n 30 --grid 4097 past the grid's resolution", past, True))

    work = iterate_workload("normal", "type2", 8, 4097)
    clean, digests = first_rep(work, base / "clean")
    results.append(report("clean iterate output", clean, False))

    shutil.copytree(base / "clean", base / "flipped")
    target = base / "flipped" / "t.csv"
    target.write_bytes(flip_digit(target.read_bytes()))
    flipped = Tally()
    run.evaluate(work, base / "flipped", [run.Child(0, 0.0, 0.0, "")], flipped, digests, full=True)
    results.append(report("the same output with one digit flipped", flipped, True))

    shutil.rmtree(base, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
