"""Benchmark of the `dlab` command line, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in turn.
The harness runs one `dlab` child process at a time from `src/` of the
checkout it sits in, repeats the workload until S seconds have passed, and
checks every output file against references computed in `checks.py`.

With `--trace 0` it reports the end-to-end metrics: set-up time (fresh
`import derangetropy.cli`), wall time and peak RSS of the workload's processes
(medians over repetitions), the worst |observed - reference| / gate over the
output checks, and the share of operations that passed. With `--trace 1` it
alternates traced and untraced repetitions and reports per-layer metrics from
`tracer.py`. The last line of standard output is one JSON object; the lines
before it are a readable table and a provenance block. The exit code is 0
only if every operation passed: each `dlab` process exits 0, each check is
within its gate, and every output file has the same bytes in every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import tracer
from checks import Check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The `dlab` console script, spelled out because the checkout is not installed.
DLAB = (sys.executable, "-c", "import sys; from derangetropy.cli import main; sys.exit(main())")
IMPORT_ONLY = (sys.executable, "-c", "import derangetropy.cli")
SETUP_SAMPLES = 5
MIN_REPS = 2  # byte-identity needs a second repetition
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]  # dlab arguments; paths are relative to the repetition directory
    outputs: tuple[str, ...]
    check: Callable[[Path], list[Check]]


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    seed_inputs: str  # what the seed chose, or why it chooses nothing


def verify_all(seed: int) -> Workload:
    inv = Invocation(("verify", "--suite", "all", "--out", "verify.json"), ("verify.json",),
                     lambda d: checks.check_verify_report(d / "verify.json"))
    return Workload((inv,), "none: `dlab verify --suite all` has no free input")


SPECTRAL_STEPS = 30
SPECTRAL_TSTEP = math.tau / 64.0  # the CLI default, --tstep-div 64


def spectral_fine(seed: int) -> Workload:
    stems = ("diagnostics", "cf_source", "cf_shift_step1_raw", "cf_shift_step1_renormalized",
             "cf_shift_step2_raw", "cf_shift_step2_renormalized")
    inv = Invocation(
        ("spectral", "--dist", "uniform", "--grid", "16385", "--n", str(SPECTRAL_STEPS), "--tmax", "5",
         "--outdir", "spectral"),
        tuple(f"spectral/{s}.csv" for s in stems),
        lambda d: checks.check_spectral_uniform(d / "spectral", SPECTRAL_STEPS, SPECTRAL_TSTEP),
    )
    return Workload((inv,), "none: the uniform family is fixed so every output has a closed form")


# One family per kind, fixed so that each repetition writes the same volume and
# sits at the same accuracy headroom whatever the seed: a seed-drawn family
# would move bytes per call between 17 and 36 MB and integralError between
# 1e-11 and 4e-6. The seed draws the location and scale of each family, which
# the transforms are equivariant under, and the invocation order.
TRACE_PAIRS = (("type1", "arcsine"), ("type2", "normal"), ("type3", "exponential"))
TRACE_STEPS = 8
TRACE_NODES = 65537


def _draw_params(rng: random.Random, family: str) -> dict[str, float]:
    if family == "arcsine":
        a = rng.uniform(-1.0, 1.0)
        return {"a": a, "b": a + rng.uniform(0.5, 2.0)}
    if family == "normal":
        return {"mean": rng.uniform(-2.0, 2.0), "stddev": rng.uniform(0.5, 2.0)}
    return {"rate": rng.uniform(0.5, 2.0)}


def trace_export(seed: int) -> Workload:
    rng = random.Random(seed)
    invs, drawn = [], []
    for kind, family in TRACE_PAIRS:
        params = _draw_params(rng, family)
        spec = ",".join(f"{k}={v!r}" for k, v in params.items())
        out = f"trace_{kind}.csv"
        invs.append(Invocation(
            ("iterate", "--dist", family, "--kind", kind, "--params", spec, "--grid", str(TRACE_NODES),
             "--n", str(TRACE_STEPS), "--out", out),
            (out, f"trace_{kind}.diagnostics.json"),
            lambda d, out=out, family=family, params=params, kind=kind:
                checks.check_trace(d / out, family, params, kind, TRACE_STEPS, TRACE_NODES),
        ))
        drawn.append(f"{family}/{kind} {spec}")
    order = list(range(len(invs)))
    rng.shuffle(order)
    return Workload(tuple(invs[i] for i in order), "; ".join(drawn[i] for i in order))


WORKLOADS = {"verify-all": verify_all, "trace-export": trace_export, "spectral-fine": spectral_fine}


# --- child processes ----------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one process to completion; wall time from outside, peak RSS from wait4."""
    err_path = cwd / f".stderr.{os.getpid()}"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    err_path.unlink()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)


# --- repetitions and their checks ---------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, plus the checks behind worst_tol_ratio."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def worst(self) -> Check | None:
        scored = [c for c in self.checks if c.headroom]
        return max(scored, key=lambda c: c.ratio) if scored else None


@dataclass(frozen=True)
class Rep:
    wall_s: float
    peak_rss_mb: float
    spans: list
    imports: dict[str, float]
    bytes_out: int


def run_rep(work: Workload, rep_dir: Path, traced: bool) -> tuple[Rep, list[Child]]:
    rep_dir.mkdir(parents=True)
    children, span_sets, imports = [], [], {}
    for i, inv in enumerate(work.invocations):
        if traced:
            spans_path = rep_dir / f".spans{i}.json"
            argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "tracer.py"), str(spans_path), *inv.args]
        else:
            argv = [*DLAB, *inv.args]
        child = run_child(argv, rep_dir)
        children.append(child)
        if traced:
            if spans_path.exists():
                span_sets.append(json.loads(spans_path.read_text()))
                spans_path.unlink()
            for root, sec in tracer.import_seconds(child.stderr).items():
                imports[root] = imports.get(root, 0.0) + sec
    bytes_out = sum((rep_dir / o).stat().st_size for inv in work.invocations for o in inv.outputs
                    if (rep_dir / o).exists())
    rep = Rep(sum(c.wall_s for c in children), max(c.peak_rss_mb for c in children), span_sets, imports, bytes_out)
    return rep, children


def evaluate(work: Workload, rep_dir: Path, children: list[Child], tally: Tally,
             digests: dict[str, str], full: bool) -> None:
    """Record the operations of one repetition.

    The first repetition is checked against the references and its output
    digests become the baseline; later ones must reproduce those bytes.
    """
    for inv, child in zip(work.invocations, children):
        label = " ".join(inv.args[:5])
        present = all((rep_dir / o).is_file() for o in inv.outputs)
        tally.op(f"{label}: exit {child.returncode}" + ("" if present else ", outputs missing"),
                 child.returncode == 0 and present)
        if child.returncode != 0:
            sys.stderr.write(child.stderr[-2000:])
        if not present:
            continue
        if full:
            try:
                found = inv.check(rep_dir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [checks.flag(f"{label}: unreadable output ({exc!r})", False)]
            for c in found:
                tally.op(c.name, c.passed)
            tally.checks.extend(found)
        for o in inv.outputs:
            digest = hashlib.sha256((rep_dir / o).read_bytes()).hexdigest()
            if o in digests:
                tally.op(f"{o}: bytes identical across repetitions", digests[o] == digest)
            else:
                digests[o] = digest


def measure_setup(samples: int) -> list[float]:
    """Wall time of fresh `import derangetropy.cli` processes, after one untimed
    warm-up that writes the bytecode cache a user's first run would write."""
    WORK.mkdir(parents=True, exist_ok=True)
    times = []
    for i in range(samples + 1):
        child = run_child(list(IMPORT_ONLY), WORK)
        if child.returncode != 0:
            raise RuntimeError(f"import derangetropy.cli failed:\n{child.stderr}")
        if i:
            times.append(child.wall_s)
    return times


# --- the run --------------------------------------------------------------------

COUNT_SUFFIXES = (".calls", ".cf_pairs", ".node_steps", ".bytes", ".rows", "bytes_out")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 layer_names: list[str]) -> tuple[dict, Tally, dict]:
    work = WORKLOADS[name](seed)
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)
    tally, digests = Tally(), {}
    untraced: list[Rep] = []
    traced: list[Rep] = []
    setup = [] if trace else measure_setup(SETUP_SAMPLES)
    start = time.perf_counter()
    while True:
        enough = len(traced) >= MIN_REPS and len(untraced) >= 1 if trace else len(untraced) >= MIN_REPS
        if enough and time.perf_counter() - start >= seconds:
            break
        # in trace mode alternate, starting traced, so both see the same conditions
        use_trace = trace and len(traced) <= len(untraced)
        rep_dir = base / f"rep{len(traced) + len(untraced)}"
        rep, children = run_rep(work, rep_dir, use_trace)
        evaluate(work, rep_dir, children, tally, digests, full=not (traced or untraced))
        (traced if use_trace else untraced).append(rep)
        shutil.rmtree(rep_dir)
    shutil.rmtree(base, ignore_errors=True)

    worst = tally.worst()
    worst_ratio = worst.ratio if worst else 0.0
    if trace:
        metrics, samples = layer_values(traced, untraced, tally, layer_names)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "worst_tol_ratio": worst_ratio,
            "pass_ratio": 1.0 - len(tally.failed) / tally.attempted,
        }
        samples = {"setup_s": len(setup), "wall_s": len(untraced), "peak_rss_mb": len(untraced),
                   "worst_tol_ratio": sum(c.headroom for c in tally.checks), "pass_ratio": tally.attempted}
    info = {
        "workload": name,
        "seed": seed,
        "seed_inputs": work.seed_inputs,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "repetition_wall_s": {"untraced": [r.wall_s for r in untraced], "traced": [r.wall_s for r in traced]},
        "setup_samples_s": setup,
        "samples": samples,
        "worst_check": worst.name if worst else None,
        "worst_tol_ratio": worst_ratio,
        "timings_with_accuracy": {k: {"value": metrics[k], "worst_tol_ratio": worst_ratio}
                                  for k in ("setup_s", "wall_s") if k in metrics},
    }
    return metrics, tally, info


def layer_values(traced: list[Rep], untraced: list[Rep], tally: Tally,
                 names: list[str]) -> tuple[dict, dict]:
    per_rep = []
    for rep in traced:
        values = tracer.layer_metrics(rep.spans)
        for root in ("numpy", "scipy", "derangetropy"):
            values[f"setup.{root}_s"] = rep.imports.get(root, 0.0)
        values["cli.bytes_out"] = rep.bytes_out
        per_rep.append(values)
    # computed counts are functions of the inputs alone: they must repeat exactly
    for key in sorted(set().union(*per_rep)):
        if key.endswith(COUNT_SUFFIXES):
            tally.op(f"{key}: count repeats across traced repetitions",
                     len({v.get(key, 0) for v in per_rep}) == 1)
    metrics = {}
    for n in names:
        if n == "trace.overhead_s":
            metrics[n] = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in untraced)
        elif n.endswith(COUNT_SUFFIXES):
            metrics[n] = per_rep[0].get(n, 0)
        else:
            metrics[n] = statistics.median(v.get(n, 0.0) for v in per_rep)
    samples = {n: len(traced) for n in names}
    samples["trace.overhead_s"] = f"{len(traced)} traced, {len(untraced)} untraced"
    return metrics, samples


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "derangetropy").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def print_table(metrics: dict, units: dict, tally: Tally, info: dict) -> None:
    print(f"== {info['workload']}  seed {info['seed']}  repetitions {info['repetitions']}")
    print(f"   inputs: {info['seed_inputs']}")
    for n, v in metrics.items():
        shown = f"{v:>16}" if isinstance(v, int) else f"{v:>16.6g}"
        print(f"   {n:<44} {shown} {units[n]:<6} (samples: {info['samples'][n]})")
    fail_ratio = len(tally.failed) / tally.attempted
    print(f"   {'fail_ratio':<44} {fail_ratio:>16.6g} {'ratio':<6} "
          f"({len(tally.failed)} of {tally.attempted} operations failed)")
    if info["worst_check"]:
        print(f"   worst check: {info['worst_check']} at {info['worst_tol_ratio']:.3g} of its gate")
    if "trace.main_s" in metrics and metrics["trace.main_s"] > 0:
        main_s = metrics["trace.main_s"]
        for n in ("spectral.self_s", "transforms.trace_csv.self_s"):
            print(f"   share of traced time after imports in {n}: {metrics[n] / main_s:.3f}")
    for name in tally.failed[:20]:
        print(f"   FAILED: {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "derangetropy" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'derangetropy'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total, runs = Tally(), []
    try:
        for name in names:
            metrics, tally, info = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                                [m["name"] for m in spec["per_layer"]])
            print_table(metrics, units, tally, info)
            total.attempted += tally.attempted
            total.failed += tally.failed
            runs.append((name, metrics, info))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("provenance:", json.dumps({**provenance(), "runs": [info for _, _, info in runs]}, indent=1))

    prefix = len(names) > 1
    result = {
        "correct": not total.failed,
        "attempted": total.attempted,
        "failed": len(total.failed),
        "metrics": {(f"{name}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for name, metrics, _ in runs for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not total.failed else 1


if __name__ == "__main__":
    sys.exit(main())
