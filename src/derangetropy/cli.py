"""Command-line front end.

Subcommands: transform, iterate, verify, spectral, figures. All outputs are
deterministic data files (CSV with 17-significant-digit values, or JSON), so
identical flags produce byte-identical bytes. Exit codes:

* 0: success.
* 1: a verification check failed; or, after both files are written, an
  `iterate` step's mass defect passed the registry's gate or its variance is
  not a positive normal float.
* 2: usage error. Before any file is written, this includes an `iterate` step
  that overflows or has a non-finite mean, variance or median, a `spectral`
  step whose variance is not a positive normal float, and a `spectral` --tmax
  whose comparison window spectral.window_half_count rejects.
* 3: I/O error. This includes the second process of `iterate` (half of the
  trace's row blocks), `spectral` (the CF dumps) or `verify` (half of the
  check units), forked by `_in_two_processes`, that fails or cannot be
  started; the line names what it raised, if anything.

This module owns every file layout `dlab` writes: each CSV header, the
order of its columns and each JSON key. The library modules only compute,
and `grid.csv_rows` owns the `%.17g` cell format. `iterate`, `spectral`
and `verify` each run on two processes through one fork helper,
`_in_two_processes`, and write the same bytes as one process would. The
checks themselves live in `derangetropy.checks`.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import asdict
from typing import BinaryIO, TextIO, TypeVar

import numpy as np

from . import checks, spectral
from .distributions import FAMILIES, DistributionSpec
from .grid import GridDensity, csv_rows, from_analytic
from .transforms import IterationTrace, TransformKind, iterate, transform

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

T = TypeVar("T")


class UsageError(Exception):
    pass


def _parse_params(raw: str | None) -> dict[str, float]:
    if not raw:
        return {}
    out: dict[str, float] = {}
    for item in raw.split(","):
        if not item:
            continue
        key, sep, val = item.partition("=")
        key = key.strip()
        if not sep:
            raise UsageError(f"--params entries must look like key=value, got {item!r}")
        if key in out:
            raise UsageError(f"--params names {key!r} more than once")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise UsageError(f"--params value for {key!r} is not a number: {val!r}") from exc
    return out


def _build_grid(family: str, params: str | None, n: int) -> GridDensity:
    try:
        return from_analytic(DistributionSpec(family, _parse_params(params)), n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _replacing(*paths: str) -> Iterator[list[TextIO]]:
    """Yield one text file per path, each on a new temporary name beside its
    path, with the mode that open(path, "w") gives a new file, not mkstemp's
    0600. Once the block has finished, close them all and rename each onto its
    path in order; if anything fails first, remove every one not yet renamed,
    so a run that fails before its renames keeps every path's earlier bytes.
    A path that is a directory fails before any file is created, since no
    file can replace it. Errors name the path."""
    def named(exc: OSError, path: str) -> OSError:
        return OSError(exc.errno, exc.strerror, path)

    for path in paths:
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    umask = os.umask(0)  # setting the umask is the only way to read it
    os.umask(umask)
    files: list[TextIO] = []
    temps: list[str] = []
    renamed = 0
    try:
        for path in paths:
            try:
                fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                                           dir=os.path.dirname(path) or os.curdir)
            except OSError as exc:
                raise named(exc, path) from None
            temps.append(tmp)
            files.append(open(fd, "w", encoding="ascii", newline="\n"))
            os.fchmod(fd, 0o666 & ~umask)
        yield files
        for fh in files:
            fh.close()
        for path, tmp in zip(paths, temps):
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise named(exc, path) from None
            renamed += 1
    except BaseException:
        for fh in files:
            with contextlib.suppress(OSError):
                fh.close()
        for tmp in temps[renamed:]:
            os.unlink(tmp)
        raise


def _write_files(texts: dict[str, str]) -> None:
    """Write each text to its path, all through one `_replacing`."""
    with _replacing(*texts) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_files({path: text})


def cmd_transform(args: argparse.Namespace) -> int:
    g = _build_grid(args.dist, args.params, args.grid)
    out = transform(TransformKind(args.kind), g)
    table = csv_rows(g.xs, g.values, g.cdf, out.values)
    _write_text(args.out, "x,f,F,transformed\n" + table)
    return EXIT_OK


def _in_two_processes(child: Callable[[], str], parent: Callable[[], T], what: str) -> tuple[str, T]:
    """Run child() in a forked process and parent() in this one, at once, and
    return the text child() returned and what parent() returned.

    The child sends its text back through a pipe, or, if it raises, the
    exception's type and text, and leaves only through os._exit, so it never
    unwinds its caller's stack or flushes its copies of Python's buffers. If
    parent() raises, the child is killed and reaped and the exception
    propagates. A child that does not exit 0 raises OSError naming `what`,
    how it ended, and what it raised, if anything; so does a failed fork,
    after closing the pipe.
    """
    reply_in, reply_out = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(reply_in)
        os.close(reply_out)
        raise OSError(f"could not start {what}: {exc}") from exc
    if pid == 0:
        status = 1
        try:
            os.close(reply_in)  # so a write to a parent that died fails instead of blocking
            try:
                reply = child()
                status = 0
            except BaseException as exc:
                reply = f"{type(exc).__name__}: {exc}"
            with open(reply_out, "wb") as pipe:
                pipe.write(reply.encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(reply_out)
    with open(reply_in, "rb") as pipe:
        try:
            result = parent()
        except BaseException:
            import signal  # only on this path, so `import derangetropy.cli` loads no more modules

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        # read to the end before reaping: a reply longer than the pipe's
        # buffer blocks the child until it is read
        reply = pipe.read().decode(errors="replace")
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
        raise OSError(f"{what} {how}" + (f": {reply}" if reply else ""))
    return reply, result


# `iterate` cuts every step of its trace into this many row blocks, and
# process b % 2 formats block b of each step
TRACE_BLOCKS = 16


def _trace_blocks(trace: IterationTrace, share: int) -> Iterator[str]:
    """Yield the `step,x,f,F` rows of row blocks share, share + 2, ... of
    every step, step by step, so the blocks of both shares, woven, are the
    trace below its header line.

    Every step sits on step 0's grid, as every step `iterate` builds does, so
    each block's x cells are formatted once and reused by every step.
    """
    n = trace.steps[0].n
    bounds = [b * n // TRACE_BLOCKS for b in range(TRACE_BLOCKS + 1)]
    spans = list(zip(bounds[share::2], bounds[share + 1::2]))
    xs = [csv_rows(trace.steps[0].xs[lo:hi]).splitlines() for lo, hi in spans]
    for k, g in enumerate(trace.steps):
        for (lo, hi), x in zip(spans, xs):
            yield csv_rows([str(k)] * (hi - lo), x, g.values[lo:hi], g.cdf[lo:hi])


def _trace_diagnostics_json(trace: IterationTrace) -> str:
    rows = [
        {
            "step": k,
            "variance": d.variance,
            "median": d.median,
            "mean": d.mean,
            "integralError": d.integral_error,
        }
        for k, d in enumerate(trace.diagnostics)
    ]
    return json.dumps(rows, indent=2) + "\n"


def _write_trace(fh: TextIO, path: str, trace: IterationTrace) -> None:
    """Write the trace into fh, path's new file, formatted by two processes at once.

    A forked child takes the even row blocks of `_trace_blocks` and this
    process the odd ones. Each writes every block, as it is formatted, into
    its own unnamed temporary file beside path and keeps the block's size;
    the child sends its sizes back as JSON. This process then writes the
    header and copies the blocks into fh in file order.
    """
    folder = os.path.dirname(path) or os.curdir
    with tempfile.TemporaryFile(dir=folder) as even, tempfile.TemporaryFile(dir=folder) as odd:
        def write_blocks(blocks: BinaryIO, share: int) -> list[int]:
            sizes = [blocks.write(text.encode()) for text in _trace_blocks(trace, share)]
            blocks.flush()
            return sizes

        reply, own = _in_two_processes(lambda: json.dumps(write_blocks(even, 0)),
                                       lambda: write_blocks(odd, 1),
                                       f"the process formatting row blocks 0, 2, ... of {path}")
        files, sizes = (even, odd), (json.loads(reply), own)
        out = fh.buffer  # the blocks are ASCII bytes, so they bypass fh's encoder
        out.write(b"step,x,f,F\n")
        even.seek(0)
        odd.seek(0)
        for i in range(len(sizes[0]) + len(sizes[1])):  # block i is block i // 2 of share i % 2
            out.write(files[i % 2].read(sizes[i % 2][i // 2]))


def cmd_iterate(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise UsageError(f"iterate requires --n >= 1, got {args.n}")
    if args.out is None:
        raise UsageError("iterate requires --out (a diagnostics sidecar is written next to it)")
    g = _build_grid(args.dist, args.params, args.grid)
    try:
        trace = iterate(TransformKind(args.kind), g, args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    root, _ = os.path.splitext(args.out)
    with _replacing(root + ".diagnostics.json", args.out) as (sidecar, fh):
        _write_trace(fh, args.out, trace)
        sidecar.write(_trace_diagnostics_json(trace))
    for k, d in enumerate(trace.diagnostics):
        if not d.integral_error <= checks.MASS_TOLERANCE:
            problem = (f"integralError {d.integral_error:.3g} exceeds {checks.MASS_TOLERANCE:g};"
                       f" the {args.grid}-node grid no longer resolves the iterate")
        elif not d.variance >= sys.float_info.min:
            problem = (f"variance {d.variance!r} is not a positive normal float;"
                       " the sidecar cannot hold the iterate's spread")
        else:
            continue
        print(f"error: step {k} {problem}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # a forked child runs units 0, 2, 4, ... and this process 1, 3, ...; the
    # child's rows come back as JSON, which round-trips every float exactly
    units = checks.units(args.suite)
    reply, own = _in_two_processes(
        lambda: json.dumps([[asdict(c) for c in unit()] for unit in units[0::2]]),
        lambda: [unit() for unit in units[1::2]],
        f"the process running check units 0, 2, ... of suite {args.suite}",
    )
    shares = ([[checks.Check(**row) for row in rows] for rows in json.loads(reply)], own)
    results = [c for i in range(len(units)) for c in shares[i % 2][i // 2]]
    passed = all(c.passed for c in results)
    if args.format == "csv":
        table = csv_rows(
            [c.name for c in results],
            np.array([c.expected for c in results]),
            np.array([c.observed for c in results]),
            np.array([c.tolerance for c in results]),
            [str(c.passed).lower() for c in results],
        )
        _write_text(args.out, "name,expected,observed,tolerance,passed\n" + table)
    else:
        rows = [{**asdict(c), "passed": c.passed} for c in results]
        report = {"suite": args.suite, "passed": passed, "checks": rows}
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def _diagnostics_csv(d: spectral.ConvergenceDiagnostics) -> str:
    return "n,variance,median,sup_distance,rate_product\n" + csv_rows(
        np.arange(d.variance.shape[0]), d.variance, d.median, d.sup_distance, d.rate_product
    )


def _cf_csv(phi: spectral.CharFunction) -> str:
    return "t,re,im\n" + csv_rows(phi.ts, phi.values.real, phi.values.imag)


def cmd_spectral(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"spectral requires --n >= 0, got {args.n}")
    try:
        spectral.window_half_count(args.tmax)
    except ValueError as exc:
        raise UsageError(f"spectral --tmax {args.tmax}: {exc}") from exc
    g = _build_grid(args.dist, args.params, args.grid)

    def cf_texts() -> str:
        phi = spectral.char_function(g)
        texts = {"cf_source.csv": _cf_csv(phi)}
        # the shift operator sequence, raw and renormalized to 1 at t=0, so the
        # non-preservation of normalization is visible in the emitted data
        for step in (1, 2):
            phi = spectral.t_operator(phi)
            texts[f"cf_shift_step{step}_raw.csv"] = _cf_csv(phi)
            renorm = spectral.CharFunction(phi.values / phi.at_zero())
            texts[f"cf_shift_step{step}_renormalized.csv"] = _cf_csv(renorm)
        return json.dumps(texts)

    def converge() -> spectral.ConvergenceDiagnostics:
        try:
            return spectral.gaussian_convergence(TransformKind(args.kind), g, args.n, tmax=args.tmax)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    # a forked child formats the CF dumps while this process runs the convergence loop
    reply, diag = _in_two_processes(cf_texts, converge, "the process formatting the CF dumps")
    texts = {"diagnostics.csv": _diagnostics_csv(diag), **json.loads(reply)}
    outdir = args.outdir if args.outdir is not None else "spectral"
    os.makedirs(outdir, exist_ok=True)
    _write_files({os.path.join(outdir, name): text for name, text in texts.items()})
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    tables = {}
    for family in FAMILIES:  # all of them before the directory, so a failing run creates nothing
        g = _build_grid(family, None, args.grid)
        if args.which == "fig1":
            header = "x,f,rho,tau\n"
            a = transform(TransformKind.TYPE1, g)
            b = transform(TransformKind.TYPE2, g)
        else:
            header = "x,f,nu1,nu2\n"
            a = transform(TransformKind.TYPE3, g)
            b = transform(TransformKind.TYPE3, a)
        tables[family] = header + csv_rows(g.xs, g.values, a.values, b.values)
    outdir = args.outdir if args.outdir is not None else args.which
    os.makedirs(outdir, exist_ok=True)
    _write_files({os.path.join(outdir, f"{family}.csv"): text for family, text in tables.items()})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlab",
        description="Entropy-modulated density transforms: grids, verification, spectra, figure data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist", default="uniform", choices=FAMILIES)
        p.add_argument("--params", default=None, help="family parameters as k=v,...")
        p.add_argument("--kind", default="type3", choices=[k.value for k in TransformKind])
        p.add_argument("--grid", type=int, default=4097, metavar="N")

    p = sub.add_parser("transform", help="write x,f,F,transformed for one application")
    add_common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("iterate", help="write a long-format iteration trace plus diagnostics")
    add_common(p)
    p.add_argument("--n", type=int, default=30, metavar="K")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("verify", help="run a verification suite and write a JSON report")
    p.add_argument("--suite", default="all", choices=[*checks.SUITES, "all"])
    p.add_argument("--format", default="json", choices=("csv", "json"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectral", help="write convergence diagnostics and CF dumps")
    add_common(p)
    p.add_argument("--n", type=int, default=30, metavar="K")
    p.add_argument("--tmax", type=float, default=spectral.DEFAULT_SUP_TMAX,
                   help="half-width of the Gaussian-comparison frequency window, from 1 to"
                        f" {spectral.MAX_HALF_COUNT} steps of 2*pi/64; the CF dumps span |t| <= 64*pi")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("figures", help="write per-family CSV data for the figure panels")
    p.add_argument("--which", default="fig1", choices=("fig1", "fig2"))
    p.add_argument("--grid", type=int, default=4097, metavar="N")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
