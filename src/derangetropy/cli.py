"""Command-line front end.

Subcommands: transform, iterate, verify, spectral, figures. All outputs are
deterministic data files (CSV with 17-significant-digit values, or JSON), so
identical flags produce byte-identical bytes. Exit codes: 0 success, 1 a
verification check failed (or an `iterate` step's mass defect passed the
registry's gate, after both files are written), 2 usage error (or an `iterate`
step that overflows or has a non-finite mean, variance or median, a `spectral`
step whose variance is not a positive normal float, or a `spectral` --tstep-div
whose comparison window |t| <= --tmax or CF dumps' window |t| <= 64*pi
spectral.window_half_count rejects, before any file is written), 3 I/O error.
The checks themselves live in `derangetropy.checks`; `verify` formats them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import checks, spectral
from .distributions import FAMILIES, DistributionSpec
from .grid import GridDensity, csv_rows, from_analytic
from .transforms import (
    TransformKind,
    iterate,
    trace_csv,
    trace_diagnostics_json,
    transform,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

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
        if not sep:
            raise UsageError(f"--params entries must look like key=value, got {item!r}")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise UsageError(f"--params value for {key.strip()!r} is not a number: {val!r}") from exc
    return out


def _build_grid(family: str, params: str | None, n: int) -> GridDensity:
    try:
        return from_analytic(DistributionSpec(family, _parse_params(params)), n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def cmd_transform(args: argparse.Namespace) -> int:
    g = _build_grid(args.dist, args.params, args.grid)
    out = transform(TransformKind(args.kind), g)
    table = csv_rows(g.xs, g.values, g.cdf, out.values)
    _write_text(args.out, "x,f,F,transformed\n" + table)
    return EXIT_OK


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
    _write_text(args.out, trace_csv(trace))
    root, _ = os.path.splitext(args.out)
    _write_text(root + ".diagnostics.json", trace_diagnostics_json(trace))
    for k, d in enumerate(trace.diagnostics):
        if not d.integral_error <= checks.MASS_TOLERANCE:
            print(f"error: step {k} integralError {d.integral_error:.3g} exceeds {checks.MASS_TOLERANCE:g};"
                  f" the {args.grid}-node grid no longer resolves the iterate", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run(args.suite)
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


def cmd_spectral(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"spectral requires --n >= 0, got {args.n}")
    if args.tstep_div < 1:
        raise UsageError(f"spectral requires --tstep-div >= 1, got {args.tstep_div}")
    for window, tmax in ((f"the comparison window --tmax {args.tmax}", args.tmax),
                         ("the CF dumps' window |t| <= 64*pi", spectral.DEFAULT_TMAX)):
        try:
            tstep = math.tau / args.tstep_div
            spectral.window_half_count(tstep, tmax)
        except (OverflowError, ValueError) as exc:
            raise UsageError(f"spectral --tstep-div {args.tstep_div} with {window}: {exc}") from exc
    g = _build_grid(args.dist, args.params, args.grid)
    try:
        diag = spectral.gaussian_convergence(TransformKind(args.kind), g, args.n, tmax=args.tmax, tstep=tstep)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    outdir = args.outdir if args.outdir is not None else "spectral"
    os.makedirs(outdir, exist_ok=True)
    _write_text(os.path.join(outdir, "diagnostics.csv"), spectral.diagnostics_csv(diag))
    phi0 = spectral.char_function(g, tstep=tstep)
    _write_text(os.path.join(outdir, "cf_source.csv"), spectral.cf_csv(phi0))
    # the shift operator sequence, raw and renormalized to 1 at t=0, so the
    # non-preservation of normalization is visible in the emitted data
    current = phi0
    for step in (1, 2):
        current = spectral.t_operator(current)
        _write_text(os.path.join(outdir, f"cf_shift_step{step}_raw.csv"), spectral.cf_csv(current))
        scale = current.at_zero()
        renorm = spectral.CharFunction(current.tstep, current.values / scale)
        _write_text(os.path.join(outdir, f"cf_shift_step{step}_renormalized.csv"), spectral.cf_csv(renorm))
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    outdir = args.outdir if args.outdir is not None else args.which
    os.makedirs(outdir, exist_ok=True)
    for family in FAMILIES:
        g = _build_grid(family, None, args.grid)
        if args.which == "fig1":
            header = "x,f,rho,tau\n"
            a = transform(TransformKind.TYPE1, g)
            b = transform(TransformKind.TYPE2, g)
        else:
            header = "x,f,nu1,nu2\n"
            a = transform(TransformKind.TYPE3, g)
            b = transform(TransformKind.TYPE3, a)
        table = csv_rows(g.xs, g.values, a.values, b.values)
        _write_text(os.path.join(outdir, f"{family}.csv"), header + table)
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
                   help="half-width of the Gaussian-comparison frequency window;"
                        f" finite, > 0 and at most {spectral.MAX_HALF_COUNT} steps of tstep")
    p.add_argument("--tstep-div", type=int, default=64, metavar="D",
                   help="tstep = 2*pi/D, D >= 1; the CF dumps span |t| <= 64*pi,"
                        f" which must also be at most {spectral.MAX_HALF_COUNT} steps of tstep")
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
