"""Outside-in span recorder for one traced `dlab` invocation.

Run as `python -X importtime perfbench/tracer.py SPANS_JSON DLAB_ARGS...`. It
imports the package, wraps the public functions of each module from the
outside (no package code changes), runs `cli.main(DLAB_ARGS)` and writes the
recorded spans to SPANS_JSON. `layer_metrics` turns the spans of several
invocations into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

MODULES = ("distributions", "grid", "transforms", "residuals", "spectral", "cli")

# Hot scalar helpers stay unwrapped: grid.format_value runs once per CSV cell
# (millions of calls), so a wrapper would double the run it is measuring. Its
# cost lands in the caller's self time (trace_csv, cf_csv, cli.main). In cli
# only the entry point is wrapped, so the subcommand bodies count as cli.main.
SKIP = {"grid.format_value"}
CLI_WRAPPED = {"main"}


def _nodes(bound):
    return getattr(bound.arguments.get("g"), "n", None)


def _cf_of_values(bound, result):
    n, values = _nodes(bound), getattr(result, "values", None)
    return {"cf_pairs": n * len(values)} if n is not None and values is not None else {}


def _gaussian_convergence(bound, result):
    rows = len(getattr(result, "variance", ()))
    out = {"rows": rows}
    n, tstep, tmax = _nodes(bound), bound.arguments.get("tstep"), bound.arguments.get("tmax")
    if n is not None and tstep and tmax:
        # every row compares one rescaled CF on 2K+1 frequencies, K = tmax/tstep
        out["cf_pairs"] = rows * n * (2 * math.floor(tmax / tstep + 1e-9) + 1)
    return out


def _text_bytes(bound, result):
    return {"bytes": len(result)} if isinstance(result, str) else {}


def _node_steps(bound, result):
    n = _nodes(bound)
    return {"node_steps": n} if n is not None else {}


# Work counts derived from call arguments and return values.
QUANTITIES = {
    "spectral.cf_of_values": _cf_of_values,
    "spectral.gaussian_convergence": _gaussian_convergence,
    "spectral.cf_csv": _text_bytes,
    "transforms.trace_csv": _text_bytes,
    "transforms.transform_step": _node_steps,
}


class SpanRecorder:
    """Spans as [name, start, end, parent index, quantities], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        extract = QUANTITIES.get(name)
        signature = inspect.signature(fn) if extract else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = extract(bound, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of MODULES and rebind each reference.

        Names imported with `from .x import f` are separate references, so
        every module of the package is scanned for the original objects.
        """
        originals = {}
        for mod_name in MODULES:
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                qual = f"{mod_name}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                        or qual in SKIP or (mod_name == "cli" and attr not in CLI_WRAPPED)):
                    continue
                originals[id(obj)] = self.wrap(qual, obj)
        for mod in [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(mod, attr, originals[id(obj)])


def layer_metrics(span_sets: list[list[list]]) -> dict[str, float]:
    """Calls, self time and computed counts per function, summed over invocations.

    Self time is a span's duration minus the durations of its child spans.
    Module totals are `<module>.self_s`; `trace.main_s` is the time inside
    cli.main, i.e. the traced run after imports.
    """
    out: dict[str, float] = {}
    for spans in span_sets:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, qty) in enumerate(spans):
            self_s = (end - start) - child[i]
            module = name.split(".", 1)[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{module}.calls"] = out.get(f"{module}.calls", 0) + 1
            out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + self_s
            for key, value in (qty or {}).items():
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
            if name == "cli.main":
                out["trace.main_s"] = out.get("trace.main_s", 0.0) + (end - start)
    return out


def import_seconds(importtime_log: str) -> dict[str, float]:
    """Self import time per root package from `python -X importtime` output."""
    out: dict[str, float] = {}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        root = fields[2].strip().split(".", 1)[0]
        out[root] = out.get(root, 0.0) + int(fields[0]) * 1e-6
    return out


def main(argv: list[str]) -> int:
    spans_path, dlab_args = argv[0], argv[1:]
    import derangetropy

    # import every layer up front, so a module the CLI imports lazily is
    # wrapped too
    for mod_name in MODULES:
        try:
            importlib.import_module(f"derangetropy.{mod_name}")
        except ModuleNotFoundError:
            pass
    recorder = SpanRecorder()
    recorder.install(derangetropy)
    try:
        return sys.modules["derangetropy.cli"].main(dlab_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
