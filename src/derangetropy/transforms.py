"""Entropy-modulated density transforms.

Each transform multiplies a density f by a weight k(z) = C * sin(pi*z) * m(z)
of the local CDF value z = F(x), with C and m from one row of `_KERNELS`:

  Type-I    C = 24/(pi*e)   m = exp(-H(z))   entropy-attenuating
  Type-II   C = e/pi        m = exp(+H(z))   entropy-amplifying
  Type-III  C = 2           m = sin(pi*z)    phase-modulated

where H is the Bernoulli entropy. With the 0**0 = 1 convention the weights
are total on [0, 1] and vanish at both endpoints, so transformed densities
are zero wherever the mass runs out. The leading constants make each weighted
density integrate to one exactly in the continuum; on a grid the integral is
recorded before renormalization so discretization error stays observable.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridDensity,
    csv_rows,
    integrate,
    mean_and_variance,
    median_of,
    simpson,
)

TYPE1_CONSTANT = 24.0 / (math.pi * math.e)
TYPE2_CONSTANT = math.e / math.pi


class TransformKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"


# kind -> (C, s) in k(z) = C * sin(pi*z) * m(z): m = exp(s*H(z)), or sin(pi*z) where s is None
_KERNELS = {
    TransformKind.TYPE1: (TYPE1_CONSTANT, -1.0),
    TransformKind.TYPE2: (TYPE2_CONSTANT, 1.0),
    TransformKind.TYPE3: (2.0, None),
}


def bernoulli_entropy(p):
    """Shannon entropy of a coin with bias p, in nats; 0*log(0) reads as 0."""
    p = np.asarray(p, dtype=float)
    if not np.all((0 <= p) & (p <= 1)):
        raise ValueError("bernoulli_entropy requires p in [0, 1]")
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(np.where(p > 0, p * np.log(p), 0.0) + np.where(q > 0, q * np.log(q), 0.0))
    return out if out.ndim else float(out)


def kernel(kind: TransformKind, z):
    """Multiplicative weight applied to f at CDF value z. Total on [0, 1]."""
    z = np.asarray(z, dtype=float)
    if not np.all((0 <= z) & (z <= 1)):
        raise ValueError("kernel requires z in [0, 1]")
    constant, s = _KERNELS[kind]
    sin = np.sin(math.pi * z)
    out = constant * sin * (sin if s is None else np.exp(s * bernoulli_entropy(z)))
    # float sin(pi) is ~1.2e-16, not 0; the endpoints must map to exact zeros
    # so transformed densities vanish exactly where the support ends
    out = np.where((z == 0.0) | (z == 1.0), 0.0, out)
    return out if out.ndim else float(out)


def _log_slope(kind: TransformKind, z: np.ndarray) -> np.ndarray:
    """d(ln k)/dz inside (0, 1): pi*cot(pi*z) + s*ln((1-z)/z), or 2*pi*cot(pi*z) for Type-III."""
    _, s = _KERNELS[kind]
    cot = np.cos(math.pi * z) / np.sin(math.pi * z)
    return 2.0 * math.pi * cot if s is None else math.pi * cot + s * np.log((1.0 - z) / z)


def transform_values(kind: TransformKind, g: GridDensity) -> np.ndarray:
    """Pointwise kernel(F(x)) * f(x) without renormalization."""
    return kernel(kind, g.cdf) * g.values


@dataclass(frozen=True)
class TransformStep:
    density: GridDensity
    integral_error: float  # |pre-renormalization integral - 1|


def transform_step(kind: TransformKind, g: GridDensity) -> TransformStep:
    raw = transform_values(kind, g)
    mass = simpson(raw, g.lo, g.hi)
    return TransformStep(GridDensity(g.lo, g.hi, raw / mass), abs(mass - 1.0))


def transform(kind: TransformKind, g: GridDensity) -> GridDensity:
    """Renormalized transform of a grid density."""
    return transform_step(kind, g).density


def log_derivative_grid(kind: TransformKind, g: GridDensity) -> tuple[np.ndarray, np.ndarray]:
    """Interior nodes and the closed-form log-derivative of the transform there.

    By the chain rule through z = F(x) it is d(ln k)/dz * f + f'/f, where
    f'/f comes from central differences of log f, the only derivative a
    tabulated density has. Nodes where F has left (0, 1) or f vanishes are
    dropped rather than raising, so the profile stays usable near support
    endpoints.
    """
    F = g.cdf[1:-1]
    f = g.values[1:-1]
    keep = (F > 0) & (F < 1) & (f > 0) & (g.values[:-2] > 0) & (g.values[2:] > 0)
    logf = np.log(g.values, out=np.full(g.n, -np.inf), where=g.values > 0)
    dlnf = (logf[2:] - logf[:-2]) / (2.0 * g.step)
    return g.xs[1:-1][keep], _log_slope(kind, F[keep]) * f[keep] + dlnf[keep]


@dataclass(frozen=True)
class StepDiagnostics:
    variance: float
    median: float
    mean: float
    integral_error: float


@dataclass(frozen=True)
class IterationTrace:
    """Step 0 is the input; step k is the renormalized transform of step k-1."""

    kind: TransformKind
    steps: tuple[GridDensity, ...]
    diagnostics: tuple[StepDiagnostics, ...]


def _diagnose(g: GridDensity, integral_error: float) -> StepDiagnostics:
    """Step statistics, raising unless each is finite, so the sidecar holds only JSON numbers."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic fails the check below
        mean, var = mean_and_variance(g)
        d = StepDiagnostics(variance=var, median=median_of(g), mean=mean, integral_error=integral_error)
    for name, value in vars(d).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not finite")
    return d


def iterate(kind: TransformKind, g: GridDensity, n: int) -> IterationTrace:
    """Apply the transform n times, renormalizing at every step.

    Raises ValueError naming the step when an iterate leaves the range of
    floating point (its values or its CDF's cumulative sums overflow, or a
    diagnostic is not finite).
    """
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    steps: list[GridDensity] = []
    diagnostics: list[StepDiagnostics] = []
    current = g
    for k in range(n + 1):
        try:
            if k == 0:
                integral_error = abs(integrate(current) - 1.0)
            else:
                step = transform_step(kind, current)
                current, integral_error = step.density, step.integral_error
            diagnostics.append(_diagnose(current, integral_error))
        except ValueError as exc:
            raise ValueError(f"step {k} of the {kind.value} iteration is out of range: {exc}") from exc
        steps.append(current)
    return IterationTrace(kind, tuple(steps), tuple(diagnostics))


def trace_csv(trace: IterationTrace, start: int = 0, stop: int | None = None) -> str:
    """Long-format rows `step,x,f,F` of steps start .. stop-1 (all by default).

    The header line comes first when start is 0, so the text of a trace split
    at any step k >= 1 is `trace_csv(t, 0, k) + trace_csv(t, k)`. Steps are
    formatted one at a time; the x column is formatted once per call and
    reused by every step on the same (lo, hi, n) grid, which is every step
    `iterate` builds.
    """
    x_cells: dict[tuple[str, str, int], list[str]] = {}
    parts = ["step,x,f,F\n"] if start == 0 else []
    for k in range(len(trace.steps))[start:stop]:
        g = trace.steps[k]
        # repr, not ==, so grids ending at 0.0 and -0.0 do not share a column
        key = (repr(g.lo), repr(g.hi), g.n)
        if key not in x_cells:
            x_cells[key] = csv_rows(g.xs).splitlines()
        parts.append(csv_rows([str(k)] * g.n, x_cells[key], g.values, g.cdf))
    return "".join(parts)


def trace_diagnostics_json(trace: IterationTrace) -> str:
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
