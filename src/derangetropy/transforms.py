"""Entropy-modulated density transforms.

Each transform multiplies a density f by a weight
k(z) = C * sin(pi*z)**a * exp(s*H(z)) of the local CDF value z = F(x), with
(C, a, s) from one row of `_KERNELS`:

  Type-I    (24/(pi*e), 1, -1)   entropy-attenuating
  Type-II   (e/pi,      1, +1)   entropy-amplifying
  Type-III  (2,         2,  0)   phase-modulated

where H is the Bernoulli entropy. With the 0**0 = 1 convention the weights
are total on [0, 1] and vanish at both endpoints, so transformed densities
are zero wherever the mass runs out. The leading constants make each weighted
density integrate to one exactly in the continuum; on a grid the integral is
recorded before renormalization so discretization error stays observable.

Iterating the phase-modulated transform contracts the density onto its median
(the variance shrinks roughly fourfold per step), so a fixed grid would stop
resolving the bump after a dozen steps. `steps` with `follow` set, the loop of
`spectral.gaussian_convergence`, therefore re-grids every step after the
first: it re-samples the density onto a window around the mean, in
coordinates centred on that mean. Each end of the window reaches at least
RESCALE_WINDOW_SIGMAS standard deviations from the mean, and further, up to
the old grid's end, until less than 1e-17 of the mass lies beyond it, so a
skewed early step (the exponential's) keeps its tail. Each new node takes
the Lagrange polynomial through the six old nodes around it, moved inward at
the grid's ends, so the re-grid is exact for polynomials of degree 5
(local interpolation on uniform nodes; Berrut & Trefethen 2004). The weights
depend only on the node's position in old steps, so they stay O(1) however
narrow the bump is. The stencil sets the gap floor |d_n - D*|: 1.56e-11 on the
five default families at 4097 nodes, against 3.2e-10 for four points and
1.555e-11 for eight. The centre is a float offset that each re-grid adds its
mean to, and it is added back only to the reported median, so the nodes stay
uniform relative to the bump's width however narrow it gets; in absolute x
half an ulp of the median is already 3e-7 standard deviations by step 30. The
loop thus follows the iteration until the variance itself leaves the normal
floats (step 510 from the unit uniform) and then raises, naming the step.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid import (
    GridDensity,
    integrate,
    mean_and_variance,
    median_of,
    simpson,
    simpson_weights,
)

TYPE1_CONSTANT = 24.0 / (math.pi * math.e)
TYPE2_CONSTANT = math.e / math.pi


class TransformKind(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"


# kind -> (C, a, s) in k(z) = C * sin(pi*z)**a * exp(s*H(z))
_KERNELS = {
    TransformKind.TYPE1: (TYPE1_CONSTANT, 1, -1.0),
    TransformKind.TYPE2: (TYPE2_CONSTANT, 1, 1.0),
    TransformKind.TYPE3: (2.0, 2, 0.0),
}


def _log_derivatives(kind: TransformKind, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first three z-derivatives of ln k inside (0, 1), in closed form:

      (ln k)'   = a*pi*cot(pi*z) + s*L,  with L = ln((1-z)/z)
      (ln k)''  = -a*pi^2*csc^2(pi*z) - s/(z(1-z))
      (ln k)''' = 2*a*pi^3*csc^2(pi*z)*cot(pi*z) + s*(1-2z)/(z(1-z))^2
    """
    _, a, s = _KERNELS[kind]
    sin = np.sin(math.pi * z)
    cot = np.cos(math.pi * z) / sin
    csc2 = 1.0 / sin**2
    q = z * (1.0 - z)
    return (
        a * math.pi * cot + s * np.log((1.0 - z) / z),
        -a * math.pi**2 * csc2 - s / q,
        2.0 * a * math.pi**3 * csc2 * cot + s * (1.0 - 2.0 * z) / q**2,
    )


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
    constant, a, s = _KERNELS[kind]
    sin = np.sin(math.pi * z)
    out = constant * sin  # then multiplied in place, so no factor allocates a new array
    for _ in range(a - 1):
        out *= sin
    if s:  # exp(0*H) = 1, so a row with s = 0 never evaluates the entropy
        out *= np.exp(s * bernoulli_entropy(z))
    # float sin(pi) is ~1.2e-16, not 0; the endpoints must map to exact zeros
    # so transformed densities vanish exactly where the support ends
    out = np.where((z == 0.0) | (z == 1.0), 0.0, out)
    return out if out.ndim else float(out)


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
    return g.xs[1:-1][keep], _log_derivatives(kind, F[keep])[0] * f[keep] + dlnf[keep]


@dataclass(frozen=True)
class StepDiagnostics:
    variance: float
    median: float
    mean: float
    integral_error: float


@dataclass(frozen=True)
class IterationTrace:
    """Step 0 is the input; step k is the renormalized transform of step k-1."""

    steps: tuple[GridDensity, ...]
    diagnostics: tuple[StepDiagnostics, ...]


# Least half-width of the re-gridding window, in standard deviations.
RESCALE_WINDOW_SIGMAS = 12.0


def _window(g: GridDensity, mean: float, sd: float) -> tuple[float, float]:
    """Ends of the re-gridding window relative to the mean: each reaches at
    least RESCALE_WINDOW_SIGMAS * sd, and further, within the old grid, while
    1e-17 or more of the mass lies beyond it.

    g's values integrate to 1, as every step's do. Each tail is read as a
    running sum of the Simpson-weighted values from its own end of the grid,
    which resolves 1e-17 where 1 - g.cdf rounds to 1.0. The end stops one
    node before the first node whose sum reaches 1e-17: a sum starting at an
    end node whose value is 0 reads 0 even when the first panel holds mass.
    """
    w = simpson_weights(g.n, g.step) * g.values
    below = max(int(np.searchsorted(np.cumsum(w), 1e-17)) - 1, 0)
    above = max(int(np.searchsorted(np.cumsum(w[::-1]), 1e-17)) - 1, 0)
    xs = g.xs
    lo = max(g.lo - mean, min(-RESCALE_WINDOW_SIGMAS * sd, float(xs[below]) - mean))
    hi = min(g.hi - mean, max(RESCALE_WINDOW_SIGMAS * sd, float(xs[g.n - 1 - above]) - mean))
    return lo, hi


def _regrid(g: GridDensity, mean: float, lo: float, hi: float) -> GridDensity:
    """Resample onto [lo, hi] in coordinates centred on the mean (the mean
    becomes 0), by 6-point Lagrange interpolation."""
    u = (np.linspace(lo, hi, g.n) - (g.lo - mean)) / g.step  # new nodes in old steps
    first = np.clip(np.floor(u).astype(int) - 2, 0, g.n - 6)  # stencil moved inward at the ends
    d = [u - first - i for i in range(6)]  # offsets from the six stencil nodes, in old steps
    terms = []
    for j in range(6):
        others = [i for i in range(6) if i != j]
        w = reduce(operator.mul, [d[i] for i in others]) / math.prod(j - i for i in others)
        terms.append(w * g.values[first + j])
    vals = np.clip(reduce(operator.add, terms), 0.0, None)
    return GridDensity(lo, hi, vals / simpson(vals, lo, hi))


def _check(follow: bool, **stats: float) -> None:
    """The rule for a valid step: every statistic is finite, so a sidecar
    holds only JSON numbers, and when the grid follows the iterate the
    variance is a positive normal float, since the re-grid and the sup
    distance divide by its square root."""
    if follow and not sys.float_info.min <= stats["variance"] <= sys.float_info.max:
        raise ValueError(f"variance {stats['variance']!r} is not a positive, finite, normal float")
    for name, value in stats.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} {value!r} is not finite")


def steps(kind: TransformKind, g: GridDensity, n: int,
          follow: bool = False) -> Iterator[tuple[int, GridDensity, float, StepDiagnostics]]:
    """Yield (k, density, centre, diagnostics) for k = 0 .. n: step 0 is g
    and step k the renormalized transform of step k-1.

    Without follow every step stays on g's grid and centre is 0. With it,
    every step k >= 1 is re-gridded onto `_window`'s window around its mean,
    which keeps at least +-RESCALE_WINDOW_SIGMAS standard deviations and
    every tail holding 1e-17 or more of the mass, in coordinates centred on
    that mean; the mean is added to centre, so the step's x is centre + its
    node. Raises ValueError naming the step when an iterate leaves the range
    of floating point (its values or its CDF's cumulative sums overflow) or a
    statistic breaks `_check`.
    """
    centre, current = 0.0, g
    for k in range(n + 1):
        try:
            # an overflow gives a non-finite density or statistic, which fails a check
            with np.errstate(over="ignore", invalid="ignore"):
                if k == 0:
                    integral_error = abs(integrate(current) - 1.0)
                else:
                    step = transform_step(kind, current)
                    current, integral_error = step.density, step.integral_error
                mean, var = mean_and_variance(current)
                if follow:
                    _check(follow, variance=var, mean=mean)
                    if k > 0:
                        current = _regrid(current, mean, *_window(current, mean, math.sqrt(var)))
                        centre += mean
                        mean, var = mean_and_variance(current)
                d = StepDiagnostics(variance=var, median=median_of(current), mean=mean,
                                    integral_error=integral_error)
            _check(follow, **vars(d))
        except ValueError as exc:
            raise ValueError(f"step {k} of the {kind.value} iteration is out of range: {exc}") from exc
        yield k, current, centre, d


def iterate(kind: TransformKind, g: GridDensity, n: int) -> IterationTrace:
    """Apply the transform n times on g's grid, renormalizing at every step.

    Raises ValueError as `steps` does.
    """
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    _, densities, _, diagnostics = zip(*steps(kind, g, n))
    return IterationTrace(densities, diagnostics)

