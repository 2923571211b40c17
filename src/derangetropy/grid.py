"""Grid densities and quadrature.

A density lives on n uniformly spaced nodes (n odd) spanning [lo, hi], and all
integration is composite Simpson on that grid. The cumulative rule integrates
the same local parabolas, so the running CDF agrees with the plain Simpson
total at the last node; a density computes its CDF once, on first access, as
`g.cdf`. For families whose density diverges at a support endpoint, the node range is inset by half a step so every sampled value is
finite; for everything else nodes include the endpoints, which keeps exact
node placement at round x values (the transforms are checked pointwise there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .distributions import (
    DistributionSpec,
    effective_support,
    has_singular_endpoint,
    pdf,
)

MIN_NODES = 129


def _check_node_count(n: int) -> None:
    if n < MIN_NODES or n % 2 == 0:
        raise ValueError(f"node count must be odd and >= {MIN_NODES}, got {n}")


def simpson_weights(n: int, step: float) -> np.ndarray:
    """Composite Simpson weights for n nodes (n odd) at spacing `step`."""
    _check_node_count(n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (step / 3.0)


def _weighted_sum(w: np.ndarray, v: np.ndarray) -> float:
    """sum_j w_j v_j by numpy's pairwise summation on one thread. np.dot
    would hand it to BLAS, whose threads split long sums at points that
    depend on the thread count, and so would change the last bits."""
    return float(np.add.reduce(w * v))


def simpson(values: np.ndarray, lo: float, hi: float) -> float:
    """Composite Simpson integral of tabulated values on [lo, hi]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    step = (hi - lo) / (n - 1)
    return _weighted_sum(simpson_weights(n, step), values)


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Running integral from the first node, Simpson-consistent.

    Even-indexed entries are the composite Simpson partial sums; odd-indexed
    entries integrate the local parabola over its first half panel.
    """
    f = np.asarray(values, dtype=float)
    out = np.zeros_like(f)
    out[2::2] = np.cumsum(step / 3.0 * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))
    out[1::2] = out[0:-1:2] + step / 12.0 * (5.0 * f[0:-1:2] + 8.0 * f[1::2] - f[2::2])
    return out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative values sampled on n uniform nodes over [lo, hi].

    The nodes np.linspace(lo, hi, n) must be strictly increasing floats: this
    rejects reversed, infinite, NaN or overflowing bounds, and collapsed nodes.
    Grids compare and hash by identity: equality of sampled arrays is a
    numerical question that callers answer with their own tolerance.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        _check_node_count(vals.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # bad bounds give NaN nodes, which fail the check
            x = np.linspace(self.lo, self.hi, vals.shape[0])
            if not (x[1:] > x[:-1]).all():
                raise ValueError(f"[{self.lo!r}, {self.hi!r}] does not hold {x.size} strictly increasing float nodes")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density values must be finite and nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running CDF at the nodes, pinned to exactly 1 at the last; built once, read-only.

        The raw cumulative rule can dip on adversarial (non-smooth) inputs
        because the half-panel parabola is not monotone in its data, so a
        running maximum enforces the CDF monotonicity contract; it is a no-op
        for smooth densities.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            raw = np.maximum.accumulate(cumulative_simpson(self.values, self.step))
        total = float(raw[-1])
        if not 0 < total < math.inf:
            raise ValueError(f"cannot build a CDF from a density with cumulative mass {total}")
        cdf = raw / total
        cdf.setflags(write=False)
        return cdf


def from_analytic(spec: DistributionSpec, n: int) -> GridDensity:
    """Sample a reference density on n nodes and renormalize.

    Nodes include the endpoints of the effective support except for families
    with a divergent endpoint density, where they are inset by half a step.
    Raises ValueError, naming the parameters, when GridDensity rejects the
    nodes or values or the grid's CDF cannot be built.
    """
    _check_node_count(n)
    a, b = effective_support(spec)
    if has_singular_endpoint(spec):
        half = 0.5 * (b - a) / n
        lo, hi = a + half, b - half
    else:
        lo, hi = a, b
    with np.errstate(all="ignore"):  # bad nodes, an overflow or a zero mass fail GridDensity below
        f = pdf(spec, np.linspace(lo, hi, n))
        f = f / simpson(f, lo, hi)
    try:
        g = GridDensity(lo, hi, f)
        g.cdf  # the pdf can be finite where the cumulative rule's panel sums overflow
    except ValueError as exc:
        raise ValueError(f"{spec.family} parameters {dict(spec.params)} are out of range: {exc}") from exc
    return g


def integrate(g: GridDensity) -> float:
    return simpson(g.values, g.lo, g.hi)


def moment(g: GridDensity, k: int) -> float:
    """Raw moment E[X^k] for k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {k}")
    x = g.xs
    return _weighted_sum(simpson_weights(g.n, g.step), x**k * g.values)


def mean_and_variance(g: GridDensity) -> tuple[float, float]:
    """Mean and centered variance by Simpson on the grid."""
    w = simpson_weights(g.n, g.step) * g.values
    x = g.xs
    mean = _weighted_sum(w, x)
    # center first so the quadratic does not cancel catastrophically
    return mean, _weighted_sum(w, (x - mean) ** 2)


def median_of(g: GridDensity) -> float:
    """Location where the grid CDF crosses 1/2.

    In the crossing panel [x0, x1] the density is modeled as linear from f0
    to f1 and scaled so that its CDF meets the grid CDF at both nodes: with
    u = (x - x0)/(x1 - x0), p = f0/(f0 + f1) and r = (1/2 - F0)/(F1 - F0), the
    median solves (1 - 2p) u^2 + 2p u = r, an O(h^3) inversion where linear
    interpolation of F (left for f0 + f1 = 0) is O(h^2). Only ratios enter.
    """
    # the CDF starts at exactly 0 and ends at exactly 1, so 1 <= i < n and y0 < 1/2 <= y1
    i = int(np.searchsorted(g.cdf, 0.5))
    (x0, x1), (y0, y1), (f0, f1) = (a[i - 1 : i + 1].tolist() for a in (g.xs, g.cdf, g.values))
    # f0 + f1 is finite, as the CDF's panel sum f0 + 4 f1 or 4 f0 + f1 was
    p, q = (f0 / (f0 + f1), f1 / (f0 + f1)) if f0 + f1 > 0.0 else (0.5, 0.5)
    r, s = (0.5 - y0) / (y1 - y0), (y1 - 0.5) / (y1 - y0)
    # p^2 + (1 - 2p) r as p^2 s + q^2 r: no cancellation, never below 0; r > 0
    u = r / (p + math.sqrt(p * p * s + q * q * r))
    return min(x0 + u * (x1 - x0), x1)  # u can round past 1 by an ulp


def csv_rows(*columns) -> str:
    """Equal-length columns as comma-separated lines, each ending in a newline.

    This is the only CSV writer: numeric columns are numpy arrays whose cells
    are written as `%.17g`, 17 significant digits, which read back as the same
    float; any other column is a sequence of ready-made strings and passes
    through unchanged. Callers prepend the header line. All cells are
    formatted by one `%` on a row template built from the column types
    (`%.17g` or `%s`) and repeated once per row.
    """
    row = ",".join("%.17g" if isinstance(col, np.ndarray) else "%s" for col in columns) + "\n"
    cells = zip(*(col.tolist() if isinstance(col, np.ndarray) else col for col in columns))
    return (row * min(map(len, columns), default=0)) % tuple(chain.from_iterable(cells))
