"""Closed-form reference distributions.

Five families are supported: uniform, normal, exponential, semicircle, and
arcsine. Each provides an exact pdf, cdf, and median, plus a finite interval
(`effective_support`) that carries all but a negligible sliver of probability
mass. Unbounded families are truncated to that interval by the grid pipeline;
the truncated mass is far below every tolerance used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")

# Value returned by pdf() exactly at a pole of the density (arcsine endpoints).
# Grids never place nodes there, so the cap exists only to keep pdf total.
SINGULAR_PDF_CAP = 1e12

# Truncation half-width for the normal family, in standard deviations, and the
# truncation point for the exponential in mean lifetimes. 2*ndtr(-8) < 1e-14
# and exp(-40) < 1e-17, both below the 1e-12 mass budget.
_NORMAL_TAIL_SIGMAS = 8.0
_EXPONENTIAL_TAIL_LIFETIMES = 40.0

_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "uniform": {"a": 0.0, "b": 1.0},
    "normal": {"mean": 0.0, "stddev": 1.0},
    "exponential": {"rate": 1.0},
    "semicircle": {"center": 0.0, "radius": 1.0},
    "arcsine": {"a": 0.0, "b": 1.0},
}


# Each family's pdf is a constant factor times a bounded shape; the factor must
# be a finite positive float, or every sampled value is 0 or inf.
_NORMALIZERS = {
    "uniform": (("a", "b"), "1/(b - a)", lambda p: 1.0 / (p["b"] - p["a"])),
    "normal": (("stddev",), "1/(stddev sqrt(2 pi))", lambda p: 1.0 / (p["stddev"] * math.sqrt(2.0 * math.pi))),
    "exponential": (("rate",), "rate", lambda p: p["rate"]),
    "semicircle": (("radius",), "2/(pi radius^2)", lambda p: 2.0 / (math.pi * p["radius"] * p["radius"])),
    "arcsine": (("a", "b"), "1/(b - a)", lambda p: 1.0 / (p["b"] - p["a"])),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A named family with validated parameters.

    Parameters not supplied fall back to the defaults above (the unit-interval
    and unit-scale members of each family).
    """

    family: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        defaults = _DEFAULT_PARAMS[self.family]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for family {self.family!r}")
        merged = {**defaults, **{k: float(v) for k, v in self.params.items()}}
        object.__setattr__(self, "params", merged)
        for name, value in merged.items():
            if not math.isfinite(value):
                raise ValueError(f"{self.family} parameter {name!r} must be finite, got {value}")
        if self.family in ("uniform", "arcsine") and not merged["a"] < merged["b"]:
            raise ValueError(f"{self.family} requires a < b, got a={merged['a']}, b={merged['b']}")
        if self.family == "normal" and not merged["stddev"] > 0:
            raise ValueError(f"normal requires stddev > 0, got {merged['stddev']}")
        if self.family == "exponential" and not merged["rate"] > 0:
            raise ValueError(f"exponential requires rate > 0, got {merged['rate']}")
        if self.family == "semicircle" and not merged["radius"] > 0:
            raise ValueError(f"semicircle requires radius > 0, got {merged['radius']}")
        names, formula, normalizer = _NORMALIZERS[self.family]
        with np.errstate(all="ignore"):
            value = float(normalizer({k: np.float64(v) for k, v in merged.items()}))
        if not 0 < value < math.inf:
            listed = ", ".join(f"{k!r} = {merged[k]}" for k in names)
            raise ValueError(f"{self.family} parameters {listed} are out of range: the pdf's normalizer"
                             f" {formula} = {value} is not a finite positive float")


def pdf(spec: DistributionSpec, x):
    """Density f(x). Total on the real line: 0 outside the support, and
    SINGULAR_PDF_CAP at points where the analytic density diverges."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    if spec.family == "uniform":
        a, b = p["a"], p["b"]
        out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    elif spec.family == "normal":
        mu, sd = p["mean"], p["stddev"]
        z = (x - mu) / sd
        out = np.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))
    elif spec.family == "exponential":
        r = p["rate"]
        out = np.where(x >= 0, r * np.exp(-r * np.maximum(x, 0.0)), 0.0)
    elif spec.family == "semicircle":
        c, r = p["center"], p["radius"]
        u = x - c
        inside = np.abs(u) <= r
        out = np.where(inside, 2.0 / (math.pi * r * r) * np.sqrt(np.clip(r * r - u * u, 0.0, None)), 0.0)
    else:  # arcsine
        a, b = p["a"], p["b"]
        z = (x - a) / (b - a)
        inside = (z > 0) & (z < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = 1.0 / (math.pi * np.sqrt(np.clip(z * (1.0 - z), 0.0, None)) * (b - a))
        out = np.where(inside, raw, 0.0)
        out = np.where((z == 0) | (z == 1), SINGULAR_PDF_CAP, out)
    return out if out.ndim else float(out)


def cdf(spec: DistributionSpec, x):
    """Distribution function F(x), clamped to [0, 1] outside the support."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    if spec.family == "uniform":
        a, b = p["a"], p["b"]
        out = np.clip((x - a) / (b - a), 0.0, 1.0)
    elif spec.family == "normal":
        # erfc, not 1 + erf, keeps relative precision in the lower tail
        out = 0.5 * np.vectorize(math.erfc, otypes=[float])((p["mean"] - x) / p["stddev"] * math.sqrt(0.5))
    elif spec.family == "exponential":
        out = np.where(x > 0, -np.expm1(-p["rate"] * np.maximum(x, 0.0)), 0.0)
    elif spec.family == "semicircle":
        c, r = p["center"], p["radius"]
        u = np.clip((x - c) / r, -1.0, 1.0)
        out = 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi
    else:  # arcsine
        a, b = p["a"], p["b"]
        z = np.clip((x - a) / (b - a), 0.0, 1.0)
        out = 2.0 / math.pi * np.arcsin(np.sqrt(z))
    return out if out.ndim else float(out)


def median(spec: DistributionSpec) -> float:
    """Closed-form median; cdf(spec, median(spec)) = 1/2."""
    p = spec.params
    if spec.family in ("uniform", "arcsine"):
        return 0.5 * (p["a"] + p["b"])
    if spec.family == "normal":
        return p["mean"]
    if spec.family == "exponential":
        return math.log(2.0) / p["rate"]
    return p["center"]


def effective_support(spec: DistributionSpec) -> tuple[float, float]:
    """Finite interval holding all but at most 1e-12 of the probability mass."""
    p = spec.params
    if spec.family in ("uniform", "arcsine"):
        return (p["a"], p["b"])
    if spec.family == "normal":
        w = _NORMAL_TAIL_SIGMAS * p["stddev"]
        return (p["mean"] - w, p["mean"] + w)
    if spec.family == "exponential":
        return (0.0, _EXPONENTIAL_TAIL_LIFETIMES / p["rate"])
    return (p["center"] - p["radius"], p["center"] + p["radius"])


def has_singular_endpoint(spec: DistributionSpec) -> bool:
    """True when the density diverges at an endpoint of its support, in which
    case grids must keep their nodes strictly inside. Only the arcsine has a
    pole; deciding by family keeps the layout the same at every scale."""
    return spec.family == "arcsine"
