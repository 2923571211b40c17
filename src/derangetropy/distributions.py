"""Closed-form reference distributions.

Five families are supported: uniform, normal, exponential, semicircle, and
arcsine. Each is a location–scale family: one row of `_FAMILIES` gives its
parameters with their defaults, the (loc, scale) they set, and the pdf and
cdf of its standard member in z = (x - loc)/scale, so pdf(x) =
f(z)/scale and cdf(x) = F(z) for every family. A row also gives the exact
median and a finite interval (`effective_support`) that carries all but a
negligible sliver of probability mass, both as expressions of the
parameters, because loc + scale·z would round them. Unbounded families are
truncated to that interval by the grid pipeline; the truncated mass is far
below every tolerance used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

# Value the standard arcsine pdf takes exactly at its poles, so pdf() returns
# it divided by the scale there. Grids never place nodes at a pole, so the
# cap exists only to keep pdf total.
SINGULAR_PDF_CAP = 1e12

# Truncation half-width for the normal family, in standard deviations, and the
# truncation point for the exponential in mean lifetimes. 2*ndtr(-8) < 1e-14
# and exp(-40) < 1e-17, both below the 1e-12 mass budget.
_NORMAL_TAIL_SIGMAS = 8.0
_EXPONENTIAL_TAIL_LIFETIMES = 40.0


@dataclass(frozen=True)
class _Family:
    defaults: dict[str, float]  # every parameter name, with the value used when it is not given
    loc_scale: Callable[[dict], tuple[float, float]]
    pdf: Callable[[np.ndarray], np.ndarray]  # of the standard member, in z
    cdf: Callable[[np.ndarray], np.ndarray]
    median: Callable[[dict], float]
    support: Callable[[dict], tuple[float, float]]
    singular: bool = False  # the pdf diverges at an end of the support


def _arcsine_pdf(z):
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = 1.0 / (math.pi * np.sqrt(np.clip(z * (1.0 - z), 0.0, None)))
    out = np.where((z > 0) & (z < 1), raw, 0.0)
    return np.where((z == 0) | (z == 1), SINGULAR_PDF_CAP, out)


def _semicircle_cdf(z):
    u = np.clip(z, -1.0, 1.0)
    return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi


_FAMILIES = {
    "uniform": _Family(
        {"a": 0.0, "b": 1.0}, lambda p: (p["a"], p["b"] - p["a"]),
        lambda z: np.where((z >= 0) & (z <= 1), 1.0, 0.0),
        lambda z: np.clip(z, 0.0, 1.0),
        lambda p: 0.5 * (p["a"] + p["b"]), lambda p: (p["a"], p["b"])),
    "normal": _Family(
        {"mean": 0.0, "stddev": 1.0}, lambda p: (p["mean"], p["stddev"]),
        lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        # erfc, not 1 + erf, keeps relative precision in the lower tail
        lambda z: 0.5 * np.vectorize(math.erfc, otypes=[float])(-z * math.sqrt(0.5)),
        lambda p: p["mean"],
        lambda p: (p["mean"] - _NORMAL_TAIL_SIGMAS * p["stddev"], p["mean"] + _NORMAL_TAIL_SIGMAS * p["stddev"])),
    "exponential": _Family(
        {"rate": 1.0}, lambda p: (0.0, 1.0 / p["rate"]),
        lambda z: np.where(z >= 0, np.exp(-np.maximum(z, 0.0)), 0.0),
        lambda z: np.where(z > 0, -np.expm1(-np.maximum(z, 0.0)), 0.0),
        lambda p: math.log(2.0) / p["rate"], lambda p: (0.0, _EXPONENTIAL_TAIL_LIFETIMES / p["rate"])),
    "semicircle": _Family(
        {"center": 0.0, "radius": 1.0}, lambda p: (p["center"], p["radius"]),
        lambda z: np.where(np.abs(z) <= 1, 2.0 / math.pi * np.sqrt(np.clip(1.0 - z * z, 0.0, None)), 0.0),
        _semicircle_cdf,
        lambda p: p["center"], lambda p: (p["center"] - p["radius"], p["center"] + p["radius"])),
    "arcsine": _Family(
        {"a": 0.0, "b": 1.0}, lambda p: (p["a"], p["b"] - p["a"]),
        _arcsine_pdf,
        lambda z: 2.0 / math.pi * np.arcsin(np.sqrt(np.clip(z, 0.0, 1.0))),
        lambda p: 0.5 * (p["a"] + p["b"]), lambda p: (p["a"], p["b"]), singular=True),
}

FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class DistributionSpec:
    """A named family with validated parameters.

    Parameters not supplied fall back to the family's defaults (the
    unit-interval and unit-scale members of each family). Every parameter
    must be finite, and the scale they set a positive float whose
    reciprocal is finite too, since the pdf divides by it. The validated
    parameters are stored read-only, so they stay valid.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        row = _FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        unknown = set(self.params) - set(row.defaults)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for family {self.family!r}")
        merged = {**row.defaults, **{k: float(v) for k, v in self.params.items()}}
        object.__setattr__(self, "params", MappingProxyType(merged))
        for name, value in merged.items():
            if not math.isfinite(value):
                raise ValueError(f"{self.family} parameter {name!r} must be finite, got {value}")
        with np.errstate(all="ignore"):
            scale = row.loc_scale({k: np.float64(v) for k, v in merged.items()})[1]
            if not (0 < scale < math.inf and 1 / scale < math.inf):
                listed = ", ".join(f"{k!r} = {v}" for k, v in merged.items())
                raise ValueError(f"{self.family} parameters {listed} are out of range: their scale {float(scale)}"
                                 f" is not a positive float with a finite reciprocal")


def _standard(spec: DistributionSpec, x) -> tuple[_Family, np.ndarray, float]:
    """The family's row, z = (x - loc)/scale and the scale."""
    row = _FAMILIES[spec.family]
    loc, scale = row.loc_scale(spec.params)
    with np.errstate(over="ignore"):  # a far x gives an infinite z, where every shape has its limit
        z = np.asarray(x, dtype=float) - loc
        z /= scale
    return row, z, scale


def pdf(spec: DistributionSpec, x):
    """Density f(x). Total on the real line: 0 outside the support, and
    SINGULAR_PDF_CAP/scale at points where the analytic density diverges."""
    row, z, scale = _standard(spec, x)
    out = row.pdf(z)
    out /= scale
    return out if out.ndim else float(out)


def cdf(spec: DistributionSpec, x):
    """Distribution function F(x), clamped to [0, 1] outside the support."""
    row, z, _ = _standard(spec, x)
    out = row.cdf(z)
    return out if out.ndim else float(out)


def median(spec: DistributionSpec) -> float:
    """Closed-form median; cdf(spec, median(spec)) = 1/2."""
    return _FAMILIES[spec.family].median(spec.params)


def effective_support(spec: DistributionSpec) -> tuple[float, float]:
    """Finite interval holding all but at most 1e-12 of the probability mass."""
    return _FAMILIES[spec.family].support(spec.params)


def has_singular_endpoint(spec: DistributionSpec) -> bool:
    """True when the density diverges at an endpoint of its support, in which
    case grids must keep their nodes strictly inside. Only the arcsine has a
    pole; deciding by family keeps the layout the same at every scale."""
    return _FAMILIES[spec.family].singular
