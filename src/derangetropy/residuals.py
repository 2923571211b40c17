"""Residual checks for the governing differential equations.

For a uniform base density the transforms have closed forms in the CDF value
F, and each satisfies a linear ODE in F whose coefficients involve the
log-odds L(F) = ln((1-F)/F) and the Fisher-like term 1/(F(1-F)):

  Type-I    r'' + 2 L r' + [pi^2 - 1/(F(1-F)) + L^2] r   = 0
  Type-II   t'' - 2 L t' + [pi^2 + 1/(F(1-F)) + L^2] t   = 0
  Type-III  v''' + 4 pi^2 v'                             = 0

Derivatives are taken analytically by logarithmic differentiation of the
closed forms, so the residuals isolate the correctness of the equations from
any discretization error. Endpoint behavior is probed separately through
one-sided limits at F = 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transforms import _KERNELS, TransformKind, _log_slope, kernel

IC_PROBE = 1e-8
DEFAULT_SWEEP = np.linspace(0.05, 0.95, 181)


@dataclass(frozen=True)
class IcCheck:
    name: str
    expected: float
    observed: float


@dataclass(frozen=True)
class ResidualReport:
    kind: TransformKind
    grid: np.ndarray
    residuals: np.ndarray
    max_abs_residual: float
    ic_checks: tuple[IcCheck, ...]


def _validate_interior(F: np.ndarray) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if np.any(F <= 0) or np.any(F >= 1):
        raise ValueError("residual evaluation requires F strictly inside (0, 1)")
    return F


def _entropy_weight_derivatives(kind: TransformKind, F: np.ndarray):
    """w = kernel(kind, F), its first two F-derivatives, and L = ln((1-F)/F).

    d(log w)/dF = pi*cot + s*L, with s = -1 for Type-I (rho) and +1 for Type-II (tau).
    """
    _, s = _KERNELS[kind]
    L = np.log((1.0 - F) / F)
    w = kernel(kind, F)
    slope = _log_slope(kind, F)
    csc2 = 1.0 / np.sin(math.pi * F) ** 2
    d1 = w * slope
    d2 = w * (slope**2 - math.pi**2 * csc2 - s / (F * (1.0 - F)))
    return w, d1, d2, L


def _entropy_residual(kind: TransformKind, Fgrid: np.ndarray, ic_name: str, ic_expected: float) -> ResidualReport:
    F = _validate_interior(Fgrid)
    _, s = _KERNELS[kind]
    w, d1, d2, L = _entropy_weight_derivatives(kind, F)
    res = d2 - 2.0 * s * L * d1 + (math.pi**2 + s / (F * (1.0 - F)) + L * L) * w
    _, slope, _, _ = _entropy_weight_derivatives(kind, np.array([IC_PROBE]))
    ics = (IcCheck(ic_name, ic_expected, float(slope[0])),)
    return ResidualReport(kind, F, res, float(np.max(np.abs(res))), ics)


def residual_type1(Fgrid: np.ndarray = DEFAULT_SWEEP) -> ResidualReport:
    return _entropy_residual(TransformKind.TYPE1, Fgrid, "drho_dF_at_0", 24.0 / math.e)


def residual_type2(Fgrid: np.ndarray = DEFAULT_SWEEP) -> ResidualReport:
    return _entropy_residual(TransformKind.TYPE2, Fgrid, "dtau_dF_at_0", math.e)


def residual_type3(Fgrid: np.ndarray = DEFAULT_SWEEP) -> ResidualReport:
    F = _validate_interior(Fgrid)
    d1 = 2.0 * math.pi * np.sin(2.0 * math.pi * F)
    d3 = -8.0 * math.pi**3 * np.sin(2.0 * math.pi * F)
    res = d3 + 4.0 * math.pi**2 * d1
    e = IC_PROBE
    ics = (
        IcCheck("nu_at_0", 0.0, 2.0 * math.sin(math.pi * e) ** 2),
        IcCheck("dnu_dF_at_0", 0.0, 2.0 * math.pi * math.sin(2.0 * math.pi * e)),
        IcCheck("d2nu_dF2_at_0", 4.0 * math.pi**2, 4.0 * math.pi**2 * math.cos(2.0 * math.pi * e)),
    )
    return ResidualReport(TransformKind.TYPE3, F, res, float(np.max(np.abs(res))), ics)

