"""Residual checks for the governing differential equations.

For a uniform base density each transformed density is its kernel k(F),
and each satisfies a linear ODE in F whose coefficients involve the
log-odds L(F) = ln((1-F)/F) and the Fisher-like term 1/(F(1-F)):

  Type-I    r'' + 2 L r' + [pi^2 - 1/(F(1-F)) + L^2] r   = 0
  Type-II   t'' - 2 L t' + [pi^2 + 1/(F(1-F)) + L^2] t   = 0
  Type-III  v''' + 4 pi^2 v'                             = 0

`residual` plugs the package's own `kernel` into its kind's equation, with
k', k'' and k''' taken by the chain rule from the closed-form derivatives
of ln k next to the kernel table, so the residuals check the kernel rows
and the equations apart from any discretization error. Endpoint behavior
is probed separately through one-sided limits at F = 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transforms import TransformKind, _log_derivatives, kernel

IC_PROBE = 1e-8
DEFAULT_SWEEP = np.linspace(0.05, 0.95, 181)

# kind -> (the ODE's left side from F, L and (k, k', k'', k'''),
#          its initial values as (name, derivative order, limit at F = 0+))
_ODES = {
    TransformKind.TYPE1: (
        lambda F, L, k: k[2] + 2.0 * L * k[1] + (math.pi**2 - 1.0 / (F * (1.0 - F)) + L * L) * k[0],
        (("drho_dF_at_0", 1, 24.0 / math.e),),
    ),
    TransformKind.TYPE2: (
        lambda F, L, k: k[2] - 2.0 * L * k[1] + (math.pi**2 + 1.0 / (F * (1.0 - F)) + L * L) * k[0],
        (("dtau_dF_at_0", 1, math.e),),
    ),
    TransformKind.TYPE3: (
        lambda F, L, k: k[3] + 4.0 * math.pi**2 * k[1],
        (("nu_at_0", 0, 0.0), ("dnu_dF_at_0", 1, 0.0), ("d2nu_dF2_at_0", 2, 4.0 * math.pi**2)),
    ),
}


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


def _kernel_derivatives(kind: TransformKind, F: np.ndarray) -> tuple[np.ndarray, ...]:
    """k = kernel(kind, F) and its first three F-derivatives from those of ln k, l1, l2
    and l3: k' = k*l1, k'' = k*(l1^2 + l2) and k''' = k*(l1^3 + 3*l1*l2 + l3)."""
    k = kernel(kind, F)
    l1, l2, l3 = _log_derivatives(kind, F)
    return k, k * l1, k * (l1 * l1 + l2), k * (l1**3 + 3.0 * l1 * l2 + l3)


def residual(kind: TransformKind, F: np.ndarray = DEFAULT_SWEEP) -> ResidualReport:
    """The kind's ODE residual at every F of the sweep, and its initial values at F = IC_PROBE."""
    F = np.asarray(F, dtype=float)
    if np.any(F <= 0) or np.any(F >= 1):
        raise ValueError("residual evaluation requires F strictly inside (0, 1)")
    ode, ics = _ODES[kind]
    res = ode(F, np.log((1.0 - F) / F), _kernel_derivatives(kind, F))
    at_0 = _kernel_derivatives(kind, np.array([IC_PROBE]))
    ic_checks = tuple(IcCheck(name, limit, float(at_0[order][0])) for name, order, limit in ics)
    return ResidualReport(kind, F, res, float(np.max(np.abs(res))), ic_checks)
