"""The check registry: every closed-form claim the package verifies.

Each suite is a tuple of units: zero-argument functions that evaluate one
group of claims on the package's own grids and return `Check` rows. The
convergence suite has one unit per family, every other suite one unit.
`dlab verify` reports the rows and the acceptance tests read them, so both
see the same numbers against the same gates. `SUITES` maps suite names to
units in the order `run("all")` reports them; `dlab verify` runs the units
on two processes and reports their rows in that same order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import spectral
from .distributions import FAMILIES, DistributionSpec, median
from .grid import GridDensity, from_analytic, simpson
from .transforms import (TransformKind, _log_derivatives, bernoulli_entropy, kernel, steps, transform,
                         transform_values)

# Gate on a transform's pre-renormalization mass defect |integral - 1|: the
# `raw_integral` tolerance, and the point past which `dlab iterate` reports
# that its grid no longer resolves the iterate.
MASS_TOLERANCE = 1e-4

# For a uniform base density each transformed density is its kernel k(F), and
# each satisfies a linear ODE in F with L(F) = ln((1-F)/F):
#
#   Type-I    r'' + 2 L r' + [pi^2 - 1/(F(1-F)) + L^2] r   = 0
#   Type-II   t'' - 2 L t' + [pi^2 + 1/(F(1-F)) + L^2] t   = 0
#   Type-III  v''' + 4 pi^2 v'                             = 0
#
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
# The interior CDF values the residuals are taken at, and the F at which the
# initial values are read as one-sided limits.
ODE_SWEEP = np.linspace(0.05, 0.95, 181)
IC_PROBE = 1e-8


@dataclass(frozen=True)
class Check:
    name: str
    expected: float
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.observed - self.expected) <= self.tolerance


def _reference_grids() -> dict[str, GridDensity]:
    """The five default families at the production node count, by family."""
    return {name: from_analytic(DistributionSpec(name), 4097) for name in FAMILIES}


def _checks_constants() -> list[Check]:
    n = 65537
    z = np.linspace(0.0, 1.0, n)
    entropy = bernoulli_entropy(z)
    sin = np.sin(math.pi * z)
    return [
        Check("type1_normalizer", math.pi * math.e / 24.0, simpson(sin * np.exp(-entropy), 0.0, 1.0), 1e-8),
        Check("type2_normalizer", math.pi / math.e, simpson(sin * np.exp(entropy), 0.0, 1.0), 1e-8),
    ]


def _checks_normalization() -> list[Check]:
    out = []
    for family, g in _reference_grids().items():
        for kind in TransformKind:
            mass = simpson(transform_values(kind, g), g.lo, g.hi)
            out.append(Check(f"{family}/{kind.value}/raw_integral", 1.0, mass, MASS_TOLERANCE))
    return out


def _kernel_derivatives(kind: TransformKind, F: np.ndarray) -> tuple[np.ndarray, ...]:
    """k = kernel(kind, F) and its first three F-derivatives from those of ln k, l1, l2
    and l3: k' = k*l1, k'' = k*(l1^2 + l2) and k''' = k*(l1^3 + 3*l1*l2 + l3)."""
    k = kernel(kind, F)
    l1, l2, l3 = _log_derivatives(kind, F)
    return k, k * l1, k * (l1 * l1 + l2), k * (l1**3 + 3.0 * l1 * l2 + l3)


def _checks_ode() -> list[Check]:
    """Each kind's package kernel plugged into its ODE over ODE_SWEEP, then its
    initial values at F = IC_PROBE. The derivatives are in closed form, so the
    residuals check the kernel rows and the equations apart from any
    discretization error."""
    out = []
    F = ODE_SWEEP
    for kind, (ode, ics) in _ODES.items():
        residual = ode(F, np.log((1.0 - F) / F), _kernel_derivatives(kind, F))
        out.append(Check(f"{kind.value}/max_abs_residual", 0.0, float(np.max(np.abs(residual))), 1e-8))
        at_0 = _kernel_derivatives(kind, np.array([IC_PROBE]))
        for name, order, limit in ics:
            # relative tolerance against the expected limit; absolute at zero
            out.append(Check(f"{kind.value}/{name}", limit, float(at_0[order][0]), 1e-4 * max(abs(limit), 1.0)))
    return out


def _checks_cf() -> list[Check]:
    out = []
    tmax = 20.0
    grids = _reference_grids()
    for family, g in grids.items():
        # phi_nu = phi_0 - (phi_F^+ + phi_F^-)/2 follows from 2 sin^2 = 1 - cos, so
        # the gap measures the CF machinery, not quadrature error
        phi_nu = spectral.cf_of_values(g, transform_values(TransformKind.TYPE3, g), tmax)
        phi0 = spectral.char_function(g, tmax)
        plus = spectral.modulated_char(g, +1, tmax)
        minus = spectral.modulated_char(g, -1, tmax)
        gap = float(np.max(np.abs(phi_nu.values - (phi0.values - 0.5 * (plus.values + minus.values)))))
        tol = 1e-4 if family == "arcsine" else 1e-5
        out.append(Check(f"{family}/cf_identity_gap", 0.0, gap, tol))
        for sign, label in ((1, "plus"), (-1, "minus")):
            phi = spectral.modulated_char(g, sign, tmax=1.0)
            out.append(Check(f"{family}/modulated_{label}_at_zero", 0.0, abs(phi.at_zero()), 1e-6))
    uni = grids["uniform"]
    nu = transform_values(TransformKind.TYPE3, uni)
    phi_nu = spectral.cf_of_values(uni, nu, tmax)
    closed = spectral.uniform_closed_form_cf(phi_nu.ts)
    out.append(Check("uniform/closed_form_match", 0.0, float(np.max(np.abs(phi_nu.values - closed))), 1e-6))
    phi0 = spectral.char_function(uni)
    one = spectral.t_operator(phi0)
    raw_cf = spectral.cf_of_values(uni, nu, one.tmax)
    out.append(Check("uniform/t_operator_vs_raw_cf", 0.0, float(np.max(np.abs(one.values - raw_cf.values))), 1e-6))
    two = spectral.t_operator(one)
    out.append(Check("uniform/t_operator_twice_at_zero", 1.5, two.at_zero().real, 1e-9))
    return out


def _checks_median() -> list[Check]:
    out = []
    for family, g in _reference_grids().items():
        m = median(DistributionSpec(family))
        cdfs = {kind: transform(kind, g).cdf for kind in TransformKind}
        for kind, F in cdfs.items():
            out.append(Check(f"{family}/{kind.value}/cdf_at_median", 0.5, float(np.interp(m, g.xs, F)), 1e-4))
        closed = g.cdf - np.sin(math.tau * g.cdf) / math.tau
        gap = float(np.max(np.abs(cdfs[TransformKind.TYPE3] - closed)))
        out.append(Check(f"{family}/type3_closed_cdf_gap", 0.0, gap, 1e-6))
    return out


def _checks_convergence(family: str) -> list[Check]:
    """One family's 30 Type III steps: the sup distance to the Gaussian at
    the last step, and for the uniform the step-1 variance."""
    g = from_analytic(DistributionSpec(family), 4097)
    for k, density, _, d in steps(TransformKind.TYPE3, g, 30, follow=True):
        if k == 1:
            step1_variance = d.variance
    sup = spectral.rescaled_sup_distance(density, d.mean, math.sqrt(d.variance))
    out = [Check(f"{family}/sup_distance_at_30", 0.0, sup, 0.05)]
    if family == "uniform":
        expected = 1.0 / 12.0 - 1.0 / (2.0 * math.pi**2)
        out.append(Check("uniform/step1_variance", expected, step1_variance, 1e-5))
    return out


SUITES: dict[str, tuple[Callable[[], list[Check]], ...]] = {
    "constants": (_checks_constants,),
    "normalization": (_checks_normalization,),
    "ode": (_checks_ode,),
    "cf": (_checks_cf,),
    "median": (_checks_median,),
    "convergence": tuple(partial(_checks_convergence, family) for family in FAMILIES),
}


def units(suite: str) -> list[Callable[[], list[Check]]]:
    """The units of one suite, or of every suite in order for "all"."""
    names = list(SUITES) if suite == "all" else [suite]
    return [unit for name in names for unit in SUITES[name]]


def run(suite: str) -> list[Check]:
    """The checks of one suite, or of every suite in order for "all"."""
    return [check for unit in units(suite) for check in unit()]
