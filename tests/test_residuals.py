import math

import numpy as np
import pytest

from derangetropy import (
    ResidualReport,
    residual_type1,
    residual_type2,
    residual_type3,
)
from derangetropy.residuals import DEFAULT_SWEEP


def test_default_sweep_range():
    assert DEFAULT_SWEEP[0] == pytest.approx(0.05)
    assert DEFAULT_SWEEP[-1] == pytest.approx(0.95)


@pytest.mark.parametrize(
    "builder,kind",
    [(residual_type1, "type1"), (residual_type2, "type2"), (residual_type3, "type3")],
)
def test_residuals_vanish_with_analytic_derivatives(builder, kind):
    report = builder()
    assert report.kind.value == kind
    assert report.max_abs_residual <= 1e-10
    assert report.max_abs_residual == np.max(np.abs(report.residuals))
    assert len(report.residuals) == len(report.grid)


def test_initial_condition_limits():
    r1 = residual_type1()
    (ic,) = r1.ic_checks
    assert ic.expected == pytest.approx(24.0 / math.e, rel=1e-15)
    assert ic.observed == pytest.approx(ic.expected, rel=1e-4)

    r2 = residual_type2()
    (ic,) = r2.ic_checks
    assert ic.expected == pytest.approx(math.e, rel=1e-15)
    assert ic.observed == pytest.approx(ic.expected, rel=1e-4)

    r3 = residual_type3()
    by_name = {c.name: c for c in r3.ic_checks}
    assert by_name["nu_at_0"].expected == 0.0
    assert abs(by_name["nu_at_0"].observed) < 1e-10
    assert by_name["dnu_dF_at_0"].expected == 0.0
    assert abs(by_name["dnu_dF_at_0"].observed) < 1e-4
    want = 4.0 * math.pi**2
    assert by_name["d2nu_dF2_at_0"].expected == pytest.approx(want, rel=1e-15)
    assert by_name["d2nu_dF2_at_0"].observed == pytest.approx(want, rel=1e-4)


def test_residuals_on_custom_sweep():
    sweep = np.linspace(0.2, 0.8, 31)
    report = residual_type2(sweep)
    assert report.max_abs_residual <= 1e-10
    assert np.array_equal(report.grid, sweep)


@pytest.mark.parametrize("builder", [residual_type1, residual_type2, residual_type3])
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
def test_sweep_must_be_interior(builder, bad):
    with pytest.raises(ValueError):
        builder(np.array([0.5, bad]))


def test_finite_difference_cross_check():
    # replace the analytic derivatives with central differences of the
    # closed-form solutions; the residual must stay below 1e-3 even though
    # it is no longer at machine scale
    h = 1e-4
    F = np.linspace(0.05, 0.95, 181)

    def rho(F):
        return (24.0 / (math.pi * math.e)) * np.sin(math.pi * F) * np.exp(
            -(-F * np.log(F) - (1.0 - F) * np.log(1.0 - F))
        )

    d1 = (rho(F + h) - rho(F - h)) / (2.0 * h)
    d2 = (rho(F + h) - 2.0 * rho(F) + rho(F - h)) / (h * h)
    L = np.log((1.0 - F) / F)
    resid = d2 + 2.0 * L * d1 + (math.pi**2 - 1.0 / (F * (1.0 - F)) + L**2) * rho(F)
    assert np.max(np.abs(resid)) <= 1e-3


def test_type3_closed_form_solution_shape():
    # the third-order equation is solved by nu(F) = 1 - cos(2 pi F); spot
    # check the residual construction against that form directly
    F = np.linspace(0.05, 0.95, 181)
    d1 = 2.0 * math.pi * np.sin(2.0 * math.pi * F)
    d3 = -8.0 * math.pi**3 * np.sin(2.0 * math.pi * F)
    # zero up to the rounding difference between 8*pi^3 and 4*pi^2 * 2*pi
    assert np.max(np.abs(d3 + 4.0 * math.pi**2 * d1)) <= 1e-12


def test_report_is_frozen():
    report = residual_type3()
    assert isinstance(report, ResidualReport)
    with pytest.raises(Exception):
        report.max_abs_residual = 0.0  # type: ignore[misc]
