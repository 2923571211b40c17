import math

import numpy as np
import pytest

from derangetropy import ResidualReport, TransformKind, residual
from derangetropy import residuals
from derangetropy.residuals import DEFAULT_SWEEP

import oracles


def test_default_sweep_range():
    assert DEFAULT_SWEEP[0] == pytest.approx(0.05)
    assert DEFAULT_SWEEP[-1] == pytest.approx(0.95)


@pytest.mark.parametrize("kind", ["type1", "type2", "type3"], ids=lambda kind: f"residual_{kind}-{kind}")
def test_residuals_vanish_with_analytic_derivatives(kind):
    report = residual(TransformKind(kind))
    assert report.kind.value == kind
    assert report.max_abs_residual <= 1e-10
    assert report.max_abs_residual == np.max(np.abs(report.residuals))
    assert len(report.residuals) == len(report.grid)


def test_initial_condition_limits():
    r1 = residual(TransformKind.TYPE1)
    (ic,) = r1.ic_checks
    assert ic.expected == pytest.approx(24.0 / math.e, rel=1e-15)
    assert ic.observed == pytest.approx(ic.expected, rel=1e-4)

    r2 = residual(TransformKind.TYPE2)
    (ic,) = r2.ic_checks
    assert ic.expected == pytest.approx(math.e, rel=1e-15)
    assert ic.observed == pytest.approx(ic.expected, rel=1e-4)

    r3 = residual(TransformKind.TYPE3)
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
    report = residual(TransformKind.TYPE2, sweep)
    assert report.max_abs_residual <= 1e-10
    assert np.array_equal(report.grid, sweep)


@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda kind: f"residual_{kind.value}")
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
def test_sweep_must_be_interior(kind, bad):
    with pytest.raises(ValueError):
        residual(kind, np.array([0.5, bad]))


def _type3_closed_forms(kind, F):
    # nu(F) = 2 sin^2(pi F) = 1 - cos(2 pi F), differentiated by hand
    sin, cos = np.sin(2.0 * math.pi * F), np.cos(2.0 * math.pi * F)
    return 1.0 - cos, 2.0 * math.pi * sin, 4.0 * math.pi**2 * cos, -8.0 * math.pi**3 * sin


def _central_differences(kind, F, h=1e-4):
    # of the scalar oracle kernel, which shares no code with the package
    def k(x):
        return np.array([oracles.kernel_value(kind, float(v)) for v in x])

    return (k(F), (k(F + h) - k(F - h)) / (2.0 * h), (k(F + h) - 2.0 * k(F) + k(F - h)) / (h * h),
            (k(F + 2.0 * h) - 2.0 * k(F + h) + 2.0 * k(F - h) - k(F - 2.0 * h)) / (2.0 * h**3))


@pytest.mark.parametrize("kind, reference, bound", [
    pytest.param("type1", _central_differences, 1e-3, id="type1"),
    pytest.param("type2", _central_differences, 1e-3, id="type2"),
    # zero up to the rounding difference between 8*pi^3 and 4*pi^2 * 2*pi
    pytest.param("type3", _type3_closed_forms, 1e-12, id="type3"),
])
def test_kernel_derivatives_match_independent_references(kind, reference, bound):
    # the references solve the kind's ODE, the differences up to their O(h^2)
    # error; the package's k', k'' and k''' match them relative to their scale
    F = DEFAULT_SWEEP
    want = reference(kind, F)
    kind = TransformKind(kind)
    ode, _ = residuals._ODES[kind]
    assert np.max(np.abs(ode(F, np.log((1.0 - F) / F), want))) <= bound
    got = residuals._kernel_derivatives(kind, F)
    for order in (1, 2, 3):
        assert np.max(np.abs(got[order] - want[order])) <= bound * np.max(np.abs(want[order])), order


def test_report_is_frozen():
    report = residual(TransformKind.TYPE3)
    assert isinstance(report, ResidualReport)
    with pytest.raises(Exception):
        report.max_abs_residual = 0.0  # type: ignore[misc]
