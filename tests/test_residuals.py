import math

import numpy as np
import pytest

from derangetropy import TransformKind, checks

import oracles

KINDS = [kind.value for kind in TransformKind]


def test_default_sweep_range():
    assert checks.ODE_SWEEP[0] == pytest.approx(0.05)
    assert checks.ODE_SWEEP[-1] == pytest.approx(0.95)


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: f"residual_{kind}-{kind}")
def test_residuals_vanish_with_analytic_derivatives(registry, kind):
    (row,) = [c for c in registry if c.name == f"{kind}/max_abs_residual"]
    assert row.expected == 0.0
    assert row.observed <= 1e-10


def test_initial_condition_limits(registry):
    # the ode rows, in order: each kind's residual, then its initial values
    rows = [c for c in registry if c.name.split("/")[0] in KINDS]
    assert [c.name for c in rows] == [
        "type1/max_abs_residual", "type1/drho_dF_at_0",
        "type2/max_abs_residual", "type2/dtau_dF_at_0",
        "type3/max_abs_residual", "type3/nu_at_0", "type3/dnu_dF_at_0", "type3/d2nu_dF2_at_0",
    ]
    by_name = {c.name: c for c in rows}
    for name, want in (("type1/drho_dF_at_0", 24.0 / math.e), ("type2/dtau_dF_at_0", math.e),
                       ("type3/d2nu_dF2_at_0", 4.0 * math.pi**2)):
        assert by_name[name].expected == pytest.approx(want, rel=1e-15)
        assert by_name[name].observed == pytest.approx(want, rel=1e-4)
    assert by_name["type3/nu_at_0"].expected == 0.0
    assert abs(by_name["type3/nu_at_0"].observed) < 1e-10
    assert by_name["type3/dnu_dF_at_0"].expected == 0.0
    assert abs(by_name["type3/dnu_dF_at_0"].observed) < 1e-4


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
    F = checks.ODE_SWEEP
    want = reference(kind, F)
    kind = TransformKind(kind)
    ode, _ = checks._ODES[kind]
    assert np.max(np.abs(ode(F, np.log((1.0 - F) / F), want))) <= bound
    got = checks._kernel_derivatives(kind, F)
    for order in (1, 2, 3):
        assert np.max(np.abs(got[order] - want[order])) <= bound * np.max(np.abs(want[order])), order

