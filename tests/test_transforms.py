import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derangetropy import (
    TYPE1_CONSTANT,
    TYPE2_CONSTANT,
    DistributionSpec,
    GridDensity,
    TransformKind,
    bernoulli_entropy,
    from_analytic,
    integrate,
    iterate,
    kernel,
    log_derivative_grid,
    median,
    median_of,
    transform,
    transform_step,
    transform_values,
)

from derangetropy import grid

import oracles

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")
KINDS = tuple(TransformKind)


# --- scalar helpers ---------------------------------------------------------


def test_normalizer_constants():
    assert TYPE1_CONSTANT == pytest.approx(24.0 / (math.pi * math.e), rel=1e-15)
    assert TYPE2_CONSTANT == pytest.approx(math.e / math.pi, rel=1e-15)


def test_bernoulli_entropy_values():
    assert bernoulli_entropy(0.0) == 0.0
    assert bernoulli_entropy(1.0) == 0.0
    assert bernoulli_entropy(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        bernoulli_entropy(-0.01)
    with pytest.raises(ValueError):
        bernoulli_entropy(1.01)


@pytest.mark.parametrize("bad", [math.nan, np.array([0.25, math.nan, 0.75])])
def test_nan_rejected_where_entropy_input_enters(bad):
    with pytest.raises(ValueError):
        bernoulli_entropy(bad)
    for kind in KINDS:
        with pytest.raises(ValueError):
            kernel(kind, bad)


def test_bernoulli_entropy_matches_scalar_oracle():
    p = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0 - 2.0**-53, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bernoulli_entropy(p)
    want = np.array([oracles.bernoulli_entropy(v) for v in p])
    # near 0 the kernel exp(s*H) feels H's absolute error as its own relative
    # error, so 4.5e-16 there is about 2 ulps of the kernel
    tol = np.where(want < 2.0**-50, 4.5e-16, 2.0 * np.spacing(want))
    assert np.all(np.abs(got - want) <= tol)


@given(z=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_bernoulli_entropy_symmetric(z):
    # 1 - (1 - z) != z in floats near the endpoints, so symmetry is only
    # exact up to one rounding of the argument
    assert bernoulli_entropy(z) == pytest.approx(bernoulli_entropy(1.0 - z), abs=1e-12)


# --- kernels ----------------------------------------------------------------


def test_kernels_vanish_at_interval_ends():
    for kind in KINDS:
        assert kernel(kind, 0.0) == 0.0
        assert kernel(kind, 1.0) == 0.0


def test_kernel_peak_values():
    assert kernel(TransformKind.TYPE1, 0.5) == pytest.approx(12.0 / (math.pi * math.e), rel=1e-14)
    assert kernel(TransformKind.TYPE2, 0.5) == pytest.approx(2.0 * math.e / math.pi, rel=1e-14)
    assert kernel(TransformKind.TYPE3, 0.5) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_kernel_matches_scalar_oracle(kind):
    # pointwise, out to z within 1e-12 of either end, where each weight is tiny but normal
    z = np.concatenate([[0.0, 1e-12, 1e-9, 1e-6, 1e-3], np.linspace(0.0, 1.0, 1001)[1:-1],
                        [1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0]])
    got = kernel(kind, z)
    want = np.array([oracles.kernel_value(kind.value, float(v)) for v in z])
    assert got[0] == want[0] == 0.0 and got[-1] == want[-1] == 0.0
    assert np.max(np.abs(got[1:-1] - want[1:-1]) / want[1:-1]) <= 1e-14


def test_kernel_bounds_on_sweep():
    z = np.linspace(0.0, 1.0, 20001)
    assert np.max(kernel(TransformKind.TYPE1, z)) <= 1.4052
    assert np.max(kernel(TransformKind.TYPE2, z)) <= 1.7306
    assert np.max(kernel(TransformKind.TYPE3, z)) <= 2.0


@given(z=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_kernels_symmetric(z):
    for kind in KINDS:
        assert kernel(kind, z) == pytest.approx(kernel(kind, 1.0 - z), abs=1e-12)


def test_kernel_means_are_one():
    # each kernel integrates to 1 over [0,1]; that is what makes the
    # transforms approximately mass-preserving before renormalization
    from derangetropy import simpson

    z = np.linspace(0.0, 1.0, 65537)
    for kind in KINDS:
        assert simpson(kernel(kind, z), 0.0, 1.0) == pytest.approx(1.0, abs=1e-8)


# --- single transform -------------------------------------------------------


def test_type3_on_uniform_doubles_at_center():
    g = from_analytic(DistributionSpec("uniform"), 4097)
    out = transform(TransformKind.TYPE3, g)
    mid = (g.n - 1) // 2
    assert g.xs[mid] == 0.5
    assert out.values[mid] == pytest.approx(2.0, abs=1e-6)


def test_type1_on_uniform_peaks_at_kernel_max():
    g = from_analytic(DistributionSpec("uniform"), 4097)
    out = transform(TransformKind.TYPE1, g)
    i = int(np.argmax(out.values))
    assert g.xs[i] == pytest.approx(0.5, abs=g.step)
    assert out.values[i] == pytest.approx(12.0 / (math.pi * math.e), abs=1e-6)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_transform_normalized_and_raw_mass(family, kind, ref_grids):
    g = ref_grids[family]
    step = transform_step(kind, g)
    assert integrate(step.density) == pytest.approx(1.0, abs=1e-6)
    # pre-renormalization integral within 1e-4 of 1 at n=4097
    assert step.integral_error <= 1e-4
    raw = transform_values(kind, g)
    from derangetropy import simpson

    assert abs(simpson(raw, g.lo, g.hi) - 1.0) == pytest.approx(step.integral_error, abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_median_preserved(family, kind, ref_specs, ref_grids):
    out = transform(kind, ref_grids[family])
    assert np.interp(median(ref_specs[family]), out.xs, out.cdf) == pytest.approx(0.5, abs=1e-4)


@pytest.mark.parametrize("family", FAMILIES)
def test_type3_cdf_closed_form(family, ref_grids):
    g = ref_grids[family]
    F = g.cdf
    got = transform(TransformKind.TYPE3, g).cdf
    want = F - np.sin(2.0 * math.pi * F) / (2.0 * math.pi)
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_type3_bounded_by_twice_input(family, ref_grids):
    g = ref_grids[family]
    out = transform(TransformKind.TYPE3, g)
    assert np.max(out.values) <= 2.0 * np.max(g.values) * (1.0 + 1e-9)


@pytest.mark.parametrize("family", ["uniform", "normal", "exponential", "semicircle"])
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_transform_zero_at_support_endpoints(family, kind, ref_grids):
    # F hits 0 and 1 exactly at the first/last node for these grids, and
    # every kernel vanishes there
    out = transform_values(kind, ref_grids[family])
    assert out[0] == 0.0
    assert out[-1] == 0.0


def test_transform_zero_exactly_where_kernel_or_density_vanishes(ref_grids):
    g = ref_grids["semicircle"]
    F = g.cdf
    for kind in KINDS:
        out = transform_values(kind, g)
        expect_zero = (kernel(kind, F) == 0.0) | (g.values == 0.0)
        assert np.array_equal(out == 0.0, expect_zero)


# --- iteration --------------------------------------------------------------


def test_iterate_validates_step_count(ref_grids):
    with pytest.raises(ValueError):
        iterate(TransformKind.TYPE3, ref_grids["uniform"], 0)


def test_iterate_step_zero_is_input(ref_grids):
    g = ref_grids["uniform"]
    tr = iterate(TransformKind.TYPE3, g, 2)
    d0 = tr.steps[0]
    assert np.array_equal(d0.values, g.values)
    assert d0.cdf[-1] == 1.0
    assert len(tr.steps) == 3
    assert len(tr.diagnostics) == 3


def test_iterate_builds_each_cdf_once(monkeypatch, ref_grids):
    calls = []
    cumulative = grid.cumulative_simpson

    def counted(values, step):
        calls.append(step)
        return cumulative(values, step)

    monkeypatch.setattr(grid, "cumulative_simpson", counted)
    src = ref_grids["normal"]
    for kind in KINDS:
        for n in (1, 4):
            g = GridDensity(src.lo, src.hi, src.values)  # a fresh grid has no CDF yet
            calls.clear()
            iterate(kind, g, n)
            assert len(calls) == n + 1
    assert g.cdf is g.cdf
    with pytest.raises(ValueError):
        g.cdf[0] = 0.5  # read-only view
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.cdf = np.zeros(g.n)


def test_iterate_steps_chain(ref_grids):
    g = ref_grids["normal"]
    tr = iterate(TransformKind.TYPE1, g, 2)
    manual = transform(TransformKind.TYPE1, tr.steps[0])
    assert np.array_equal(tr.steps[1].values, manual.values)
    manual2 = transform(TransformKind.TYPE1, manual)
    assert np.array_equal(tr.steps[2].values, manual2.values)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_trace_integral_errors_small(family, kind):
    # every integralError <= 1e-6. Known failures: arcsine under type1
    # (9.3e-6) and type2 (2.2e-6); the pole-adjacent nodes carry enough mass
    # that the kernel-weighted quadrature cannot reach 1e-6 at n=4097
    g = from_analytic(DistributionSpec(family), 4097)
    tr = iterate(kind, g, 2)
    assert max(s.integral_error for s in tr.diagnostics) <= 1e-6


def test_type3_iteration_matches_scalar_conjugacy():
    # n type3 steps act on CDF values as the n-fold scalar map W, and the
    # density picks up the product of kernel factors along the orbit
    g = from_analytic(DistributionSpec("uniform"), 4097)
    n = 3
    tr = iterate(TransformKind.TYPE3, g, n)
    got_cdf = tr.steps[n].cdf
    want_cdf = oracles.scalar_iterate(g.xs, n)
    assert np.max(np.abs(got_cdf - want_cdf)) < 1e-9

    raw = oracles.type3_iterated_density(g.values, g.xs, n)
    from derangetropy import simpson

    raw /= simpson(raw, g.lo, g.hi)
    assert np.max(np.abs(tr.steps[n].values - raw)) < 1e-8


def test_type3_iteration_matches_scalar_conjugacy_nonuniform():
    g = from_analytic(DistributionSpec("normal"), 4097)
    tr = iterate(TransformKind.TYPE3, g, 2)
    F = g.cdf
    want = oracles.scalar_iterate(F, 2)
    assert np.max(np.abs(tr.steps[2].cdf - want)) < 1e-7


def test_type3_iteration_medians_pinned(ref_grids):
    tr = iterate(TransformKind.TYPE3, ref_grids["exponential"], 4)
    for d in tr.diagnostics:
        assert d.median == pytest.approx(math.log(2.0), abs=1e-4)


def test_iterate_variance_contracts_for_type3(ref_grids):
    tr = iterate(TransformKind.TYPE3, ref_grids["uniform"], 4)
    variances = [d.variance for d in tr.diagnostics]
    assert variances[1] == pytest.approx(oracles.UNIFORM_STEP1_VARIANCE, abs=1e-9)
    assert all(b < a for a, b in zip(variances, variances[1:]))


# --- log-derivatives ---------------------------------------------------------


@pytest.mark.parametrize("family", ["uniform", "normal", "exponential"])
@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_log_derivative_matches_finite_differences(family, kind):
    # the comparison is limited by the h^2 truncation of the finite
    # difference itself; the exponential's steep cot(pi F) region needs the
    # fine grid before the FD side settles under 1e-4
    n = 65537 if family == "exponential" else 8193
    g = from_analytic(DistributionSpec(family), n)
    xs, got = log_derivative_grid(kind, g)
    F = g.cdf
    out = transform(kind, g)
    logt = np.log(np.maximum(out.values, 1e-300))
    h = g.step
    fd = (logt[2:] - logt[:-2]) / (2.0 * h)
    fvals = F[1:-1]
    keep = (fvals >= 0.05) & (fvals <= 0.95)
    inner = dict(zip(np.round(g.xs[1:-1][keep], 12), fd[keep]))
    sel = [i for i, x in enumerate(np.round(xs, 12)) if x in inner]
    assert len(sel) > 100
    got_sel = got[sel]
    fd_sel = np.array([inner[round(float(xs[i]), 12)] for i in sel])
    rel = np.abs(got_sel - fd_sel) / np.maximum(np.abs(fd_sel), 1.0)
    assert np.max(rel) <= 2e-4


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_log_derivative_grid_uniform_closed_form(kind):
    # uniform: F = x and f = 1, so d/dx log of the transform is the kernel's
    # log-slope, pi cot(pi x) + s ln((1-x)/x) with s = -1 (Type-I) or +1
    # (Type-II), and 2 pi cot(pi x) for Type-III; x = 0.25 is a node of the grid
    x = 0.25
    cot = 1.0 / math.tan(math.pi * x)
    want = {
        TransformKind.TYPE1: math.pi * cot - math.log((1.0 - x) / x),
        TransformKind.TYPE2: math.pi * cot + math.log((1.0 - x) / x),
        TransformKind.TYPE3: 2.0 * math.pi * cot,
    }[kind]
    g = from_analytic(DistributionSpec("uniform"), 4097)
    xs, vals = log_derivative_grid(kind, g)
    j = int(np.argmin(np.abs(xs - x)))
    assert xs[j] == x
    assert vals[j] == pytest.approx(want, rel=1e-6)
