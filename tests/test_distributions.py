import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derangetropy import (
    FAMILIES,
    DistributionSpec,
    cdf,
    effective_support,
    from_analytic,
    has_singular_endpoint,
    integrate,
    median,
    pdf,
)

import oracles


def test_family_roster():
    assert FAMILIES == ("uniform", "normal", "exponential", "semicircle", "arcsine")


@pytest.mark.parametrize(
    "family,params",
    [
        ("uniform", {"a": 1.0, "b": 1.0}),
        ("uniform", {"a": 2.0, "b": -1.0}),
        ("normal", {"stddev": 0.0}),
        ("normal", {"stddev": -2.0}),
        ("exponential", {"rate": 0.0}),
        ("semicircle", {"radius": -1.0}),
        ("uniform", {"scale": 3.0}),
        ("normal", {"nope": 1.0}),
        ("normal", {"stddev": math.inf}),
        ("normal", {"mean": math.nan}),
        ("uniform", {"a": -math.inf}),
        ("semicircle", {"center": math.nan}),
        ("normal", {"stddev": 1e-320}),
        ("uniform", {"a": 0.0, "b": 1e-310}),
    ],
)
def test_invalid_params_rejected(family, params):
    with pytest.raises(ValueError):
        DistributionSpec(family, params)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        DistributionSpec("cauchy")


def test_defaults_merged():
    s = DistributionSpec("normal", {"mean": 3.0})
    assert s.params["mean"] == 3.0
    assert s.params["stddev"] == 1.0


def test_spec_immutable(ref_specs):
    with pytest.raises(Exception):
        ref_specs["uniform"].family = "normal"  # type: ignore[misc]


def test_validated_params_stay_read_only():
    # a parameter changed after validation would reach pdf unchecked
    s = DistributionSpec("uniform")
    with pytest.raises(TypeError):
        s.params["b"] = -1.0  # type: ignore[index]
    assert s.params == {"a": 0.0, "b": 1.0}
    assert np.array_equal(pdf(s, [-0.5, 0.5]), [0.0, 1.0])


@pytest.mark.parametrize("family", ["uniform", "semicircle", "arcsine"])
def test_pdf_zero_outside_bounded_support(family, ref_specs):
    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    pad = 0.5 * (hi - lo)
    assert pdf(spec, lo - pad) == 0.0
    assert pdf(spec, hi + pad) == 0.0


def test_exponential_pdf_zero_left_of_origin(ref_specs):
    assert pdf(ref_specs["exponential"], -1e-12) == 0.0


@pytest.mark.parametrize("family", ["normal", "exponential"])
def test_truncated_tails_below_tolerances(family, ref_specs):
    # unbounded supports: mass beyond the effective bound is below every
    # downstream tolerance, which is what justifies truncating there
    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    assert pdf(spec, hi + 1.0) < 1e-14
    if family == "normal":
        assert pdf(spec, lo - 1.0) < 1e-14


def test_singular_endpoint_flags(ref_specs):
    for family, spec in ref_specs.items():
        assert has_singular_endpoint(spec) == (family == "arcsine")


def test_arcsine_endpoint_capped():
    spec = DistributionSpec("arcsine")
    assert pdf(spec, 0.0) == pytest.approx(1e12)
    assert pdf(spec, 1.0) == pytest.approx(1e12)
    assert np.isfinite(pdf(spec, 1e-9))


@pytest.mark.parametrize("family", FAMILIES)
def test_cdf_matches_closed_form(family, ref_specs):
    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    xs = np.linspace(lo, hi, 701)
    got = cdf(spec, xs)
    want = oracles.CDFS[family](xs)
    assert np.max(np.abs(got - want)) < 1e-12


@given(x=st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=60, deadline=None)
def test_normal_cdf_property(x):
    spec = DistributionSpec("normal")
    assert cdf(spec, x) == pytest.approx(0.5 * (1.0 + math.erf(x / math.sqrt(2.0))), abs=1e-14)


def test_normal_cdf_lower_tail_relative():
    # 1 + erf(z) cancels to nothing in the lower tail; erfc keeps every digit
    spec = DistributionSpec("normal", {"mean": 0.3, "stddev": 1.7})
    xs = 0.3 + 1.7 * np.linspace(-8.0, -1.0, 701)
    want = oracles.normal_cdf(xs, 0.3, 1.7)
    assert np.max(np.abs(cdf(spec, xs) - want) / want) < 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_median_closed_form(family, ref_specs):
    spec = ref_specs[family]
    m = median(spec)
    assert m == pytest.approx(oracles.MEDIANS[family], abs=1e-15)
    assert cdf(spec, m) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_cdf_derivative_matches_pdf(family, ref_specs):
    # d/dx cdf == pdf to relative error 1e-6 at interior points, meaning the
    # central quantile range; in the far tails the CDF differences fall below
    # float resolution and the quotient is pure roundoff
    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    dense = np.linspace(lo, hi, 20001)
    table = oracles.CDFS[family](dense)
    q05, q95 = np.interp([0.05, 0.95], table, dense)
    xs = np.linspace(q05, q95, 97)
    h = 1e-6 * (hi - lo)
    fd = (cdf(spec, xs + h) - cdf(spec, xs - h)) / (2.0 * h)
    f = pdf(spec, xs)
    rel = np.abs(fd - f) / np.abs(f)
    assert np.max(rel) < 1e-6


@pytest.mark.parametrize("family", FAMILIES)
def test_effective_support_captures_mass(family, ref_specs):
    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    assert cdf(spec, hi) - cdf(spec, lo) >= 1.0 - 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_pdf_integrates_to_one(family, ref_specs):
    # unit mass of the raw (pre-renormalization) pdf over the effective
    # support: by adaptive quadrature, which handles the integrable endpoint
    # singularities (QAGS extrapolation), and by Simpson on the node layout
    # the grid pipeline uses
    from scipy.integrate import quad

    from derangetropy import simpson

    spec = ref_specs[family]
    lo, hi = effective_support(spec)
    mass, _ = quad(lambda x: float(pdf(spec, x)), lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)
    n = 65537
    if has_singular_endpoint(spec):
        half = 0.5 * (hi - lo) / n
        xs = np.linspace(lo + half, hi - half, n)
    else:
        xs = np.linspace(lo, hi, n)
    layout_mass = simpson(pdf(spec, xs), float(xs[0]), float(xs[-1]))
    if family == "semicircle":
        # sqrt zeros at both ends put Simpson at O(h^1.5), 2.5e-8 short here;
        # the miss must be that leading term
        miss = oracles.semicircle_simpson_miss(float(xs[1] - xs[0]))
        assert layout_mass - 1.0 == pytest.approx(miss, rel=1e-4)
    else:
        # known failure: arcsine. Its half-step-inset layout leaves O(sqrt h)
        # of pole mass off the nodes, 3.5e-3 here, which renormalization in
        # the grid layer spreads over the interior (ROADMAP item 3)
        assert layout_mass == pytest.approx(1.0, abs=1e-9)


def test_truncation_tails_negligible():
    assert 1.0 - cdf(DistributionSpec("normal"), 8.0) < 1e-14
    assert 1.0 - cdf(DistributionSpec("exponential"), 40.0) < 1e-15


def test_parameterized_families():
    s = DistributionSpec("uniform", {"a": -2.0, "b": 4.0})
    assert median(s) == pytest.approx(1.0)
    assert pdf(s, 0.0) == pytest.approx(1.0 / 6.0)
    s = DistributionSpec("exponential", {"rate": 2.0})
    assert median(s) == pytest.approx(math.log(2.0) / 2.0)
    assert effective_support(s)[1] == pytest.approx(20.0)
    s = DistributionSpec("semicircle", {"radius": 3.0})
    assert effective_support(s) == (-3.0, 3.0)
    g = from_analytic(s, 513)
    assert integrate(g) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a,b", [(-3.0, 0.1), (-1.0, 1e-17)])
@pytest.mark.parametrize("family", ["uniform", "arcsine"])
def test_interval_families_keep_their_ends_exactly(family, a, b):
    # a + (b - a) rounds: to 0.10000000000000009 and to 0.0 for these ends,
    # so the support and the median must come from a and b themselves
    s = DistributionSpec(family, {"a": a, "b": b})
    assert effective_support(s) == (a, b)
    assert median(s) == (a + b) / 2
