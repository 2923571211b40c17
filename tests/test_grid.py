import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derangetropy import (
    DistributionSpec,
    GridDensity,
    TransformKind,
    cumulative_simpson,
    format_value,
    from_analytic,
    integrate,
    median,
    median_of,
    moment,
    simpson,
    transform,
    variance,
)
from derangetropy.grid import csv_rows
from derangetropy.transforms import bernoulli_entropy

import oracles

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")


# --- simpson ---------------------------------------------------------------


@given(
    c=st.tuples(*[st.floats(min_value=-5, max_value=5) for _ in range(4)]),
    hi=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=50, deadline=None)
def test_simpson_exact_on_cubics(c, hi):
    c0, c1, c2, c3 = c
    xs = np.linspace(0.0, hi, 129)
    vals = c0 + c1 * xs + c2 * xs**2 + c3 * xs**3
    truth = c0 * hi + c1 * hi**2 / 2 + c2 * hi**3 / 3 + c3 * hi**4 / 4
    assert simpson(vals, 0.0, hi) == pytest.approx(truth, abs=1e-10, rel=1e-12)


def test_simpson_fourth_order_on_smooth_integrand():
    # halving h must cut the error by at least 8x; for C^4 integrands the
    # observed factor is ~16
    errs = []
    for n in (257, 513, 1025, 2049):
        xs = np.linspace(0.0, 4.0, n)
        errs.append(abs(simpson(np.exp(xs), 0.0, 4.0) - (math.exp(4.0) - 1.0)))
    for a, b in zip(errs, errs[1:]):
        assert a / b >= 8.0
        assert a / b == pytest.approx(16.0, abs=1.0)


@pytest.mark.parametrize(
    "truth,sign",
    [(math.pi * math.e / 24.0, -1.0), (math.pi / math.e, +1.0)],
    ids=["entropy-damped", "entropy-amplified"],
)
def test_simpson_order_on_normalizer_integrands(truth, sign):
    # the two kernel normalizer integrands, z in [0,1]. Near each endpoint
    # sin(pi z) exp(+-H(z)) = pi z -+ pi z^2 ln z + ..., so composite Simpson
    # loses its fourth order. By the Euler-Maclaurin expansion for z^2 ln z
    # (Lyness & Ninham 1967) the h^3 ln h term carries zeta(-2) = 0, which
    # leaves an error of exactly third order: halving h cuts it by a factor
    # tending to 8, from below for the amplified integrand (7.93, 7.96, 7.98)
    # and from above for the damped one (8.07, 8.04, 8.03). A second-order
    # rule would give 4. Absolute errors are ~1e-13 by n=8193 either way, far
    # below the 1e-8 the normalizer check needs.
    errs = []
    for n in (1025, 2049, 4097, 8193):
        z = np.linspace(0.0, 1.0, n)
        vals = np.sin(np.pi * z) * np.exp(sign * bernoulli_entropy(z))
        errs.append(abs(simpson(vals, 0.0, 1.0) - truth))
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(8.0, abs=0.5)


def test_normalizer_quadrature_matches_adaptive_oracle():
    z = np.linspace(0.0, 1.0, 65537)
    h = bernoulli_entropy(z)
    got1 = simpson(np.sin(np.pi * z) * np.exp(-h), 0.0, 1.0)
    got2 = simpson(np.sin(np.pi * z) * np.exp(h), 0.0, 1.0)
    # quad's own endpoint handling limits it to ~2e-12 on these integrands
    assert got1 == pytest.approx(oracles.quad_type1_constant(), abs=5e-12)
    assert got2 == pytest.approx(oracles.quad_type2_constant(), abs=5e-12)


# --- cumulative simpson ----------------------------------------------------


def test_cumulative_simpson_matches_antiderivative():
    n = 1025
    xs = np.linspace(0.0, 2.0, n)
    cum = cumulative_simpson(np.exp(xs), float(xs[1] - xs[0]))
    truth = np.exp(xs) - 1.0
    assert cum[0] == 0.0
    assert np.max(np.abs(cum - truth)) < 1e-11


def test_cumulative_simpson_endpoint_equals_total():
    rng = np.random.default_rng(7)
    vals = rng.random(513) + 0.1
    cum = cumulative_simpson(vals, 0.01)
    assert cum[-1] == pytest.approx(simpson(vals, 0.0, 0.01 * 512), rel=1e-13)


def test_cdf_of_monotone_on_adversarial_density():
    # the half-panel rule can locally produce a decreasing cumulative value
    # on rough data; the grid CDF must still be nondecreasing
    vals = np.zeros(129)
    vals[2] = 1.0
    vals[-1] = 1.0
    g = GridDensity(0.0, 1.0, vals)
    c = g.cdf
    assert np.all(np.diff(c) >= 0.0)
    assert c[-1] == 1.0


# --- grid types ------------------------------------------------------------


@pytest.mark.parametrize(
    "n,lo,hi,bad",
    [
        (128, 0.0, 1.0, "even"),
        (127, 0.0, 1.0, "too few"),
        (129, 1.0, 1.0, "empty interval"),
        (129, 2.0, 1.0, "reversed"),
        (129, 1.0, 1.0 + 1e-14, "nodes collapse"),
        (129, 0.0, math.inf, "infinite hi"),
        (129, -math.inf, 0.0, "infinite lo"),
        (129, -1e308, 1e308, "span overflows"),
        (129, math.nan, 1.0, "nan lo"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_grid_density_shape_validation(n, lo, hi, bad):
    with pytest.raises(ValueError):
        GridDensity(lo, hi, np.ones(n))


def test_grid_density_value_validation():
    vals = np.ones(129)
    vals[3] = -1e-9
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, vals)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridDensity(0.0, 1.0, vals)


def test_grid_density_defensive_copy():
    vals = np.ones(129)
    g = GridDensity(0.0, 1.0, vals)
    vals[0] = 5.0
    assert g.values[0] == 1.0
    with pytest.raises(ValueError):
        g.values[0] = 7.0  # read-only view


def test_grid_density_compares_and_hashes_by_identity():
    g = GridDensity(0.0, 1.0, np.ones(129))
    twin = GridDensity(g.lo, g.hi, g.values)
    assert (twin == g) is False
    assert g == g
    assert hash(g) == hash(g)
    assert len({g, twin}) == 2


def test_grid_properties():
    g = GridDensity(-1.0, 1.0, np.ones(257))
    assert g.n == 257
    assert g.step == pytest.approx(2.0 / 256)
    assert g.xs[0] == -1.0 and g.xs[-1] == 1.0


# --- from_analytic ---------------------------------------------------------


def test_uniform_grid_is_flat_and_inclusive():
    g = from_analytic(DistributionSpec("uniform"), 4097)
    assert g.lo == 0.0 and g.hi == 1.0
    assert np.max(np.abs(g.values - 1.0)) < 1e-12


def test_normal_grid_spans_truncation_bounds():
    g = from_analytic(DistributionSpec("normal"), 513)
    assert g.lo == -8.0 and g.hi == 8.0
    assert integrate(g) == pytest.approx(1.0, abs=1e-13)


def test_arcsine_grid_inset_keeps_values_finite():
    spec = DistributionSpec("arcsine")
    g = from_analytic(spec, 4097)
    assert 0.0 < g.lo < g.hi < 1.0
    # inset is half of one step
    assert g.lo == pytest.approx(0.5 * (g.hi + g.lo) / 4097, rel=0.5)
    assert np.all(np.isfinite(g.values))
    assert np.max(g.values) < 1e12
    assert integrate(g) == pytest.approx(1.0, abs=1e-13)


# each family's scale parameter at 2**k; the exponential's rate is its inverse
SCALE_PARAMS = {
    "uniform": lambda s: {"a": 0.0, "b": s},
    "normal": lambda s: {"stddev": s},
    "exponential": lambda s: {"rate": 1.0 / s},
    "semicircle": lambda s: {"radius": s},
    "arcsine": lambda s: {"a": 0.0, "b": s},
}


@pytest.mark.parametrize("k", [-500, -40, 40])
@pytest.mark.parametrize("family", FAMILIES)
def test_grid_layer_is_scale_equivariant(family, k, ref_grids):
    # scaling x by a power of two is exact in floating point, so the layout,
    # the CDF, the three transforms and the median must scale exactly too
    s = 2.0**k
    unit = ref_grids[family]
    g = from_analytic(DistributionSpec(family, SCALE_PARAMS[family](s)), unit.n)
    assert np.array_equal(g.xs, unit.xs * s)
    assert np.array_equal(g.values, unit.values / s)
    assert np.array_equal(g.cdf, unit.cdf)
    for kind in TransformKind:
        assert np.array_equal(transform(kind, g).values, transform(kind, unit).values / s)
    assert median_of(g) == median_of(unit) * s


def test_grid_size_validation():
    with pytest.raises(ValueError):
        from_analytic(DistributionSpec("uniform"), 4096)
    with pytest.raises(ValueError):
        from_analytic(DistributionSpec("uniform"), 65)


# --- CDF / median / moments -------------------------------------------------


def test_uniform_cdf_is_identity():
    g = from_analytic(DistributionSpec("uniform"), 517 * 2 - 1 + 64)  # odd, >= 129
    c = g.cdf
    assert np.max(np.abs(c - g.xs)) < 1e-13
    assert c[0] == 0.0 and c[-1] == 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_grid_cdf_tracks_closed_form(family, ref_grids):
    g = ref_grids[family]
    c = g.cdf
    want = oracles.CDFS[family](g.xs)
    # arcsine: the inset grid misses O(sqrt h) of pole mass (7e-3 here);
    # semicircle: sqrt endpoint zeros hold cumulative Simpson at ~1e-6
    tol = {"arcsine": 1e-2, "semicircle": 5e-6}.get(family, 1e-9)
    assert np.max(np.abs(c - want)) < tol


@pytest.mark.parametrize("family", FAMILIES)
def test_median_of_matches_closed_form(family, ref_grids):
    tol = 1e-4 if family == "arcsine" else 1e-7
    assert median_of(ref_grids[family]) == pytest.approx(
        oracles.MEDIANS[family], abs=tol
    )


@st.composite
def adversarial_densities(draw):
    """(lo, hi, values) on 129 nodes: a span from 1e-300 to 1e300 carrying
    either a few sparse spikes or a heavy-tailed bump up to 1e12 times
    narrower than the span, at magnitudes up to 1e+-300 that keep the mass a
    normal float."""
    span_exp = draw(st.integers(-300, 300))
    span = 10.0**span_exp
    lo = draw(st.sampled_from([0.0, -0.5, -1.0, 2.0])) * span
    value_exp = st.integers(max(-300, -290 - span_exp), min(300, 290 - span_exp))
    if draw(st.booleans()):
        vals = np.zeros(129)
        for j in draw(st.lists(st.integers(0, 128), min_size=1, max_size=5, unique=True)):
            vals[j] = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(value_exp)
    else:
        u = np.linspace(0.0, 1.0, 129)
        width = 10.0 ** draw(st.integers(-12, 0))
        shape = (1.0 + ((u - draw(st.floats(0.0, 1.0))) / width) ** 2) ** -draw(st.sampled_from([0.5, 1.0, 2.0]))
        vals = 10.0 ** draw(value_exp) * shape / shape.max()
    return lo, lo + span, vals


# spikes at odd nodes 3 and 101 put F[50] 4e-12 below 1/2, and node 51 holds
# a subnormal: b = 0 there and 4ac underflows, so disc is exactly 0 and only
# the linear fallback is left
_UNDERFLOWING_DISCRIMINANT = np.zeros(129)
_UNDERFLOWING_DISCRIMINANT[[3, 51, 101]] = [1e-303, 4e-314, 1e-303 * (1 + 1.6e-11) - 4e-314]


@given(grid=adversarial_densities())
@example(grid=(0.0, 128.0, _UNDERFLOWING_DISCRIMINANT))
@settings(max_examples=300, deadline=None)
def test_median_of_stays_in_its_bracket(grid):
    # the facts median_of relies on instead of guards: F starts at exactly 0
    # and ends at exactly 1, so the node i where F reaches 1/2 has a
    # predecessor with F below 1/2, and the median lies between the two
    g = GridDensity(*grid)
    F, xs = g.cdf, g.xs
    assert F[0] == 0.0 and F[-1] == 1.0
    i = int(np.searchsorted(F, 0.5))
    assert 1 <= i < g.n
    assert F[i - 1] < 0.5 <= F[i]
    assert xs[i - 1] <= median_of(g) <= xs[i]


@pytest.mark.parametrize("family", ["uniform", "normal", "exponential", "semicircle"])
def test_variance_matches_closed_form(family, ref_grids):
    tol = 1e-5 if family == "semicircle" else 1e-8
    assert variance(ref_grids[family]) == pytest.approx(oracles.VARIANCES[family], abs=tol)


def test_moment_orders():
    g = from_analytic(DistributionSpec("uniform"), 257)
    assert moment(g, 1) == pytest.approx(0.5, abs=1e-14)
    assert moment(g, 2) == pytest.approx(1.0 / 3.0, abs=1e-14)
    with pytest.raises(ValueError):
        moment(g, 3)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("stat", ["moment1", "moment2", "median"])
def test_statistics_invariant_under_refinement(family, stat):
    # n=2049 vs n=8193 within 1e-5. Known failure: arcsine moment2, where the
    # inset grid's missing pole mass moves the second moment by ~1.3e-3
    # between these sizes (the deficit scales like sqrt(h))
    spec = DistributionSpec(family)
    fns = {
        "moment1": lambda g: moment(g, 1),
        "moment2": lambda g: moment(g, 2),
        "median": median_of,
    }
    vals = [fns[stat](from_analytic(spec, n)) for n in (2049, 8193)]
    assert abs(vals[0] - vals[1]) <= 1e-5


# --- serialization ---------------------------------------------------------


@given(v=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_value_round_trips(v):
    assert float(format_value(v)) == v


def test_csv_rows_matches_row_by_row_format():
    steps = np.arange(6)
    names = ["a", "b", "c", "d", "e", "f"]
    x = np.array([-0.0, math.inf, math.nan, 5e-324, 1e300, 0.1])
    y = -x[::-1]
    rows = zip(steps.tolist(), names, x.tolist(), y.tolist())
    expected = "".join(f"{k:.17g},{name},{u:.17g},{v:.17g}\n" for k, name, u, v in rows)
    assert csv_rows(steps, names, x, y) == expected
    assert expected.startswith("0,a,-0,-0.10000000000000001\n1,b,inf,-1.0000000000000001e+300\n"
                               "2,c,nan,-4.9406564584124654e-324\n")


# +-0, the subnormal ends, +-inf and quiet and signalling NaNs of either sign,
# which arbitrary bit patterns rarely reach, go into every example
_SPECIAL_FLOATS = np.array(
    [0, 1 << 63, 1, (1 << 52) - 1, 0x7FF0 << 48, 0xFFF0 << 48,
     0x7FF8 << 48, 0xFFF8 << 48, (0x7FF0 << 48) + 1, (0xFFF0 << 48) + 1],
    dtype=np.uint64,
).view(np.float64)


@given(raw=st.binary(max_size=8 * 64))
@settings(max_examples=200, deadline=None)
def test_csv_rows_batched_bytes_match_per_cell_format(raw):
    # float64 columns from arbitrary bit patterns, with a string column between
    drawn = np.frombuffer(raw[: len(raw) // 8 * 8], dtype=np.float64)
    x = np.concatenate([_SPECIAL_FLOATS, drawn])
    y = x[::-1].copy()
    names = [("", "a", "%s", "%.17g", "b,c")[i % 5] for i in range(x.shape[0])]
    expected = "".join(f"{a:.17g},{name},{b:.17g}\n" for a, name, b in zip(x.tolist(), names, y.tolist()))
    assert csv_rows(x, names, y) == expected
