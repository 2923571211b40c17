import dataclasses
import inspect
import math

import numpy as np
import pytest

from derangetropy import (
    CharFunction,
    DistributionSpec,
    GridDensity,
    TransformKind,
    cf_of_values,
    char_function,
    from_analytic,
    gaussian_convergence,
    iterate,
    modulated_char,
    t_operator,
    transform,
    transform_values,
    uniform_closed_form_cf,
)
from derangetropy import cli, spectral, transforms
from derangetropy.grid import mean_and_variance, simpson, simpson_weights
from derangetropy.spectral import (
    DEFAULT_SUP_TMAX,
    DEFAULT_TSTEP,
    MAX_HALF_COUNT,
    _cf_samples,
    _fft_length,
    _frequencies,
    rescaled_sup_distance,
    window_half_count,
)
from derangetropy.transforms import RESCALE_WINDOW_SIGMAS, _regrid, _window

import oracles

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")


# --- CharFunction container --------------------------------------------------


@pytest.mark.parametrize("tstep", [1.0, math.inf, math.tau * 1e10],
                         ids=["non-integer", "infinite", "zero-shifts-per-turn"])
def test_char_function_requires_commensurate_tstep(tstep):
    # every CF sits on the one lattice 2*pi/64, so no step can be passed, and
    # t_operator's shift by 2*pi is an offset of exactly 64 samples per side
    with pytest.raises(TypeError):
        CharFunction(tstep, np.ones(21, dtype=complex))
    assert math.tau / DEFAULT_TSTEP == 64.0
    phi = CharFunction(np.ones(2 * 65 + 1, dtype=complex))
    assert np.array_equal(t_operator(phi).ts, phi.ts[64:-64])


def test_char_function_requires_matching_count():
    # samples sit on the symmetric grid t = k*DEFAULT_TSTEP, k in [-K, K], so 2K+1 of them
    with pytest.raises(ValueError):
        CharFunction(np.ones(4, dtype=complex))


def test_char_function_frequency_grid():
    phi = char_function(from_analytic(DistributionSpec("uniform"), 129), tmax=4.0 * math.pi)
    ts = phi.ts
    assert ts[0] == -ts[-1]
    assert len(ts) == 2 * phi.half_count + 1
    assert ts[phi.half_count] == 0.0
    assert phi.at_zero() == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("kwargs", [{"tmax": math.inf}, {"tmax": math.nan}, {"tstep": math.inf},
                                    {"tmax": 0.0}, {"tstep": -DEFAULT_TSTEP}],
                         ids=["tmax-inf", "tmax-nan", "tstep-inf", "tmax-zero", "tstep-negative"])
def test_char_function_rejects_bad_window(kwargs):
    # only the window's half-width is a parameter; the step is not
    error, match = (TypeError, "tstep") if "tstep" in kwargs else (ValueError, "finite and positive")
    with pytest.raises(error, match=match):
        char_function(from_analytic(DistributionSpec("uniform"), 129), **kwargs)


def test_spectral_has_one_frequency_step():
    # every CF is sampled at DEFAULT_TSTEP: no function or class of the module
    # takes a step, and a CharFunction stores only its samples
    for name, obj in vars(spectral).items():
        if callable(obj) and getattr(obj, "__module__", None) == spectral.__name__:
            assert "tstep" not in inspect.signature(obj).parameters, name
    assert [f.name for f in dataclasses.fields(CharFunction)] == ["values"]


def test_window_half_count_is_capped():
    # checked before anything is allocated, so no window near the cap is built
    top = MAX_HALF_COUNT * DEFAULT_TSTEP
    assert window_half_count(top) == MAX_HALF_COUNT
    for tmax in ((MAX_HALF_COUNT + 1) * DEFAULT_TSTEP, 1e300):
        with pytest.raises(ValueError, match="exceeds the cap"):
            window_half_count(tmax)
        with pytest.raises(ValueError, match="exceeds the cap"):
            char_function(from_analytic(DistributionSpec("uniform"), 129), tmax=tmax)


def test_window_half_count_holds_a_nonzero_frequency():
    # one step is the narrowest window; a narrower one holds only t = 0
    assert window_half_count(DEFAULT_TSTEP) == 1
    for tmax in (0.05, 0.999 * DEFAULT_TSTEP):
        with pytest.raises(ValueError, match="below 1"):
            window_half_count(tmax)


# --- quadrature CFs -----------------------------------------------------------


def test_uniform_cf_matches_closed_form_oracle():
    g = from_analytic(DistributionSpec("uniform"), 4097)
    phi = char_function(g, tmax=20.0)
    want = oracles.uniform_cf(phi.ts)
    assert np.max(np.abs(phi.values - want)) < 1e-10


@pytest.mark.parametrize("family", FAMILIES)
def test_cf_hermitian_symmetry(family, ref_grids):
    phi = char_function(ref_grids[family], tmax=20.0)
    assert np.max(np.abs(phi.values[::-1] - np.conj(phi.values))) < 1e-9


@pytest.mark.parametrize("family", FAMILIES)
def test_cf_modulus_bounded(family, ref_grids):
    phi = char_function(ref_grids[family], tmax=20.0)
    assert np.max(np.abs(phi.values)) <= 1.0 + 1e-9


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sign", [1, -1])
def test_modulated_cf_vanishes_at_zero(family, sign, ref_grids):
    phi = modulated_char(ref_grids[family], sign, tmax=2.0 * math.pi)
    assert abs(phi.at_zero()) < 1e-6


def test_modulated_requires_unit_sign(ref_grids):
    with pytest.raises(ValueError):
        modulated_char(ref_grids["uniform"], 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_type3_cf_identity(family, registry):
    # phi_nu = phi_0 - (phi_F+ + phi_F-)/2 holds per quadrature node because
    # 2 sin^2(pi F) = 1 - cos(2 pi F) pointwise; only the arcsine's capped
    # pole nodes leave a visible gap
    (gap,) = [c.observed for c in registry if c.name == f"{family}/cf_identity_gap"]
    tol = 1e-4 if family == "arcsine" else 1e-5
    assert gap <= tol
    if family == "uniform":
        assert gap < 1e-12


# --- the CF routine against the dense sum --------------------------------------


def _sampled(k: int) -> np.ndarray:
    # at most 51 indices in [-k, k], ends and 0 included: the long-double dense
    # sum costs n exponentials per frequency
    return np.unique(np.rint(np.linspace(-k, k, min(2 * k + 1, 51))).astype(int)) + k


def _assert_cf_samples_match_dense_sum(g: GridDensity, k: int) -> None:
    weighted = simpson_weights(g.n, g.step) * g.values
    got = _cf_samples(weighted, g.lo, g.step, k)
    assert got.shape == (2 * k + 1,)
    idx = _sampled(k)
    ts = _frequencies(k)[idx]
    want = oracles.cf_direct(oracles.exact_nodes(g.lo, g.step, g.n), weighted, ts)
    assert np.max(np.abs(got[idx] - want)) <= 1e-13


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [0, 1, 51, 204, 2048])
def test_cf_samples_match_dense_sum(family, k, ref_grids):
    _assert_cf_samples_match_dense_sum(ref_grids[family], k)


@pytest.mark.parametrize("family", FAMILIES)
def test_cf_samples_match_dense_sum_at_length_without_factor_two(family, ref_specs):
    g = from_analytic(ref_specs[family], 16385)
    assert _fft_length(g.n + 2 * 50) == 16875  # 3**3 * 5**4
    _assert_cf_samples_match_dense_sum(g, 50)


def test_fft_length_is_smallest_5_smooth_at_least_m():
    for m in range(1, 5001):
        got = _fft_length(m)
        assert got == oracles.smallest_5_smooth_at_least(m), m
        assert got <= 1 << (m - 1).bit_length(), m


def _narrow_ramp() -> GridDensity:
    # a ramp 1e-9 wide at 0.5, the width of the iterated bump near step 30.
    # Its linspace nodes sit up to half an ulp of 0.5 off lo + j*h, 2e-4 of a
    # step, so a step taken from node differences dilates every phase; the
    # ramp is lopsided, so the dilation moves the CF at first order
    lo, hi, n = 0.5, 0.5 + 1e-9, 4097
    return GridDensity(lo, hi, np.linspace(0.0, 2.0, n) / (hi - lo))


def test_cf_of_narrow_grid_uses_nominal_step():
    g = _narrow_ramp()
    phi = char_function(g)
    idx = _sampled(phi.half_count)
    weighted = simpson_weights(g.n, g.step) * g.values
    want = oracles.cf_direct(oracles.exact_nodes(g.lo, g.step, g.n), weighted, phi.ts[idx])
    assert np.max(np.abs(phi.values[idx] - want)) <= 1e-13


def test_rescaled_sup_distance_of_narrow_grid_uses_nominal_step():
    # in standard units the step error is a dilation of the unit-variance CF,
    # which moves the sup distance at the 1e-5 level
    g = _narrow_ramp()
    mean, var = mean_and_variance(g)
    sd = math.sqrt(var)
    got = rescaled_sup_distance(g, mean, sd, DEFAULT_SUP_TMAX)
    ts = _frequencies(int(DEFAULT_SUP_TMAX / DEFAULT_TSTEP))
    ys = (oracles.exact_nodes(g.lo, g.step, g.n) - np.longdouble(mean)) / np.longdouble(sd)
    phi = oracles.cf_direct(ys, simpson_weights(g.n, g.step) * g.values, ts)
    want = float(np.max(np.abs(phi - np.exp(-0.5 * ts.astype(np.longdouble) ** 2))))
    assert got == pytest.approx(want, abs=1e-13)


# --- closed-form uniform CF ---------------------------------------------------


def test_closed_form_removable_points():
    ts = np.array([-2.0 * math.pi, 0.0, 2.0 * math.pi])
    vals = uniform_closed_form_cf(ts)
    assert vals[1] == pytest.approx(1.0, abs=0.0)
    assert vals[0] == pytest.approx(-0.5, abs=0.0)
    assert vals[2] == pytest.approx(-0.5, abs=0.0)


def test_closed_form_continuous_at_removable_points():
    eps = 1e-7
    for t0, want in ((0.0, 1.0), (2.0 * math.pi, -0.5), (-2.0 * math.pi, -0.5)):
        near = uniform_closed_form_cf(np.array([t0 - eps, t0 + eps]))
        assert np.max(np.abs(near - want)) < 1e-5


def test_closed_form_matches_quadrature_cf():
    g = from_analytic(DistributionSpec("uniform"), 4097)
    nu = transform_values(TransformKind.TYPE3, g)
    phi = cf_of_values(g, nu, 20.0)
    want = uniform_closed_form_cf(phi.ts)
    assert np.max(np.abs(phi.values - want)) <= 1e-6


# --- shift operator -----------------------------------------------------------


def test_t_operator_shrinks_window():
    g = from_analytic(DistributionSpec("uniform"), 513)
    phi = char_function(g)  # tmax = 64 pi
    one = t_operator(phi)
    assert one.tmax == pytest.approx(phi.tmax - 2.0 * math.pi)


def test_t_operator_needs_room():
    g = from_analytic(DistributionSpec("uniform"), 129)
    phi = char_function(g, tmax=2.0 * math.pi)
    with pytest.raises(ValueError):
        t_operator(phi)


def test_t_operator_matches_transform_cf_for_uniform(ref_grids, uniform_cf):
    # F(x) = x on the uniform grid, so the frequency shifts are exact and one
    # operator application must equal the CF of the raw type3 transform
    g = ref_grids["uniform"]
    phi = uniform_cf
    one = t_operator(phi)
    nu = transform_values(TransformKind.TYPE3, g)
    raw = cf_of_values(g, nu, one.tmax)
    assert np.max(np.abs(one.values - raw.values)) <= 1e-6


def test_t_operator_does_not_preserve_normalization(uniform_cf):
    two = t_operator(t_operator(uniform_cf))
    assert two.at_zero().real == pytest.approx(1.5, abs=1e-9)
    assert abs(two.at_zero().imag) < 1e-9


# --- Gaussianization dynamics ---------------------------------------------------


def test_convergence_diagnostics_zero_steps(ref_grids):
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], 0)
    assert d.steps == 0
    assert len(d.variance) == 1
    assert d.variance[0] == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_convergence_to_universal_attractor(ref_grids):
    # the rescaled iterates do not approach the Gaussian itself: the CF
    # sup-distance settles at a universal ~0.0150 for every starting law.
    # The exact gap to it shrinks 4x per step, so by n = 20 it is far below
    # what the grid resolves; compare gaps only above the oracle's floor
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], 30)
    assert d.steps == 30
    assert d.sup_distance[-1] == pytest.approx(oracles.ATTRACTOR_SUP_DISTANCE, abs=5e-5)
    assert oracles.settles_onto_attractor(d.sup_distance, start=10)


def test_convergence_attractor_from_above(ref_grids):
    # the exponential approaches the same constant from above
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["exponential"], 30)
    assert d.sup_distance[5] > oracles.ATTRACTOR_SUP_DISTANCE
    assert d.sup_distance[-1] == pytest.approx(oracles.ATTRACTOR_SUP_DISTANCE, abs=5e-5)


def test_convergence_variance_quarters(ref_grids):
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], 20)
    assert d.variance[1] == pytest.approx(oracles.UNIFORM_STEP1_VARIANCE, abs=1e-9)
    ratios = np.array(d.variance[10:20]) / np.array(d.variance[9:19])
    assert np.max(np.abs(ratios - 0.25)) < 1e-4


def test_convergence_median_pinned(ref_grids):
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["exponential"], 10)
    assert np.max(np.abs(np.array(d.median) - math.log(2.0))) < 1e-4


def test_convergence_rate_product_definition(ref_grids):
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], 6)
    for k in range(7):
        assert d.rate_product[k] == pytest.approx(
            2.0 * math.pi**2 * k * d.variance[k], rel=1e-12
        )


@pytest.mark.parametrize("family", FAMILIES)
def test_convergence_holds_attractor_to_sixty_steps(ref_grids, family):
    # iterates live in coordinates centred on the running mean, so the nodes
    # resolve the bump at any width and the gap to D* stays at the grid's floor
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids[family], 60)
    assert d.steps == 60
    gaps = np.abs(d.sup_distance[30:] - oracles.ATTRACTOR_SUP_DISTANCE)
    assert np.max(gaps) <= 2.5e-11


@pytest.mark.parametrize("family", ["exponential", "uniform"])
@pytest.mark.parametrize("kind", list(TransformKind), ids=[k.value for k in TransformKind])
def test_iterate_and_convergence_share_one_loop(ref_grids, family, kind, monkeypatch):
    # both run transforms.steps, so they report the same step 0 and compute
    # the same step 1 on the input grid; the convergence loop then hands that
    # step to the re-grid, which sees iterate's step-1 values and mean
    g = ref_grids[family]
    received = []
    real_regrid = transforms._regrid

    def regrid(density, mean, lo, hi):
        received.append((density, mean))
        return real_regrid(density, mean, lo, hi)

    monkeypatch.setattr(transforms, "_regrid", regrid)
    trace = iterate(kind, g, 1)
    assert received == []
    d = gaussian_convergence(kind, g, 1)
    assert d.variance[0] == trace.diagnostics[0].variance
    assert d.median[0] == trace.diagnostics[0].median
    ((density, mean),) = received
    assert (density.lo, density.hi, density.n) == (g.lo, g.hi, g.n)
    assert density.values.tobytes() == trace.steps[1].values.tobytes()
    assert mean == trace.diagnostics[1].mean


@pytest.mark.parametrize("mean, sd", [(0.1, 0.05), (0.5, 0.1)], ids=["inside", "to-upper-end"])
def test_regrid_reproduces_degree_five_polynomial(mean, sd):
    # the re-grid interpolates through six nodes, so a quintic density comes
    # back to rounding, on a window inside the old grid and on one reaching
    # its upper end (where the stencil moves inward)
    def quintic(x):
        return 3.0 + x - x**2 + 0.5 * x**3 + 0.25 * x**4 - 0.2 * x**5

    g = GridDensity(-1.0, 1.0, quintic(np.linspace(-1.0, 1.0, 129)))
    lo, hi = max(-1.0 - mean, -RESCALE_WINDOW_SIGMAS * sd), min(1.0 - mean, RESCALE_WINDOW_SIGMAS * sd)
    r = _regrid(g, mean, lo, hi)
    assert (r.lo, r.hi) == (lo, hi)
    expected = quintic(r.xs + mean)
    expected = expected / float(np.dot(simpson_weights(r.n, r.step), expected))
    assert np.max(np.abs(r.values - expected) / expected) <= 1e-13


@pytest.mark.parametrize("end_mass", [0.0, 1e-10], ids=["light-tails", "mass-next-to-a-zero-end"])
def test_regrid_window_on_a_light_tailed_bump(end_mass):
    # a Gaussian bump holds under 1e-32 of its mass past 12 sigma, so its
    # tails never widen the window. Its last node is 0, so with end_mass on
    # the node before it the tail summed from that end reads 0 at the end
    # node and end_mass one node in: the window must keep the end node, or
    # it cuts that panel off
    x = np.linspace(-1.0, 1.0, 4097)
    bump = np.exp(-0.5 * ((x - 0.1) / 0.02) ** 2)
    bump = bump / simpson(bump, -1.0, 1.0)
    bump[-2] = end_mass / simpson_weights(4097, x[1] - x[0])[-2]
    g = GridDensity(-1.0, 1.0, bump)
    mean, var = mean_and_variance(g)
    sd = math.sqrt(var)
    hi = 1.0 - mean if end_mass else RESCALE_WINDOW_SIGMAS * sd
    assert _window(g, mean, sd) == (-RESCALE_WINDOW_SIGMAS * sd, hi)


def test_regrid_window_keeps_the_exponential_step1_tail(ref_grids):
    # Type III maps the CDF by W(u) = u - sin(2 pi u)/(2 pi), so with
    # e = exp(-x) the step-1 mass beyond x is 1 - W(1 - e) = e - sin(2 pi e)/(2 pi).
    # At 12 sigma past the mean that is 9.9e-8; the window reaches on until
    # less than 1e-17 lies beyond it, and keeps the whole left end
    g = ref_grids["exponential"]
    one = transform(TransformKind.TYPE3, g)
    mean, var = mean_and_variance(one)
    sd = math.sqrt(var)
    lo, hi = _window(one, mean, sd)
    assert lo == g.lo - mean
    assert hi > RESCALE_WINDOW_SIGMAS * sd
    e = math.exp(-(mean + hi))
    assert e - math.sin(math.tau * e) / math.tau < 1e-17


@pytest.fixture(scope="module")
def exponential_runs(ref_grids, ref_specs):
    # thirty steps per kind from the exponential at 4097 nodes and at 16385
    grids = (ref_grids["exponential"], from_analytic(ref_specs["exponential"], 16385))
    return {(kind, g.n): gaussian_convergence(kind, g, 30) for kind in TransformKind for g in grids}


@pytest.mark.parametrize("kind", list(TransformKind), ids=[k.value for k in TransformKind])
def test_exponential_step1_variance_converges_to_its_law(exponential_runs, kind):
    # the window keeps the skewed step-1 tail, so the only error left is the
    # grid's, and it shrinks under refinement
    want = oracles.exponential_step1_variance(kind.value)
    coarse, fine = (abs(exponential_runs[kind, n].variance[1] / want - 1.0) for n in (4097, 16385))
    assert 16.0 * fine <= coarse


@pytest.mark.parametrize("kind", list(TransformKind), ids=[k.value for k in TransformKind])
def test_exponential_median_converges_to_ln2(exponential_runs, kind):
    # every kernel fixes the CDF value 1/2, so every step's median is ln 2;
    # median_of is O(h^3), so four times the nodes cut the error by 16 or more
    want = oracles.MEDIANS["exponential"]
    coarse, fine = (abs(exponential_runs[kind, n].median[30] - want) for n in (4097, 16385))
    assert 16.0 * fine <= coarse


def test_convergence_names_the_step_whose_variance_is_not_normal():
    # the variance quarters per step, so from the unit uniform it leaves the
    # normal floats at step 510; every row before that stays on the plateau
    g = from_analytic(DistributionSpec("uniform"), 129)
    d = gaussian_convergence(TransformKind.TYPE3, g, 509)
    assert np.max(np.abs(d.sup_distance[60:] - d.sup_distance[60])) <= 1e-13
    with pytest.raises(ValueError, match="step 510 "):
        gaussian_convergence(TransformKind.TYPE3, g, 510)
    # a point mass, and a source whose variance underflows, fail at step 0
    point = np.zeros(129)
    point[64] = 1.0
    tiny = from_analytic(DistributionSpec("exponential", {"rate": 1e307}), 129)
    for source in (GridDensity(-1.0, 1.0, point), tiny):
        with pytest.raises(ValueError, match="step 0 "):
            gaussian_convergence(TransformKind.TYPE3, source, 8)


def test_convergence_rejects_negative_steps(ref_grids):
    with pytest.raises(ValueError):
        gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], -1)


# --- serialization --------------------------------------------------------------


def test_diagnostics_csv_layout(ref_grids):
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids["uniform"], 2)
    lines = cli._diagnostics_csv(d).strip().split("\n")
    assert lines[0] == "n,variance,median,sup_distance,rate_product"
    assert len(lines) == 4
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_cf_csv_layout():
    g = from_analytic(DistributionSpec("uniform"), 129)
    phi = char_function(g, tmax=2.0 * math.pi)
    lines = cli._cf_csv(phi).strip().split("\n")
    assert lines[0] == "t,re,im"
    assert len(lines) == 2 + 2 * phi.half_count
    mid = lines[1 + phi.half_count].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(1.0, abs=1e-12)
