"""Acceptance gate: one test per criterion, one report line each.

Each test prints (and registers for the terminal summary) a single line
`criterion NN: PASS|FAIL - detail` before asserting, so the full scorecard is
always visible. Where the paper's claim and the exact dynamics differ (the
Type III iterates converge to a non-Gaussian limit law; the exponential's
two-step peak is not at its median), the criterion checks the dynamics the
code implements, against values derived independently in `oracles`. A red
line prints the quantity that explains it. Criteria 1 and 3-8 read the
observed values from the check registry that `dlab verify` reports
(`derangetropy.checks`) and keep their own expected values and bounds.
"""

import math

import numpy as np
import pytest

from derangetropy import (
    DistributionSpec,
    TransformKind,
    from_analytic,
    gaussian_convergence,
    log_derivative_grid,
    simpson,
    t_operator,
    transform,
    transform_values,
    uniform_closed_form_cf,
)

import oracles
from conftest import ACCEPTANCE_LINES

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")
KINDS = tuple(TransformKind)


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def registry_gap(registry, number, name, expected, bound):
    """|observed - expected| of one check in `derangetropy.checks`.

    The registry must state this criterion's expected value and a tolerance
    no looser than its bound, so loosening a gate there fails the criterion.
    """
    (check,) = [c for c in registry if c.name == name]
    if check.expected != expected or check.tolerance > bound:
        report(number, False, f"registry gate {name}: {check.expected!r} +- {check.tolerance!r},"
                              f" criterion states {expected!r} +- {bound!r}")
    return abs(check.observed - check.expected)


def test_criterion_01_normalization_constants(registry):
    e1 = registry_gap(registry, 1, "type1_normalizer", math.pi * math.e / 24.0, 1e-8)
    e2 = registry_gap(registry, 1, "type2_normalizer", math.pi / math.e, 1e-8)
    ok = e1 <= 1e-8 and e2 <= 1e-8
    report(1, ok, f"kernel normalizers at n=65537: |err| = {e1:.2e}, {e2:.2e} (tol 1e-8)")


def test_criterion_02_raw_transform_mass():
    # 15 cases: raw mass within 1e-4 at n=4097, improving >= 7.5x at n=8193.
    # The clause asks for at least third order, so the gate is one-sided:
    # where the source density vanishes at the ends (normal, and
    # exponential/type3) the integrand is smooth there and Simpson keeps its
    # fourth order, 16x. Elsewhere the Type I/II kernels carry a z^2 ln z term
    # at z = 0 and 1, which makes Simpson exactly third order (zeta(-2) = 0
    # removes the h^3 ln h term), so those ratios tend to 8 from either side:
    # 7.94x for uniform/type2, 8.49x for exponential/type1. 7.5 leaves room
    # below 8, and a second-order rule would give 4. When both errors sit at
    # the quadrature floor the ratio is noise, so a pair below 1e-12 counts as
    # converged.
    mass_bad, ratio_bad = [], []
    for family in FAMILIES:
        spec = DistributionSpec(family)
        for kind in KINDS:
            errs = {}
            for n in (4097, 8193):
                g = from_analytic(spec, n)
                errs[n] = abs(simpson(transform_values(kind, g), g.lo, g.hi) - 1.0)
            name = f"{family}/{kind.value}"
            if errs[4097] > 1e-4:
                mass_bad.append(f"{name} ({errs[4097]:.2e})")
            if errs[4097] <= 1e-12 and errs[8193] <= 1e-12:
                continue
            ratio = errs[4097] / errs[8193]
            if ratio < 7.5:
                ratio_bad.append(f"{name} ({ratio:.3f}x)")
    ok = not mass_bad and not ratio_bad
    detail = "all 15 raw masses within 1e-4"
    if mass_bad:
        detail = "mass over 1e-4: " + ", ".join(mass_bad)
    if ratio_bad:
        detail += "; improvement under 7.5x: " + ", ".join(ratio_bad)
    if any(bad.startswith("arcsine/") for bad in ratio_bad):
        g = from_analytic(DistributionSpec("arcsine"), 4097)
        off_grid = float(oracles.arcsine_cdf(g.xs[0]) + 1.0 - oracles.arcsine_cdf(g.xs[-1]))
        detail += (
            f"; arcsine: the half-step-inset grid leaves {off_grid:.2e} of pole mass"
            " off the nodes at n=4097 (O(sqrt h)), and kernel-weighted Simpson next"
            " to the poles converges only at O(h)"
        )
    report(2, ok, detail)


# initial-condition limits at F -> 0: 24/e and e, and (0, 0, 4 pi^2) for Type III
ODE_LIMITS = {
    "type1/drho_dF_at_0": 24.0 / math.e,
    "type2/dtau_dF_at_0": math.e,
    "type3/nu_at_0": 0.0,
    "type3/dnu_dF_at_0": 0.0,
    "type3/d2nu_dF2_at_0": 4.0 * math.pi**2,
}


def test_criterion_03_ode_residuals(registry):
    worst_resid = max(registry_gap(registry, 3, f"{k.value}/max_abs_residual", 0.0, 1e-8) for k in KINDS)
    worst_ic = 0.0
    for name, expected in ODE_LIMITS.items():
        scale = max(abs(expected), 1.0)
        worst_ic = max(worst_ic, registry_gap(registry, 3, name, expected, 1e-4 * scale) / scale)
    ok = worst_resid <= 1e-8 and worst_ic <= 1e-4
    report(3, ok, f"max residual {worst_resid:.2e} (tol 1e-8), worst IC rel err {worst_ic:.2e} (tol 1e-4)")


def test_criterion_04_cf_decomposition(registry):
    bounds = {f: 1e-4 if f == "arcsine" else 1e-5 for f in FAMILIES}
    gaps = {f: registry_gap(registry, 4, f"{f}/cf_identity_gap", 0.0, bounds[f]) for f in FAMILIES}
    ok = all(gaps[f] <= bounds[f] for f in FAMILIES)
    worst = max(gaps, key=gaps.get)
    report(4, ok, f"identity gap on |t|<=20: worst {worst} {gaps[worst]:.2e} (tol 1e-5, arcsine 1e-4)")


def test_criterion_05_uniform_closed_form_cf(registry):
    gap = registry_gap(registry, 5, "uniform/closed_form_match", 0.0, 1e-6)
    removable = uniform_closed_form_cf(np.array([0.0, 2.0 * math.pi, -2.0 * math.pi]))
    limits_ok = np.allclose(removable, [1.0, -0.5, -0.5], atol=0.0, rtol=0.0)
    ok = gap <= 1e-6 and limits_ok
    report(5, ok, f"closed-form CF gap {gap:.2e} (tol 1e-6); removable limits (1,-0.5,-0.5) exact: {limits_ok}")


def test_criterion_06_shift_operator_consistency(registry, uniform_cf):
    gap = registry_gap(registry, 6, "uniform/t_operator_vs_raw_cf", 0.0, 1e-6)
    # the registry gates only the real part of phi_2(0); the literal below
    # takes the complex value
    registry_gap(registry, 6, "uniform/t_operator_twice_at_zero", 1.5, 1e-9)
    two_at_zero = t_operator(t_operator(uniform_cf)).at_zero()
    literal = abs(two_at_zero - 1.5)
    ok = gap <= 1e-6 and literal <= 1e-9
    report(6, ok, f"one application vs transform CF: {gap:.2e} (tol 1e-6); phi_2(0) = 1.5 off by {literal:.1e}")


def test_criterion_07_type3_closed_form_cdf(registry):
    worst_gap = max(registry_gap(registry, 7, f"{f}/type3_closed_cdf_gap", 0.0, 1e-6) for f in FAMILIES)
    worst_med = max(registry_gap(registry, 7, f"{f}/type3/cdf_at_median", 0.5, 1e-4) for f in FAMILIES)
    ok = worst_gap <= 1e-6 and worst_med <= 1e-4
    report(7, ok, f"F - sin(2 pi F)/(2 pi) gap {worst_gap:.2e} (tol 1e-6); median drift {worst_med:.2e} (tol 1e-4)")


def test_criterion_08_median_preservation(registry):
    worst = max(
        registry_gap(registry, 8, f"{f}/{kind}/cdf_at_median", 0.5, 1e-4)
        for f in FAMILIES
        for kind in ("type1", "type2")
    )
    ok = worst <= 1e-4
    report(8, ok, f"|CDF(median) - 1/2| after type1/type2: worst {worst:.2e} (tol 1e-4)")


def test_criterion_09_gaussianization(ref_grids):
    # The rescaled iterates converge to the universal Type III limit law, not
    # to the Gaussian, so the sup distance tends to the nonzero oracle D*.
    # The gap |d_n - D*| must strictly decrease for n >= 5 while it is above
    # the oracle's resolution floor, and stay within the floor after.
    final, final_gap, settle_bad = {}, {}, []
    var1 = None
    for family in FAMILIES:
        d = gaussian_convergence(TransformKind.TYPE3, ref_grids[family], 30)
        final[family] = d.sup_distance[-1]
        final_gap[family] = abs(d.sup_distance[-1] - oracles.ATTRACTOR_SUP_DISTANCE)
        if family == "uniform":
            var1 = d.variance[1]
        if not oracles.settles_onto_attractor(d.sup_distance, start=5):
            settle_bad.append(family)
    bound_ok = all(v <= 0.05 for v in final.values())
    var_ok = abs(var1 - oracles.UNIFORM_STEP1_VARIANCE) <= 1e-5
    ok = bound_ok and var_ok and not settle_bad
    floor = oracles.ATTRACTOR_GAP_FLOOR
    worst = max(final_gap, key=final_gap.get)
    detail = (
        f"sup distance at n=30 worst {max(final.values()):.4f} (tol 0.05); "
        f"gap to the limit D* = {oracles.ATTRACTOR_SUP_DISTANCE:.10f} at n=30 worst "
        f"{worst} {final_gap[worst]:.1e} (tol {floor:.0e}); "
        f"step-1 uniform variance off by {abs(var1 - oracles.UNIFORM_STEP1_VARIANCE):.1e} (tol 1e-5)"
    )
    if settle_bad:
        detail += (
            "; gap to D* does not shrink strictly for n >= 5 down to "
            f"{floor:.0e} and stay there in " + ", ".join(settle_bad)
        )
    report(9, ok, detail)


def test_criterion_10_figure_signatures(ref_grids):
    problems = []

    # figure 1: arcsine under type1 dips at the center and sheds pole mass
    g = ref_grids["arcsine"]
    t1 = transform(TransformKind.TYPE1, g)
    interior = (g.xs >= 0.1) & (g.xs <= 0.9)
    argmin_x = float(g.xs[interior][np.argmin(t1.values[interior])])
    if abs(argmin_x - 0.5) > g.step:
        problems.append(f"arcsine/type1 interior minimum at {argmin_x:.4f}")
    if not (t1.values[0] < g.values[0] and t1.values[-1] < g.values[-1]):
        problems.append("arcsine/type1 boundary mass not depressed")

    t2 = transform(TransformKind.TYPE2, g)
    argmax_x = float(g.xs[np.argmax(t2.values)])
    if abs(argmax_x - 0.5) > g.step:
        problems.append(f"arcsine/type2 argmax at {argmax_x:.4f}")

    gu = ref_grids["uniform"]
    r = transform(TransformKind.TYPE1, gu)
    peak = float(np.max(r.values))
    if abs(peak - 1.4052) > 1e-4:
        problems.append(f"uniform/type1 peak {peak:.5f}")

    # figure 2: nu2 unimodal with argmax at the exact maximiser +- one step:
    # the source median for the symmetric families; for the exponential the
    # skewed source moves it about four steps below ln 2
    for family in FAMILIES:
        g = ref_grids[family]
        nu2 = transform(TransformKind.TYPE3, transform(TransformKind.TYPE3, g))
        i = int(np.argmax(nu2.values))
        target = oracles.NU2_ARGMAX[family]
        off = abs(float(g.xs[i]) - target)
        if off > g.step * (1.0 + 1e-12):
            problems.append(f"{family}/nu2 argmax {off / g.step:.1f} steps from the exact {target:.6f}")
        rising = np.all(np.diff(nu2.values[: i + 1]) >= -1e-12)
        falling = np.all(np.diff(nu2.values[i:]) <= 1e-12)
        if not (rising and falling):
            problems.append(f"{family}/nu2 not unimodal")

    ok = not problems
    report(10, ok, "all figure signatures hold" if ok else "; ".join(problems))


def test_criterion_11_derivative_formulas():
    worst = 0.0
    for family in FAMILIES:
        g = from_analytic(DistributionSpec(family), 65537)
        F = g.cdf
        for kind in KINDS:
            xs, got = log_derivative_grid(kind, g)
            out = transform(kind, g)
            logt = np.log(np.where(out.values > 0, out.values, 1.0))
            fd = (logt[2:] - logt[:-2]) / (2.0 * g.step)
            fvals = F[1:-1]
            fullkeep = (
                (fvals > 0) & (fvals < 1) & (g.values[1:-1] > 0)
                & (g.values[:-2] > 0) & (g.values[2:] > 0)
            )
            sel = (fvals[fullkeep] >= 0.05) & (fvals[fullkeep] <= 0.95)
            rel = np.abs(got[sel] - fd[fullkeep][sel]) / np.maximum(np.abs(fd[fullkeep][sel]), 1.0)
            worst = max(worst, float(np.max(rel)))
    ok = worst <= 1e-4
    report(11, ok, f"log-derivative vs central differences on F in [0.05,0.95]: worst rel {worst:.2e} (tol 1e-4)")
