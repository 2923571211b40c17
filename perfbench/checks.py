"""Output checkers with references computed here, not by the package.

Every reference is a closed form written out in this file (numpy and math
only), and every gate is one the repository already enforces in `dlab verify`
or its acceptance tests. A check records the deviation |observed - reference|
and its gate, so `deviation / gate` says how much accuracy headroom is left.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Check:
    name: str
    deviation: float
    gate: float
    # False for checks whose observed value is fixed by the mathematics rather
    # than by discretisation (the Type III attractor sits at sup distance
    # 0.014985 for every correct implementation), so they carry no headroom.
    headroom: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.gate)

    @property
    def ratio(self) -> float:
        return self.deviation / self.gate


def flag(name: str, ok: bool) -> Check:
    """A yes/no structural check; it gates but carries no headroom."""
    return Check(name, 0.0 if ok else math.inf, 0.0, headroom=False)


# --- closed forms -------------------------------------------------------------


def source_cdf(family: str, params: dict[str, float], x):
    """CDF of the source law, with the default parameters of each family."""
    x = np.asarray(x, dtype=float)
    if family in ("uniform", "arcsine"):
        a, b = params.get("a", 0.0), params.get("b", 1.0)
        z = np.clip((x - a) / (b - a), 0.0, 1.0)
        return z if family == "uniform" else 2.0 / math.pi * np.arcsin(np.sqrt(z))
    if family == "normal":
        z = (x - params.get("mean", 0.0)) / params.get("stddev", 1.0)
        return 0.5 * np.vectorize(math.erfc)(-z / math.sqrt(2.0))
    if family == "exponential":
        return -np.expm1(-params.get("rate", 1.0) * np.maximum(x, 0.0))
    if family == "semicircle":
        u = np.clip((x - params.get("center", 0.0)) / params.get("radius", 1.0), -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi
    raise ValueError(f"unknown family {family!r}")


def w_map(u):
    """One Type III step acts on the CDF as W(u) = u - sin(2 pi u)/(2 pi)."""
    return u - np.sin(TAU * u) / TAU


def uniform_cf(t):
    """CF of uniform(0, 1): (e^{it} - 1)/(it) = sinc + i t/2 sinc(t/2)^2.

    Written with np.sinc so it is exact at t = 0 without a series branch.
    """
    t = np.asarray(t, dtype=float)
    return np.sinc(t / math.pi) + 1j * (t / 2.0) * np.sinc(t / TAU) ** 2


def shift(phi):
    """The Type III frequency-shift operator on a CF given as a function."""
    return lambda t: phi(t) - 0.5 * (phi(t + TAU) + phi(t - TAU))


UNIFORM_STEP1_VARIANCE = 1.0 / 12.0 - 1.0 / (2.0 * math.pi**2)


# --- dlab verify --suite all --------------------------------------------------

FAMILIES = ("uniform", "normal", "exponential", "semicircle", "arcsine")
KINDS = ("type1", "type2", "type3")


def _ic(expected: float) -> tuple[float, float]:
    return expected, 1e-4 * max(abs(expected), 1.0)


def verify_references() -> dict[str, tuple[float, float]]:
    """Name -> (expected, gate) for all 69 checks of `dlab verify --suite all`."""
    ref: dict[str, tuple[float, float]] = {
        "type1_normalizer": (math.pi * math.e / 24.0, 1e-8),
        "type2_normalizer": (math.pi / math.e, 1e-8),
        "type1/drho_dF_at_0": _ic(24.0 / math.e),
        "type2/dtau_dF_at_0": _ic(math.e),
        "type3/nu_at_0": _ic(0.0),
        "type3/dnu_dF_at_0": _ic(0.0),
        "type3/d2nu_dF2_at_0": _ic(4.0 * math.pi**2),
        "uniform/closed_form_match": (0.0, 1e-6),
        "uniform/t_operator_vs_raw_cf": (0.0, 1e-6),
        "uniform/t_operator_twice_at_zero": (1.5, 1e-9),
        "uniform/step1_variance": (UNIFORM_STEP1_VARIANCE, 1e-5),
    }
    for kind in KINDS:
        ref[f"{kind}/max_abs_residual"] = (0.0, 1e-8)
    for fam in FAMILIES:
        ref[f"{fam}/cf_identity_gap"] = (0.0, 1e-4 if fam == "arcsine" else 1e-5)
        ref[f"{fam}/modulated_plus_at_zero"] = (0.0, 1e-6)
        ref[f"{fam}/modulated_minus_at_zero"] = (0.0, 1e-6)
        ref[f"{fam}/type3_closed_cdf_gap"] = (0.0, 1e-6)
        ref[f"{fam}/sup_distance_at_30"] = (0.0, 0.05)
        for kind in KINDS:
            ref[f"{fam}/{kind}/raw_integral"] = (1.0, 1e-4)
            ref[f"{fam}/{kind}/cdf_at_median"] = (0.5, 1e-4)
    return ref


def check_verify_report(path: Path) -> list[Check]:
    report = json.loads(path.read_text())
    refs = verify_references()
    seen = {c["name"]: c for c in report["checks"]}
    out = [
        flag("verify/passed", report["passed"] is True),
        flag("verify/check_count", len(report["checks"]) == len(refs) == len(seen)),
    ]
    for name, (expected, gate) in refs.items():
        c = seen.get(name)
        if c is None:
            out.append(flag(f"verify/{name}/present", False))
            continue
        # the report must state the same reference and no looser tolerance
        agrees = abs(c["expected"] - expected) <= 1e-12 * max(abs(expected), 1.0) and c["tolerance"] <= gate
        out.append(flag(f"verify/{name}/reference", agrees))
        out.append(Check(f"verify/{name}", abs(c["observed"] - expected), gate,
                         headroom=not name.endswith("sup_distance_at_30")))
    return out


# --- dlab iterate -------------------------------------------------------------

TRACE_INTEGRAL_GATE = 1e-4
MEDIAN_CDF_GATE = 1e-4
TYPE3_CDF_GATE = 1e-6


def check_trace(csv_path: Path, family: str, params: dict[str, float], kind: str,
                steps: int, nodes: int) -> list[Check]:
    """Trace CSV `step,x,f,F` plus its diagnostics sidecar against closed forms."""
    tag = f"iterate/{family}/{kind}"
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    out = [flag(f"{tag}/rows", data.shape == ((steps + 1) * nodes, 4))]
    if not out[0].passed:
        return out
    step, x, F = (data[:, j].reshape(steps + 1, nodes) for j in (0, 1, 3))
    x0 = x[0]
    lo, hi = source_support(family, params)
    slack = 1e-12 * (hi - lo)
    out += [
        flag(f"{tag}/step_column", bool(np.all(step == np.arange(steps + 1)[:, None]))),
        flag(f"{tag}/shared_grid", bool(np.all(x == x0)) and bool(np.all(np.diff(x0) > 0))
             and lo - slack <= x0[0] and x0[-1] <= hi + slack),
        flag(f"{tag}/cdf_monotone_in_unit", bool(np.all(np.diff(F, axis=1) >= 0))
             and bool(np.all((F >= 0) & (F <= 1)))),
    ]
    if kind == "type3":
        # one Type III step sends F to W(F), the exact closed-form action
        out.append(Check(f"{tag}/step1_cdf_vs_W", float(np.max(np.abs(F[1] - w_map(F[0])))), TYPE3_CDF_GATE))

    sidecar = json.loads(csv_path.with_suffix(".diagnostics.json").read_text())
    out.append(flag(f"{tag}/sidecar_rows", [r["step"] for r in sidecar] == list(range(steps + 1))))
    for r in sidecar:
        k = r["step"]
        out.append(Check(f"{tag}/step{k}/integral_error", abs(r["integralError"]), TRACE_INTEGRAL_GATE))
        # every kernel is symmetric about F = 1/2, so each step keeps the
        # source median; measure the miss in probability units
        miss = abs(float(source_cdf(family, params, r["median"])) - 0.5)
        out.append(Check(f"{tag}/step{k}/median", miss, MEDIAN_CDF_GATE))
    return out


def source_support(family: str, params: dict[str, float]) -> tuple[float, float]:
    """Interval the sampled nodes must lie in: the support, or the truncation
    window the package documents for unbounded families (8 sd, 40 lifetimes)."""
    if family in ("uniform", "arcsine"):
        return params.get("a", 0.0), params.get("b", 1.0)
    if family == "normal":
        m, s = params.get("mean", 0.0), params.get("stddev", 1.0)
        return m - 8.0 * s, m + 8.0 * s
    if family == "exponential":
        return 0.0, 40.0 / params.get("rate", 1.0)
    c, r = params.get("center", 0.0), params.get("radius", 1.0)
    return c - r, c + r


# --- dlab spectral --dist uniform ---------------------------------------------

CF_GATE = 1e-6
TWICE_AT_ZERO_GATE = 1e-9
SUP_DISTANCE_GATE = 0.05
STEP1_VARIANCE_GATE = 1e-5


def _read_cf(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]


def check_spectral_uniform(outdir: Path, steps: int, tstep: float) -> list[Check]:
    """The uniform family has a closed form for every file `dlab spectral` writes."""
    tag = "spectral/uniform"
    diag = np.loadtxt(outdir / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
    out = [flag(f"{tag}/diagnostics_rows", diag.shape == (steps + 1, 5))]
    if not out[0].passed:
        return out
    out += [
        Check(f"{tag}/step1_variance", abs(diag[1, 1] - UNIFORM_STEP1_VARIANCE), STEP1_VARIANCE_GATE),
        Check(f"{tag}/median", float(np.max(np.abs(diag[:, 2] - 0.5))), MEDIAN_CDF_GATE),
        Check(f"{tag}/sup_distance_at_{steps}", abs(diag[-1, 3]), SUP_DISTANCE_GATE, headroom=False),
    ]
    phi1 = shift(uniform_cf)
    phi2 = shift(phi1)
    closed = {
        "cf_source": uniform_cf,
        "cf_shift_step1_raw": phi1,
        "cf_shift_step1_renormalized": lambda t: phi1(t) / phi1(0.0),
        "cf_shift_step2_raw": phi2,
        "cf_shift_step2_renormalized": lambda t: phi2(t) / phi2(0.0),
    }
    for stem, phi in closed.items():
        t, values = _read_cf(outdir / f"{stem}.csv")
        k = (t.shape[0] - 1) // 2
        on_grid = t.shape[0] % 2 == 1 and bool(np.all(np.abs(t - np.arange(-k, k + 1) * tstep) <= 1e-9))
        out.append(flag(f"{tag}/{stem}/frequencies", on_grid))
        out.append(Check(f"{tag}/{stem}", float(np.max(np.abs(values - phi(t)))), CF_GATE))
        if stem == "cf_shift_step2_raw":
            # the shift operator does not preserve normalization: T^2 phi(0) = 3/2
            out.append(Check(f"{tag}/t_operator_twice_at_zero", abs(values[k] - 1.5), TWICE_AT_ZERO_GATE))
    return out

