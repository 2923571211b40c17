"""Characteristic functions and spectral diagnostics.

CFs are sampled on a symmetric frequency grid t = k*tstep with 2*pi/tstep an
integer, so the shift-by-2*pi operator is an exact index offset. The module
provides the plain and phase-modulated CFs of a grid density, the three-term
decomposition identity satisfied by the phase-modulated transform, the closed
form for the uniform case, and the Gaussianization diagnostics of the iterated
transform (empirically rescaled CF against exp(-t^2/2)).

Every CF is the Simpson quadrature sum over the grid nodes, and one routine,
`_cf_samples`, evaluates it. Nodes are uniform in x and frequencies uniform
in t, so the sum is a chirp-z transform. It is computed by a centred
Bluestein transform on numpy FFTs (Bluestein 1970; Rabiner, Schafer & Rader
1969), in O((n + 2K) log(n + 2K)) time for n nodes and 2K+1 frequencies
instead of the O(nK) dense sum. The grid enters as its first node, nominal
step and node count, never as differences of nodes: on a bump 1e-9 wide
those are off the step by 2e-4 relative. Against a long-double dense sum on
the nodes lo + j*step, the error is at most 4e-15 on the five default
families at n = 4097 over the default 4097-frequency window, the exponential
being worst; the double dense sum itself is within 4e-15 of that reference.

Iterating the phase-modulated transform contracts the density onto its median
(the variance shrinks roughly fourfold per step), so a fixed grid would stop
resolving the bump after a dozen steps. The convergence loop therefore
re-grids adaptively: when the current window is much wider than the bump it
re-samples the density with a cubic spline onto a tight window around the
mean, in coordinates centred on that mean. The centre is a float offset that
each re-grid adds its mean to, and it is added back only to the reported
median, so the nodes stay uniform relative to the bump's width however narrow
it gets; in absolute x half an ulp of the median is already 3e-7 standard
deviations by step 30. The spline is fitted in units of a power of two near
the standard deviation, an exact rescaling that keeps its coefficients finite.
The loop thus follows the iteration until the variance itself leaves the
normal floats (step 510 from the unit uniform) and then raises, naming the
step. A shape-preserving (PCHIP) interpolant would clamp the slope at the
peak, and its error would accumulate across steps. The rescaled shape is
grid-independent, so once the tails are light the diagnostics do not depend
on when the re-gridding happens.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import GridDensity, csv_rows, mean_and_variance, median_of, simpson, simpson_weights
from .transforms import TransformKind, transform_step, transform_values

DEFAULT_TSTEP = math.tau / 64.0
DEFAULT_TMAX = 64.0 * math.pi
DEFAULT_SUP_TMAX = 5.0

# Width of the re-gridding window in standard deviations, and how much wider
# than that window the current grid must be before re-gridding pays off.
# The trigger matters while the tails are still heavy: re-gridding at every
# step cuts them early, and moves the exponential's step-2 sup distance by
# 9.1e-9. Once the bump is narrow it fires at nearly every step anyway.
RESCALE_WINDOW_SIGMAS = 12.0
REGRID_SPAN_FACTOR = 2.5


@dataclass(frozen=True)
class CharFunction:
    """Complex samples at t = k*tstep for k in [-K, K]."""

    tstep: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.tstep > 0:
            raise ValueError(f"tstep must be positive, got {self.tstep}")
        shifts_per_turn = math.tau / self.tstep
        if abs(shifts_per_turn - round(shifts_per_turn)) > 1e-9:
            raise ValueError(f"2*pi/tstep must be an integer, got {shifts_per_turn}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape[0] % 2 == 0:
            raise ValueError(f"expected an odd number 2K+1 of samples, got {vals.shape[0]}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def half_count(self) -> int:
        return (self.values.shape[0] - 1) // 2

    @property
    def tmax(self) -> float:
        return self.half_count * self.tstep

    @property
    def ts(self) -> np.ndarray:
        return _frequencies(self.half_count, self.tstep)

    def at_zero(self) -> complex:
        return complex(self.values[self.half_count])


def _half_count(tstep: float, tmax: float) -> int:
    if tstep <= 0 or tmax <= 0:
        raise ValueError("tstep and tmax must be positive")
    return int(math.floor(tmax / tstep + 1e-9))


def _frequencies(k: int, tstep: float) -> np.ndarray:
    """The symmetric frequency grid t = j*tstep for j in [-k, k]."""
    return np.arange(-k, k + 1) * tstep


def _chirp(alpha: float, count: int) -> np.ndarray:
    """exp(i*alpha*d^2/2) for d = 0, ..., count - 1.

    alpha/2 is split into a leading part with few enough bits that its
    product with every d^2 is exact, plus a small remainder. The large phase
    is then rounded only inside exp, and the remainder's phase is small, so
    the chirp keeps full precision where a plain alpha*d^2/2 would lose an
    ulp of a phase in the thousands.
    """
    d2 = np.arange(count, dtype=float) ** 2
    half = 0.5 * alpha
    mantissa, exponent = math.frexp(half)
    bits = max(53 - ((count - 1) ** 2).bit_length(), 0)
    lead = math.ldexp(math.floor(math.ldexp(mantissa, bits)), exponent - bits)
    return np.exp(1j * (lead * d2)) * np.exp(1j * ((half - lead) * d2))


def _cf_samples(weighted: np.ndarray, lo: float, step: float, tstep: float, k: int) -> np.ndarray:
    """sum_j weighted_j exp(i t_m x_j) at t_m = m*tstep, |m| <= k, for the
    nodes x_j = lo + j*step, by a centred Bluestein transform.

    With p = j - c about the centre node x_c = lo + c*step, c = (n-1)/2,
    and alpha = tstep*step, the phase is t_m x_j = t_m x_c + alpha*m*p.
    Bluestein's identity m*p = (m^2 + p^2 - (m-p)^2)/2 turns the sum over p
    into one convolution with the chirp exp(-i*alpha*d^2/2), done by FFT at a
    power-of-two length of at least n + 2k. Centring keeps |p| and |m|, and
    so the chirp phases, as small as they can be.
    """
    n = weighted.shape[0]
    c = (n - 1) // 2
    chirp = _chirp(tstep * step, k + c + 1)
    size = 1 << (n + 2 * k - 1).bit_length()
    a = np.zeros(size, dtype=complex)
    a[:n] = weighted * chirp[np.abs(np.arange(-c, c + 1))]
    b = np.zeros(size, dtype=complex)
    b[: k + c + 1] = chirp.conj()
    b[size - k - c :] = chirp[:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
    m = np.arange(-k, k + 1)
    return conv[(m + c) % size] * chirp[np.abs(m)] * np.exp(1j * (m * tstep) * (lo + c * step))


def cf_of_values(g: GridDensity, values: np.ndarray, tstep: float, tmax: float,
                  phase: np.ndarray | None = None) -> CharFunction:
    weighted = simpson_weights(g.n, g.step) * values
    if phase is not None:
        weighted = weighted * phase
    return CharFunction(tstep, _cf_samples(weighted, g.lo, g.step, tstep, _half_count(tstep, tmax)))


def char_function(g: GridDensity, tstep: float = DEFAULT_TSTEP, tmax: float = DEFAULT_TMAX) -> CharFunction:
    """phi(t) = integral of exp(itx) f(x) dx by Simpson quadrature."""
    return cf_of_values(g, g.values, tstep, tmax)


def modulated_char(g: GridDensity, sign: int, tstep: float = DEFAULT_TSTEP,
                   tmax: float = DEFAULT_TMAX) -> CharFunction:
    """CF with the extra phase exp(sign * i * 2*pi * F(x)) in the integrand."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    phase = np.exp(1j * sign * math.tau * g.cdf)
    return cf_of_values(g, g.values, tstep, tmax, phase=phase)


def type3_cf_identity_gap(g: GridDensity, tstep: float = DEFAULT_TSTEP,
                          tmax: float = DEFAULT_TMAX) -> float:
    """sup_t |phi_nu - (phi_0 - (phi_F^+ + phi_F^-)/2)| on the frequency grid.

    phi_nu is the CF of the un-renormalized phase-modulated transform; the
    identity is an algebraic consequence of 2 sin^2 = 1 - cos, so the gap
    measures only the machinery, not quadrature error.
    """
    nu = transform_values(TransformKind.TYPE3, g)
    phi_nu = cf_of_values(g, nu, tstep, tmax)
    phi0 = char_function(g, tstep, tmax)
    plus = modulated_char(g, +1, tstep, tmax)
    minus = modulated_char(g, -1, tstep, tmax)
    combo = phi0.values - 0.5 * (plus.values + minus.values)
    return float(np.max(np.abs(phi_nu.values - combo)))


def _sinc_factor(s):
    """(exp(is) - 1)/(is), with a series branch near the removable point."""
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape, dtype=complex)
    small = np.abs(s) < 1e-4
    sb = s[small]
    out[small] = 1.0 + 1j * sb / 2.0 - sb**2 / 6.0 - 1j * sb**3 / 24.0 + sb**4 / 120.0
    sl = s[~small]
    out[~small] = (np.exp(1j * sl) - 1.0) / (1j * sl)
    return out


def uniform_closed_form_cf(t):
    """Closed-form CF of the phase-modulated transform of uniform(0, 1).

    Removable points at t in {0, +-2*pi} take their limit values
    (1, -1/2, -1/2) through the series branch of the sinc factor.
    """
    t = np.asarray(t, dtype=float)
    out = _sinc_factor(t) - 0.5 * (_sinc_factor(t + math.tau) + _sinc_factor(t - math.tau))
    return out if out.ndim else complex(out)


def t_operator(phi: CharFunction) -> CharFunction:
    """phi(t) - (phi(t + 2*pi) + phi(t - 2*pi))/2 as an exact index shift.

    No renormalization is applied; the operator does not preserve the value at
    t = 0 beyond one application. The frequency range shrinks by 2*pi.
    """
    d = int(round(math.tau / phi.tstep))
    k = phi.half_count
    if k <= d:
        raise ValueError(f"tmax={phi.tmax} too small to shift by 2*pi (need more than {d * phi.tstep})")
    v = phi.values
    shifted = v[d:-d] - 0.5 * (v[2 * d :] + v[: -2 * d])
    return CharFunction(phi.tstep, shifted)


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Per-step statistics of the iterated transform, row n = step n."""

    kind: TransformKind
    variance: np.ndarray
    median: np.ndarray
    sup_distance: np.ndarray
    rate_product: np.ndarray

    @property
    def steps(self) -> int:
        return self.variance.shape[0] - 1


def _regrid(g: GridDensity, mean: float, sd: float) -> GridDensity:
    """Resample onto +-RESCALE_WINDOW_SIGMAS around the mean, in coordinates
    centred on it (the mean becomes 0)."""
    from scipy.interpolate import CubicSpline  # deferred: scipy.interpolate takes ~0.4 s to import

    lo = max(g.lo - mean, -RESCALE_WINDOW_SIGMAS * sd)
    hi = min(g.hi - mean, RESCALE_WINDOW_SIGMAS * sd)
    xs = g.xs - mean
    pad = 2.0 * g.step
    mask = (xs >= lo - pad) & (xs <= hi + pad)
    # fit in units of s, a power of two near sd: the rescaling is exact, and
    # the spline's coefficients stay finite however narrow the bump is
    s = math.ldexp(1.0, math.frexp(sd)[1])
    interp = CubicSpline(xs[mask] / s, g.values[mask] * s, extrapolate=False)
    vals = np.clip(interp(np.linspace(lo, hi, g.n) / s), 0.0, None) / s
    return GridDensity(lo, hi, vals / simpson(vals, lo, hi))


def _checked_moments(g: GridDensity) -> tuple[float, float]:
    """mean_and_variance, raising unless the variance is a positive normal float."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        mean, var = mean_and_variance(g)
    if not sys.float_info.min <= var <= sys.float_info.max:
        raise ValueError(f"variance {var!r} is not a positive, finite, normal float")
    return mean, var


def _rescaled_sup_distance(g: GridDensity, mean: float, sd: float,
                           tstep: float, tmax: float) -> float:
    k = _half_count(tstep, tmax)
    weighted = simpson_weights(g.n, g.step) * g.values
    phi = _cf_samples(weighted, (g.lo - mean) / sd, g.step / sd, tstep, k)
    ts = _frequencies(k, tstep)
    return float(np.max(np.abs(phi - np.exp(-0.5 * ts * ts))))


def gaussian_convergence(kind: TransformKind, g: GridDensity, n: int,
                         tmax: float = DEFAULT_SUP_TMAX,
                         tstep: float = DEFAULT_TSTEP) -> ConvergenceDiagnostics:
    """Iterate the transform n times and track the Gaussian sup-distance.

    Row k holds the step-k variance, median, sup_t |phi_k_rescaled - gauss|
    over |t| <= tmax, and the product 2*pi^2*k*variance. Iterates live in
    coordinates centred on the mean at their last re-grid; the accumulated
    centre is added back only to the reported median. Raises ValueError
    naming the step when an iterate leaves floating-point range or its
    variance is not a positive, finite, normal float.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    variances: list[float] = []
    medians: list[float] = []
    sups: list[float] = []
    rates: list[float] = []
    centre = 0.0
    current = g
    for step in range(n + 1):
        try:
            if step > 0:
                current = transform_step(kind, current).density
            mean, var = _checked_moments(current)
            sd = math.sqrt(var)
            if step > 0 and (current.hi - current.lo) > REGRID_SPAN_FACTOR * RESCALE_WINDOW_SIGMAS * sd:
                current = _regrid(current, mean, sd)
                centre += mean
                mean, var = _checked_moments(current)
            median = median_of(current)
        except ValueError as exc:
            raise ValueError(f"step {step} of the {kind.value} convergence loop is out of range: {exc}") from exc
        variances.append(var)
        medians.append(centre + median)
        sups.append(_rescaled_sup_distance(current, mean, math.sqrt(var), tstep, tmax))
        rates.append(2.0 * math.pi**2 * step * var)
    return ConvergenceDiagnostics(
        kind=kind,
        variance=np.array(variances),
        median=np.array(medians),
        sup_distance=np.array(sups),
        rate_product=np.array(rates),
    )


def diagnostics_csv(d: ConvergenceDiagnostics) -> str:
    return "n,variance,median,sup_distance,rate_product\n" + csv_rows(
        np.arange(d.variance.shape[0]), d.variance, d.median, d.sup_distance, d.rate_product
    )


def cf_csv(phi: CharFunction) -> str:
    return "t,re,im\n" + csv_rows(phi.ts, phi.values.real, phi.values.imag)
