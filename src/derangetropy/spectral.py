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
instead of the O(nK) dense sum. The FFTs run at the smallest length
2^a 3^b 5^c of at least n + 2K, which numpy's mixed-radix FFT takes about as
fast per point as a power of two, and which can be up to half as long: 16875
points instead of 32768 for 16385 nodes and K = 50. The grid enters as its
first node, nominal step and node count, never as differences of nodes: on a
bump 1e-9 wide those are off the step by 2e-4 relative. Against a long-double
dense sum on the nodes lo + j*step, the error is at most 4e-15 on the five
default families at n = 4097 over the default 4097-frequency window, the
exponential being worst; the double dense sum itself is within 4e-15 of that
reference.

Iterating the phase-modulated transform contracts the density onto its median
(the variance shrinks roughly fourfold per step), so a fixed grid would stop
resolving the bump after a dozen steps. The convergence loop therefore
re-grids adaptively: when the current window is much wider than the bump it
re-samples the density onto a tight window around the mean, in coordinates
centred on that mean. Each new node takes the Lagrange polynomial through the
six old nodes around it, moved inward at the grid's ends, so the re-grid is
exact for polynomials of degree 5 (local interpolation on uniform nodes; Berrut
& Trefethen 2004). The weights depend only on the node's position in old
steps, so they stay O(1) however narrow the bump is. The stencil sets the gap
floor |d_n - D*|: 1.56e-11 on the five default families at 4097 nodes, against
3.2e-10 for four points and 1.555e-11 for eight. The centre is a float offset
that each re-grid adds its mean to, and it is added back only to the reported
median, so the nodes stay uniform relative to the bump's width however narrow
it gets; in absolute x half an ulp of the median is already 3e-7 standard
deviations by step 30. The loop thus follows the iteration until the variance
itself leaves the normal floats (step 510 from the unit uniform) and then
raises, naming the step. The rescaled shape is grid-independent, so once the
tails are light the diagnostics do not depend on when the re-gridding happens.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .grid import GridDensity, csv_rows, mean_and_variance, median_of, simpson, simpson_weights
from .transforms import TransformKind, transform_step, transform_values

DEFAULT_TSTEP = math.tau / 64.0
DEFAULT_TMAX = 64.0 * math.pi
DEFAULT_SUP_TMAX = 5.0

# Largest half-count K of a frequency window. At the cap the Bluestein
# convolution of a grid under 2**19 nodes runs at 2**20 points or fewer, at
# most 16 MB per complex array.
MAX_HALF_COUNT = 2**18

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
        if not 0 < self.tstep < math.inf:
            raise ValueError(f"tstep must be finite and positive, got {self.tstep}")
        shifts_per_turn = math.tau / self.tstep
        if round(shifts_per_turn) < 1 or abs(shifts_per_turn - round(shifts_per_turn)) > 1e-9:
            raise ValueError(f"2*pi/tstep must be an integer >= 1, got {shifts_per_turn}")
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


def window_half_count(tstep: float, tmax: float) -> int:
    """K = floor(tmax/tstep) of the window t = k*tstep, |k| <= K, at most
    MAX_HALF_COUNT."""
    if not (0 < tstep < math.inf and 0 < tmax < math.inf):
        raise ValueError("tstep and tmax must be finite and positive")
    k = tmax / tstep + 1e-9
    if not k < MAX_HALF_COUNT + 1:
        raise ValueError(f"tmax/tstep = {k:.6g} exceeds the cap of {MAX_HALF_COUNT} frequencies per side")
    return int(math.floor(k))


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


def _fft_length(m: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= m: numpy's FFT runs fastest at such
    lengths, and one is never longer than the next power of two."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((m - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _cf_samples(weighted: np.ndarray, lo: float, step: float, tstep: float, k: int) -> np.ndarray:
    """sum_j weighted_j exp(i t_m x_j) at t_m = m*tstep, |m| <= k, for the
    nodes x_j = lo + j*step, by a centred Bluestein transform.

    With p = j - c about the centre node x_c = lo + c*step, c = (n-1)/2,
    and alpha = tstep*step, the phase is t_m x_j = t_m x_c + alpha*m*p.
    Bluestein's identity m*p = (m^2 + p^2 - (m-p)^2)/2 turns the sum over p
    into one convolution with the chirp exp(-i*alpha*d^2/2), done by FFT at
    the smallest 5-smooth length of at least n + 2k. Centring keeps |p| and
    |m|, and so the chirp phases, as small as they can be.
    """
    n = weighted.shape[0]
    c = (n - 1) // 2
    chirp = _chirp(tstep * step, k + c + 1)
    size = _fft_length(n + 2 * k)
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
    return CharFunction(tstep, _cf_samples(weighted, g.lo, g.step, tstep, window_half_count(tstep, tmax)))


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
    centred on it (the mean becomes 0), by 6-point Lagrange interpolation."""
    lo = max(g.lo - mean, -RESCALE_WINDOW_SIGMAS * sd)
    hi = min(g.hi - mean, RESCALE_WINDOW_SIGMAS * sd)
    u = (np.linspace(lo, hi, g.n) - (g.lo - mean)) / g.step  # new nodes in old steps
    first = np.clip(np.floor(u).astype(int) - 2, 0, g.n - 6)  # stencil moved inward at the ends
    d = [u - first - i for i in range(6)]  # offsets from the six stencil nodes, in old steps
    terms = []
    for j in range(6):
        others = [i for i in range(6) if i != j]
        w = reduce(operator.mul, [d[i] for i in others]) / math.prod(j - i for i in others)
        terms.append(w * g.values[first + j])
    vals = np.clip(reduce(operator.add, terms), 0.0, None)
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
    k = window_half_count(tstep, tmax)
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
