"""Characteristic functions and spectral diagnostics.

Every CF is sampled on one symmetric frequency grid, t = k*DEFAULT_TSTEP with
DEFAULT_TSTEP = 2*pi/64, so the shift-by-2*pi operator is an exact offset of
64 samples; no function takes a step of its own. The module provides the
plain and phase-modulated CFs of a grid density, the closed form for the
uniform case, and, per step of the iterated transform, the sup distance of
the standardized CF from exp(-t^2/2).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridDensity, simpson_weights
from .transforms import TransformKind, steps

# Samples per 2*pi of frequency: the index offset of the shift by 2*pi.
_SHIFT = 64
DEFAULT_TSTEP = math.tau / _SHIFT
DEFAULT_TMAX = 64.0 * math.pi
DEFAULT_SUP_TMAX = 5.0

# Largest half-count K of a frequency window. At the cap the Bluestein
# convolution of a grid under 2**19 nodes runs at 2**20 points or fewer, at
# most 16 MB per complex array.
MAX_HALF_COUNT = 2**18


@dataclass(frozen=True)
class CharFunction:
    """Complex samples at t = k*DEFAULT_TSTEP for k in [-K, K]."""

    values: np.ndarray

    def __post_init__(self) -> None:
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
        return self.half_count * DEFAULT_TSTEP

    @property
    def ts(self) -> np.ndarray:
        return _frequencies(self.half_count)

    def at_zero(self) -> complex:
        return complex(self.values[self.half_count])


def window_half_count(tmax: float) -> int:
    """K = floor(tmax/DEFAULT_TSTEP) of the window t = k*DEFAULT_TSTEP,
    |k| <= K, at least 1, so the window holds a nonzero frequency, and at
    most MAX_HALF_COUNT."""
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be finite and positive")
    k = tmax / DEFAULT_TSTEP + 1e-9
    if not k < MAX_HALF_COUNT + 1:
        raise ValueError(f"tmax spans {k:.6g} steps of 2*pi/64, which exceeds the cap of {MAX_HALF_COUNT}"
                         " frequencies per side")
    if k < 1:
        raise ValueError(f"tmax spans {k:.6g} steps of 2*pi/64, below 1, so the window holds no frequency but t = 0")
    return int(math.floor(k))


def _frequencies(k: int) -> np.ndarray:
    """The symmetric frequency grid t = j*DEFAULT_TSTEP for j in [-k, k]."""
    return np.arange(-k, k + 1) * DEFAULT_TSTEP


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


def _cf_samples(weighted: np.ndarray, lo: float, step: float, k: int) -> np.ndarray:
    """sum_j weighted_j exp(i t_m x_j) at t_m = m*DEFAULT_TSTEP, |m| <= k, for the
    nodes x_j = lo + j*step, by a centred Bluestein transform.

    With p = j - c about the centre node x_c = lo + c*step, c = (n-1)/2,
    and alpha = DEFAULT_TSTEP*step, the phase is t_m x_j = t_m x_c + alpha*m*p.
    Bluestein's identity m*p = (m^2 + p^2 - (m-p)^2)/2 turns the sum over p
    into one convolution with the chirp exp(-i*alpha*d^2/2), done by FFT at
    the smallest 5-smooth length of at least n + 2k. Centring keeps |p| and
    |m|, and so the chirp phases, as small as they can be.
    """
    n = weighted.shape[0]
    c = (n - 1) // 2
    chirp = _chirp(DEFAULT_TSTEP * step, k + c + 1)
    size = _fft_length(n + 2 * k)
    a = np.zeros(size, dtype=complex)
    a[:n] = weighted * chirp[np.abs(np.arange(-c, c + 1))]
    b = np.zeros(size, dtype=complex)
    b[: k + c + 1] = chirp.conj()
    b[size - k - c :] = chirp[:0:-1].conj()
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))
    m = np.arange(-k, k + 1)
    return conv[(m + c) % size] * chirp[np.abs(m)] * np.exp(1j * (m * DEFAULT_TSTEP) * (lo + c * step))


def cf_of_values(g: GridDensity, values: np.ndarray, tmax: float) -> CharFunction:
    weighted = simpson_weights(g.n, g.step) * values
    return CharFunction(_cf_samples(weighted, g.lo, g.step, window_half_count(tmax)))


def char_function(g: GridDensity, tmax: float = DEFAULT_TMAX) -> CharFunction:
    """phi(t) = integral of exp(itx) f(x) dx by Simpson quadrature."""
    return cf_of_values(g, g.values, tmax)


def modulated_char(g: GridDensity, sign: int, tmax: float = DEFAULT_TMAX) -> CharFunction:
    """CF with the extra phase exp(sign * i * 2*pi * F(x)) in the integrand."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return cf_of_values(g, g.values * np.exp(1j * sign * math.tau * g.cdf), tmax)


def uniform_closed_form_cf(t):
    """Closed-form CF of the phase-modulated transform of uniform(0, 1).

    Each of its three terms (exp(is) - 1)/(is), at s = t and t +- 2*pi, is
    written as sinc(s/pi) + i(s/2)sinc(s/(2pi))^2 with np.sinc: there is no
    cancellation near s = 0, and the removable points t in {0, +-2*pi} take
    exactly their limit values (1, -1/2, -1/2) through np.sinc's value at 0.
    """
    s = np.add.outer((0.0, math.tau, -math.tau), np.asarray(t, dtype=float))
    factor = np.sinc(s / math.pi) + 0.5j * s * np.sinc(s / math.tau) ** 2
    out = factor[0] - 0.5 * (factor[1] + factor[2])
    return out if out.ndim else complex(out)


def t_operator(phi: CharFunction) -> CharFunction:
    """phi(t) - (phi(t + 2*pi) + phi(t - 2*pi))/2 as an exact index shift.

    No renormalization is applied; the operator does not preserve the value at
    t = 0 beyond one application. The frequency range shrinks by 2*pi.
    """
    d = _SHIFT
    if phi.half_count <= d:
        raise ValueError(f"tmax={phi.tmax} too small to shift by 2*pi (need more than {d * DEFAULT_TSTEP})")
    v = phi.values
    return CharFunction(v[d:-d] - 0.5 * (v[2 * d :] + v[: -2 * d]))


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Per-step statistics of the iterated transform, row n = step n."""

    variance: np.ndarray
    median: np.ndarray
    sup_distance: np.ndarray
    rate_product: np.ndarray

    @property
    def steps(self) -> int:
        return self.variance.shape[0] - 1


def rescaled_sup_distance(g: GridDensity, mean: float, sd: float, tmax: float = DEFAULT_SUP_TMAX) -> float:
    """sup |phi(t) - exp(-t^2/2)| over |t| <= tmax, where phi is the CF of g's
    density standardized by the given mean and standard deviation."""
    k = window_half_count(tmax)
    weighted = simpson_weights(g.n, g.step) * g.values
    phi = _cf_samples(weighted, (g.lo - mean) / sd, g.step / sd, k)
    ts = _frequencies(k)
    return float(np.max(np.abs(phi - np.exp(-0.5 * ts * ts))))


def gaussian_convergence(kind: TransformKind, g: GridDensity, n: int,
                         tmax: float = DEFAULT_SUP_TMAX) -> ConvergenceDiagnostics:
    """Iterate the transform n times and track the Gaussian sup-distance.

    Row k holds the step-k variance, median, sup_t |phi_k_rescaled - gauss|
    over |t| <= tmax, and the product 2*pi^2*k*variance. The iterates come
    from `transforms.steps` with follow set, so they live in coordinates
    centred on the mean at their last re-grid, and the accumulated centre is
    added back only to the reported median. Raises ValueError naming the
    step when an iterate leaves floating-point range or its variance is not
    a positive, finite, normal float.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    rows = []
    for k, density, centre, d in steps(kind, g, n, follow=True):
        sup = rescaled_sup_distance(density, d.mean, math.sqrt(d.variance), tmax)
        rows.append((d.variance, centre + d.median, sup, 2.0 * math.pi**2 * k * d.variance))
    return ConvergenceDiagnostics(*(np.array(column) for column in zip(*rows)))

