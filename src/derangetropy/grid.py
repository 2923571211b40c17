"""Grid densities and quadrature.

A density lives on n uniformly spaced nodes (n odd) spanning [lo, hi], and all
integration is composite Simpson on that grid. The cumulative rule integrates
the same local parabolas, so the running CDF agrees with the plain Simpson
total at the last node; a density computes its CDF once, on first access, as
`g.cdf`. For families whose density diverges at a support endpoint, the node
range is inset by half a step so every sampled value is finite; for
everything else nodes include the endpoints, which keeps exact node placement
at round x values (the transforms are checked pointwise there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .distributions import (
    DistributionSpec,
    effective_support,
    has_singular_endpoint,
    pdf,
)

MIN_NODES = 129


def _check_node_count(n: int) -> None:
    if n < MIN_NODES or n % 2 == 0:
        raise ValueError(f"node count must be odd and >= {MIN_NODES}, got {n}")


def simpson_weights(n: int, step: float) -> np.ndarray:
    """Composite Simpson weights for n nodes (n odd) at spacing `step`."""
    _check_node_count(n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (step / 3.0)


def _weighted_sum(w: np.ndarray, v: np.ndarray) -> float:
    """sum_j w_j v_j by numpy's pairwise summation on one thread. np.dot
    would hand it to BLAS, whose threads split long sums at points that
    depend on the thread count, and so would change the last bits."""
    return float(np.add.reduce(w * v))


def simpson(values: np.ndarray, lo: float, hi: float) -> float:
    """Composite Simpson integral of tabulated values on [lo, hi]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    step = (hi - lo) / (n - 1)
    return _weighted_sum(simpson_weights(n, step), values)


def cumulative_simpson(values: np.ndarray, step: float) -> np.ndarray:
    """Running integral from the first node, Simpson-consistent.

    Even-indexed entries are the composite Simpson partial sums; odd-indexed
    entries integrate the local parabola over its first half panel.
    """
    f = np.asarray(values, dtype=float)
    out = np.zeros_like(f)
    out[2::2] = np.cumsum(step / 3.0 * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))
    out[1::2] = out[0:-1:2] + step / 12.0 * (5.0 * f[0:-1:2] + 8.0 * f[1::2] - f[2::2])
    return out


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative values sampled on n uniform nodes over [lo, hi].

    The nodes np.linspace(lo, hi, n) must be strictly increasing floats: this
    rejects reversed, infinite, NaN or overflowing bounds, and collapsed nodes.
    Grids compare and hash by identity: equality of sampled arrays is a
    numerical question that callers answer with their own tolerance.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        _check_node_count(vals.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # bad bounds give NaN nodes, which fail the check
            x = np.linspace(self.lo, self.hi, vals.shape[0])
            if not (x[1:] > x[:-1]).all():
                raise ValueError(f"[{self.lo!r}, {self.hi!r}] does not hold {x.size} strictly increasing float nodes")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("density values must be finite and nonnegative")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Running CDF at the nodes, pinned to exactly 1 at the last; built once, read-only.

        The raw cumulative rule can dip on adversarial (non-smooth) inputs
        because the half-panel parabola is not monotone in its data, so a
        running maximum enforces the CDF monotonicity contract; it is a no-op
        for smooth densities.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            raw = np.maximum.accumulate(cumulative_simpson(self.values, self.step))
        total = float(raw[-1])
        if not 0 < total < math.inf:
            raise ValueError(f"cannot build a CDF from a density with cumulative mass {total}")
        cdf = raw / total
        cdf.setflags(write=False)
        return cdf


def from_analytic(spec: DistributionSpec, n: int) -> GridDensity:
    """Sample a reference density on n nodes and renormalize.

    Nodes include the endpoints of the effective support except for families
    with a divergent endpoint density, where they are inset by half a step.
    Raises ValueError, naming the parameters, when GridDensity rejects the
    nodes or values or the grid's CDF cannot be built.
    """
    _check_node_count(n)
    a, b = effective_support(spec)
    if has_singular_endpoint(spec):
        half = 0.5 * (b - a) / n
        lo, hi = a + half, b - half
    else:
        lo, hi = a, b
    with np.errstate(all="ignore"):  # bad nodes, an overflow or a zero mass fail GridDensity below
        f = pdf(spec, np.linspace(lo, hi, n))
        f = f / simpson(f, lo, hi)
    try:
        g = GridDensity(lo, hi, f)
        g.cdf  # the pdf can be finite where the cumulative rule's panel sums overflow
    except ValueError as exc:
        raise ValueError(f"{spec.family} parameters {dict(spec.params)} are out of range: {exc}") from exc
    return g


def integrate(g: GridDensity) -> float:
    return simpson(g.values, g.lo, g.hi)


def moment(g: GridDensity, k: int) -> float:
    """Raw moment E[X^k] for k in {1, 2}."""
    if k not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {k}")
    x = g.xs
    return _weighted_sum(simpson_weights(g.n, g.step), x**k * g.values)


def mean_and_variance(g: GridDensity) -> tuple[float, float]:
    """Mean and centered variance by Simpson on the grid."""
    w = simpson_weights(g.n, g.step) * g.values
    x = g.xs
    mean = _weighted_sum(w, x)
    # center first so the quadratic does not cancel catastrophically
    return mean, _weighted_sum(w, (x - mean) ** 2)


def median_of(g: GridDensity) -> float:
    """Location where the grid CDF crosses 1/2.

    In the crossing panel [x0, x1] the density is modeled as linear from f0
    to f1 and scaled so that its CDF meets the grid CDF at both nodes: with
    u = (x - x0)/(x1 - x0), p = f0/(f0 + f1) and r = (1/2 - F0)/(F1 - F0), the
    median solves (1 - 2p) u^2 + 2p u = r, an O(h^3) inversion where linear
    interpolation of F (left for f0 + f1 = 0) is O(h^2). Only ratios enter.
    """
    # the CDF starts at exactly 0 and ends at exactly 1, so 1 <= i < n and y0 < 1/2 <= y1
    i = int(np.searchsorted(g.cdf, 0.5))
    (x0, x1), (y0, y1), (f0, f1) = (a[i - 1 : i + 1].tolist() for a in (g.xs, g.cdf, g.values))
    # f0 + f1 is finite, as the CDF's panel sum f0 + 4 f1 or 4 f0 + f1 was
    p, q = (f0 / (f0 + f1), f1 / (f0 + f1)) if f0 + f1 > 0.0 else (0.5, 0.5)
    r, s = (0.5 - y0) / (y1 - y0), (y1 - 0.5) / (y1 - y0)
    # p^2 + (1 - 2p) r as p^2 s + q^2 r: no cancellation, never below 0; r > 0
    u = r / (p + math.sqrt(p * p * s + q * q * r))
    return min(x0 + u * (x1 - x0), x1)  # u can round past 1 by an ulp


# A numeric cell is computed in numpy when it is finite with 1e-290 <= |x| < 1e280,
# or zero; its decimal exponent then lies in [_E_MIN, _E_MAX]. Every other
# cell, and one near a half-way point, is formatted by `%` itself.
_E_MIN, _E_MAX = -291, 280
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_SUFFIXES = _E_MAX - _E_MIN + 2  # per separator: one suffix per exponent, then the fixed notation's


def _words(texts: list[bytes], count: int) -> np.ndarray:
    """Each text, padded with NULs to `count` 64-bit words, as those words
    read little-endian, so its first byte is the low byte of word 0."""
    return np.array(texts, dtype=f"S{8 * count}").view("<u8").reshape(len(texts), count).astype(np.uint64)


@cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of `_numeric_cells`, built once per process on first use.

    - powers: for E in [_E_MIN, _E_MAX], the double-double 10**(16 - E) as its
      correctly rounded head, the head's two 26-bit halves, and the correctly
      rounded rest, from exact integer arithmetic;
    - digits and zeros: for g < 10**4, its four ASCII digits as a 32-bit word
      and the number of its trailing zero digits (4 for g = 0);
    - masks, dots, left and right: indexed by a byte position k in three words,
      the bytes below k set, a "." at k, and the shifts that place a word at k;
    - suffixes: the exponent ("e-05", "e+123") and separator of each exponent,
      then the separator alone, for "," and then for newline;
    - prefixes and their shifts: "", "0.", "0.0", "0.00", "0.000", then each
      after a "-".
    """
    heads, rests = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        k = 16 - e
        if k >= 0:
            head = float(10**k)
            rests.append(float(10**k - int(head)))
        else:
            head = 1 / 10**-k
            num, den = head.as_integer_ratio()
            rests.append((den - num * 10**-k) / (den * 10**-k))
        heads.append(head)
    upper = [math.ldexp(round(m * 2**26), e - 26) for m, e in map(math.frexp, heads)]
    powers = np.array([heads, upper, np.subtract(heads, upper), rests])
    group = np.arange(10_000)
    place = group[:, None] // np.array([1000, 100, 10, 1]) % 10
    digits = (place + ord("0")).astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    zeros = sum(group % 10**j == 0 for j in range(1, 5))
    masks = _words([b"\xff" * k for k in range(25)], 3).T.copy()
    dots = _words([b"\0" * k + b"." for k in range(25)], 3).T.copy()
    start = 8 * np.arange(25) - 64 * np.arange(3)[:, None]  # the bit where byte k starts, in word w
    left = np.where((start >= 0) & (start < 64), start, 64).astype(np.uint64)  # a shift by 64 gives 0
    right = np.where((start < 0) & (start > -64), -start, 64).astype(np.uint64)
    suffixes = _words([b"e%+03d" % e + sep if e <= _E_MAX else sep
                       for sep in (b",", b"\n") for e in range(_E_MIN, _E_MAX + 2)], 1).ravel()
    texts = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    texts += [b"-" + t for t in texts]
    prefixes = _words(texts, 1).ravel()
    shifts = np.array([8 * len(t) for t in texts], dtype=np.uint64)
    return powers, digits, zeros, masks, dots, left, right, suffixes, prefixes, shifts


def _numeric_cells(values: np.ndarray, newline: np.ndarray) -> np.ndarray:
    """`b"%.17g" % v` and then b"\\n" where newline holds or b"," elsewhere, for each
    float64 v, as an `S32` array, byte for byte.

    `%.17g` writes D = round(|v| 10**(16 - E)), the 17 significant digits of
    |v| at its decimal exponent E, with trailing zeros dropped, in fixed
    notation if -4 <= E < 17 and as d.ddd...e±XX otherwise. Every step below
    rounds the same on every CPU:
    - E = floor(log10|v|) is a guess, which the scaled value corrects: it must
      lie in [1e16, 1e17), both exact doubles, so a log10 that differs by an
      ulp between SIMD levels cannot move a byte.
    - The scaled value is |v| times the double-double 10**(16 - E), by
      Dekker's two-product: head p = fl(|v| h) plus an exact error term, plus
      |v| times the table's rest. p is an integer, and the fraction left over
      is off by under 1e-14, so D = p + rint(rest) is exact unless the rest
      lies within 1e-6 of a half-way point; a rounding that carries to 1e17
      moves E up by one.
    - D's digits are three 64-bit words of ASCII, four digits per table
      lookup, the first digit in the low byte. The cell is laid out by masks
      and shifts on those words: a "." after the integer digits, the trailing
      zeros cut, then the exponent and separator after the last digit and the
      sign and any "0.000" before the first.
    A cell that is not finite, has 1e-290 > |v| > 0 or |v| >= 1e280 (outside
    the table), or lies near a half-way point is formatted by `%` itself.
    """
    powers, digits, zeros, masks, dots, left, right, suffixes, prefixes, shifts = _cell_tables()
    n = values.shape[0]
    zero = values == 0
    ax = np.abs(values)
    fast = (ax >= 1e-290) & (ax < 1e280)
    ax[~fast] = 1.0

    def scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a 10**(16 - e) as p + rest: p = fl(a h) and rest = (a h - p) + a l, for 10**(16 - e) = h + l."""
        head, upper, lower, tail = powers.take(e - _E_MIN, axis=1)
        p = a * head
        c = a * _SPLIT
        a_upper = c - (c - a)
        a_lower = a - a_upper
        rest = a_upper * upper - p
        rest += a_upper * lower
        rest += a_lower * upper
        rest += a_lower * lower
        rest += a * tail
        return p, rest

    E = np.floor(np.log10(ax)).astype(np.int64)
    p, rest = scaled(ax, E)
    # p + rest must lie in [1e16, 1e17): p is an integer, so 1e16 - p and
    # 1e17 - p are exact wherever the comparison is close
    short = rest < 1e16 - p
    over = rest >= 1e17 - p
    off = np.flatnonzero(short | over)
    if off.size:
        E[off] += over[off].astype(np.int64) - short[off]
        p[off], rest[off] = scaled(ax[off], E[off])
    rounded = np.rint(rest)
    near_half = np.abs(rest - rounded) > 0.5 - 1e-6
    D = p.astype(np.int64) + rounded.astype(np.int64)
    carry = D == 10**17
    D[carry] = 10**16
    E[carry] += 1
    D[zero] = 0  # written as the digit "0" in fixed notation, signed like any other cell
    E[zero] = 0

    # the 17 digits as words: d0..d7, d8..d15 and d16
    first, later = np.divmod(D, 10**9)
    later, last = np.divmod(later, 10)
    g0, g1 = np.divmod(first, 10**4)
    g2, g3 = np.divmod(later, 10**4)
    words = np.empty((3, n), np.uint64)
    np.bitwise_or(digits.take(g0), digits.take(g1) << np.uint64(32), out=words[0])
    np.bitwise_or(digits.take(g2), digits.take(g3) << np.uint64(32), out=words[1])
    np.add(last, ord("0"), out=words[2], casting="unsafe")
    kept = np.full(n, 17)  # significant digits once trailing zeros are cut
    ends = np.flatnonzero(last == 0)
    if ends.size:
        g0, g1, g2, g3 = g0[ends], g1[ends], g2[ends], g3[ends]
        cut = np.where(g3, zeros.take(g3), 4 + np.where(g2, zeros.take(g2), 4 + np.where(
            g1, zeros.take(g1), 4 + zeros.take(g0))))
        kept[ends] = 16 - cut

    # the "." goes after digit E (fixed notation) or after the first digit; a
    # fixed cell below 1 keeps its digits whole and gets its "0.000" as prefix
    fixed = (E >= -4) & (E < 17)
    dot = np.where(fixed, np.where(E >= 0, E + 1, kept), 1)
    length = np.where(kept > dot, kept + 1, dot)
    below = words & masks.take(dot, axis=1)
    words ^= below
    core = words << np.uint64(8)
    core[1:] |= words[:-1] >> np.uint64(56)
    core |= below
    core |= dots.take(dot, axis=1)
    core &= masks.take(length, axis=1)
    suffix = suffixes.take(np.where(fixed, _SUFFIXES - 1, E - _E_MIN) + _SUFFIXES * newline)
    core |= suffix << left.take(length, axis=1)
    core |= suffix >> right.take(length, axis=1)
    prefix = np.where(fixed & (E < 0), -E, 0) + 5 * np.signbit(values)  # its index in prefixes
    shift = shifts.take(prefix)
    out = np.empty((4, n), "<u8")  # little-endian on any CPU, so each cell's text is in reading order
    np.left_shift(core, shift, out=out[:3])
    out[0] |= prefixes.take(prefix)
    core >>= np.uint64(64) - shift
    out[1:3] |= core[:2]
    out[3] = core[2]
    cells = out.T.copy().view("S32").ravel()

    slow = np.flatnonzero(~(fast | zero) | near_half)
    cells[slow] = [b"%.17g" % v + (b"\n" if nl else b",")
                   for v, nl in zip(values[slow].tolist(), newline[slow].tolist())]
    return cells


# csv_rows writes a longer table in equal parts of at most this many rows, so
# that the temporaries of `_numeric_cells`, a few hundred bytes a cell, stay
# in the CPU's caches and the memory taken grows with the part, not the table
_PART_ROWS = 8192


def _csv_part(columns: list) -> bytes:
    """The lines of `csv_rows` for columns of one length, as bytes."""
    n = len(columns[0])
    cells: list[np.ndarray | None] = []
    numeric: list[tuple[int, np.ndarray]] = []
    for i, col in enumerate(columns):
        sep = b"\n" if i == len(columns) - 1 else b","
        if not isinstance(col, np.ndarray):
            cells.append(np.strings.add(np.array([s.encode() for s in col], dtype=bytes), sep))
        elif col.dtype.kind == "S":
            cells.append(np.strings.add(col, sep))
        else:
            values = col.astype(np.float64)
            bits = values.view(np.int64)
            if (bits == bits[0]).all():  # one float throughout, as in a trace block's step column
                cells.append(np.full(n, b"%.17g" % values[0] + sep))
            else:
                cells.append(None)
                numeric.append((i, values))
    if numeric:
        newline = np.repeat([i == len(columns) - 1 for i, _ in numeric], n)
        formatted = _numeric_cells(np.concatenate([v for _, v in numeric]), newline)
        for (i, _), col_cells in zip(numeric, formatted.reshape(len(numeric), n)):
            cells[i] = col_cells
    return b"".join(reduce(np.strings.add, cells).tolist())


def csv_rows(*columns) -> str:
    """Equal-length columns as comma-separated lines, each ending in a newline.

    This is the only CSV writer. A column's dtype is the rule: the cells of a
    numpy array of bytes (`S` dtype) and of a sequence of str pass through
    unchanged, and any other numpy array is numeric, its cells written as
    `%.17g`, 17 significant digits, which read back as the same float.
    Callers prepend the header line.

    The numeric cells of all columns are computed together in numpy by
    `_numeric_cells`, byte for byte as `%.17g` writes them. These cells still
    take `%` itself: a cell that is not finite, a nonzero one with
    |x| < 1e-290 or |x| >= 1e280, one within 1e-6 of a half-way point between
    two 17-digit decimals, and the one cell of a column whose cells are all
    the same float, which is repeated.
    """
    n = min(map(len, columns), default=0)
    parts = -(-n // _PART_ROWS)
    bounds = [0, *(p * n // parts for p in range(1, parts + 1))]
    return b"".join(_csv_part([col[lo:hi] for col in columns]) for lo, hi in zip(bounds, bounds[1:])).decode()
