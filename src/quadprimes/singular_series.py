"""Singular series over prime ideals, their rational counterpart, and the
smoothed sums they control.

Prime ideals come from `ideals.prime_ideal_table` and rational primes from
the same sieve, both bounded by `ideals.PRIME_BUDGET`, as is the number of
rational shifts.  Z and O_K share one record, `_EulerData`, and one recipe
for a truncated Euler product: Z is the ring of shifts (h, 0) whose prime
ideals are the (p) of root 0, with 2Z its one norm-2 ideal.  The recipe is
a base product over the prime ideals of norm >= 3, taken sequentially in
ascending (norm, p, root) order by `np.multiply.accumulate` and cached, then
the norm-2 factors (0 or 2 exactly), then one correction ratio per prime
ideal containing the shift, in the same order.  Pointwise evaluation
(`_euler_value`) tests every ideal of norm up to |N(shift)| at once.  The
sieves (`_sieve_box`, `sieved_singular_rational`) give each entry the same
factors in the same order, by strided slices and an ordered
`np.multiply.at`, so sieved values are bit-identical to pointwise ones.  A
box is sieved only on a region that holds all its values by symmetry: the
quadrant k1, k2 >= 0 for D = 2, 3 (mod 4), the rows k1 >= 0 otherwise.  A
process keeps one sieved region alive (`_covering_box`); every box, of the
smoothed sums' H or asked for, is unfolded from it (`_unfold`).  The
residue's character table is `ideals._character_table`; its moments are
summed exactly over half a period, the powers r^j held as base-2^32 limbs
in int64 lanes and each limb summed by one dot product with chi, and
reflected by chi(q - r) = chi(-1) chi(r).  The mu^2/phi partial sums take
one walk over the squarefree ideals for all their cutoffs, built as arrays
and added by `np.cumsum` in the walk order that also orders
`ideals.enumerate_squarefree_ideals` (`ideals._walk_positions`), so each
equals a recursive walk's sum bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, UsageError, brief
from .fields import FieldSpec, QuadInt
from .ideals import (PRIME_BUDGET, _character_table, _prime_sieve, _ranges, _walk_positions,
                     lattice_half_points, prime_ideal_table, squarefree_levels)

DEFAULT_CUTOFF = 100_000

# largest number of character-sum terms, (blocks + moments) * |d|, that
# residue_rk evaluates
RESIDUE_TERM_BUDGET = 20_000_000
# largest number of entries in all the boxes, one per H, of singular_sums_smoothed
SMOOTHED_ENTRY_BUDGET = 400_000_000


# ---------------------------------------------------------------------------
# Residue of the Dedekind zeta function


@dataclass(frozen=True, slots=True)
class ResidueValue:
    value: float
    error_bound: float
    method: str


# character-sum terms (and moment rows) per numpy chunk of residue_rk
_RESIDUE_CHUNK = 1 << 15


def _exact_sum(chi: np.ndarray, stop: int) -> float:
    """Correctly rounded sum of the floats chi[n % q] / n over 1 <= n < stop.

    The terms go one character period n = b*q + r at a time (or
    _RESIDUE_CHUNK // q periods against a tiled chi), in chunks of at most
    `_RESIDUE_CHUNK`, so chi is sliced, not gathered.  Each term t is a
    multiple of 2^-S with S = 53 + stop.bit_length(), so t * 2^S is an
    integer.  It is split exactly, in place, into floor(t * 2^A), at most 2^A
    in size, and the remainder scaled by 2^(S-A), below 2^(S-A); both are
    summed as int64 over one chunk, then as Python ints.  Under the term
    budget (stop < 2^25) S <= 78, so a chunk of up to 2^20 terms sums below
    2^60.  The integer total is exact in any order, and the one final
    division rounds half to even, as `math.fsum` does.
    """
    q = len(chi)
    S = 53 + stop.bit_length()
    A = S // 2
    hi_scale, lo_scale = 2.0**A, 2.0 ** (S - A)
    period = q * max(1, _RESIDUE_CHUNK // q)
    chi_tiled = np.tile(chi.astype(np.float64), period // q)
    offsets = np.arange(period, dtype=np.float64)
    total = 0
    for base in range(0, stop, period):
        for lo in range(1 if base == 0 else 0, min(period, stop - base), _RESIDUE_CHUNK):
            hi = min(lo + _RESIDUE_CHUNK, period, stop - base)
            x = np.add(offsets[lo:hi], base)  # n, exact as a float below 2^53
            np.divide(chi_tiled[lo:hi], x, out=x)
            x *= hi_scale
            top = np.floor(x)
            x -= top
            x *= lo_scale
            total += (int(top.astype(np.int64).sum()) << (S - A)) + int(x.astype(np.int64).sum())
    return total / (1 << S)


# the largest node of numpy's pairwise tree that one np.add.reduce sums; at least 128
_PAIRWISE_LEAF = 1 << 16


def _pairwise_leaves(n: int, lo: int = 0) -> list[tuple[int, int]]:
    """The nodes (lo, hi) of at most `_PAIRWISE_LEAF` terms, in order, of the
    tree in which `np.add.reduce` sums n terms of a C-contiguous float64
    array: above 128 terms a node of n terms splits at n//2 - (n//2) % 8."""
    if n <= _PAIRWISE_LEAF:
        return [(lo, lo + n)]
    n2 = n // 2 - n // 2 % 8
    return _pairwise_leaves(n2, lo) + _pairwise_leaves(n - n2, lo + n2)


def _pairwise(n: int, sums) -> float:
    """`np.add.reduce` of n terms, bit for bit, from the iterator `sums` of the
    np.add.reduce of each node of `_pairwise_leaves(n)`, added up its tree."""
    if n <= _PAIRWISE_LEAF:
        return float(next(sums))
    n2 = n // 2 - n // 2 % 8
    return _pairwise(n2, sums) + _pairwise(n - n2, sums)


def _moments(chi: np.ndarray, kmax: int) -> list[int]:
    """The character moments m_k = sum_{0<r<q} chi(r) r^k, k = 1..kmax, as
    exact ints, from the half moments M_j = sum_{0<r<q/2} chi(r) r^j: as
    chi(q - r) = chi(-1) chi(r) (and chi(q/2) = 0 for even q),
    m_k = M_k + chi(-1) sum_{j<=k} C(k, j) q^(k-j) (-1)^j M_j.

    Each r^j is held as base-2^32 limbs in int64 lanes, a limb added as its
    bits grow; M_j is the sum of the limbs' dot products with chi, shifted
    back together as Python ints.  Under the term budget q < 2^21, so
    r < q/2 < 2^20, a limb times r plus the carry stays below 2^53, and a
    dot over fewer than 2^20 lanes of limbs below 2^32 stays below 2^52.
    """
    q, half = len(chi), [0] * (kmax + 1)
    for lo in range(1, (q + 1) // 2, _RESIDUE_CHUNK):
        r = np.arange(lo, min(lo + _RESIDUE_CHUNK, (q + 1) // 2))
        c, limbs = chi[r], [np.ones_like(r)]
        half[0] += int(c.sum())
        for j in range(1, kmax + 1):
            carry = 0
            for i, limb in enumerate(limbs):
                x = limb * r + carry
                limbs[i], carry = x & 0xFFFFFFFF, x >> 32
            if carry.any():
                limbs.append(carry)
            half[j] += sum(int(np.dot(limb, c)) << 32 * i for i, limb in enumerate(limbs))
    sign = int(chi[q - 1])  # chi(-1)
    return [half[k] + sign * sum(math.comb(k, j) * q ** (k - j) * (-1) ** j * half[j]
                                 for j in range(k + 1)) for k in range(1, kmax + 1)]


def _em_coeffs(count: int) -> tuple[Fraction, ...]:
    """B_2j / (2j)! for j = 1..count, with the Bernoulli numbers B_m exact
    from sum_{k <= m} C(m+1, k) B_k = 0."""
    B = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return tuple(B[2 * j] / math.factorial(2 * j) for j in range(1, count + 1))


_EM_COEFFS = _em_coeffs(12)


def _hurwitz_zeta(s: int, a: int) -> float:
    """zeta(s, a) = sum_{n >= a} n^-s for integers s >= 2 and a >= 1.

    The terms below N = max(a, 32) are summed directly and the rest is the
    Euler-Maclaurin expansion at N:
    N^(1-s)/(s-1) + N^-s/2 + sum_{j=1}^{12} B_2j/(2j)! s(s+1)..(s+2j-2) N^(1-s-2j).
    All of these terms are added by one `math.fsum`.  The derivatives of
    x^-s keep their signs, so the omitted remainder is at most the first
    omitted (j = 13) term, below 1e-20 of the value for s <= 19; the result
    is within a few units of 1e-16 relative of the exact value.
    """
    N = max(a, 32)
    terms = [n ** -s for n in range(a, N)] + [N ** (1 - s) / (s - 1), N ** -s / 2]
    rising = s  # s (s+1) ... (s+2j-2)
    for j, c in enumerate(_EM_COEFFS, 1):
        terms.append(float(c * rising) * N ** (1 - s - 2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return math.fsum(terms)


@lru_cache(maxsize=32)
def residue_rk(field: FieldSpec, tol: float, blocks: int = 128) -> ResidueValue:
    """L(1, chi_d) for the field discriminant d, i.e. Res_{s=1} zeta_K.

    The series is summed over `blocks` full periods of the character exactly
    (an integer sum of the float terms, rounded once), and the remainder is
    evaluated analytically from the exact character moments and the
    Euler-Maclaurin Hurwitz zeta values of `_hurwitz_zeta`, whose omitted
    terms (below 1e-20 relative) the bound leaves out; the reported error
    bound is dominated by float rounding of the direct part.
    """
    if not tol > 0:
        raise UsageError(f"tol must be positive, got {tol!r}")
    if not isinstance(blocks, int) or blocks < 1:
        raise UsageError(f"blocks must be an integer >= 1, got {blocks!r}")
    d = field.discriminant
    q = abs(d)
    kmax = 18  # character moments in the tail
    terms = (blocks + kmax) * q
    if terms > RESIDUE_TERM_BUDGET:
        raise BudgetError(f"the residue for |d| = {q} needs {terms} character-sum "
                          f"terms, over the budget of {RESIDUE_TERM_BUDGET}")
    remainder = 2.0 * blocks ** (-(kmax + 1)) * (1.0 + blocks / kmax)
    rounding = 4.0e-16 * (1.0 + math.log(max(blocks * q, 2)))
    bound = remainder + rounding
    if bound > tol:
        raise BudgetError(
            f"cannot certify tolerance {tol:g}; reachable bound is {bound:g}"
        )
    chi = _character_table(d)
    direct = _exact_sum(chi, blocks * q)
    # tail: sum over j >= blocks, r in 1..q of chi(r)/(j q + r), expanded in
    # powers of r/(j q); the k = 0 moment vanishes for a nonprincipal character
    tail = 0.0
    for k, m_k in enumerate(_moments(chi, kmax), start=1):
        tail += (-1) ** k * (m_k / q ** (k + 1)) * _hurwitz_zeta(k + 1, blocks)
    return ResidueValue(direct + tail, bound, "character-series+moment-tail")


# ---------------------------------------------------------------------------
# Euler product plumbing (shared by pointwise values and sieves)


def _base_factor(n):
    """Euler factor when the shift avoids the ideal: (1-2/N)/(1-1/N)^2, for
    an array of norms.  numpy squares by x*x and a Python float by pow(x, 2),
    which differ for a few N below `PRIME_BUDGET` but for no prime and no
    prime square, the only norms of prime ideals."""
    return (1.0 - 2.0 / n) / (1.0 - 1.0 / n) ** 2


def _base_product(norms: np.ndarray) -> float:
    """The product of the base factors, taken sequentially in the order given:
    the last partial product of `np.multiply.accumulate`."""
    return float(np.multiply.accumulate(np.r_[1.0, _base_factor(norms)])[-1])


def _member_ratio(n):
    """Ratio of the member factor to the base factor: (N-1)/(N-2), for an int
    or an array of ints."""
    return (n - 1.0) / (n - 2.0)


@dataclass(frozen=True)
class _EulerData:
    norm2_roots: tuple[int, ...]         # roots of the (at most two) norm-2 ideals
    base: float                          # product of base factors, norm >= 3
    # the ideals of norm >= 3 in ascending (norm, p, root) order, as arrays:
    # the norm, the rational prime p, the root (-1 for inert), rows b1x, b1y,
    # b2x, b2y of reduced lattice bases (None for Z), and the ratios
    norm: np.ndarray                     # (n,) int64
    p: np.ndarray                        # (n,) int64
    root: np.ndarray                     # (n,) int64
    bases: np.ndarray | None             # (4, n) int64
    ratio_array: np.ndarray              # (n,) float64


def _reduced_bases(p: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Lagrange-Gauss reduced bases of the ideals' coordinate lattices, as
    rows b1x, b1y, b2x, b2y with |b1| <= |b2|.

    A split or ramified ideal (p, omega - root) starts from (p, 0), (-root, 1)
    and an inert one (root -1) from (p, 0), (0, p); all ideals are reduced
    together.
    """
    inert = root < 0
    x1, y1 = p, np.zeros_like(p)
    x2, y2 = np.where(inert, 0, -root), np.where(inert, p, 1)
    while True:
        swap = x2 * x2 + y2 * y2 < x1 * x1 + y1 * y1
        x1, x2 = np.where(swap, x2, x1), np.where(swap, x1, x2)
        y1, y2 = np.where(swap, y2, y1), np.where(swap, y1, y2)
        n1 = x1 * x1 + y1 * y1
        mu = (2 * (x1 * x2 + y1 * y2) + n1) // (2 * n1)  # nearest integer
        if not mu.any():
            return np.stack([x1, y1, x2, y2])
        x2, y2 = x2 - mu * x1, y2 - mu * y1


@lru_cache(maxsize=16)
def _euler_data(field: FieldSpec, cutoff: int) -> _EulerData:
    if cutoff < 2:
        raise UsageError(f"cutoff must be at least 2, got {cutoff}")
    table = prime_ideal_table(field, cutoff)
    # the norm-2 ideals lead the (norm, p, root) order: the rest are views
    k = int(np.searchsorted(table.norm, 3))
    p, root, norm = table.p[k:], table.root[k:], table.norm[k:]
    bases, ratio_array = _reduced_bases(p, root), _member_ratio(norm)
    bases.flags.writeable = ratio_array.flags.writeable = False
    return _EulerData(tuple(table.root[:k].tolist()), _base_product(norm),
                      norm, p, root, bases, ratio_array)


@dataclass(frozen=True, slots=True)
class SingularValue:
    value: float
    cutoff: int
    tail_bound: float  # relative bound on the omitted factors


def _tail_bound(cutoff: int) -> float:
    # prod over N > P of (1 +- 1/(N-1)^2) bounded by sum 2/(m-1)^2 <= 4/P
    return 4.0 / cutoff


def singular_series(eta: QuadInt, cutoff: int = DEFAULT_CUTOFF) -> SingularValue:
    """Truncated singular series for a nonzero shift eta.

    Product over prime ideals of norm <= cutoff of
    (1 - nu/N) / (1 - 1/N)^2 with nu = 1 if eta lies in the ideal, else 2.
    """
    if eta.is_zero():
        raise UsageError("the singular series is undefined at eta = 0")
    value = _euler_value(_euler_data(eta.field, cutoff), eta.k1, eta.k2, abs(eta.norm()))
    return SingularValue(value, cutoff, _tail_bound(cutoff))


def _euler_value(data: _EulerData, k1: int, k2: int, norm_bound: int) -> float:
    """The Euler product of `data` at the shift (k1, k2) != 0, of absolute
    norm `norm_bound`: no ideal of larger norm (all are within PRIME_BUDGET)
    contains it."""
    value = data.base
    for r in data.norm2_roots:
        value *= 2.0 if (k1 + r * k2) % 2 == 0 else 0.0
    if value != 0.0:
        n = int(np.searchsorted(data.norm, min(norm_bound, PRIME_BUDGET), "right"))
        p, root = data.p[:n], data.root[:n]
        r1, r2 = _residues(k1, p), _residues(k2, p)
        member = np.where(root < 0, (r1 == 0) & (r2 == 0), (r1 + root * r2) % p == 0)
        value = math.prod(data.ratio_array[:n][member].tolist(), start=value)
    return value


def _residues(k: int, p: np.ndarray) -> np.ndarray:
    """k mod each entry of p, for any Python int k."""
    try:
        return k % p
    except OverflowError:  # k does not fit in int64
        return np.array([k % q for q in p.tolist()], dtype=np.int64)


@lru_cache(maxsize=8)
def _rational_euler_data(cutoff: int) -> _EulerData:
    """The Euler record of Z: 2Z and the (p), p = 3..cutoff, all of root 0."""
    if cutoff < 2:
        raise UsageError(f"cutoff must be at least 2, got {cutoff}")
    if cutoff > PRIME_BUDGET:
        raise BudgetError(f"cutoff {cutoff} exceeds the prime budget {PRIME_BUDGET}")
    p = np.flatnonzero(_prime_sieve(cutoff))[1:].astype(np.int64)
    root, ratio_array = np.zeros_like(p), _member_ratio(p)
    p.flags.writeable = root.flags.writeable = ratio_array.flags.writeable = False
    return _EulerData((0,), _base_product(p), p, p, root, None, ratio_array)


def singular_series_rational(h: int, cutoff: int = DEFAULT_CUTOFF) -> SingularValue:
    """Truncated Hardy-Littlewood singular series for a nonzero integer shift."""
    if h == 0:
        raise ValueError("the singular series is undefined at h = 0")
    value = _euler_value(_rational_euler_data(cutoff), h, 0, abs(h))
    return SingularValue(value, cutoff, _tail_bound(cutoff))


# ---------------------------------------------------------------------------
# Sieved evaluation over boxes


@dataclass(frozen=True)
class SingularBox:
    """Singular-series values on the coordinate box sup|m(eta)| <= radius.

    `values[i, j]` holds the value at (k1, k2) = (i - radius, j - radius);
    the origin entry is NaN.
    """

    field: FieldSpec
    radius: int
    cutoff: int
    tail_bound: float
    values: np.ndarray

    def value_at(self, k1: int, k2: int) -> SingularValue:
        if k1 == 0 and k2 == 0:
            raise ValueError("the singular series is undefined at eta = 0")
        M = self.radius
        if abs(k1) > M or abs(k2) > M:
            raise ValueError("point outside the sieved box")
        return SingularValue(float(self.values[k1 + M, k2 + M]), self.cutoff, self.tail_bound)


# ideals of norm <= W // _STRIDED_FRACTION, for a box of width W, are sieved
# by strided slices rather than listed
_STRIDED_FRACTION = 8


def _sieve_box(field: FieldSpec, radius: int, cutoff: int) -> np.ndarray:
    """Sieve the singular series over the region of the box
    sup|m(eta)| <= radius that `_unfold` builds the box from.

    Every ideal is closed under negation, so S(-eta) = S(eta) factor by
    factor.  Conjugation permutes the prime ideals and keeps their norms,
    and a factor depends only on the norm and on membership, so S is also
    invariant under conjugation, which maps k1 + k2*omega, omega a root of
    x^2 + b x + c, to (k1 - b*k2) - k2*omega: for b = 0 (D = 2, 3 mod 4)
    S(k1, -k2) = S(k1, k2), bit for bit.  So the rows k1 >= 0
    hold every value of the box, and for b = 0 so does the quadrant
    k1, k2 >= 0.  That region is sieved: for b = 0 an array of shape
    (radius+1, radius+1) whose [i, j] holds the value at (i, j), otherwise
    one of shape (radius+1, 2 radius+1) whose [i, j] holds the value at
    (i, j - radius).  The origin is NaN.

    After the base fill and the norm-2 factors, every prime ideal of norm >= 3
    multiplies its ratio into the entries at the points of its coordinate
    lattice.  (p, omega - r) holds (k1, k2) exactly when k1 = -r*k2 (mod p)
    and an inert (p) when p divides both, so each residue class of columns
    is one strided slice of rows from row 0.  The norm-2 factors (2 on the
    ideal, 0 off it) and the ideals of norm <= W // `_STRIDED_FRACTION` (box
    width W), a prefix of the ascending order, are applied so.  The larger
    ideals' points in the region are listed by `ideals.lattice_half_points`
    from reduced bases, row by row of the second coefficient, each row
    clipped to the region, in ascending ideal order, and applied with
    `np.multiply.at` a chunk at a time.  `ufunc.at` applies repeated indices
    in order, so each entry is multiplied by its ideals' ratios in ascending
    norm order, as in `singular_series`, and entries agree bit-for-bit with
    pointwise evaluation.  On the rows k1 >= 0 the walk lists one point of
    each +-pair, applied to whichever of eta, -eta lies in the rows k1 > 0,
    or at k2 > 0 on the row k1 = 0, which is then mirrored onto its k2 < 0.
    An ideal of norm N holds no eta != 0 with |N(eta)| < N, so the walk stops
    past the norm (1 + |b| + |c|) R^2, which bounds |N| on the box.
    """
    R = radius
    data = _euler_data(field, cutoff)
    b, c = field.minpoly_omega()
    C = R if b else 0  # the column of k2 = 0
    vals = np.full((R + 1, R + 1 + C), data.base, dtype=np.float64)
    # (k1, k2) = (i, j - C) lies in (p, omega - r) when i = r (C - j) mod p
    for r in data.norm2_roots:
        for j in range(2):
            i = r * (C - j) % 2
            vals[i::2, j::2] *= 2.0
            vals[1 - i :: 2, j::2] *= 0.0
    n_small = int(np.searchsorted(data.norm, (2 * R + 1) // _STRIDED_FRACTION, "right"))
    for p, r, ratio in zip(data.p[:n_small].tolist(), data.root[:n_small].tolist(),
                           data.ratio_array[:n_small].tolist()):
        if r < 0:
            vals[::p, C % p :: p] *= ratio
        else:
            for j in range(p):
                vals[r * (C - j) % p :: p, j::p] *= ratio
    n_big = int(np.searchsorted(data.norm, (1 + abs(b) + abs(c)) * R * R, "right"))
    flat, ratio, width = vals.reshape(-1), data.ratio_array[n_small:], vals.shape[1]
    for i, k1, k2 in lattice_half_points(data.bases[:, n_small:n_big], R, quadrant=C == 0):
        idx = k1 * width + (k2 + C)
        # -eta sits at 2C - idx: below row 0, or left of k2 = 0 on it
        np.multiply.at(flat, np.maximum(idx, 2 * C - idx), ratio[i])
    vals[0, :C] = vals[0, 2 * C : C : -1]
    vals[0, C] = np.nan
    return vals


def _unfold(region: np.ndarray, M: int, out: np.ndarray, ufunc=np.positive, *args,
            rows: tuple[int, int] | None = None) -> np.ndarray:
    """Write ufunc(S, *args) over the rows r0..r1-1 of the box [-M, M]^2
    (k1 = r0 - M .. r1 - 1 - M; by default all 2M+1) into `out`, of shape
    (r1 - r0, 2M+1) in C order, from the `_sieve_box` region `region` of a
    radius >= M; `np.positive` copies.

    The rows k1 >= 0 come from the region, its quadrant mirrored by k2 -> -k2
    when it is one, and a row k1 < 0 is the row -k1 mirrored by
    eta -> -eta.  Every entry is the value at its own point, bit for bit.
    """
    R = region.shape[0] - 1
    r0, r1 = rows or (0, 2 * M + 1)
    mid = min(max(M, r0), r1)  # the first of the rows k1 >= 0
    for dst, src, flip in ((out[: mid - r0], region[M - r0 : M - mid : -1], True),
                           (out[mid - r0 :], region[mid - M : r1 - M], False)):
        if region.shape[1] == R + 1:  # the quadrant
            ufunc(src[:, : M + 1], *args, out=dst[:, M:])
            ufunc(src[:, M:0:-1], *args, out=dst[:, :M])
        else:
            cols = src[:, R - M : R + M + 1]
            ufunc(cols[:, ::-1] if flip else cols, *args, out=dst)
    return out


# (field, cutoff, region): the region sieved for the largest box under the
# last (field, cutoff) asked for, or None
_largest_box: tuple[FieldSpec, int, np.ndarray] | None = None


def _covering_box(field: FieldSpec, radius: int, cutoff: int) -> np.ndarray:
    """A `_sieve_box` region of this field and cutoff, of radius >= `radius`.

    The radius must be at least 1 and the box within the memory budget; both
    are checked before the cache is looked at.  The cache holds one region,
    with read-only values: that of the largest box sieved under the last
    (field, cutoff) asked for.  It is returned when it covers `radius`;
    otherwise the cutoff is validated, so a bad one raises with the cache
    kept, and the region is dropped, freeing its memory before the new one
    is allocated, and a region sieved at `radius` takes its place.  Two
    threads that miss at once each sieve a region; both are correct, and the
    last one stored stays in the cache.
    """
    global _largest_box
    if radius < 1:
        raise ValueError("radius must be at least 1")
    W = 2 * radius + 1
    if W * W > 40_000_000:
        raise BudgetError(f"box with {brief(W * W)} entries exceeds the memory budget")
    cached = _largest_box
    # a region of radius R has the R + 1 rows k1 = 0..R
    if cached is not None and cached[:2] == (field, cutoff) and len(cached[2]) > radius:
        return cached[2]
    _euler_data(field, cutoff)
    cached = _largest_box = None  # free the old region before the new one is allocated
    region = _sieve_box(field, radius, cutoff)
    region.flags.writeable = False
    _largest_box = (field, cutoff, region)
    return region


def sieved_singular_box(
    field: FieldSpec, radius: int, cutoff: int = DEFAULT_CUTOFF
) -> SingularBox:
    """Singular-series values over the coordinate box sup|m(eta)| <= radius,
    bit-identical to pointwise `singular_series`.

    The box is unfolded (`_unfold`) from the region that `_covering_box`
    keeps alive, sieved for the largest box under the last (field, cutoff)
    asked for, until another (field, cutoff) is asked for; `_sieve_box`
    describes the sieve.  A smaller box is the centre of a larger one, since
    every entry depends only on its lattice point.  The values are a new
    C-contiguous array, read-only.
    """
    W = 2 * radius + 1
    values = _unfold(_covering_box(field, radius, cutoff), radius, np.empty((W, W)))
    values.flags.writeable = False
    return SingularBox(field, radius, cutoff, _tail_bound(cutoff), values)


@dataclass(frozen=True, slots=True)
class SmoothedSumResult:
    value: float
    uncertainty: float  # worst-case effect of the Euler-product truncation
    H: float
    cutoff: int


def _box_sums(region: np.ndarray, wq: np.ndarray, M: int) -> tuple[float, float]:
    """`np.sum` of (S - 1) w and of |S| w over the box [-M, M]^2, origin zeroed,
    bit for bit, for S unfolded from `region` and w from its quadrant `wq`.
    Each node of `_pairwise_leaves` unfolds the box rows it meets, weighs them
    by the rows `_unfold` makes of `wq` (a quadrant) and sums its own range."""
    W = 2 * M + 1
    leaves = _pairwise_leaves(W * W)
    height = min(W, max(hi - lo for lo, hi in leaves) // W + 2)
    weights, t, sums = np.empty((height, W)), np.empty((height, W)), []
    for lo, hi in leaves:
        r0, r1 = lo // W, (hi - 1) // W + 1
        w = _unfold(wq, M, weights[: r1 - r0], rows=(r0, r1))
        for ufunc, *args in ((np.subtract, 1.0), (np.abs,)):
            x = _unfold(region, M, t[: r1 - r0], ufunc, *args, rows=(r0, r1))
            x *= w
            if r0 <= M < r1:
                x[M - r0, M] = 0.0  # origin excluded; its NaN must not reach the sum
            sums.append(np.add.reduce(x.reshape(-1)[lo - r0 * W : hi - r0 * W]))
    return _pairwise(W * W, iter(sums[::2])), _pairwise(W * W, iter(sums[1::2]))


def singular_sums_smoothed(
    field: FieldSpec, w, Hs: list[float], cutoff: int = DEFAULT_CUTOFF
) -> list[SmoothedSumResult]:
    """Smoothed sums of (singular series - 1) over nonzero shifts, one per H.

    Sums (S(eta) - 1) * w(m(eta)/H) over the scaled support box, for each H
    unfolded from the region `_covering_box` keeps for the largest H (every
    entry depends only on its lattice point).  w must be even in each
    coordinate, as both `TestFunction` kinds are, so it is evaluated on one
    quadrant.  `_box_sums` weighs and sums a few box rows at a time and adds
    the partial sums up the pairwise tree of `np.sum` over a full mirrored
    weight grid's products, so the sums are bit-identical to that `np.sum`
    with no array of the box.  The boxes of all the H hold at most
    `SMOOTHED_ENTRY_BUDGET` entries.  The reported uncertainty is the
    conservative per-term tail bound; membership and avoidance corrections
    beyond the cutoff cancel on average, so the realized truncation error is
    far smaller.
    """
    for H in Hs:
        if not 2 <= H < math.inf:
            raise UsageError(f"H must be a finite number >= 2, got {H!r}")
    if not Hs:
        return []
    radii = [w.support_box(H) for H in Hs]
    entries = sum((2 * M + 1) ** 2 for M in radii)
    if entries > SMOOTHED_ENTRY_BUDGET:
        raise BudgetError(f"{len(Hs)} scales weigh {brief(entries)} box entries, over the "
                          f"budget of {brief(SMOOTHED_ENTRY_BUDGET)}")
    region = _covering_box(field, max(radii), cutoff)
    results = []
    for H, M in zip(Hs, radii):
        k = np.arange(M + 1)
        wq = np.asarray(w.eval(k[:, None] / H, k[None, :] / H), dtype=np.float64)
        total, size = _box_sums(region, wq, M)
        results.append(SmoothedSumResult(total, _tail_bound(cutoff) * size, H, cutoff))
    return results


def singular_sum_smoothed(
    field: FieldSpec, w, H: float, cutoff: int = DEFAULT_CUTOFF
) -> SmoothedSumResult:
    """`singular_sums_smoothed` at one H."""
    return singular_sums_smoothed(field, w, [H], cutoff)[0]


# ---------------------------------------------------------------------------
# Rational-integer sieve and Montgomery's weighted sum


def sieved_singular_rational(hmax: int, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Singular-series values for shifts 1..hmax (index 0 is NaN).

    The (multiple, ratio) pairs of the primes 3 <= p <= min(hmax, cutoff)
    go in ascending p to an ordered `np.multiply.at`, a chunk of
    `ideals._ranges` at a time, so each entry gets its factors in the order
    of `singular_series_rational`.
    """
    if hmax < 1:
        raise ValueError("hmax must be at least 1")
    if hmax > PRIME_BUDGET:
        raise BudgetError(f"hmax {hmax} exceeds the prime budget {PRIME_BUDGET}")
    data = _rational_euler_data(cutoff)
    vals = np.full(hmax + 1, data.base, dtype=np.float64)
    vals[2::2] *= 2.0
    vals[1::2] *= 0.0
    n = int(np.searchsorted(data.p, hmax, "right"))
    p, ratio = data.p[:n], data.ratio_array[:n]
    for row, k in _ranges(hmax // p):
        np.multiply.at(vals, p[row] * (k + 1), ratio[row])
    vals[0] = np.nan
    return vals


def montgomery_sum(H: int, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Sum over h <= H of (singular series - 1) weighted by (1 - h/H)."""
    if H < 2:
        raise ValueError("H must be at least 2")
    vals = sieved_singular_rational(H, cutoff)
    h = np.arange(1, H + 1, dtype=np.float64)
    return float(np.dot(vals[1:] - 1.0, 1.0 - h / H))


# ---------------------------------------------------------------------------
# Partial sums of mu^2/phi over ideals (log-growth diagnostic)


# estimated squarefree ideals (Y // N for each first product) per array pass
# of mobius_phi_profile
_WALK_CHUNK = 1 << 16


def mobius_phi_profile(field: FieldSpec, cutoffs: list[int]) -> list[float]:
    """Sums of mu^2(q)/phi(q) over squarefree ideals of norm <= Y, for each
    Y in cutoffs.

    Each sum is that of a recursive walk up to its own cutoff, bit for bit:
    the unit ideal, then the 1/phi of each ideal of norm <= Y in walk order
    (`squarefree_levels`), each 1/phi its parent's divided by N - 1.  The
    ideals are built as arrays a run of sibling subtrees at a time, to bound
    the memory: a product with more than `_WALK_CHUNK` estimated descendants
    (Y // N) is taken alone and its children's subtrees after it, the others
    in runs of about that many.  `_walk_positions` scatters a run's terms
    into walk order, and `np.cumsum`, which adds strictly in sequence
    (`np.sum` adds pairwise), continues every cutoff's sum over them.
    """
    if not cutoffs or min(cutoffs) < 1:
        raise UsageError(f"cutoffs must be at least 1, got {cutoffs!r}")
    ys = sorted(set(cutoffs))
    Y = ys[-1]
    norms = prime_ideal_table(field, Y).norm
    den = norms - 1.0
    totals = [1.0] * len(ys)  # the unit ideal

    def add(terms: np.ndarray, term_norms: np.ndarray):
        for j in range(bisect.bisect_left(ys, int(term_norms.min())), len(ys)):
            added = np.concatenate(([totals[j]], terms[term_norms <= ys[j]]))
            totals[j] = float(np.cumsum(added)[-1])

    def walk(last: np.ndarray, norm: np.ndarray, inv_phi: np.ndarray):
        # siblings ascend by norm, so the large subtrees come first
        estimate = Y // norm
        big = int(np.count_nonzero(estimate > _WALK_CHUNK))
        for k in range(big):
            add(inv_phi[k : k + 1], norm[k : k + 1])
            children = np.arange(last[k] + 1, np.searchsorted(norms, estimate[k], "right"))
            walk(children, norm[k] * norms[children], inv_phi[k] / den[children])
        run = (np.cumsum(estimate[big:]) - 1) // _WALK_CHUNK
        starts = big + np.flatnonzero(np.diff(run, prepend=-1))
        for lo, hi in zip(starts.tolist(), starts[1:].tolist() + [last.size]):
            levels = list(squarefree_levels(norms, Y, last[lo:hi], norm[lo:hi]))
            inv = [inv_phi[lo:hi]]
            for parent, child, _ in levels[1:]:
                inv.append(inv[-1][parent] / den[child])
            positions = _walk_positions(levels)
            size = sum(pos.size for pos in positions)
            terms, term_norms = np.empty(size), np.empty(size, np.int64)
            for pos, inv_k, (_, _, norm_k) in zip(positions, inv, levels):
                terms[pos], term_norms[pos] = inv_k, norm_k
            add(terms, term_norms)

    walk(np.arange(norms.size), norms, 1.0 / den)
    return [totals[ys.index(y)] for y in cutoffs]
