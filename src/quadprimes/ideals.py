"""Rational primes, prime ideals, squarefree ideals, Ramanujan sums, and
ideal lattices.

Lists of rational primes come from one sieve (`_prime_sieve`); a single
number is tested with `miller_rabin`.  A rational prime p splits as omega's
minimal polynomial x^2 + b x + c factors mod p: each root r gives the prime
ideal (p, omega - r), so two roots mean split, a double root ramified and no
root inert.  One kernel, `_kronecker_primes`, gives (d|p) for an array of
primes to `_split_primes`, the residue's character table
(`_character_table`), `primes.is_prime_element` and the inert primes of
`primes.build_grid`: for d = 0, 1 (mod 4) it reads that table at p mod |d|,
the symbol's period, and otherwise takes Euler's criterion.  `_split_primes`
splits an array of primes at once: for odd p the roots are
(-b +- sqrt(d))/2, d = b^2 - 4c, by Tonelli-Shanks, one lane per prime
(`_sqrt_mod_array`), each lane's non-residue its least one, a prime, read
from the same kernel.  `prime_ideal_table` splits all sieved primes into one
table of arrays per field and bound that every enumeration reads, and
`split_prime` splits one prime.
Squarefree ideals are products of distinct prime ideals and carry their
Moebius value, totient and norm.  They are built as arrays, one level per
number of prime factors, each product and its lattice's basis from its
parent's (`squarefree_levels`, `squarefree_ideal_levels`), in the walk order
of `_walk_positions`, for the enumeration, the mu^2/phi sums and the
diagnostics.
Each squarefree ideal also induces a rank-2 sublattice of the coordinate
lattice, kept in Hermite normal form and built directly by CRT over the
rational primes below the ideal (`ideal_lattice`).  One enumerator,
`lattice_half_points`, lists the points of such lattices in a box, one of
each +-pair, or in a quadrant, in rows clipped to the region: the box sieve
of the singular series, the smoothed counts (`smoothed_counts`, every
lattice's in one walk) and the dual counts all read it.  Its rows and
points, and the rational sieve's pairs, are walked in chunks by `_ranges`.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import BudgetError, UsageError, brief
from .fields import PRIME_BUDGET, FieldSpec, QuadInt

# largest number of lattice rows, and of points, that one lattice walk may list
LATTICE_POINT_BUDGET = 10_000_000
# (row, k) pairs per chunk of `_ranges`
_CHUNK = 1 << 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def miller_rabin(n: int) -> bool:
    """Deterministic strong-pseudoprime test, exact for all 64-bit inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_sieve(limit: int) -> np.ndarray:
    """Boolean array of length limit+1 marking rational primes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    sieve[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = False
    return sieve


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class PrimeIdeal(NamedTuple):
    """A prime ideal above the rational prime p.

    For split and ramified primes the ideal is (p, omega - root) and
    membership of k1 + k2*omega is the congruence k1 + root*k2 = 0 (mod p).
    Inert primes have no root and norm p^2.
    """

    field: FieldSpec
    p: int
    split_type: SplitType
    root: Optional[int]

    @property
    def norm(self) -> int:
        return self.p * self.p if self.split_type is SplitType.INERT else self.p

    def contains(self, eta: QuadInt) -> bool:
        if eta.field != self.field:
            raise ValueError("element belongs to a different field")
        if self.split_type is SplitType.INERT:
            return eta.k1 % self.p == 0 and eta.k2 % self.p == 0
        return (eta.k1 + self.root * eta.k2) % self.p == 0

    def sort_key(self) -> tuple[int, int, int]:
        return (self.norm, self.p, -1 if self.root is None else self.root)


def _pow_mod(a: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^e mod p lane by lane, by square and multiply over the bits of e.
    With 0 <= a < p < 2^21 every product stays below 2^42; object arrays of
    Python ints take any size."""
    out = np.ones_like(a)
    for bit in range(int(e.max(initial=0)).bit_length()):
        out = np.where((e >> bit) & 1 == 1, out * a % p, out)
        a = a * a % p
    return out


def _sqrt_mod_array(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A square root of each quadratic residue a[i] modulo the prime p[i]
    (Tonelli-Shanks).

    Each lane's z is its least non-residue, which is prime: the candidates
    z = 2, 3, 5, ... are read as (4z|p) = (z|p) from the period of (4z|.)
    (`_kronecker_primes`).  Each loop runs only over the lanes it has not
    finished: that search, the rounds of the main loop and, within a round,
    the search for the least i with t^(2^i) = 1.
    """
    low = (p - 1) & (1 - p)  # largest power of 2 dividing p - 1
    q, m = (p - 1) // low, np.frexp(low.astype(np.float64))[1] - 1
    x = _pow_mod(a, (q - 1) // 2, p)
    r, t = x * a % p, x * x % p * a % p  # a^((q+1)/2) and a^q
    lane = np.flatnonzero((t != 1) & (a != 0))  # the others have their root r
    p, q, m, t = p[lane], q[lane], m[lane], t[lane]
    z, todo = np.zeros_like(p), np.arange(lane.size)
    for cand in filter(miller_rabin, itertools.count(2)):
        if not todo.size:
            break
        found = _kronecker_primes(4 * cand, p[todo]) == -1
        z[todo[found]] = cand
        todo = todo[~found]
    c = _pow_mod(z, q, p)
    while lane.size:
        # least i with t^(2^i) = 1; then i < m
        i, t2, todo = np.zeros_like(p), t.copy(), np.arange(lane.size)
        while todo.size:
            t2[todo] = t2[todo] * t2[todo] % p[todo]
            i[todo] += 1
            todo = todo[t2[todo] != 1]
        b = _pow_mod(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r[lane] = t * c % p, r[lane] * b % p
        left = t != 1
        lane, p, m, c, t = lane[left], p[left], m[left], c[left], t[left]
    return r


def _character_table(d: int) -> np.ndarray:
    """The Kronecker symbols (d|r) for r in 0..|d|-1 (|d| > 1), sieved as a
    completely multiplicative function from its values at the primes below
    |d|."""
    q = abs(d)
    chi = np.ones(q, dtype=np.int64)
    chi[0] = 0
    primes = np.flatnonzero(_prime_sieve(q - 1))
    for p, k in zip(primes.tolist(), _kronecker_primes(d, primes).tolist()):
        if k == 0:
            chi[p::p] = 0
        elif k == -1:
            pk = p
            while pk < q:
                chi[pk::pk] *= -1
                pk *= p
    return chi


def _kronecker_primes(d: int, p: np.ndarray) -> np.ndarray:
    """The Kronecker symbols (d|p) for an int64 array of primes p < 2^21, or
    an object array of any primes.

    For d = 0, 1 (mod 4), (d|.) has period |d|: an int64 array at least as
    long as the period reads `_character_table(d)[p % |d|]`.  Otherwise
    Euler's criterion gives odd p, and p = 2 gives 0, 1 or -1 as d = 0
    (mod 2), +-1 or +-3 (mod 8).  The table asks only for the fewer than |d|
    primes below |d|, so its own call takes Euler's criterion.
    """
    if p.dtype == np.int64 and d % 4 < 2 and 1 < abs(d) <= p.size:
        return _character_table(d)[p % abs(d)]
    e = _pow_mod(d % p, (p - 1) // 2, p)
    two = 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    return np.where(p == 2, two, np.where(e == p - 1, -1, e))


def _split_primes(field: FieldSpec, p) -> tuple[np.ndarray, np.ndarray]:
    """The prime ideals above each rational prime p < 2^21, as int64 arrays
    (p, root): a split p twice, its roots ascending, a ramified p once with
    its double root and an inert p once with root -1.

    The roots are those of x^2 + b x + c mod p: p splits, ramifies or is
    inert as (d|p) (`_kronecker_primes`) is 1, 0 or -1.  A split p has the
    roots (sqrt(d) - b)/2 and -b minus it, the square root from
    `_sqrt_mod_array`; for p = 2 they are 0 and 1.  A ramified odd p has
    the root -b/2, a ramified 2 the root c mod 2.
    """
    p = np.asarray(p, dtype=np.int64)
    b, c = field.minpoly_omega()
    chi = _kronecker_primes(field.discriminant, p)
    sp, rp, ip = p[chi == 1], p[chi == 0], p[chi == -1]
    # b is 0 or -1, so every factor is below 2^21
    r1 = (_sqrt_mod_array(field.discriminant % sp, sp) - b) * ((sp + 1) // 2) % sp
    r2 = (-b - r1) % sp
    root = np.concatenate([np.minimum(r1, r2), np.maximum(r1, r2),
                           np.where(rp == 2, c % 2, -b * ((rp + 1) // 2) % rp),
                           np.full(ip.size, -1)])
    return np.concatenate([sp, sp, rp, ip]), root


def _prime_ideals(field: FieldSpec, p: np.ndarray, root: np.ndarray) -> tuple[PrimeIdeal, ...]:
    """The ideals (p, omega - root) of paired int64 arrays p and root, the
    ideals above one p adjacent: inert where root < 0, ramified where p
    divides the discriminant, split otherwise.  The ideals above one p share
    one int p.  Each tuple is made by `tuple.__new__` through `map`, so no
    Python frame runs per ideal."""
    split, inert, ramified = SplitType
    kinds = np.where(root < 0, inert, np.where(field.discriminant % p == 0, ramified, split))
    roots = np.where(root < 0, None, root.astype(object))
    new = np.diff(p, prepend=0) != 0
    ps = p[new].astype(object)[np.cumsum(new) - 1]  # one int per p
    return tuple(map(tuple.__new__, itertools.repeat(PrimeIdeal),
                     zip(itertools.repeat(field), ps.tolist(), kinds.tolist(), roots.tolist())))


def split_prime(p: int, field: FieldSpec) -> list[PrimeIdeal]:
    """Prime ideals above the rational prime p <= PRIME_BUDGET, ordered by
    root."""
    if not miller_rabin(p):
        raise ValueError(f"{p} is not a rational prime")
    if p > PRIME_BUDGET:
        raise BudgetError(f"prime {p} exceeds the prime budget {PRIME_BUDGET}")
    return list(_prime_ideals(field, *_split_primes(field, [p])))


@dataclass(frozen=True)
class PrimeIdealTable:
    """All prime ideals of norm <= a bound as read-only int64 arrays, sorted
    by (norm, p, root): the rational prime `p`, the `root` of (p, omega -
    root) or -1 when p is inert, and the `norm`, p^2 when p is inert and p
    otherwise."""

    p: np.ndarray
    root: np.ndarray
    norm: np.ndarray


@lru_cache(maxsize=32)
def prime_ideal_table(field: FieldSpec, max_norm: int) -> PrimeIdealTable:
    """The prime ideals of norm <= max_norm: every sieved prime is split at
    once by `_split_primes`, and an inert p is kept when p^2 <= max_norm."""
    if max_norm > PRIME_BUDGET:
        raise BudgetError(f"norm bound {max_norm} exceeds the prime budget {PRIME_BUDGET}")
    p, root = _split_primes(field, np.flatnonzero(_prime_sieve(max(max_norm, 1))))
    cols = np.stack([p, root, np.where(root < 0, p * p, p)])
    cols = cols[:, cols[2] <= max_norm]
    # norm, p and root + 1 are each below 2^21: one int64 key orders all three
    cols = cols[:, np.argsort(cols[2] << 42 | cols[0] << 21 | (cols[1] + 1), kind="stable")]
    cols.flags.writeable = False  # the rows, views taken after this, too
    return PrimeIdealTable(*cols)


def enumerate_prime_ideals(field: FieldSpec, max_norm: int) -> tuple[PrimeIdeal, ...]:
    """All prime ideals of norm <= max_norm, sorted by (norm, p, root).  The
    ideals above one p share one int p."""
    t = prime_ideal_table(field, max_norm)
    return _prime_ideals(field, t.p, t.root)


@dataclass(frozen=True, slots=True)
class SquarefreeIdeal:
    """A product of distinct prime ideals (possibly empty: the unit ideal)."""

    field: FieldSpec
    factors: tuple[PrimeIdeal, ...]

    @staticmethod
    def unit(field: FieldSpec) -> "SquarefreeIdeal":
        return SquarefreeIdeal(field, ())

    @staticmethod
    def product(factors: Iterable[PrimeIdeal]) -> "SquarefreeIdeal":
        fs = sorted(set(factors), key=PrimeIdeal.sort_key)
        if not fs:
            raise ValueError("use SquarefreeIdeal.unit for the empty product")
        return SquarefreeIdeal(fs[0].field, tuple(fs))

    @property
    def norm(self) -> int:
        return math.prod(f.norm for f in self.factors)

    @property
    def mu(self) -> int:
        return -1 if len(self.factors) % 2 else 1

    @property
    def phi(self) -> int:
        return math.prod(f.norm - 1 for f in self.factors)

    def contains(self, eta: QuadInt) -> bool:
        return all(f.contains(eta) for f in self.factors)

    def divisors(self) -> list["SquarefreeIdeal"]:
        out = []
        for k in range(len(self.factors) + 1):
            for combo in itertools.combinations(self.factors, k):
                out.append(SquarefreeIdeal(self.field, combo))
        return out


def squarefree_levels(norms: np.ndarray, max_norm: int, last: np.ndarray, norm: np.ndarray):
    """The squarefree products of norm <= max_norm of the prime ideals with
    ascending int64 `norms`, level by level from the products with largest
    primes `last` (indices into `norms`) and norms `norm`.

    A level is a triple of arrays (parent, last, norm): each product's
    parent on the level before (0, 1, ... on the first level), its largest
    prime and its norm.  A product's children extend it by each prime
    i = last+1, last+2, ... with norm * norms[i] <= max_norm, listed parent
    by parent and by ascending i.  The walk order (a product, then the walks
    below its children in turn) is lexicographic order of the ascending
    prime indices.  A level is built only when the one before is taken.
    """
    parent = np.arange(last.size)
    while last.size:
        yield parent, last, norm
        count = np.maximum(np.searchsorted(norms, max_norm // norm, "right") - last - 1, 0)
        parent = np.repeat(np.arange(last.size), count)
        first = np.cumsum(count) - count  # each parent's first child
        last = last[parent] + 1 + np.arange(parent.size) - first[parent]
        norm = norm[parent] * norms[last]


def _walk_positions(levels: list) -> list[np.ndarray]:
    """The walk-order position of every product on the `squarefree_levels`
    `levels`, from 0.  Subtree sizes come bottom up by a `bincount` over the
    parents; a child's position is its parent's, plus one, plus the subtrees
    of its earlier siblings."""
    sizes = [np.ones(levels[-1][0].size, np.int64)]
    for k in range(len(levels) - 1, 0, -1):
        below = np.bincount(levels[k][0], sizes[0], levels[k - 1][0].size)
        sizes.insert(0, 1 + below.astype(np.int64))
    positions = [np.cumsum(sizes[0]) - sizes[0]]
    for (parent, *_), size in zip(levels[1:], sizes[1:]):
        before = np.cumsum(size) - size
        first = np.searchsorted(parent, parent)  # the first child of the same parent
        positions.append(positions[-1][parent] + 1 + before - before[first])
    return positions


def squarefree_order(levels: list) -> np.ndarray:
    """The products on `squarefree_levels` `levels` by norm, then walk order."""
    return np.lexsort((np.concatenate(_walk_positions(levels)),
                       np.concatenate([norm for _, _, norm, *_ in levels])))


def enumerate_squarefree_ideals(field: FieldSpec, max_norm: int) -> list[SquarefreeIdeal]:
    """All squarefree ideals of norm <= max_norm, the unit ideal included
    when max_norm >= 1, sorted by (norm, the factors' sort keys): each
    ideal's factors extend its parent's (`squarefree_ideal_levels`), in
    `squarefree_order`: by norm, then the prime indices, which sort as the keys."""
    if max_norm < 1:
        return []
    levels = list(squarefree_ideal_levels(field, max_norm))
    primes, factors = enumerate_prime_ideals(field, max_norm), [[()]]
    for parent, last, *_ in levels[1:]:
        factors.append([factors[-1][k] + (primes[i],)
                        for k, i in zip(parent.tolist(), last.tolist())])
    factors = list(itertools.chain.from_iterable(factors))
    return [SquarefreeIdeal(field, factors[i]) for i in squarefree_order(levels).tolist()]


def ramanujan_sum(q: SquarefreeIdeal, eta: QuadInt) -> int:
    """c_q(eta): product over prime factors of (norm - 1) or -1."""
    c = 1
    for f in q.factors:
        c *= (f.norm - 1) if f.contains(eta) else -1
    return c


def condensation_sum(c: SquarefreeIdeal, eta: QuadInt) -> int:
    """Sum of Ramanujan sums over all divisors of a squarefree ideal.

    Collapses to N(c) when eta lies in c and to 0 otherwise; used as an
    exact cross-check of `ramanujan_sum` and membership.
    """
    return sum(ramanujan_sum(d, eta) for d in c.divisors())


# ---------------------------------------------------------------------------
# Ideal lattices


@dataclass(frozen=True, slots=True)
class IdealLattice:
    """HNF basis of the coordinate lattice of an ideal.

    Basis columns are (a, 0) and (b, c) with a, c > 0 and 0 <= b < a, so that
    lattice points are (a*t + b*s, c*s) for integers t, s.  det = a*c equals
    the ideal norm.
    """

    a: int
    b: int
    c: int

    @property
    def det(self) -> int:
        return self.a * self.c


def ideal_lattice(q: SquarefreeIdeal) -> IdealLattice:
    """HNF basis of {m(alpha) : alpha in q}, assembled by CRT over the
    rational primes p below q; det equals the ideal norm.

    Every p multiplies a by p.  It also multiplies c when q contains all of
    pO_K: p is inert, or both ideals above a split p divide q.  Otherwise q
    has the one factor (p, omega - root) above p, and b = -root*c (mod p);
    b = 0 modulo the other primes.  A repeated factor raises ValueError.
    """
    if len(set(q.factors)) < len(q.factors):
        raise ValueError("a squarefree ideal cannot repeat a prime factor")
    roots: dict[int, list] = {}
    for f in q.factors:
        roots.setdefault(f.p, []).append(f.root)
    a = math.prod(roots)
    c = math.prod(p for p, rs in roots.items() if len(rs) == 2 or rs[0] is None)
    b = 0
    for p, rs in roots.items():
        if len(rs) == 1 and rs[0] is not None:
            m = a // p
            b += -rs[0] * c * m * pow(m, -1, p)
    return IdealLattice(a, b % a, c)


def squarefree_ideal_levels(field: FieldSpec, max_norm: int):
    """The levels of `squarefree_levels` over `prime_ideal_table(field,
    max_norm >= 1)` from the unit ideal's, its largest prime -1, each with
    the basis a, b, c of every `ideal_lattice`, by CRT from its parent's: a
    child adds (p, omega - r); if it then holds pO_K (p is inert, or it adds
    the second ideal above a split p whose first, adjacent in the table, is
    the parent's largest prime), a' = a p (inert) or a, c' = c p and b' = p b
    mod a', else a' = a p, c' = c and b' = b (mod a), -r c (mod p)."""
    t, unit = prime_ideal_table(field, max_norm), np.ones(1, np.int64)
    last, a, b, c = -unit, unit, 0 * unit, unit
    for parent, child, norm in squarefree_levels(t.norm, max_norm, -unit, unit):
        if child[0] >= 0:  # past the unit ideal
            prev, p, r = last[parent], t.p[child], t.root[child]
            a, b, c = a[parent], b[parent], c[parent]
            second = (prev >= 0) & (prev == child - 1) & (t.p[prev] == p)
            whole = (r < 0) | second
            # b + a x = -r c (mod p), 1/a mod p by Fermat: every product is below 2^42
            x = (-r * c - b) % p * _pow_mod(a % p, p - 2, p) % p
            a, b, c = (np.where(second, a, a * p), np.where(whole, p * b, b + a * x),
                       np.where(whole, c * p, c))
            b %= a  # p b mod a'; b + a x < a p already
        last = child
        yield parent, last, norm, a, b, c


def _ranges(count: np.ndarray):
    """Yield int64 arrays (row, k) with k = 0 .. count[row] - 1 for each row
    in turn, at most `_CHUNK` pairs at a time.  A row may be split across
    two chunks; rows with count 0 are skipped."""
    ends = np.cumsum(count)
    starts, total = ends - count, int(count.sum())
    for a in range(0, total, _CHUNK):
        # the pairs a..b-1 of the walk, those of the rows r0..r1-1
        b = min(a + _CHUNK, total)
        r0, r1 = np.searchsorted(ends, a, "right"), np.searchsorted(starts, b, "left")
        row = np.repeat(np.arange(r0, r1), np.minimum(ends[r0:r1], b) - np.maximum(starts[r0:r1], a))
        yield row, np.arange(a, b) - starts[row]


def lattice_half_points(bases, radius: int, budget: Optional[int] = None, *,
                        quadrant: bool = False):
    """Yield the points u*b1 + v*b2 of sup-norm <= radius of each lattice
    with integer basis b1, b2, one point of each +-pair (v > 0, or v = 0 and
    u > 0), in ascending (basis, v, u) order; with `quadrant`, every nonzero
    point of [0, radius]^2 instead, in the same order.

    `bases` holds rows x1, y1, x2, y2, one column per lattice.  Each chunk is
    a triple of int64 arrays (i, k1, k2): the basis index and the
    coordinates.  By Cramer's rule v*det = s*(x1*k2 - y1*k1), with det > 0
    and s = +-1, so the rows that meet the region lie between that form's
    extremes at its corners: v = 0 .. radius*|b1|_1/det for the half box, no
    more rows for the quadrant.  Each row's u-range is the intersection of
    the exact integer slabs low <= u*x1 + v*x2 <= radius and
    low <= u*y1 + v*y2 <= radius (low = -radius, or 0 for the quadrant), so
    every listed point lies in the region.  The rows, then each row chunk's
    points, are walked by `_ranges`.  A `budget` is per lattice: BudgetError
    is raised when a lattice's rows exceed it, or its points, counted a row
    chunk at a time as they are walked, cross it: at the first such chunk,
    before its points are listed, though earlier ones may have been yielded.
    """
    x1, y1, x2, y2 = np.asarray(bases, dtype=np.int64).reshape(4, -1)
    cross = x1 * y2 - y1 * x2
    s, det = np.sign(cross), np.abs(cross)
    if budget is not None:
        rows = max(radius * (abs(a) + abs(b)) // n + 1
                   for a, b, n in zip(x1.tolist(), y1.tolist(), det.tolist()))
        if rows > budget:
            raise BudgetError(f"a walk over {brief(rows)} lattice rows in the box of radius "
                              f"{brief(radius)} exceeds the budget {budget}")
        spent = np.zeros(det.size)  # each lattice's points so far
    low = 0 if quadrant else -radius
    width = radius - low

    def top(c):  # the largest c*k over k in [low, radius]
        return np.maximum(c * radius, c * low)

    # rows v = first .. first + n - 1
    first = -((top(-s * x1) + top(s * y1)) // det) if quadrant else np.zeros_like(det)
    n = (top(s * x1) + top(-s * y1)) // det + 1 - first

    for i, k in _ranges(n):
        # row k of lattice i: its v, first u and number of points (0 when
        # none), from the slabs low <= u*c + v*d <= radius, c = x1, y1,
        # doubled and centred: |2u*c + off| <= width, off = 2v*d - (low +
        # radius) (negated when c < 0, with |2c| for 2c), width = radius - low
        v = first[i] + k
        c, d = np.stack([x1[i], y1[i]]), 2 * v * np.stack([x2[i], y2[i]]) - (low + radius)
        m, off, big = 2 * np.abs(c), np.where(c < 0, -d, d), np.iinfo(np.int64).max
        free = np.abs(off) <= width  # where c = 0: every u, or none
        lo = np.where(m > 0, -((width + off) // np.maximum(m, 1)), np.where(free, -big, 1)).max(0)
        hi = np.where(m > 0, (width - off) // np.maximum(m, 1), np.where(free, big, 0)).min(0)
        axis = v == 0  # the row through the origin, which is left out
        if quadrant:  # the row's points all lie on one side of the origin
            lo[axis] += lo[axis] == 0
            hi[axis] -= hi[axis] == 0
        else:
            lo[axis] = np.maximum(lo[axis], 1)
        count = np.maximum(hi - lo + 1, 0)
        del c, d, m, off, free, hi, axis  # not held while the chunk's points are listed
        if budget is not None and (spent := spent + np.bincount(i, count, det.size)).max() > budget:
            raise BudgetError(f"a walk over more than {budget} lattice points in the box of "
                              f"radius {brief(radius)} exceeds the budget")
        for row, k in _ranges(count):
            b, u, w = i[row], lo[row] + k, v[row]
            yield b, u * x1[b] + w * x2[b], u * y1[b] + w * y2[b]


def dual_lattice_count(lat: IdealLattice, r: float) -> int:
    """Nonzero dual-lattice vectors of Euclidean length <= r.

    The dual lattice is the inverse transpose of the HNF basis; scaled by
    det it has the integer basis (0, a), (c, -b), and its vectors of length
    <= r are the points of sup-norm <= floor(r*det) with k1^2 + k2^2 <=
    floor((r*det)^2).  The product r*det is rounded once, as a float; the
    disc test is then exact in integers.  `lattice_half_points` lists one
    point of each +-pair under LATTICE_POINT_BUDGET.
    """
    if not 0 < r < math.inf:
        raise UsageError(f"radius must be a finite number > 0, got {r!r}")
    bound = math.floor(Fraction(r * lat.det) ** 2)
    count = 0
    for _, k1, k2 in lattice_half_points([0, lat.a, lat.c, -lat.b], math.isqrt(bound),
                                         LATTICE_POINT_BUDGET):
        count += int(np.count_nonzero(k1 * k1 + k2 * k2 <= bound))
    return 2 * count


def smoothed_counts(bases, w, H: float) -> list[float]:
    """Exact finite sums of w(k/H) over the points k of each lattice with
    basis (a, 0), (b, c) (`bases` as `lattice_half_points` takes them), from
    one walk of the scaled support box, under LATTICE_POINT_BUDGET per
    lattice.  Once the walk has passed a lattice, `np.cumsum` adds its terms
    t in turn, a piece at a time after the running sum, over t mirrored, w(0)
    and t: for an even w, a walk of the box by rows k2, each by k1."""
    bases, w0 = np.asarray(bases).reshape(4, -1), np.full(1, w.eval(0.0, 0.0))
    sums, pieces, j = np.repeat(w0, bases.shape[1]), [], 0  # w(0) if no point; j's terms

    def close():  # lattice j's sum
        s = np.empty(0)
        for t in [t[::-1] for t in pieces[::-1]] + [w0] + pieces:
            s = np.cumsum(np.concatenate([s[-1:], t]))
        return s[-1]

    for i, k1, k2 in lattice_half_points(bases, w.support_box(H), LATTICE_POINT_BUDGET):
        cut = np.flatnonzero(i[1:] != i[:-1]) + 1  # where the chunk passes to the next lattice
        for g, t in zip(i[np.r_[0, cut]].tolist(), np.split(w.eval(k1 / H, k2 / H), cut)):
            if g != j:
                sums[j], pieces, j = close(), [], g
            pieces.append(t)
    sums[j] = close()
    return sums.tolist()


def ideal_smoothed_count(q: SquarefreeIdeal, w, H: float) -> float:
    """Exact finite sum of w(m(eta)/H) over eta in the ideal, `smoothed_counts`
    of its lattice.  For large norms only eta = 0 survives: the sum is w(0)."""
    lat = ideal_lattice(q)
    return smoothed_counts([lat.a, 0, lat.b, lat.c], w, H)[0]


def ideal_smoothed_count_scaled(q: SquarefreeIdeal, H: int) -> int:
    """Integer-exact H^2-scaled smoothed count for the square autocorrelation.

    With w(x) = (2-|x1|)+ (2-|x2|)+ every term w(k/H) * H^2 is the integer
    (2H-|k1|)+ (2H-|k2|)+, so identities involving these sums can be checked
    with zero tolerance.  The terms are even: the origin's (2H)^2 plus twice
    the sum over one point of each +-pair, in Python ints.
    """
    if not isinstance(H, (int, np.integer)) or H < 1:
        raise UsageError(f"H must be an int >= 1, got {H!r}")
    lat, total = ideal_lattice(q), 0
    for _, k1, k2 in lattice_half_points([lat.a, 0, lat.b, lat.c], 2 * H, LATTICE_POINT_BUDGET):
        total += int(((2 * H - np.abs(k1)).astype(object) * (2 * H - np.abs(k2))).sum())
    return (2 * H) ** 2 + 2 * total


def ramanujan_smoothed_sum_scaled(q: SquarefreeIdeal, H: int) -> int:
    """Integer-exact H^2-scaled S_q(H) for the square autocorrelation, by
    Moebius inversion: the sum over a*b = q of mu(a) * N(b) * (scaled
    smoothed count over b), which avoids evaluating c_q pointwise; mu(a) =
    mu(q) mu(b)."""
    return sum(q.mu * b.mu * b.norm * ideal_smoothed_count_scaled(b, H) for b in q.divisors())
