"""Prime elements of O_K and prefix-sum grids for O(1) box queries.

An element is prime exactly when its principal ideal is a prime ideal: the
absolute norm is a rational prime, or the square of an inert prime with the
element an associate of that prime.  So one prime-norm table, the rational
primes with p^2 added for every inert p, tells prime elements by their norm
alone.  Grids tabulate 2D prefix sums of the prime indicator and of the
1/log|N| weight (over all elements of norm > 1), so any coordinate box is
answered by four corner lookups, combined by the one inclusion-exclusion
expression in `_corners`.  The scalar queries read the corners as Python
scalars (`ndarray.item`); `box_sums` gathers the corners for arbitrary
centers by index arrays; `grid_box_sums` answers the boxes at fixed
offsets around every integer point of [-M, M]^2 at once, or of a strip of
its rows, each corner term one contiguous slice of the table.  All three
give the same value for the same box, bit for bit.  The box of radius H
around x spans the integers of the exact interval [x - H, x + H], not of
its rounded ends.

`build_grid` evaluates each cell once per symmetry orbit, and only the
tables are box-sized.  N(-k) = N(k), and N(k1, -k2) = N(k1, k2) when b = 0
in omega's minimal polynomial, so the norm surface, its prime mask (one
lookup in the prime-norm table) and its weights are computed in strips of
`_STRIP_ROWS` rows for k1 >= 0 only (and k2 >= 0 only when b = 0, the
columns k2 < 0 copied), staged in the tables' own rows.  With the sieve
freed, the rows are summed from the top, a row k1 < 0 read as the staged
row -k1 reversed in both axes: each is added to a carried row of column
sums (int64 for counts, longdouble for weights), whose prefix sums along
the row are the table's row.  So each prefix entry sees the same additions
in the same order as a cumsum over the whole box, down the columns and then
along the rows.  The scratch, a strip's norms and mask and two rows per
table, is allocated once per build.

The 1/log|N| weight divided by r_K is the first-order expected number of
prime elements per lattice point.  Prime elements generate prime ideals only,
not squares of prime ideals, so the expectation has a second-order term
-kappa_K / (r_K sqrt|N| log|N|), kappa_K = |Cl_K[2]| / 2, which
`build_grid(..., square_weights=True)` folds into each cell's weight for
`statistics.variance_profile`; `PrefixGrid.kappa` records which weight it is.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ExtentError, FieldSpecError, GridFileError, UsageError, brief
from .fields import FieldSpec, QuadInt, class_group_2_rank
from .ideals import _kronecker_primes, _prime_sieve, miller_rabin

GRID_MAGIC = b"SINF"
GRID_VERSION = 1
_GRID_CELL_BUDGET = 60_000_000
_STRIP_ROWS = 64  # rows per strip: build_grid and the grid file's count blocks

def is_prime_element(alpha: QuadInt) -> bool:
    """Whether the principal ideal generated by alpha is prime."""
    m = abs(alpha.norm())
    if m <= 1:
        return False
    if miller_rabin(m):
        return True
    p = math.isqrt(m)
    if p * p != m or not miller_rabin(p):
        return False
    # (p) is the only ideal of norm p^2 when p is inert, so then (alpha) = (p)
    return _kronecker_primes(alpha.field.discriminant, np.array([p], dtype=object))[0] == -1


@dataclass(frozen=True)
class PrefixGrid:
    """Prefix-sum tables over the coordinate box [-R, R]^2.

    Tables have shape (2R+2, 2R+2) with a zero row/column in front, so
    `prime_count[i+1, j+1]` is the count over k1 <= i-R, k2 <= j-R, and a box
    query is plain four-corner inclusion-exclusion.  `log_weight` sums
    1/log|N| - kappa / (sqrt|N| log|N|), with kappa 0.0 (the default, and the
    only weight grid files hold) or kappa_K.
    """

    field: FieldSpec
    extent: int
    prime_count: np.ndarray
    log_weight: np.ndarray
    kappa: float = 0.0

    def total_primes(self) -> int:
        return int(self.prime_count[-1, -1])

    def total_weight(self) -> float:
        return float(self.log_weight[-1, -1])


def build_grid(field: FieldSpec, extent: int, square_weights: bool = False) -> PrefixGrid:
    """Accumulate the prefix tables of the box [-R, R]^2, each cell
    evaluated once per symmetry orbit (see the module docstring).

    max|N| over the box sizes the prime-norm table: the sieve of rational
    primes with p^2 also marked for every inert p (an element of norm p^2
    with p inert is automatically an associate of p, since no ideal of norm
    p exists).  With square_weights each weight is 1/log|N| less
    kappa_K / (sqrt|N| log|N|), kappa_K = |Cl_K[2]| / 2.
    """
    if extent < 0:
        raise UsageError(f"extent must be nonnegative, got {extent}")
    R = extent
    W = 2 * R + 1
    if W * W > _GRID_CELL_BUDGET:
        raise BudgetError(f"grid with {brief(W * W)} cells exceeds the memory budget")
    k = np.arange(-R, R + 1, dtype=np.int64)
    # max|N| lies on the box's edges: N = k1^2 - b k1 k2 + c k2^2 is convex in
    # k1, so max N is on k1 = +-R; for c < 0 (real fields) it is concave in
    # k2, so min N is on k2 = +-R, and for c > 0 N >= 0.  The edges are
    # evaluated in Python ints, which a huge |D| cannot overflow.
    ko = k.astype(object)
    edges = [field.norm_form(R, ko), field.norm_form(-R, ko),
             field.norm_form(ko, R), field.norm_form(ko, -R)]
    max_norm = int(np.abs(np.concatenate(edges)).max())
    if max_norm > 2_000_000_000:
        raise BudgetError(f"norms up to {brief(max_norm)} exceed the sieve budget")
    prime_norm = _prime_sieve(max(max_norm, 2))
    p = np.flatnonzero(prime_norm[: math.isqrt(max_norm) + 1])
    prime_norm[p[_kronecker_primes(field.discriminant, p) == -1] ** 2] = True

    kappa = 2.0 ** class_group_2_rank(field) / 2.0 if square_weights else 0.0
    count, weight = np.zeros((W + 1, W + 1), np.int64), np.zeros((W + 1, W + 1))
    c0 = R if field.minpoly_omega()[0] == 0 else 0  # the first evaluated column
    shape = (min(_STRIP_ROWS, R + 1), W - c0)
    norm, mask = np.empty(shape, np.int64), np.empty(shape, bool)
    root = np.empty(shape) if square_weights else None
    for i0 in range(R, W, _STRIP_ROWS):  # box rows i = k1 + R, table rows i + 1
        i1 = min(i0 + _STRIP_ROWS, W)
        rows, n = slice(i0 + 1, i1 + 1), i1 - i0
        cnt, wts, N, M = count[rows, c0 + 1 :], weight[rows, c0 + 1 :], norm[:n], mask[:n]
        for out, k1 in zip(N, k[i0:i1].tolist()):  # temporaries of one row only
            np.abs(field.norm_form(k1, k[c0:]), out=out)
        np.copyto(cnt, np.take(prime_norm, N, out=M, mode="clip"))  # N is in range
        np.log(np.maximum(N, 2, out=wts), out=wts)
        np.divide(1.0, wts, out=wts)
        np.copyto(wts, 0.0, where=np.less_equal(N, 1, out=M))
        if square_weights:  # kappa is a power of 2: kappa * (w / s) rounds as (kappa w) / s
            s = np.sqrt(np.maximum(N, 2, out=root[:n]), out=root[:n])
            wts -= np.multiply(np.divide(wts, s, out=s), kappa, out=s)
        if c0:  # k2 < 0 mirrors k2 > 0
            for table in (count, weight):
                table[rows, 1 : R + 1] = table[rows, W : R + 1 : -1]
    del prime_norm, norm, mask, root

    # column sums through each row, then the row's prefix sums: int64 for
    # counts, longdouble for weights, which keeps 10^7-term weight sums tight
    carries = [np.zeros(W, np.int64), np.zeros(W, np.longdouble)]
    sums = [np.empty(W, np.int64), np.empty(W, np.longdouble)]
    for i in range(W):
        # a row k1 < 0 reads the staged row -k1 reversed, table row 2R + 1 - i
        src = (2 * R + 1 - i, slice(W, 0, -1)) if i < R else (i + 1, slice(1, None))
        for table, carry, row in zip((count, weight), carries, sums):
            np.add(carry, table[src], out=carry)
            table[i + 1, 1:] = np.cumsum(carry, out=row)
    return PrefixGrid(field, R, count, weight, kappa)


def _corners(at, a, b, c, d):
    """Four-corner inclusion-exclusion: the sum over prefix-table rows a..b-1
    and columns c..d-1, read by at(i, j): a table's `item` for int indices
    (Python scalars), or its indexing for index arrays or slices."""
    return at(b, d) - at(a, d) - at(b, c) + at(a, c)


def _two_sum(a, b):
    """s = fl(a + b) and its rounding error e, a + b = s + e exactly
    (Knuth's TwoSum), elementwise."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_ends(x, H, ceil, floor):
    """ceil(x - H) and floor(x + H) of the exact, unrounded x -+ H, by
    `ceil` and `floor` (math's for floats, numpy's for arrays).

    Rounding is monotone and keeps integers, so a rounded x -+ H gives the
    wrong bound only when it lands on an integer that the exact value is
    not; the sign of its rounding error then moves the bound by one.
    """
    d, err = _two_sum(x, -H)
    lo = ceil(d)
    lo += (lo == d) & (err > 0)
    s, err = _two_sum(x, H)
    hi = floor(s)
    hi -= (hi == s) & (err < 0)
    return lo, hi


def _box_bounds(grid: PrefixGrid, x1: float, x2: float, H: float):
    """Table indices (a, b, c, d) of the closed box of radius H around (x1, x2).

    Since H >= 0, b >= a and d >= c.  An empty box counts 0 primes and
    weighs +0.0: the corner terms cancel exactly when b == a, but only up to
    rounding when d == c, so a box with no columns is given no rows either
    (b = a), as in `box_sums` and `grid_box_sums`.  Only a rounded x -+ H
    that is an integer needs `_exact_ends`; the others go straight to
    `math.ceil` and `math.floor`, which also reject an infinite or NaN end.
    """
    if not H >= 0:
        raise UsageError(f"box radius H must be >= 0, got {H!r}")
    H = float(H)  # x -+ H is then a float with `is_integer`, also for int x
    try:
        d1, s1, d2, s2 = x1 - H, x1 + H, x2 - H, x2 + H
        if d1.is_integer() or s1.is_integer() or d2.is_integer() or s2.is_integer():
            (lo1, hi1), (lo2, hi2) = (_exact_ends(x, H, math.ceil, math.floor) for x in (x1, x2))
        else:
            lo1, hi1, lo2, hi2 = math.ceil(d1), math.floor(s1), math.ceil(d2), math.floor(s2)
    except (OverflowError, ValueError):
        raise UsageError(f"the box of radius {H!r} around ({x1!r}, {x2!r}) "
                         "has no finite bounds") from None
    R = grid.extent
    if lo1 < -R or lo2 < -R or hi1 > R or hi2 > R:
        raise ExtentError(
            f"box [{lo1},{hi1}]x[{lo2},{hi2}] exceeds the grid extent {R}"
        )
    if hi2 < lo2:
        hi1 = lo1 - 1
    return lo1 + R, hi1 + R + 1, lo2 + R, hi2 + R + 1


def count_primes_box(grid: PrefixGrid, x1: float, x2: float, H: float) -> int:
    """Number of prime elements with sup-norm distance <= H from (x1, x2)."""
    return _corners(grid.prime_count.item, *_box_bounds(grid, x1, x2, H))


def log_weight_box(grid: PrefixGrid, x1: float, x2: float, H: float) -> float:
    """Sum of 1/log|N| over elements of norm > 1 in the closed box."""
    return _corners(grid.log_weight.item, *_box_bounds(grid, x1, x2, H))


def box_sums(
    grid: PrefixGrid, tables: list[np.ndarray], centers: np.ndarray, H: float
) -> list[np.ndarray]:
    """Box sums of prefix tables in the grid's layout, over (n, 2) centers.

    The box bounds (`_exact_ends`) are computed once and shared by all the
    tables; the four corners of each box are gathered by index.
    """
    if not 0 <= H < math.inf:
        raise UsageError(f"box radius H must be a finite number >= 0, got {H!r}")
    if not np.isfinite(centers).all():
        raise UsageError("box centers must be finite numbers")
    lo, hi = _exact_ends(centers, H, np.ceil, np.floor)
    R = grid.extent
    if not (lo.min() >= -R and hi.max() <= R):
        raise ExtentError(f"some box of radius {H} exceeds the grid extent {R}")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    a, b = lo + R, hi + R + 1
    np.copyto(b[:, 0], a[:, 0], where=b[:, 1] == a[:, 1])  # no columns: no rows (`_box_bounds`)
    return [_corners(lambda i, j: table[i, j], a[:, 0], b[:, 0], a[:, 1], b[:, 1])
            for table in tables]


def check_box_extent(grid: PrefixGrid, M: int, rows: tuple[int, int],
                     cols: tuple[int, int]) -> None:
    """Raise ExtentError unless the boxes of `grid_box_sums(grid, _, M, rows,
    cols)` lie inside the grid."""
    R = grid.extent
    (lo1, hi1), (lo2, hi2) = rows, cols
    if -M + min(lo1, lo2) < -R or M + max(hi1, hi2) > R:
        raise ExtentError(f"boxes {rows} x {cols} around [-{M}, {M}]^2 exceed the extent {R}")


def grid_box_sums(
    grid: PrefixGrid, tables: list[np.ndarray], M: int,
    rows: tuple[int, int], cols: tuple[int, int], strip: tuple[int, int] | None = None,
) -> list[np.ndarray]:
    """Box sums of prefix tables over the boxes k1 + lo1 .. k1 + hi1 by
    k2 + lo2 .. k2 + hi2, with rows = (lo1, hi1) and cols = (lo2, hi2), around
    the integer centers (k1, k2) in [-M, M]^2, raveled row-major like
    `Sampler().centers`.  The offsets are the same for every center, so each
    corner term is one contiguous (n, n) slice of the table, n = 2M + 1.
    strip = (r0, r1) answers only the center rows r0..r1-1 (k1 = r0 - M ..
    r1 - 1 - M), which are the entries r0*n .. r1*n - 1 of the full result;
    the default is all n rows.
    """
    check_box_extent(grid, M, rows, cols)
    R = grid.extent
    (lo1, hi1), (lo2, hi2) = rows, cols
    if hi2 < lo2:  # no columns: no rows either, as in `_box_bounds`
        hi1 = lo1 - 1
    r0, r1 = strip or (0, 2 * M + 1)
    # corner indices k + lo + R and k + hi + R + 1 for the center rows
    # k = r0 - M .. r1 - 1 - M and the center columns k = -M..M
    a, b = (slice(R - M + s + r0, R - M + s + r1) for s in (lo1, hi1 + 1))
    c, d = (slice(R - M + s, R + M + s + 1) for s in (lo2, hi2 + 1))
    return [_corners(lambda i, j: table[i, j], a, b, c, d).ravel() for table in tables]


def count_primes_boxes(grid: PrefixGrid, centers: np.ndarray, H: float) -> np.ndarray:
    """Vectorized `count_primes_box` over an (n, 2) array of centers."""
    return box_sums(grid, [grid.prime_count], centers, H)[0]


def log_weight_boxes(grid: PrefixGrid, centers: np.ndarray, H: float) -> np.ndarray:
    """Vectorized `log_weight_box` over an (n, 2) array of centers."""
    return box_sums(grid, [grid.log_weight], centers, H)[0]


# ---------------------------------------------------------------------------
# Binary persistence

_HEADER = struct.Struct("<4sIqBI")


def save_grid(grid: PrefixGrid, path: str) -> None:
    """Little-endian binary dump of a first-order grid: header (its basis
    byte is `FieldSpec.half`), u32 count prefixes, f64 weights.  The counts
    are converted and written `_STRIP_ROWS` rows at a time."""
    if grid.kappa:
        raise UsageError(f"a grid file holds first-order weights; this grid has kappa {grid.kappa}")
    if grid.total_primes() >= 2**32:
        raise BudgetError("prime counts do not fit the u32 file format")
    with open(path, "wb") as f:
        f.write(
            _HEADER.pack(
                GRID_MAGIC,
                GRID_VERSION,
                grid.field.D,
                grid.field.half,
                grid.extent,
            )
        )
        # every prefix count is at most the total, so each fits in u32
        for i0 in range(0, len(grid.prime_count), _STRIP_ROWS):
            grid.prime_count[i0 : i0 + _STRIP_ROWS].astype("<u4").tofile(f)
        grid.log_weight.astype("<f8", copy=False).tofile(f)


def load_grid(path: str) -> PrefixGrid:
    """Read a file written by `save_grid`.

    The header, the file's exact length, the field and the basis byte its D
    fixes are checked before the tables are read; a file that fails a check
    raises GridFileError.  The u32 counts are read `_STRIP_ROWS` rows at a
    time into the int64 table.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise GridFileError(f"{path}: {size} bytes is too short for a grid file")
        magic, version, D, basis_code, R = _HEADER.unpack(header)
        if magic != GRID_MAGIC or version != GRID_VERSION:
            raise GridFileError(f"not a grid file (magic {magic!r}, version {version})")
        W1 = 2 * R + 2
        want = _HEADER.size + 12 * W1 * W1
        if size != want:
            raise GridFileError(f"{path}: {size} bytes, but a grid of extent {R}"
                                f" takes {want}")
        try:
            field = FieldSpec(D)
        except (FieldSpecError, BudgetError) as exc:
            raise GridFileError(f"{path}: {exc}") from None
        if basis_code != field.half:
            raise GridFileError(f"{path}: basis code {basis_code}, but {field} takes {field.half:d}")
        counts = np.empty((W1, W1), np.int64)
        for i0 in range(0, W1, _STRIP_ROWS):
            rows = counts[i0 : i0 + _STRIP_ROWS]
            rows[:] = np.fromfile(f, dtype="<u4", count=rows.size).reshape(rows.shape)
        weights = np.fromfile(f, dtype="<f8", count=W1 * W1)
    return PrefixGrid(field, R, counts, weights.reshape(W1, W1))
