"""Short-interval expectation/variance statistics and rational baselines.

The field statistics are the rows of `variance_profile`, its one entry point:
per interval exponent delta, E is the mean count of prime elements in the
boxes of radius H = X^delta around centers in the sup-norm ball of radius X,
and V the mean square of each count minus its expected count: the grid's
weight, 1/log|N| less kappa_K / (sqrt|N| log|N|) since the principal
prime-ideal squares hold no prime element, over r_K.  Both samplers average
exactly, over integer centers or over centers uniform in their cells: a
box's bounds are constant on at most three pieces of the in-cell offset per
axis (`Sampler.offsets`), so every average is a weighted sum of prefix-table
slices (`grid_box_sums`).  Those sums run a node of numpy's pairwise tree
of centers per task on a thread pool with one worker per CPU the process may
use.  The rows do not depend on the order in which the nodes finish: their
counts add up as integers, and their sums of squares up that tree.

The rational baselines are exact by the argument of the samplers: for
integer interval length the window counts are piecewise constant in the
left endpoint, so the averages are finite sums over integer shifts computed
from prefix arrays, of length at most `ideals.PRIME_BUDGET`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

import numpy as np

from . import primes
from .errors import BudgetError, UsageError, brief
from .fields import FieldSpec
from .ideals import PRIME_BUDGET, _prime_sieve
from .primes import PrefixGrid, build_grid, grid_box_sums
from .singular_series import _pairwise, _pairwise_leaves, residue_rk

_SAMPLE_BUDGET = 30_000_000


@dataclass(frozen=True)
class Sampler:
    """Center sampler for the x-average: kind "grid" takes every integer point
    of the sup-norm ball, kind "jitter" averages exactly over the centers
    uniform in the unit cells around those points."""

    kind: str = "grid"

    def radius(self, X: float) -> int:
        """M = floor(X), the cells' extent, after checking the sample budget."""
        if self.kind not in ("grid", "jitter"):
            raise UsageError(f"unknown sampler kind {self.kind!r}")
        M = math.floor(X)
        n_samples = (2 * M + 1) ** 2
        if n_samples > _SAMPLE_BUDGET:
            raise BudgetError(f"{brief(n_samples)} sample centers exceed the budget")
        return M

    def centers(self, X: float) -> np.ndarray:
        """The integer cells of [-M, M]^2 as an (n, 2) array, row-major."""
        M = self.radius(X)
        k = np.arange(-M, M + 1, dtype=np.float64)
        g1, g2 = np.meshgrid(k, k, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel()])

    def offsets(self, H: float) -> list[tuple[float, int, int]]:
        """Per-axis pieces (weight, lo, hi): the box of radius H around a center
        in cell k spans k + lo .. k + hi with probability `weight`.  A jitter
        center k + u, u uniform in [-1/2, 1/2), spans k + ceil(u - H) ..
        k + floor(u + H); these change only at u in {f - 1, -f, f, 1 - f},
        f = H - floor(H), so each piece between those cuts is evaluated at its
        midpoint and weighted by its length."""
        if not 0 <= H < math.inf:
            raise UsageError(f"box radius H must be a finite number >= 0, got {H!r}")
        h = math.floor(H)
        if self.kind == "grid":
            return [(1.0, -h, h)]
        f = H - h
        breaks = {u for u in (f - 1, -f, f, 1 - f) if -0.5 < u < 0.5}
        cuts = sorted({-0.5, 0.5} | breaks)
        pieces = []
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            pieces.append((b - a, math.ceil(mid - H), math.floor(mid + H)))
        return pieces


def grid_extent(X: float, deltas: list[float]) -> int:
    """Grid extent R that holds every box of `variance_profile(field, X, deltas)`."""
    return math.ceil(X + X ** max(deltas)) + 2


@dataclass(frozen=True, slots=True)
class VarianceRow:
    field: str
    X: float
    delta: float
    H: float
    n_samples: int
    E: float
    V: float
    ratio: float  # V / E; nan when no box holds a prime element
    target: float  # 1 - delta


def variance_profile(
    field: FieldSpec,
    X: float,
    deltas: list[float],
    sampler: Sampler = Sampler(),
    grid: PrefixGrid | None = None,
) -> list[VarianceRow]:
    """One grid build, one row per interval exponent delta, H = X^delta.

    V is the mean square of the box count minus its expected count
    sum (1/log|N| - kappa_K / (sqrt|N| log|N|)) / r_K over the box, with
    kappa_K = |Cl_K[2]| / 2: prime elements generate prime ideals but not
    prime-ideal squares, and p^2 is principal exactly when [p] lies in
    Cl_K[2].  E is the mean box count.  The grid built here folds that model
    into its weight table (`build_grid(..., square_weights=True)`).  A grid
    passed in must be built for `field` and is used as built: the weight
    table of `build_grid`'s default gives the first-order rows.

    E and V sum the means over pairs of the sampler's per-axis pieces, times
    the pieces' weights.  Every box sum is a slice of a prefix table, so the
    centers are never materialized; the sample budget still applies.  Each
    pair is answered in the nodes of at most `singular_series._PAIRWISE_LEAF`
    centers of the pairwise tree of `np.mean` over the (2M+1)^2 centers
    (`_pairwise_leaves`), which run on a thread pool with one worker per CPU
    the process may use, at most one per node.  Every box of every pair is
    checked against the grid's extent before any node runs.  Each node
    answers the center rows it meets and returns its centers' integer count
    and sum of squared deviations.  The counts add up to an exact integer
    total, in any order, and `_pairwise` adds the sums up the tree, so V is
    the mean of one whole-box array of squares, bit for bit, with no such
    array, and the rows are the same for any worker count and finishing order.
    """
    if not math.isfinite(X) or X < 0:
        raise UsageError(f"X must be a finite number >= 0, got {X!r}")
    if not deltas:
        raise UsageError("deltas must not be empty")
    if not all(0.0 < d < 1.0 for d in deltas):
        raise UsageError("deltas must lie strictly between 0 and 1")
    M = sampler.radius(X)  # fail on the sample budget before building a grid
    rk = residue_rk(field, 1e-8).value  # and on the residue budget
    if grid is None:
        grid = build_grid(field, grid_extent(X, deltas), square_weights=True)
    elif grid.field != field:
        raise UsageError(f"grid built for {grid.field.spec_string()}, not {field.spec_string()}")
    tables = [grid.prime_count, grid.log_weight]
    # a piece with lo > hi holds no lattice point, so its pairs add exactly 0
    pairs = [list(product([(w, (lo, hi)) for w, lo, hi in sampler.offsets(X**delta) if lo <= hi],
                          repeat=2)) for delta in deltas]
    for (_, span1), (_, span2) in (pair for ps in pairs for pair in ps):
        primes.check_box_extent(grid, M, span1, span2)  # before any node runs
    n = 2 * M + 1
    leaves = _pairwise_leaves(n * n)

    def leaf_sums(span1, span2, leaf):
        """The node's integer count and np.add.reduce of squared deviations."""
        (lo, hi), r0 = leaf, leaf[0] // n
        strip = grid_box_sums(grid, tables, M, span1, span2, (r0, (hi - 1) // n + 1))
        counts, dev = (a[lo - r0 * n : hi - r0 * n] for a in strip)
        dev /= rk
        np.subtract(counts, dev, out=dev)
        return int(counts.sum()), np.add.reduce(np.multiply(dev, dev, out=dev))

    from concurrent.futures import ThreadPoolExecutor  # lazily: it takes ~7 ms to import

    rows = []
    with ThreadPoolExecutor(min(_cpu_count(), len(leaves))) as pool:
        for delta, delta_pairs in zip(deltas, pairs):
            E = V = 0.0
            for (w1, span1), (w2, span2) in delta_pairs:
                sums = list(pool.map(partial(leaf_sums, span1, span2), leaves))
                # integer counts below 2^53 sum exactly in float64, so this is the mean
                # of the float counts bit for bit; V is the mean of one whole-box array
                total = sum(count for count, _ in sums)
                E += w1 * w2 * float(np.float64(total) / n**2)
                V += w1 * w2 * (_pairwise(n * n, (sq for _, sq in sums)) / n**2)
            rows.append(VarianceRow(field.spec_string(), X, delta, X**delta, n * n, E, V,
                                    V / E if E else math.nan, 1.0 - delta))
    return rows


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Rational baselines (exact, prefix-sum evaluation)


@lru_cache(maxsize=8)
def _rational_prefixes(limit: int):
    """Prefix sums of the prime indicator, 1/log n, and the von Mangoldt fn."""
    if limit > PRIME_BUDGET:
        raise BudgetError(f"prefix length {limit} exceeds the prime budget {PRIME_BUDGET}")
    sieve = _prime_sieve(limit)
    pi = np.zeros(limit + 1, dtype=np.int64)
    np.cumsum(sieve, out=pi)
    inv_log = np.zeros(limit + 1, dtype=np.float64)
    n = np.arange(2, limit + 1, dtype=np.float64)
    inv_log[2:] = 1.0 / np.log(n)
    L = np.cumsum(inv_log.astype(np.longdouble)).astype(np.float64)
    lam = np.zeros(limit + 1, dtype=np.float64)
    for p in np.flatnonzero(sieve):
        p = int(p)
        logp = math.log(p)
        pk = p
        while pk <= limit:
            lam[pk] = logp
            pk *= p
    psi = np.cumsum(lam.astype(np.longdouble)).astype(np.float64)
    return pi, L, psi


def _check_rational(X: int, H: int):
    if not (isinstance(X, (int, np.integer)) and isinstance(H, (int, np.integer))):
        raise UsageError(f"need int X >= 2 and H >= 0, got X={X!r}, H={H!r}")
    if X < 2 or H < 0:
        raise UsageError(f"need X >= 2 and H >= 0, got X={brief(X)}, H={brief(H)}")


def expectation_rational(X: int, H: int) -> float:
    """E_N: average of #{p : k < p <= k+H} over k = 0..X-1."""
    _check_rational(X, H)
    pi, _, _ = _rational_prefixes(X + H)
    return float(np.mean(pi[H:X + H] - pi[:X]))


def variance_rational_prime(X: int, H: int) -> float:
    """V_N: mean square of the 1/log-corrected prime count in (k, k+H]."""
    _check_rational(X, H)
    if H == 0:
        return 0.0
    pi, L, _ = _rational_prefixes(X + H)
    tilde = (pi[H:X + H] - pi[:X]).astype(np.float64) - (L[H:X + H] - L[:X])
    return float(np.mean(tilde * tilde))


def variance_rational_lambda(X: int, H: int) -> float:
    """Mean square of psi(k+H) - psi(k) - H over k = 0..X-1."""
    _check_rational(X, H)
    if H == 0:
        return 0.0
    _, _, psi = _rational_prefixes(X + H)
    dev = psi[H:X + H] - psi[:X] - float(H)
    return float(np.mean(dev * dev))


@dataclass(frozen=True, slots=True)
class ZBaselineRow:
    X: int
    delta: float
    H: int
    E: float
    V_prime: float
    V_lambda: float
    ratio_prime: float   # V_N / ((1-delta) E_N)
    ratio_lambda: float  # V_Lambda / (H (log X - log H))


def zbaseline_row(X: int, delta: float) -> ZBaselineRow:
    """The Conjecture-style rational-integer statistics at H = floor(X^delta)."""
    if not isinstance(X, (int, np.integer)) or X < 2:
        raise UsageError(f"X must be an int >= 2, got {X!r}")
    if not 0.0 < delta < 1.0:
        raise UsageError(f"delta must lie strictly between 0 and 1, got {delta}")
    H = math.floor(X**delta)
    E = expectation_rational(X, H)
    Vp = variance_rational_prime(X, H)
    Vl = variance_rational_lambda(X, H)
    return ZBaselineRow(
        X,
        delta,
        H,
        E,
        Vp,
        Vl,
        Vp / ((1.0 - delta) * E),
        Vl / (H * (math.log(X) - math.log(H))),
    )
