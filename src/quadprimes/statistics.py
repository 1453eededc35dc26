"""Short-interval expectation/variance statistics and rational baselines.

The field statistics are the rows of `variance_profile`, its one entry point:
per interval exponent delta, E is the mean count of prime elements in the
boxes of radius H = X^delta around centers in the sup-norm ball of radius X,
and V the mean square of each count minus its expected count.  The expected
count follows one of two density models: "first-order" (the default)
subtracts the 1/log|N| weight over r_K; "second-order" also subtracts
kappa_K / (r_K sqrt|N| log|N|) for the prime-ideal squares that are
principal.  With the grid sampler the box sums for all centers are
contiguous slices of the prefix tables (`grid_box_sums`), so no center array
is built; the jitter sampler's centers are gathered (`box_sums`).
The rational baselines are exact: for integer interval length the
window counts are piecewise constant in the left endpoint, so the averages
are finite sums over integer shifts computed from prefix arrays, of length
at most `ideals.PRIME_BUDGET`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, UsageError
from .fields import FieldSpec, class_group_2_rank
from .ideals import PRIME_BUDGET, _prime_sieve
from .primes import PrefixGrid, box_sums, build_grid, grid_box_sums
from .singular_series import residue_rk

_SAMPLE_BUDGET = 30_000_000


@dataclass(frozen=True)
class Sampler:
    """Center sampler for the x-average.

    kind "grid": every integer point of the sup-norm ball (exact for the
    piecewise-constant integrand on the integer-offset granularity).
    kind "jitter": stratified q x q sub-offsets per integer cell with one
    uniform jitter per stratum, seeded; estimates the continuous integral.
    """

    kind: str = "grid"
    q: int = 2
    seed: int = 0

    def radius(self, X: float) -> int:
        """M = floor(X), the cells' extent, after checking the sample budget."""
        if self.kind not in ("grid", "jitter"):
            raise UsageError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "jitter" and (self.q < 1 or self.seed < 0):
            raise UsageError(f"jitter needs q >= 1 and seed >= 0, got q={self.q},"
                             f" seed={self.seed}")
        M = math.floor(X)
        n_samples = (2 * M + 1) ** 2 * (self.q * self.q if self.kind == "jitter" else 1)
        if n_samples > _SAMPLE_BUDGET:
            raise BudgetError(f"{n_samples} sample centers exceed the budget")
        return M

    def centers(self, X: float) -> np.ndarray:
        M = self.radius(X)
        k = np.arange(-M, M + 1, dtype=np.float64)
        g1, g2 = np.meshgrid(k, k, indexing="ij")
        cells = np.column_stack([g1.ravel(), g2.ravel()])
        if self.kind == "grid":
            return cells
        q = self.q
        rng = np.random.default_rng(self.seed)
        strata = np.stack(
            np.meshgrid(np.arange(q), np.arange(q), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        pts = []
        for s in strata:
            u = rng.random((len(cells), 2))
            pts.append(cells + (s + u) / q - 0.5)
        return np.concatenate(pts, axis=0)


@lru_cache(maxsize=32)
def _residue(field: FieldSpec) -> float:
    return residue_rk(field, 1e-8).value


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


DENSITY_MODELS = ("first-order", "second-order")


def variance_profile(
    field: FieldSpec,
    X: float,
    deltas: list[float],
    sampler: Sampler = Sampler(),
    grid: PrefixGrid | None = None,
    density: str = "first-order",
) -> list[VarianceRow]:
    """One grid build, one row per interval exponent delta, H = X^delta.

    V is the mean square of the box count minus its expected count; density
    picks the expectation.  "first-order" subtracts sum 1/log|N| / r_K, the
    prime ideal theorem's density.  "second-order" subtracts
    sum (1/log|N| - kappa_K / (sqrt|N| log|N|)) / r_K with
    kappa_K = |Cl_K[2]| / 2: prime elements generate prime ideals but not
    prime-ideal squares, and p^2 is principal exactly when [p] lies in
    Cl_K[2].  E is the mean box count under either model.  A grid passed
    in for "second-order" must be built with `square_weights=True`.

    With the grid sampler every box sum is a slice of a prefix table, so
    the centers are never materialized; the sample budget still applies.
    """
    if not math.isfinite(X) or X < 0:
        raise UsageError(f"X must be a finite number >= 0, got {X!r}")
    if not deltas or not all(0.0 < d < 1.0 for d in deltas):
        raise UsageError("deltas must lie strictly between 0 and 1")
    if density not in DENSITY_MODELS:
        raise UsageError(f"unknown density model {density!r}")
    second_order = density == "second-order"
    M = sampler.radius(X)  # fail on the sample budget before building a grid
    if grid is None:
        grid = build_grid(field, grid_extent(X, deltas), square_weights=second_order)
    tables = [grid.prime_count, grid.log_weight]
    if second_order:
        if grid.sqrt_log_weight is None:
            raise ValueError("second-order density needs a grid built with square_weights=True")
        tables.append(grid.sqrt_log_weight)
        kappa = 2.0 ** class_group_2_rank(field) / 2.0
    centers = None if sampler.kind == "grid" else sampler.centers(X)
    rk = _residue(field)
    rows = []
    for delta in deltas:
        H = X**delta
        if centers is None:
            sums = grid_box_sums(grid, tables, M, H)
        else:
            sums = box_sums(grid, tables, centers, H)
        counts, expected, *squares = sums
        del sums
        if squares:
            expected -= kappa * squares[0]
            del squares
        expected /= rk
        counts = counts.astype(np.float64)
        n, E = counts.size, float(counts.mean())
        tilde = np.subtract(counts, expected, out=expected)
        del counts
        np.multiply(tilde, tilde, out=tilde)
        V = float(tilde.mean())
        rows.append(VarianceRow(field.spec_string(), X, delta, H, n, E, V,
                                V / E if E else math.nan, 1.0 - delta))
    return rows


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


def expectation_rational(X: int, H: int) -> float:
    """E_N: average of #{p : k < p <= k+H} over k = 0..X-1."""
    pi, _, _ = _rational_prefixes(X + H)
    k = np.arange(X)
    return float(np.mean(pi[k + H] - pi[k]))


def variance_rational_prime(X: int, H: int) -> float:
    """V_N: mean square of the 1/log-corrected prime count in (k, k+H]."""
    if H < 0 or X < 2:
        raise ValueError("need H >= 0 and X >= 2")
    if H == 0:
        return 0.0
    pi, L, _ = _rational_prefixes(X + H)
    k = np.arange(X)
    tilde = (pi[k + H] - pi[k]).astype(np.float64) - (L[k + H] - L[k])
    return float(np.mean(tilde * tilde))


def variance_rational_lambda(X: int, H: int) -> float:
    """Mean square of psi(k+H) - psi(k) - H over k = 0..X-1."""
    if H < 0 or X < 2:
        raise ValueError("need H >= 0 and X >= 2")
    if H == 0:
        return 0.0
    _, _, psi = _rational_prefixes(X + H)
    k = np.arange(X)
    dev = psi[k + H] - psi[k] - float(H)
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
    if X < 2:
        raise UsageError(f"X must be at least 2, got {X}")
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
