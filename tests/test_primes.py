import dataclasses
import functools
import math
import random
import os
import struct
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import isprime

from quadprimes.errors import (
    BudgetError,
    ExtentError,
    GridFileError,
    QuadPrimesError,
    UsageError,
)
from quadprimes import primes
from quadprimes.fields import _is_squarefree, class_group_2_rank, make_field
from quadprimes.ideals import _prime_sieve, miller_rabin
from quadprimes.primes import (
    box_sums,
    build_grid,
    count_primes_box,
    count_primes_boxes,
    grid_box_sums,
    is_prime_element,
    load_grid,
    log_weight_box,
    log_weight_boxes,
    save_grid,
)
from quadprimes.statistics import Sampler

from oracles import kronecker

Qi = make_field(-1)


class TestMillerRabin:
    def test_small_range_against_sympy(self):
        for n in range(2000):
            assert miller_rabin(n) == isprime(n)

    def test_strong_pseudoprimes(self):
        # classic composites that fool single-base tests
        for n in (2047, 1373653, 25326001, 3215031751, 3474749660383):
            assert not miller_rabin(n)

    def test_large_primes(self):
        assert miller_rabin(2**61 - 1)
        assert not miller_rabin(2**61 + 1)


class TestIsPrimeElement:
    def test_gaussian_basics(self):
        assert is_prime_element(Qi.element(1, 1))       # 1+i, norm 2
        assert is_prime_element(Qi.element(3, 0))       # inert 3
        assert not is_prime_element(Qi.element(2, 0))   # 2 = -i(1+i)^2
        assert not is_prime_element(Qi.element(0, 0))
        assert not is_prime_element(Qi.element(0, 1))   # unit

    def test_gaussian_classical_characterization(self):
        # a+bi prime iff a^2+b^2 prime, or one coordinate 0 and |other| = p = 3 mod 4
        for a in range(-40, 41):
            for b in range(-40, 41):
                n = a * a + b * b
                classical = isprime(n) or (
                    (a == 0 or b == 0) and isprime(abs(a + b)) and abs(a + b) % 4 == 3
                )
                assert is_prime_element(Qi.element(a, b)) == classical, (a, b)

    def test_real_field_inert_associates(self):
        F = make_field(2)
        # 3 is inert in Q(sqrt 2); associates 3*(1+sqrt2)^k are prime
        three = F.element(3, 0)
        unit = F.element(1, 1)
        alpha = three
        for _ in range(4):
            assert is_prime_element(alpha)
            alpha = alpha * unit
        # norm 49 but not an associate of 7: 7 splits, so no such element exists;
        # instead check a ramified element
        assert is_prime_element(F.element(0, 1))  # sqrt2, norm -2

    @pytest.mark.parametrize("p", [2_097_143, 2_097_169, 2**31 - 1, 1_099_511_627_873, 2**61 - 1])
    def test_rational_primes_past_the_kernel_bound(self, p):
        # p is prime as an element exactly when it is inert: p = 3 (mod 4)
        # in Q(i), and (5|p) = -1 in Q(sqrt 5)
        assert is_prime_element(Qi.element(p, 0)) == (p % 4 == 3)
        assert is_prime_element(make_field(5).element(p, 0)) == (kronecker(5, p) == -1)


class TestBuildGrid:
    def test_totals_match_scan(self):
        for D in (-1, -3, 2, 5):
            F = make_field(D)
            R = 25
            g = build_grid(F, R)
            cnt, wt = 0, 0.0
            for a in range(-R, R + 1):
                for b in range(-R, R + 1):
                    alpha = F.element(a, b)
                    n = abs(alpha.norm())
                    if is_prime_element(alpha):
                        cnt += 1
                    if n > 1:
                        wt += 1.0 / math.log(n)
            assert g.total_primes() == cnt
            assert g.total_weight() == pytest.approx(wt, rel=1e-12)

    def test_monotone_tables(self):
        g = build_grid(Qi, 12)
        assert np.all(np.diff(g.prime_count, axis=0) >= 0)
        assert np.all(np.diff(g.prime_count, axis=1) >= 0)
        assert np.all(np.diff(g.log_weight, axis=0) >= -1e-12)

    def test_r0(self):
        g = build_grid(Qi, 0)
        assert g.total_primes() == 0
        assert g.total_weight() == 0.0

    def test_budget(self):
        with pytest.raises(BudgetError):
            build_grid(Qi, 10**5)


def _prefix_table(values, acc_dtype, dtype):
    """2D prefix sums of a whole (W, W) array, accumulated in acc_dtype and
    stored as dtype, with a zero row/column in front."""
    W = values.shape[0]
    table = np.zeros((W + 1, W + 1), dtype=dtype)
    table[1:, 1:] = values.astype(acc_dtype).cumsum(axis=0).cumsum(axis=1)
    return table


def _kappa(field):
    """kappa_K = |Cl_K[2]| / 2, the weight of the principal prime-ideal squares."""
    return 2 ** class_group_2_rank(field) / 2


def _whole_box_tables(field, R, square_weights):
    """The tables of `build_grid`, each surface evaluated over the whole box
    at once and prefix-summed by `_prefix_table`: the oracle of the strip
    build.  With square_weights the one weight per cell is 1/log|N| less
    kappa_K / (sqrt|N| log|N|)."""
    k = np.arange(-R, R + 1, dtype=np.int64)
    abs_norm = np.abs(field.norm_form(k[:, None], k[None, :]))
    max_norm = int(abs_norm.max())
    sieve = _prime_sieve(max(max_norm, 2))
    limit = math.isqrt(max(max_norm, 1))
    inert = np.array([bool(sieve[p]) and kronecker(field.discriminant, p) == -1
                      for p in range(limit + 1)])
    root = np.rint(np.sqrt(abs_norm.astype(np.float64))).astype(np.int64)
    square = (root * root == abs_norm) & (abs_norm > 1)
    prime_mask = sieve[abs_norm] | (square & inert[np.minimum(root, limit)])
    with np.errstate(divide="ignore"):
        wts = np.where(abs_norm > 1, 1.0 / np.log(np.maximum(abs_norm, 2)), 0.0)
    if square_weights:
        wts -= _kappa(field) * wts / np.sqrt(np.maximum(abs_norm, 2))
    return [_prefix_table(prime_mask, np.int64, np.int64),
            _prefix_table(wts, np.longdouble, np.float64)]


STRIP = primes._STRIP_ROWS
ORACLE_FIELDS = (-1, -3, 5, 10, -7, 2)


class TestStripBuild:
    def assert_matches_oracle(self, D, R, square_weights):
        F = make_field(D)
        g = build_grid(F, R, square_weights=square_weights)
        assert g.kappa == (_kappa(F) if square_weights else 0.0)
        got = [g.prime_count, g.log_weight]
        for table, want in zip(got, _whole_box_tables(F, R, square_weights), strict=True):
            assert table.dtype == want.dtype
            assert np.array_equal(table, want)

    # The width W = 2R + 1 is odd, so an even _STRIP_ROWS cannot equal it:
    # that case runs with strips one row longer, at W = _STRIP_ROWS + 1.
    @pytest.mark.parametrize("W, strip", [
        (1, STRIP),
        (STRIP - 1 + STRIP % 2, STRIP),
        (STRIP + 1 - STRIP % 2, STRIP + 1 - STRIP % 2),
        (STRIP + 1 + STRIP % 2, STRIP),
        (2 * STRIP + 1, STRIP),
    ], ids=["one-row", "below-strip", "one-strip", "above-strip", "two-strips-and-a-row"])
    @pytest.mark.parametrize("square_weights", [False, True])
    @pytest.mark.parametrize("D", ORACLE_FIELDS)
    def test_widths_around_the_strip(self, monkeypatch, D, square_weights, W, strip):
        monkeypatch.setattr(primes, "_STRIP_ROWS", strip)
        self.assert_matches_oracle(D, (W - 1) // 2, square_weights)

    # Only the rows k1 >= 0 are evaluated, in strips from k1 = 0 down, and
    # the rows k1 < 0 are read from them reversed.  Row k1 = 0 is box row R:
    # the first, a middle or the last row of a strip counted from the top of
    # the box, so the R + 1 evaluated rows fill their last strip with one
    # row, about half a strip or a whole strip.
    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("strip", [STRIP, 7], ids=["default-strip", "strip-7"])
    @pytest.mark.parametrize("square_weights", [False, True])
    @pytest.mark.parametrize("D", ORACLE_FIELDS)
    def test_row_zero_across_the_strip(self, monkeypatch, D, square_weights, strip, where):
        monkeypatch.setattr(primes, "_STRIP_ROWS", strip)
        R = 2 * strip + (0, strip // 2, strip - 1)[where]
        self.assert_matches_oracle(D, R, square_weights)

    @pytest.mark.parametrize("strip", [1, 7, 1000])
    @pytest.mark.parametrize("square_weights", [False, True])
    @pytest.mark.parametrize("D", ORACLE_FIELDS)
    def test_strip_sizes(self, monkeypatch, D, square_weights, strip):
        monkeypatch.setattr(primes, "_STRIP_ROWS", strip)
        for R in (0, 3, 24):
            self.assert_matches_oracle(D, R, square_weights)

    @pytest.mark.parametrize("D", ORACLE_FIELDS)
    def test_default_grid_is_first_order_bit_for_bit(self, D):
        # the default weight is 1/log|N| alone: every entry equal, by ==, to
        # the first-order oracle's, at widths of one strip and of several
        F = make_field(D)
        for R in (STRIP // 2, 2 * STRIP + 3):
            g = build_grid(F, R)
            assert g.kappa == 0.0
            for table, want in zip((g.prime_count, g.log_weight),
                                   _whole_box_tables(F, R, False), strict=True):
                assert table.dtype == want.dtype and table.shape == want.shape
                assert (table == want).all()

    def test_cell_budget_boundary(self, monkeypatch):
        # 7747^2 cells exceed the 60M budget; 7745^2 pass it and reach the sieve
        with pytest.raises(BudgetError, match="grid with 60016009 cells"):
            build_grid(Qi, 3873)

        def sieve(n):
            raise LookupError(n)

        monkeypatch.setattr(primes, "_prime_sieve", sieve)
        with pytest.raises(LookupError):
            build_grid(Qi, 3872)

    def test_sieve_budget_boundary(self, monkeypatch):
        # D = -100003 has the half basis and the norm form k1^2 + k1 k2 + 25001 k2^2;
        # the sieve budget of 2e9 falls between extents 282 and 283
        F = make_field(-100003)
        max_norm = max(abs(F.norm_form(a, b)) for a in (-283, 283) for b in range(-283, 284))
        with pytest.raises(BudgetError, match=f"norms up to {max_norm} exceed"):
            build_grid(F, 283)

        def sieve(n):
            raise LookupError(n)

        monkeypatch.setattr(primes, "_prime_sieve", sieve)
        with pytest.raises(LookupError) as exc:
            build_grid(F, 282)
        assert exc.value.args[0] == max(
            abs(F.norm_form(a, b)) for a in range(-282, 283) for b in range(-282, 283))

    def test_sieve_sized_by_the_whole_box_max(self, monkeypatch):
        # build_grid takes max|N| from the box's edges only; over every
        # squarefree |D| <= 300 it equals the maximum over the whole box
        def sieve(n):
            raise LookupError(n)

        monkeypatch.setattr(primes, "_prime_sieve", sieve)
        for D in range(-300, 301):
            if D in (0, 1) or not _is_squarefree(D):
                continue
            F = make_field(D)
            for R in (*range(40), 63, 64, 65, 127, 128, 255):
                k = np.arange(-R, R + 1)
                want = int(np.abs(F.norm_form(k[:, None], k[None, :])).max())
                with pytest.raises(LookupError) as exc:
                    build_grid(F, R)
                assert exc.value.args[0] == max(want, 2), (D, R)

    def test_sieve_budget_exact_for_huge_norms(self):
        # c k2^2 = 700000000001 * 3872^2 is beyond int64; the reported max is
        # the exact corner norm 3872^2 (1 + c), not an overflow or a wrapped value
        with pytest.raises(BudgetError, match=f"norms up to {3872**2 * 700000000002} exceed"):
            build_grid(make_field(-700000000001), 3872)

    def test_traced_peak_near_table_bytes(self):
        # the whole-box build peaked at 2.66x the tables' bytes, and the
        # build with fresh temporaries per strip at 1.42x (D = 10) and 1.32x
        # (D = -3); the sieve, freed before the rows are summed, is most of
        # what remains
        for D in (10, -3):
            tracemalloc.start()
            try:
                g = build_grid(make_field(D), 400, square_weights=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tables = g.prime_count.nbytes + g.log_weight.nbytes
            assert peak <= 1.35 * tables, D


class TestBoxQueries:
    def test_center_origin(self):
        g = build_grid(Qi, 10)
        assert count_primes_box(g, 0.0, 0.0, 1.5) == 4  # the four elements +-1+-i

    def test_random_boxes_match_scan(self):
        g = build_grid(Qi, 40)
        rng = random.Random(7)
        for _ in range(200):
            x1 = rng.uniform(-25, 25)
            x2 = rng.uniform(-25, 25)
            H = rng.uniform(1, 14)
            want_c, want_w = 0, 0.0
            for a in range(math.ceil(x1 - H), math.floor(x1 + H) + 1):
                for b in range(math.ceil(x2 - H), math.floor(x2 + H) + 1):
                    alpha = Qi.element(a, b)
                    if is_prime_element(alpha):
                        want_c += 1
                    n = abs(alpha.norm())
                    if n > 1:
                        want_w += 1.0 / math.log(n)
            assert count_primes_box(g, x1, x2, H) == want_c
            assert log_weight_box(g, x1, x2, H) == pytest.approx(want_w, abs=1e-9)

    def test_reflection_symmetry(self):
        g = build_grid(Qi, 30)
        for (x1, x2, H) in [(3.5, 7.25, 5), (10, -4, 8.5)]:
            assert count_primes_box(g, x1, x2, H) == count_primes_box(g, -x1, -x2, H)

    def test_additivity_of_weights(self):
        g = build_grid(Qi, 30)
        # four quadrant tiles vs their union box
        tiles = [
            log_weight_box(g, cx, cy, 4.0)
            for cx in (-5.0, 4.0)
            for cy in (-5.0, 4.0)
        ]
        union = log_weight_box(g, -0.5, -0.5, 8.5)
        assert sum(tiles) == pytest.approx(union, abs=1e-9)

    def test_extent_error(self):
        g = build_grid(Qi, 10)
        with pytest.raises(ExtentError):
            count_primes_box(g, 0.0, 0.0, 11.0)
        with pytest.raises(ExtentError):
            log_weight_box(g, 8.0, 0.0, 3.0)
        # one box of the batch past the edge refuses the batch
        with pytest.raises(ExtentError):
            box_sums(g, [g.prime_count], np.array([[0.0, 0.0], [8.0, 0.0]]), 3.0)

    def test_batch_matches_scalar(self):
        g = build_grid(Qi, 30)
        rng = np.random.default_rng(3)
        centers = rng.uniform(-20, 20, size=(100, 2))
        cs = count_primes_boxes(g, centers, 6.5)
        ws = log_weight_boxes(g, centers, 6.5)
        for i, (x1, x2) in enumerate(centers):
            assert cs[i] == count_primes_box(g, x1, x2, 6.5)
            assert ws[i] == pytest.approx(log_weight_box(g, x1, x2, 6.5), rel=1e-12)


class TestOneCornerExpression:
    """The scalar queries and `box_sums` share one corner expression."""

    @pytest.mark.parametrize("D", [-1, -3, 10])
    def test_scalar_equals_box_sums(self, D):
        R = 10
        g = build_grid(make_field(D), R)
        rng = np.random.default_rng(5)
        cases = [(rng.uniform(-R + 5, R - 5, size=(60, 2)), H) for H in (0.0, 2.5, 4.0)]
        # half-integer coordinates: H = 0 and 0.2 give empty boxes, H = 0.5
        # boxes of two rows or columns, up to the edge
        half = [(i + 0.5, j) for i in range(-R, R) for j in range(-R, R + 1)]
        half = np.array(half + [(j, i) for i, j in half])
        cases += [(half, H) for H in (0.0, 0.2, 0.5)]
        # boxes with a side on the edge of the grid
        edge = np.array([(s * (R - 3), t) for s in (-1, 1) for t in range(-R + 3, R - 2)])
        cases += [(edge, 3.0), (edge[:, ::-1], 3.0)]
        for centers, H in cases:
            counts, weights = box_sums(g, [g.prime_count, g.log_weight], centers, H)
            for (x1, x2), want_c, want_w in zip(centers.tolist(), counts, weights):
                c, w = count_primes_box(g, x1, x2, H), log_weight_box(g, x1, x2, H)
                assert type(c) is int and type(w) is float  # Python scalars
                assert c == want_c and w.hex() == float(want_w).hex()
            if H < 0.5 and centers is half:
                assert not counts.any()
                assert np.abs(weights).max() < 1e-12

    @pytest.mark.parametrize("H", [-1.0, -1e-300, math.nan, -math.inf, math.inf])
    def test_bad_radius(self, H):
        g = build_grid(Qi, 10)
        calls = [
            lambda: count_primes_box(g, 0.0, 0.0, H),
            lambda: log_weight_box(g, 0.0, 0.0, H),
            lambda: box_sums(g, [g.prime_count], np.zeros((3, 2)), H),
            lambda: Sampler().offsets(H),
            lambda: Sampler("jitter").offsets(H),
        ]
        for call in calls:
            with pytest.raises(UsageError):
                call()

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("H", [0.0, 2.0, math.inf])
    def test_bad_center(self, x, H):
        # a NaN or infinite centre, in either coordinate, with a finite or
        # an infinite radius: a UsageError on every query path, no warning
        g = build_grid(Qi, 10)
        centers = np.array([[0.0, 1.0], [x, 0.0], [0.0, x]])
        calls = [lambda: count_primes_boxes(g, centers, H), lambda: log_weight_boxes(g, centers, H)]
        for x1, x2 in centers[1:].tolist():
            calls += [lambda x1=x1, x2=x2: count_primes_box(g, x1, x2, H),
                      lambda x1=x1, x2=x2: log_weight_box(g, x1, x2, H)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(UsageError):
                    call()


class TestEmptyBoxes:
    """A box with no rows or no columns weighs +0.0 on every query path."""

    @staticmethod
    def positive_zero(x) -> bool:
        return x == 0.0 and math.copysign(1.0, x) == 1.0

    def test_reported_centre(self):
        # the column range [8.3, 8.7] holds no integer; the corner terms of
        # such a box used to leave -4.4e-16
        g = build_grid(make_field(-3), 10)
        assert self.positive_zero(log_weight_box(g, -9.0, 8.5, 0.2))
        assert count_primes_box(g, -9.0, 8.5, 0.2) == 0
        counts, weights = box_sums(g, [g.prime_count, g.log_weight], np.array([[-9.0, 8.5]]), 0.2)
        assert counts.tolist() == [0] and self.positive_zero(weights[0])

    @pytest.mark.parametrize("D", [-1, -3, 10])
    def test_all_paths_give_positive_zero(self, D):
        # both weights: the first-order one and the second-order one
        R = 10
        grids = [build_grid(make_field(D), R, square_weights=s) for s in (False, True)]
        g = grids[1]
        tables = [grid.log_weight for grid in grids]
        half = [(i + 0.5, j) for i in range(-R, R) for j in range(-R, R + 1)]
        half = np.array(half + [(j, i) for i, j in half])
        for H in (0.0, 0.2, 0.4999):
            for got in box_sums(g, tables, half, H):
                assert all(self.positive_zero(x) for x in got.tolist())
            for x1, x2 in half.tolist():
                assert all(self.positive_zero(log_weight_box(grid, x1, x2, H)) for grid in grids)
        # offsets with an empty column or row range, around every centre
        for rows, cols in [((0, 0), (1, 0)), ((1, 0), (0, 0)), ((-2, 3), (1, 0)),
                           ((1, 0), (-2, 3)), ((1, 0), (1, 0))]:
            for got in grid_box_sums(g, tables, 6, rows, cols):
                assert all(self.positive_zero(x) for x in got.tolist())


def exact_scan(field, x1, x2, H):
    """Prime elements a + b omega with max(|a - x1|, |b - x2|) <= H in exact
    arithmetic, by a scan of the integers around the rounded bounds."""
    x1, x2, H = Fraction(x1), Fraction(x2), Fraction(H)
    return sum(
        is_prime_element(field.element(a, b))
        for a in range(math.floor(x1 - H) - 1, math.ceil(x1 + H) + 2)
        for b in range(math.floor(x2 - H) - 1, math.ceil(x2 + H) + 2)
        if abs(a - x1) <= H and abs(b - x2) <= H
    )


def nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@functools.lru_cache(maxsize=1)
def _bounds_grid():
    return build_grid(Qi, 20)


class TestExactBounds:
    """Box bounds are ceil(x - H) and floor(x + H) of the exact x -+ H, also
    where the rounded difference or sum lands on an integer."""

    def test_radius_just_below_three(self):
        # 11 - H and 11 + H round to 8 and 14; the exact box is rows 9..13
        g, H = build_grid(Qi, 20), math.nextafter(3.0, 0.0)
        assert 11.0 - H == 8.0 and 11.0 + H == 14.0
        want = exact_scan(Qi, 11.0, 0.0, H)
        assert want == 5 == exact_scan(Qi, 11.0, 0.0, 2.0)
        assert count_primes_box(g, 11.0, 0.0, H) == want
        (got,) = box_sums(g, [g.prime_count], np.array([[11.0, 0.0]]), H)
        assert got.tolist() == [want]

    @settings(max_examples=150, deadline=None)
    @given(k1=st.integers(-12, 12), k2=st.integers(-12, 12),
           dx=st.sampled_from([0.0, 0.1, 0.5, 1e-15, -1e-15]),
           x_ulps=st.integers(-2, 2), h=st.integers(0, 4),
           dh=st.sampled_from([0.0, 0.1, 0.5, 0.9]), h_ulps=st.integers(-2, 2))
    @example(k1=11, k2=0, dx=0.0, x_ulps=0, h=3, dh=0.0, h_ulps=-1)
    @example(k1=-7, k2=3, dx=0.1, x_ulps=0, h=2, dh=0.9, h_ulps=0)
    def test_scalar_and_gather_match_exact_scan(self, k1, k2, dx, x_ulps, h, dh, h_ulps):
        g = _bounds_grid()
        x1, x2 = nudge(k1 + dx, x_ulps), nudge(k2 - dx, -x_ulps)
        H = max(nudge(h + dh, h_ulps), 0.0)
        want = exact_scan(Qi, x1, x2, H)
        assert count_primes_box(g, x1, x2, H) == want
        (got,) = box_sums(g, [g.prime_count], np.array([[x1, x2]]), H)
        assert got.tolist() == [want]


class TestSquareWeightTable:
    @pytest.mark.parametrize("D", [-1, 5, 10])
    def test_random_boxes_match_fsum_scan(self, D):
        # the second-order weight table sums 1/log|N| - kappa_K / (sqrt|N| log|N|)
        F = make_field(D)
        kappa = _kappa(F)
        g = build_grid(F, 60, square_weights=True)
        assert g.kappa == kappa
        table = g.log_weight
        plain = build_grid(F, 60)
        assert plain.kappa == 0.0
        assert np.array_equal(g.prime_count, plain.prime_count)
        assert not np.array_equal(g.log_weight, plain.log_weight)
        rng = random.Random(0)
        for _ in range(200):
            cx = rng.uniform(-45.0, 45.0)
            cy = rng.uniform(-45.0, 45.0)
            H = rng.uniform(0.5, 12.0)
            terms = []
            for a in range(math.ceil(cx - H), math.floor(cx + H) + 1):
                for b in range(math.ceil(cy - H), math.floor(cy + H) + 1):
                    n = abs(F.element(a, b).norm())
                    if n > 1:
                        terms += [1.0 / math.log(n), -kappa / (math.sqrt(n) * math.log(n))]
            (got,) = box_sums(g, [table], np.array([[cx, cy]]), H)
            assert got[0] == pytest.approx(math.fsum(terms), rel=1e-10)


class TestGridBoxSums:
    """The slice path against the gather path, element for element."""

    @staticmethod
    def tables(g):
        return [g.prime_count, g.log_weight]

    @pytest.mark.parametrize("D", [-1, -3, 10])
    @pytest.mark.parametrize("X", [7.5, 20.0])
    @pytest.mark.parametrize("H", [3.0, 4.6, float(np.nextafter(3.0, 0.0))])
    def test_equals_box_sums(self, D, X, H):
        g = build_grid(make_field(D), 26, square_weights=True)
        h = math.floor(H)
        got = grid_box_sums(g, self.tables(g), math.floor(X), (-h, h), (-h, h))
        want = box_sums(g, self.tables(g), Sampler().centers(X), H)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("H", [0.2, 2.25, 3.0, 4.6, 4.9])
    def test_jitter_pieces_equal_box_sums(self, H):
        # each pair of pieces is the box around cell + (mid1, mid2), whole
        # or in strips of center rows
        g = build_grid(make_field(10), 26, square_weights=True)
        cells = Sampler().centers(15.0)
        pieces = Sampler("jitter").offsets(H)
        starts = np.cumsum([-0.5] + [w for w, _, _ in pieces])
        for (w1, *rows), a1 in zip(pieces, starts):
            for (w2, *cols), a2 in zip(pieces, starts):
                mid = (a1 + w1 / 2, a2 + w2 / 2)
                got = grid_box_sums(g, self.tables(g), 15, tuple(rows), tuple(cols))
                want = box_sums(g, self.tables(g), cells + mid, H)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                # a strip of center rows r0..r1-1 is entries r0*31 .. r1*31 - 1
                for r0, r1 in [(0, 1), (3, 10), (30, 31)]:
                    strip = grid_box_sums(g, self.tables(g), 15, tuple(rows), tuple(cols),
                                          (r0, r1))
                    for a, b in zip(strip, want):
                        assert np.array_equal(a, b[r0 * 31 : r1 * 31])

    @settings(max_examples=100, deadline=None)
    @given(D=st.integers(-200, 200).filter(lambda D: D not in (0, 1) and _is_squarefree(D)),
           M=st.integers(0, 8), spare=st.integers(0, 3), quarters=st.integers(0, 10),
           shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           half=st.tuples(st.booleans(), st.booleans()),
           strip=st.tuples(st.integers(0, 17), st.integers(0, 17)))
    @example(D=-1, M=3, spare=0, quarters=1, shift=(0, 0), half=(True, False), strip=(0, 7))
    @example(D=10, M=2, spare=0, quarters=1, shift=(1, -2), half=(False, True), strip=(1, 4))
    @example(D=-3, M=0, spare=0, quarters=10, shift=(2, -2), half=(True, True), strip=(0, 1))
    def test_random_offsets_and_strips(self, D, M, spare, quarters, shift, half, strip):
        # the box of radius H = quarters / 4 around k + m, m = s or s + 1/2 per
        # axis, spans k + ceil(m - H) .. k + floor(m + H), all exact; for H < 1/2
        # around a half-integer that is empty (lo = hi + 1)
        H = quarters / 4
        mid = [s + 0.5 * h for s, h in zip(shift, half)]
        rows, cols = ((math.ceil(m - H), math.floor(m + H)) for m in mid)
        g = build_grid(make_field(D), M + 5 + spare, square_weights=True)
        n = 2 * M + 1
        r0, r1 = sorted(min(r, n) for r in strip)
        got = grid_box_sums(g, self.tables(g), M, rows, cols, (r0, r1))
        want = box_sums(g, self.tables(g), Sampler().centers(M) + mid, H)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b[r0 * n : r1 * n])

    def test_grid_edge(self):
        g = build_grid(Qi, 10)
        centers = Sampler().centers(7.0)
        for H in (3.0, 3.9):  # M + floor(H) = R: the boxes touch the edge
            (got,) = grid_box_sums(g, [g.log_weight], 7, (-3, 3), (-3, 3))
            assert np.array_equal(got, log_weight_boxes(g, centers, H))
        for rows, cols in [((-4, 4), (-3, 3)), ((-3, 3), (-3, 4)), ((-3, 4), (-3, 3))]:
            with pytest.raises(ExtentError):  # one past the edge
                grid_box_sums(g, [g.log_weight], 7, rows, cols)
        with pytest.raises(ExtentError):
            grid_box_sums(g, [g.log_weight], 8, (-3, 3), (-3, 3))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        g = build_grid(make_field(2), 20)
        path = str(tmp_path / "grid.bin")
        save_grid(g, path)
        g2 = load_grid(path)
        assert g2.field == g.field
        assert g2.extent == g.extent
        assert g2.kappa == 0.0
        assert np.array_equal(g2.prime_count, g.prime_count)
        assert np.array_equal(g2.log_weight, g.log_weight)

    @pytest.mark.parametrize("D", [-1, 10])
    def test_second_order_grid_is_not_saved(self, tmp_path, D):
        # the file format labels its weights first-order: a grid whose weight
        # holds the kappa_K term is refused before the file is opened
        g = build_grid(make_field(D), 20, square_weights=True)
        assert g.kappa > 0.0
        path = tmp_path / "grid.bin"
        with pytest.raises(UsageError, match="first-order") as exc:
            save_grid(g, str(path))
        assert exc.value.exit_code == 2
        assert not path.exists()
        save_grid(build_grid(make_field(D), 20), str(path))
        assert load_grid(str(path)).kappa == 0.0

    def test_counts_past_u32_are_refused(self, tmp_path):
        g = build_grid(Qi, 5)
        count = g.prime_count.copy()
        count[-1, -1] = 2**32
        path = tmp_path / "grid.bin"
        with pytest.raises(BudgetError, match="u32"):
            save_grid(dataclasses.replace(g, prime_count=count), str(path))
        assert not path.exists()

    def test_file_bytes_and_loaded_arrays(self, tmp_path):
        g = build_grid(make_field(-3), 30)
        path = tmp_path / "grid.bin"
        save_grid(g, str(path))
        header = struct.pack("<4sIqBI", b"SINF", 1, -3, 1, 30)
        assert path.read_bytes() == (header + g.prime_count.astype("<u4").tobytes()
                                     + g.log_weight.astype("<f8").tobytes())
        g2 = load_grid(str(path))
        for got, want in ((g2.prime_count, g.prime_count), (g2.log_weight, g.log_weight)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.writeable and got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("strip", [1, 7, STRIP])
    def test_counts_streamed_in_row_blocks(self, tmp_path, monkeypatch, strip):
        # the u32 counts are written and read a block of rows at a time:
        # the same bytes for any block size, neither side holding a u32 copy
        # of the whole table
        g = build_grid(make_field(10), 300)
        path = tmp_path / "grid.bin"
        save_grid(g, str(path))
        want = path.read_bytes()
        monkeypatch.setattr(primes, "_STRIP_ROWS", strip)
        tables = g.prime_count.nbytes + g.log_weight.nbytes
        tracemalloc.start()
        try:
            save_grid(g, str(path))
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            g2 = load_grid(str(path))
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == want
        assert np.array_equal(g2.prime_count, g.prime_count) and g2.prime_count.dtype == np.int64
        assert np.array_equal(g2.log_weight, g.log_weight)
        u32_table = g.prime_count.size * 4
        assert saved < u32_table / 4
        assert loaded < tables + u32_table / 4

    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(-200, 200).filter(lambda D: D not in (0, 1) and _is_squarefree(D)),
           R=st.integers(0, 12))
    @example(D=-3, R=0)
    @example(D=5, R=12)
    @example(D=-1, R=7)
    def test_round_trip_random_fields(self, D, R):
        g = build_grid(make_field(D), R)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "grid.bin")
            save_grid(g, path)
            g2 = load_grid(path)
            assert g2.field == g.field
            with open(path, "rb") as f:
                assert f.read(17)[16] == (D % 4 == 1)  # the basis byte
            assert g2.extent == R
            assert np.array_equal(g2.prime_count, g.prime_count)
            assert np.array_equal(g2.log_weight, g.log_weight)
            with open(path, "r+b") as f:
                f.truncate(os.path.getsize(path) - 1)
            with pytest.raises(GridFileError):
                load_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_grid(str(path))

    # header layout "<4sIqBI": magic, version, D at bytes 8..15, the basis
    # code at byte 16, R at bytes 17..20
    @pytest.mark.parametrize("corrupt", [
        lambda b: b[:300],
        lambda b: b[:10],
        lambda b: b + b"\0",
        lambda b: b[:16] + bytes([2]) + b[17:],
        lambda b: b[:8] + (4).to_bytes(8, "little", signed=True) + b[16:],
        lambda b: b[:17] + (21).to_bytes(4, "little") + b[21:],
        lambda b: b[:8] + (-(10**18) - 3).to_bytes(8, "little", signed=True) + b[16:],
    ], ids=["truncated", "short-header", "extra-byte", "basis-code", "bad-D", "wrong-R",
            "huge-D"])
    def test_corrupt_file(self, tmp_path, corrupt):
        # D = -3 takes the half basis: its basis byte is 1, and any other
        # byte is refused
        path = tmp_path / "grid.bin"
        save_grid(build_grid(make_field(-3), 20), str(path))
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(GridFileError) as exc:
            load_grid(str(path))
        assert isinstance(exc.value, QuadPrimesError) and exc.value.exit_code == 1

    @pytest.mark.parametrize("D, byte", [(-1, 1), (-3, 0), (5, 0), (2, 1)])
    def test_basis_byte_disagrees_with_D(self, tmp_path, D, byte):
        # the byte is derived from D on save, and checked against D on load
        path = tmp_path / "grid.bin"
        save_grid(build_grid(make_field(D), 5), str(path))
        data = path.read_bytes()
        assert data[16] == 1 - byte
        path.write_bytes(data[:16] + bytes([byte]) + data[17:])
        with pytest.raises(GridFileError, match=f"basis code {byte}, but D={D} takes {1 - byte}"):
            load_grid(str(path))
