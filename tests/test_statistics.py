import importlib
import math
import os
import pathlib
import re
import threading
import time
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import quadprimes
import quadprimes.statistics as statistics
from quadprimes.cli import main
from quadprimes.errors import BudgetError, ExtentError, UsageError
from quadprimes.fields import class_group_2_rank, make_field
from quadprimes.ideals import PRIME_BUDGET
from quadprimes.primes import box_sums, build_grid, grid_box_sums
from quadprimes.singular_series import residue_rk
from quadprimes.statistics import (
    Sampler,
    expectation_rational,
    grid_extent,
    variance_profile,
    variance_rational_lambda,
    variance_rational_prime,
    zbaseline_row,
)

Qi = make_field(-1)
# the package's `singular_series` attribute is the function of that name
singular_series = importlib.import_module("quadprimes.singular_series")


def _residue(F):
    return residue_rk(F, 1e-8).value


# test ids of the grids built without and with square_weights, the
# expected-count models that their one weight table holds
ORDER = ["first-order", "second-order"]


class TestSampler:
    def test_grid_centers(self):
        pts = Sampler().centers(3.0)
        assert pts.shape == (49, 2)
        assert pts.min() == -3 and pts.max() == 3

    def test_budget(self):
        with pytest.raises(BudgetError):
            Sampler().centers(10**5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Sampler(kind="sobol").centers(2.0)

    def test_radius_checks_budget_without_centers(self):
        assert Sampler().radius(7.9) == 7
        with pytest.raises(BudgetError):
            Sampler().radius(10**5)
        # jitter averages over the same cells: no extra centers, same budget
        assert Sampler(kind="jitter").radius(1000.0) == 1000
        with pytest.raises(BudgetError):
            Sampler(kind="jitter").radius(10**5)

    def test_jitter_centers_are_the_cells(self):
        assert np.array_equal(Sampler("jitter").centers(3.0), Sampler().centers(3.0))


class TestOffsets:
    """`Sampler.offsets`: per-axis (weight, lo, hi) pieces of the in-cell offset."""

    def test_grid_is_one_integer_piece(self):
        assert Sampler().offsets(4.6) == [(1.0, -4, 4)]
        assert Sampler().offsets(3.0) == [(1.0, -3, 3)]
        assert Sampler().offsets(0.0) == [(1.0, 0, 0)]

    def test_jitter_pieces_by_hand(self):
        # f = 0.25: cuts at -1/4 and 1/4; f = 0: one cut at 0; f = 1/2: none
        assert Sampler("jitter").offsets(2.25) == [(0.25, -2, 1), (0.5, -2, 2), (0.25, -1, 2)]
        assert Sampler("jitter").offsets(3.0) == [(0.5, -3, 2), (0.5, -2, 3)]
        assert Sampler("jitter").offsets(2.5) == [(1.0, -2, 2)]
        assert Sampler("jitter").offsets(0.0) == [(0.5, 0, -1), (0.5, 1, 0)]

    @given(st.floats(0.0, 600.0), st.floats(-0.5, 0.5, exclude_max=True))
    def test_piece_of_u_holds_its_box_bounds(self, H, u):
        # u at least 1e-9 from every offset where u - H or u + H is an integer
        assume(all(abs(x - round(x)) >= 1e-9 for x in (u - H, u + H)))
        pieces = Sampler("jitter").offsets(H)
        weights = [w for w, _, _ in pieces]
        assert all(w > 0 for w in weights)
        assert abs(math.fsum(weights) - 1.0) <= 1e-15
        start = -0.5
        for w, lo, hi in pieces:
            if u < start + w:
                break
            start += w
        assert (lo, hi) == (math.ceil(u - H), math.floor(u + H))


class TestFieldStatistics:
    def test_variance_identity_expansion(self):
        # mean(t^2) = mean(c^2) - 2 mean(c w)/r + mean(w^2)/r^2, at the row's H
        from quadprimes.primes import count_primes_boxes, log_weight_boxes

        X = 60.0
        g = build_grid(Qi, 70)
        (row,) = variance_profile(Qi, X, [0.5], grid=g)
        centers = Sampler().centers(X)
        c = count_primes_boxes(g, centers, row.H).astype(float)
        w = log_weight_boxes(g, centers, row.H)
        rk = _residue(Qi)
        expanded = (
            np.mean(c * c) - 2 * np.mean(c * w) / rk + np.mean(w * w) / rk**2
        )
        assert row.E == c.mean()
        assert row.V == pytest.approx(expanded, rel=1e-9)

    def test_full_lattice_indicator_near_deterministic(self):
        # replace primes by the full lattice: integer H boxes have constant counts
        g = build_grid(Qi, 40)
        centers = Sampler().centers(20.0)
        H = 5.0
        counts = np.full(len(centers), (2 * int(H) + 1) ** 2, dtype=float)
        assert counts.var() == 0.0

    def test_profile_rows(self):
        rows = variance_profile(Qi, 50.0, [0.3, 0.5, 0.7])
        assert [r.delta for r in rows] == [0.3, 0.5, 0.7]
        for r in rows:
            assert r.H == pytest.approx(50.0**r.delta, rel=1e-12)
            assert r.target == pytest.approx(1.0 - r.delta)
            assert r.V >= 0.0 and r.E > 0.0
            assert r.ratio == pytest.approx(r.V / r.E, rel=1e-12)

    def test_profile_deterministic(self):
        a = variance_profile(Qi, 40.0, [0.5])
        b = variance_profile(Qi, 40.0, [0.5])
        assert a == b

    def test_bad_deltas(self):
        with pytest.raises(ValueError):
            variance_profile(Qi, 40.0, [0.0, 0.5])

    def test_empty_deltas_named(self):
        with pytest.raises(UsageError, match="deltas must not be empty"):
            variance_profile(Qi, 40.0, [])

    @pytest.mark.parametrize("X", [-5.0, math.nan, math.inf])
    def test_bad_X(self, X):
        with pytest.raises(UsageError):
            variance_profile(Qi, X, [0.5])

    def test_no_primes_gives_nan_ratio(self):
        # one center, a box holding only the origin
        (row,) = variance_profile(Qi, 0.0, [0.5])
        assert row.n_samples == 1 and row.E == 0.0
        assert math.isnan(row.ratio)

    def test_builds_grid_of_grid_extent(self, monkeypatch):
        built = []

        def spy(field, extent, square_weights=False):
            grid = build_grid(field, extent, square_weights)
            built.append((extent, square_weights, grid.kappa))
            return grid

        monkeypatch.setattr(statistics, "build_grid", spy)
        variance_profile(Qi, 30.0, [0.2, 0.7])
        # the second-order grid: its weight table holds kappa_K = 1/2 for Q(i)
        assert built == [(grid_extent(30.0, [0.2, 0.7]), True, 0.5)]
        assert grid_extent(30.0, [0.2, 0.7]) == math.ceil(30 + 30**0.7) + 2


class TestSlicePath:
    """Grid-sampler rows come from slices; they equal the gather path's."""

    @pytest.mark.parametrize("D", [-1, -3, 10])
    @pytest.mark.parametrize("square_weights", [False, True], ids=ORDER)
    def test_rows_equal_gather_path(self, D, square_weights):
        # the rows are read off the grid's one weight table, whichever model
        # it holds; E is the mean count for both
        F = make_field(D)
        X, deltas = 30.0, [0.2, 0.5, 0.9]
        g = build_grid(F, grid_extent(X, deltas), square_weights=square_weights)
        rows = variance_profile(F, X, deltas, grid=g)
        centers = Sampler().centers(X)
        rk = _residue(F)
        for delta, row in zip(deltas, rows):
            counts, weights = box_sums(g, [g.prime_count, g.log_weight], centers, X**delta)
            counts = counts.astype(np.float64)
            tilde = counts - weights / rk
            assert row.n_samples == len(centers)
            assert row.E == float(counts.mean())
            assert row.V == float(np.mean(tilde * tilde))

    def test_sampler_picks_the_path(self, monkeypatch):
        # both samplers slice, no centers: each nonempty pair of pieces in
        # turn, its strips of center rows covering the rows 0..2M, one strip
        # per pairwise leaf (a row that two leaves share is answered twice);
        # the strips of one pair run on worker threads, in any order
        calls = []
        grid_box_sums = statistics.grid_box_sums

        def wrapped(grid, tables, M, rows, cols, strip=None):
            calls.append((rows, cols, strip))
            return grid_box_sums(grid, tables, M, rows, cols, strip)

        def pairs_covering(n):
            covered = {}  # insertion order: the pairs in order of first appearance
            for rows, cols, (r0, r1) in calls:
                covered.setdefault((rows, cols), []).append((r0, r1))
            leaves = singular_series._pairwise_leaves(n * n)
            want = sorted((lo // n, (hi - 1) // n + 1) for lo, hi in leaves)
            assert len(leaves) > 1 and all(sorted(got) == want for got in covered.values())
            return list(covered)

        monkeypatch.setattr(statistics, "grid_box_sums", wrapped)
        monkeypatch.setattr(Sampler, "centers", lambda self, X: pytest.fail("centers built"))
        monkeypatch.setattr(singular_series, "_PAIRWISE_LEAF", 300)
        variance_profile(Qi, 20.0, [0.3, 0.6])
        assert pairs_covering(41) == [((-2, 2), (-2, 2)), ((-6, 6), (-6, 6))]
        calls.clear()
        variance_profile(Qi, 20.0, [0.3, 0.6], Sampler(kind="jitter"))
        want = [(s1, s2) for H in (20.0**0.3, 20.0**0.6)
                for s1, s2 in product([(lo, hi) for _, lo, hi in Sampler("jitter").offsets(H)],
                                      repeat=2)]
        assert len(want) == 2 * 9 and pairs_covering(41) == want


class TestStrips:
    """`variance_profile` answers each pair of pieces in strips of center rows,
    one strip for each leaf of the pairwise tree, which may split rows."""

    @pytest.mark.parametrize("D", [-1, -3, 10])
    @pytest.mark.parametrize("square_weights", [False, True], ids=ORDER)
    def test_strip_height_does_not_change_rows(self, D, square_weights, monkeypatch):
        # X = 0.2 has H = 0.2^0.5 < 1/2, so two of its jitter pieces are empty
        F = make_field(D)
        for X in (40.0, 0.2):
            deltas = [0.3, 0.5, 0.9]
            g = build_grid(F, grid_extent(X, deltas), square_weights=square_weights)
            n = 2 * math.floor(X) + 1
            for kind in ("grid", "jitter"):
                want = variance_profile(F, X, deltas, Sampler(kind), g)
                for leaf in (128, 7 * n + 3, n * n):
                    monkeypatch.setattr(singular_series, "_PAIRWISE_LEAF", max(128, leaf))
                    assert variance_profile(F, X, deltas, Sampler(kind), g) == want
                monkeypatch.undo()
        assert any(lo > hi for _, lo, hi in Sampler("jitter").offsets(0.2**0.5))

    @pytest.mark.parametrize("square_weights", [False, True], ids=ORDER)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count_does_not_change_rows(self, square_weights, workers, monkeypatch):
        F, X, deltas = make_field(10), 40.0, [0.3, 0.5, 0.9]
        g = build_grid(F, grid_extent(X, deltas), square_weights=square_weights)
        n = 2 * math.floor(X) + 1
        for kind in ("grid", "jitter"):
            monkeypatch.setattr(statistics, "_cpu_count", lambda: 1)
            want = variance_profile(F, X, deltas, Sampler(kind), g)
            monkeypatch.setattr(statistics, "_cpu_count", lambda: workers)
            for leaf in (128, 7 * n + 3, n * n):
                monkeypatch.setattr(singular_series, "_PAIRWISE_LEAF", leaf)
                assert variance_profile(F, X, deltas, Sampler(kind), g) == want
            monkeypatch.undo()

    @pytest.mark.parametrize("kind", ["grid", "jitter"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_leaves_that_split_rows_equal_whole_buffer(self, workers, kind, monkeypatch):
        # leaves of 128 and 200 centers split the 81 center rows; the rows equal
        # E and V of one whole-box array of counts and squared deviations per pair
        F, X, deltas = make_field(-3), 40.0, [0.3, 0.5, 0.9]
        g = build_grid(F, grid_extent(X, deltas), square_weights=True)
        n, rk, sampler = 81, _residue(F), Sampler(kind)
        want = []
        for delta in deltas:
            E = V = 0.0
            pieces = [(w, (lo, hi)) for w, lo, hi in sampler.offsets(X**delta) if lo <= hi]
            for (w1, span1), (w2, span2) in product(pieces, repeat=2):
                counts, expected = grid_box_sums(g, [g.prime_count, g.log_weight], 40,
                                                 span1, span2)
                dev = counts - expected / rk
                E += w1 * w2 * float(np.float64(int(counts.sum())) / n**2)
                V += w1 * w2 * float(np.mean(dev * dev))
            want.append((E.hex(), V.hex()))
        monkeypatch.setattr(statistics, "_cpu_count", lambda: workers)
        for leaf in (128, 200):
            monkeypatch.setattr(singular_series, "_PAIRWISE_LEAF", leaf)
            assert len(singular_series._pairwise_leaves(n * n)) > 32
            rows = variance_profile(F, X, deltas, sampler, g)
            assert [(r.E.hex(), r.V.hex()) for r in rows] == want

    def test_finishing_order_does_not_change_rows(self, monkeypatch):
        # the first strip of every pair finishes last; the workers are joined
        F, X, deltas = make_field(-3), 40.0, [0.3, 0.5, 0.9]
        g = build_grid(F, grid_extent(X, deltas))
        want = variance_profile(F, X, deltas, grid=g)
        grid_box_sums = statistics.grid_box_sums

        def late_first(grid, tables, M, rows, cols, strip=None):
            if strip[0] == 0:
                time.sleep(0.01)
            return grid_box_sums(grid, tables, M, rows, cols, strip)

        monkeypatch.setattr(statistics, "grid_box_sums", late_first)
        monkeypatch.setattr(statistics, "_cpu_count", lambda: 3)
        monkeypatch.setattr(singular_series, "_PAIRWISE_LEAF", 7 * 81)
        threads = threading.active_count()
        assert variance_profile(F, X, deltas, grid=g) == want
        assert threading.active_count() == threads

    def test_small_grid_raises_before_any_strip(self, monkeypatch):
        # the grid holds the boxes of delta = 0.3 but not those of 0.9
        F, X = make_field(-1), 30.0
        g = build_grid(F, grid_extent(X, [0.3]))
        monkeypatch.setattr(statistics, "grid_box_sums", lambda *args: pytest.fail("strip run"))
        h = math.floor(X**0.9)
        message = (f"boxes {(-h, h)} x {(-h, h)} around [-30, 30]^2"
                   f" exceed the extent {g.extent}")
        threads = threading.active_count()
        with pytest.raises(ExtentError, match=re.escape(message)) as err:
            variance_profile(F, X, [0.3, 0.9], grid=g)
        assert type(err.value) is ExtentError and str(err.value) == message
        assert threading.active_count() == threads

    def test_cpu_count(self, monkeypatch):
        assert 1 <= statistics._cpu_count() <= (os.cpu_count() or 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert statistics._cpu_count() == 1

    @pytest.mark.parametrize("square_weights", [False, True], ids=ORDER)
    def test_peak_is_one_buffer(self, square_weights, monkeypatch):
        # past the prebuilt tables, a call holds, per worker, a few temporaries
        # of one leaf's center rows: no (2M+1)^2 buffer and no whole-box box sums
        F, X, deltas = make_field(10), 300.0, [0.3, 0.9]
        n = 2 * 300 + 1
        g = build_grid(F, grid_extent(X, deltas), square_weights=square_weights)
        variance_profile(F, X, deltas, grid=g)  # warm the caches
        for workers in (1, 2, 3):
            monkeypatch.setattr(statistics, "_cpu_count", lambda: workers)
            tracemalloc.start()
            try:
                variance_profile(F, X, deltas, grid=g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            rows = singular_series._PAIRWISE_LEAF // n + 2
            assert peak <= workers * 6 * 8 * rows * n, workers
            assert peak < 8 * n * n, workers


class TestJitterIsExact:
    """The jitter rows are the continuous average over the cells."""

    @staticmethod
    def midpoint_rule(F, X, delta, N=100_000):
        """E and V at N midpoints u per axis, centers cell + u gathered by
        `box_sums`, about the second-order expected count; the midpoints
        with equal box bounds share one call."""
        H = X**delta
        g = build_grid(F, grid_extent(X, [delta]), square_weights=True)
        u = -0.5 + (np.arange(N) + 0.5) / N
        bounds = np.stack([np.ceil(u - H), np.floor(u + H)], axis=1)
        _, first, count = np.unique(bounds, axis=0, return_index=True, return_counts=True)
        cells = Sampler().centers(X)
        E = V = 0.0
        for u1, n1 in zip(u[first], count):
            for u2, n2 in zip(u[first], count):
                c, w = box_sums(g, [g.prime_count, g.log_weight], cells + (u1, u2), H)
                tilde = c - w / _residue(F)
                E += n1 * n2 / N**2 * c.mean()
                V += n1 * n2 / N**2 * np.mean(tilde * tilde)
        return E, V

    @pytest.mark.parametrize("D", [-1, 10])
    def test_matches_the_midpoint_rule(self, D):
        F = make_field(D)
        rows = variance_profile(F, 20.0, [0.3, 0.9], Sampler("jitter"))
        for row in rows:
            E, V = self.midpoint_rule(F, 20.0, row.delta)
            assert row.n_samples == 41 * 41
            assert row.E == pytest.approx(E, rel=1e-4)
            assert row.V == pytest.approx(V, rel=1e-4)

    def test_no_lattice_point_at_radius_zero(self):
        # X = 0, H = 0: a jittered center almost never sits on the origin
        (row,) = variance_profile(Qi, 0.0, [0.5], Sampler("jitter"))
        assert (row.n_samples, row.E, row.V) == (1, 0.0, 0.0)


class TestVarianceRun:
    def test_rejects_a_grid_of_another_field(self):
        F = make_field(-3)
        g = build_grid(make_field(10), grid_extent(30.0, [0.5]))
        with pytest.raises(UsageError, match="D=10"):
            variance_profile(F, 30.0, [0.5], grid=g)
        own = build_grid(F, grid_extent(30.0, [0.5]), square_weights=True)
        assert variance_profile(F, 30.0, [0.5], grid=own) == variance_profile(F, 30.0, [0.5])

    def test_builds_the_character_table_once(self, monkeypatch, capsys):
        built = []
        table = singular_series._character_table

        def spy(d):
            built.append(d)
            return table(d)

        monkeypatch.setattr(singular_series, "_character_table", spy)
        residue_rk.cache_clear()
        assert main(["variance", "--field", "D=-7", "--X", "10", "--deltas", "0.5"]) == 0
        assert built == [-7]


def test_no_random_numbers():
    # both samplers average exactly; the package draws no random numbers
    src = pathlib.Path(quadprimes.__file__).parent
    for path in sorted(src.glob("*.py")):
        found = re.findall(r"^\s*(?:from|import)\s+random\b|\b(?:np|numpy)\.random\b"
                           r"|\bdefault_rng\b", path.read_text(), re.M)
        assert not found, f"{path.name} uses {found}"


class TestDensityModels:
    def test_second_order_reduces_bias(self):
        # mean(count - expected) at delta = 0.9: the 1/log|N| density alone
        # leaves a bias from the principal prime-ideal squares it counts
        X = 200.0
        H = X**0.9
        for D in (-1, -3, -5, -7, 2, 3, 10):
            F = make_field(D)
            R = math.ceil(X + H) + 2
            plain, g = (build_grid(F, R, square_weights=s) for s in (False, True))
            assert g.kappa == 2 ** class_group_2_rank(F) / 2
            centers = Sampler().centers(X)
            counts, weights = box_sums(g, [g.prime_count, g.log_weight], centers, H)
            (first_weights,) = box_sums(plain, [plain.log_weight], centers, H)
            rk = _residue(F)
            first = np.mean(counts - first_weights / rk)
            tilde = counts - weights / rk
            assert abs(np.mean(tilde)) <= 0.5 * abs(first), D
            (row,) = variance_profile(F, X, [0.9], grid=g)
            assert row.V == pytest.approx(np.mean(tilde * tilde), rel=1e-12)
            assert row.E == pytest.approx(np.mean(counts), rel=1e-12)


class TestRationalBaselines:
    def test_hand_window_counts(self):
        # windows (k, k+2] for k = 0..9: primes 2,3,5,7,11
        want = [1, 2, 1, 1, 1, 1, 1, 0, 0, 1]
        from quadprimes.statistics import _rational_prefixes

        pi, _, _ = _rational_prefixes(12)
        got = [int(pi[k + 2] - pi[k]) for k in range(10)]
        assert got == want
        assert expectation_rational(10, 2) == pytest.approx(np.mean(want))

    def test_hand_lambda(self):
        _, _, psi = __import__(
            "quadprimes.statistics", fromlist=["_rational_prefixes"]
        )._rational_prefixes(12)
        want = (
            math.log(2) * 3  # 2, 4, 8
            + math.log(3) * 2  # 3, 9
            + math.log(5)
            + math.log(7)
            + math.log(11)
        )
        assert psi[11] == pytest.approx(want, rel=1e-12)

    def test_h0_zero(self):
        assert variance_rational_prime(10, 0) == 0.0
        assert variance_rational_lambda(10, 0) == 0.0

    @pytest.mark.parametrize("f", [expectation_rational, variance_rational_prime,
                                   variance_rational_lambda])
    @pytest.mark.parametrize("X, H", [(0, 3), (1, 0), (10, -3), (-5, -1),
                                      (2.5, 1), (10, 0.5), (10.0, 3), (10, "3")])
    def test_domain_checked(self, f, X, H):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="X >= 2 and H >= 0"):
                f(X, H)

    @pytest.mark.parametrize("X", [2.5, 1000.0, "1000", 1])
    def test_zbaseline_needs_an_int_x(self, X):
        with pytest.raises(UsageError, match="X must be an int >= 2"):
            zbaseline_row(X, 0.5)

    def test_numpy_ints_accepted(self):
        X, H = np.int64(1000), np.int32(31)
        assert expectation_rational(X, H) == expectation_rational(1000, 31)
        assert variance_rational_prime(X, H) == variance_rational_prime(1000, 31)
        assert variance_rational_lambda(X, H) == variance_rational_lambda(1000, 31)
        assert zbaseline_row(np.int64(10**4), 0.5) == zbaseline_row(10**4, 0.5)

    def test_direct_small_case(self):
        X, H = 30, 3
        from quadprimes.statistics import _rational_prefixes

        pi, L, psi = _rational_prefixes(X + H)
        vp = np.mean(
            [((pi[k + H] - pi[k]) - (L[k + H] - L[k])) ** 2 for k in range(X)]
        )
        assert variance_rational_prime(X, H) == pytest.approx(float(vp), rel=1e-12)

    @pytest.mark.parametrize("X, H", [(2, 1), (30, 3), (1000, 31), (12345, 999),
                                      (10**5, 316), (10**5, 33333)])
    def test_bits_equal_gathered_windows(self, X, H):
        # the windows (k, k+H] for k = 0..X-1, gathered by an index array:
        # the same elements in the same order as the sliced ones
        pi, L, psi = statistics._rational_prefixes(X + H)
        k = np.arange(X)
        tilde = (pi[k + H] - pi[k]).astype(np.float64) - (L[k + H] - L[k])
        dev = psi[k + H] - psi[k] - float(H)
        assert expectation_rational(X, H) == float(np.mean(pi[k + H] - pi[k]))
        assert variance_rational_prime(X, H) == float(np.mean(tilde * tilde))
        assert variance_rational_lambda(X, H) == float(np.mean(dev * dev))

    def test_desk_scale_bands(self):
        row = zbaseline_row(10**4, 0.5)
        assert 0.3 < row.ratio_prime < 2.0
        assert 0.3 < row.ratio_lambda < 2.0

    def test_prefix_budget(self):
        with pytest.raises(BudgetError):
            statistics._rational_prefixes(PRIME_BUDGET + 1)
        with pytest.raises(BudgetError):
            zbaseline_row(10**11, 0.5)

    def test_appendix_consistency_desk_scale(self):
        X = 10**4
        row = zbaseline_row(X, 0.5)
        lhs = abs(math.sqrt(row.V_lambda) / math.log(X) - math.sqrt(row.V_prime))
        assert lhs <= 0.35 * math.sqrt(row.V_prime)
