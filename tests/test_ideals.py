import dataclasses
import gc
import hashlib
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy import primerange
from sympy.ntheory.residue_ntheory import quadratic_residues

import quadprimes
from quadprimes import ideals
from quadprimes.errors import BudgetError, UsageError
from quadprimes.fields import _is_squarefree, _prime_factors, make_field
from quadprimes.ideals import (
    PRIME_BUDGET,
    IdealLattice,
    PrimeIdeal,
    SplitType,
    SquarefreeIdeal,
    condensation_sum,
    dual_lattice_count,
    enumerate_prime_ideals,
    enumerate_squarefree_ideals,
    ideal_lattice,
    ideal_smoothed_count,
    ideal_smoothed_count_scaled,
    LATTICE_POINT_BUDGET,
    lattice_half_points,
    ramanujan_smoothed_sum_scaled,
    ramanujan_sum,
    smoothed_counts,
    squarefree_ideal_levels,
    _sqrt_mod_array,
    prime_ideal_table,
    split_prime,
)
from quadprimes.singular_series import _reduced_bases
from quadprimes.smoothing import Kind, TestFunction

from oracles import kronecker

Qi = make_field(-1)
SQUARE = TestFunction(Kind.SQUARE_AUTOCORR)
PRIMES_2000 = list(primerange(2, 2001))


@st.composite
def field_and_prime(draw):
    """A squarefree D with |D| <= 10^4 and a prime p <= 2000 or dividing d."""
    D = draw(st.integers(-10**4, 10**4).filter(lambda D: D != 1 and _is_squarefree(D)))
    ramified = sorted(set(_prime_factors(make_field(D).discriminant)))
    return D, draw(st.sampled_from(PRIMES_2000) | st.sampled_from(ramified))


class TestPrimeSieve:
    @pytest.mark.parametrize("limit", [*range(0, 30), 48, 49, 50, 120, 121, 122, 10**5, 10**6 + 1])
    def test_marks_exactly_the_primes(self, limit):
        sieve = ideals._prime_sieve(limit)
        assert sieve.dtype == bool and len(sieve) == limit + 1
        assert np.flatnonzero(sieve).tolist() == list(primerange(limit + 1))


class TestKronecker:
    def test_against_legendre(self):
        # quadratic residues mod 7: 1, 2, 4
        for a, want in [(1, 1), (2, 1), (3, -1), (4, 1), (5, -1), (6, -1)]:
            assert kronecker(a, 7) == want

    def test_fundamental_discriminant_periodicity(self):
        for d in (-4, -3, 8, 5, -20):
            q = abs(d)
            for a in range(1, 3 * q):
                assert kronecker(d, a) == kronecker(d, a + q)

    def test_multiplicative_in_bottom(self):
        for a in (-4, 5, 8):
            for m in range(1, 30):
                for n in range(1, 30):
                    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


class TestKroneckerPrimes:
    """The one (d|p) kernel against the scalar Kronecker symbol."""

    @pytest.mark.parametrize("d", [-1, -4, -3, -7, -8, 5, 8, 12, 17, -20, 40, -100_003, 99_989])
    def test_int64_primes(self, d):
        p = np.flatnonzero(ideals._prime_sieve(20_000))
        got = ideals._kronecker_primes(d, p)
        assert got.dtype == np.int64
        assert got.tolist() == [kronecker(d, q) for q in p.tolist()]

    @pytest.mark.parametrize("d", [-1, -4, -3, -7, -8, 5, 8, 12, 17, -20, 40, -100_003, 99_989,
                                   -24, 28, 44, 45, -108])
    def test_period_equals_euler(self, d, monkeypatch):
        # the int64 period path and the object Euler path give the same
        # symbols, with the period just inside, at and just beyond the array's
        # length; d = 12, 28, 44, -24, -108 (0 mod 4) and 45 (1 mod 4) are not
        # fundamental
        tables = []
        table = ideals._character_table

        def spy(e):
            tables.append(e)
            return table(e)

        monkeypatch.setattr(ideals, "_character_table", spy)
        primes = np.flatnonzero(ideals._prime_sieve(1_400_000))
        q = abs(d)
        sizes = sorted({1, 2, 100, q - 1, q, q + 1, 2 * q} & set(range(1, primes.size + 1)))
        euler = ideals._kronecker_primes(d, primes[:sizes[-1]].astype(object)).tolist()
        for n in sizes:
            tables.clear()
            got = ideals._kronecker_primes(d, primes[:n])
            assert got.dtype == np.int64 and got.tolist() == euler[:n], n
            assert tables == ([d] if d % 4 in (0, 1) and 1 < q <= n else []), n

    @pytest.mark.parametrize("d", [-4, -3, 8, -7, 13, 2**70 + 1])
    def test_object_primes_of_any_size(self, d):
        p = [2, 3, 5, 1_999_993, 2_097_143, 2**31 - 1, 2**61 - 1, 2**89 - 1]
        got = ideals._kronecker_primes(d, np.array(p, dtype=object))
        assert got.tolist() == [kronecker(d, q) for q in p]

    @pytest.mark.parametrize("D", [-1, -3, 10])
    def test_enumeration_shares_p_and_restores_gc(self, D):
        # the two ideals above a split p hold one int; the build leaves the
        # collector in whichever state it was in
        field = make_field(D)
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                primes = enumerate_prime_ideals(field, 5000)
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
            split = [pi for pi in primes if pi.split_type is SplitType.SPLIT]
            assert all(a.p is b.p for a, b in zip(split[::2], split[1::2]))


class TestSplitting:
    def test_gaussian_splitting(self):
        [p5a, p5b] = split_prime(5, Qi)
        assert {p5a.root, p5b.root} == {2, 3}  # roots of x^2+1 mod 5
        assert p5a.split_type is SplitType.SPLIT
        [p3] = split_prime(3, Qi)
        assert p3.split_type is SplitType.INERT and p3.norm == 9
        assert p3 == (Qi, 3, SplitType.INERT, None)  # a named tuple of its fields
        [p2] = split_prime(2, Qi)
        assert p2.split_type is SplitType.RAMIFIED and p2.root == 1

    def test_root_satisfies_minpoly(self):
        for field in (Qi, make_field(-3), make_field(2), make_field(5)):
            b, c = field.minpoly_omega()
            for pi in enumerate_prime_ideals(field, 200):
                if pi.root is not None:
                    assert (pi.root**2 + b * pi.root + c) % pi.p == 0

    # p = 2 split (17), inert (-3), ramified with root 1 (-1, -5) and 0 (2, 10);
    # odd ramified p in both bases (-3, 5, 10)
    @given(field_and_prime())
    @example((17, 2))
    @example((-3, 2))
    @example((-1, 2))
    @example((-5, 2))
    @example((2, 2))
    @example((10, 2))
    @example((-3, 3))
    @example((5, 5))
    @example((10, 5))
    def test_ideals_are_the_minpoly_roots(self, case):
        D, p = case
        field = make_field(D)
        b, c = field.minpoly_omega()
        roots = [r for r in range(p) if (r * r + b * r + c) % p == 0]
        pis = split_prime(p, field)
        assert [pi.root for pi in pis] == (roots or [None])
        kind = {2: SplitType.SPLIT, 1: SplitType.RAMIFIED, 0: SplitType.INERT}[len(roots)]
        assert all(pi.split_type is kind for pi in pis)

    def test_non_prime_rejected(self):
        for n in (0, 1, 6, 561, 2**61 + 1):
            with pytest.raises(ValueError):
                split_prime(n, Qi)

    def test_prime_budget(self):
        # a non-prime is a ValueError at any size; a prime above the budget
        # is a BudgetError; the largest prime within it still splits
        with pytest.raises(ValueError):
            split_prime(PRIME_BUDGET + 1, Qi)
        for p in (2**61 - 1, 2_000_003):
            with pytest.raises(BudgetError):
                split_prime(p, Qi)
        pis = split_prime(1_999_993, Qi)  # 1 mod 4: split
        assert [pi.split_type for pi in pis] == [SplitType.SPLIT] * 2
        assert all((pi.root**2 + 1) % pi.p == 0 for pi in pis)

    # 2 splits for D = -7 and 17, is inert for D = -3 and ramifies for the
    # rest; every field has ramified odd primes except Q(i) and Q(sqrt 2)
    @pytest.mark.parametrize("D", [-1, -3, -5, -7, 2, 10, 17])
    def test_enumerate_against_primerange(self, D):
        field = make_field(D)
        d, N = field.discriminant, 5000
        ideals = enumerate_prime_ideals(field, N)
        by_p: dict[int, list] = {}
        for pi in ideals:
            by_p.setdefault(pi.p, []).append(pi)
        # an inert p has norm p^2, so it is listed only when p^2 <= N
        want = [p for p in primerange(2, N + 1) if kronecker(d, p) != -1 or p * p <= N]
        assert sorted(by_p) == want
        kinds = {1: [SplitType.SPLIT] * 2, 0: [SplitType.RAMIFIED], -1: [SplitType.INERT]}
        omega = field.element(0, 1)
        for p, pis in by_p.items():
            assert [pi.split_type for pi in pis] == kinds[kronecker(d, p)]
            for pi in pis:
                if pi.root is None:
                    continue
                # (p, omega - root) is an ideal of norm p: closed under omega
                gen = field.element(-pi.root, 1)
                assert pi.contains(gen) and pi.contains(field.element(p, 0))
                assert pi.contains(omega * gen)
                assert gen.norm() % p == 0
                assert not pi.contains(field.one())

    def test_contains_rejects_another_fields_element(self):
        [p5a, _] = split_prime(5, Qi)
        with pytest.raises(ValueError, match="different field"):
            p5a.contains(make_field(-3).element(1, 0))

    def test_enumerate_budget(self):
        assert enumerate_prime_ideals(Qi, 0) == ()
        with pytest.raises(BudgetError):
            enumerate_prime_ideals(Qi, PRIME_BUDGET + 1)

    def test_enumerate_counts(self):
        assert len(enumerate_prime_ideals(Qi, 5)) == 3
        assert len(enumerate_prime_ideals(Qi, 9)) == 4
        assert enumerate_prime_ideals(Qi, 1) == ()

    def test_sorted_and_complete(self):
        ideals = enumerate_prime_ideals(Qi, 500)
        keys = [pi.sort_key() for pi in ideals]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # split primes contribute two ideals, each 1 mod 4 prime <= 500
        split_ps = {pi.p for pi in ideals if pi.split_type is SplitType.SPLIT}
        assert all(p % 4 == 1 for p in split_ps)


def brute_force_listing(field, bound):
    """The prime ideals of norm <= bound, each root of x^2 + b x + c mod p
    found by trying every residue r in range(p)."""
    b, c = field.minpoly_omega()
    ideals = []
    for p in primerange(2, bound + 1):
        x = np.arange(p)
        roots = np.flatnonzero((x * x + b * x + c % p) % p == 0).tolist()
        if len(roots) == 2:
            ideals += [PrimeIdeal(field, p, SplitType.SPLIT, r) for r in roots]
        elif roots:
            ideals.append(PrimeIdeal(field, p, SplitType.RAMIFIED, roots[0]))
        elif p * p <= bound:
            ideals.append(PrimeIdeal(field, p, SplitType.INERT, None))
    return tuple(sorted(ideals, key=PrimeIdeal.sort_key))


class TestPrimeIdealTable:
    # the split type of p by (d|p)
    KINDS = {1: SplitType.SPLIT, 0: SplitType.RAMIFIED, -1: SplitType.INERT}

    def test_matches_brute_force_roots(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(D=st.integers(-10**4, 10**4).filter(lambda D: D != 1 and _is_squarefree(D)),
               bound=st.integers(2, 5000))
        # p = 2 split (17), inert (-3), ramified (-1, 10); inert p = 3 on
        # both sides of the p^2 <= bound cut (-1 at 8 and 9)
        @example(D=17, bound=2)
        @example(D=-3, bound=4)
        @example(D=-1, bound=8)
        @example(D=-1, bound=9)
        @example(D=10, bound=5000)
        def check(D, bound):
            field = make_field(D)
            want = brute_force_listing(field, bound)
            assert enumerate_prime_ideals(field, bound) == want
            seen.add(("half", field.half))
            for pi in want:
                seen.add((pi.p == 2, pi.split_type))
            d = field.discriminant
            for p in primerange(3, math.isqrt(bound) + 2):
                if kronecker(d, p) == -1:
                    seen.add(("inert", p * p <= bound))

        check()
        assert {("half", False), ("half", True)} <= seen
        assert {(True, kind) for kind in SplitType} <= seen
        assert (False, SplitType.RAMIFIED) in seen
        assert {("inert", True), ("inert", False)} <= seen

    def test_structure_at_a_million(self):
        N = 10**6
        t = prime_ideal_table(Qi, N)
        d, (b, c) = Qi.discriminant, Qi.minpoly_omega()
        chi = {p: kronecker(d, p) for p in primerange(2, N + 1)}
        assert set(t.p.tolist()) == {p for p, k in chi.items() if k != -1 or p * p <= N}
        has_root = t.root >= 0
        assert np.array_equal(has_root, [chi[p] != -1 for p in t.p.tolist()])
        assert np.array_equal(t.norm, np.where(has_root, t.p, t.p * t.p))
        p, x = t.p[has_root], t.root[has_root]
        assert np.all((x * x + b * x + c) % p == 0)
        split = np.array([chi[p] == 1 for p in t.p.tolist()])
        pairs = t.root[split].reshape(-1, 2)  # sorted by (norm, p, root)
        assert np.array_equal(t.p[split][::2], t.p[split][1::2])
        assert np.all(pairs[:, 0] < pairs[:, 1])
        # the objects carry the split type the Kronecker symbol gives
        primes = enumerate_prime_ideals(Qi, N)
        assert [pi.split_type for pi in primes] == [self.KINDS[chi[p]] for p in t.p.tolist()]
        assert primes == tuple(PrimeIdeal(Qi, p, self.KINDS[chi[p]], None if r < 0 else r)
                               for p, r in zip(t.p.tolist(), t.root.tolist()))

    @pytest.mark.parametrize("D", [-1, -3, 10, 17])
    def test_table_columns(self, D):
        field = make_field(D)
        table = prime_ideal_table(field, 3000)
        ideals = enumerate_prime_ideals(field, 3000)
        assert table.p.tolist() == [pi.p for pi in ideals]
        assert table.norm.tolist() == [pi.norm for pi in ideals]
        assert table.root.tolist() == [-1 if pi.root is None else pi.root for pi in ideals]
        assert [f.name for f in dataclasses.fields(table)] == ["p", "root", "norm"]
        for col in (table.p, table.root, table.norm):
            assert col.dtype == np.int64 and not col.flags.writeable
        assert [pi.split_type for pi in ideals] == [
            self.KINDS[kronecker(field.discriminant, p)] for p in table.p.tolist()]

    def test_budget_and_empty(self):
        assert prime_ideal_table(Qi, 1).p.size == 0
        with pytest.raises(BudgetError):
            prime_ideal_table(Qi, PRIME_BUDGET + 1)


class TestSquarefree:
    @pytest.mark.parametrize("D", [-1, -3, 10])
    def test_matches_combinations(self, D):
        field, N = make_field(D), 300
        primes = enumerate_prime_ideals(field, N)
        want = []
        for k in itertools.count():
            if math.prod(pi.norm for pi in primes[:k]) > N:
                break
            for combo in itertools.combinations(primes, k):
                if math.prod(pi.norm for pi in combo) <= N:
                    want.append(SquarefreeIdeal(field, combo))
        want.sort(key=lambda q: (q.norm, tuple(f.sort_key() for f in q.factors)))
        assert enumerate_squarefree_ideals(field, N) == want

    @pytest.mark.parametrize("D", [-1, -3, 2, 3, 5, 10, -7, 17, -100003])
    @pytest.mark.parametrize("Y", [1, 2, 3, 30, 5000])
    def test_levels_match_objects_and_lattices(self, D, Y):
        # each array row, named by the factors along its parent chain, has the
        # norm and factor count of the enumeration's object and its lattice's basis
        field = make_field(D)
        primes, rows, factors = enumerate_prime_ideals(field, Y), {}, [()]
        for k, (parent, last, norm, a, b, c) in enumerate(squarefree_ideal_levels(field, Y)):
            if k:
                factors = [factors[j] + (primes[i],)
                           for j, i in zip(parent.tolist(), last.tolist())]
            rows.update(zip(factors, zip(norm.tolist(), itertools.repeat(k),
                                         zip(a.tolist(), b.tolist(), c.tolist()))))
        qs = enumerate_squarefree_ideals(field, Y)
        assert len(rows) == len(qs)
        for q in qs:
            lat = ideal_lattice(q)
            assert rows[q.factors] == (q.norm, len(q.factors), (lat.a, lat.b, lat.c))

    def test_enumeration_counts(self):
        assert len(enumerate_squarefree_ideals(Qi, 4)) == 2
        assert len(enumerate_squarefree_ideals(Qi, 10)) == 7
        assert len(enumerate_squarefree_ideals(Qi, 1)) == 1
        # no ideal has norm below 1, not even the unit ideal
        assert enumerate_squarefree_ideals(Qi, 0) == []
        assert enumerate_squarefree_ideals(Qi, -5) == []

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError, match="SquarefreeIdeal.unit"):
            SquarefreeIdeal.product([])

    def test_mu_phi_norm(self):
        for q in enumerate_squarefree_ideals(Qi, 100):
            assert q.mu == (-1) ** len(q.factors)
            assert q.phi == math.prod(f.norm - 1 for f in q.factors)
            assert q.norm == math.prod(f.norm for f in q.factors)

    def test_multiplicativity_disjoint_supports(self):
        ideals = enumerate_squarefree_ideals(make_field(2), 60)
        by_support = [(q, {f.sort_key() for f in q.factors}) for q in ideals]
        for q1, s1 in by_support[:25]:
            for q2, s2 in by_support[:25]:
                if s1 and s2 and not (s1 & s2):
                    prod = SquarefreeIdeal.product(q1.factors + q2.factors)
                    assert prod.norm == q1.norm * q2.norm
                    assert prod.mu == q1.mu * q2.mu
                    assert prod.phi == q1.phi * q2.phi


class TestRamanujan:
    def test_unit_ideal(self):
        unit = SquarefreeIdeal.unit(Qi)
        assert ramanujan_sum(unit, Qi.element(7, 3)) == 1

    def test_at_zero_gives_phi(self):
        for q in enumerate_squarefree_ideals(Qi, 60):
            assert ramanujan_sum(q, Qi.zero()) == q.phi

    def test_norm2_at_unit(self):
        [q2] = [q for q in enumerate_squarefree_ideals(Qi, 2) if q.norm == 2]
        assert ramanujan_sum(q2, Qi.one()) == -1

    def test_multiplicative_in_ideal(self):
        eta = Qi.element(3, 1)
        for q in enumerate_squarefree_ideals(Qi, 80):
            expect = math.prod(
                ramanujan_sum(SquarefreeIdeal(Qi, (f,)), eta) for f in q.factors
            )
            assert ramanujan_sum(q, eta) == expect

    def test_condensation_small(self):
        for c in enumerate_squarefree_ideals(Qi, 40):
            for k1 in range(-4, 5):
                for k2 in range(-4, 5):
                    eta = Qi.element(k1, k2)
                    want = c.norm if c.contains(eta) else 0
                    assert condensation_sum(c, eta) == want


def half_listing(bases, radius, budget=None, quadrant=False):
    """The concatenated (i, k1, k2) chunks of `lattice_half_points`."""
    return [(i, k1, k2)
            for chunk in lattice_half_points(bases, radius, budget, quadrant=quadrant)
            for i, k1, k2 in zip(*(c.tolist() for c in chunk))]


def box_points(lat, radius):
    """Every point of the ideal lattice with sup-norm <= radius."""
    half = [(k1, k2) for _, k1, k2 in half_listing([lat.a, 0, lat.b, lat.c], radius)]
    return {(0, 0), *half, *((-k1, -k2) for k1, k2 in half)}


def brute_half(bases, radius, quadrant=False):
    """One point of each +-pair of each lattice in the box, or with
    `quadrant` every nonzero point in [0, radius]^2, by testing every point's
    coefficients (Cramer's rule), in (basis, v, u) order."""
    out = []
    low = 0 if quadrant else -radius
    for i, (x1, y1, x2, y2) in enumerate(zip(*bases)):
        det = x1 * y2 - y1 * x2
        pts = []
        for k1 in range(low, radius + 1):
            for k2 in range(low, radius + 1):
                u, ru = divmod(k1 * y2 - k2 * x2, det)
                v, rv = divmod(x1 * k2 - y1 * k1, det)
                if ru == rv == 0 and (v > 0 or (v == 0 and u > 0)
                                      or quadrant and (u, v) != (0, 0)):
                    pts.append((v, u, k1, k2))
        out += [(i, k1, k2) for _, _, k1, k2 in sorted(pts)]
    return out


@st.composite
def lattice_bases(draw):
    """Rows x1, y1, x2, y2 of 1-3 small bases: HNF, reduced, with a zero
    component (inert (p, 0), (0, p) or a dual (0, a), (c, -b)), or any."""
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["hnf", "reduced", "inert", "dual", "any"]))
        if kind == "inert":
            p = draw(st.sampled_from([2, 3, 7, 11]))
            cols.append((p, 0, 0, p))
        elif kind in ("hnf", "dual"):
            a, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
            b = draw(st.integers(0, a - 1))
            cols.append((a, 0, b, c) if kind == "hnf" else (0, a, c, -b))
        elif kind == "reduced":
            p = draw(st.sampled_from([3, 5, 13, 17, 29, 37, 41]))
            root = np.array([draw(st.integers(0, p - 1))])
            cols.append(tuple(_reduced_bases(np.array([p]), root)[:, 0].tolist()))
        else:
            x1, y1, x2, y2 = (draw(st.integers(-9, 9)) for _ in range(4))
            assume(x1 * y2 != y1 * x2)
            cols.append((x1, y1, x2, y2))
    return [list(row) for row in zip(*cols)]


class TestLatticeHalfPoints:
    @settings(max_examples=150, deadline=None)
    @given(bases=lattice_bases(), radius=st.integers(0, 30))
    @example(bases=[[3], [0], [0], [3]], radius=12)
    @example(bases=[[0], [5], [1], [-2]], radius=5)
    def test_matches_brute_force(self, bases, radius):
        assert half_listing(bases, radius) == brute_half(bases, radius)

    @settings(max_examples=150, deadline=None)
    @given(bases=lattice_bases(), radius=st.integers(0, 30))
    @example(bases=[[3], [0], [0], [3]], radius=12)
    @example(bases=[[0], [5], [1], [-2]], radius=5)
    @example(bases=[[-2], [-1], [1], [-3]], radius=9)  # b1 points out of the quadrant
    def test_quadrant_matches_brute_force(self, bases, radius):
        assert half_listing(bases, radius, quadrant=True) == brute_half(bases, radius, True)

    @settings(max_examples=60, deadline=None)
    @given(bases=lattice_bases(), radius=st.integers(0, 30))
    def test_quadrant_walks_no_more_rows_than_the_half_box(self, bases, radius):
        def rows(quadrant):
            # a walk's first `_ranges` call is over its lattices' row counts
            counts = []

            def counted(count, ranges=ideals._ranges):
                counts.append(count)
                return ranges(count)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ideals, "_ranges", counted)
                list(lattice_half_points(bases, radius, quadrant=quadrant))
            return counts[0]

        assert (rows(True) <= rows(False)).all()

    @settings(max_examples=30, deadline=None)
    @given(bases=lattice_bases(), radius=st.integers(0, 30),
           quadrant=st.booleans())
    def test_chunk_size_does_not_change_listing(self, bases, radius, quadrant):
        want = half_listing(bases, radius, quadrant=quadrant)
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (1, 7):
                mp.setattr(ideals, "_CHUNK", chunk)
                assert half_listing(bases, radius, quadrant=quadrant) == want


class TestRanges:
    @settings(max_examples=60, deadline=None)
    @given(count=st.lists(st.integers(0, 12), max_size=30), chunk=st.sampled_from([1, 3, 7]))
    @example(count=[0, 0, 5, 0, 0, 9, 0, 0], chunk=3)
    @example(count=[], chunk=1)
    @example(count=[0, 0], chunk=7)
    def test_chunks_concatenate_to_the_flat_walk(self, count, chunk):
        count = np.array(count, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ideals, "_CHUNK", chunk)
            chunks = list(ideals._ranges(count))
        assert all(0 < row.size <= chunk and row.size == k.size and row.dtype == k.dtype == np.int64
                   for row, k in chunks)
        rows = np.concatenate([np.empty(0, np.int64)] + [row for row, _ in chunks])
        ks = np.concatenate([np.empty(0, np.int64)] + [k for _, k in chunks])
        want = np.repeat(np.arange(count.size), count)
        assert rows.tolist() == want.tolist()
        assert ks.tolist() == (np.arange(want.size) - (np.cumsum(count) - count)[want]).tolist()


class TestIdealLattice:
    def test_unit_ideal_identity(self):
        assert ideal_lattice(SquarefreeIdeal.unit(Qi)) == IdealLattice(1, 0, 1)

    def test_inert_is_scaled(self):
        [p3] = split_prime(3, Qi)
        lat = ideal_lattice(SquarefreeIdeal(Qi, (p3,)))
        assert (lat.a, lat.b, lat.c) == (3, 0, 3)

    def test_split_five(self):
        pi = next(p for p in split_prime(5, Qi) if p.root == 2)
        lat = ideal_lattice(SquarefreeIdeal(Qi, (pi,)))
        assert lat == IdealLattice(5, 3, 1)  # b = -root * c mod 5
        points = box_points(lat, 5)
        # (-2, 1) solves k1 + 2 k2 = 0 mod 5
        assert (-2, 1) in points
        assert (5, 0) in points
        assert (1, 0) not in points

    @pytest.mark.parametrize("D", [-1, -3, 5, 10, 17])
    def test_matches_brute_force_hnf(self, D):
        # the HNF is unique: a is the least k1 > 0 with (k1, 0) in q, c the
        # least k2 > 0 occurring in q, and b the k1 in [0, a) with (b, c) in q
        field = make_field(D)
        full_split = 0
        for q in enumerate_squarefree_ideals(field, 300):
            def inside(k1, k2):
                return q.contains(field.element(k1, k2))

            a = next(k for k in itertools.count(1) if inside(k, 0))
            c = next(k for k in itertools.count(1) if any(inside(k1, k) for k1 in range(a)))
            b = next(k1 for k1 in range(a) if inside(k1, c))
            assert ideal_lattice(q) == IdealLattice(a, b, c)
            ps = [f.p for f in q.factors]
            full_split += any(ps.count(p) == 2 for p in ps)
        assert full_split  # some q holds both ideals above a split prime

    def test_repeated_factor_raises(self):
        [p3] = split_prime(3, Qi)
        p5 = split_prime(5, Qi)[0]
        for factors in ((p3, p3), (p5, p5)):
            with pytest.raises(ValueError):
                ideal_lattice(SquarefreeIdeal(Qi, factors))

    def test_det_equals_norm_and_membership(self):
        for field in (Qi, make_field(-3), make_field(2), make_field(5)):
            for q in enumerate_squarefree_ideals(field, 120):
                lat = ideal_lattice(q)
                assert lat.det == q.norm
                for (k1, k2) in box_points(lat, 12):
                    assert q.contains(field.element(k1, k2))

    def test_lattice_point_count_matches_index(self):
        # density of the sublattice is 1/N in a large box
        for q in enumerate_squarefree_ideals(Qi, 30):
            pts = len(box_points(ideal_lattice(q), 60))
            expect = 121**2 / q.norm
            assert abs(pts - expect) <= 4 * 121 / min(
                ideal_lattice(q).a, ideal_lattice(q).c
            ) + 4


def brute_dual_count(lat, r):
    """Nonzero vectors (c z1, a z2 - b z1) / det of length <= r, with r*det
    rounded once as a float, in exact rationals over a box of z that holds
    them all."""
    a, b, c, det = lat.a, lat.b, lat.c, lat.det
    r = Fraction(r * det) / det
    count = 0
    for z1 in range(-math.floor(r * a), math.floor(r * a) + 1):
        mid = Fraction(b * z1, a)
        for z2 in range(math.floor(mid - r * c) - 1, math.ceil(mid + r * c) + 2):
            y1, y2 = Fraction(c * z1, det), Fraction(a * z2 - b * z1, det)
            count += (z1, z2) != (0, 0) and y1 * y1 + y2 * y2 <= r * r
    return count


class TestDualLattice:
    def test_identity_lattice(self):
        ident = IdealLattice(1, 0, 1)
        assert dual_lattice_count(ident, 0.5) == 0
        assert dual_lattice_count(ident, 1.0) == 4

    def test_inert_three(self):
        lat = IdealLattice(3, 0, 3)
        assert dual_lattice_count(lat, 1 / 3) == 4

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            dual_lattice_count(IdealLattice(1, 0, 1), 1e6)

    @pytest.mark.parametrize("r", [0, 0.0, -1.0, -math.inf, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, r):
        with pytest.raises(UsageError, match="finite number > 0"):
            dual_lattice_count(IdealLattice(1, 0, 1), r)

    def test_zero_for_small_radius(self):
        for q in enumerate_squarefree_ideals(Qi, 100):
            if q.norm == 1:
                continue
            lat = ideal_lattice(q)
            r = 0.2 / math.sqrt(q.norm)
            assert dual_lattice_count(lat, r) == 0

    @settings(max_examples=150, deadline=None)
    @given(a=st.integers(1, 40), c=st.integers(1, 12), b=st.integers(0, 39),
           r=st.sampled_from([0.2, 0.5, 1.0, 2.0, 1 / 3, 0.75]) | st.floats(0.01, 3.0))
    @example(a=5, c=1, b=2, r=1.0)  # y = (0.8, -0.6) lies on the circle
    def test_matches_exact_brute_force(self, a, c, b, r):
        lat = IdealLattice(a, b % a, c)
        assert dual_lattice_count(lat, r) == brute_dual_count(lat, r)


def scalar_smoothed_count(q, w, H):
    """A reference scalar walk over the whole box: rows k2 = c*s for s =
    -s_max .. s_max, each by ascending k1, each term added in turn."""
    lat = ideal_lattice(q)
    radius = math.floor(H * w.support_radius + 1e-12)
    total = 0.0
    for s in range(-(radius // lat.c), radius // lat.c + 1):
        base = lat.b * s
        t_lo, t_hi = math.ceil((-radius - base) / lat.a), math.floor((radius - base) / lat.a)
        for t in range(t_lo, t_hi + 1):
            total += w.eval((base + lat.a * t) / H, lat.c * s / H)
    return total


class TestSmoothedCounts:
    def test_large_norm_gives_w0(self):
        [p101a, _] = split_prime(101, Qi)
        q = SquarefreeIdeal(Qi, (p101a,))
        assert ideal_smoothed_count(q, SQUARE, 2.0) == SQUARE.value_at_zero

    def test_unit_ideal_riemann_limit(self):
        H = 200.0
        total = ideal_smoothed_count(SquarefreeIdeal.unit(Qi), SQUARE, H)
        assert total / H**2 == pytest.approx(SQUARE.fourier_at_zero, rel=1e-3)

    @pytest.mark.parametrize("kind", [Kind.SQUARE_AUTOCORR, Kind.DISC_AUTOCORR])
    @pytest.mark.parametrize("D", [-1, -3, 2, 5, -7, 10])
    def test_bit_identical_to_scalar_walk(self, kind, D, monkeypatch):
        w, field = TestFunction(kind), make_field(D)
        qs = enumerate_squarefree_ideals(field, 60)
        # all the ideals in one walk too, with three large inert ideals, whose
        # lattices hold no point in any box here, first, in the middle and last
        inert = [q for q in enumerate_squarefree_ideals(field, 10**4)
                 if len(q.factors) == 1 and q.factors[0].root is None][-3:]
        lats = [ideal_lattice(q) for q in inert[:1] + qs[:20] + inert[1:2] + qs[20:] + inert[2:]]
        bases = [[lat.a for lat in lats], [0] * len(lats), [lat.b for lat in lats],
                 [lat.c for lat in lats]]
        w0, default = float(w.eval(0.0, 0.0)).hex(), ideals._CHUNK
        # 2H = 5.999999999999999 lies just below an integer
        for H in (2.0, 2.9999999999999996, 3.7, 12.5, 20.0):
            want = [scalar_smoothed_count(q, w, H).hex() for q in qs]
            assert [ideal_smoothed_count(q, w, H).hex() for q in qs] == want
            want = [w0] + want[:20] + [w0] + want[20:] + [w0]
            # in the small boxes, chunks so short that the lattices straddle them
            for chunk in (1, 7, default) if H < 4 else (default,):
                monkeypatch.setattr(ideals, "_CHUNK", chunk)
                assert [s.hex() for s in smoothed_counts(bases, w, H)] == want

    @pytest.mark.parametrize("lat, radius, bound", [
        (IdealLattice(1, 0, 1), 3, 49),
        (IdealLattice(5, 3, 1), 12, 25 * 5),
        (IdealLattice(3, 0, 3), 12, 9 * 9),
        (IdealLattice(10, 7, 2), 9, 9 * 2),
    ])
    def test_walk_budget_bound(self, lat, radius, bound):
        # the half-lattice's exact point count is the least budget that
        # lists it; `bound`, the (2 (radius // c) + 1) (2 radius // a + 1)
        # candidates of a whole-box row walk, bounds the listing
        bases = [[lat.a], [0], [lat.b], [lat.c]]
        points = half_listing(bases, radius, len(brute_half(bases, radius)))
        assert 0 < len(points) <= bound
        with pytest.raises(BudgetError):
            next(lattice_half_points(bases, radius, len(points) - 1))

    def test_point_budget_stops_at_the_first_crossing_chunk(self, monkeypatch):
        # basis (1, 0), (0, 2) at radius 10: the 6 rows pass a budget of 8,
        # and the first row alone holds 10 points, so one row chunk decides
        chunks = []

        def counted(count, ranges=ideals._ranges):
            for chunk in ranges(count):
                chunks.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(ideals, "_CHUNK", 1)
        monkeypatch.setattr(ideals, "_ranges", counted)
        with pytest.raises(BudgetError, match="more than 8 lattice points"):
            next(lattice_half_points([1, 0, 0, 2], 10, 8))
        assert chunks == [1]

    def test_point_budget_lists_the_chunks_under_it(self, monkeypatch):
        # basis (1, 0), (0, 2) at radius 10 in row chunks of two: rows v = 0, 1
        # hold 10 + 21 points, under a budget of 40, and rows 2, 3 cross it,
        # so the first chunk's points are listed before the walk raises
        monkeypatch.setattr(ideals, "_CHUNK", 2)
        listed = []
        with pytest.raises(BudgetError, match="more than 40 lattice points"):
            for _, k1, k2 in lattice_half_points([1, 0, 0, 2], 10, 40):
                listed += zip(k1.tolist(), k2.tolist())
        assert listed == [(u, 0) for u in range(1, 11)] + [(u, 2) for u in range(-10, 11)]

    def test_point_budget_is_per_lattice(self, monkeypatch):
        # basis (1, 0), (0, 2) at radius 10 holds 10 + 5 * 21 = 115 points: two
        # copies walk under a budget of 120 that only their sum crosses; so do
        # two of (20, 0), (0, 1), with 11 rows, the first empty, under 12
        assert len(half_listing([[1, 1], [0, 0], [0, 0], [2, 2]], 10, 120)) == 230
        assert len(half_listing([[20, 20], [0, 0], [0, 0], [1, 1]], 10, 12)) == 20

        def listed(bases):
            out = []
            with pytest.raises(BudgetError, match="more than 40 lattice points"):
                for i, k1, k2 in lattice_half_points(bases, 10, 40):
                    out += zip(i.tolist(), k1.tolist(), k2.tolist())
            return out

        # one row a chunk: after the 24 points of basis (3, 0), (0, 3), the
        # second lattice raises at the row where it does alone
        monkeypatch.setattr(ideals, "_CHUNK", 1)
        alone, first = listed([1, 0, 0, 2]), half_listing([3, 0, 0, 3], 10)
        assert len(alone) == 31 and len(first) == 24
        both = listed([[3, 1], [0, 0], [0, 0], [3, 2]])
        assert both == first + [(1, k1, k2) for _, k1, k2 in alone]

    def test_walk_budget(self, monkeypatch):
        unit = SquarefreeIdeal.unit(Qi)
        with pytest.raises(BudgetError):
            next(lattice_half_points([1, 0, 0, 1], 10**5, LATTICE_POINT_BUDGET))
        with pytest.raises(BudgetError):
            ideal_smoothed_count(unit, SQUARE, 1e5)
        # a finite H whose support H * 2 overflows to inf
        with pytest.raises(BudgetError):
            ideal_smoothed_count(unit, SQUARE, 1e308)
        # both smoothed counts walk under the budget
        monkeypatch.setattr(ideals, "LATTICE_POINT_BUDGET", 100)
        with pytest.raises(BudgetError):
            ideal_smoothed_count(unit, SQUARE, 50.0)
        with pytest.raises(BudgetError):
            ideal_smoothed_count_scaled(unit, 50)

    @pytest.mark.parametrize("H", [0, -1, 2.0, 1.5, math.nan, "3"])
    def test_scaled_count_takes_an_int_h(self, H):
        unit = SquarefreeIdeal.unit(Qi)
        with pytest.raises(UsageError, match="int >= 1"):
            ideal_smoothed_count_scaled(unit, H)
        # (2 - |k1|)+ (2 - |k2|)+ summed over the box: 4^2
        assert ideal_smoothed_count_scaled(unit, 1) == 16
        assert ideal_smoothed_count_scaled(unit, np.int64(1)) == 16

    def test_moebius_inversion_matches_direct(self):
        # H^2 S_q from inversion vs the definition as a double sum over the
        # box, sum c_q(eta) (2H - |k1|)+ (2H - |k2|)+, in exact integers
        H = 8
        for q in enumerate_squarefree_ideals(Qi, 25):
            direct = 0
            for k1 in range(-2 * H, 2 * H + 1):
                for k2 in range(-2 * H, 2 * H + 1):
                    eta = Qi.element(k1, k2)
                    direct += ramanujan_sum(q, eta) * (2 * H - abs(k1)) * (2 * H - abs(k2))
            assert ramanujan_smoothed_sum_scaled(q, H) == direct


class TestSqrtMod:
    def test_array_roots_below_2000(self):
        # every residue of every prime below 2000, all lanes at once
        pairs = [(a, p) for p in primerange(2, 2000) for a in quadratic_residues(p)]
        a, p = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        r = _sqrt_mod_array(a, p)
        assert np.all((0 <= r) & (r < p)) and np.array_equal(r * r % p, a)

    # the number of split primes up to 10^6 and the sha256 of their roots
    # (int64, little-endian), recorded when z was found by Euler's criterion
    # over z = 2, 3, 4, ...: the least non-residue is prime, so the roots
    # are the same
    PINNED_ROOTS = {
        -4: (39175, "92c8a6ee0a72f060689e4ce34b92b9bd4e2276fa65922d708d1086916da3b6aa"),
        -3: (39231, "b101b3af878e54862ea07239a608b7bdfa029c00bfde2f672263397f5b76e6de"),
        40: (39223, "7c665a5280c5cc4be2947155743b9fae20921d5a0e327c15de86e0d859e913cd"),
        -100_003: (39079, "03bdc51f77b96ef1579bd4460088f154f05121daab010eb18008ea7fe2f6bb03"),
    }

    @pytest.mark.parametrize("d", sorted(PINNED_ROOTS))
    def test_roots_of_the_split_primes_pinned(self, d):
        p = np.flatnonzero(ideals._prime_sieve(10**6))
        p = p[ideals._kronecker_primes(d, p) == 1]
        a = d % p
        r = _sqrt_mod_array(a, p)
        assert np.array_equal(r * r % p, a)
        digest = hashlib.sha256(r.astype("<i8").tobytes()).hexdigest()
        assert (p.size, digest) == self.PINNED_ROOTS[d]


def test_one_prime_path():
    # rational primes come from the sieve, single numbers from miller_rabin
    # and their splitting from `_split_primes`; a sympy prime listing, test,
    # factorization or any other sympy import in the package would be a
    # second path; sympy and scipy are test dependencies only
    src = pathlib.Path(quadprimes.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        found = re.findall(r"\b(primerange|isprime|factorint)\b", text)
        assert not found, f"{path.name} uses {sorted(set(found))}"
        imports = re.findall(r"^\s*(?:from|import)\s+(?:sympy|scipy)\b.*$", text, re.M)
        assert not imports, f"{path.name} imports a test dependency: {imports}"


def cli_import_loads(package: str) -> str:
    """The modules of `package` that a fresh `import quadprimes.cli` loads."""
    src = str(pathlib.Path(quadprimes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys, quadprimes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.strip()


def test_cli_import_leaves_out_sympy():
    assert cli_import_loads("sympy") == "[]"


def test_cli_import_leaves_out_scipy():
    assert cli_import_loads("scipy") == "[]"
