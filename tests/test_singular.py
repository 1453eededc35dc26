import dataclasses
import functools
import importlib
import math
import tracemalloc
import weakref
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta as scipy_zeta
from sympy import factorint, primerange

from quadprimes.errors import BudgetError, UsageError
from quadprimes.fields import _is_squarefree, make_field
from quadprimes.ideals import PRIME_BUDGET, SplitType, _prime_sieve, enumerate_prime_ideals
from quadprimes.singular_series import (
    RESIDUE_TERM_BUDGET,
    SingularBox,
    _base_factor,
    _character_table,
    _exact_sum,
    _hurwitz_zeta,
    _member_ratio,
    _moments,
    _rational_euler_data,
    _sieve_box,
    _tail_bound,
    _unfold,
    mobius_phi_profile,
    montgomery_sum,
    residue_rk,
    sieved_singular_box,
    sieved_singular_rational,
    singular_series,
    singular_series_rational,
    singular_sum_smoothed,
    singular_sums_smoothed,
)
from quadprimes.smoothing import Kind, TestFunction

from oracles import kronecker

Qi = make_field(-1)
# the package namespace binds `singular_series` to the function
singular_series_module = importlib.import_module("quadprimes.singular_series")
ideals_module = importlib.import_module("quadprimes.ideals")
# the oracles below ask for the same prime ideals many times, and the
# package caches only their table, so the objects are kept here
prime_ideals = functools.cache(enumerate_prime_ideals)


def rational_reference(h: int, cutoff: int) -> float:
    """S(h) with sympy's prime listing and factorization, in the
    multiplication order of `singular_series_rational`."""
    base = 1.0
    for p in primerange(3, cutoff + 1):
        base *= _base_factor(p)
    value = base * (2.0 if h % 2 == 0 else 0.0)
    if value != 0.0:
        for p in sorted(factorint(abs(h))):
            if p != 2 and p <= cutoff:
                value *= _member_ratio(p)
    return value


def containing(eta, ideals):
    """The ideals (PrimeIdeal objects, in their order) that contain eta."""
    n = eta.norm()
    return [pi for pi in ideals if n % pi.p == 0 and pi.contains(eta)]


def ideal_reference(eta, cutoff: int) -> float:
    """S(eta) one PrimeIdeal object at a time, in the multiplication order of
    `singular_series`: the base product by a Python loop, the norm-2
    factors, then the ratio of every other ideal containing eta."""
    ideals = prime_ideals(eta.field, cutoff)
    value = python_base_product(eta.field, cutoff)
    for pi in ideals:
        if pi.norm == 2:
            value *= 2.0 if pi.contains(eta) else 0.0
    if value != 0.0:
        for pi in containing(eta, ideals):
            if pi.norm >= 3:
                value *= _member_ratio(pi.norm)
    return value


@functools.lru_cache(maxsize=None)
def python_base_product(field, cutoff: int) -> float:
    base = 1.0
    for pi in prime_ideals(field, cutoff):
        if pi.norm >= 3:
            base *= _base_factor(pi.norm)
    return base


def phi_inverse_dfs(norms: list[int], max_norm: int) -> float:
    """Sum of 1/phi over squarefree products of the ascending prime-ideal
    norms, by a recursive walk up to max_norm alone."""
    total = [0.0]

    def extend(start: int, inv_phi: float, norm: int):
        total[0] += inv_phi
        for i in range(start, len(norms)):
            n2 = norm * norms[i]
            if n2 > max_norm:
                break
            extend(i + 1, inv_phi / (norms[i] - 1), n2)

    extend(0, 1.0, 1)
    return total[0]


def residue_tail(chi: list[int], blocks: int) -> float:
    """The moment tail of `residue_rk`, from Python-int moments and the
    package's Hurwitz zeta values (checked on their own in TestHurwitzZeta)."""
    q = len(chi)
    tail = 0.0
    for k in range(1, 19):
        m_k = sum(chi[r % q] * r**k for r in range(1, q))
        tail += (-1) ** k * (m_k / q ** (k + 1)) * _hurwitz_zeta(k + 1, blocks)
    return tail


def full_range_moments(chi: np.ndarray, kmax: int) -> list[int]:
    """sum_{0<r<q} chi(r) r^k for k = 1..kmax over object arrays of Python
    ints, every residue r summed directly."""
    q = len(chi)
    moments = [0] * kmax
    for lo in range(1, q, 1 << 15):
        r = np.arange(lo, min(lo + (1 << 15), q))
        power = chi[r].astype(object)
        r = r.astype(object)
        for k in range(kmax):
            np.multiply(power, r, out=power)
            moments[k] += int(power.sum())
    return moments


def residue_reference(D: int, blocks: int) -> tuple[float, float]:
    """(value, error_bound) of `residue_rk` by the pure-Python recipe:
    math.fsum over the character-sum terms, then the moment tail."""
    d = make_field(D).discriminant
    q = abs(d)
    chi = [kronecker(d, r) for r in range(q)]
    direct = math.fsum(chi[n % q] / n for n in range(1, blocks * q) if chi[n % q])
    remainder = 2.0 * blocks ** (-19) * (1.0 + blocks / 18)
    rounding = 4.0e-16 * (1.0 + math.log(max(blocks * q, 2)))
    return direct + residue_tail(chi, blocks), remainder + rounding


# squarefree D whose field discriminant has |d| <= 3000, by |d|
FIELDS_TO_3000 = sorted(
    (D for D in range(-3000, 3001)
     if D not in (0, 1) and _is_squarefree(D) and abs(make_field(D).discriminant) <= 3000),
    key=lambda D: abs(make_field(D).discriminant),
)

# class-number-formula oracles (independent of the L-series code path)
RESIDUE_ORACLES = {
    -1: math.pi / 4,
    -3: math.pi / (3 * math.sqrt(3)),
    2: math.log(1 + math.sqrt(2)) / math.sqrt(2),
}


class TestResidue:
    @pytest.mark.parametrize("D,want", sorted(RESIDUE_ORACLES.items()))
    def test_oracle_match(self, D, want):
        res = residue_rk(make_field(D), 1e-6)
        assert abs(res.value - want) < 1e-5
        assert res.error_bound <= 1e-6

    def test_error_bound_decreases_with_blocks(self):
        F = make_field(-7)
        b1 = residue_rk(F, 1e-3, blocks=4).error_bound
        b2 = residue_rk(F, 1e-3, blocks=64).error_bound
        assert 0 < b2 <= b1

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            residue_rk(Qi, 0.0)
        with pytest.raises(BudgetError):
            residue_rk(Qi, 1e-18)

    def test_positive_for_real_and_imaginary(self):
        for D in (-5, -7, 3, 10, 13):
            assert residue_rk(make_field(D), 1e-8).value > 0

    def test_term_budget(self):
        # |d| = 1000003 needs (128 + 18) * |d| terms, over the budget
        assert (128 + 18) * 1_000_003 > RESIDUE_TERM_BUDGET
        with pytest.raises(BudgetError):
            residue_rk(make_field(-1_000_003), 1e-8)
        with pytest.raises(BudgetError):
            residue_rk(make_field(-100_000_007), 1e-8, blocks=1)
        # |d| = 100003, the largest residue the benchmark computes, stays inside it
        assert (128 + 18) * 100_003 <= RESIDUE_TERM_BUDGET

    def test_budgets_checked_before_summing(self, monkeypatch):
        def summed(d):
            pytest.fail("character table built before the budget checks")

        monkeypatch.setattr(singular_series_module, "_character_table", summed)
        for D, tol in ((-100_003, 1e-18), (-1_000_003, 1e-8)):
            with pytest.raises(BudgetError):
                residue_rk(make_field(D), tol)

    @settings(max_examples=40, deadline=None)
    @given(D=st.sampled_from(FIELDS_TO_3000), blocks=st.sampled_from([1, 4, 128]))
    @example(D=-1, blocks=128)
    @example(D=2, blocks=4)
    @example(D=-743, blocks=1)
    @example(D=-749, blocks=128)  # d = -2996
    @example(D=746, blocks=128)  # d = 2984
    @example(D=2993, blocks=128)
    def test_bit_identical_to_fsum_recipe(self, D, blocks):
        res = residue_rk(make_field(D), math.inf, blocks)
        assert (res.value, res.error_bound) == residue_reference(D, blocks)

    @pytest.mark.parametrize("D", [-100_003, -3, 10, -1, 2])
    def test_equals_scipy_zeta_recipe(self, D):
        # the residues the benchmark and the acceptance tests read are those
        # of the moment tail with scipy's Hurwitz zeta, bit for bit
        d = make_field(D).discriminant
        q = abs(d)
        chi = _character_table(d)
        tail = 0.0
        for k, m_k in enumerate(_moments(chi, 18), start=1):
            tail += (-1) ** k * (m_k / q ** (k + 1)) * float(scipy_zeta(k + 1, 128))
        assert residue_rk(make_field(D), 1e-8).value == _exact_sum(chi, 128 * q) + tail

    @pytest.mark.parametrize("blocks", [-3, 0, 2.5])
    def test_blocks_must_be_a_positive_int(self, blocks):
        with pytest.raises(UsageError, match="blocks"):
            residue_rk(Qi, math.inf, blocks)

    def test_pinned_large_discriminant(self):
        res = residue_rk(make_field(-100_003), 1e-8)
        assert res.value == 0.3874431307626732
        assert res.error_bound == 6.945994291375942e-15

    @pytest.mark.parametrize("D", [-7, 10, -1003])
    def test_chunk_size_does_not_change_values(self, D, monkeypatch):
        # residue_rk is cached: clear it so every chunk size is summed afresh
        residue_rk.cache_clear()
        want = residue_rk(make_field(D), 1e-8)
        for chunk in (7, 1 << 20):
            monkeypatch.setattr(singular_series_module, "_RESIDUE_CHUNK", chunk)
            residue_rk.cache_clear()
            assert residue_rk(make_field(D), 1e-8) == want
        residue_rk.cache_clear()

    @pytest.mark.parametrize("D", [-1, -3, 2, -7, 10, -1003])
    @pytest.mark.parametrize("chunk", [7, 1 << 15])
    def test_exact_sum_equals_fsum(self, D, chunk, monkeypatch):
        # stops below one period, inside a period and at whole periods, with
        # chunks shorter and longer than the period
        monkeypatch.setattr(singular_series_module, "_RESIDUE_CHUNK", chunk)
        d = make_field(D).discriminant
        q = abs(d)
        chi = _character_table(d)
        for stop in (1, 2, q - 1, q, q + 1, 3 * q + q // 2, 5 * q, 40 * q + 3):
            want = math.fsum(int(chi[n % q]) / n for n in range(1, stop))
            assert _exact_sum(chi, stop) == want

    def test_exact_at_the_term_budget(self):
        # the most terms the budget admits, with the smallest period: the
        # int64 limb sums of a chunk must not overflow
        q, blocks = 3, RESIDUE_TERM_BUDGET // 3 - 18
        chi = [kronecker(-3, r) for r in range(q)]
        table = np.array(chi, dtype=np.int64)

        def terms():
            for lo in range(1, blocks * q, 1 << 20):
                n = np.arange(lo, min(lo + (1 << 20), blocks * q))
                yield from (table[n % q] / n).tolist()

        want = math.fsum(terms()) + residue_tail(chi, blocks)
        assert residue_rk(make_field(-3), 1e-8, blocks).value == want

    def test_moments_equal_direct_sums(self):
        # every fundamental d with |d| <= 400, both signs, odd and even q: the
        # half-range moments and their reflection give the full sums exactly
        for D in FIELDS_TO_3000:
            d = make_field(D).discriminant
            q = abs(d)
            if q > 400:
                break
            chi = [kronecker(d, r) for r in range(q)]
            want = [sum(chi[r] * r**k for r in range(1, q)) for k in range(1, 19)]
            assert _moments(_character_table(d), 18) == want, d

    @pytest.mark.parametrize("D", [-100_003, 10])  # d = -100003 and d = 40
    def test_moments_equal_full_range_loop(self, D):
        chi = _character_table(make_field(D).discriminant)
        assert _moments(chi, 18) == full_range_moments(chi, 18)

    # the largest |d| the term budget admits at 128 blocks, 136986: odd and
    # even q, for chi(-1) = +1 (d > 0) and chi(-1) = -1 (d < 0)
    @pytest.mark.parametrize("D", [136_985, -136_983, 34_246, -34_246])
    def test_limb_moments_at_the_largest_period(self, D):
        d = make_field(D).discriminant
        assert 136_983 <= abs(d) and (128 + 18) * abs(d) <= RESIDUE_TERM_BUDGET
        assert (128 + 18) * 136_987 > RESIDUE_TERM_BUDGET
        chi = _character_table(d)
        assert chi[-1] == (1 if d > 0 else -1)
        assert _moments(chi, 18) == full_range_moments(chi, 18)

    def test_character_table_matches_kronecker(self):
        for D in FIELDS_TO_3000:
            d = make_field(D).discriminant
            if abs(d) > 2000:
                break
            assert _character_table(d).tolist() == [kronecker(d, r) for r in range(abs(d))]


HURWITZ_SHIFTS = [*range(1, 41), 64, 127, 128, 129, 1000, 10**4]


class TestHurwitzZeta:
    @pytest.mark.parametrize("s", range(2, 20))
    def test_matches_mpmath(self, s):
        with mpmath.workdps(80):
            for a in HURWITZ_SHIFTS:
                want = mpmath.zeta(s, a)
                assert float(abs((_hurwitz_zeta(s, a) - want) / want)) <= 4e-16, a

    @pytest.mark.parametrize("s", range(2, 20))
    def test_matches_scipy(self, s):
        for a in HURWITZ_SHIFTS:
            want = float(scipy_zeta(s, a))
            assert _hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-15, abs=0), a


class TestSingularSeries:
    def test_parity_obstruction_vanishes(self):
        assert singular_series(Qi.one(), 1000).value == 0.0

    def test_member_of_norm2_positive(self):
        val = singular_series(Qi.element(1, 1), 1000)
        assert val.value > 0
        # leading factor is 2, remaining factors are each within (0, 9/8]
        assert 1.0 < val.value < 3.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            singular_series(Qi.zero(), 100)

    def test_two_cutoffs_agree_within_tail(self):
        eta = Qi.element(1, 1)
        v1 = singular_series(eta, 10**4)
        v2 = singular_series(eta, 10**5)
        assert abs(v1.value - v2.value) <= v1.tail_bound * v1.value

    def test_symmetries(self):
        P = 500
        for (a, b) in [(1, 1), (2, 1), (3, 2), (0, 3), (4, 1)]:
            eta = Qi.element(a, b)
            v = singular_series(eta, P).value
            assert singular_series(-eta, P).value == v
            assert singular_series(eta.conjugate(), P).value == v

    def test_shift_beyond_int64(self):
        # the member test reduces k1, k2 modulo every p; 2^70 needs Python
        # ints.  Both coordinates are even, so neither norm-2 ideal of
        # Q(sqrt -7) zeroes the value before the member test runs.
        F = make_field(-7)
        for k1, k2 in [(3 * 2**70, 6), (6, -3 * 2**70), (15 * 2**70, 2 * 3 * 5 * 7 * 11 * 13)]:
            eta = F.element(k1, k2)
            assert any(pi.p > 2 for pi in containing(eta, prime_ideals(F, 5000)))
            got = singular_series(eta, 5000).value
            assert got > 0 and got == ideal_reference(eta, 5000)

    def test_euler_data_matches_python_loops(self):
        # the sequential products and the ratios at 10^6, against loops over
        # the PrimeIdeal objects and the rational primes
        data = singular_series_module._euler_data(Qi, 10**6)
        ideals = [pi for pi in prime_ideals(Qi, 10**6) if pi.norm >= 3]
        assert data.base == python_base_product(Qi, 10**6)
        assert data.ratio_array.tolist() == [_member_ratio(pi.norm) for pi in ideals]
        base = 1.0
        for p in primerange(3, 10**6 + 1):
            base *= _base_factor(p)
        assert _rational_euler_data(10**6).base == base

    def test_base_factors_match_python_floats(self):
        # numpy squares by x*x and Python by pow(x, 2); they differ at some
        # N (795 is the first) but at no prime and no prime square within
        # the budget, which are all the norms a prime ideal can have
        p = np.flatnonzero(_prime_sieve(PRIME_BUDGET))[1:]
        norms = np.concatenate([p, (p * p)[p * p <= PRIME_BUDGET]])
        want = np.array([_base_factor(n) for n in norms.tolist()])
        assert np.array_equal(_base_factor(norms), want)
        assert _base_factor(np.array([795])) != _base_factor(795)

    def test_unit_multiple_invariant(self):
        P = 300
        i = Qi.element(0, 1)
        for (a, b) in [(1, 1), (2, 1), (3, 0)]:
            eta = Qi.element(a, b)
            assert singular_series(eta * i, P).value == singular_series(eta, P).value


class TestRational:
    def test_odd_shift_vanishes(self):
        assert singular_series_rational(1, 100).value == 0.0
        assert singular_series_rational(7, 100).value == 0.0

    def test_twin_prime_constant(self):
        # S(2) = 2 * prod_{p>2} (1 - 1/(p-1)^2) = 2 * C2
        v = singular_series_rational(2, 10**6)
        assert v.value == pytest.approx(2 * 0.6601618158468696, abs=1e-5)

    def test_six_over_two_ratio(self):
        P = 10**5
        s2 = singular_series_rational(2, P).value
        s6 = singular_series_rational(6, P).value
        assert s6 / s2 == pytest.approx(2.0, rel=1e-12)  # (3-1)/(3-2)

    def test_sieve_matches_pointwise_exactly(self):
        vals = sieved_singular_rational(1000, 10**4)
        for h in range(1, 1001):
            assert vals[h] == singular_series_rational(h, 10**4).value

    @pytest.mark.parametrize("run", [7, 1 << 18])
    def test_sieve_matches_pointwise_at_every_cutoff(self, run, monkeypatch):
        # cutoffs below, at and above the smallest primes and below hmax; the
        # chunks cut the ascending (multiple, ratio) list anywhere
        monkeypatch.setattr(ideals_module, "_CHUNK", run)
        for cutoff in (2, 3, 100, 10**4):
            vals = sieved_singular_rational(2000, cutoff)
            assert math.isnan(vals[0])
            assert vals[1:].tolist() == [singular_series_rational(h, cutoff).value
                                         for h in range(1, 2001)]

    def test_returned_array_is_not_shared(self):
        v = sieved_singular_rational(100, 1000)
        first = v.copy()
        v[5] = v[6] = 7.0
        assert np.array_equal(sieved_singular_rational(100, 1000), first, equal_nan=True)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            singular_series_rational(0, 100)
        with pytest.raises(ValueError, match="hmax must be at least 1"):
            sieved_singular_rational(0, 100)

    @pytest.mark.parametrize("P", [2, 3, 100, 10**4])
    def test_euler_primes_from_sieve(self, P):
        # Z's record: 2Z and the (p) of norm p, all of root 0, and no bases
        data = _rational_euler_data(P)
        assert data.p.tolist() == list(primerange(3, P + 1))
        assert data.norm2_roots == (0,) and data.bases is None
        assert np.array_equal(data.norm, data.p) and not data.root.any()
        assert data.ratio_array.tolist() == [_member_ratio(p) for p in data.p.tolist()]
        assert not any(a.flags.writeable for a in (data.p, data.root, data.ratio_array))

    def test_euler_data_bounds(self):
        with pytest.raises(UsageError):
            _rational_euler_data(1)
        with pytest.raises(BudgetError):
            _rational_euler_data(PRIME_BUDGET + 1)

    def test_shift_budget(self, monkeypatch):
        def no_euler_data(cutoff):
            pytest.fail("Euler data built before the shift budget check")

        monkeypatch.setattr(singular_series_module, "_rational_euler_data", no_euler_data)
        for call in (sieved_singular_rational, montgomery_sum):
            with pytest.raises(BudgetError):
                call(PRIME_BUDGET + 1)

    @pytest.mark.parametrize("P", [3, 100, 10**4])
    def test_beyond_int64_matches_reference(self, P):
        # the member test reduces h modulo every p; these need Python ints
        for h in (2**80 * 15, -(2**70 + 2)):
            assert singular_series_rational(h, P).value == rational_reference(h, P), h

    @pytest.mark.parametrize("P", [3, 100, 10**4])
    def test_matches_factorization_reference(self, P):
        large = [10**12, 2**40 * 3, 2 * 999_983, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23,
                 -2 * 7919 * 104_729]
        for h in [*range(-2000, 0), *range(1, 2001), *large]:
            assert singular_series_rational(h, P).value == rational_reference(h, P), h


def fresh_box(field, radius: int, cutoff: int) -> SingularBox:
    """The box unfolded from a region sieved for it, past the cache."""
    W = 2 * radius + 1
    values = _unfold(_sieve_box(field, radius, cutoff), radius, np.empty((W, W)))
    return SingularBox(field, radius, cutoff, _tail_bound(cutoff), values)


def assert_pointwise(box: SingularBox):
    """Every entry of the box is `singular_series` at its point, bit for bit."""
    F, r, P = box.field, box.radius, box.cutoff
    for k1 in range(-r, r + 1):
        for k2 in range(-r, r + 1):
            if (k1, k2) != (0, 0):
                assert box.value_at(k1, k2).value == singular_series(
                    F.element(k1, k2), P).value, (k1, k2)
    assert np.isnan(box.values[r, r]) and np.isnan(box.values).sum() == 1


class TestSievedBox:
    # the quadrant is sieved for D = 2, 3 (mod 4), the rows k1 >= 0 otherwise
    @settings(max_examples=6, deadline=None)
    @given(r=st.integers(3, 60))
    @example(r=1)
    @example(r=2)
    @pytest.mark.parametrize("D", [-1, 2, 3, -5, 10, -3, -7, 5, 17])
    def test_unfolded_region_matches_pointwise(self, D, r):
        assert_pointwise(fresh_box(make_field(D), r, 3000))

    @pytest.mark.parametrize("D", [-1, 10, -3])
    @pytest.mark.parametrize("R", [1, 2, 37])
    def test_cache_holds_the_region(self, D, R):
        # for D = -1 a quadrant of 8 (R+1)^2 bytes; full boxes are unfolded
        F = make_field(D)
        singular_series_module._largest_box = None
        box = sieved_singular_box(F, R, 1000)
        values = singular_series_module._largest_box[2]
        width = 2 * R + 1 if F.half else R + 1
        assert values.shape == (R + 1, width) and values.nbytes == 8 * (R + 1) * width
        assert box.values.shape == (2 * R + 1, 2 * R + 1)

    def test_matches_pointwise_exactly(self):
        box = sieved_singular_box(Qi, 10, 1000)
        for k1 in range(-10, 11):
            for k2 in range(-10, 11):
                if (k1, k2) == (0, 0):
                    continue
                assert box.value_at(k1, k2).value == singular_series(
                    Qi.element(k1, k2), 1000
                ).value

    def test_matches_in_half_basis_field(self):
        F = make_field(-3)
        box = sieved_singular_box(F, 8, 500)
        for k1 in range(-8, 9):
            for k2 in range(-8, 9):
                if (k1, k2) == (0, 0):
                    continue
                assert box.value_at(k1, k2).value == singular_series(
                    F.element(k1, k2), 500
                ).value

    @pytest.mark.parametrize("D", [-7, 17, 10, -5, 2, 5])
    def test_matches_pointwise_across_splitting(self, D):
        # 2 splits for D = -7 and 17; 2 and 5 ramify for D = 10 and D = -5;
        # 2 ramifies for D = 2 and is inert for D = 5 (real fields).
        # With 81 columns and cutoff 5000 the box meets split or ramified
        # ideals with p > 81 and inert ideals with p <= 81 < p^2.
        F, r, P = make_field(D), 40, 5000
        W = 2 * r + 1
        ideals = prime_ideals(F, P)
        assert any(pi.split_type is not SplitType.INERT and pi.p > W for pi in ideals)
        assert any(pi.split_type is SplitType.INERT and pi.p <= W < pi.p**2 for pi in ideals)
        box = sieved_singular_box(F, r, P)
        for k1 in range(-r, r + 1):
            for k2 in range(-r, r + 1):
                if (k1, k2) == (0, 0):
                    continue
                assert box.value_at(k1, k2).value == singular_series(
                    F.element(k1, k2), P
                ).value, (k1, k2)

    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(-60, 60).filter(lambda D: D not in (0, 1) and _is_squarefree(D)),
           r=st.integers(1, 60), P=st.integers(100, 20_000))
    @example(D=-7, r=60, P=20_000)  # 2 splits; half basis
    @example(D=17, r=47, P=5000)  # real, 2 splits
    @example(D=10, r=60, P=3000)  # real, 2 and 5 ramify
    @example(D=-5, r=33, P=20_000)  # 2 and 5 ramify
    @example(D=-7, r=4, P=100)  # W // 8 = 1: only the norm-2 ideals are sliced
    def test_matches_pointwise_random_fields(self, D, r, P):
        F = make_field(D)
        box = sieved_singular_box(F, r, P)
        for k1 in range(-r, r + 1):
            for k2 in range(-r, r + 1):
                if (k1, k2) != (0, 0):
                    assert box.value_at(k1, k2).value == singular_series(
                        F.element(k1, k2), P
                    ).value, (k1, k2)

    @pytest.mark.parametrize("D", [-1, 10, -3, -7])
    def test_strided_share_does_not_change_values(self, D, monkeypatch):
        # 1: every ideal of norm <= W is sliced; 10**9: only norm 2 is.
        # Fresh sieves: a cached box would be compared with itself.
        F, r, P = make_field(D), 45, 5000
        want = _sieve_box(F, r, P).tobytes()
        for fraction in (1, 10**9):
            monkeypatch.setattr(singular_series_module, "_STRIDED_FRACTION", fraction)
            assert _sieve_box(F, r, P).tobytes() == want

    @pytest.mark.parametrize("D", [-1, -3, 10, 5, -7])
    @pytest.mark.parametrize("r", [16, 64])
    def test_bounded_walk_equals_unbounded(self, D, r, monkeypatch):
        # the walk stops at the ideals of norm above the box's norm bound; walked
        # to the end of the table instead (every norm past the strided ideals
        # flattened to the first, so that no bound cuts the table), it lists
        # more ideals and sieves the same bytes
        F, P = make_field(D), 100_000
        walked = []

        def counted(bases, radius, budget=None, *, quadrant=False):
            walked.append(bases.shape[1])
            return walk(bases, radius, budget, quadrant=quadrant)

        walk = singular_series_module.lattice_half_points
        monkeypatch.setattr(singular_series_module, "lattice_half_points", counted)
        want = _sieve_box(F, r, P).tobytes()
        euler_data = singular_series_module._euler_data

        def unbounded(field, cutoff):
            data = euler_data(field, cutoff)
            k = int(np.searchsorted(data.norm, (2 * r + 1) // 8, "right"))
            norm = data.norm.copy()
            norm[k:] = norm[k]
            return dataclasses.replace(data, norm=norm)

        monkeypatch.setattr(singular_series_module, "_euler_data", unbounded)
        assert _sieve_box(F, r, P).tobytes() == want
        data = euler_data(F, P)
        assert walked[0] < walked[1] == len(data.norm) - np.searchsorted(
            data.norm, (2 * r + 1) // 8, "right")

    @pytest.mark.parametrize("D", [-7, 10, -5, 17])
    def test_array_pointwise_matches_objects_and_sieve(self, D):
        # the box holds shifts divisible by an inert p (both coordinates)
        # and by both ideals above a split p
        F, r, P = make_field(D), 30, 5000
        ideals = prime_ideals(F, P)
        box = sieved_singular_box(F, r, P)
        inert_hit = split_pair_hit = False
        for k1 in range(-r, r + 1):
            for k2 in range(-r, r + 1):
                if (k1, k2) == (0, 0):
                    continue
                eta = F.element(k1, k2)
                got = singular_series(eta, P).value
                assert got == box.value_at(k1, k2).value == ideal_reference(eta, P), (k1, k2)
                if got == 0.0:
                    continue
                members = containing(eta, ideals)
                inert_hit |= any(pi.split_type is SplitType.INERT and pi.norm >= 3
                                 for pi in members)
                split_ps = [pi.p for pi in members if pi.split_type is SplitType.SPLIT]
                split_pair_hit |= any(split_ps.count(p) == 2 and p > 2 for p in split_ps)
        assert inert_hit and split_pair_hit

    @pytest.mark.parametrize("D", [-1, 17])
    def test_centre_slice_equals_smaller_box(self, D):
        # fresh sieves of both radii: the cache serves the small box from
        # the big one exactly when this holds
        F, R, P = make_field(D), 50, 5000
        big = fresh_box(F, R, P).values
        for r in (1, 7, 40):
            small = fresh_box(F, r, P).values
            assert np.array_equal(big[R - r : R + r + 1, R - r : R + r + 1], small,
                                  equal_nan=True)

    @pytest.mark.parametrize("D", [-1, 10, -3, 17])
    @pytest.mark.parametrize("r", [1, 2, 40])
    def test_box_is_symmetric_under_negation(self, D, r):
        # only one point of each +-pair is sieved; the mirror must equal it
        values = sieved_singular_box(make_field(D), r, 5000).values
        assert np.array_equal(values, values[::-1, ::-1], equal_nan=True)
        assert np.isnan(values[r, r]) and np.isnan(values).sum() == 1

    @pytest.mark.parametrize("D", [-1, 10])
    def test_chunk_size_does_not_change_values(self, D, monkeypatch):
        # small chunks split ideals' point lists across np.multiply.at
        # calls; the per-entry multiplication order must not change.
        # Fresh sieves: a cached box would be compared with itself.
        F, r, P = make_field(D), 20, 3000
        want = fresh_box(F, r, P).values
        for chunk in (13, 97, 4096):
            monkeypatch.setattr(ideals_module, "_CHUNK", chunk)
            got = fresh_box(F, r, P).values
            assert np.array_equal(got, want, equal_nan=True)
        assert singular_series(F.element(3, 5), P).value == want[r + 3, r + 5]

    def test_origin_is_nan_and_rejected(self):
        box = sieved_singular_box(Qi, 3, 100)
        assert math.isnan(box.values[3, 3])
        with pytest.raises(ValueError):
            box.value_at(0, 0)

    def test_point_outside_the_box_rejected(self):
        box = sieved_singular_box(Qi, 3, 100)
        for k1, k2 in ((4, 0), (0, -4), (-4, 4)):
            with pytest.raises(ValueError, match="outside the sieved box"):
                box.value_at(k1, k2)

    def test_norm2_support_pattern(self):
        # in Q(i) the nonzero entries are exactly the index-2 sublattice k1+k2 even
        box = sieved_singular_box(Qi, 6, 200)
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                if (k1, k2) == (0, 0):
                    continue
                v = box.value_at(k1, k2).value
                assert (v > 0) == ((k1 + k2) % 2 == 0)

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            sieved_singular_box(Qi, 10**5, 100)


class TestBoxCache:
    @pytest.fixture
    def sieves(self, monkeypatch):
        """Start from an empty cache; count the sieves, and check at the start
        of each that the cache is empty and every region sieved before is
        freed."""
        monkeypatch.setattr(singular_series_module, "_largest_box", None)
        made = []

        def counted(field, radius, cutoff):
            assert singular_series_module._largest_box is None
            assert all(ref() is None for ref in made)
            region = _sieve_box(field, radius, cutoff)
            made.append(weakref.ref(region))
            return region

        monkeypatch.setattr(singular_series_module, "_sieve_box", counted)
        return made

    @pytest.mark.parametrize("D", [-1, -7, 10])
    @pytest.mark.parametrize("P", [1000, 5000])
    def test_served_boxes_equal_fresh_sieves(self, D, P, sieves):
        F = make_field(D)
        for r in (5, 20, 12, 20, 3, 40, 1):
            box = sieved_singular_box(F, r, P)
            fresh = fresh_box(F, r, P)
            assert (box.field, box.radius, box.cutoff, box.tail_bound) == (
                F, r, P, fresh.tail_bound)
            assert box.values.flags.c_contiguous
            assert box.values.tobytes() == fresh.values.tobytes()
            del box, fresh  # the next miss must find the cached region freed
        assert len(sieves) == 3  # radii 5, 20 and 40

    def test_another_key_evicts(self, sieves):
        F = make_field(-7)
        counts = []
        for field, r, P in [(Qi, 10, 1000), (Qi, 6, 1000), (Qi, 10, 2000),
                            (Qi, 10, 1000), (F, 4, 1000), (Qi, 10, 1000), (Qi, 10, 1000)]:
            sieved_singular_box(field, r, P)
            counts.append(len(sieves))
        assert counts == [1, 1, 2, 3, 4, 5, 5]

    def test_values_are_read_only(self, sieves):
        for r in (12, 12, 5):
            values = sieved_singular_box(Qi, r, 1000).values
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0, 0] = 1.0
        assert len(sieves) == 1

    def test_criterion_5_order_sieves_each_box_once(self, sieves):
        order = [(kind, H) for kind in (Kind.DISC_AUTOCORR, Kind.SQUARE_AUTOCORR)
                 for H in (2, 4, 8, 16)]
        cached = [singular_sum_smoothed(Qi, TestFunction(kind), H, 5000)
                  for kind, H in order]
        assert len(sieves) == 4  # the disc pass; the square pass is served
        fresh = []
        for kind, H in order:
            singular_series_module._largest_box = None
            fresh.append(singular_sum_smoothed(Qi, TestFunction(kind), H, 5000))
        assert len(sieves) == 12
        assert cached == fresh

    def test_bad_radius_raises_before_sieving(self, sieves):
        sieved_singular_box(Qi, 10, 1000)
        kept = singular_series_module._largest_box
        w = TestFunction(Kind.SQUARE_AUTOCORR)
        with pytest.raises(ValueError):
            sieved_singular_box(Qi, 0, 1000)
        with pytest.raises(BudgetError):
            sieved_singular_box(Qi, 10**5, 1000)
        with pytest.raises(BudgetError):
            singular_sums_smoothed(Qi, w, [4.0, 10**5], 1000)
        assert singular_series_module._largest_box is kept
        assert len(sieves) == 1

    def test_scale_list_budget_raises_before_sieving(self, sieves, monkeypatch):
        sieved_singular_box(Qi, 20, 1000)
        kept = singular_series_module._largest_box
        w = TestFunction(Kind.SQUARE_AUTOCORR)
        # 100 boxes of radius 3000 each fit the box budget, not together
        for Hs in ([1500.0] * 100, [1e308]):
            with pytest.raises(BudgetError):
                singular_sums_smoothed(Qi, w, Hs, 1000)
        assert singular_series_module._largest_box is kept
        # H = 4 and 8 weigh 17^2 + 33^2 entries: the budget is inclusive
        monkeypatch.setattr(singular_series_module, "SMOOTHED_ENTRY_BUDGET", 17**2 + 33**2)
        assert len(singular_sums_smoothed(Qi, w, [4.0, 8.0], 1000)) == 2
        monkeypatch.setattr(singular_series_module, "SMOOTHED_ENTRY_BUDGET", 17**2 + 33**2 - 1)
        with pytest.raises(BudgetError):
            singular_sums_smoothed(Qi, w, [4.0, 8.0], 1000)
        assert len(sieves) == 1

    def test_bad_cutoff_raises_before_the_cache_is_dropped(self, sieves):
        sieved_singular_box(Qi, 10, 1000)
        kept = singular_series_module._largest_box
        with pytest.raises(UsageError):
            sieved_singular_box(Qi, 5, 1)
        with pytest.raises(BudgetError):
            sieved_singular_box(Qi, 5, PRIME_BUDGET + 1)
        with pytest.raises(UsageError):
            singular_sums_smoothed(Qi, TestFunction(Kind.DISC_AUTOCORR), [4.0], 1)
        assert singular_series_module._largest_box is kept
        assert len(sieves) == 1


class TestWeightGrid:
    @pytest.mark.parametrize("kind", [Kind.SQUARE_AUTOCORR, Kind.DISC_AUTOCORR])
    @pytest.mark.parametrize("H", [2.0, 2.5, 37.3, 512.0])
    def test_mirror_equals_full_box_eval(self, kind, H, monkeypatch):
        # the leaf path's sums, a few box rows of values at a time times the quadrant
        # weights mirrored onto them, equal np.sum over the full box of the values
        # times the weights evaluated over the full box, zero at the origin; for a
        # quadrant region and a half-box one, with leaves that split box rows
        w = TestFunction(kind)
        M = math.floor(H * w.support_radius)
        W = 2 * M + 1
        k = np.arange(-M, M + 1)
        wgrid = np.asarray(w.eval(k[:, None] / H, k[None, :] / H), dtype=np.float64)
        q = k[M:]
        wq = np.asarray(w.eval(q[:, None] / H, q[None, :] / H), dtype=np.float64)
        rng = np.random.default_rng(M)
        for width in (M + 1, 2 * M + 1):
            region = rng.uniform(-1.0, 3.0, (M + 1, width))
            region[0, width - M - 1] = np.nan  # the origin
            values = _unfold(region, M, np.empty((W, W)))
            want = []
            for t in (values - 1.0, np.abs(values)):
                t *= wgrid
                t[M, M] = 0.0
                want.append(float(np.sum(t)).hex())
            for leaf in (max(128, W * W // 300), 1 << 16):
                monkeypatch.setattr(singular_series_module, "_PAIRWISE_LEAF", leaf)
                got = singular_series_module._box_sums(region, wq, M)
                assert [x.hex() for x in got] == want, (width, leaf)

    @pytest.mark.parametrize("width", ["quadrant", "half"])
    def test_row_ranges_equal_the_whole_box(self, width):
        M = 9
        region = np.arange((M + 1) * (M + 1 if width == "quadrant" else 2 * M + 1), dtype=float)
        region = region.reshape(M + 1, -1)
        whole = _unfold(region, M, np.empty((2 * M + 1, 2 * M + 1)), np.subtract, 1.0)
        for r0 in range(2 * M + 1):
            for r1 in range(r0 + 1, 2 * M + 2):
                out = np.empty((r1 - r0, 2 * M + 1))
                got = _unfold(region, M, out, np.subtract, 1.0, rows=(r0, r1))
                assert got is out and np.array_equal(got, whole[r0:r1]), (r0, r1)


class TestPairwise:
    """`_pairwise` is numpy's float64 summation, bit for bit: a numpy release that sums
    in another order fails here first."""

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 8, 9, 127, 128, 129, 1001, 65_537,
                                   2001**2, 2049**2, 4001**2])
    def test_equals_add_reduce_and_mean(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        for leaf in (128, 1000, 1 << 16):
            monkeypatch.setattr(singular_series_module, "_PAIRWISE_LEAF", leaf)
            leaves = singular_series_module._pairwise_leaves(n)
            assert [lo for lo, _ in leaves[1:]] == [hi for _, hi in leaves[:-1]]
            assert leaves[0][0] == 0 and leaves[-1][1] == n
            got = singular_series_module._pairwise(
                n, (np.add.reduce(x[lo:hi]) for lo, hi in leaves))
            assert got.hex() == float(np.add.reduce(x)).hex(), leaf
            if n:
                assert (got / n).hex() == float(x.mean()).hex(), leaf
            m = math.isqrt(n)
            if m * m == n:
                assert got.hex() == float(x.reshape(m, m).sum()).hex(), leaf

    @pytest.mark.parametrize("n", [3, 200, 70_000])
    def test_signed_zeros(self, n, monkeypatch):
        monkeypatch.setattr(singular_series_module, "_PAIRWISE_LEAF", 128)
        rng = np.random.default_rng(n)
        leaves = singular_series_module._pairwise_leaves(n)
        for x in (np.full(n, -0.0), np.where(rng.random(n) < 0.5, -0.0, 0.0)):
            got = singular_series_module._pairwise(
                n, (np.add.reduce(x[lo:hi]) for lo, hi in leaves))
            assert got.hex() == float(np.add.reduce(x)).hex()
            assert (got / n).hex() == float(x.mean()).hex()


def full_grid_sums(box, w, Hs):
    """The smoothed sums as computed before the scratch array: a mirrored
    weight grid over the full box, a copy of each slice with the origin set
    to 1, and the sums of two product arrays."""
    R, out = box.radius, []
    for H in Hs:
        M = math.floor(H * w.support_radius)
        k = np.arange(-M, M + 1)
        wgrid = np.asarray(w.eval(k[:, None] / H, k[None, :] / H), dtype=np.float64)
        wgrid[M, M] = 0.0
        vals = box.values[R - M : R + M + 1, R - M : R + M + 1].copy()
        vals[M, M] = 1.0
        out.append((float(np.sum((vals - 1.0) * wgrid)),
                    box.tail_bound * float(np.sum(np.abs(vals) * wgrid))))
    return out


class TestScratchSums:
    HS = [2.0, 2.5, 37.3, 64.0]

    @pytest.mark.parametrize("kind", [Kind.SQUARE_AUTOCORR, Kind.DISC_AUTOCORR])
    @pytest.mark.parametrize("D", [-1, -7, 10])
    def test_bits_equal_full_grid_formula(self, D, kind):
        # compared by .hex(), so that a -0.0 or a NaN difference shows
        F, w, P = make_field(D), TestFunction(kind), 2000
        want = full_grid_sums(fresh_box(F, math.floor(max(self.HS) * 2.0), P), w, self.HS)
        want = [(v.hex(), u.hex()) for v, u in want]
        singular_series_module._largest_box = None
        batch = singular_sums_smoothed(F, w, self.HS, P)
        assert [(r.value.hex(), r.uncertainty.hex()) for r in batch] == want
        single = []
        for H in self.HS:
            singular_series_module._largest_box = None  # a box of this H's radius
            r = singular_sum_smoothed(F, w, H, P)
            single.append((r.value.hex(), r.uncertainty.hex()))
        assert single == want

    @pytest.mark.parametrize("kind", [Kind.SQUARE_AUTOCORR, Kind.DISC_AUTOCORR])
    def test_peak_memory_below_two_boxes(self, kind):
        # no full weight grid, unfolded box, scratch array of the box or product
        # temporaries: the quadrant weights and their transients and a few box rows,
        # against the cached region of the same radius
        singular_series_module._largest_box = None
        M = 256
        sieved_singular_box(Qi, M, 2000)
        region = singular_series_module._largest_box
        w = TestFunction(kind)
        assert w.support_box(128.0) == M
        tracemalloc.start()
        try:
            singular_sums_smoothed(Qi, w, [128.0], 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert singular_series_module._largest_box is region
        assert peak < 8 * (2 * M + 1) ** 2  # one full box of float64


class TestHeadlineSums:
    def test_montgomery_h2_exact(self):
        assert montgomery_sum(2, 10**4) == -0.5
        with pytest.raises(ValueError, match="H must be at least 2"):
            montgomery_sum(1, 10**4)

    def test_montgomery_slope(self):
        hs = [2**k for k in range(10, 16)]
        vals = [montgomery_sum(h, 10**4) for h in hs]
        slope = np.polyfit([math.log(h) for h in hs], vals, 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.06)

    def test_smoothed_sum_zero_weight_is_zero(self):
        class ZeroW(TestFunction):
            __slots__ = ()

            def eval(self, x1, x2):
                return np.zeros(np.broadcast(x1, x2).shape)

        res = singular_sum_smoothed(Qi, ZeroW(Kind.SQUARE_AUTOCORR), 16, 500)
        assert res.value == 0.0

    @pytest.mark.parametrize("kind", [Kind.SQUARE_AUTOCORR, Kind.DISC_AUTOCORR])
    @pytest.mark.parametrize("D", [-1, -7])
    def test_batch_equals_single_calls(self, D, kind):
        # one sieve at the largest H, sliced for the others; the box of
        # D = -7 is not symmetric under (k1, k2) -> (k2, k1), so a slice
        # summed in another memory order would round differently.  Each
        # single call sieves a box of its own: the cache is emptied first.
        F, w = make_field(D), TestFunction(kind)
        Hs = [64.0, 32.0, 128.0]
        batch = singular_sums_smoothed(F, w, Hs, 2000)
        assert [res.H for res in batch] == Hs
        for H, res in zip(Hs, batch):
            singular_series_module._largest_box = None
            one = singular_sum_smoothed(F, w, H, 2000)
            assert res.value == one.value
            assert res.uncertainty == one.uncertainty
            assert res.cutoff == one.cutoff == 2000

    def test_batch_rejects_bad_H(self):
        w = TestFunction(Kind.SQUARE_AUTOCORR)
        assert singular_sums_smoothed(Qi, w, [], 500) == []
        for Hs in ([16.0, 1.5], [math.nan], [16.0, math.inf]):
            with pytest.raises(UsageError):
                singular_sums_smoothed(Qi, w, Hs, 500)

    def test_successive_differences_track_log(self):
        # consecutive dyadic H differ by about -w(0) * r_K * 2 log 2
        # cutoff must dominate the box norms: truncation loss scales like
        # H^2 / (P log P), so P = 1e5 keeps it ~0.6 here
        w = TestFunction(Kind.SQUARE_AUTOCORR)
        v1 = singular_sum_smoothed(Qi, w, 128, 10**5).value
        v2 = singular_sum_smoothed(Qi, w, 256, 10**5).value
        want = -4.0 * (math.pi / 4) * 2 * math.log(2)
        assert v2 - v1 == pytest.approx(want, abs=0.9)


class TestMobiusPhi:
    def test_tiny_values(self):
        assert mobius_phi_profile(Qi, [1, 2]) == [1.0, 2.0]

    def test_profile_matches_individual(self):
        # one walk for all cutoffs adds the same terms in the same order as
        # a walk per cutoff, so the sums are equal, not just close
        ys = [1000, 10, 10, 1, 5000]
        for field in (Qi, make_field(-3), make_field(10)):
            norms = [pi.norm for pi in prime_ideals(field, max(ys))]
            want = [phi_inverse_dfs([n for n in norms if n <= y], y) for y in ys]
            assert mobius_phi_profile(field, ys) == want

    @settings(max_examples=40, deadline=None)
    @given(D=st.integers(-150, 150).filter(lambda D: D not in (0, 1) and _is_squarefree(D)),
           ys=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
           chunk=st.sampled_from([1, 5, 64, 1 << 16]))
    @example(D=-1, ys=[1], chunk=1 << 16)
    @example(D=-5, ys=[1, 2, 5000], chunk=1)  # norm 2 ramified
    @example(D=-3, ys=[2, 3, 4, 4000, 3], chunk=5)  # smallest norm 3
    @example(D=-7, ys=[4999, 1, 5000], chunk=64)  # 2 split
    @example(D=5, ys=[3, 1, 2, 3000], chunk=1)  # 2 inert: the smallest norm is 4
    @example(D=-143, ys=[5, 1, 2, 6, 4000], chunk=5)  # norms 2, 2, 3, 3, ...
    def test_matches_dfs_random_fields(self, D, ys, chunk):
        # `_WALK_CHUNK` decides which subtrees are split into their children
        field = make_field(D)
        norms = [pi.norm for pi in prime_ideals(field, max(ys))]
        want = [phi_inverse_dfs([n for n in norms if n <= y], y) for y in ys]
        with mock.patch.object(singular_series_module, "_WALK_CHUNK", chunk):
            assert mobius_phi_profile(field, ys) == want

    @pytest.mark.parametrize("D", [-1, 10, -7])
    def test_matches_dfs_at_1e5(self, D, monkeypatch):
        field, Y = make_field(D), 10**5
        norms = [pi.norm for pi in prime_ideals(field, Y)]
        want = [phi_inverse_dfs(norms, Y)]
        assert mobius_phi_profile(field, [Y]) == want
        # small runs, and the products of norm below 50 split into their children
        monkeypatch.setattr(singular_series_module, "_WALK_CHUNK", Y // 50)
        assert mobius_phi_profile(field, [Y]) == want

    def test_bad_cutoffs(self):
        for ys in ([0], [10, 0], [], [-5]):
            with pytest.raises(UsageError):
                mobius_phi_profile(Qi, ys)
        with pytest.raises(BudgetError):
            mobius_phi_profile(Qi, [10, PRIME_BUDGET + 1])

    def test_log_growth(self):
        rk = math.pi / 4
        ys = (10**3, 10**4, 10**5)
        drifts = [s - rk * math.log(y) for s, y in zip(mobius_phi_profile(Qi, ys), ys)]
        assert max(drifts) - min(drifts) < 0.1
