import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import j0, j1

from quadprimes.errors import BudgetError, UsageError
from quadprimes.smoothing import Kind, TestFunction

SQUARE = TestFunction(Kind.SQUARE_AUTOCORR)
DISC = TestFunction(Kind.DISC_AUTOCORR)


# Numerical Fourier transforms of the weights.  The integrand is split at the
# weight's kinks (piecewise Gauss-Legendre for the separable square, a radial
# Hankel rule for the disc) so the quadrature converges to near machine
# accuracy; node counts scale with the frequency.


def gauss_nodes(lo: float, hi: float, n: int):
    x, wgt = leggauss(n)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * wgt


def oscillatory_nodes(length: float, freq: float, base: int = 128) -> int:
    # keep several quadrature nodes per oscillation cycle
    return max(base, 8 * math.ceil(length * abs(freq)) + 32)


def transform_1d(profile, radius: float, freq: float) -> float:
    """int_{-radius}^{radius} profile(|t|) cos(2 pi t freq) dt, split at 0."""
    n = oscillatory_nodes(radius, freq)
    t, wgt = gauss_nodes(0.0, radius, n)
    vals = profile(t) * np.cos(2.0 * math.pi * t * freq)
    return 2.0 * float(np.dot(wgt, vals))


def fourier_probe(w: TestFunction, f1: float, f2: float) -> float:
    """Fourier transform of the weight at the frequency (f1, f2)."""
    if w.kind is Kind.SQUARE_AUTOCORR:
        return transform_1d(lambda t: 2.0 - np.abs(t), 2.0, f1) * transform_1d(
            lambda t: 2.0 - np.abs(t), 2.0, f2
        )
    rho = math.hypot(f1, f2)
    # Hankel transform: 2*pi * int_0^2 w(r) J0(2 pi r rho) r dr
    n = oscillatory_nodes(2.0, rho)
    r, wgt = gauss_nodes(0.0, 2.0, n)
    vals = w.eval(r, 0.0) * j0(2.0 * math.pi * r * rho) * r
    return 2.0 * math.pi * float(np.dot(wgt, vals))


def triangle_transform(xi: float) -> float:
    """Transform of the 1D triangle max(1 - |t|, 0) by the same 1D rule."""
    return transform_1d(lambda t: 1.0 - np.abs(t), 1.0, xi)


def disc_fourier_exact(xi1: float, xi2: float) -> float:
    """Closed form |Bessel| transform of the disc autocorrelation (oracle)."""
    rho = math.hypot(xi1, xi2)
    if rho == 0.0:
        return math.pi ** 2
    return (j1(2.0 * math.pi * rho) / rho) ** 2


class TestEval:
    def test_values_at_zero(self):
        assert SQUARE.eval(0.0, 0.0) == 4.0
        assert DISC.eval(0.0, 0.0) == pytest.approx(math.pi, abs=1e-14)

    def test_disc_known_overlap(self):
        # overlap area of two unit discs at center distance 1
        want = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert DISC.eval(1.0, 0.0) == pytest.approx(want, abs=1e-12)
        assert DISC.eval(0.6, 0.8) == pytest.approx(want, abs=1e-12)

    def test_support(self):
        assert SQUARE.eval(2.0, 0.5) == 0.0
        assert DISC.eval(1.5, 1.5) == 0.0
        assert SQUARE.eval(1.999, 0.0) > 0.0

    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_even_and_nonnegative(self, x1, x2):
        for w in (SQUARE, DISC):
            v = w.eval(x1, x2)
            assert v >= 0.0
            assert v == w.eval(-x1, -x2)

    def test_disc_radial_equals_where_formula(self):
        # the radial profile eval(r, 0) for r >= 0; the bits must be those of the
        # np.where expression
        r = np.concatenate([np.linspace(0.0, 2.5, 2002), [2.0, np.nextafter(2.0, 3.0),
                                                          7.0, np.inf, np.nan]])
        for x in (r, r.reshape(-1, 9), 2.0, 1.5, np.nan):
            x = np.asarray(x, dtype=float)
            rc = np.minimum(x, 2.0)
            val = 2.0 * np.arccos(rc / 2.0) - (rc / 2.0) * np.sqrt(4.0 - rc * rc)
            want = np.where(x < 2.0, val, 0.0)
            got = DISC.eval(x, 0.0)
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_disc_eval_equals_where_formula_of_hypot(self):
        # eval reuses its own hypot array as scratch; the bits must be those of the
        # np.where expression, on (r = 2 exactly) and past the support edge too
        k = np.arange(0, 41) / 16.0  # 0 .. 2.5, with (2, 0), (0, 2) and (1.25, 1.5625)
        edge = (np.array([1.2, 2.0, 0.0, 1.6]), np.array([1.6, 0.0, 2.0, np.nextafter(1.2, 2)]))
        for x1, x2 in ((k[:, None], k[None, :]), edge, (k, 0.5), (0.0, 0.0), (1.2, 1.6),
                       (3.0, 0.0), (np.nan, 0.0), (np.float32(1.5), np.float32(0.5))):
            r = np.asarray(np.hypot(x1, x2), dtype=float)
            rc = np.minimum(r, 2.0)
            val = 2.0 * np.arccos(rc / 2.0) - (rc / 2.0) * np.sqrt(4.0 - rc * rc)
            want = np.where(r < 2.0, val, 0.0)
            got = DISC.eval(x1, x2)
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert DISC.eval(1.2, 1.6) == 0.0 and DISC.eval(2.0, 0.0) == 0.0

    def test_disc_radial_leaves_its_argument_alone(self):
        r = np.array([0.0, 1.0, 2.0, 3.0, np.nan])
        before = r.tobytes()
        DISC.eval(r, 0.0)
        DISC.eval(0.0, r)
        assert r.tobytes() == before

    def test_disc_radial_monotone(self):
        r = np.linspace(0, 2.2, 500)
        vals = DISC.eval(r, 0.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_square_matches_overlap_area(self):
        # brute-force overlap of [-1,1]^2 with its translate
        rng = np.random.default_rng(5)
        g = np.linspace(-1 + 5e-4, 1 - 5e-4, 2000)
        for _ in range(4):
            x = rng.uniform(-2, 2, size=2)
            # separable: overlap length per axis
            len1 = np.mean(np.abs(g + x[0]) <= 1) * 2
            len2 = np.mean(np.abs(g + x[1]) <= 1) * 2
            assert SQUARE.eval(*x) == pytest.approx(len1 * len2, abs=1e-2 * 4)

    def test_broadcasting(self):
        x = np.linspace(-2, 2, 7)
        out = SQUARE.eval(x[:, None], x[None, :])
        assert out.shape == (7, 7)


class TestFourier:
    def test_at_zero(self):
        assert fourier_probe(SQUARE, 0.0, 0.0) == pytest.approx(16.0, rel=1e-10)
        assert fourier_probe(DISC, 0.0, 0.0) == pytest.approx(math.pi**2, rel=1e-8)
        assert triangle_transform(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_triangle_zeros_at_integers(self):
        for k in (1, 2, 3, 7):
            assert abs(triangle_transform(float(k))) <= 1e-6

    def test_triangle_closed_form(self):
        for xi in (0.3, 0.5, 1.7, 4.25):
            want = (math.sin(math.pi * xi) / (math.pi * xi)) ** 2
            assert triangle_transform(xi) == pytest.approx(want, abs=1e-10)

    def test_disc_matches_bessel_oracle(self):
        for xi in ((0.5, 0.0), (1.0, 1.0), (3.2, 0.7), (10.0, 0.0)):
            assert fourier_probe(DISC, *xi) == pytest.approx(
                disc_fourier_exact(*xi), abs=1e-8
            )

    def test_square_on_axis_decay_only_quadratic(self):
        # |w^|(t,0) * t^3 grows linearly: the square autocorrelation is not "nice"
        ts = [4.5, 8.5, 16.5, 32.5, 64.5]
        scaled = [abs(fourier_probe(SQUARE, t, 0.0)) * t**3 for t in ts]
        ratios = [b / a for a, b in zip(scaled, scaled[1:])]
        assert all(r > 1.5 for r in ratios)

    def test_disc_decay_is_cubic(self):
        # |w^|(xi) * |xi|^3 stays bounded along a ray
        ts = np.linspace(2, 40, 25)
        scaled = [abs(fourier_probe(DISC, t, 0.0)) * t**3 for t in ts]
        assert max(scaled) < 10.0

    def test_integral_equals_fourier_at_zero(self):
        # Riemann sum of w over its support vs vol(U)^2
        h = 1 / 300
        g = np.arange(-2 + h / 2, 2, h)
        total = SQUARE.eval(g[:, None], g[None, :]).sum() * h * h
        assert total == pytest.approx(SQUARE.fourier_at_zero, rel=1e-4)
        total = DISC.eval(g[:, None], g[None, :]).sum() * h * h
        assert total == pytest.approx(DISC.fourier_at_zero, rel=1e-3)


class TestSupportBox:
    @pytest.mark.parametrize("w", [SQUARE, DISC])
    def test_floor_of_the_scaled_radius(self, w):
        assert w.support_box(2.0) == 4
        assert w.support_box(3.7) == 7
        # 2H = 5.999999999999999 lies just below an integer
        assert w.support_box(2.9999999999999996) == 5
        assert w.support_box(0.1) == 0

    @pytest.mark.parametrize("H", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite(self, H):
        with pytest.raises(UsageError):
            SQUARE.support_box(H)

    def test_overflowing_support_is_a_budget_error(self):
        # a finite H whose support H * 2 overflows to inf
        with pytest.raises(BudgetError):
            SQUARE.support_box(1e308)
        assert SQUARE.support_box(8e307) == math.floor(1.6e308)
