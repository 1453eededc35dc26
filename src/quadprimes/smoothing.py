"""Compactly supported test weights built as autocorrelations of convex bodies.

Three kinds are provided: the autocorrelation of the sup-norm unit square
(matching the experiment geometry), the autocorrelation of the Euclidean unit
disc (which has the fast Fourier decay the smoothed-sum theorem needs), and
the 1D triangle weight used for the rational-integer baseline.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss


class Kind(enum.Enum):
    SQUARE_AUTOCORR = "square"
    DISC_AUTOCORR = "disc"
    TRIANGLE_1D = "triangle"


@dataclass(frozen=True, slots=True)
class TestFunction:
    kind: Kind

    @property
    def value_at_zero(self) -> float:
        # volume of the body being autocorrelated
        if self.kind is Kind.SQUARE_AUTOCORR:
            return 4.0
        if self.kind is Kind.DISC_AUTOCORR:
            return math.pi
        return 1.0

    @property
    def fourier_at_zero(self) -> float:
        return self.value_at_zero ** 2

    @property
    def support_radius(self) -> float:
        # sup-norm radius for square/triangle, Euclidean radius for the disc
        return 1.0 if self.kind is Kind.TRIANGLE_1D else 2.0

    def eval(self, *x) -> float:
        """Pointwise value; accepts numpy arrays and broadcasts."""
        if self.kind is Kind.SQUARE_AUTOCORR:
            x1, x2 = x
            return np.maximum(2.0 - np.abs(x1), 0.0) * np.maximum(2.0 - np.abs(x2), 0.0)
        if self.kind is Kind.DISC_AUTOCORR:
            x1, x2 = x
            r = np.hypot(x1, x2)
            return self.eval_radial(r)
        (t,) = x
        return np.maximum(1.0 - np.abs(t), 0.0)

    def eval_radial(self, r):
        """Overlap area of two unit discs at center distance r (disc kind)."""
        if self.kind is not Kind.DISC_AUTOCORR:
            raise ValueError("radial profile only defined for the disc kind")
        r = np.asarray(r, dtype=float)
        rc = np.minimum(r, 2.0)
        val = 2.0 * np.arccos(rc / 2.0) - (rc / 2.0) * np.sqrt(4.0 - rc * rc)
        return np.where(r < 2.0, val, 0.0)

    def eval_exact(self, *x: Fraction) -> Fraction:
        """Exact rational value (square and triangle kinds only)."""
        if self.kind is Kind.SQUARE_AUTOCORR:
            x1, x2 = (Fraction(v) for v in x)
            return max(2 - abs(x1), Fraction(0)) * max(2 - abs(x2), Fraction(0))
        if self.kind is Kind.TRIANGLE_1D:
            (t,) = (Fraction(v) for v in x)
            return max(1 - abs(t), Fraction(0))
        raise ValueError("no exact evaluation for the disc autocorrelation")


def _gauss_nodes(lo: float, hi: float, n: int):
    x, wgt = leggauss(n)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    return mid + half * x, half * wgt


def _oscillatory_nodes(length: float, freq: float, base: int = 128) -> int:
    # keep several quadrature nodes per oscillation cycle
    return max(base, 8 * math.ceil(length * abs(freq)) + 32)


def fourier_probe(w: TestFunction, *xi: float) -> float:
    """Numerical Fourier transform value at a frequency point.

    The integrand is split at the weight's kinks (piecewise Gauss-Legendre for
    the separable kinds, a radial Hankel rule for the disc) so the quadrature
    converges to near machine accuracy; node counts scale with |xi|.
    """
    if w.kind is Kind.TRIANGLE_1D:
        (f,) = xi
        return _transform_1d(lambda t: 1.0 - np.abs(t), 1.0, f)
    if w.kind is Kind.SQUARE_AUTOCORR:
        f1, f2 = xi
        return _transform_1d(lambda t: 2.0 - np.abs(t), 2.0, f1) * _transform_1d(
            lambda t: 2.0 - np.abs(t), 2.0, f2
        )
    f1, f2 = xi
    rho = math.hypot(f1, f2)
    # Hankel transform: 2*pi * int_0^2 w(r) J0(2 pi r rho) r dr
    from scipy.special import j0

    n = _oscillatory_nodes(2.0, rho)
    r, wgt = _gauss_nodes(0.0, 2.0, n)
    vals = w.eval_radial(r) * j0(2.0 * math.pi * r * rho) * r
    return 2.0 * math.pi * float(np.dot(wgt, vals))


def _transform_1d(profile, radius: float, freq: float) -> float:
    """int_{-radius}^{radius} profile(|t|) cos(2 pi t freq) dt, split at 0."""
    n = _oscillatory_nodes(radius, freq)
    t, wgt = _gauss_nodes(0.0, radius, n)
    vals = profile(t) * np.cos(2.0 * math.pi * t * freq)
    return 2.0 * float(np.dot(wgt, vals))


def disc_fourier_exact(xi1: float, xi2: float) -> float:
    """Closed form |Bessel| transform of the disc autocorrelation (oracle)."""
    from scipy.special import j1

    rho = math.hypot(xi1, xi2)
    if rho == 0.0:
        return math.pi ** 2
    return (j1(2.0 * math.pi * rho) / rho) ** 2
