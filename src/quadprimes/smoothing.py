"""Compactly supported test weights built as autocorrelations of convex bodies.

Two kinds are provided: the autocorrelation of the sup-norm unit square
(matching the experiment geometry) and the autocorrelation of the Euclidean
unit disc (which has the fast Fourier decay the smoothed-sum theorem needs).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, UsageError


class Kind(enum.Enum):
    SQUARE_AUTOCORR = "square"
    DISC_AUTOCORR = "disc"


@dataclass(frozen=True, slots=True)
class TestFunction:
    kind: Kind

    @property
    def value_at_zero(self) -> float:
        # volume of the body being autocorrelated
        return 4.0 if self.kind is Kind.SQUARE_AUTOCORR else math.pi

    @property
    def fourier_at_zero(self) -> float:
        return self.value_at_zero ** 2

    @property
    def support_radius(self) -> float:
        # sup-norm radius for the square, Euclidean radius for the disc
        return 2.0

    def support_box(self, H: float) -> int:
        """Sup-norm radius floor(H * support_radius) of the lattice box that
        holds the support of w(./H), for a positive finite H."""
        if not 0 < H < math.inf:
            raise UsageError(f"H must be a positive finite number, got {H!r}")
        if H * self.support_radius == math.inf:
            raise BudgetError(f"H = {H:g}: the support reaches past every float")
        return math.floor(H * self.support_radius)

    def eval(self, x1, x2) -> float:
        """Pointwise value; accepts numpy arrays and broadcasts.  The disc's,
        at r = |x|, is 2 arccos(rc/2) - (rc/2) sqrt(4 - rc^2), rc = min(r, 2),
        for r < 2, else 0, made in this call's own array of r and one more."""
        if self.kind is Kind.SQUARE_AUTOCORR:
            return np.maximum(2.0 - np.abs(x1), 0.0) * np.maximum(2.0 - np.abs(x2), 0.0)
        a = np.asarray(np.hypot(x1, x2), dtype=float)
        inside = a < 2.0
        np.minimum(a, 2.0, out=a)
        b = np.divide(a, 2.0, out=np.empty(a.shape))
        np.sqrt(np.subtract(4.0, np.multiply(a, a, out=a), out=a), out=a)
        np.multiply(b, a, out=a)
        np.subtract(np.multiply(2.0, np.arccos(b, out=b), out=b), a, out=b)
        b[~inside] = 0.0
        return b
