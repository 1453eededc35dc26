"""Exact arithmetic in real and imaginary quadratic fields Q(sqrt(D)).

Elements are stored in integral-basis coordinates (k1, k2), meaning
k1 + k2*omega.  D alone names the field: the basis is derived from it, in
`FieldSpec.half`, as omega = sqrt(D), or (1+sqrt(D))/2 exactly when
D = 1 (mod 4), so that the coordinates always span the full ring of
integers.  A field string may say ``,half`` only where D forces it.
Everything else follows from omega's minimal polynomial x^2 + b x + c
(`FieldSpec.minpoly_omega`): the discriminant b^2 - 4c, the norm form,
conjugation, products and, in `ideals`, the splitting of rational primes.
All arithmetic is exact (Python integers), so products and norms never
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, FieldSpecError

# largest prime-ideal norm, and largest rational prime, that an enumeration
# accepts: it bounds every Euler product cutoff and squarefree-ideal walk, and
# the trial division that checks D
PRIME_BUDGET = 2_000_000


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n != 0 with multiplicity, ascending, by trial division
    up to sqrt|n|."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_squarefree(n: int) -> bool:
    factors = _prime_factors(n)
    return n != 0 and len(set(factors)) == len(factors)


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """The quadratic field Q(sqrt(D)), with the integral basis D fixes.

    D must be squarefree and different from 0 and 1.  The basis is the half
    one exactly when D = 1 (mod 4), so the coordinate lattice is always the
    full ring of integers and the discriminant b^2 - 4c of omega's minimal
    polynomial is the field discriminant (D when D = 1 mod 4, else 4D).
    """

    D: int

    def __post_init__(self):
        if math.isqrt(abs(self.D)) > PRIME_BUDGET:
            raise BudgetError(f"D={self.D}: checking that |D| is squarefree needs trial"
                              f" division past the prime budget {PRIME_BUDGET}")
        if self.D in (0, 1) or not _is_squarefree(self.D):
            raise FieldSpecError(f"D={self.D} must be squarefree and not 0 or 1")

    @property
    def half(self) -> bool:
        """Whether omega = (1+sqrt(D))/2 rather than sqrt(D)."""
        return self.D % 4 == 1

    @property
    def discriminant(self) -> int:
        b, c = self.minpoly_omega()
        return b * b - 4 * c

    def minpoly_omega(self) -> tuple[int, int]:
        """(b, c) with the non-trivial basis element a root of x^2 + b x + c."""
        if self.half:
            return (-1, (1 - self.D) // 4)
        return (0, -self.D)

    def norm_form(self, k1, k2):
        """N(k1 + k2*omega) = k1 (k1 - b k2) + c k2^2, for ints or int arrays."""
        b, c = self.minpoly_omega()
        return k1 * (k1 - b * k2) + c * k2 * k2

    def element(self, k1: int, k2: int) -> "QuadInt":
        return QuadInt(self, k1, k2)

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    def zero(self) -> "QuadInt":
        return QuadInt(self, 0, 0)

    def spec_string(self) -> str:
        # canonical, comma-free (the half basis is implied by D = 1 mod 4)
        return f"D={self.D}"

    def __str__(self):
        return self.spec_string()


def class_group_2_rank(field: FieldSpec) -> int:
    """r with |Cl_K[2]| = 2^r, from genus theory (no class-number computation).

    With t distinct primes dividing the discriminant d, the narrow class group
    has 2-rank t - 1.  The ordinary class group is the narrow one modulo the
    class of (sqrt d), whose generator has negative norm; that class is not a
    square, and so removes one rank, exactly when d > 0 and some prime
    = 3 (mod 4) divides d (-1 is then not a local norm at that prime).
    """
    primes = sorted(set(_prime_factors(field.discriminant)))
    rank = len(primes) - 1
    if field.discriminant > 0 and any(p % 4 == 3 for p in primes):
        rank -= 1
    return rank


# the field for a squarefree D, with the basis of its ring of integers
make_field = FieldSpec


def parse_field_spec(text: str) -> FieldSpec:
    """Parse a CLI field string like ``D=-1`` or ``D=5,half``."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or not parts[0].startswith("D="):
        raise FieldSpecError(f"field spec must look like 'D=<int>[,half]': {text!r}")
    try:
        D = int(parts[0][2:])
    except ValueError:
        raise FieldSpecError(f"bad integer in field spec: {text!r}") from None
    if parts[1:] not in ([], ["half"]):
        raise FieldSpecError(f"unrecognized field spec: {text!r}")
    field = FieldSpec(D)
    if parts[1:] and not field.half:
        raise FieldSpecError(f"D={D}: the half-integer basis is required exactly when D = 1"
                             " (mod 4), so that coordinates span the ring of integers")
    return field


@dataclass(frozen=True, slots=True)
class QuadInt:
    """An algebraic integer k1 + k2*omega in integral-basis coordinates."""

    field: FieldSpec
    k1: int
    k2: int

    def norm(self) -> int:
        return self.field.norm_form(self.k1, self.k2)

    def conjugate(self) -> "QuadInt":
        # the other root of x^2 + b x + c is -b - omega
        b, _ = self.field.minpoly_omega()
        return QuadInt(self.field, self.k1 - b * self.k2, -self.k2)

    def is_zero(self) -> bool:
        return self.k1 == 0 and self.k2 == 0

    def _check_same_field(self, other: "QuadInt"):
        if self.field != other.field:
            raise ValueError("operands belong to different fields")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check_same_field(other)
        return QuadInt(self.field, self.k1 + other.k1, self.k2 + other.k2)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check_same_field(other)
        return QuadInt(self.field, self.k1 - other.k1, self.k2 - other.k2)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.k1, -self.k2)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check_same_field(other)
        a1, a2, b1, b2 = self.k1, self.k2, other.k1, other.k2
        b, c = self.field.minpoly_omega()
        # omega^2 = -b omega - c
        return QuadInt(self.field, a1 * b1 - c * a2 * b2, a1 * b2 + a2 * b1 - b * a2 * b2)

