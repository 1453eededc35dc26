"""Exact quadratic-field arithmetic, singular series, and prime statistics."""

__version__ = "0.1.0"

from .errors import BudgetError, ExtentError, FieldSpecError, QuadPrimesError, UsageError
from .fields import FieldSpec, QuadInt, make_field, parse_field_spec
from .ideals import (
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
    ramanujan_sum,
    split_prime,
)
from .primes import (
    PrefixGrid,
    build_grid,
    count_primes_box,
    is_prime_element,
    load_grid,
    log_weight_box,
    save_grid,
)
from .singular_series import (
    ResidueValue,
    SingularValue,
    montgomery_sum,
    residue_rk,
    sieved_singular_box,
    singular_series,
    singular_series_rational,
    singular_sum_smoothed,
    singular_sums_smoothed,
)
from .smoothing import Kind, TestFunction
from .statistics import (
    Sampler,
    VarianceRow,
    ZBaselineRow,
    variance_profile,
    variance_rational_lambda,
    variance_rational_prime,
)
