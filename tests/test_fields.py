import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import quadprimes
from quadprimes import ideals
from quadprimes.errors import BudgetError, FieldSpecError
from quadprimes.fields import (
    PRIME_BUDGET,
    FieldSpec,
    QuadInt,
    class_group_2_rank,
    make_field,
    parse_field_spec,
)

FIELDS = [make_field(D) for D in (-1, -3, -5, -7, 2, 3, 5, 10, 13)]


def elements(field, lo=-50, hi=50):
    coord = st.integers(lo, hi)
    return st.builds(lambda a, b: QuadInt(field, a, b), coord, coord)


class TestFieldSpec:
    def test_maximal_order_basis_selection(self):
        assert not make_field(-1).half
        assert make_field(5).half
        assert make_field(-3).half
        assert make_field(5).minpoly_omega() == (-1, -1)
        assert make_field(-1).minpoly_omega() == (0, 1)

    def test_discriminant(self):
        assert make_field(-1).discriminant == -4
        assert make_field(-3).discriminant == -3
        assert make_field(2).discriminant == 8
        assert make_field(5).discriminant == 5

    @pytest.mark.parametrize("bad", [0, 1, 4, 12, -9])
    def test_rejects_non_squarefree(self, bad):
        with pytest.raises(FieldSpecError):
            make_field(bad)

    def test_trial_division_budget(self):
        # sqrt|D| past the prime budget is refused before any trial division
        with pytest.raises(BudgetError):
            make_field(-(PRIME_BUDGET + 1) ** 2)
        # at the budget the squarefree check runs (and finds the factor 2^2)
        with pytest.raises(FieldSpecError):
            make_field(-PRIME_BUDGET**2)
        assert ideals.PRIME_BUDGET is PRIME_BUDGET

    def test_half_basis_requires_1_mod_4(self):
        # ',half' is accepted only where D forces it
        for text in ("D=3,half", "D=2,half", "D=-1,half"):
            with pytest.raises(FieldSpecError, match=r"the half-integer basis is required exactly"
                               r" when D = 1 \(mod 4\), so that coordinates span the ring"):
                parse_field_spec(text)

    def test_parse_round_trip(self):
        for text in ("D=-1", "D=10"):
            assert parse_field_spec(text).spec_string() == text
        # D alone names the field: ',half' is accepted where D forces it,
        # and canonicalized away
        assert FieldSpec(5) == make_field(5) == parse_field_spec("D=5,half")
        assert parse_field_spec("D=5,half") == parse_field_spec("D=5")
        assert parse_field_spec("D=5").spec_string() == "D=5"

    @pytest.mark.parametrize("bad", ["", "5", "D=abc", "D=2,half", "D=5,foo", "D=5,sqrt",
                                     "D=5,half,half", "D=3,"])
    def test_parse_rejects(self, bad):
        with pytest.raises(FieldSpecError):
            parse_field_spec(bad)


class TestArithmetic:
    def test_known_norms(self):
        Qi = make_field(-1)
        assert Qi.element(1, 1).norm() == 2      # 1 + i
        assert Qi.element(2, 1).norm() == 5
        F2 = make_field(2)
        assert F2.element(1, 1).norm() == -1     # 1 + sqrt2 is a unit
        assert F2.element(3, 1).norm() == 7
        F5 = make_field(5)
        # omega = (1+sqrt5)/2 has norm -1
        assert F5.element(0, 1).norm() == -1

    @pytest.mark.parametrize("field", FIELDS)
    @given(data=st.data())
    def test_norm_multiplicative(self, field, data):
        a = data.draw(elements(field))
        b = data.draw(elements(field))
        assert (a * b).norm() == a.norm() * b.norm()

    @pytest.mark.parametrize("field", FIELDS)
    @given(data=st.data())
    def test_conjugate_properties(self, field, data):
        a = data.draw(elements(field))
        assert a.conjugate().conjugate() == a
        assert a.conjugate().norm() == a.norm()
        # alpha * conj(alpha) is the rational integer N(alpha)
        prod = a * a.conjugate()
        assert prod == field.element(a.norm(), 0)

    @pytest.mark.parametrize("field", FIELDS)
    @given(data=st.data())
    def test_ring_axioms_spot(self, field, data):
        a = data.draw(elements(field, -20, 20))
        b = data.draw(elements(field, -20, 20))
        c = data.draw(elements(field, -20, 20))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero()
        assert a - b == a + (-b)
        assert a * field.one() == a

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_norm_form_on_arrays(self, field):
        k = np.arange(-30, 31, dtype=np.int64)
        norms = field.norm_form(k[:, None], k[None, :])
        assert norms.dtype == np.int64
        assert norms.tolist() == [[field.element(a, b).norm() for b in k.tolist()]
                                  for a in k.tolist()]

    def test_mixed_field_operations_rejected(self):
        with pytest.raises(ValueError):
            make_field(-1).element(1, 0) + make_field(2).element(1, 0)
        with pytest.raises(ValueError):
            make_field(-1).element(1, 0) - make_field(2).element(1, 0)


class TestClassGroup2Rank:
    # |Cl_K[2]| from known class groups: h = 1 (or odd, D=79: h = 3);
    # Cl = Z/2 (D=-5, 10, 15, 34) or Z/4 (D=-14); Cl(-84) = (Z/2)^2
    @pytest.mark.parametrize("D, size", [
        (-1, 1), (-3, 1), (-7, 1), (2, 1), (3, 1), (79, 1),
        (-5, 2), (-14, 2), (10, 2), (15, 2), (34, 2),
        (-21, 4),
    ])
    def test_known_class_groups(self, D, size):
        assert 2 ** class_group_2_rank(make_field(D)) == size


def test_basis_decided_in_fields_only():
    # FieldSpec derives the basis from D once, in `half`; every other module
    # works from omega's minimal polynomial.  Only the grid file's basis byte
    # and field-info's basis column may read it, and no module but fields.py
    # writes the rule D % 4 == 1
    allowed = {"primes.py": {"save_grid", "load_grid"}, "cli.py": {"cmd_field_info"}}
    src = pathlib.Path(quadprimes.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name in ("fields.py", "__init__.py"):
            continue
        text = path.read_text()
        for node in ast.parse(text).body:
            names = {getattr(node, "name", None)}
            names |= {t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)}
            pattern = r"\bBasisKind\b|\.basis\b|%\s*4\s*==\s*1"
            if not names & allowed.get(path.name, set()):
                pattern += r"|\.half\b"
            found = re.findall(pattern, ast.get_source_segment(text, node))
            assert not found, f"{path.name}, line {node.lineno}: {sorted(set(found))}"
