"""The frozen value records: import footprint, reprs, equality and
immutability."""

import os
import pickle
import subprocess
import sys

import pytest

from qpknot import (
    Family,
    InvariantKind,
    LaurentPoly,
    Monomial,
    QPSpec,
    SkeinCoeffs,
    family_spec,
    link_coeffs,
    parse_expression,
    run_check,
)

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys, qpknot.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=60,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_reprs():
    assert repr(link_coeffs(InvariantKind.HOMFLY)) == (
        "SkeinCoeffs(l1=LaurentPoly('a*t^(1/2) - a*t^(-1/2)'), l2=LaurentPoly('a^2'))"
    )
    assert repr(run_check("trefoil", 1)) == (
        "CheckReport(name='trefoil', passed=True, detail='', n_range=(1, 1))"
    )
    assert repr(parse_expression("t^(1/2)+1")) == (
        "Add(left=Pow(base=Var(name='t'), exponent=Fraction(1, 2)), right=Lit(value=1))"
    )


def test_qpspec_equality_and_hash():
    t = Monomial.var("t")
    spec = QPSpec(t, t**-1)
    assert spec == family_spec(Family.ALEXANDER)
    assert hash(spec) == hash(family_spec(Family.ALEXANDER))
    assert spec != QPSpec(t**-1, t)
    assert spec != (t, t**-1)
    assert len({spec, QPSpec(t, t**-1), family_spec(Family.JONES)}) == 2
    with pytest.raises(ValueError, match="u and v must differ"):
        QPSpec(t, t)


def test_fields_are_read_only():
    spec = family_spec(Family.HOMFLY)
    coeffs = SkeinCoeffs(LaurentPoly(1), LaurentPoly(2))
    with pytest.raises(AttributeError):
        spec.u = Monomial.var("q")
    with pytest.raises(AttributeError):
        coeffs.l1 = LaurentPoly(2)
    with pytest.raises(AttributeError):
        del coeffs.l1
    with pytest.raises(AttributeError):
        coeffs.extra = 1
    assert coeffs == SkeinCoeffs(LaurentPoly(1), LaurentPoly(2))


def test_records_pickle_through_the_constructor():
    for value in (
        family_spec(Family.H2),
        link_coeffs(InvariantKind.HOMFLY),
        run_check("trefoil", 1),
        parse_expression("x-1"),
    ):
        assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(TypeError):
        SkeinCoeffs()
    with pytest.raises(TypeError):
        SkeinCoeffs(LaurentPoly(1))
