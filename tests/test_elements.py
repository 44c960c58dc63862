from fractions import Fraction

import pytest

from lieprop.catlie import HomElem
from lieprop.freelie import LieElem
from lieprop.mudelta import Delta1Elem

Q = Fraction(1, 3)

# (class, cell, another cell of the same class, repr of cls(*cell, {0: 2, 1: Q}))
CASES = [
    (LieElem, ((1, 2, 3, 4),), ((1, 2, 3, 5),),
     "LieElem((1, 2, 3, 4), {0: 2, 1: Fraction(1, 3)})"),
    (HomElem, (3, 2), (3, 1), "HomElem(3, 2, {0: 2, 1: Fraction(1, 3)})"),
    (Delta1Elem, (3, 1), (3, 2), "Delta1Elem(3, 1, {0: 2, 1: Fraction(1, 3)})"),
]


@pytest.mark.parametrize("cls, cell, other_cell, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_element_arithmetic(cls, cell, other_cell, text):
    a = cls(*cell, {0: 2, 1: Q, 2: 0})
    assert a.coords == {0: 2, 1: Q}
    assert repr(a) == text
    z = a.scale(0)
    assert z.is_zero() and z.coords == {} and z == cls(*cell)
    assert (a - a).is_zero()
    assert -a == a.scale(-1)
    assert (-a).coords == {0: -2, 1: -Q}
    # entries that cancel are dropped, the others kept
    b = cls(*cell, {0: -2, 2: 5})
    assert (a + b).coords == {1: Q, 2: 5}
    assert (a - b).coords == {0: 4, 1: Q, 2: -5}
    assert a + b == b + a
    with pytest.raises(ValueError):
        a + cls(*other_cell, {0: 1})
    assert a != cls(*other_cell, a.coords)
    # the same coordinates in another element type are a different element
    for other_cls, other, _, _ in CASES:
        if other_cls is not cls:
            assert a != other_cls(*other, a.coords)
    assert HomElem(3, 2, {0: 1}) != Delta1Elem(3, 1, {0: 1})


def test_elements_of_different_types_never_add():
    with pytest.raises(ValueError, match="HomElem.*Delta1Elem"):
        HomElem(3, 2, {0: 1}) + Delta1Elem(3, 2, {0: 1})
    with pytest.raises(ValueError, match=r"\(3, 2\) vs HomElem\(3, 1\)"):
        HomElem(3, 2, {0: 1}) - HomElem(3, 1, {0: 1})


@pytest.mark.parametrize("make, text", [
    (lambda: LieElem((1, 2, 3), {2: 1}), r"LieElem\(\(1, 2, 3\)\): basis index 2 outside range\(2\)"),
    (lambda: HomElem(3, 2, {99: 1}), r"HomElem\(3, 2\): basis index 99 outside range\(6\)"),
    (lambda: HomElem(2, 5, {0: 1}), r"HomElem\(2, 5\): basis index 0 outside range\(0\)"),
    (lambda: Delta1Elem(3, 1, {-1: Q, 0: 1}), r"Delta1Elem\(3, 1\): basis index -1 outside range\(3\)"),
], ids=["lie", "hom", "hom-empty", "delta1-negative"])
def test_out_of_range_basis_index_raises(make, text):
    with pytest.raises(ValueError, match=text):
        make()


def test_last_basis_index_is_accepted():
    assert LieElem((1, 2, 3), {1: 1}).terms() == [(1, ((1, 3), 2))]
    assert HomElem(3, 2, {5: 1}).coords == {5: 1}
    assert Delta1Elem(3, 1, {2: Q}).coords == {2: Q}
    assert HomElem(3, 2, {99: 0}).is_zero()  # zero coefficients are dropped first
