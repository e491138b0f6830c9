import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commrep import (
    INF,
    Rep,
    as_ext_vec,
    chain,
    as_nat_vec,
    is_finite_vec,
    residual,
    unit,
    vadd,
    vinf,
    vleq,
    vsub,
    vsup,
    zero,
)

coord = st.one_of(st.integers(min_value=0, max_value=8), st.just(INF))
dim = st.shared(st.integers(min_value=1, max_value=4), key="dim")
vec = dim.flatmap(lambda d: st.tuples(*[coord] * d))
nat_vec = dim.flatmap(
    lambda d: st.tuples(*[st.integers(min_value=0, max_value=8)] * d)
)


def test_examples():
    assert vsup((10, 20), (30, 5)) == (30, 20)
    assert vadd((INF, 3), (1, 1)) == (INF, 4)
    assert vsub((INF, 3), (2, 1)) == (INF, 2)
    assert vinf((3, INF), (3, INF)) == (3, INF)
    assert vsub((3, 4), (3, 4)) == (0, 0)
    assert unit(3, 1) == (0, 1, 0)
    assert zero(2) == (0, 0)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        vleq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="dimension"):
        vsup((1,), (1, 2))


def test_unit_index_out_of_range():
    assert unit(3, 2) == (0, 0, 1)
    for i in (3, -1):
        with pytest.raises(ValueError, match=f"^unit index {i} out of range for dimension 3$"):
            unit(3, i)


def test_sub_requires_domination():
    with pytest.raises(ValueError, match="subtract"):
        vsub((1, 5), (2, 0))
    with pytest.raises(ValueError):
        vsub((3,), (INF,))


def test_coercion():
    assert as_nat_vec([1, 2]) == (1, 2)
    with pytest.raises(ValueError):
        as_nat_vec([1, INF])
    with pytest.raises(ValueError):
        as_nat_vec([-1])
    with pytest.raises(ValueError):
        as_nat_vec([1.5])
    with pytest.raises(ValueError):
        as_nat_vec([True])
    assert as_ext_vec([1, INF]) == (1, INF)
    with pytest.raises(ValueError, match="dimension"):
        as_ext_vec([1], dim=2)


def test_huge_finite_coordinates_subtract_exactly():
    # 2^1100 is an int beyond every float; only INF coordinates stay INF
    big = 2**1100
    assert vsub((big,), (1,)) == (big - 1,)
    assert vsub((big, INF), (big, 3)) == (0, INF)
    assert vsub((INF, big), (INF, big - 5)) == (INF, 5)
    with pytest.raises(ValueError, match="subtract"):
        vsub((big,), (big + 1,))
    with pytest.raises(ValueError, match="subtract"):
        vsub((big,), (INF,))
    assert residual((big, 7), (1, INF)) == (big - 1, 0)
    assert residual((INF, big), (big, big + 1)) == (INF, 0)
    rep = Rep(chain(3), 2, [((big, 2), 1), ((3, big + 4), 0)])
    moved = rep.shifted((5, 1))
    assert moved.points == (((0, big + 3), 0), ((big - 5, 1), 1))
    assert moved.eval((big, 1)) == 1 == rep.eval((big + 5, 2))


def test_is_finite_vec():
    assert is_finite_vec((1, 2))
    assert not is_finite_vec((1, INF))


def test_finite_coordinates_stay_ints():
    s = vsub((INF, 5), (3, 2))
    assert s[0] == INF and isinstance(s[1], int)
    a = vadd((2, 3), (4, 0))
    assert all(isinstance(c, int) for c in a)


@given(vec, vec)
def test_sup_inf_consistency(a, b):
    assert vleq(a, b) == (vsup(a, b) == b) == (vinf(a, b) == a)


@given(vec, vec)
def test_absorption(a, b):
    assert vinf(a, vsup(a, b)) == a
    assert vsup(a, vinf(a, b)) == a


@given(vec, vec, vec)
def test_partial_order(a, b, c):
    assert vleq(a, a)
    if vleq(a, b) and vleq(b, a):
        assert a == b
    if vleq(a, b) and vleq(b, c):
        assert vleq(a, c)


@given(nat_vec, nat_vec)
def test_add_sub_round_trip(a, b):
    assert vsub(vadd(a, b), b) == a


@given(vec, vec)
def test_residual_always_defined(a, b):
    r = residual(a, b)
    assert vleq(r, a)
    assert vadd(r, vinf(a, b)) == a


@given(vec, vec)
def test_residual_infinity_rule(a, b):
    r = residual(a, b)
    for ra, xa in zip(r, a):
        if math.isinf(xa):
            assert math.isinf(ra)
