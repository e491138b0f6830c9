import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep import INF, UpSet
from commrep.upset import GridSizeError, max_elements, min_elements

from util import brute_complement_maxima

dim = st.shared(st.integers(min_value=1, max_value=3), key="d")
point = dim.flatmap(lambda d: st.tuples(*[st.integers(0, 5)] * d))
points = st.lists(point, max_size=6)
upsets = st.builds(lambda d, ps: UpSet.from_points(d, ps), dim, points)


def test_normalize_examples():
    u = UpSet.from_points(2, [(10, 20), (30, 20), (30, 5)])
    assert u.gens == ((10, 20), (30, 5))
    assert UpSet.from_points(2, []).gens == ()
    assert UpSet.from_points(2, [(0, 0)]).gens == ((0, 0),)


def test_member_examples():
    u = UpSet.from_points(2, [(10, 20), (30, 5)])
    assert u.member((29, INF))
    assert not u.member((9, INF))
    assert not UpSet.from_points(2, []).member((INF, INF))
    assert UpSet.from_points(2, [(0, 0)]).member((INF, INF))


def test_union_intersection_examples():
    a = UpSet.from_points(2, [(2, 0)])
    b = UpSet.from_points(2, [(0, 3)])
    assert (a & b).gens == ((2, 3),)
    empty = UpSet.from_points(2, [])
    assert (a | empty) == a
    c = UpSet.from_points(2, [(1, 2), (2, 1)])
    d = UpSet.from_points(2, [(2, 2)])
    assert (c & d).gens == ((2, 2),)


def test_complement_maxima_examples():
    u = UpSet.from_points(2, [(10, 20), (30, 5)])
    assert u.complement_maxima() == {(9, INF), (29, 19), (INF, 4)}
    assert UpSet.from_points(3, []).complement_maxima() == {(INF, INF, INF)}
    assert UpSet.from_points(2, [(0, 0)]).complement_maxima() == set()


def test_complement_maxima_matches_brute_force():
    rng = random.Random(7)
    for _ in range(80):
        d = rng.randrange(1, 4)
        u = UpSet.from_points(
            d,
            [
                tuple(rng.randrange(5) for _ in range(d))
                for _ in range(rng.randrange(5))
            ],
        )
        assert u.complement_maxima() == brute_complement_maxima(u)


def test_complement_maxima_exact_for_big_coordinates():
    u = UpSet.from_points(2, [(2**53 + 1, 0), (0, 5)])
    assert u.complement_maxima() == {(2**53, 4)}
    u = UpSet.from_points(3, [(2**60, 0, 1), (0, 3, 0)])
    assert u.complement_maxima() == {(2**60 - 1, 2, INF), (INF, 2, 0)}


def test_complement_maxima_offset_matches_brute_force():
    # Adding OFF to every nonzero generator coordinate keeps all order
    # relations between generators and candidates g_i - 1, so each finite
    # coordinate of each maximum moves up by OFF.
    off = 2**60
    rng = random.Random(9)
    for _ in range(80):
        d = rng.randrange(1, 4)
        u = UpSet.from_points(
            d,
            [
                tuple(rng.randrange(5) for _ in range(d))
                for _ in range(rng.randrange(5))
            ],
        )
        big = UpSet.from_points(d, [tuple(c and c + off for c in g) for g in u.gens])
        want = {
            tuple(c if c == INF else c + off for c in p)
            for p in brute_complement_maxima(u)
        }
        assert big.complement_maxima() == want


def test_complement_maxima_is_antichain_outside():
    rng = random.Random(8)
    for _ in range(40):
        d = rng.randrange(1, 4)
        u = UpSet.from_points(
            d,
            [tuple(rng.randrange(6) for _ in range(d)) for _ in range(4)],
        )
        maxima = u.complement_maxima()
        for p in maxima:
            assert not u.member(p)
            for q in maxima:
                assert p == q or not all(x <= y for x, y in zip(p, q))


def test_grid_guard():
    u = UpSet.from_points(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2), (4, 5, 6)])
    with pytest.raises(GridSizeError, match="exceed"):
        u.complement_maxima(grid_limit=10)


def test_direct_construction_requires_antichain():
    with pytest.raises(ValueError, match="antichain"):
        UpSet(2, ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        UpSet(2, ((2, 2), (1, 3)))  # unsorted


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        UpSet.from_points(2, [(1, 2, 3)])
    with pytest.raises(ValueError, match="dimension"):
        UpSet.from_points(2, [(1, 1)]) | UpSet.from_points(3, [(1, 1, 1)])


def test_shift():
    u = UpSet.from_points(2, [(2, 3)])
    assert u.shift((0, 1)).gens == ((2, 2),)
    assert u.shift((5, 5)).gens == ((0, 0),)


def test_min_max_elements():
    pts = [(0, 0), (1, 1), (0, 2), (2, 0)]
    assert min_elements(pts) == {(0, 0)}
    assert max_elements(pts) == {(1, 1), (0, 2), (2, 0)}


@given(upsets, upsets)
@settings(max_examples=60)
def test_member_agrees_with_box_scan(a, b):
    bound = max((c for g in a.gens + b.gens for c in g), default=0) + 1
    union = a | b
    inter = a & b
    for x in product(range(bound + 1), repeat=a.dim):
        assert union.member(x) == (a.member(x) or b.member(x))
        assert inter.member(x) == (a.member(x) and b.member(x))


@given(upsets, upsets, upsets)
@settings(max_examples=60)
def test_distributive_lattice_laws(a, b, c):
    assert a | b == b | a
    assert a & b == b & a
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)
    assert a | a == a and a & a == a
    assert a & (b | c) == (a & b) | (a & c)


@given(upsets)
def test_gens_are_sorted_minimal(u):
    assert u.gens == tuple(sorted(min_elements(u.gens)))
    rebuilt = UpSet.from_points(u.dim, u.gens)
    assert rebuilt == u
