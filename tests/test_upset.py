import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commrep
from commrep import INF, Rep, UpSet, chain
from commrep.upset import max_elements, min_elements
from commrep.vectors import residual, vadd, vsup

from util import (
    brute_complement_maxima,
    brute_max_elements,
    brute_min_elements,
    hyperplane,
    scan_complement_maxima,
)

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
    for d in range(1, 6):
        assert UpSet.from_points(d, []).complement_maxima() == {(INF,) * d}
        assert UpSet.from_points(d, [(0,) * d]).complement_maxima() == set()
    assert UpSet.from_points(3, [(0, 0, 7)]).complement_maxima() == {(INF, INF, 6)}


# Coordinates stay below SIDE[d] so that the brute-force box stays small.
SIDE = {1: 9, 2: 6, 3: 5, 4: 4, 5: 3}


def random_upset(rng, d=None, off=0) -> UpSet:
    """Dimension 1-5 unless given, up to 8 generators; some sets empty,
    some holding the zero generator.  ``off`` is added to every nonzero
    coordinate."""
    d = rng.randint(1, 5) if d is None else d
    pts = [
        tuple(rng.randrange(SIDE[d]) for _ in range(d))
        for _ in range(rng.randint(0, 8))
    ]
    if rng.random() < 0.05:
        pts.append((0,) * d)
    return UpSet.from_points(d, [tuple(c and c + off for c in p) for p in pts])


def test_complement_maxima_matches_brute_force():
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        u = random_upset(rng)
        assert u.complement_maxima() == brute_complement_maxima(u), u
        seen.add((u.dim, len(u.gens) > 4, u.is_empty, u.gens == ((0,) * u.dim,)))
    assert {d for d, *_ in seen} == set(SIDE)
    assert any(big for _, big, _, _ in seen)
    assert any(empty for *_, empty, _ in seen)
    assert any(zero for *_, zero in seen)


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
    for _ in range(120):
        u = random_upset(rng)
        big = UpSet.from_points(u.dim, [tuple(c and c + off for c in g) for g in u.gens])
        want = {
            tuple(c if c == INF else c + off for c in p)
            for p in brute_complement_maxima(u)
        }
        assert big.complement_maxima() == want


def test_complement_maxima_hyperplane_closed_form():
    # Outside the upset of {x : sum x = s} lie exactly the points of sum
    # below s, whose maxima are the points of sum s - 1.
    u = UpSet.from_points(6, hyperplane(6, 8))
    start = time.perf_counter()
    maxima = u.complement_maxima()
    elapsed = time.perf_counter() - start
    assert maxima == set(hyperplane(6, 7))
    assert len(maxima) == 792
    assert elapsed < 2.0, elapsed


# (low, high) sums of the generators per dimension, and at most this many
# of them: wide antichains whose maxima stay few enough for the scan
WIDE_SUMS = {2: (300, 600), 3: (25, 40), 4: (10, 14), 5: (6, 9), 6: (5, 7), 7: (4, 6)}
WIDE_COUNT = {2: 500, 3: 500, 4: 300, 5: 120, 6: 60, 7: 40}


def wide_antichain(rng, d: int) -> UpSet:
    # random compositions of s or s + 1 into d parts: the sum-s points are
    # pairwise incomparable, and a sum-(s + 1) point only lies above
    # sum-s points one unit below it
    s = rng.randrange(*WIDE_SUMS[d])
    pts = []
    for _ in range(rng.randrange(1, WIDE_COUNT[d] + 1)):
        cuts = sorted(rng.randrange(s + 2) for _ in range(d - 1))
        total = s + rng.randrange(2)
        cuts = [min(c, total) for c in cuts]
        pts.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [total])))
    return UpSet.from_points(d, pts)


def test_complement_maxima_matches_scan_kernel():
    # The bitmask kernel against the list-scan kernel it replaced, on wide
    # antichains in two to seven dimensions, every third moved up by 2^60.
    rng = random.Random(14)
    widest = 0
    for case in range(90):
        d = 2 + case % 6
        u = wide_antichain(rng, d)
        if case % 3 == 0:
            u = UpSet.from_points(d, [tuple(c + 2**60 for c in g) for g in u.gens])
        assert u.complement_maxima() == scan_complement_maxima(u), u
        widest = max(widest, len(u.gens))
    assert widest >= 250, widest


def test_complement_maxima_hyperplane_in_eight_dimensions():
    # hyperplane() lists the points in order: a sorted antichain
    u = UpSet._from_antichain(8, tuple(hyperplane(8, 8)))
    start = time.perf_counter()
    maxima = u.complement_maxima()
    elapsed = time.perf_counter() - start
    assert maxima == set(hyperplane(8, 7))
    assert len(maxima) == 3432
    assert elapsed < 2.0, elapsed


# Peak RSS the kernel may add in the run below, in MB: the masks take
# about 9 MB there, and about 17 MB when removed maxima keep their bits
# instead of handing them on.
MAXIMA_RSS_MB = 13


def test_complement_maxima_memory_is_bounded():
    # 4,000 generators in three dimensions with distinct coordinates near
    # 2^62 (x rising, y falling: an antichain), 8,001 maxima, in a
    # subprocess so that the peak RSS is the kernel's own.
    script = textwrap.dedent(f"""
        import random, resource, time
        from commrep import UpSet
        from util import scan_complement_maxima
        rng = random.Random(14)
        n, base = 4000, 2**62
        xs = sorted(rng.sample(range(2**40), n))
        ys = sorted(rng.sample(range(2**40), n), reverse=True)
        zs = rng.sample(range(2**40), n)
        u = UpSet._from_antichain(
            3, tuple((base + x, base + y, base + z) for x, y, z in zip(xs, ys, zs)))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        start = time.perf_counter()
        maxima = u.complement_maxima()
        elapsed = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        assert len(maxima) == 2 * n + 1, len(maxima)
        assert peak - before < {MAXIMA_RSS_MB}, f"{{peak - before}} MB above {{before}} MB"
        assert elapsed < 5, f"{{elapsed:.2f}} s"
        small = UpSet._from_antichain(3, u.gens[::10])
        assert small.complement_maxima() == scan_complement_maxima(small)
    """)
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(commrep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


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


def test_direct_construction_requires_antichain():
    message = "^generators must be a sorted antichain; use from_points$"
    with pytest.raises(ValueError, match=message):
        UpSet(2, ((1, 1), (2, 2)))  # dominated
    with pytest.raises(ValueError, match=message):
        UpSet(2, ((2, 2), (1, 3)))  # unsorted
    with pytest.raises(ValueError, match="^coordinates must be nonnegative, got -1$"):
        UpSet(2, ((0, -1),))
    with pytest.raises(ValueError, match="^expected dimension 2, got 3$"):
        UpSet(2, ((0, 1, 2),))


def test_from_points_equals_direct_construction():
    built = UpSet.from_points(2, [(2, 2), (1, 3), (3, 3), (1, 3)])
    direct = UpSet(2, ((1, 3), (2, 2)))
    assert built == direct and hash(built) == hash(direct)
    assert built.gens == direct.gens and built.dim == direct.dim
    with pytest.raises(AttributeError):
        built.gens = ()


BAD_VECTORS = {
    "negative": ((-1, 0), "coordinates must be nonnegative, got -1"),
    "inf": ((INF, 0), "bad coordinate inf"),
    "bool": ((True, 0), "bad coordinate True"),
    "dimension": ((1, 2, 3), "expected dimension 2, got 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_VECTORS))
def test_public_entry_points_check_their_vectors(case):
    vec, message = BAD_VECTORS[case]
    u = UpSet.from_points(2, [(1, 2)])
    rep = Rep(chain(3), 2, [((1, 2), 0)])
    calls = {
        "from_points": lambda: UpSet.from_points(2, [(0, 1), vec]),
        "shift": lambda: u.shift(vec),
        "UpSet": lambda: UpSet(2, (vec,)),
        "eval": lambda: rep.eval(vec),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message, name


def test_shift_union_intersection_match_brute_force():
    # The operations build their results from vectors they computed
    # themselves, without checking them again; the results are those of
    # the definitions, also with every third pair moved up by 2^60.
    rng = random.Random(16)
    for n in range(300):
        d = n % 5 + 1
        off = 2**60 if n % 3 == 2 else 0
        a, b = random_upset(rng, d, off), random_upset(rng, d, off)
        # 0, INF and every coordinate next to a generator's: membership
        # changes only between these values
        axis = sorted(
            {0, INF} | {c + t for g in a.gens + b.gens for c in g for t in (-1, 0, 1) if c + t >= 0}
        )
        s = tuple(rng.choice(axis[:-1]) for _ in range(d))
        union, inter, shifted = a | b, a & b, a.shift(s)
        assert union.gens == tuple(sorted(brute_min_elements(a.gens + b.gens)))
        assert inter.gens == tuple(
            sorted(brute_min_elements(vsup(x, y) for x in a.gens for y in b.gens))
        )
        assert shifted.gens == tuple(sorted(brute_min_elements(residual(g, s) for g in a.gens)))
        for _ in range(20):
            x = tuple(rng.choice(axis) for _ in range(d))
            assert union.member(x) == (a.member(x) or b.member(x))
            assert inter.member(x) == (a.member(x) and b.member(x))
            assert shifted.member(x) == a.member(vadd(x, s))


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


def random_point_set(rng, d):
    """Points with small coordinates, so that many compare; some repeated,
    some with INF coordinates, and on some sets every finite coordinate
    offset by 2^60."""
    n = rng.choice([0, 1, rng.randrange(2, 12), rng.randrange(12, 60)])
    offset = 2**60 if rng.random() < 0.3 else 0
    inf_rate = rng.choice([0.0, 0.0, 0.15])
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.2:
            pts.append(rng.choice(pts))
            continue
        pts.append(
            tuple(
                INF if rng.random() < inf_rate else offset + rng.randrange(5)
                for _ in range(d)
            )
        )
    return pts


def test_min_max_elements_match_pairwise_scan():
    rng = random.Random(7)
    sizes = set()
    for _ in range(600):
        d = rng.randint(1, 5)
        pts = random_point_set(rng, d)
        mins, maxs = min_elements(pts), max_elements(iter(pts))
        assert mins == brute_min_elements(pts)
        assert maxs == brute_max_elements(pts)
        sizes.add((len(set(pts)) > len(mins) > 1, len(set(pts)) > len(maxs) > 1))
    assert (True, True) in sizes  # antichains strictly inside the input occur


def test_min_max_elements_edge_cases():
    assert min_elements([]) == max_elements([]) == set()
    assert min_elements([(3, INF)]) == max_elements([(3, INF)]) == {(3, INF)}
    big = 2**60
    pts = [(big, INF), (big + 1, 0), (big, 0), (big, 0)]
    assert min_elements(pts) == {(big, 0)}
    assert max_elements(pts) == {(big, INF), (big + 1, 0)}
    for mixed in ([(1, 2), (1, 2, 3)], [(0, 0), (0, 0, 0)], [(5,), (1, 1), (1, 1)]):
        with pytest.raises(ValueError, match="dimension"):
            min_elements(mixed)
        with pytest.raises(ValueError, match="dimension"):
            max_elements(mixed)


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
    assert u.gens == tuple(sorted(brute_min_elements(u.gens)))
    rebuilt = UpSet.from_points(u.dim, u.gens)
    assert rebuilt == u
