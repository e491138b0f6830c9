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
from commrep import INF, Rep, UpSet, chain, upset
from commrep.upset import _BLOCK, max_elements, min_elements
from commrep.vectors import residual, vadd, vleq, vsup

from util import (
    brute_complement_maxima,
    brute_max_elements,
    brute_min_elements,
    count_split_drops,
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
    split_drops = 0  # sets where a replacement lies below another of its split
    for _ in range(200):
        u = random_upset(rng)
        assert u.complement_maxima() == brute_complement_maxima(u), u
        seen.add((u.dim, len(u.gens) > 4, u.is_empty, u.gens == ((0,) * u.dim,)))
        split_drops += count_split_drops(u) > 0
    assert {d for d, *_ in seen} == set(SIDE)
    assert any(big for _, big, _, _ in seen)
    assert any(empty for *_, empty, _ in seen)
    assert any(zero for *_, zero in seen)
    assert split_drops >= 29, split_drops


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


def grouped_upset(rng, d: int) -> UpSet:
    """Up to 9 generators whose coordinate 0 takes one to three values, so
    that several share it, 0 among them at least half the time; about
    every fifth set also holds a generator with a tail of zeros."""
    firsts = rng.sample(range(SIDE[d]), rng.randint(1, 3))
    if rng.random() < 0.5 and 0 not in firsts:
        firsts[0] = 0
    pts = [
        (rng.choice(firsts),) + tuple(rng.randrange(SIDE[d]) for _ in range(d - 1))
        for _ in range(rng.randint(0, 8))
    ]
    if rng.random() < 0.2:
        pts.append((rng.choice(firsts),) + (0,) * (d - 1))
    return UpSet.from_points(d, pts)


def test_complement_maxima_sweep_matches_brute_force_and_scan():
    # The sweep over coordinate 0 against the box scan and the list-scan
    # kernel, on generators in groups of equal g_0.  Each case also runs
    # with 2^60 added to the nonzero coordinates 0, to the other nonzero
    # coordinates, or to both: each finite coordinate of each maximum
    # moves up by its own offset.
    rng = random.Random(23)
    off = 2**60
    shared = zero_group = zero_tail = early = 0
    dims = set()
    for case in range(300):
        d = 1 + case % 5
        u = grouped_upset(rng, d)
        want = brute_complement_maxima(u)
        assert u.complement_maxima() == want == scan_complement_maxima(u), u
        offs = [(off, 0), (0, off), (off, off)][case % 3]
        shift = [offs[0]] + [offs[1]] * (d - 1)
        big = UpSet.from_points(d, [tuple(c and c + s for c, s in zip(g, shift)) for g in u.gens])
        big_want = {tuple(c + s for c, s in zip(p, shift)) for p in want}
        assert big.complement_maxima() == big_want == scan_complement_maxima(big), big
        firsts = [g[0] for g in u.gens]
        shared += len(set(firsts)) < len(firsts)
        zero_group += firsts.count(0) >= 2
        tails = [g[1:] for g in u.gens if not any(g[1:])]
        zero_tail += bool(tails) and d > 1
        early += bool(tails) and len(set(firsts)) > 1
        dims.add(d)
    assert dims == set(SIDE)
    assert shared >= 70 and zero_group >= 35 and zero_tail >= 75 and early >= 20, (
        shared, zero_group, zero_tail, early)


def test_complement_maxima_sweep_examples():
    # d = 1: the one generator (v,) leaves (v - 1,) outside, none when v = 0
    assert UpSet.from_points(1, [(5,)]).complement_maxima() == {(4,)}
    assert UpSet.from_points(1, [(0,)]).complement_maxima() == set()
    assert UpSet.from_points(1, []).complement_maxima() == {(INF,)}
    # a group at g_0 = 0 emits nothing: (0, 3) removes the tail (INF,)
    # there, and only (INF, 2) is left
    assert UpSet.from_points(2, [(0, 3)]).complement_maxima() == {(INF, 2)}
    u = UpSet.from_points(3, [(0, 5, 0), (0, 0, 5), (2, 1, 1)])
    assert u.complement_maxima() == brute_complement_maxima(u) == {
        (1, 4, 4), (INF, 0, 4), (INF, 4, 0)}
    # a tail of zeros empties the live tails, and its generator comes last
    # since every later one would lie above it
    u = UpSet.from_points(2, [(1, 4), (2, 2), (3, 0)])
    assert u.complement_maxima() == {(0, INF), (1, 3), (2, 1)}
    # a tail made and removed inside one group is not emitted: (4, 0, 1)
    # replaces the all-INF tail by (INF, 0), which (4, 1, 0) removes again
    u = UpSet.from_points(3, [(4, 1, 0), (4, 0, 1)])
    assert u.complement_maxima() == brute_complement_maxima(u) == {
        (3, INF, INF), (INF, 0, 0)}


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
    widest = split_drops = 0
    for case in range(90):
        d = 2 + case % 6
        u = wide_antichain(rng, d)
        if case % 3 == 0:
            u = UpSet.from_points(d, [tuple(c + 2**60 for c in g) for g in u.gens])
        assert u.complement_maxima() == scan_complement_maxima(u), u
        widest = max(widest, len(u.gens))
        split_drops += count_split_drops(u) > 0
    assert widest >= 250, widest
    assert split_drops >= 73, split_drops


def test_complement_maxima_hyperplane_in_eight_dimensions():
    # hyperplane() lists the points in order: a sorted antichain
    u = UpSet._from_antichain(8, tuple(hyperplane(8, 8)))
    start = time.perf_counter()
    maxima = u.complement_maxima()
    elapsed = time.perf_counter() - start
    assert maxima == set(hyperplane(8, 7))
    assert len(maxima) == 3432
    assert elapsed < 2.0, elapsed


def matching(k: int) -> UpSet:
    # {e_2i + e_2i+1 : i < k} in 2k dimensions, a sorted antichain
    d = 2 * k
    gens = sorted(tuple(int(j // 2 == i) for j in range(d)) for i in range(k))
    return UpSet._from_antichain(d, tuple(gens))


def matching_maxima(k: int) -> set:
    # 0 on one coordinate of each pair and INF on the other
    return {sum(choice, ()) for choice in product([(0, INF), (INF, 0)], repeat=k)}


@pytest.mark.parametrize("k", [8, 9, 10])
def test_complement_maxima_of_a_matching_in_closed_form(k):
    # Outside the upset of {e_2i + e_2i+1 : i < k} every pair (2i, 2i+1)
    # has a 0 coordinate, so the maxima put 0 on one coordinate of each
    # pair and INF on the other: 2^k of them.
    maxima = matching(k).complement_maxima()
    assert maxima == matching_maxima(k)
    assert len(maxima) == 2**k


def test_complement_maxima_decides_with_its_own_masks(monkeypatch):
    # One dominance rule per replacement, answered by the per-value masks:
    # neither max_elements nor the minima kernel under it is called.
    rng = random.Random(7)
    sets = [random_upset(rng) for _ in range(200)]
    rng = random.Random(14)
    sets += [wide_antichain(rng, 2 + case % 6) for case in range(90)]
    sets += [matching(8), UpSet._from_antichain(5, tuple(hyperplane(5, 6)))]
    want = [u.complement_maxima() for u in sets]

    def forbidden(*args):
        raise AssertionError("complement_maxima called the minima kernel")

    monkeypatch.setattr(upset, "max_elements", forbidden)
    monkeypatch.setattr(upset, "_minima", forbidden)
    assert [u.complement_maxima() for u in sets] == want
    assert want[-2] == matching_maxima(8) and want[-1] == set(hyperplane(5, 5))


def run_distinct_maxima(n: int, rss_mb: int, seconds: float) -> None:
    # n generators in three dimensions with distinct coordinates near 2^62
    # (x rising, y falling: an antichain), 2n + 1 maxima, in a subprocess
    # so that the peak RSS is the kernel's own; every tenth generator is
    # checked against the list-scan kernel.
    script = textwrap.dedent(f"""
        import random, resource, time
        from commrep import UpSet
        from util import scan_complement_maxima
        rng = random.Random(14)
        n, base = {n}, 2**62
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
        assert peak - before < {rss_mb}, f"{{peak - before}} MB above {{before}} MB"
        assert elapsed < {seconds}, f"{{elapsed:.2f}} s"
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


# Peak RSS the kernel may add on 4,000 generators, in MB: about 2 MB,
# since the sweep's masks hold the live tails only.
MAXIMA_RSS_MB = 13


def test_complement_maxima_memory_is_bounded():
    run_distinct_maxima(4000, MAXIMA_RSS_MB, 5)


def test_complement_maxima_memory_is_bounded_on_wide_input():
    # 16,000 generators, sorted by a rising coordinate 0: the sweep's masks
    # hold the few live tails, not the 32,001 maxima (about 0.14 s and
    # 4 MB on a 2-CPU x86-64 Linux host under Python 3.11).
    run_distinct_maxima(16000, 40, 2)


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


def wide_point_set(rng, d):
    """400 to 700 points that span several chunks of the minima kernel: an
    antichain (first coordinate rising, second falling, third rising, the
    rest random), points above some of its points, a few with INF
    coordinates, and repeats; on some sets every finite coordinate is
    offset by 2^60.  A point that lies above p on the first coordinate
    alone lies above no other antichain point, so once it falls in a later
    chunk than p, no point of its own chunk need lie below it."""
    n = rng.randrange(400, 560)
    offset = 2**60 if rng.random() < 0.4 else 0
    xs = sorted(rng.sample(range(10**6), n))
    ys = sorted(rng.sample(range(10**6), n), reverse=True)
    zs = sorted(rng.sample(range(10**6), n))
    anti = [
        (x, y, z, *(rng.randrange(10**6) for _ in range(d - 3)))[:d]
        for x, y, z in zip(xs, ys, zs)
    ]
    above = []
    for _ in range(rng.randrange(n // 5)):
        p = rng.choice(anti)
        if rng.random() < 0.5:
            above.append((p[0] + rng.randrange(10**6),) + p[1:])
        else:
            above.append(tuple(
                INF if rng.random() < 0.05 else c + rng.choice([0, 0, rng.randrange(10**6)])
                for c in p
            ))
    pts = [tuple(c if c == INF else c + offset for c in p) for p in anti + above]
    pts += rng.choices(pts, k=rng.randrange(28))
    rng.shuffle(pts)
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
    # Sets of several chunks.  A point that no point of its own chunk lies
    # below (above, for the maxima, whose chunks run in reverse order) but
    # that is not extremal has a dominator in an earlier chunk.
    chunked = across_min = across_max = 0
    for case in range(7):
        d = 1 + case % 5
        pts = wide_point_set(rng, d)
        mins, maxs = min_elements(pts), max_elements(iter(pts))
        assert mins == brute_min_elements(pts)
        assert maxs == brute_max_elements(pts)
        up, down = sorted(set(pts)), sorted(set(pts), reverse=True)
        chunked += len(up) > 2 * _BLOCK
        for i in range(0, len(up), _BLOCK):
            lo, hi = up[i : i + _BLOCK], down[i : i + _BLOCK]
            across_min += sum(
                not any(q != p and vleq(q, p) for q in lo) for p in set(lo) - mins
            )
            across_max += sum(
                not any(q != p and vleq(p, q) for q in hi) for p in set(hi) - maxs
            )
    assert chunked >= 4, chunked
    assert across_min >= 20 and across_max >= 20, (across_min, across_max)


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


# Peak RSS the two calls below may add, in MB: the blocked kernel adds
# about 12 MB; masks over all n points, n^2 / 8 bytes per list of masks,
# add about 100 MB at this n.
EXTREMES_RSS_MB = 40


def test_min_max_elements_memory_is_bounded():
    # A 20,000-point antichain in three dimensions near 2^60 (x rising,
    # y falling), with 2,000 points above it, in a subprocess so that the
    # peak RSS is the kernel's own.
    script = textwrap.dedent(f"""
        import random, resource, time
        from commrep.upset import max_elements, min_elements
        rng = random.Random(18)
        n, base = 20_000, 2**60
        xs = sorted(rng.sample(range(2**40), n))
        ys = sorted(rng.sample(range(2**40), n), reverse=True)
        zs = rng.sample(range(2**40), n)
        anti = [(base + x, base + y, base + z) for x, y, z in zip(xs, ys, zs)]
        pts = anti + [(x + 1, y, z) for x, y, z in anti[::10]]
        rng.shuffle(pts)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        start = time.perf_counter()
        mins, maxs = min_elements(pts), max_elements(pts)
        elapsed = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        assert mins == set(anti), len(mins)
        moved = {{(x + 1, y, z) for x, y, z in anti[::10]}}
        assert maxs == set(anti) - set(anti[::10]) | moved, len(maxs)
        assert peak - before < {EXTREMES_RSS_MB}, f"{{peak - before}} MB above {{before}} MB"
        assert elapsed < 20, f"{{elapsed:.2f}} s"
    """)
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(commrep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr


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
