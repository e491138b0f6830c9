"""Shared test helpers: small lattice catalog, random generators, and
brute-force oracles that recompute results by direct scanning."""

from __future__ import annotations

import math
import operator
from itertools import product

from commrep import (
    INF,
    CommEquality,
    ExtRep,
    Lattice,
    Rep,
    UpSet,
    chain,
    divisor_lattice,
    equal_fn,
    to_equalities,
)
from commrep.upset import max_elements
from commrep.vectors import residual, unit, vadd, vleq, vsub, vsup, zero


def bool4() -> Lattice:
    # 0 < a, b < 1 with a, b incomparable
    names = ["0", "a", "b", "1"]
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    return Lattice.from_leq(names, leq)


def m3() -> Lattice:
    # three incomparable atoms between bottom and top
    names = ["0", "x", "y", "z", "1"]
    leq = [[i == j or i == 0 or j == 4 for j in range(5)] for i in range(5)]
    return Lattice.from_leq(names, leq)


def n5() -> Lattice:
    # pentagon: 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
    names = ["0", "a", "c", "b", "1"]
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    leq = [[i == j or (i, j) in order for j in range(5)] for i in range(5)]
    return Lattice.from_leq(names, leq)


def lattice_catalog() -> list[Lattice]:
    return [
        chain(1),
        chain(2),
        chain(3),
        chain(4),
        bool4(),
        m3(),
        n5(),
        chain(6),
        divisor_lattice(12),
    ]


def small_lattices(max_size: int = 6) -> list[Lattice]:
    return [lat for lat in lattice_catalog() if lat.m <= max_size]


def random_rep(rng, lat, dim, max_coord=5, max_points=6) -> Rep:
    n = rng.randrange(max_points + 1)
    pts = [
        (
            tuple(rng.randrange(max_coord + 1) for _ in range(dim)),
            rng.randrange(lat.m),
        )
        for _ in range(n)
    ]
    return Rep(lat, dim, pts)


def random_ext_vec(rng, dim, max_coord=6):
    return tuple(
        INF if rng.random() < 0.3 else rng.randrange(max_coord + 1)
        for _ in range(dim)
    )


def coord_bound(rep: Rep) -> int:
    """A box edge beyond every prescribed coordinate; values are constant
    in each coordinate past this point."""
    top = max((c for vec, _ in rep.points for c in vec), default=0)
    return top + 2


def hyperplane(dim: int, total: int) -> list:
    """The antichain {x in N^dim : sum x = total}, sorted."""
    if dim == 1:
        return [(total,)]
    return [(c,) + x for c in range(total + 1) for x in hyperplane(dim - 1, total - c)]


def box(bound: int, dim: int):
    return product(range(bound + 1), repeat=dim)


def brute_eval_ext(rep: Rep, x) -> int:
    """Continuation value as the meet over all finite points below x,
    truncated to a box that provably contains a minimizer."""
    b = coord_bound(rep)
    ranges = [
        range(int(min(c, b)) + 1) if not math.isinf(c) else range(b + 1) for c in x
    ]
    return rep.lattice.big_meet(rep.eval(v) for v in product(*ranges))


def brute_eval(rep: Rep, x) -> int:
    """Value at a finite or extended vector: the meet of the values at the
    prescribed vectors below x, scanning every point."""
    return rep.lattice.big_meet(val for vec, val in rep.points if vleq(vec, x))


def brute_witness(rep: Rep, x) -> tuple:
    """The supremum of the prescribed vectors below x, or the zero vector."""
    b = zero(rep.dim)
    for vec, _ in rep.points:
        if vleq(vec, x):
            b = vsup(b, vec)
    return b


def brute_check_complete(rep: Rep, ext: ExtRep) -> bool:
    """check_complete by scanning every point of ``ext`` for each query,
    with the values taken from :func:`brute_eval` and the complement maxima
    recomputed for every sublevel."""
    lat = rep.lattice
    for vec, val in ext.points:
        if brute_eval(rep, vec) != val:
            return False
    for a in range(lat.m):
        level = rep.sublevel(a)
        for b in level.gens:
            bound = lat.big_meet(d for dv, d in ext.points if vleq(dv, b))
            if not lat.leq(bound, a):
                return False
        for b in level.complement_maxima():
            bound = lat.big_join(d for dv, d in ext.points if vleq(b, dv))
            if lat.leq(bound, a):
                return False
    return True


def brute_min_elements(points) -> set:
    """Minimal elements by comparing every pair of points."""
    pts = set(points)
    return {p for p in pts if not any(q != p and vleq(q, p) for q in pts)}


def brute_max_elements(points) -> set:
    pts = set(points)
    return {p for p in pts if not any(q != p and vleq(p, q) for q in pts)}


def brute_meet_profile(rep: Rep) -> dict:
    """The meet profile folded point by point, re-minimising every bucket
    together with its whole old antichain and keeping the buckets a point
    does not lower."""
    lat = rep.lattice
    prof = {lat.top: {zero(rep.dim)}}
    for vec, val in rep.points:
        updates = {}
        for mval, anti in prof.items():
            nv = lat.meet(mval, val)
            bucket = updates.setdefault(nv, set())
            for s in anti:
                bucket.add(vsup(s, vec))
        for nv, vecs in updates.items():
            prof[nv] = brute_min_elements(prof.get(nv, set()) | vecs)
    return {v: tuple(sorted(a)) for v, a in prof.items()}


def brute_min_leq(rep: Rep, alpha: int, bound: int | None = None) -> set:
    """Minimal box vectors whose value drops below alpha, by direct scan."""
    b = coord_bound(rep) if bound is None else bound
    hits = [v for v in box(b, rep.dim) if rep.lattice.leq(rep.eval(v), alpha)]
    return brute_min_elements(hits)


def brute_min_eq(rep: Rep, alpha: int, bound: int | None = None) -> set:
    b = coord_bound(rep) if bound is None else bound
    hits = [v for v in box(b, rep.dim) if rep.eval(v) == alpha]
    return brute_min_elements(hits)


def brute_complement_maxima(upset: UpSet, bound: int | None = None) -> set:
    """Maximal points outside the set, scanning the whole extended box.

    A point outside the set is maximal exactly when bumping every finite
    coordinate lands inside (the complement is downward closed).
    """
    if bound is None:
        bound = max((c for g in upset.gens for c in g), default=0) + 1
    axis = list(range(bound + 1)) + [INF]
    out = set()
    for p in product(axis, repeat=upset.dim):
        if upset.member(p):
            continue
        ok = True
        for i, c in enumerate(p):
            if math.isinf(c):
                continue
            bumped = p[:i] + (c + 1,) + p[i + 1 :]
            if not upset.member(bumped):
                ok = False
                break
        if ok:
            out.add(p)
    return out


def scan_complement_maxima(upset: UpSet) -> set:
    """The maxima outside the set by adding one generator at a time, with
    list scans for the maxima above it and for the near ones (the kernel
    that the bitmask form of ``UpSet.complement_maxima`` replaced)."""
    maxima = [(INF,) * upset.dim]
    for g in upset.gens:
        above, kept = [], []
        for p in maxima:
            (above if all(map(operator.le, g, p)) else kept).append(p)
        for i, c in enumerate(g):
            if c == 0:
                continue
            near = [r for r in kept if r[i] == c - 1]
            split = (p[:i] + (c - 1,) + p[i + 1 :] for p in above)
            kept.extend(max_elements(
                q for q in split if not any(all(map(operator.le, q, r)) for r in near)
            ))
        maxima = kept
    return set(maxima)


def brute_hc7_holds(rep: Rep) -> bool:
    """Join distributivity compared pointwise on a sufficient box."""
    lat = rep.lattice
    b = coord_bound(rep)
    for i in range(lat.m):
        for j in range(i, lat.m):
            k = lat.join(i, j)
            for x in box(b, rep.dim):
                lhs = rep.eval(tuple(c + (1 if t == k else 0) for t, c in enumerate(x)))
                rhs = lat.join(
                    rep.eval(tuple(c + (1 if t == i else 0) for t, c in enumerate(x))),
                    rep.eval(tuple(c + (1 if t == j else 0) for t, c in enumerate(x))),
                )
                if lhs != rhs:
                    return False
    return True


def brute_hc7_separator(rep: Rep, i: int, j: int, k: int, alpha: int):
    """A generator in just one of {x : F(x + e_k) <= alpha} and
    {x : F(x + e_i) <= alpha and F(x + e_j) <= alpha}, or None, with every
    shift and the intersection rebuilt through UpSet.from_points."""
    level = rep.sublevel(alpha)

    def shift(t):
        e = unit(rep.dim, t)
        return UpSet.from_points(rep.dim, (residual(g, e) for g in level.gens))

    ek = shift(k)
    si, sj = shift(i), shift(j)
    both = UpSet.from_points(rep.dim, (vsup(a, b) for a in si.gens for b in sj.gens))
    for g in ek.gens + both.gens:
        if not (ek.member(g) and both.member(g)):
            return g
    return None


def brute_hc7_witness(rep: Rep):
    """The first hc7 counterexample, searched pair by pair with the shifts
    of each pair computed afresh, or None."""
    lat = rep.lattice
    for i in range(lat.m):
        for j in range(i + 1, lat.m):
            k = lat.join(i, j)
            for alpha in range(lat.m):
                x = brute_hc7_separator(rep, i, j, k, alpha)
                if x is None:
                    continue
                lhs = rep.eval(vadd(x, unit(rep.dim, k)))
                rhs = lat.join(
                    rep.eval(vadd(x, unit(rep.dim, i))),
                    rep.eval(vadd(x, unit(rep.dim, j))),
                )
                return {
                    "property": "hc7",
                    "joined": (lat.name(i), lat.name(j)),
                    "join": lat.name(k),
                    "point": x,
                    "value_at_join": lat.name(lhs),
                    "join_of_values": lat.name(rhs),
                }
    return None


def brute_hc8(rep: Rep):
    """The first hc8 counterexample, scanning every b in the box below each
    canonical point a and nesting eval(b) back in place of b, or None."""
    lat = rep.lattice
    for a, alpha in rep.canonical().points:
        for b in product(*(range(c + 1) for c in a)):
            j = rep.eval(b)
            nested = vadd(vsub(a, b), unit(rep.dim, j))
            v = rep.eval(nested)
            if not lat.leq(v, alpha):
                return {
                    "property": "hc8",
                    "point": a,
                    "inner": b,
                    "inner_value": lat.name(j),
                    "value": lat.name(v),
                    "bound": lat.name(alpha),
                }
    return None


def count_calls(monkeypatch, owner, name) -> list:
    """The arguments of every call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def graph_sample(rep: Rep, bound: int | None = None):
    """The function's graph restricted to a box, as a dict."""
    b = coord_bound(rep) if bound is None else bound
    return {v: rep.eval(v) for v in box(b, rep.dim)}


def brute_monotone_closed_rep(lattice: Lattice, pairs) -> Rep:
    """Largest sequence with boundedness and monotony below the given points,
    with every constraint closed explicitly under replacing one occurrence
    by a smaller element."""
    m = lattice.m
    work = [(unit(m, j), j) for j in range(m)]
    work.extend((tuple(v), val) for v, val in pairs)
    seen = set(work)
    while work:
        b, beta = work.pop()
        for j in range(m):
            if b[j] == 0:
                continue
            for i in range(m):
                if i == j or not lattice.leq(i, j):
                    continue
                moved = vadd(vsub(b, unit(m, j)), unit(m, i))
                item = (moved, beta)
                if item not in seen:
                    seen.add(item)
                    work.append(item)
    return Rep(lattice, m, seen)


def brute_reduced_equalities(rep: Rep) -> tuple[CommEquality, ...]:
    """Equality reduction by materialising the closure of the remaining
    equalities for every trial and comparing whole functions, trying the
    equalities in the order of their spelled-out argument tuples."""
    lat = rep.lattice

    def args(e: CommEquality) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(e.vec) for _ in range(c))

    def trivial(e: CommEquality) -> bool:
        if not args(e):
            return e.rhs == lat.top
        return args(e) == (e.rhs,)

    kept = [e for e in to_equalities(rep) if not trivial(e)]
    for e in sorted(kept, key=lambda q: (len(args(q)), args(q), q.rhs)):
        rest = [q for q in kept if q != e]
        closed = brute_monotone_closed_rep(lat, [(q.vec, q.rhs) for q in rest])
        if equal_fn(closed, rep):
            kept = rest
    return tuple(kept)
