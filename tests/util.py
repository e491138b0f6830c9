"""Shared test helpers: small lattice catalog, random generators, and
brute-force oracles that recompute results by direct scanning."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from commrep import (
    INF,
    CommEquality,
    Lattice,
    Rep,
    UpSet,
    chain,
    divisor_lattice,
    equal_fn,
    to_equalities,
)
from commrep.upset import min_elements
from commrep.vectors import unit, vadd, vsub


def bool4() -> Lattice:
    # 0 < a, b < 1 with a, b incomparable
    names = ["0", "a", "b", "1"]
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    return Lattice.from_leq(names, np.array(leq, dtype=bool))


def m3() -> Lattice:
    # three incomparable atoms between bottom and top
    names = ["0", "x", "y", "z", "1"]
    leq = np.eye(5, dtype=bool)
    leq[0, :] = True
    leq[:, 4] = True
    return Lattice.from_leq(names, leq)


def n5() -> Lattice:
    # pentagon: 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
    names = ["0", "a", "c", "b", "1"]
    leq = np.eye(5, dtype=bool)
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    for i, j in order:
        leq[i, j] = True
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


def brute_min_leq(rep: Rep, alpha: int, bound: int | None = None) -> set:
    """Minimal box vectors whose value drops below alpha, by direct scan."""
    b = coord_bound(rep) if bound is None else bound
    hits = [v for v in box(b, rep.dim) if rep.lattice.leq(rep.eval(v), alpha)]
    return min_elements(hits)


def brute_min_eq(rep: Rep, alpha: int, bound: int | None = None) -> set:
    b = coord_bound(rep) if bound is None else bound
    hits = [v for v in box(b, rep.dim) if rep.eval(v) == alpha]
    return min_elements(hits)


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
