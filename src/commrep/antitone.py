"""Antitone maps from N^d into a finite lattice, given by finite point sets.

A representation is a finite set of pairs (vector, element).  The function
it represents sends x to the meet of all prescribed values whose vector
lies below x (the empty meet being the top element); this is the largest
antitone function lying below every prescribed point.  The same rule,
applied verbatim to vectors with INF coordinates, evaluates the canonical
antitone continuation of the function to the INF-extended domain.

Besides evaluation, this module computes

  - level sets ``{x : F(x) <= alpha}`` as :class:`~commrep.upset.UpSet`,
  - the canonical representation (minimal vectors of each value class),
  - a complete representation: a finite subset of the extended graph
    through which exactly one antitone function passes,
  - the decision procedure :func:`check_complete` for that property,

and the pointwise comparisons and combinations used elsewhere.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .lattice import Lattice
from .upset import UpSet, min_elements
from .vectors import (
    INF,
    Vec,
    as_ext_vec,
    as_nat_vec,
    residual,
    vsup,
    zero,
)

__all__ = [
    "ExtRep",
    "Rep",
    "check_complete",
    "equal_fn",
    "join_fn",
    "le_pointwise",
    "step",
]


# Points per block of the dominance index: each block keeps at most this
# many masks of this many bits per coordinate.
_BLOCK = 256


class _Below:
    """Which of a fixed list of (vector, value) points lie at or below a query.

    A bitmap dominance index (Tan, Eng & Ooi, VLDB 2001).  For each
    coordinate it keeps the sorted distinct values and, for each rank, a
    bitmask (a Python int) of the points whose coordinate is at or below
    that value; the points below x are the AND over the coordinates of the
    mask at x's rank, which ``bisect`` finds.  Coordinates are only
    compared, so the index is exact for INF and for coordinates of any
    size.  The points are split into blocks of ``_BLOCK`` with masks of
    their own, so memory grows as n * d * _BLOCK bits rather than n^2 * d.
    The "above" direction is the same index over the negated vectors.
    """

    def __init__(self, points: Sequence[tuple[Vec, int]]):
        self._blocks = [
            self._block(points[i : i + _BLOCK]) for i in range(0, len(points), _BLOCK)
        ]

    @staticmethod
    def _block(chunk: Sequence[tuple[Vec, int]]):
        vecs = tuple(v for v, _ in chunk)
        axes = []
        for coords in zip(*vecs):
            vals = sorted(set(coords))
            rank = {c: r for r, c in enumerate(vals)}
            masks = [0] * len(vals)
            for j, c in enumerate(coords):
                masks[rank[c]] |= 1 << j
            for r in range(1, len(masks)):
                masks[r] |= masks[r - 1]
            axes.append((vals, masks))
        groups: dict[int, int] = {}
        for j, (_, e) in enumerate(chunk):
            groups[e] = groups.get(e, 0) | 1 << j
        return axes, tuple(groups.items()), vecs

    def _hits(self, x: Vec) -> Iterator[tuple[int, tuple, tuple]]:
        # (mask of the points below x, value groups, vectors) per block
        for axes, groups, vecs in self._blocks:
            mask = -1
            for (vals, masks), c in zip(axes, x):
                r = bisect_right(vals, c)
                mask = mask & masks[r - 1] if r else 0
                if not mask:
                    break
            else:
                yield mask, groups, vecs

    def values(self, x: Vec) -> set[int]:
        """The distinct values of the points at or below x."""
        return {e for mask, groups, _ in self._hits(x) for e, g in groups if mask & g}

    def vectors(self, x: Vec) -> Iterator[Vec]:
        """The vectors of the points at or below x."""
        for mask, _, vecs in self._hits(x):
            while mask:
                low = mask & -mask
                yield vecs[low.bit_length() - 1]
                mask ^= low


def _neg(v: Vec) -> Vec:
    """The mirror image: v <= w exactly when _neg(w) <= _neg(v)."""
    return tuple(-c for c in v)


class _PointSet:
    """What :class:`Rep` and :class:`ExtRep` share: sorted (vector, element)
    points over a lattice and a dimension.  Equality requires the same
    class, so a representation never equals an extended point set."""

    @classmethod
    def _from_checked(cls, lattice: Lattice, dim: int, points: Sequence):
        # points must be sorted (vector, element index) pairs with distinct,
        # already checked vectors of dimension dim, finite for a Rep.
        self = object.__new__(cls)
        self._setup(lattice, dim, points)
        return self

    def _setup(self, lattice: Lattice, dim: int, points: Sequence) -> None:
        self.lattice = lattice
        self.dim = dim
        self.points: tuple[tuple[Vec, int], ...] = tuple(points)

    def _compatible(self, other) -> None:
        if self.lattice != other.lattice:
            raise ValueError("representations use different lattices")
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.lattice == other.lattice
            and self.dim == other.dim
            and self.points == other.points
        )

    def __hash__(self) -> int:
        return hash((self.lattice, self.dim, self.points))

    def __repr__(self) -> str:
        pts = ", ".join(
            f"({list(v)}, {self.lattice.name(e)})" for v, e in self.points
        )
        return f"{type(self).__name__}(dim={self.dim}, points=[{pts}])"


class Rep(_PointSet):
    """A finite representation of an antitone map from N^dim into a lattice.

    Points may be passed in any order; duplicate vectors are merged by
    taking the meet of their values, which leaves the represented function
    unchanged.  Element values may be given as indices or names.

    Evaluation asks a bitmap dominance index over the points which of them
    lie below the query; the index is built on the first evaluation that
    misses the memo of values.  The meet profile, the sublevels, the
    complement maxima of each distinct upset, the canonical
    representation and the hc1 and hc2 witnesses of :mod:`commrep.hc` are
    computed once and kept.
    """

    def __init__(self, lattice: Lattice, dim: int, points: Iterable = ()):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        merged: dict[Vec, int] = {}
        for vec, val in points:
            v = as_nat_vec(vec, dim)
            e = lattice.resolve(val)
            merged[v] = lattice.meet(merged[v], e) if v in merged else e
        self._setup(lattice, dim, sorted(merged.items()))

    def _setup(self, lattice: Lattice, dim: int, points: Sequence) -> None:
        # the one place that sets a Rep's attributes, its caches empty
        super()._setup(lattice, dim, points)
        self._values: dict[Vec, int] = {}
        self._index: _Below | None = None
        self._levels: dict[int, UpSet] = {}
        self._maxima: dict[UpSet, set[Vec]] = {}
        self._profile: dict[int, tuple[Vec, ...]] | None = None
        self._canonical: Rep | None = None
        self._witnesses: dict[str, dict | None] = {}

    # -- evaluation ---------------------------------------------------------

    def eval(self, x) -> int:
        """Value at a finite vector: the meet of prescribed values below x."""
        return self._value_at(as_nat_vec(x, self.dim))

    def eval_ext(self, x) -> int:
        """Value of the antitone continuation at a vector with INF allowed.

        Coincides with the meet of the values at all finite points below x,
        and with :meth:`eval` on finite input.
        """
        return self._value_at(as_ext_vec(x, self.dim))

    def _value_at(self, x: Vec) -> int:
        try:
            return self._values[x]
        except KeyError:
            v = self.lattice.big_meet(self._below().values(x))
            self._values[x] = v
            return v

    def _below(self) -> _Below:
        if self._index is None:
            self._index = _Below(self.points)
        return self._index

    def witness(self, x) -> Vec:
        """A finite b <= x at which the function attains eval_ext(x).

        Computed as the supremum of all prescribed vectors below x (the
        zero vector if there are none).
        """
        x = as_ext_vec(x, self.dim)
        return reduce(vsup, self._below().vectors(x), zero(self.dim))

    # -- level sets and derived representations ------------------------------

    def _meet_profile(self) -> dict[int, tuple[Vec, ...]]:
        # For every attainable meet value v, the minimal suprema of subsets
        # of prescribed vectors whose values meet to v.  Grouping subset
        # suprema by their meet value explores all subsets without the
        # exponential enumeration; dominated suprema are dropped as they can
        # never produce new minimal level-set elements.  The fold takes one
        # step per distinct value, with all of its points at once: a subset
        # holding two points of one value has the same meet as either alone
        # and a larger supremum.  A bucket the value does not lower is
        # skipped, since its suprema lie above its own antichain.
        if self._profile is None:
            lat = self.lattice
            groups: dict[int, list[Vec]] = {}
            for vec, val in self.points:
                groups.setdefault(val, []).append(vec)
            prof: dict[int, set[Vec]] = {lat.top: {zero(self.dim)}}
            for val, members in groups.items():
                updates: dict[int, set[Vec]] = {}
                for mval, anti in prof.items():
                    nv = lat.meet(mval, val)
                    if nv != mval:
                        bucket = updates.setdefault(nv, set())
                        bucket.update(vsup(s, vec) for s in anti for vec in members)
                for nv, vecs in updates.items():
                    prof[nv] = min_elements(prof.get(nv, set()) | vecs)
            self._profile = {v: tuple(sorted(a)) for v, a in prof.items()}
        return self._profile

    def sublevel(self, alpha) -> UpSet:
        """The upward closed set {x : eval(x) <= alpha}.

        A minimal solution is always the supremum of the prescribed vectors
        lying below it, so the minimal generators are found among subset
        suprema whose value meet drops below alpha: the union of the meet
        profile's antichains at values at or below alpha.  When just one
        antichain lies there it is the sublevel's generator set as it is,
        sorted and minimal; only a union of several is minimised again.
        """
        alpha = self.lattice.resolve(alpha)
        if alpha not in self._levels:
            parts = [
                anti
                for mval, anti in self._meet_profile().items()
                if self.lattice.leq(mval, alpha)
            ]
            if len(parts) == 1:
                level = UpSet._from_antichain(self.dim, parts[0])
            else:
                level = UpSet._from_checked(self.dim, (v for anti in parts for v in anti))
            self._levels[alpha] = level
        return self._levels[alpha]

    def _maxima_outside(self, level: UpSet) -> set[Vec]:
        # The maximal vectors outside an upset, computed once per distinct
        # upset for complete(), check_complete and hc8; do not mutate.
        if level not in self._maxima:
            self._maxima[level] = level.complement_maxima()
        return self._maxima[level]

    def canonical(self) -> "Rep":
        """The canonical representation: minimal vectors of each value class.

        The minimal vectors attaining exactly alpha are the minimal vectors
        of the alpha-sublevel that do not already occur in the sublevel of
        an element covered by alpha.  The result represents the same
        function and is a subset of its graph.  It is built once and kept,
        from the sublevel generators as they are, without the coercion of
        the :class:`Rep` constructor.
        """
        if self._canonical is None:
            self._canonical = _rep_from_level_minima(
                self.lattice, self.dim, [self.sublevel(a) for a in range(self.lattice.m)]
            )
        return self._canonical

    def complete(self) -> "ExtRep":
        """A finite subset of the extended graph pinning the function uniquely.

        For every lattice element the minimal vectors of its sublevel and
        the maximal vectors outside it are collected; exactly one antitone
        function passes through the resulting evaluated point set, which
        :func:`check_complete` accepts.  The sublevels and their complement
        maxima are the ones the rep keeps.  The points are checked vectors
        with element indices and one value per vector, so the result is
        built without the coercion of the :class:`ExtRep` constructor.
        """
        pts: dict[Vec, int] = {}
        for a in range(self.lattice.m):
            level = self.sublevel(a)
            for vec in level.gens:
                pts.setdefault(vec, self._value_at(vec))
            for vec in self._maxima_outside(level):
                pts.setdefault(vec, self._value_at(vec))
        return ExtRep._from_checked(self.lattice, self.dim, sorted(pts.items()))

    # -- properties of the represented function ------------------------------

    def finitely_determinable(self) -> bool:
        """Whether a finite subset of the plain (un-extended) graph can pin
        the function down: true iff the value along every coordinate axis
        eventually reaches bottom, i.e. the continuation at INF times each
        unit vector is bottom."""
        lat = self.lattice
        for i in range(self.dim):
            axis = tuple(INF if j == i else 0 for j in range(self.dim))
            if self._value_at(axis) != lat.bottom:
                return False
        return True

    def shifted(self, a) -> "Rep":
        """Representation of x -> eval(x + a) for finite a."""
        a = as_nat_vec(a, self.dim)
        return Rep(
            self.lattice,
            self.dim,
            [(residual(vec, a), val) for vec, val in self.points],
        )


class ExtRep(_PointSet):
    """A finite set of (extended vector, element) points.

    Intended as a subset of the extended graph of some antitone function;
    conflicting values on one vector are rejected outright since no
    function could pass through them.
    """

    def __init__(self, lattice: Lattice, dim: int, points: Iterable = ()):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        seen: dict[Vec, int] = {}
        for vec, val in points:
            v = as_ext_vec(vec, dim)
            e = lattice.resolve(val)
            if v in seen and seen[v] != e:
                raise ValueError(f"conflicting values at {v}")
            seen[v] = e
        self._setup(lattice, dim, sorted(seen.items()))


def check_complete(rep: Rep, ext: ExtRep) -> bool:
    """Decide whether ``ext`` pins down the function of ``rep`` uniquely.

    True iff (i) every point of ``ext`` lies on the extended graph, and
    (ii) for every lattice element alpha, the meet of ``ext`` values at
    points below each minimal sublevel vector stays below alpha, while the
    join of ``ext`` values at points above each maximal complement vector
    does not drop below alpha.

    The points of ``ext`` are already checked by the :class:`ExtRep`
    constructor, so step (i) evaluates them without coercing them again.
    Once (i) holds, every point of ``ext`` carries F's value, so a critical
    point b that ``ext`` holds settles (ii) at b by itself: below a minimal
    vector b of the alpha-sublevel the meet is at most F(b) <= alpha, and
    above a maximal vector b outside it the join is at least F(b), which
    is not <= alpha.  The points of ``ext`` below and above each other
    query come from two dominance indexes over ``ext.points``, each built
    at the first critical point that ``ext`` lacks; the sublevels and
    their complement maxima are the ones ``rep`` keeps for
    :meth:`Rep.complete`.
    """
    rep._compatible(ext)
    lat = rep.lattice
    for vec, val in ext.points:
        if rep._value_at(vec) != val:
            return False
    held = dict(ext.points)
    below = above = None
    for a in range(lat.m):
        level = rep.sublevel(a)
        for b in level.gens:
            if b not in held:
                below = below or _Below(ext.points)
                if not lat.leq(lat.big_meet(below.values(b)), a):
                    return False
        for b in rep._maxima_outside(level):
            if b not in held:
                above = above or _Below([(_neg(v), e) for v, e in ext.points])
                if lat.leq(lat.big_join(above.values(_neg(b))), a):
                    return False
    return True


def step(lattice: Lattice, b, beta) -> Rep:
    """The single-point representation: beta above b, top elsewhere."""
    b = tuple(b)
    return Rep(lattice, len(b), [(b, beta)])


def le_pointwise(r1: Rep, r2: Rep) -> bool:
    """Whether r1's function lies below r2's function everywhere.

    It suffices to compare at the prescribed vectors of r2: the function of
    r2 is the largest antitone map below its prescribed points, so any
    antitone map below it there is below it everywhere.
    """
    r1._compatible(r2)
    return all(
        r1.lattice.leq(r1.eval(vec), r2.eval(vec)) for vec, _ in r2.points
    )


def equal_fn(r1: Rep, r2: Rep) -> bool:
    """Whether two representations define the same function."""
    return le_pointwise(r1, r2) and le_pointwise(r2, r1)


def join_fn(r1: Rep, r2: Rep) -> Rep:
    """A representation of the pointwise join of the two functions.

    The sublevel of the join at alpha is the intersection of the operands'
    sublevels (a join drops below alpha iff both operands do), and a
    representation is recovered from those level sets.
    """
    r1._compatible(r2)
    lat = r1.lattice
    levels = [r1.sublevel(a) & r2.sublevel(a) for a in range(lat.m)]
    return _rep_from_level_minima(lat, r1.dim, levels)


def _rep_from_level_minima(
    lattice: Lattice, dim: int, levels: Sequence[UpSet]
) -> Rep:
    # levels[a] must be the a-sublevel of an antitone function; the minimal
    # vectors attaining exactly a are levels[a].gens minus the generators of
    # the sublevels of the lower covers of a.  So each vector occurs under
    # one value, its own, and the generators are checked finite vectors.
    pts = []
    for a in range(lattice.m):
        gens = set(levels[a].gens)
        for b in lattice.lower_covers(a):
            gens -= set(levels[b].gens)
        pts.extend((v, a) for v in gens)
    pts.sort()
    return Rep._from_checked(lattice, dim, pts)
