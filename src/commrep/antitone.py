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

from operator import itemgetter
from typing import Iterable, Sequence

from .lattice import Lattice
from .upset import UpSet, _Below, _neg, min_elements
from .vectors import (
    INF,
    Vec,
    _check_dim,
    as_ext_vec,
    as_nat_vec,
    residual,
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


class _PointSet:
    """What :class:`Rep` and :class:`ExtRep` share: (vector, element)
    points, sorted by vector, over a lattice and a dimension.  Equality
    requires the same class, so a representation never equals an extended
    point set.  The two differ in the coordinates they accept (``_coerce``)
    and in what a repeated vector means (``_meets_repeats``)."""

    def __init__(self, lattice: Lattice, dim: int, points: Iterable = ()):
        _check_dim(dim)
        pairs = ((self._coerce(vec, dim), lattice.resolve(val)) for vec, val in points)
        self._setup(lattice, dim, self._distinct(lattice, pairs))

    @classmethod
    def _distinct(cls, lattice: Lattice, pairs: Iterable[tuple[Vec, int]]) -> Iterable:
        # The points of checked (vector, element index) pairs, one per
        # vector, in no particular order.  A repeated vector takes the meet
        # of its values where repeats meet, and is otherwise an error at the
        # first value that differs; pairs are consumed in order, so that
        # error comes before any error a later pair would raise.
        out: dict[Vec, int] = {}
        for vec, e in pairs:
            old = out.setdefault(vec, e)
            if old != e:
                if not cls._meets_repeats:
                    raise ValueError(f"conflicting values at {vec}")
                out[vec] = lattice.meet(old, e)
        return out.items()

    @classmethod
    def _from_checked(cls, lattice: Lattice, dim: int, points: Iterable):
        # points must be (vector, element index) pairs, in any order, with
        # distinct, already checked vectors of dimension dim, finite for a Rep.
        self = object.__new__(cls)
        self._setup(lattice, dim, points)
        return self

    def _setup(self, lattice: Lattice, dim: int, points: Iterable) -> None:
        # The one place a point set is ordered.  The vectors are distinct,
        # so sorting on them alone gives the pairs' order with cheaper
        # compares.
        self.lattice = lattice
        self.dim = dim
        self.points: tuple[tuple[Vec, int], ...] = tuple(sorted(points, key=itemgetter(0)))

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
    level table (each element's sublevel, the maxima outside it and the
    values the levels prove), the canonical representation and the hc1,
    hc2, hc7 and hc8 witnesses of :mod:`commrep.hc` are computed once and
    kept.  :meth:`complete`, :func:`check_complete` and hc8 read the level
    table, which whichever of them runs first builds; it is the only place
    the maxima outside the sublevels are kept.
    """

    _coerce = staticmethod(as_nat_vec)
    _meets_repeats = True

    def _setup(self, lattice: Lattice, dim: int, points: Iterable) -> None:
        # the one place that sets a Rep's attributes, its caches empty
        super()._setup(lattice, dim, points)
        self._values: dict[Vec, int] = {}
        self._index: _Below | None = None
        self._levels: dict[int, UpSet] = {}
        self._table: tuple[list[tuple[UpSet, Iterable[Vec]]], dict[Vec, int]] | None = None
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

    def _at_zero(self) -> int:
        # F(0), which bounds every value: the point at the zero vector,
        # sorted first when the rep has one, else the empty meet, top.
        pts = self.points
        return pts[0][1] if pts and not any(pts[0][0]) else self.lattice.top

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
        return tuple(map(max, zip(zero(self.dim), *self._below().vectors(x))))

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
                        bucket.update(tuple(map(max, s, vec)) for s in anti for vec in members)
                for nv, vecs in updates.items():
                    prof[nv] = min_elements(prof.get(nv, set()) | vecs)
            self._profile = {v: tuple(sorted(a)) for v, a in prof.items()}
        return self._profile

    def sublevel(self, alpha) -> UpSet:
        """The upward closed set {x : eval(x) <= alpha}.

        A minimal solution is always the supremum of the prescribed vectors
        lying below it, so the minimal generators are found among subset
        suprema whose value meet drops below alpha: the union of the meet
        profile's antichains at values at or below alpha.  When at most one
        antichain lies there it is the sublevel's generator set as it is
        (none gives the empty set); only a union of several is minimised.
        Every value lies at or below F(0), the value at the zero vector,
        so when F(0) <= alpha the sublevel is all of N^dim, generated by
        the zero vector alone, and no antichain is read.
        """
        lat = self.lattice
        alpha = lat.resolve(alpha)
        if alpha not in self._levels:
            if lat.leq(self._at_zero(), alpha):
                level = UpSet._from_antichain(self.dim, (zero(self.dim),))
            else:
                parts = [anti for mval, anti in self._meet_profile().items() if lat.leq(mval, alpha)]
                if len(parts) <= 1:
                    level = UpSet._from_antichain(self.dim, parts[0] if parts else ())
                else:
                    level = UpSet._from_checked(self.dim, (v for anti in parts for v in anti))
            self._levels[alpha] = level
        return self._levels[alpha]

    def canonical(self) -> "Rep":
        """The canonical representation: minimal vectors of each value class.

        Each minimal vector of a sublevel is such a vector, and its value
        is the meet of the elements whose sublevels it generates.  The
        result represents the same function and is a subset of its graph.
        It is built once and kept, from the sublevel generators as they
        are, without the coercion of the :class:`Rep` constructor.
        """
        if self._canonical is None:
            self._canonical = _rep_from_level_minima(
                self.lattice, self.dim, [self.sublevel(a) for a in range(self.lattice.m)]
            )
        return self._canonical

    def _level_table(self) -> tuple[list[tuple[UpSet, Iterable[Vec]]], dict[Vec, int]]:
        # Built once for complete(), check_complete and hc8; do not mutate.
        # For each element a, the a-sublevel and the maximal vectors outside
        # it, none outside a level at or above F(0), which is all of N^dim as
        # sublevel() has it, and one set shared by equal sublevels below
        # F(0), computed once; and the values the levels prove, with no
        # evaluation.  Each sublevel generator takes its canonical value,
        # read off canonical() when it is built, else from one pass over the
        # levels.  F(p) <= F(0) always, and F(p) < F(0) only when p lies in
        # the sublevel of some lower cover c of F(0).  A maximum outside the
        # a-sublevel lies outside the c-sublevel for every c <= a, so p takes
        # F(0) when each lower cover lies below some a whose complement
        # maxima hold p; the bits of reached[p] mark the covers seen so far.
        if self._table is None:
            lat = self.lattice
            f0 = self._at_zero()
            covers = lat.lower_covers(f0)
            levels = [self.sublevel(a) for a in range(lat.m)]
            critical = []
            reached: dict[Vec, int] = {}
            outside: dict[UpSet, set[Vec]] = {}
            for a, level in enumerate(levels):
                maxima = () if lat.leq(f0, a) else outside.get(level)
                if maxima is None:
                    maxima = outside[level] = level.complement_maxima()
                critical.append((level, maxima))
                bits = sum(1 << i for i, c in enumerate(covers) if lat.leq(c, a))
                if bits:
                    for p in maxima:
                        reached[p] = reached.get(p, 0) | bits
            canon = self._canonical
            proven = dict(canon.points) if canon is not None else _level_values(lat, levels)
            full = (1 << len(covers)) - 1
            for p, bits in reached.items():
                if bits == full:
                    proven.setdefault(p, f0)
            self._table = critical, proven
        return self._table

    def complete(self) -> "ExtRep":
        """A finite subset of the extended graph pinning the function uniquely.

        For every lattice element the minimal vectors of its sublevel and
        the maximal vectors outside it are collected, none outside a level
        at or above F(0), which is all of N^dim; exactly one antitone
        function passes through the resulting evaluated point set, which
        :func:`check_complete` accepts.  Most values come from the levels,
        with no evaluation.  The generators carry their canonical values,
        as in :meth:`canonical`.  A complement maximum takes F(0), the
        value at the zero vector and the largest one, when it lies outside
        the sublevel of every lower cover of F(0), as it does when each
        such cover lies below an element whose complement maxima hold it.
        Only the other maxima are evaluated.  The levels, their maxima and
        the values they prove form one table, built once and read again by
        :func:`check_complete` and hc8; the generators' values come from
        :meth:`canonical` when it is built, so the levels are not passed
        over twice.  The points are checked vectors with element indices
        and one value per vector, so the result is built without the
        coercion of the :class:`ExtRep` constructor.
        """
        critical, proven = self._level_table()
        pts = dict(proven)
        for _, maxima in critical:
            for vec in maxima:
                if vec not in pts:
                    pts[vec] = self._value_at(vec)
        return ExtRep._from_checked(self.lattice, self.dim, pts.items())

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
        pairs = ((residual(vec, a), val) for vec, val in self.points)
        return Rep._from_checked(self.lattice, self.dim, Rep._distinct(self.lattice, pairs))


class ExtRep(_PointSet):
    """A finite set of (extended vector, element) points.

    Intended as a subset of the extended graph of some antitone function;
    conflicting values on one vector are rejected outright since no
    function could pass through them.
    """

    _coerce = staticmethod(as_ext_vec)
    _meets_repeats = False


def check_complete(rep: Rep, ext: ExtRep) -> bool:
    """Decide whether ``ext`` pins down the function of ``rep`` uniquely.

    True iff (i) every point of ``ext`` lies on the extended graph, and
    (ii) for every lattice element alpha, the meet of ``ext`` values at
    points below each minimal sublevel vector stays below alpha, while the
    join of ``ext`` values at points above each maximal complement vector
    does not drop below alpha.

    The points of ``ext`` are already checked by the :class:`ExtRep`
    constructor, so step (i) reads them without coercing them again.  It
    compares every point with the value the level table of
    :meth:`Rep.complete` proves for it, a canonical value or F(0), and
    evaluates only the points it proves nothing for.
    Once (i) holds, every point of ``ext`` carries F's value, so a critical
    point b that ``ext`` holds settles (ii) at b by itself: below a minimal
    vector b of the alpha-sublevel the meet is at most F(b) <= alpha, and
    above a maximal vector b outside it the join is at least F(b), which
    is not <= alpha.  The points of ``ext`` below and above each other
    query come from two dominance indexes over ``ext.points``, each built
    at the first critical point that ``ext`` lacks; the sublevels and
    their complement maxima are the ones the table holds.
    """
    rep._compatible(ext)
    lat = rep.lattice
    critical, proven = rep._level_table()
    for vec, val in ext.points:
        want = proven.get(vec)
        if (rep._value_at(vec) if want is None else want) != val:
            return False
    held = dict(ext.points)
    below = above = None
    for a, (level, maxima) in enumerate(critical):
        for b in level.gens:
            if b not in held:
                below = below or _Below(ext.points)
                if not lat.leq(lat.big_meet(below.values(b)), a):
                    return False
        for b in maxima:
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
        r1.lattice.leq(r1._value_at(vec), r2._value_at(vec)) for vec, _ in r2.points
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
    return Rep._from_checked(lattice, dim, _level_values(lattice, levels).items())


def _level_values(lattice: Lattice, levels: Sequence[UpSet]) -> dict[Vec, int]:
    # levels[a] must be the a-sublevel of an antitone function F.  A minimal
    # vector g of any sublevel lies in the a-sublevel only when a >= F(g),
    # and generates the F(g)-sublevel, so F(g) is the meet of the levels g
    # generates: the canonical value of g.  The gens are checked finite vectors.
    pts: dict[Vec, int] = {}
    for a, level in enumerate(levels):
        for g in level.gens:
            pts[g] = lattice.meet(pts[g], a) if g in pts else a
    return pts
