"""Upward closed subsets of N^d stored as antichains of minimal generators.

An upward closed set is determined by its finitely many minimal elements
(product orders on N^d admit no infinite antichain and no infinite
descending chain), so the whole algebra of these sets reduces to antichain
manipulation.  Generators are kept minimal and lexicographically sorted;
two equal sets therefore compare equal structurally.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice
from typing import Iterable, Iterator, Sequence, Set

from .vectors import INF, Vec, _check_dim, as_ext_vec, as_nat_vec

__all__ = ["UpSet", "max_elements", "min_elements"]


# Points per block of a dominance index and per chunk of the minima kernel:
# each keeps at most this many masks of this many bits per coordinate.
_BLOCK = 256
# _EARLIER[j] is the mask of the points before point j of a chunk, which
# may hold up to 2 * _BLOCK points.
_EARLIER = tuple((1 << j) - 1 for j in range(2 * _BLOCK))


def min_elements(points: Iterable[Vec]) -> set[Vec]:
    """Minimal elements of a finite set under the componentwise order.

    A blocked rank-mask kernel (bitmap dominance; Tan, Eng & Ooi, VLDB
    2001).  After a lexicographic sort every point's dominators precede
    it, which settles coordinate 0.  The sorted points are cut into chunks
    of ``_BLOCK``, and within a chunk each point starts with the bitmask
    of the points before it.  For every further coordinate one pass visits
    the chunk in value order, ORs each point into a running mask and ANDs
    that mask into the point's own, which keeps only the earlier points at
    or below it there.  A point whose mask ends empty has no dominator in
    its chunk.  Such a survivor is kept unless a minimum kept from an
    earlier chunk lies below it: the kept minima are sealed into a
    :class:`_Below` index in blocks of ``_BLOCK``, and those not sealed yet
    lead the next chunk.  Coordinates are only compared, so the result is
    exact for INF and for coordinates of any size.

    For n points, d coordinates and k minima the time is O(n log n + n d
    log _BLOCK) comparisons for the sorts and O(n d) operations on masks
    of at most 2 * _BLOCK bits, plus, for each chunk survivor, d bisections
    in each of the k / _BLOCK index blocks; few minima among many points
    cost little more than the sort.  Memory is O(_BLOCK^2 + k d _BLOCK)
    bits.
    """
    return set(_minima(points))


def max_elements(points: Iterable[Vec]) -> set[Vec]:
    """Maximal elements: the mirror image of :func:`min_elements`, as the
    minimal elements of the negated points."""
    return {_neg(q) for q in _minima(map(_neg, points))}


def _neg(v: Vec) -> Vec:
    """The mirror image: v <= w exactly when _neg(w) <= _neg(v)."""
    return tuple(map(operator.neg, v))


def _minima(points: Iterable[Vec]) -> list[Vec]:
    # The minimal points, sorted.  kept[:sealed] are indexed in full
    # blocks; the rest, fewer than _BLOCK, lead the next chunk.
    pts = sorted(set(points))
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch: {min(dims)} vs {max(dims)}")
    # fewer than two points are their own minima
    kept = _chunk_minima(pts[:_BLOCK]) if len(pts) > 1 else pts
    sealed = 0
    index = None
    for start in range(_BLOCK, len(pts), _BLOCK):
        if len(kept) - sealed >= _BLOCK:
            index = index or _Below(())
            index.add([(p, 0) for p in kept[sealed : sealed + _BLOCK]])
            sealed += _BLOCK
        tail = kept[sealed:]
        fresh = _chunk_minima(tail + pts[start : start + _BLOCK])[len(tail) :]
        if sealed:
            fresh = [p for p in fresh if not index.covers(p)]
        kept += fresh
    return kept


def _chunk_minima(chunk: list[Vec]) -> list[Vec]:
    # The points of chunk (sorted, distinct, of one dimension) that no
    # earlier point of chunk lies below.  below[j] is the mask of the
    # earlier points at or below point j on every coordinate seen so far.
    # The sort is stable, so points of equal value come in index order:
    # when point j is reached, cum holds every point of lower value and
    # those of equal value up to j, which covers every earlier point at or
    # below it on this coordinate.
    n = len(chunk)
    below = [*_EARLIER[:n]]
    for col in islice(zip(*chunk), 1, None):
        if not any(below):
            break
        cum = 0
        for j in sorted(range(n), key=col.__getitem__):
            cum |= 1 << j
            below[j] &= cum
    return list(compress(chunk, map(operator.not_, below)))


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dominated(q: Vec, i: int, mask: int, at_least) -> bool:
    # Whether a maximum in mask, all at or above q_i on coordinate i, lies
    # at or above q on every other coordinate j; at_least(j, c) is the mask
    # of the maxima whose coordinate j is at or above c.
    for j, c in enumerate(q):
        if not mask:
            break
        if j != i:
            mask &= at_least(j, c)
    return mask != 0


class _Below:
    """Which of a list of (vector, value) points lie at or below a query.

    A bitmap dominance index (Tan, Eng & Ooi, VLDB 2001).  For each
    coordinate it keeps the sorted distinct values and, for each rank, a
    bitmask (a Python int) of the points whose coordinate is at or below
    that value; the points below x are the AND over the coordinates of the
    mask at x's rank, which ``bisect`` finds.  Coordinates are only
    compared, so the index is exact for INF and for coordinates of any
    size.  The points are split into blocks of ``_BLOCK`` with masks of
    their own, so memory grows as n * d * _BLOCK bits rather than n^2 * d;
    points added later form blocks of their own.  The "above" direction is
    the same index over the negated vectors.

    It serves ``Rep`` evaluation and witnesses, ``check_complete``, and
    :func:`min_elements`, which seals the minima it keeps into it.  Kept
    apart from ``UpSet.complement_maxima``'s masks: a fixed set wants
    cumulative masks and O(log) queries, a changing antichain O(1) updates.
    """

    def __init__(self, points: Sequence[tuple[Vec, int]]):
        self._blocks = [
            self._block(points[i : i + _BLOCK]) for i in range(0, len(points), _BLOCK)
        ]

    def add(self, points: Sequence[tuple[Vec, int]]) -> None:
        """Index at most ``_BLOCK`` more points, as a block of their own."""
        self._blocks.append(self._block(points))

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

    def covers(self, x: Vec) -> bool:
        """Whether some point lies at or below x."""
        return next(self._hits(x), None) is not None

    def values(self, x: Vec) -> set[int]:
        """The distinct values of the points at or below x."""
        return {e for mask, groups, _ in self._hits(x) for e, g in groups if mask & g}

    def vectors(self, x: Vec) -> Iterator[Vec]:
        """The vectors of the points at or below x."""
        for mask, _, vecs in self._hits(x):
            yield from (vecs[b] for b in _bits(mask))


@dataclass(frozen=True)
class UpSet:
    """The upward closure of ``gens``, an antichain of finite vectors."""

    dim: int
    gens: tuple[Vec, ...]

    def __post_init__(self):
        _check_dim(self.dim)
        for g in self.gens:
            as_nat_vec(g, self.dim)
        if self.gens != tuple(sorted(min_elements(self.gens))):
            raise ValueError("generators must be a sorted antichain; use from_points")

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Vec]) -> "UpSet":
        """Upward closure of an arbitrary finite set; keeps only minimal points."""
        _check_dim(dim)
        return cls._from_checked(dim, {as_nat_vec(p, dim) for p in points})

    @classmethod
    def _from_checked(cls, dim: int, points: Iterable[Vec]) -> "UpSet":
        # The upward closure of finite vectors of dimension dim that are
        # already checked, skipping the checks of from_points and
        # __post_init__.  The library's own upsets are built here.
        return cls._from_antichain(dim, tuple(sorted(min_elements(points))))

    @classmethod
    def _from_antichain(cls, dim: int, gens: tuple[Vec, ...]) -> "UpSet":
        # gens must already be a sorted antichain of checked vectors.
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "gens", gens)
        return self

    @property
    def is_empty(self) -> bool:
        return not self.gens

    def member(self, x) -> bool:
        """Whether x (finite or extended) lies above some generator."""
        return self._contains(as_ext_vec(x, self.dim))

    def _contains(self, x: Vec) -> bool:
        # member for an already checked vector of dimension dim
        for g in self.gens:
            if all(map(operator.le, g, x)):
                return True
        return False

    def union(self, other: "UpSet") -> "UpSet":
        self._compatible(other)
        return UpSet._from_checked(self.dim, self.gens + other.gens)

    def intersection(self, other: "UpSet") -> "UpSet":
        self._compatible(other)
        return UpSet._from_checked(
            self.dim, (tuple(map(max, a, b)) for a in self.gens for b in other.gens)
        )

    __or__ = union
    __and__ = intersection

    def shift(self, a: Vec) -> "UpSet":
        """The set of x with x + a in this set."""
        a = as_nat_vec(a, self.dim)
        return UpSet._from_checked(
            self.dim,
            (tuple(max(gi - ai, 0) for gi, ai in zip(g, a)) for g in self.gens),
        )

    def complement_maxima(self) -> Set[Vec]:
        """Maximal elements of the complement within the INF-extended space.

        Notes
        -----
        A sweep over coordinate 0 (Kung, Luccio & Preparata, J. ACM 1975).
        Write x = (t, y), with y the tail of x past coordinate 0, and T(t)
        for the upset of the tails of the generators g with g_0 <= t.  Then
        x lies outside the upset exactly when y lies outside T(t), and is
        maximal there exactly when, in addition, y is maximal outside T(t)
        and raising t enters the upset: t = INF, or T(t + 1) holds y.  T
        changes only at the values v of g_0, so the maxima are the points
        (v - 1, y), v >= 1, for the tails y maximal outside T(v - 1) that
        T(v) holds, and (INF, y) for those maximal outside all the tails.

        The sorted generators come in groups of equal g_0.  The sweep keeps
        S, the maxima outside the upset of the tails seen so far, from the
        all-INF tail on, and adds each group's tails to it one at a time.
        Before group v, S holds the tails maximal outside T(v - 1); such a
        tail stays maximal outside T(v) unless T(v) holds it, so the tails
        of S that group v removes are the ones to emit as (v - 1, y).  Each
        live tail carries the g_0 of the group that made it (0 for the
        all-INF one), so a tail made and removed inside one group is not
        emitted, nor is any at v = 0.  The tails left at the end are
        emitted as (INF, y).  Only a tail of zeros empties S, and its
        generator comes last, as every later one would lie above it.  The
        emitted maxima leave S, so the masks below hold the maxima outside
        a (d - 1)-dimensional upset, not the output.

        Adding a tail g is one step of Berge's transversal multiplication
        (Fredman & Khachiyan 1996 bound its output-sensitive cost).  It
        removes exactly the maxima p with g <= p; each is replaced by the
        points ``q = p[i := g_i - 1]`` for the coordinates with g_i > 0,
        which lie below p and outside the upward closure of g.  One rule
        decides each q: it is kept unless another live maximum r lies at or
        above it.  Such an r has r_j >= p_j >= g_j for every j != i, so it
        is near (r_i = g_i - 1) or above g, and only those are searched.
        An r above g lies above q exactly when its own replacement on
        coordinate i does, which is not q (maxima that differ only at
        coordinate i would compare).  Replacements made on different
        coordinates never compare (each is at or above g on the other's
        coordinate).

        The comparisons are bitmask dominance queries (Tan, Eng & Ooi, VLDB
        2001).  Each live maximum holds one bit, and each coordinate keeps the
        sorted values that live maxima take there, each with the mask of those
        maxima.  The maxima at or above c on coordinate i are the OR of the
        masks from ``bisect_left(values, c)`` on; the maxima above g are the
        AND of those sets over the coordinates with g_i > 0, and the near ones
        the mask at g_i - 1.  q is kept at once when no maximum but p is near
        or above g, and else dropped when those masks without p's bit, ANDed
        with the maxima at or above q_j on each other coordinate j, leave a
        bit.  That query skips coordinate i, where q and p differ, so it is
        asked with p, and q is built only once it is kept.  Every question
        about one tail is asked before its maxima change.  Then a removed
        maximum p hands its bit to its first kept replacement, and only
        coordinate i's masks change: the bit leaves p_i's mask and joins
        g_i - 1's.  A removed maximum with no kept replacement leaves every
        mask and frees its bit, and the further replacements take free bits
        and enter every mask.  So the masks and the sorted values grow with
        the live antichain only.  Coordinates are only compared, so the
        result is exact for coordinates of any size.

        Kept apart from :class:`_Below`, whose cumulative masks give a
        fixed set O(log) queries: the changing antichain wants per-value
        masks with O(1) updates.  Each shared kernel tried was slower.
        """
        d = self.dim - 1
        # the live tails by bit, each with the g_0 of the group that made it
        pts: dict[int, tuple[Vec, object]] = {0: ((INF,) * d, 0)}
        live = 1
        out: set[Vec] = set()
        # per coordinate of the tails: the sorted values of the live tails
        # there and, in step, the mask of the tails with each value
        values: list[list] = [[INF] for _ in range(d)]
        masks: list[list[int]] = [[1] for _ in range(d)]
        ge: dict[tuple[int, object], int] = {}

        def at_least(i: int, c) -> int:
            # The live tails whose coordinate i is at or above c: the OR
            # of the masks from c on, or live without the OR of the masks
            # below c, whichever side is shorter.  Replacements of one
            # tail on different coordinates ask the same questions, so
            # the answers are kept in ge while the masks stay the same.
            key = (i, c)
            if key not in ge:
                k = bisect_left(values[i], c)
                by = masks[i]
                if 2 * k < len(by):
                    ge[key] = live & ~reduce(operator.or_, by[:k], 0)
                else:
                    ge[key] = reduce(operator.or_, by[k:], 0)
            return ge[key]

        for g in self.gens:
            v, g = g[0], g[1:]
            ge.clear()
            above = live
            for i, c in enumerate(g):
                if c:
                    above &= at_least(i, c)
            old = [(b, *pts.pop(b)) for b in _bits(above)]
            # heirs[b]: the coordinate and value of the first kept
            # replacement of the maximum with bit b; extra: the others
            heirs: dict[int, tuple[int, object]] = {}
            extra: list[Vec] = []
            for i, c in enumerate(g):
                if c == 0:
                    continue
                # near or above g; one above g has coordinate i >= c, so k is in range
                k = bisect_left(values[i], c - 1)
                start = above | (masks[i][k] if values[i][k] == c - 1 else 0)
                for b, p, _ in old:
                    # kept at once when no maximum but p is near or above g;
                    # _dominated skips coordinate i, where q and p differ
                    if start == 1 << b or not _dominated(p, i, start ^ (1 << b), at_least):
                        if b in heirs:
                            extra.append(p[:i] + (c - 1,) + p[i + 1 :])
                        else:
                            heirs[b] = i, c - 1
            live &= ~above
            for b, p, made in old:
                bit = 1 << b
                if made != v:
                    out.add((v - 1,) + p)
                if b in heirs:
                    # the first replacement keeps p's bit: only coordinate i moves
                    i, x = heirs[b]
                    pts[b] = p[:i] + (x,) + p[i + 1 :], v
                    live |= bit
                    vals, by = values[i], masks[i]
                    k = bisect_left(vals, p[i])
                    by[k] &= ~bit
                    if not by[k]:
                        del vals[k], by[k]
                    k = bisect_left(vals, x)
                    if k < len(vals) and vals[k] == x:
                        by[k] |= bit
                    else:
                        vals.insert(k, x)
                        by.insert(k, bit)
                else:
                    for x, vals, by in zip(p, values, masks):
                        k = bisect_left(vals, x)
                        by[k] &= ~bit
                        if not by[k]:
                            del vals[k], by[k]
            for q in extra:
                bit = ~live & (live + 1)  # the lowest free bit
                pts[bit.bit_length() - 1] = q, v
                live |= bit
                for x, vals, by in zip(q, values, masks):
                    k = bisect_left(vals, x)
                    if k < len(vals) and vals[k] == x:
                        by[k] |= bit
                    else:
                        vals.insert(k, x)
                        by.insert(k, bit)
        for p, _ in pts.values():
            out.add((INF,) + p)
        return out

    def _compatible(self, other: "UpSet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

