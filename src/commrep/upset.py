"""Upward closed subsets of N^d stored as antichains of minimal generators.

An upward closed set is determined by its finitely many minimal elements
(product orders on N^d admit no infinite antichain and no infinite
descending chain), so the whole algebra of these sets reduces to antichain
manipulation.  Generators are kept minimal and lexicographically sorted;
two equal sets therefore compare equal structurally.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Set

from .vectors import INF, Vec, as_ext_vec, as_nat_vec, vleq

__all__ = ["UpSet", "max_elements", "min_elements"]


def min_elements(points: Iterable[Vec]) -> set[Vec]:
    """Minimal elements of a finite set under the componentwise order.

    After a lexicographic sort every point's dominators precede it, so one
    pass that keeps a point unless an already kept point lies below it
    finds the minima (Kung, Luccio & Preparata 1975): O(n log n + n k)
    comparisons for n points and k minima.
    """
    return _extremes(points, operator.le, reverse=False)


def max_elements(points: Iterable[Vec]) -> set[Vec]:
    """Maximal elements; the mirror image of :func:`min_elements`."""
    return _extremes(points, operator.ge, reverse=True)


def _extremes(points: Iterable[Vec], dominates, reverse: bool) -> set[Vec]:
    pts = sorted(set(points), reverse=reverse)
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise ValueError(f"dimension mismatch: {min(dims)} vs {max(dims)}")
    kept: list[Vec] = []
    for p in pts:
        if not any(all(map(dominates, q, p)) for q in kept):
            kept.append(p)
    return set(kept)


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dominated(q: Vec, i: int, near: int, at_least) -> bool:
    # Whether a maximum in near, whose coordinates i all equal q_i, lies at
    # or above q on every other coordinate j; at_least(j, c) is the mask of
    # the maxima whose coordinate j is at or above c.
    for j, c in enumerate(q):
        if j != i:
            near &= at_least(j, c)
            if not near:
                return False
    return True


@dataclass(frozen=True)
class UpSet:
    """The upward closure of ``gens``, an antichain of finite vectors."""

    dim: int
    gens: tuple[Vec, ...]

    def __post_init__(self):
        for g in self.gens:
            as_nat_vec(g, self.dim)
        if self.gens != tuple(sorted(min_elements(self.gens))):
            raise ValueError("generators must be a sorted antichain; use from_points")

    @classmethod
    def from_points(cls, dim: int, points: Iterable[Vec]) -> "UpSet":
        """Upward closure of an arbitrary finite set; keeps only minimal points."""
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
        x = as_ext_vec(x, self.dim)
        return any(vleq(g, x) for g in self.gens)

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
        The maxima are built by adding the generators one at a time (one
        step of Berge's transversal multiplication; Fredman & Khachiyan
        1996 bound its output-sensitive cost).  Outside the empty set the
        only maximum is the all-INF point.  Adding a generator g removes
        exactly the maxima p with g <= p; each is replaced by the points
        ``p[i := g_i - 1]`` for the coordinates with g_i > 0, which lie
        below p and outside the upward closure of g.  A replacement that is
        not maximal lies below another replacement or below a maximum that
        g left alone.  For the latter, r >= p[i := g_i - 1] with r not above
        g forces r_i = g_i - 1, so only those r, the near ones, are
        compared.  Replacements made on different coordinates never compare
        (each is at or above g on the other's coordinate), so each
        coordinate keeps its own maxima.

        The comparisons are bitmask dominance queries (Tan, Eng & Ooi, VLDB
        2001).  Each live maximum holds one bit, and each coordinate keeps
        the sorted values that live maxima take there, each with the mask
        of those maxima.  The maxima at or above c on coordinate i are the
        OR of the masks from ``bisect_left(values, c)`` on (or the live
        maxima without the OR of the masks before it, if that side is
        shorter); the maxima above g are the AND of those sets over the
        coordinates with g_i > 0; the near ones are the mask at g_i - 1;
        and a replacement q is dropped when the near mask ANDed with the
        maxima at or above q_j on every other coordinate j is not empty.
        Every question about one generator is asked before its maxima
        change.  Then the removed maxima leave every mask and free their
        bits for the replacements, so the masks and the sorted values grow
        with the live antichain only.  Coordinates are only compared, so
        the result is exact for coordinates of any size.

        Kept apart from ``antitone._Below``, whose cumulative masks give a
        fixed set O(log) queries: the changing antichain wants per-value
        masks with O(1) updates.  Each shared kernel tried was slower.
        """
        d = self.dim
        pts: dict[int, Vec] = {0: (INF,) * d}  # the live maxima by bit
        live = 1
        # per coordinate: the sorted values of the live maxima there and,
        # in step, the mask of the maxima with each value
        values: list[list] = [[INF] for _ in range(d)]
        masks: list[list[int]] = [[1] for _ in range(d)]
        ge: dict[tuple[int, object], int] = {}

        def at_least(i: int, c) -> int:
            # The live maxima whose coordinate i is at or above c: the OR
            # of the masks from c on, or live without the OR of the masks
            # below c, whichever side is shorter.  Replacements of one
            # maximum on different coordinates ask the same questions, so
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
            ge.clear()
            above = live
            for i, c in enumerate(g):
                if c:
                    above &= at_least(i, c)
            old = [(b, pts.pop(b)) for b in _bits(above)]
            new: list[Vec] = []
            for i, c in enumerate(g):
                if c == 0:
                    continue
                split = [p[:i] + (c - 1,) + p[i + 1 :] for _, p in old]
                k = bisect_left(values[i], c - 1)
                if k < len(values[i]) and values[i][k] == c - 1:
                    near = masks[i][k]
                    split = [q for q in split if not _dominated(q, i, near, at_least)]
                new.extend(max_elements(split) if len(split) > 1 else split)
            live &= ~above
            for b, p in old:
                bit = 1 << b
                for x, vals, by in zip(p, values, masks):
                    k = bisect_left(vals, x)
                    by[k] &= ~bit
                    if not by[k]:
                        del vals[k], by[k]
            for q in new:
                bit = ~live & (live + 1)  # the lowest free bit
                pts[bit.bit_length() - 1] = q
                live |= bit
                for x, vals, by in zip(q, values, masks):
                    k = bisect_left(vals, x)
                    if k < len(vals) and vals[k] == x:
                        by[k] |= bit
                    else:
                        vals.insert(k, x)
                        by.insert(k, bit)
        return set(pts.values())

    def _compatible(self, other: "UpSet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

