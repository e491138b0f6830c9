"""Upward closed subsets of N^d stored as antichains of minimal generators.

An upward closed set is determined by its finitely many minimal elements
(product orders on N^d admit no infinite antichain and no infinite
descending chain), so the whole algebra of these sets reduces to antichain
manipulation.  Generators are kept minimal and lexicographically sorted;
two equal sets therefore compare equal structurally.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Set

from .vectors import INF, Vec, as_ext_vec, as_nat_vec, residual, vleq, vsup

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
        pts = {as_nat_vec(p, dim) for p in points}
        return cls._trusted(dim, tuple(sorted(min_elements(pts))))

    @classmethod
    def _trusted(cls, dim: int, gens: tuple[Vec, ...]) -> "UpSet":
        # An instance from generators that are already a sorted antichain of
        # checked vectors, skipping the checks of __post_init__.
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
        return UpSet.from_points(self.dim, self.gens + other.gens)

    def intersection(self, other: "UpSet") -> "UpSet":
        self._compatible(other)
        return UpSet.from_points(
            self.dim, (vsup(a, b) for a in self.gens for b in other.gens)
        )

    __or__ = union
    __and__ = intersection

    def shift(self, a: Vec) -> "UpSet":
        """The set of x with x + a in this set."""
        a = as_nat_vec(a, self.dim)
        return UpSet.from_points(self.dim, (residual(g, a) for g in self.gens))

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
        g forces r_i = g_i - 1, so only those r are compared.  Replacements
        made on different coordinates never compare (each is at or above g
        on the other's coordinate), so each coordinate keeps its own
        maxima.  All arithmetic is on the coordinates themselves, so the
        result is exact for coordinates of any size.
        """
        maxima = [(INF,) * self.dim]
        for g in self.gens:
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

    def _compatible(self, other: "UpSet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

