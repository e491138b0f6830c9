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

import numpy as np

from .vectors import INF, Vec, as_ext_vec, as_nat_vec, residual, vleq, vsup

__all__ = ["GridSizeError", "UpSet", "max_elements", "min_elements"]

GRID_LIMIT = 10_000_000


class GridSizeError(ValueError):
    """The candidate grid for a complement computation exceeds the limit."""


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
        return cls(dim, tuple(sorted(min_elements(pts))))

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

    def complement_maxima(self, grid_limit: int = GRID_LIMIT) -> Set[Vec]:
        """Maximal elements of the complement within the INF-extended space.

        Notes
        -----
        Every maximal point of the complement has, in each coordinate i,
        either the value INF or a value of the form g_i - 1 for some
        generator g with g_i > 0: pushing the coordinate one step further up
        must cross into the set, and the only thresholds are generator
        coordinates.  Conversely a candidate-grid point p outside the set is
        maximal exactly when every finite coordinate bump p + e_i lands
        inside the set, because the complement is downward closed.  Scanning
        the candidate grid with that local test therefore yields exactly the
        maxima of the complement.

        The scan runs on ranks, so it is exact for coordinates of any size:
        coordinate i is replaced by its rank among the values g_i and
        g_i - 1 (g_i > 0) over all generators, and INF by the top rank.
        Ranks keep the order between candidates and generators, and the
        bump g_i - 1 -> g_i of a candidate is the step to the next rank.
        """
        axes, ranks, cands = [], [], []
        size = 1
        for i in range(self.dim):
            col = {g[i] for g in self.gens}
            vals = sorted(col | {c - 1 for c in col if c > 0})
            rank = {v: r for r, v in enumerate(vals)}
            axes.append(vals + [INF])  # rank -> coordinate
            ranks.append(rank)
            cands.append([rank[c - 1] for c in col if c > 0] + [len(vals)])
            size *= len(cands[-1])
        if size > grid_limit:
            raise GridSizeError(
                f"candidate grid has {size} points, exceeding the limit {grid_limit}"
            )
        grid = np.array(np.meshgrid(*cands, indexing="ij")).reshape(self.dim, -1).T
        gens_arr = np.array(
            [[ranks[i][c] for i, c in enumerate(g)] for g in self.gens], dtype=np.int64
        ).reshape(len(self.gens), self.dim)
        tops = np.array([len(axis) - 1 for axis in axes])
        keep = ~_in_up(grid, gens_arr)
        for i in range(self.dim):
            bumped = grid.copy()
            bumped[:, i] += 1
            keep &= (grid[:, i] == tops[i]) | _in_up(bumped, gens_arr)
        return {
            tuple(axes[i][r] for i, r in enumerate(row)) for row in grid[keep].tolist()
        }

    def _compatible(self, other: "UpSet") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def _in_up(points: np.ndarray, gens: np.ndarray) -> np.ndarray:
    if gens.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    return (points[:, None, :] >= gens[None, :, :]).all(axis=-1).any(axis=-1)
