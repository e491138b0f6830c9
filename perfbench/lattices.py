"""Finite lattices as the benchmark sees them, with no code from commrep.

A lattice is given by element names and an order matrix.  Meet and join
tables are derived here by direct search for greatest lower and least
upper bounds, so the benchmark can both write lattice documents for the
program and evaluate answers against them on its own.
"""

from __future__ import annotations

import math


class Lat:
    """Element indices 0..m-1 in the order of ``names``."""

    def __init__(self, names, leq):
        self.names = list(names)
        self.m = len(self.names)
        self.leq = [[bool(leq[a][b]) for b in range(self.m)] for a in range(self.m)]
        self.index = {n: i for i, n in enumerate(self.names)}
        self.meet = [[self._bound(a, b, lower=True) for b in range(self.m)] for a in range(self.m)]
        self.join = [[self._bound(a, b, lower=False) for b in range(self.m)] for a in range(self.m)]
        self.top = next(t for t in range(self.m) if all(self.leq[a][t] for a in range(self.m)))
        self.bottom = next(t for t in range(self.m) if all(self.leq[t][a] for a in range(self.m)))

    def _bound(self, a, b, lower):
        m = range(self.m)
        if lower:
            cand = [c for c in m if self.leq[c][a] and self.leq[c][b]]
            best = [c for c in cand if all(self.leq[d][c] for d in cand)]
        else:
            cand = [c for c in m if self.leq[a][c] and self.leq[b][c]]
            best = [c for c in cand if all(self.leq[c][d] for d in cand)]
        if len(best) != 1:
            raise ValueError(f"not a lattice at ({self.names[a]}, {self.names[b]})")
        return best[0]

    @classmethod
    def from_doc(cls, doc):
        """Read a lattice document that carries a meet table."""
        names = doc["elements"]
        meet = doc["meet"]
        m = len(names)
        leq = [[meet[a][b] == a for b in range(m)] for a in range(m)]
        lat = cls(names, leq)
        if lat.meet != [list(r) for r in meet] or lat.join != [list(r) for r in doc["join"]]:
            raise ValueError("lattice document tables disagree with its order")
        return lat

    def to_doc(self):
        return {"elements": list(self.names), "meet": self.meet, "join": self.join}

    def big_meet(self, elems):
        out = self.top
        for e in elems:
            out = self.meet[out][e]
        return out

    def big_join(self, elems):
        out = self.bottom
        for e in elems:
            out = self.join[out][e]
        return out


def chain(m):
    return Lat([str(i) for i in range(m)], [[a <= b for b in range(m)] for a in range(m)])


def _with_bounds(names, pairs):
    # the order generated by ``pairs`` plus a bottom (index 0) and a top (last)
    m = len(names)
    leq = [[a == b or a == 0 or b == m - 1 for b in range(m)] for a in range(m)]
    for a, b in pairs:
        leq[a][b] = True
    return Lat(names, leq)


def bool4():
    return _with_bounds(["0", "a", "b", "1"], [])


def m3():
    return _with_bounds(["0", "x", "y", "z", "1"], [])


def n5():
    # pentagon: 0 < a < c < 1 and 0 < b < 1
    return _with_bounds(["0", "a", "c", "b", "1"], [(1, 2)])


def divisors(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return Lat([str(d) for d in divs], [[b % a == 0 for b in divs] for a in divs])


def catalog():
    """The lattice catalog of the test suite, rebuilt from orders."""
    return [chain(1), chain(2), chain(3), chain(4), bool4(), m3(), n5(), chain(6), divisors(12)]


def is_inf(c):
    return isinstance(c, float) and math.isinf(c)
