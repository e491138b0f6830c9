"""Finite bounded lattices given by explicit meet and join tables.

Elements are the dense indices ``0 .. m-1``; the names supplied at
construction are used only at the I/O boundary.  Construction always runs
the full axiom check (commutativity, associativity, idempotence,
absorption), so any ``Lattice`` instance in circulation is a genuine
bounded lattice and downstream code never re-validates.  The axioms imply
the rest: commutativity and absorption make a∧b=a coincide with a∨b=b,
and a finite lattice has a top and a bottom.

Conventions:
    - ``leq(a, b)`` holds iff ``meet(a, b) == a`` (equivalently
      ``join(a, b) == b``).
    - ``lower_covers(a)`` returns the elements directly below ``a``.
    - ``big_meet([])`` is the top element, ``big_join([])`` the bottom.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sized
from functools import reduce
from itertools import product
from numbers import Integral
from typing import Sequence

__all__ = ["Lattice", "LatticeError", "chain", "divisor_lattice"]

Table = tuple[tuple[int, ...], ...]


class LatticeError(ValueError):
    """An axiom violation in the supplied tables; the message carries a witness."""


def _rows(table, m: int, what: str) -> list[list]:
    """The rows of an m x m table, or a LatticeError naming its shape."""
    rows = list(table) if isinstance(table, Iterable) else None
    lengths = [len(r) if isinstance(r, Sized) else None for r in rows or ()]
    if rows is not None and lengths == [m] * m:
        return [list(r) for r in rows]
    if rows is None:
        got = "shape ()"
    elif not rows or None in lengths:
        got = f"shape ({len(rows)},)"
    elif len(set(lengths)) == 1:
        got = f"shape ({len(rows)}, {lengths[0]})"
    else:
        got = f"ragged rows of lengths {lengths}"
    raise LatticeError(f"{what} must be {m}x{m}, got {got}")


def _as_table(table, m: int, label: str) -> Table:
    rows = _rows(table, m, f"{label} table")
    if not all(
        type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))
        for r in rows
        for x in r
    ):
        raise LatticeError(f"{label} table must contain element indices")
    out = tuple(tuple(map(int, r)) for r in rows)
    for a, row in enumerate(out):
        for b, x in enumerate(row):
            if not 0 <= x < m:
                raise LatticeError(
                    f"{label} table entry at {(a, b)} is out of range 0..{m - 1}"
                )
    return out


class Lattice:
    """A finite bounded lattice over named elements.

    Parameters
    ----------
    names : sequence of distinct element names.
    meet_table, join_table : m x m tables of element indices.
    """

    def __init__(self, names: Sequence[str], meet_table, join_table):
        names = tuple(str(n) for n in names)
        if not names:
            raise LatticeError("a lattice needs at least one element")
        if len(set(names)) != len(names):
            raise LatticeError("element names must be distinct")
        m = len(names)
        self.names = names
        self.m = m
        self._meet = _as_table(meet_table, m, "meet")
        self._join = _as_table(join_table, m, "join")
        self._index = {n: i for i, n in enumerate(names)}
        self._validate()

        elems = range(m)
        self._leq = tuple(tuple(self._meet[a][b] == a for b in elems) for a in elems)
        below = [[b for b in elems if b != a and self._leq[b][a]] for a in elems]
        self._lower_covers = tuple(
            tuple(b for b in bs if not any(self._leq[b][c] for c in bs if c != b))
            for bs in below
        )
        # a finite lattice is bounded: the join of all elements is the top
        self.top = reduce(self.join, elems)
        self.bottom = reduce(self.meet, elems)
        self._hash = hash((names, self._meet, self._join))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_leq(cls, names: Sequence[str], leq_matrix) -> "Lattice":
        """Build a lattice from a boolean order matrix (leq[a][b] iff a <= b).

        Meets and joins are computed as greatest lower / least upper bounds
        and then validated like directly supplied tables.  Their order is
        the given relation: once meet is idempotent, a is the unique
        greatest lower bound of (a, a), so the relation is reflexive and
        antisymmetric, and a∧b = a holds exactly when a <= b.
        """
        names = tuple(str(n) for n in names)
        m = len(names)
        leq = _rows(leq_matrix, m, "leq matrix")
        for a, row in enumerate(leq):
            for b, x in enumerate(row):
                # only a bool or the int 0 or 1 says whether a <= b
                if not (isinstance(x, int) and x in (0, 1)):
                    raise LatticeError(
                        f"leq matrix entry at {(a, b)} must be true, false, 0 or 1, got {x!r}"
                    )
                row[b] = bool(x)
        geq = [list(col) for col in zip(*leq)]
        meet = [[0] * m for _ in range(m)]
        join = [[0] * m for _ in range(m)]
        for a, b in product(range(m), range(m)):
            meet[a][b] = cls._least_upper(geq, names, a, b, "greatest lower")
            join[a][b] = cls._least_upper(leq, names, a, b, "least upper")
        return cls(names, meet, join)

    @staticmethod
    def _least_upper(order, names, a: int, b: int, kind: str) -> int:
        cand = [c for c, (x, y) in enumerate(zip(order[a], order[b])) if x and y]
        hits = [c for c in cand if all(order[c][x] for x in cand)]
        if len(hits) != 1:
            raise LatticeError(f"order has no {kind} bound for ({names[a]}, {names[b]})")
        return hits[0]

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        """Check the lattice axioms; each message names the first failing cell."""
        elems = range(self.m)
        pairs = list(product(elems, elems))
        meet, join = self._meet, self._join
        for label, t in (("meet", meet), ("join", join)):
            self._check(
                f"{label} is not commutative at ({{}}, {{}})",
                ((a, b) for a, b in pairs if t[a][b] != t[b][a]),
            )
            self._check(
                f"{label} is not idempotent at {{}}", ((a,) for a in elems if t[a][a] != a)
            )
            self._check(
                f"{label} is not associative at ({{}}, {{}}, {{}})",
                (
                    (a, b, c)
                    for a, b in pairs
                    for c in elems
                    if t[t[a][b]][c] != t[a][t[b][c]]
                ),
            )
        self._check(
            "absorption a∧(a∨b)=a fails at ({}, {})",
            ((a, b) for a, b in pairs if meet[a][join[a][b]] != a),
        )
        self._check(
            "absorption a∨(a∧b)=a fails at ({}, {})",
            ((a, b) for a, b in pairs if join[a][meet[a][b]] != a),
        )

    def _check(self, message: str, witnesses: Iterable[tuple[int, ...]]) -> None:
        bad = next(iter(witnesses), None)
        if bad is not None:
            raise LatticeError(message.format(*(self.names[i] for i in bad)))

    # -- queries -----------------------------------------------------------

    def meet(self, a: int, b: int) -> int:
        return self._meet[a][b]

    def join(self, a: int, b: int) -> int:
        return self._join[a][b]

    def leq(self, a: int, b: int) -> bool:
        return self._leq[a][b]

    def lower_covers(self, a: int) -> tuple[int, ...]:
        """All b with b < a and nothing strictly between."""
        return self._lower_covers[a]

    def big_meet(self, elems: Iterable[int]) -> int:
        return reduce(self.meet, elems, self.top)

    def big_join(self, elems: Iterable[int]) -> int:
        return reduce(self.join, elems, self.bottom)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown lattice element {name!r}") from None

    def name(self, i: int) -> str:
        return self.names[i]

    def resolve(self, elem) -> int:
        """Accept an element given as an index or as a name."""
        if isinstance(elem, str):
            try:
                return self._index[elem]
            except KeyError:
                raise ValueError(f"unknown lattice element {elem!r}") from None
        if type(elem) is int and 0 <= elem < self.m:
            return elem
        if isinstance(elem, Integral) and not isinstance(elem, bool):
            i = int(elem)
            if 0 <= i < self.m:
                return i
            raise ValueError(f"element index {i} out of range 0..{self.m - 1}")
        raise ValueError(f"cannot interpret {elem!r} as a lattice element")

    @property
    def meet_table(self) -> Table:
        return self._meet

    @property
    def join_table(self) -> Table:
        return self._join

    @property
    def leq_matrix(self) -> tuple[tuple[bool, ...], ...]:
        return self._leq

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.names == other.names
            and self._meet == other._meet
            and self._join == other._join
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Lattice({list(self.names)!r})"


def chain(m: int, names: Sequence[str] | None = None) -> Lattice:
    """The m-element chain 0 < 1 < ... < m-1."""
    if names is None:
        names = [str(i) for i in range(m)]
    meet = [[min(a, b) for b in range(m)] for a in range(m)]
    join = [[max(a, b) for b in range(m)] for a in range(m)]
    return Lattice(names, meet, join)


def divisor_lattice(n: int) -> Lattice:
    """Divisors of n ordered by divisibility, with gcd as meet and lcm as join.

    Raises ValueError when n < 1, which has no divisors to order.
    """
    if n < 1:
        raise ValueError(f"divisor_lattice needs n >= 1, got {n}")
    divs = [d for d in range(1, n + 1) if n % d == 0]
    pos = {d: i for i, d in enumerate(divs)}
    meet = [[pos[math.gcd(a, b)] for b in divs] for a in divs]
    join = [[pos[math.lcm(a, b)] for b in divs] for a in divs]
    return Lattice([str(d) for d in divs], meet, join)
