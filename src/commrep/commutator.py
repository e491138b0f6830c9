"""Between operation sequences and their occurrence-count encodings.

A symmetric operation sequence on an m-element lattice assigns a lattice
element to every finite multiset of lattice elements; encoding multisets
as occurrence-count vectors turns the sequence into a function from N^m
into the lattice, antitone exactly when prepending arguments never raises
the value.  This module evaluates (extended) bracket expressions through a
representation of that function, converts representations to equality sets
and back, and ships the worked example sequences used throughout the test
suite and the demos.

An equality states the value of the sequence on one argument multiset,
kept as its occurrence-count vector.  A coordinate may be INF: that element
may then be inserted arbitrarily often, and the stated value is the meet
over all such insertions, which is the continuation evaluated at the
vector.  Such an equality is called extended.  A representation's canonical
points translate into finite equalities whose largest symmetric antitone
model is the represented sequence; the points of a complete representation
translate into equalities that pin the sequence down uniquely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .antitone import Rep
from .hc import _require_encoding, check_hc1, check_hc2
from .lattice import Lattice, chain, divisor_lattice
from .vectors import INF, Vec, unit

__all__ = [
    "CommEquality",
    "args_from_vector",
    "encode_args",
    "eval_commutator",
    "eval_extended",
    "example",
    "largest_from_equalities",
    "reduced_equalities",
    "satisfies",
    "to_equalities",
    "to_extended_equalities",
]


@dataclass(frozen=True)
class CommEquality:
    """States that the sequence takes value ``rhs`` on the argument multiset
    with occurrence counts ``vec``; an INF count marks an element that may
    occur any number of times, and the stated value is the meet over all
    such paddings."""

    vec: Vec
    rhs: int

    def render(self, lattice: Lattice) -> str:
        inner = ",".join(lattice.name(a) for a in args_from_vector(lattice, self.vec))
        if INF not in self.vec:
            return f"[{inner}] = {lattice.name(self.rhs)}"
        s = ",".join(sorted(lattice.name(j) for j, c in enumerate(self.vec) if c == INF))
        return f"[{{{s}}}; {inner}] = {lattice.name(self.rhs)}"


def make_equality(lattice: Lattice, args, rhs, unbounded=()) -> CommEquality:
    return CommEquality(encode_args(lattice, args, unbounded), lattice.resolve(rhs))


def encode_args(lattice: Lattice, args, unbounded=()) -> Vec:
    """Occurrence-count vector of an argument multiset, with INF at the
    elements of ``unbounded``."""
    counts = Counter(lattice.resolve(a) for a in args)
    s = {lattice.resolve(u) for u in unbounded}
    return tuple(INF if j in s else counts.get(j, 0) for j in range(lattice.m))


# The most arguments one equality is spelled out with; a larger count
# would fill memory one list entry at a time, so it is refused instead.
MAX_SPELLED_ARGS = 10**6


def args_from_vector(lattice: Lattice, vec: Vec) -> tuple[int, ...]:
    """Spell the finite counts of a vector out as a sorted argument tuple.

    Raises ValueError when that takes more than ``MAX_SPELLED_ARGS``
    arguments.
    """
    out = []
    for j, c in enumerate(vec):
        if c != INF:
            if len(out) + c > MAX_SPELLED_ARGS:
                raise ValueError(
                    f"cannot spell out {c} occurrences of {lattice.name(j)}: "
                    f"an equality is written with at most {MAX_SPELLED_ARGS} arguments"
                )
            out.extend([j] * c)
    return tuple(out)


def eval_commutator(rep: Rep, args) -> int:
    """Value of the encoded sequence on an argument multiset.

    The empty multiset evaluates to top, consistently with the encoding's
    value at the zero vector.
    """
    _require_encoding(rep)
    return rep.eval(encode_args(rep.lattice, args))


def eval_extended(rep: Rep, unbounded, args) -> int:
    """Value of an extended bracket: ``unbounded`` elements may be inserted
    arbitrarily often, so their coordinates are INF in the encoding."""
    _require_encoding(rep)
    return rep.eval_ext(encode_args(rep.lattice, args, unbounded))


def satisfies(rep: Rep, eq: CommEquality) -> bool:
    """Whether the encoded sequence attains the stated equality exactly."""
    _require_encoding(rep)
    return rep.eval_ext(eq.vec) == eq.rhs


def to_equalities(rep: Rep) -> tuple[CommEquality, ...]:
    """One finite equality per canonical point.

    The represented sequence is the largest symmetric antitone sequence
    satisfying the returned set.
    """
    _require_encoding(rep)
    return tuple(CommEquality(v, val) for v, val in rep.canonical().points)


def to_extended_equalities(rep: Rep) -> tuple[CommEquality, ...]:
    """One equality per point of a complete representation.

    The returned set pins the sequence down uniquely among symmetric
    antitone sequences.  Several complete point sets exist; the one
    produced by :meth:`Rep.complete` is used, so the output is a valid
    pinning set rather than one particular hand-picked presentation.
    """
    _require_encoding(rep)
    return tuple(CommEquality(v, val) for v, val in rep.complete().points)


def largest_from_equalities(
    lattice: Lattice, eqs
) -> tuple[Rep, tuple[tuple[CommEquality, bool], ...]]:
    """The largest symmetric antitone sequence below the stated values.

    Returns its representation together with, for each input equality,
    whether the sequence attains it with equality.  An inconsistent set
    shows up as equalities that are not attained (the function passes
    strictly below them).  Extended equalities are rejected: a meet over
    infinitely many paddings has no largest model in general.
    """
    eqs = tuple(eqs)
    for e in eqs:
        if INF in e.vec:
            raise ValueError(
                f"extended equality {e.render(lattice)} has no largest model"
            )
    rep = Rep(lattice, lattice.m, [(e.vec, e.rhs) for e in eqs])
    report = tuple((e, satisfies(rep, e)) for e in eqs)
    return rep, report


def _reaches(lattice: Lattice, b: Vec, x: Vec) -> bool:
    """Whether replacing arguments of b by smaller elements can bring b below x.

    By Hall's theorem the occurrences of b match into those of x, each onto
    an element below it, exactly when b(D) <= x(D) for every down-set D
    generated by part of b's support (v(D) sums v over D).
    """
    support = [j for j, c in enumerate(b) if c]
    for r in range(1, len(support) + 1):
        for part in combinations(support, r):
            down = [i for i in range(len(b)) if any(lattice.leq(i, j) for j in part)]
            if sum(b[i] for i in down) > sum(x[i] for i in down):
                return False
    return True


def _monotone_closed_rep(lattice: Lattice, pairs):
    """Evaluator of the largest bounded, monotone sequence below the points.

    Unit points (element j at its own singleton bracket) force boundedness;
    monotony puts the value at x below that of each point that reaches x.
    """
    m = lattice.m
    pairs = [(unit(m, j), j) for j in range(m)] + list(pairs)

    def closed(x: Vec) -> int:
        return lattice.big_meet(beta for b, beta in pairs if _reaches(lattice, b, x))

    return closed


def reduced_equalities(rep: Rep) -> tuple[CommEquality, ...]:
    """A pruned equality set determining the sequence as the largest one
    satisfying boundedness, monotony, omission and symmetry.

    Starting from the canonical equalities, the trivial ones are dropped
    (the empty bracket, and singleton brackets attaining their own
    argument), then, if the sequence F is bounded (hc1) and monotone (hc2),
    each b = beta that the largest bounded monotone sequence through the
    others already attains at b.  That sequence is bounded and monotone, so
    it never equals one that is not; its values come from Hall's condition.

    One pass suffices, in no particular order.  "q reaches b" (_reaches) is
    a partial order: replacements compose, and a strict one keeps the sum
    and lowers the rank sum.  Let D hold the equalities the others entail
    and K the rest.  Any q = gamma helping to entail some b = beta in D lies
    strictly below b, so by induction the closure through K is <= gamma at
    every canonical point q, hence it equals the bounded monotone F.
    Dropping equalities one by one drops only members of D (fewer give a
    larger closure) and all of them (the rest always contain K): K again.
    """
    _require_encoding(rep)
    lat = rep.lattice

    def trivial(v: Vec, val: int) -> bool:
        if not any(v):
            return val == lat.top  # the empty bracket is top by encoding
        return sum(v) == 1 and v[val] == 1

    points = rep.canonical().points
    kept = [CommEquality(v, val) for v, val in points if not trivial(v, val)]
    if not (check_hc1(rep) and check_hc2(rep)):
        return tuple(kept)
    pairs = [(e.vec, e.rhs) for e in kept]
    return tuple(
        e for i, e in enumerate(kept)
        if not lat.leq(_monotone_closed_rep(lat, pairs[:i] + pairs[i + 1 :])(e.vec), e.rhs)
    )


def example(name: str) -> tuple[Lattice, Rep]:
    """A named example: a lattice and an encoded sequence on it.

    - ``div52``: divisors of 52 under divisibility, with a two-point
      representation in two variables (not a sequence encoding; its
      dimension differs from the lattice size on purpose).
    - ``B``: the three element chain 0 < alpha < 1 with the sequence whose
      binary value on (1, 1) is alpha, which hits 0 as soon as alpha and 1
      mix, and which stays at alpha for any number of 1 arguments.
    - ``B7``: as ``B`` except that eight or more 1 arguments collapse the
      value to 0 while up to seven keep alpha.
    """
    key = name.lower()
    if key == "div52":
        lat = divisor_lattice(52)
        rep = Rep(lat, 2, [((10, 20), "26"), ((30, 5), "4")])
        return lat, rep
    if key in ("b", "b7"):
        lat = chain(3, ["0", "alpha", "1"])
        pts = [
            ((0, 0, 0), "1"),
            ((0, 1, 0), "alpha"),
            ((0, 0, 2), "alpha"),
            ((1, 0, 0), "0"),
            ((0, 1, 1), "0"),
            ((0, 2, 0), "0"),
        ]
        if key == "b7":
            pts.append(((0, 0, 8), "0"))
        return lat, Rep(lat, 3, pts)
    raise ValueError(f"unknown example {name!r} (expected div52, B or B7)")
