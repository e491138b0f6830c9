"""Decision procedures for structural properties of encoded operation sequences.

An operation sequence on an m-element lattice that is symmetric in its
arguments is a function of the occurrence counts alone, hence a map from
N^m into the lattice: coordinate j counts how often lattice element j
occurs among the arguments (elements in the order the lattice declares
them).  These checks therefore require ``rep.dim == rep.lattice.m``.

Property names follow the common numbering for commutator-style operation
sequences:

  - hc1, boundedness: every value lies below each of its arguments.
  - hc2, monotony: replacing an argument by a smaller one cannot raise
    the value.
  - hc3, omission: prepending arguments cannot raise the value.  Holds
    automatically here, since every represented function is antitone.
  - hc4, symmetry: argument order is irrelevant.  Holds automatically,
    occurrence-count vectors carry no order.
  - hc7, join distributivity: the value at a join of arguments is the
    join of the values.
  - hc8, nesting: feeding a value back in as an argument stays below the
    original value.

Each ``check_hc*`` function decides its property for the whole infinite
sequence from the finite representation alone; ``admissibility_report``
bundles them with first-counterexample witnesses.  No check does work that
grows with the counts.
"""

from __future__ import annotations

from functools import reduce

from .antitone import Rep
from .upset import UpSet, max_elements
from .vectors import INF, unit, vadd

__all__ = [
    "admissibility_report",
    "check_hc1",
    "check_hc2",
    "check_hc7",
    "check_hc8",
    "is_admissible",
]


def _require_encoding(rep: Rep) -> None:
    if rep.dim != rep.lattice.m:
        raise ValueError(
            f"sequence evaluation needs dimension {rep.lattice.m}, got {rep.dim}"
        )


def _decided(rep: Rep, prop: str, find):
    # The witness of prop (None when it holds), found once per Rep and kept
    # with its other derived objects; do not mutate.
    if prop not in rep._witnesses:
        rep._witnesses[prop] = find(rep)
    return rep._witnesses[prop]


def _hc1_witness(rep: Rep):
    # By antitony a violation, if any, already shows at a unit vector.
    _require_encoding(rep)
    lat = rep.lattice
    for j in range(lat.m):
        v = rep._value_at(unit(rep.dim, j))
        if not lat.leq(v, j):
            return {
                "property": "hc1",
                "point": unit(rep.dim, j),
                "argument": lat.name(j),
                "value": lat.name(v),
            }
    return None


def _hc2_witness(rep: Rep):
    # The canonical points suffice: any other vector dominates a canonical
    # vector of the same value, and the replacement step factors through it.
    _require_encoding(rep)
    lat = rep.lattice
    for b, beta in rep.canonical().points:
        for j in range(lat.m):
            if b[j] == 0:
                continue
            for i in range(lat.m):
                if i == j or not lat.leq(i, j):
                    continue
                moved = tuple(c - (t == j) + (t == i) for t, c in enumerate(b))
                v = rep._value_at(moved)
                if not lat.leq(v, beta):
                    return {
                        "property": "hc2",
                        "point": b,
                        "replaced": lat.name(j),
                        "by": lat.name(i),
                        "value": lat.name(v),
                        "bound": lat.name(beta),
                    }
    return None


def _meets(P, Q) -> set:
    # The maximal vectors of the intersection of the down-sets that P and Q
    # generate: a vector lies below some p in P and some q in Q exactly
    # when it lies below their meet, so these are the maximal meets.
    return max_elements({tuple(map(min, p, q)) for p in P for q in Q})


def _hc8_witness(rep: Rep):
    # Assumes hc2.  For each canonical point a and each b below a, replace
    # the b-part of the arguments by the single element j = eval(b).  The
    # value at a - b + e_j grows with b, so only the largest b <= a with
    # eval(b) = j matter: each is vinf(a, p) for a maximum p outside the
    # union of the sublevels of j's lower covers.  Those maxima come from
    # the rep's level table, which holds the maxima outside each sublevel:
    # over one cover they are the cover's own, over none (below the bottom)
    # the all-INF vector, and over several the maximal pairwise meets of
    # the covers' maxima, as the outside of a union is the intersection of
    # the outsides.  The table's sets are read, never changed.
    # Every pooled candidate is some b <= a, checked with its own value,
    # except where antitony decides it: below a point valued top nothing
    # exceeds alpha, and for b <= e_j (b = 0 or b = e_j) the nested vector
    # lies at or above a, so its value is at most alpha.  The scan order is
    # that of the unpruned scan, so the first witness is the same.
    _require_encoding(rep)
    lat = rep.lattice
    canon = rep.canonical().points  # first, so the table copies its values
    critical, _ = rep._level_table()
    tops = set()
    for j in range(lat.m):
        outside = [critical[c][1] for c in lat.lower_covers(j)]
        tops.update(reduce(_meets, outside) if outside else [(INF,) * rep.dim])
    for a, alpha in canon:
        if alpha == lat.top:
            continue
        for b in sorted({tuple(map(min, a, p)) for p in tops}):
            j = rep._value_at(b)
            if sum(b) <= b[j] <= 1:
                continue
            nested = tuple(x - y + (t == j) for t, (x, y) in enumerate(zip(a, b)))
            v = rep._value_at(nested)
            if not lat.leq(v, alpha):
                return {
                    "property": "hc8",
                    "point": a,
                    "inner": b,
                    "inner_value": lat.name(j),
                    "value": lat.name(v),
                    "bound": lat.name(alpha),
                }
    return None


def _hc7_separator(shifted: list[UpSet], i: int, j: int, k: int):
    """A generator in just one of E = {x : F(x + e_k) <= alpha} and
    I = {x : F(x + e_i) <= alpha and F(x + e_j) <= alpha}, or None, where
    shifted[t] is {x : F(x + e_t) <= alpha}: the first that a scan of E's
    sorted generators and then I's finds.

    Nothing is intersected.  The first generator of E outside shifted[i]
    or shifted[j] is the first one outside I.  When there is none, E lies
    in I, and the separator is the least generator of I outside E.  That
    is the least supremum g v h outside E, over generators g of shifted[i]
    and h of shifted[j] that lie outside E; a generator in E puts every
    supremum with it in E, so no other pair gives one.  Each generator of
    I is such a supremum.  Conversely, below the least such supremum s
    lies a generator of I, which is outside E as E is an upset, so it is
    one of them; it is at most s in the sorted order too, so it is s.
    When there is no such supremum, I lies in E and the two are equal.
    """
    ek, si, sj = shifted[k], shifted[i], shifted[j]
    for g in ek.gens:
        if not (si._contains(g) and sj._contains(g)):
            return g
    hs = [h for h in sj.gens if not ek._contains(h)]
    sups = [tuple(map(max, g, h)) for g in si.gens if not ek._contains(g) for h in hs]
    return min([s for s in sups if not ek._contains(s)], default=None)


def _hc7_witness(rep: Rep):
    # F(x + e_k) must agree with F(x + e_i) v F(x + e_j) whenever element k
    # is the join of i and j.  Two antitone functions agree iff all their
    # sublevels do, and shifting by a unit vector turns a sublevel U into
    # {x : x + e in U}, while the join's sublevel is the intersection.
    # For i = j both sides are the same set, so those triples are skipped.
    # For comparable i <= j the join is j, and hc7 at (i, j) says
    # F(x + e_j) = F(x + e_i) v F(x + e_j), that is F(x + e_i) <= F(x + e_j)
    # for all x: hc2's condition at y = x + e_j for replacing j by i (and
    # alike for j <= i).  So once hc2 holds no comparable pair separates,
    # and those pairs are skipped; the first witness is the same.  Each
    # sublevel is shifted once by each unit vector, when the first pair
    # that is scanned reaches it, and the shifts serve all later pairs.
    _require_encoding(rep)
    lat = rep.lattice
    monotone = _decided(rep, "hc2", _hc2_witness) is None
    shifts: dict[int, list[UpSet]] = {}
    for i in range(lat.m):
        for j in range(i + 1, lat.m):
            k = lat.join(i, j)
            if monotone and k in (i, j):
                continue
            for alpha in range(lat.m):
                if alpha not in shifts:
                    level = rep.sublevel(alpha)
                    shifts[alpha] = [level.shift(unit(rep.dim, t)) for t in range(lat.m)]
                x = _hc7_separator(shifts[alpha], i, j, k)
                if x is None:
                    continue
                lhs = rep._value_at(vadd(x, unit(rep.dim, k)))
                rhs = lat.join(
                    rep._value_at(vadd(x, unit(rep.dim, i))),
                    rep._value_at(vadd(x, unit(rep.dim, j))),
                )
                return {
                    "property": "hc7",
                    "joined": (lat.name(i), lat.name(j)),
                    "join": lat.name(k),
                    "point": x,
                    "value_at_join": lat.name(lhs),
                    "join_of_values": lat.name(rhs),
                }
    return None


def check_hc1(rep: Rep) -> bool:
    """Boundedness: the value at each unit vector lies below its element."""
    return _decided(rep, "hc1", _hc1_witness) is None


def check_hc2(rep: Rep) -> bool:
    """Monotony: replacing an occurrence by a smaller element never raises
    the value.  Checked on the canonical representation."""
    return _decided(rep, "hc2", _hc2_witness) is None


def check_hc7(rep: Rep) -> bool:
    """Join distributivity in each argument.  Decides hc2 first, through
    the memo the other checks share: where hc2 holds, only pairs of
    incomparable arguments are scanned."""
    return _decided(rep, "hc7", _hc7_witness) is None


def check_hc8(rep: Rep) -> bool:
    """Nesting.  Requires hc2; raises ValueError when it fails."""
    if not check_hc2(rep):
        raise ValueError("hc8 test requires hc2 (monotony) to hold")
    return _decided(rep, "hc8", _hc8_witness) is None


def is_admissible(rep: Rep) -> bool:
    """Whether the encoded sequence satisfies hc1, hc2, hc7 and hc8
    (hc3 and hc4 hold by encoding)."""
    return check_hc1(rep) and check_hc2(rep) and check_hc7(rep) and check_hc8(rep)


def _copy(witness):
    return None if witness is None else dict(witness)


def admissibility_report(rep: Rep) -> dict:
    """Per-property outcome with a first counterexample witness when false."""
    report: dict = {}
    w1 = _copy(_decided(rep, "hc1", _hc1_witness))
    w2 = _copy(_decided(rep, "hc2", _hc2_witness))
    w7 = _copy(_decided(rep, "hc7", _hc7_witness))
    report["hc1"] = {"holds": w1 is None, "witness": w1}
    report["hc2"] = {"holds": w2 is None, "witness": w2}
    report["hc3"] = {"holds": True, "note": "antitone by construction"}
    report["hc4"] = {"holds": True, "note": "occurrence counts carry no order"}
    report["hc7"] = {"holds": w7 is None, "witness": w7}
    if w2 is None:
        w8 = _copy(_decided(rep, "hc8", _hc8_witness))
        report["hc8"] = {"holds": w8 is None, "witness": w8}
    else:
        report["hc8"] = {"holds": None, "note": "not evaluated, needs hc2"}
    report["admissible"] = all(
        report[p]["holds"] is True for p in ("hc1", "hc2", "hc7", "hc8")
    )
    return report
