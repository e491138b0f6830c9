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

from .antitone import Rep
from .upset import UpSet
from .vectors import unit, vadd, vinf

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
    # The witness of hc1 or hc2 (None when it holds), found once per Rep
    # and kept with its other derived objects; do not mutate.
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


def _hc8_witness(rep: Rep):
    # Assumes hc2.  For each canonical point a and each b below a, replace
    # the b-part of the arguments by the single element j = eval(b).  The
    # value at a - b + e_j grows with b, so only the largest b <= a with
    # eval(b) = j matter: each is vinf(a, p) for a complement maximum p of
    # the union of the sublevels of j's lower covers, which the rep caches
    # with its sublevels' maxima: the union over one cover is its sublevel.
    # Every pooled candidate is some b <= a, checked with its own value.
    _require_encoding(rep)
    lat = rep.lattice
    tops = set()
    for j in range(lat.m):
        below = UpSet._from_checked(
            rep.dim, (g for c in lat.lower_covers(j) for g in rep.sublevel(c).gens)
        )
        tops |= rep._maxima_outside(below)
    for a, alpha in rep.canonical().points:
        for b in sorted({vinf(a, p) for p in tops}):
            j = rep._value_at(b)
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
    """A generator in just one of {x : F(x + e_k) <= alpha} and
    {x : F(x + e_i) <= alpha and F(x + e_j) <= alpha}, or None, where
    shifted[t] is {x : F(x + e_t) <= alpha}."""
    ek = shifted[k]
    both = shifted[i] & shifted[j]
    if ek.gens == both.gens:
        return None  # sorted minimal antichains: the sets are equal
    for g in ek.gens + both.gens:
        if not (ek.member(g) and both.member(g)):
            return g
    return None


def _hc7_witness(rep: Rep):
    # F(x + e_k) must agree with F(x + e_i) v F(x + e_j) whenever element k
    # is the join of i and j.  Two antitone functions agree iff all their
    # sublevels do, and shifting by a unit vector turns a sublevel U into
    # {x : x + e in U}, while the join's sublevel is the intersection.
    # For i = j both sides are the same set, so those triples are skipped.
    # Each sublevel is shifted once by each unit vector, for all pairs.
    _require_encoding(rep)
    lat = rep.lattice
    shifts = [
        [rep.sublevel(alpha).shift(unit(rep.dim, t)) for t in range(lat.m)]
        for alpha in range(lat.m)
    ]
    for i in range(lat.m):
        for j in range(i + 1, lat.m):
            k = lat.join(i, j)
            for alpha in range(lat.m):
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
    """Join distributivity in each argument."""
    return _hc7_witness(rep) is None


def check_hc8(rep: Rep) -> bool:
    """Nesting.  Requires hc2; raises ValueError when it fails."""
    if not check_hc2(rep):
        raise ValueError("hc8 test requires hc2 (monotony) to hold")
    return _hc8_witness(rep) is None


def is_admissible(rep: Rep) -> bool:
    """Whether the encoded sequence satisfies hc1, hc2, hc7 and hc8
    (hc3 and hc4 hold by encoding)."""
    if not (check_hc1(rep) and check_hc2(rep)):
        return False
    return check_hc7(rep) and _hc8_witness(rep) is None


def _copy(witness):
    return None if witness is None else dict(witness)


def admissibility_report(rep: Rep) -> dict:
    """Per-property outcome with a first counterexample witness when false."""
    report: dict = {}
    w1 = _copy(_decided(rep, "hc1", _hc1_witness))
    w2 = _copy(_decided(rep, "hc2", _hc2_witness))
    w7 = _hc7_witness(rep)
    report["hc1"] = {"holds": w1 is None, "witness": w1}
    report["hc2"] = {"holds": w2 is None, "witness": w2}
    report["hc3"] = {"holds": True, "note": "antitone by construction"}
    report["hc4"] = {"holds": True, "note": "occurrence counts carry no order"}
    report["hc7"] = {"holds": w7 is None, "witness": w7}
    if w2 is None:
        w8 = _hc8_witness(rep)
        report["hc8"] = {"holds": w8 is None, "witness": w8}
    else:
        report["hc8"] = {"holds": None, "note": "not evaluated, needs hc2"}
    report["admissible"] = all(
        report[p]["holds"] is True for p in ("hc1", "hc2", "hc7", "hc8")
    )
    return report
