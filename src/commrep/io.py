"""JSON documents for lattices, representations, point sets and equalities.

Coordinates serialize as nonnegative integers, with the string ``"inf"``
for the unbounded coordinate.  Lattice elements serialize as their names.
All readers raise :class:`ParseError` on malformed documents, leaving
domain validation (lattice axioms, dimension checks) to the constructors.

A point document is read in one pass that checks each coordinate once: a
vector of nonnegative ints, the usual case, by one scan; any other vector
through :func:`vec_from_json` and the constructor's coercion, which name
its fault.  A :class:`ParseError` in any point comes before the error of
a dimension below 1, and that before the points' own ValueErrors (a
negative or, in a representation, ``"inf"`` coordinate, a wrong length,
an unknown element, conflicting values), which come in point order.  The
writers emit the constructors' checked points as they are.
"""

from __future__ import annotations

from typing import Any

from .antitone import ExtRep, Rep
from .commutator import args_from_vector, make_equality
from .lattice import Lattice
from .vectors import INF, _check_dim

__all__ = [
    "ParseError",
    "equalities_from_doc",
    "equalities_to_doc",
    "extrep_from_doc",
    "extrep_to_doc",
    "lattice_from_doc",
    "lattice_to_doc",
    "rep_from_doc",
    "rep_to_doc",
    "upset_to_doc",
    "vec_from_json",
    "vec_to_json",
]


class ParseError(ValueError):
    """A document does not match the expected schema."""


def vec_to_json(vec) -> list:
    """The JSON form of a vector; a coordinate that :func:`vec_from_json`
    would not read back as itself (not a nonnegative int or INF) is a
    ValueError."""
    out = []
    for c in vec:
        if c == INF:
            out.append("inf")
        elif isinstance(c, int) and not isinstance(c, bool) and c >= 0:
            out.append(int(c))
        else:
            raise ValueError(f"cannot write coordinate {c!r} to JSON")
    return out


def vec_from_json(data) -> tuple:
    if not isinstance(data, list):
        raise ParseError(f"vector must be a list, got {type(data).__name__}")
    out = []
    for c in data:
        if c == "inf":
            out.append(INF)
        elif isinstance(c, int) and not isinstance(c, bool):
            out.append(c)
        else:
            raise ParseError(f"bad coordinate {c!r} (expected int or 'inf')")
    return tuple(out)


def lattice_to_doc(lat: Lattice) -> dict:
    return {
        "elements": list(lat.names),
        "meet": [list(row) for row in lat.meet_table],
        "join": [list(row) for row in lat.join_table],
    }


def lattice_from_doc(doc: Any) -> Lattice:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ParseError("lattice document needs an 'elements' list")
    names = doc["elements"]
    if not isinstance(names, list):
        raise ParseError("'elements' must be a list of names")
    if "meet" in doc and "join" in doc:
        return Lattice(names, doc["meet"], doc["join"])
    if "leq" in doc:
        return Lattice.from_leq(names, doc["leq"])
    raise ParseError("lattice document needs 'meet' and 'join' tables or 'leq'")


def _doc_lattice(doc: dict, lattice: Lattice | None) -> Lattice:
    inline = doc.get("lattice")
    if isinstance(inline, dict):
        return lattice_from_doc(inline)
    if lattice is not None:
        return lattice
    raise ParseError(
        "document carries no inline lattice; supply one (--lattice)"
    )


def _points_to_doc(ps: Rep | ExtRep) -> dict:
    # the points are checked: nonnegative ints, and INF in an ExtRep
    names = ps.lattice.names
    return {
        "dimension": ps.dim,
        "lattice": lattice_to_doc(ps.lattice),
        "points": [
            {
                "vec": list(vec) if INF not in vec else ["inf" if c == INF else c for c in vec],
                "value": names[e],
            }
            for vec, e in ps.points
        ],
    }


def _points_from_doc(cls, doc: Any, lattice: Lattice | None):
    if not isinstance(doc, dict) or "dimension" not in doc or "points" not in doc:
        raise ParseError("point set document needs 'dimension' and 'points'")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f"'dimension' must be an integer, got {dim!r}")
    lat = _doc_lattice(doc, lattice)
    data = doc["points"]
    if not isinstance(data, list):
        raise ParseError("'points' must be a list")
    # The first ValueError is kept while the remaining points are still
    # read for ParseErrors, which come first; the pairs checked before it
    # still meet the duplicate rule, whose error comes earlier in order.
    fault = None
    try:
        _check_dim(dim)
    except ValueError as exc:
        fault = exc
    pairs = []
    for item in data:
        if not isinstance(item, dict) or "vec" not in item or "value" not in item:
            raise ParseError("each point needs 'vec' and 'value'")
        vec = item["vec"]
        plain = type(vec) is list  # of nonnegative ints only, as found below
        if plain:
            for c in vec:
                if type(c) is not int or c < 0:
                    plain = False
                    break
        vec = tuple(vec) if plain else vec_from_json(vec)
        if fault is None:
            try:
                if not plain or len(vec) != dim:
                    vec = cls._coerce(vec, dim)
                pairs.append((vec, lat.resolve(item["value"])))
            except ValueError as exc:
                fault = exc
    points = cls._distinct(lat, pairs)
    if fault is not None:
        raise fault
    return cls._from_checked(lat, dim, points)


# One function object per public name, so that wrapping one name by
# identity (as perfbench's tracer does) leaves the others alone.
def rep_to_doc(rep: Rep) -> dict:
    return _points_to_doc(rep)


def rep_from_doc(doc: Any, lattice: Lattice | None = None) -> Rep:
    return _points_from_doc(Rep, doc, lattice)


def extrep_to_doc(ext: ExtRep) -> dict:
    return _points_to_doc(ext)


def extrep_from_doc(doc: Any, lattice: Lattice | None = None) -> ExtRep:
    return _points_from_doc(ExtRep, doc, lattice)


def upset_to_doc(upset) -> dict:
    return {"dimension": upset.dim, "gens": [vec_to_json(g) for g in upset.gens]}


def equalities_to_doc(lat: Lattice, eqs) -> dict:
    names = lat.names
    items = []
    for e in eqs:
        item: dict = {
            "args": [names[a] for a in args_from_vector(lat, e.vec)],
            "rhs": names[e.rhs],
        }
        if INF in e.vec:
            item = {"S": sorted(names[j] for j, c in enumerate(e.vec) if c == INF), **item}
        items.append(item)
    return {"lattice": lattice_to_doc(lat), "equalities": items}


def _list(item: dict, key: str) -> list:
    value = item.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def equalities_from_doc(doc: Any, lattice: Lattice | None = None):
    """Read a list of equalities; an optional ``"S"`` list names the
    elements that may occur arbitrarily often."""
    if not isinstance(doc, dict) or "equalities" not in doc:
        raise ParseError("equality document needs an 'equalities' list")
    lat = _doc_lattice(doc, lattice)
    out = []
    for item in _list(doc, "equalities"):
        if not isinstance(item, dict) or "args" not in item or "rhs" not in item:
            raise ParseError("each equality needs 'args' and 'rhs'")
        out.append(make_equality(lat, _list(item, "args"), item["rhs"], _list(item, "S")))
    return lat, tuple(out)
