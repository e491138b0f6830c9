import copy
import json
import random

import pytest

from commrep import INF, CommEquality, ExtRep, Rep
from commrep.commutator import make_equality, to_equalities
from commrep.io import (
    ParseError,
    equalities_from_doc,
    equalities_to_doc,
    extrep_from_doc,
    extrep_to_doc,
    lattice_from_doc,
    lattice_to_doc,
    rep_from_doc,
    rep_to_doc,
    vec_from_json,
    vec_to_json,
)
from util import (
    lattice_catalog,
    ref_equalities_to_doc,
    ref_point_set,
    ref_points_from_doc,
    ref_points_to_doc,
)


def test_vec_json_round_trip():
    vec = (3, INF, 0)
    data = vec_to_json(vec)
    assert data == [3, "inf", 0]
    assert vec_from_json(data) == vec


def test_vec_to_json_writes_only_what_vec_from_json_reads_back():
    for vec in ((), (0, 2**60 + 3, INF), (INF,)):
        assert vec_from_json(json.loads(json.dumps(vec_to_json(vec)))) == vec
    for bad in (2.5, -INF, True, False, -1, 1.0, "inf", None):
        with pytest.raises(ValueError, match="^cannot write coordinate"):
            vec_to_json((2, bad, 3))


def test_vec_json_rejects_garbage():
    with pytest.raises(ParseError):
        vec_from_json("nope")
    with pytest.raises(ParseError):
        vec_from_json([1.5])
    with pytest.raises(ParseError):
        vec_from_json([True])
    with pytest.raises(ParseError):
        vec_from_json(["infinity"])


def test_lattice_round_trip(div52):
    doc = lattice_to_doc(div52)
    assert doc["elements"] == list(div52.names)
    assert lattice_from_doc(json.loads(json.dumps(doc))) == div52


def test_lattice_from_leq_doc(div52):
    doc = {"elements": list(div52.names), "leq": div52.leq_matrix}
    assert lattice_from_doc(doc) == div52


def test_lattice_doc_errors():
    with pytest.raises(ParseError):
        lattice_from_doc({"elements": ["a"]})
    with pytest.raises(ParseError):
        lattice_from_doc(["a"])
    with pytest.raises(ParseError):
        lattice_from_doc({"meet": [[0]], "join": [[0]]})
    with pytest.raises(ParseError, match="^'elements' must be a list of names$"):
        lattice_from_doc({"elements": "ab", "leq": [[1, 1], [0, 1]]})


def test_rep_round_trip(rep_g):
    doc = rep_to_doc(rep_g)
    back = rep_from_doc(json.loads(json.dumps(doc)))
    assert back == rep_g


def test_rep_doc_with_external_lattice(div52, rep_g):
    doc = rep_to_doc(rep_g)
    doc["lattice"] = "div52"  # by-name reference needs a supplied lattice
    assert rep_from_doc(doc, div52) == rep_g
    with pytest.raises(ParseError, match="lattice"):
        rep_from_doc(doc)


def test_extrep_round_trip(rep_g, known_g2):
    doc = extrep_to_doc(known_g2)
    assert extrep_from_doc(json.loads(json.dumps(doc))) == known_g2


def test_points_doc_errors(div52):
    with pytest.raises(ParseError):
        rep_from_doc({"dimension": 2, "lattice": lattice_to_doc(div52), "points": [{}]})
    with pytest.raises(ParseError):
        rep_from_doc({"points": []})
    with pytest.raises(ParseError, match="^'points' must be a list$"):
        rep_from_doc({"dimension": 2, "lattice": lattice_to_doc(div52), "points": "ab"})
    for dim in (3.7, "3", "x", True, None):
        doc = {"dimension": dim, "lattice": lattice_to_doc(div52), "points": []}
        with pytest.raises(ParseError, match="dimension"):
            rep_from_doc(doc)


def test_equalities_round_trip(chain3, rep_b):
    eqs = to_equalities(rep_b) + (
        make_equality(chain3, [], "alpha", unbounded=["1"]),
    )
    doc = equalities_to_doc(chain3, eqs)
    lat, back = equalities_from_doc(json.loads(json.dumps(doc)))
    assert lat == chain3
    assert set(back) == set(eqs)


def test_extended_equality_doc_shape(chain3):
    eq = make_equality(chain3, ["alpha"], "0", unbounded=["1"])
    doc = equalities_to_doc(chain3, [eq])
    item = doc["equalities"][0]
    assert item["S"] == ["1"]
    assert item["args"] == ["alpha"]
    assert item["rhs"] == "0"


def test_plain_equality_doc_has_no_s_key(chain3):
    eq = make_equality(chain3, ["1", "1"], "alpha")
    item = equalities_to_doc(chain3, [eq])["equalities"][0]
    assert "S" not in item


def test_equalities_doc_errors(chain3):
    with pytest.raises(ParseError):
        equalities_from_doc({"equalities": [{"args": ["1"]}]}, chain3)
    with pytest.raises(ParseError):
        equalities_from_doc({}, chain3)
    # strings are not lists: "11" must not read as two arguments 1, 1
    for doc in (
        {"equalities": "[]"},
        {"equalities": [{"args": "11", "rhs": "alpha"}]},
        {"equalities": [{"S": "1", "args": [], "rhs": "alpha"}]},
    ):
        with pytest.raises(ParseError, match="must be a list"):
            equalities_from_doc(doc, chain3)


# -- the one-pass reader and the writers against the two-pass code they
# replace (tests/util.py): equal objects and bytes on valid documents, the
# same exception type and message, in the same precedence, on malformed ones.

READERS = {Rep: rep_from_doc, ExtRep: extrep_from_doc}
WRITERS = {Rep: rep_to_doc, ExtRep: extrep_to_doc}
LATTICES = lattice_catalog()


def _random_doc(rng, cls):
    """A valid point document and the lattice to read it with."""
    lat = rng.choice(LATTICES)
    dim = rng.randrange(1, 5)
    points = []
    for _ in range(rng.randrange(9)):
        if points and rng.random() < 0.25:
            vec = list(rng.choice(points)["vec"])  # a duplicate vector
        else:
            vec = [rng.randrange(5) for _ in range(dim)]
            for i in range(0, dim, 3):
                if rng.random() < 0.5:
                    vec[i] += 2**60
            if cls is ExtRep and rng.random() < 0.4:
                vec[rng.randrange(dim)] = "inf"
        points.append({"vec": vec, "value": rng.randrange(lat.m)})
    if cls is ExtRep:  # a repeated vector keeps one element, by name or index
        first = {}
        for p in points:
            p["value"] = first.setdefault(json.dumps(p["vec"]), p["value"])
    for p in points:
        if rng.random() < 0.5:
            p["value"] = lat.names[p["value"]]
    doc = {"dimension": dim, "points": points}
    if rng.random() < 0.5:
        doc["lattice"] = lattice_to_doc(lat)
    return doc, lat


def _outcome(read, doc, lat):
    """What reading doc gives: the object and its output bytes, or the
    exception's type and message."""
    try:
        ps = read(doc, lat)
    except ValueError as exc:  # ParseError included
        return type(exc), str(exc)
    return ps, json.dumps(WRITERS[type(ps)](ps))


def _ref_outcome(cls, doc, lat):
    try:
        ps = ref_points_from_doc(cls, doc, lat)
    except ValueError as exc:
        return type(exc), str(exc)
    return ps, json.dumps(ref_points_to_doc(ps))


@pytest.mark.parametrize("cls", [Rep, ExtRep])
def test_point_documents_read_and_write_as_the_reference_does(cls):
    rng = random.Random(29)
    repeats = 0
    for _ in range(300):
        doc, lat = _random_doc(rng, cls)
        got = _outcome(READERS[cls], copy.deepcopy(doc), lat)
        assert got == _ref_outcome(cls, doc, lat)
        assert isinstance(got[0], cls)
        repeats += len(got[0].points) < len(doc["points"])
    assert repeats > 30


def _inject(rng, doc, lat, fault):
    """Put one fault into doc (in place); two calls may hit one point."""
    points = doc["points"]
    if fault == "dimension 0":
        doc["dimension"] = rng.choice((0, -1))
        return
    if not points:
        points.append({"vec": [0] * max(doc["dimension"], 1), "value": 0})
    i = rng.randrange(len(points))
    item = points[i]
    if fault == "non-dict item":
        points[i] = rng.choice(([0, 1], "p", None, {"vec": [0]}, {"value": 0}))
        return
    if not isinstance(item, dict) or not isinstance(item.get("vec"), list):
        return  # already broken at this point
    vec = item["vec"]
    if fault == "non-list vector":
        item["vec"] = rng.choice(("0,1", 3, {"0": 1}, None))
    elif fault == "unknown element":
        item["value"] = rng.choice(("nope", lat.m + 2, -1, [0], 1.0, True))
    elif fault == "wrong length":
        if vec and rng.random() < 0.5:
            vec.pop()
        else:
            vec.append(1)
    elif fault == "conflict":
        try:
            other = (lat.resolve(item["value"]) + 1) % lat.m
        except ValueError:
            return
        points.insert(rng.randrange(len(points) + 1), {"vec": list(vec), "value": other})
    elif vec:
        j = rng.randrange(len(vec))
        vec[j] = {
            "bool": rng.choice((True, False)),
            "float": rng.choice((1.5, 2.0, float("inf"))),
            "negative": -rng.randrange(1, 2**61),
            "inf in a rep": "inf",
        }[fault]


FAULTS = (
    "bool", "float", "negative", "inf in a rep", "wrong length", "non-dict item",
    "non-list vector", "unknown element", "conflict", "dimension 0",
)


@pytest.mark.parametrize("cls", [Rep, ExtRep])
def test_malformed_point_documents_raise_as_the_reference_does(cls):
    rng = random.Random(2900 + (cls is ExtRep))
    kinds = set()
    for _ in range(800):
        doc, lat = _random_doc(rng, cls)
        for fault in rng.sample(FAULTS, rng.choice((1, 2))):
            _inject(rng, doc, lat, fault)
        got = _outcome(READERS[cls], copy.deepcopy(doc), lat)
        assert got == _ref_outcome(cls, doc, lat)
        if isinstance(got[0], type):
            kinds.add(got[0].__name__ + ": " + got[1].split(" ")[0])
    assert {"ParseError: each", "ParseError: vector", "ParseError: bad", "ValueError: dimension",
            "ValueError: expected", "ValueError: cannot", "ValueError: unknown",
            "ValueError: element"} <= kinds
    if cls is ExtRep:
        assert "ValueError: conflicting" in kinds
    else:
        assert {"ValueError: coordinates", "ValueError: bad"} <= kinds


@pytest.mark.parametrize("cls", [Rep, ExtRep])
def test_constructors_raise_as_the_reference_does(cls):
    rng = random.Random(2950 + (cls is ExtRep))
    for _ in range(300):
        doc, lat = _random_doc(rng, cls)
        for fault in rng.sample(FAULTS[2:5] + FAULTS[7:], rng.choice((0, 1, 2))):
            _inject(rng, doc, lat, fault)
        points = [(tuple(INF if c == "inf" else c for c in p["vec"]), p["value"])
                  for p in doc["points"]]
        outcomes = []
        for build in (cls, lambda *a: ref_point_set(cls, *a)):
            try:
                outcomes.append(build(lat, doc["dimension"], iter(points)))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def test_equality_documents_write_as_the_reference_does():
    rng = random.Random(2990)
    for _ in range(200):
        lat = rng.choice(LATTICES)
        eqs = [
            CommEquality(
                tuple(INF if rng.random() < 0.2 else rng.randrange(4) for _ in range(lat.m)),
                rng.randrange(lat.m),
            )
            for _ in range(rng.randrange(6))
        ]
        assert json.dumps(equalities_to_doc(lat, eqs)) == json.dumps(ref_equalities_to_doc(lat, eqs))
