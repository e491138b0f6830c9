import json

import pytest

from commrep import INF, ExtRep
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


def test_vec_json_round_trip():
    vec = (3, INF, 0)
    data = vec_to_json(vec)
    assert data == [3, "inf", 0]
    assert vec_from_json(data) == vec


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
    doc = {"elements": list(div52.names), "leq": div52.leq_matrix.tolist()}
    assert lattice_from_doc(doc) == div52


def test_lattice_doc_errors():
    with pytest.raises(ParseError):
        lattice_from_doc({"elements": ["a"]})
    with pytest.raises(ParseError):
        lattice_from_doc(["a"])
    with pytest.raises(ParseError):
        lattice_from_doc({"meet": [[0]], "join": [[0]]})


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
