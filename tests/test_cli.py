import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import commrep
from commrep.cli import main
from commrep.io import extrep_to_doc, lattice_to_doc, rep_to_doc


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_example_pipe_canonical(capsys, monkeypatch):
    code, out, _ = run(capsys, ["example", "div52"])
    assert code == 0
    code, out, _ = run(capsys, ["canonical"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    pts = {(tuple(p["vec"]), p["value"]) for p in doc["points"]}
    assert pts == {
        ((0, 0), "52"),
        ((10, 20), "26"),
        ((30, 5), "4"),
        ((30, 20), "2"),
    }


def test_eval_commands(capsys, tmp_path, rep_g):
    rep_path = write_doc(tmp_path, "g.json", rep_to_doc(rep_g))
    code, out, _ = run(capsys, ["eval", "--rep", rep_path, "30,20"])
    assert code == 0 and json.loads(out)["value"] == "2"
    code, out, _ = run(capsys, ["eval-ext", "--rep", rep_path, "29,inf"])
    assert code == 0 and json.loads(out)["value"] == "26"
    code, _, err = run(capsys, ["eval", "--rep", rep_path, "29,inf"])
    assert code == 1  # finite evaluation rejects inf coordinates
    code, _, err = run(capsys, ["eval", "--rep", rep_path, "29,x"])
    assert code == 1


def test_check_complete_exit_codes(capsys, tmp_path, rep_g, known_g2):
    rep_path = write_doc(tmp_path, "g.json", rep_to_doc(rep_g))
    good = write_doc(tmp_path, "g2.json", extrep_to_doc(known_g2))
    code, out, _ = run(
        capsys, ["check-complete", "--rep", rep_path, "--extrep", good]
    )
    assert code == 0 and json.loads(out) == {"complete": True}

    doc = extrep_to_doc(known_g2)
    doc["points"] = [p for p in doc["points"] if p["vec"] != ["inf", "inf"]]
    bad = write_doc(tmp_path, "g2bad.json", doc)
    code, out, _ = run(capsys, ["check-complete", "--rep", rep_path, "--extrep", bad])
    assert code == 3 and json.loads(out) == {"complete": False}


def test_complete_output_feeds_check(capsys, tmp_path, rep_g, monkeypatch):
    rep_path = write_doc(tmp_path, "g.json", rep_to_doc(rep_g))
    code, out, _ = run(capsys, ["complete", "--rep", rep_path])
    assert code == 0
    comp = write_doc(tmp_path, "comp.json", json.loads(out))
    code, out, _ = run(
        capsys, ["check-complete", "--rep", rep_path, "--extrep", comp]
    )
    assert code == 0


def test_sublevel(capsys, tmp_path, rep_g):
    rep_path = write_doc(tmp_path, "g.json", rep_to_doc(rep_g))
    code, out, _ = run(capsys, ["sublevel", "--rep", rep_path, "--alpha", "2"])
    assert code == 0
    assert json.loads(out)["gens"] == [[30, 20]]


def test_props_and_admissible(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, ["example", "B"])
    b_doc = json.loads(out)
    rep_path = write_doc(tmp_path, "b.json", b_doc)
    code, out, _ = run(capsys, ["props", "--rep", rep_path])
    assert code == 0
    report = json.loads(out)
    assert report["admissible"] is True
    assert all(report[k]["holds"] for k in ("hc1", "hc2", "hc7", "hc8"))
    code, out, _ = run(capsys, ["admissible", "--rep", rep_path])
    assert code == 0

    code, out, _ = run(capsys, ["example", "div52"])
    d_path = write_doc(tmp_path, "d.json", json.loads(out))
    code, _, err = run(capsys, ["admissible", "--rep", d_path])
    assert code == 1  # dimension does not match the lattice size


def test_props_witnesses_in_json(capsys, tmp_path, chain3):
    from commrep import Rep

    # F([1]) = 0 while F([alpha]) = alpha: hc2 and hc7 fail with witnesses
    rep = Rep(chain3, 3, [((1, 0, 0), "0"), ((0, 1, 0), "alpha"), ((0, 0, 1), "0")])
    rep_path = write_doc(tmp_path, "bad.json", rep_to_doc(rep))
    code, out, _ = run(capsys, ["props", "--rep", rep_path])
    assert code == 0
    report = json.loads(out)
    assert report["admissible"] is False
    assert report["hc2"]["witness"]["point"] == [0, 0, 1]
    assert report["hc7"]["witness"]["joined"] == ["alpha", "1"]
    assert report["hc7"]["witness"]["point"] == [0, 0, 0]


def test_props_and_admissible_at_a_huge_count(capsys, tmp_path, rep_b, chain3):
    from commrep import Rep, chain

    big = 2**60
    rep = Rep(chain3, 3, list(rep_b.points) + [((0, 0, big), "0")])
    rep_path = write_doc(tmp_path, "bk.json", rep_to_doc(rep))
    for command in ("props", "admissible"):
        start = time.perf_counter()
        code, out, _ = run(capsys, [command, "--rep", rep_path])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["admissible"] is True
    two = chain(2, ["0", "1"])
    rep_path = write_doc(tmp_path, "bad.json", rep_to_doc(Rep(two, 2, [((big, 0), "0")])))
    code, out, _ = run(capsys, ["props", "--rep", rep_path])
    assert code == 0
    hc8 = json.loads(out)["hc8"]
    assert hc8["holds"] is False
    assert hc8["witness"]["inner"] == [big - 1, 0]


def test_admissible_false_exit(capsys, tmp_path, chain3):
    from commrep import Rep

    rep_path = write_doc(tmp_path, "bad.json", rep_to_doc(Rep(chain3, 3)))
    code, out, _ = run(capsys, ["admissible", "--rep", rep_path])
    assert code == 3 and json.loads(out) == {"admissible": False}


def test_learn_command(capsys, tmp_path, rep_g):
    hidden = write_doc(tmp_path, "hidden.json", rep_to_doc(rep_g))
    code, out, _ = run(capsys, ["learn", "--oracle", hidden])
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["queries"] <= 64
    pts = {(tuple(p["vec"]), p["value"]) for p in doc["points"]}
    # the witness search adds exactly the canonical points below top
    assert pts == {((10, 20), "26"), ((30, 5), "4"), ((30, 20), "2")}


def test_learn_round_limit(capsys, tmp_path, rep_g):
    hidden = write_doc(tmp_path, "hidden.json", rep_to_doc(rep_g))
    code, _, err = run(capsys, ["learn", "--oracle", hidden, "--max-queries", "5"])
    assert code == 1 and "5 queries" in err


def test_to_equalities(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, ["example", "B"])
    rep_path = write_doc(tmp_path, "b.json", json.loads(out))
    code, out, _ = run(capsys, ["to-equalities", "--rep", rep_path])
    assert code == 0
    eqs = json.loads(out)["equalities"]
    assert {"args": ["1", "1"], "rhs": "alpha"} in eqs
    code, out, _ = run(capsys, ["to-equalities", "--reduced", "--rep", rep_path])
    reduced = json.loads(out)["equalities"]
    assert len(reduced) == 2

    code, out, _ = run(capsys, ["to-extended-equalities", "--rep", rep_path])
    ext = json.loads(out)["equalities"]
    assert {"S": ["1"], "args": [], "rhs": "alpha"} in ext
    assert {"args": ["1", "1"], "rhs": "alpha"} in ext  # no "S" when nothing is unbounded


def test_equalities_at_a_huge_count_fail_with_a_typed_error(capsys, tmp_path, rep_b, chain3):
    from commrep import Rep

    big = 2**60
    rep = Rep(chain3, 3, list(rep_b.points) + [((0, 0, big), "0")])
    rep_path = write_doc(tmp_path, "bk.json", rep_to_doc(rep))
    for command in (["to-equalities"], ["to-equalities", "--reduced"], ["to-extended-equalities"]):
        for fmt in ("json", "table"):
            code, out, err = run(capsys, command + ["--rep", rep_path, "--format", fmt])
            assert code == 1 and out == ""
            assert err.startswith("error: ")
            # the extended set states the value just below the collapse too
            assert any(f"{c} occurrences of 1" in err for c in (big, big - 1))
            assert "Traceback" not in err


def test_from_equalities(capsys, tmp_path, chain3, monkeypatch):
    doc = {
        "lattice": lattice_to_doc(chain3),
        "equalities": [
            {"args": ["1", "1"], "rhs": "alpha"},
            {"args": ["1"], "rhs": "1"},
        ],
    }
    eq_path = write_doc(tmp_path, "eqs.json", doc)
    code, out, _ = run(capsys, ["from-equalities", "--equalities", eq_path])
    assert code == 0
    result = json.loads(out)
    assert all(item["attained"] for item in result["attained"])
    assert {"vec": [0, 0, 2], "value": "alpha"} in result["points"]


def test_from_equalities_rejects_extended(capsys, monkeypatch):
    _, rep, _ = run(capsys, ["example", "B"])
    _, ext, _ = run(capsys, ["to-extended-equalities"], stdin=rep, monkeypatch=monkeypatch)
    code, out, err = run(capsys, ["from-equalities"], stdin=ext, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert "[{1}; ] = alpha" in err


def test_from_equalities_rejects_strings_for_lists(capsys, tmp_path, chain3):
    for eq in ({"args": "11", "rhs": "alpha"}, {"S": "1", "args": [], "rhs": "alpha"}):
        doc = {"lattice": lattice_to_doc(chain3), "equalities": [eq]}
        eq_path = write_doc(tmp_path, "eqs.json", doc)
        code, out, err = run(capsys, ["from-equalities", "--equalities", eq_path])
        assert code == 2 and "must be a list" in err


def test_io_error_exit_codes(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, ["canonical", "--rep", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["canonical", "--rep", str(bad)])
    assert code == 2 and "JSON" in err
    code, _, err = run(
        capsys, ["canonical"], stdin='{"dimension": 2}', monkeypatch=monkeypatch
    )
    assert code == 2
    code, _, err = run(
        capsys,
        ["canonical"],
        stdin='{"dimension": "x", "points": [], "lattice": {"elements": ["0"], "leq": [[true]]}}',
        monkeypatch=monkeypatch,
    )
    assert code == 2 and "dimension" in err



DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "data",
    [
        b'\xff\xfe{"a": 1}',
        b"[" * 100_000 + b"]" * 100_000,
        pytest.param(
            b'{"dimension": 1, "points": [{"vec": [' + b"7" * 5000 + b'], "value": "0"}]}',
            marks=pytest.mark.skipif(
                not 0 < DIGIT_LIMIT < 5000, reason="no integer digit limit below 5,000"
            ),
        ),
    ],
    ids=["not-utf-8", "too-deep", "too-many-digits"],
)
def test_undecodable_json_text_exits_2(capsys, tmp_path, monkeypatch, data):
    # a byte that is not UTF-8, nesting deeper than the parser's recursion
    # limit and an integer longer than the interpreter converts are input
    # errors like any other invalid JSON
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, _, err = run(capsys, ["canonical", "--rep", str(path)])
    assert code == 2 and err.startswith("error: invalid JSON: "), err
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, ["canonical"])
    assert code == 2 and err.startswith("error: invalid JSON: "), err

def test_python_dash_m_runs_the_cli(capsys, tmp_path):
    main(["example", "B"])
    expected = capsys.readouterr().out
    src = str(Path(commrep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("commrep", "commrep.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "example", "B"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and done.stdout == expected, module
    missing = str(tmp_path / "missing.json")
    done = subprocess.run(
        [sys.executable, "-m", "commrep", "canonical", "--rep", missing],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2 and "error" in done.stderr


def test_import_leaves_numpy_out():
    src = str(Path(commrep.__file__).resolve().parent.parent)
    probe = "import sys, commrep, commrep.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "False\n", done.stderr


def test_ragged_lattice_table_is_a_lattice_error(capsys, monkeypatch):
    _, out, _ = run(capsys, ["example", "B"])
    names = json.loads(out)["lattice"]["elements"]
    ragged = "must be 3x3, got ragged rows of lengths [3, 2, 3]"
    cases = []
    for key in ("meet", "join"):
        doc = json.loads(out)
        doc["lattice"][key][1].pop()
        cases.append((doc, f"{key} table {ragged}"))
    doc = json.loads(out)
    doc["lattice"] = {"elements": names, "leq": [[1, 1, 1], [0, 1], [0, 0, 1]]}
    cases.append((doc, f"leq matrix {ragged}"))
    for doc, message in cases:
        got = run(capsys, ["canonical"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert got == (1, "", f"error: {message}\n")


def test_leq_entry_that_is_not_0_or_1_is_a_lattice_error(capsys, monkeypatch):
    doc = {
        "dimension": 1,
        "points": [{"vec": [1], "value": "a"}],
        "lattice": {"elements": ["a", "b"], "leq": [[True, "no"], [False, True]]},
    }
    got = run(capsys, ["canonical"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    message = "leq matrix entry at (0, 1) must be true, false, 0 or 1, got 'no'"
    assert got == (1, "", f"error: {message}\n")


def test_elements_and_points_that_are_not_lists_exit_2(capsys, monkeypatch):
    lattice = {"elements": ["0"], "leq": [[True]]}
    cases = [
        ({"dimension": 1, "points": [], "lattice": {**lattice, "elements": "0"}},
         "'elements' must be a list of names"),
        ({"dimension": 1, "points": {}, "lattice": lattice}, "'points' must be a list"),
    ]
    for doc, message in cases:
        got = run(capsys, ["canonical"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert got == (2, "", f"error: {message}\n")


def test_unknown_example(capsys):
    code, _, err = run(capsys, ["example", "nope"])
    assert code == 1 and "unknown" in err


def test_table_format(capsys, tmp_path, rep_g):
    rep_path = write_doc(tmp_path, "g.json", rep_to_doc(rep_g))
    code, out, _ = run(
        capsys, ["canonical", "--rep", rep_path, "--format", "table"]
    )
    assert code == 0
    assert "[30, 20] -> 2" in out
    code, out, _ = run(
        capsys, ["eval", "--rep", rep_path, "--format", "table", "30,20"]
    )
    assert out.strip() == "F(30, 20) = 2"


def test_serialization_round_trip_through_cli(capsys, tmp_path, rep_g, monkeypatch):
    doc = rep_to_doc(rep_g)
    rep_path = write_doc(tmp_path, "g.json", doc)
    code, out, _ = run(capsys, ["canonical", "--rep", rep_path])
    again = write_doc(tmp_path, "canon.json", json.loads(out))
    code, out2, _ = run(capsys, ["canonical", "--rep", again])
    assert json.loads(out2) == json.loads(out)  # canonical is a fixed point
