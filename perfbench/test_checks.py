"""The benchmark's correctness checks accept right answers and reject wrong ones.

Run from the root of the checkout: ``python3 -m pytest perfbench/test_checks.py``.
Right answers come from the worked examples and closed forms; each wrong
answer is a right one with one deliberate fault.
"""

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import lattices  # noqa: E402
import workloads  # noqa: E402

INF = math.inf
CHAIN3 = lattices.Lat(["0", "alpha", "1"], [[a <= b for b in range(3)] for a in range(3)])


def vec_json(v):
    return ["inf" if checks.is_inf(c) else c for c in v]


def rep_doc(lat, dim, points):
    return {
        "dimension": dim,
        "lattice": lat.to_doc(),
        "points": [{"vec": vec_json(v), "value": lat.names[e]} for v, e in sorted(points)],
    }


def eq_doc(lat, pairs):
    eqs = []
    for vec, rhs in sorted(pairs):
        item = {"args": [lat.names[j] for j, c in enumerate(vec) if not checks.is_inf(c) for _ in range(c)],
                "rhs": lat.names[rhs]}
        unbounded = [lat.names[j] for j, c in enumerate(vec) if checks.is_inf(c)]
        if unbounded:
            item = {"S": unbounded, **item}
        eqs.append(item)
    return {"lattice": lat.to_doc(), "equalities": eqs}


def job_for(name, lat, dim, points, **facts):
    text = json.dumps(rep_doc(lat, dim, [(v, lat.index[e]) for v, e in points]))
    return {"name": name, "text": text, "known_fault": False, **facts}


# -- complete ---------------------------------------------------------------


def complete_output(job, canon, ext, check=True):
    lat, dim, _ = checks.read_rep(json.loads(job["text"]))
    return json.dumps({"canonical": rep_doc(lat, dim, canon), "complete": rep_doc(lat, dim, ext), "check": check})


def test_hyperplane_closed_form_counts():
    canon, ext = checks.hyperplane_sets(3, 5)
    assert len(ext - canon) == math.comb(5 + 3 - 2, 3 - 1)
    assert all(sum(x) == 4 and v == 1 for x, v in ext - canon)


def test_hyperplane_job_rejects_a_missing_maximum():
    d, s = 3, 4
    pts = [(x, "0") for x in workloads.hyperplane(d, s)]
    job = job_for("hp", lattices.chain(2), d, pts, hyperplane=(d, s))
    canon, ext = checks.hyperplane_sets(d, s)
    assert checks.check_complete(job, complete_output(job, canon, ext)) is None
    dropped = sorted(ext - canon)[0]
    assert "complete() differs" in checks.check_complete(job, complete_output(job, canon, ext - {dropped}))
    plane_point = sorted(canon)[-1]
    assert "canonical() differs" in checks.check_complete(job, complete_output(job, canon - {plane_point}, ext))
    assert "check_complete()" in checks.check_complete(job, complete_output(job, canon, ext, check=False))


def test_div52_generic_path():
    div52 = lattices.divisors(52)
    job = job_for("div52", div52, 2, [((10, 20), "26"), ((30, 5), "4")])
    f = checks.Fn(div52, 2, [((10, 20), div52.index["26"]), ((30, 5), div52.index["4"])])
    canon = checks.canonical(f)
    names = {(v, div52.names[e]) for v, e in canon}
    assert names == {((0, 0), "52"), ((10, 20), "26"), ((30, 5), "4"), ((30, 20), "2")}
    ext = checks.complete_set(f)
    assert checks.pins(f, ext)
    assert checks.check_complete(job, complete_output(job, canon, ext)) is None
    for point in sorted(ext):
        assert checks.check_complete(job, complete_output(job, canon, ext - {point})) is not None


def test_known_ten_point_set_pins_and_loses_it_without_its_top_corner():
    div52 = lattices.divisors(52)
    i = div52.index
    f = checks.Fn(div52, 2, [((10, 20), i["26"]), ((30, 5), i["4"])])
    known = {((0, 0), "52"), ((10, 20), "26"), ((30, 5), "4"), ((30, 20), "2"), ((9, INF), "52"),
             ((29, 19), "52"), ((29, INF), "26"), ((INF, 4), "52"), ((INF, 19), "4"), ((INF, INF), "2")}
    known = {(v, i[e]) for v, e in known}
    assert checks.pins(f, known)
    assert not checks.pins(f, known - {((INF, INF), i["2"])})
    assert not checks.pins(f, (known - {((29, 19), i["52"])}) | {((29, 19), i["26"])})


def test_big_coordinate_jobs_fail_with_the_float64_answer():
    dim, lat, pts = workloads.KNOWN_FAULT_DOCS[0]
    job = job_for("big", lat, dim, pts)
    f = checks.Fn(*checks.read_rep(json.loads(job["text"])))
    canon, ext = checks.canonical(f), checks.complete_set(f)
    assert ((2**53, 4), lat.top) in ext
    assert checks.check_complete(job, complete_output(job, canon, ext)) is None
    wrong = ext - {((2**53, 4), lat.top)}  # what a float64 grid returns
    assert not checks.pins(f, wrong)
    assert checks.check_complete(job, complete_output(job, canon, wrong)) is not None


# -- sequences --------------------------------------------------------------


def b_job(k):
    pts = workloads.B_POINTS + ([((0, 0, k), "0")] if k is not None else [])
    return job_for("B", CHAIN3, 3, pts, collapse=k)


def sequences_output(job, **changes):
    lat, dim, points = checks.read_rep(json.loads(job["text"]))
    f = checks.Fn(lat, dim, points)
    props = checks.box_properties(f) if "collapse" not in job else dict.fromkeys(("hc1", "hc2", "hc7", "hc8"), True)
    out = {
        "report": {**{p: {"holds": v} for p, v in props.items()}, "admissible": all(props.values())},
        "equalities": eq_doc(lat, checks.canonical(f)),
        "reduced": eq_doc(lat, checks.b_reduced(job["collapse"])),
        "extended": eq_doc(lat, checks.complete_set(f)),
        "round_trip": rep_doc(lat, dim, points),
        "attained": [True] * len(points),
    }
    for key, value in changes.items():
        out[key] = value(out) if callable(value) else value
    return json.dumps(out)


def test_b_sequences_accept_the_right_answer_and_reject_faults():
    for k in (None, 3, 8):
        job = b_job(k)
        assert checks.check_sequences(job, sequences_output(job)) is None

    job = b_job(8)
    lat = CHAIN3
    bad_reduced = eq_doc(lat, checks.b_reduced(8) - {((0, 1, 1), 0)})
    assert "reduced" in checks.check_sequences(job, sequences_output(job, reduced=bad_reduced))

    def hc7_false(out):
        return {**out["report"], "hc7": {"holds": False}, "admissible": False}

    assert "admissibility" in checks.check_sequences(job, sequences_output(job, report=hc7_false))

    f = checks.Fn(*checks.read_rep(json.loads(job["text"])))
    ext = checks.complete_set(f)
    bad_ext = eq_doc(lat, ext - {sorted(ext)[-1]})
    assert "extended" in checks.check_sequences(job, sequences_output(job, extended=bad_ext))

    moved = [(v, e) for v, e in f.points if v != (0, 0, 8)] + [((0, 0, 9), 0)]
    bad_trip = rep_doc(lat, 3, moved)
    assert "largest_from_equalities" in checks.check_sequences(job, sequences_output(job, round_trip=bad_trip))

    canon = checks.canonical(f)
    bad_eqs = eq_doc(lat, canon - {((0, 0, 0), lat.top)})
    assert "to_equalities" in checks.check_sequences(job, sequences_output(job, equalities=bad_eqs))


def test_box_properties_find_a_monotony_violation():
    # [alpha] = alpha but [1] = 0: replacing the 1 by alpha raises the value
    f = checks.Fn(CHAIN3, 3, [((1, 0, 0), 0), ((0, 1, 0), 1), ((0, 0, 1), 0)])
    props = checks.box_properties(f)
    assert props["hc1"] and not props["hc2"] and props["hc8"] is None
    b = checks.Fn(*checks.read_rep(json.loads(b_job(5)["text"])))
    assert checks.box_properties(b) == {"hc1": True, "hc2": True, "hc7": True, "hc8": True}


def test_monotone_closure_of_the_b_reduced_set_is_b():
    for k in (None, 4):
        f = checks.Fn(*checks.read_rep(json.loads(b_job(k)["text"])))
        closed = checks.Fn(CHAIN3, 3, checks.monotone_closure(CHAIN3, checks.b_reduced(k)))
        assert checks.same_function(f, closed)
        smaller = checks.Fn(CHAIN3, 3, checks.monotone_closure(CHAIN3, checks.b_reduced(k) - {((0, 0, 2), 1)}))
        assert not checks.same_function(f, smaller)


# -- learn ------------------------------------------------------------------


def test_learn_rejects_another_function():
    c2 = lattices.chain(2)
    job = job_for("far", c2, 2, [((3, 3), "0")])
    right = rep_doc(c2, 2, [((3, 3), 0), ((0, 0), 1)])
    assert checks.check_learn(job, json.dumps(right)) is None
    wrong = rep_doc(c2, 2, [((3, 4), 0), ((0, 0), 1)])
    assert checks.check_learn(job, json.dumps(wrong)) is not None
    assert checks.check_learn(job, json.dumps(rep_doc(c2, 2, [((0, 0), 1)]))) is not None


def test_job_lists_are_seeded():
    for workload in workloads.WORKLOADS:
        a = workloads.make_jobs(workload, 7)
        assert [j["text"] for j in a] == [j["text"] for j in workloads.make_jobs(workload, 7)]
        assert [j["text"] for j in a] != [j["text"] for j in workloads.make_jobs(workload, 8)]
        assert len(a) == workloads.JOBS_PER_LIST[workload]
