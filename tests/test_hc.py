import json
import random
import time
from functools import reduce
from pathlib import Path

import pytest

from commrep import (
    INF,
    Rep,
    antitone,
    admissibility_report,
    hc,
    chain,
    check_hc1,
    check_hc2,
    check_hc7,
    check_hc8,
    divisor_lattice,
    equal_fn,
    example,
    is_admissible,
    join_fn,
    reduced_equalities,
    to_equalities,
    unit,
    vadd,
    vleq,
    vsub,
)
from commrep.hc import _hc7_separator, _hc7_witness, _hc8_witness
from commrep.io import rep_from_doc
from commrep import upset
from commrep.upset import UpSet

from util import (
    bool4,
    brute_hc7_holds,
    brute_hc7_separator,
    brute_hc7_witness,
    brute_hc8,
    count_calls,
    cover_union_maxima,
    m3,
    n5,
    random_ext_vec,
    random_rep,
    scan_hc8_witness,
    small_lattices,
)

BIG = 2**60


def assert_hc8_violation(rep, w):
    """w names a b = inner below the canonical point a = point whose value,
    nested back in place of b, does not stay below F(a)."""
    lat = rep.lattice
    a, b = w["point"], w["inner"]
    assert (a, lat.index(w["bound"])) in rep.canonical().points
    assert vleq(b, a)
    j = rep.eval(b)
    assert lat.name(j) == w["inner_value"]
    v = rep.eval(vadd(vsub(a, b), unit(rep.dim, j)))
    assert lat.name(v) == w["value"]
    assert not lat.leq(v, rep.eval(a))


def test_hc1_examples(rep_b, chain3):
    assert check_hc1(rep_b)
    bad = Rep(chain3, 3, [(unit(3, chain3.bottom), "1")])
    assert not check_hc1(bad)  # value at the bottom's unit vector is top
    two = chain(2, ["0", "1"])
    assert not check_hc1(Rep(two, 2))  # constant top misses the bottom bound


def test_hc2_examples(rep_b, chain3):
    assert check_hc2(rep_b)
    # dropping the argument from top to mid raises the value from 0 to top
    bad = Rep(chain3, 3, [(unit(3, 2), "0")])
    assert not check_hc2(bad)
    one = chain(1, ["*"])
    assert check_hc2(Rep(one, 1, [((4,), "*")]))


def test_hc8_examples(rep_b, rep_b7):
    assert check_hc8(rep_b)
    assert check_hc8(rep_b7)


def test_hc8_requires_hc2(chain3):
    bad = Rep(chain3, 3, [(unit(3, 2), "0")])
    with pytest.raises(ValueError, match="hc2"):
        check_hc8(bad)


def test_hc8_counterexample_at_any_count():
    # k or more 0s give 0, anything else 1: nesting the value 1 of k - 1
    # 0s leaves the arguments 0 and 1, whose value 1 is not below 0
    two = chain(2, ["0", "1"])
    for k in (2, 7, 10**6, BIG):
        rep = Rep(two, 2, [((k, 0), "0")])
        w = _hc8_witness(rep)
        assert w == {
            "property": "hc8",
            "point": (k, 0),
            "inner": (k - 1, 0),
            "inner_value": "1",
            "value": "1",
            "bound": "0",
        }
        assert w == scan_hc8_witness(Rep(two, 2, [((k, 0), "0")]))
        assert not check_hc8(rep)
        assert_hc8_violation(rep, w)
    assert brute_hc8(Rep(two, 2, [((7, 0), "0")]))["inner"] == (1, 0)


def test_hc8_counterexample_only_at_the_whole_point():
    # any two arguments give 0, one gives 1: nesting a whole canonical
    # point leaves the single argument 0, whose value 1 is not below 0,
    # and every smaller b nests harmlessly
    two = chain(2, ["0", "1"])
    rep = Rep(two, 2, [((2, 0), "0"), ((1, 1), "0"), ((0, 2), "0")])
    assert check_hc2(rep)
    assert _hc8_witness(rep) == {
        "property": "hc8",
        "point": (0, 2),
        "inner": (0, 2),
        "inner_value": "0",
        "value": "1",
        "bound": "0",
    }
    assert brute_hc8(rep)["inner"] == (0, 2)


def test_hc8_matches_brute_force():
    rng = random.Random(0)
    lattices = small_lattices(max_size=5)
    passing = failing = 0
    while passing < 1000:
        lat = rng.choice(lattices)
        rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=5)
        if not check_hc2(rep):
            continue
        passing += 1
        w, brute = _hc8_witness(rep), brute_hc8(rep)
        assert w == scan_hc8_witness(rep)
        assert (w is None) == (brute is None)
        assert check_hc8(rep) == (w is None)
        if w is not None:
            failing += 1
            assert_hc8_violation(rep, w)
            assert_hc8_violation(rep, brute)
    assert failing >= 10, failing


@pytest.mark.parametrize("k", [10, 10**6, BIG])
def test_hc8_cost_does_not_grow_with_the_counts(k):
    # B plus (0,0,k) -> 0: the box below the point (0,0,k) has k + 1 points
    lat, rep_b = example("B")
    for decide in (admissibility_report, is_admissible, check_hc8):
        rep = Rep(lat, 3, list(rep_b.points) + [((0, 0, k), "0")])
        start = time.perf_counter()
        out = decide(rep)
        assert time.perf_counter() - start < 1.0
        assert (out["admissible"] if isinstance(out, dict) else out) is True


def test_hc8_full_overlap_case(rep_b, chain3):
    # nesting a canonical point inside itself reduces to a unit evaluation
    for a, alpha in rep_b.canonical().points:
        j = rep_b.eval(a)
        assert chain3.leq(rep_b.eval(unit(3, j)), alpha)


def test_hc7_examples(rep_b):
    assert check_hc7(rep_b)


def test_hc7_idempotent_triples_always_pass():
    rng = random.Random(10)
    for lat in small_lattices():
        for _ in range(5):
            rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=4)
            for alpha in range(lat.m):
                level = rep.sublevel(alpha)
                shifted = [level.shift(unit(rep.dim, t)) for t in range(lat.m)]
                for i in range(lat.m):
                    assert _hc7_separator(shifted, i, i, i) is None


def test_hc7_counterexample_on_diamond():
    lat = bool4()
    # the two atoms join to top, but the value at top's unit vector is
    # strictly below the join of the values at the atoms' unit vectors
    rep = Rep(lat, 4, [(unit(4, lat.top), "0")])
    assert not check_hc7(rep)
    assert not brute_hc7_holds(rep)


def divisor_reps(rng, n: int) -> list:
    """n encodings over divisor_lattice(30), which has 9 incomparable
    pairs.  The even ones send the unit vectors of two random principal
    downsets to the bottom and every other unit vector e_j to j, so that
    hc2 mostly holds and a pair of low incomparable arguments whose join
    is not low separates; the odd ones are random.  Each has up to three
    (even) or six (odd) random points with coordinates up to 2."""
    lat = divisor_lattice(30)
    reps = []
    for t in range(n):
        extra = random_rep(rng, lat, lat.m, max_coord=2, max_points=6 if t % 2 else 3)
        if t % 2:
            reps.append(extra)
            continue
        tops = rng.sample(range(lat.m), 2)
        low = {e for e in range(lat.m) if any(lat.leq(e, top) for top in tops)}
        units = [(unit(lat.m, j), lat.bottom if j in low else j) for j in range(lat.m)]
        reps.append(Rep(lat, lat.m, units + list(extra.points)))
    return reps


def test_hc7_witness_matches_pairwise_shifts():
    # Sharing one shift per (sublevel, unit vector) across all pairs, and
    # comparing generators instead of building each pair's intersection,
    # returns the witness the pair-by-pair search finds.  The last 200 of
    # the first 1,200 encodings are moved up by 2^60 in each nonzero
    # coordinate.
    rng = random.Random(15)
    lattices = small_lattices(max_size=4)
    seen = {(big, fails): 0 for big in (False, True) for fails in (False, True)}
    for n in range(1200):
        lat = rng.choice(lattices)
        rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=4)
        if n >= 1000:
            rep = Rep(lat, lat.m, [(tuple(c and c + BIG for c in v), e) for v, e in rep.points])
        w = _hc7_witness(rep)
        assert w == brute_hc7_witness(rep), rep
        seen[n >= 1000, w is not None] += 1
    # 516 fail and 484 pass, then 89 and 111 of the offset ones
    assert seen[False, True] >= 400 and seen[False, False] >= 400, seen
    assert seen[True, True] >= 60 and seen[True, False] >= 60, seen
    # Which side is scanned first matters only when neither side contains
    # the other, which needs incomparable i and j.  On bool4 with bottom's
    # unit vector sent to 0 the pairs with bottom pass, so the atoms a and
    # b, joining to top, give the witness (134 times in 300).
    lat = bool4()
    atoms = 0
    for _ in range(300):
        rep = random_rep(rng, lat, lat.m, max_coord=2, max_points=8)
        rep = Rep(lat, lat.m, rep.points + ((unit(lat.m, lat.bottom), "0"),))
        w = _hc7_witness(rep)
        assert w == brute_hc7_witness(rep), rep
        atoms += w is not None and w["joined"] == ("a", "b")
    assert atoms >= 100, atoms
    # On divisor_lattice(30) a witness at a comparable pair (43 in 100) is
    # a generator of the join's side that the other side lacks.  One at an
    # incomparable pair (39) can also be the least failing supremum of two
    # generators outside the join's side, as on the even encodings.  18
    # encodings pass.
    lat = divisor_lattice(30)
    seen = {"incomparable": 0, "comparable": 0, None: 0}
    for rep in divisor_reps(rng, 100):
        w = _hc7_witness(rep)
        assert w == brute_hc7_witness(rep), rep
        if w is None:
            seen[None] += 1
        else:
            i, j = (lat.index(name) for name in w["joined"])
            seen["comparable" if lat.join(i, j) in (i, j) else "incomparable"] += 1
    assert min(seen.values()) >= 5 and seen["incomparable"] >= 30, seen


def test_hc7_builds_no_intersection(monkeypatch):
    # hc7 compares generators of the shifted sublevels and never
    # intersects two of them, on bool4 and on divisor_lattice(30), where
    # hc2 holds or fails.
    calls = count_calls(monkeypatch, UpSet, "__and__")
    rng = random.Random(27)
    reps = [random_rep(rng, bool4(), 4, max_coord=2, max_points=6) for _ in range(40)]
    reps += divisor_reps(rng, 10)
    lat = divisor_lattice(30)
    reps.append(Rep(lat, lat.m, [(unit(lat.m, j), j) for j in range(lat.m)]))
    found = [_hc7_witness(rep) for rep in reps]
    assert calls == []
    assert found[-1] is None and any(w is not None for w in found)
    assert any(w is None for w in found[:-1])


def test_hc7_holds_on_chains_where_hc2_holds():
    # On a chain every pair of arguments is comparable, so hc2 alone
    # decides hc7.  Each encoding over chains of 2 to 5 elements that is
    # monotone passes the box comparison; those moved up by 2^60 in each
    # nonzero coordinate, whose box is out of reach, have no witness in
    # the pair-by-pair search.
    rng = random.Random(22)
    seen = {False: 0, True: 0}
    for m, max_coord in ((2, 3), (3, 3), (4, 2), (5, 1)):
        lat = chain(m)
        for n in range(100):
            rep = random_rep(rng, lat, m, max_coord=max_coord, max_points=5)
            big = n % 4 == 3
            if big:
                rep = Rep(lat, m, [(tuple(c and c + BIG for c in v), e) for v, e in rep.points])
            if not check_hc2(rep):
                continue
            assert _hc7_witness(rep) is None and check_hc7(rep)
            assert brute_hc7_witness(rep) is None if big else brute_hc7_holds(rep), rep
            seen[big] += 1
    assert seen[False] >= 80 and seen[True] >= 25, seen


def test_hc7_scans_comparable_pairs_where_hc2_fails():
    # Where hc2 fails, comparable pairs can separate, and the first witness
    # at one is still the pair-by-pair search's.
    rng = random.Random(23)
    lattices = small_lattices(max_size=4)
    seen = {"chain": 0, "other": 0}
    for n in range(600):
        lat = rng.choice(lattices)
        rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=4)
        if n % 5 == 4:
            rep = Rep(lat, lat.m, [(tuple(c and c + BIG for c in v), e) for v, e in rep.points])
        expected = brute_hc7_witness(rep)
        if check_hc2(rep) or expected is None:
            continue
        i, j = (lat.index(name) for name in expected["joined"])
        if lat.join(i, j) not in (i, j):
            continue
        assert _hc7_witness(rep) == expected, rep
        is_chain = all(lat.leq(x, y) or lat.leq(y, x) for x in range(lat.m) for y in range(lat.m))
        seen["chain" if is_chain else "other"] += 1
    assert seen["chain"] >= 150 and seen["other"] >= 50, seen


def test_hc7_reads_hc2_from_the_shared_memo(monkeypatch):
    # check_hc7 on a fresh Rep decides hc2 first; the report after it
    # reuses that answer and equals a fresh Rep's report.
    reps = [example("B")[1], example("B7")[1]]
    reps += [fixture_rep(name) for name in ("bool4_diamond", "fails_hc1", "fails_hc2", "fails_hc8")]
    for rep in reps:
        hc2 = count_calls(monkeypatch, hc, "_hc2_witness")
        holds = check_hc7(rep)
        report = admissibility_report(rep)
        assert len(hc2) == 1
        assert report["hc7"]["holds"] is holds
        monkeypatch.undo()
        assert report == admissibility_report(Rep(rep.lattice, rep.dim, rep.points))


def test_canonical_rep_is_built_once_per_rep(monkeypatch):
    # admissibility_report (hc2, hc8), to_equalities and reduced_equalities
    # (itself and its hc2 check) all ask for the canonical representation
    _, rep = example("B")
    calls = count_calls(monkeypatch, antitone, "_rep_from_level_minima")
    canon = rep.canonical()
    admissibility_report(rep)
    to_equalities(rep)
    reduced_equalities(rep)
    assert len(calls) == 1
    assert rep.canonical() is canon


def test_hc1_and_hc2_are_decided_once_per_rep(monkeypatch):
    # reduced_equalities checks hc1 and hc2 on a rep whose
    # admissibility_report has already decided both
    _, rep = example("B")
    hc1 = count_calls(monkeypatch, hc, "_hc1_witness")
    hc2 = count_calls(monkeypatch, hc, "_hc2_witness")
    report = admissibility_report(rep)
    to_equalities(rep)
    reduced_equalities(rep)
    assert len(hc1) == len(hc2) == 1
    assert check_hc1(rep) and check_hc2(rep) and is_admissible(rep)
    assert len(hc1) == len(hc2) == 1
    assert admissibility_report(rep) == report


def test_hc7_shifts_each_sublevel_once_per_unit_vector(monkeypatch):
    # On the chain of B every pair of arguments is comparable and hc2
    # holds, so hc7 shifts nothing.  On bool4 only the atoms a and b are
    # incomparable; where hc2 holds, each sublevel their pair reaches is
    # shifted once by each unit vector, in order, and no other is.
    _, rep = example("B")
    calls = count_calls(monkeypatch, UpSet, "shift")
    assert _hc7_witness(rep) is None
    assert calls == []
    lat = bool4()
    a, b, top = (lat.index(n) for n in ("a", "b", "1"))
    meet = Rep(lat, 4, [(unit(4, j), j) for j in range(4)])
    # bottom's and the atoms' unit vectors at 0, top's left at top: hc2
    # holds, and the atoms separate on the first sublevel
    atoms_low = Rep(lat, 4, [(unit(4, j), "0") for j in range(3)])
    rng = random.Random(21)
    reps = [meet, atoms_low] + [random_rep(rng, lat, 4, max_coord=2, max_points=5) for _ in range(60)]
    reached = []
    for rep in reps:
        if not check_hc2(rep):
            continue
        calls.clear()
        w = _hc7_witness(rep)
        assert w is None or w["joined"] == ("a", "b")
        alphas = [
            alpha for alpha in range(lat.m)
            if brute_hc7_separator(rep, a, b, top, alpha) is not None
        ]
        n = alphas[0] + 1 if alphas else lat.m
        assert calls == [(rep.sublevel(alpha), unit(4, t)) for alpha in range(n) for t in range(4)]
        reached.append(n)
    assert _hc7_witness(meet) is None and check_hc7(meet)
    assert reached[:2] == [4, 1] and len(reached) >= 15, reached


def test_hc8_minimises_only_unions_over_several_covers(monkeypatch):
    # With the level table built, the maxima outside the union over a single
    # lower cover are that cover's own as the table holds them, and below the
    # bottom the all-INF vector; only a union over k >= 2 covers takes the
    # maximal pairwise meets, k - 1 folds.  Nothing is minimised and no
    # maxima outside an upset are computed.
    rng = random.Random(18)
    reps = [example("B")[1], example("B7")[1], fixture_rep("fails_hc8")]
    reps += [random_rep(rng, bool4(), 4, max_coord=3, max_points=5) for _ in range(5)]
    for rep in reps:
        rep.complete()
        witness = _hc8_witness(Rep(rep.lattice, rep.dim, rep.points))
        folds = count_calls(monkeypatch, hc, "max_elements")
        minima = count_calls(monkeypatch, upset, "min_elements")
        maxima = count_calls(monkeypatch, UpSet, "complement_maxima")
        assert _hc8_witness(rep) == witness
        lat = rep.lattice
        assert len(folds) == sum(max(0, len(lat.lower_covers(j)) - 1) for j in range(lat.m))
        assert minima == maxima == []
        monkeypatch.undo()


def test_hc8_reads_its_maxima_from_the_level_table(monkeypatch):
    # Once complete() has built the level table, hc8 builds no UpSet and
    # computes no maxima outside one: not below the bottom of B, where the
    # union of no sublevels excludes nothing, nor on the meet sequence
    # e_j -> j of divisor_lattice(30), whose top has three lower covers.
    div = divisor_lattice(30)
    reps = [example("B")[1], Rep(div, div.m, [(unit(div.m, j), j) for j in range(div.m)])]
    for rep in reps:
        rep.complete()
        built = count_calls(monkeypatch, UpSet, "_from_antichain")
        checked = count_calls(monkeypatch, UpSet, "__post_init__")
        maxima = count_calls(monkeypatch, UpSet, "complement_maxima")
        assert _hc8_witness(rep) is None
        assert built == checked == maxima == []
        monkeypatch.undo()


def test_hc8_matches_the_scans_on_lattices_with_several_lower_covers():
    # On lattices where some element has two or three lower covers, the
    # maxima hc8 folds from the level table are those outside the union of
    # the covers' sublevels built as one upset, its witness is the unpruned
    # scan's, and it fails exactly where the box scan finds a counterexample.
    # Running hc8 first leaves the table as complete() on a fresh rep has it.
    # Each rep has one to four points, each with one or two arguments that
    # occur once or twice; half also send each unit vector e_j to j, which
    # gives the covers' sublevels maxima whose meets are new.
    rng = random.Random(28)
    lattices = [m3(), n5(), bool4(), divisor_lattice(12), divisor_lattice(30)]
    passing = failing = folded = 0
    while passing < 100:
        lat = lattices[passing % len(lattices)]
        points = [(unit(lat.m, j), j) for j in range(lat.m)] if rng.random() < 0.5 else []
        for _ in range(rng.randrange(1, 5)):
            vec = [0] * lat.m
            for _ in range(rng.randrange(1, 3)):
                vec[rng.randrange(lat.m)] += rng.randrange(1, 3)
            points.append((vec, rng.randrange(lat.m)))
        rep = Rep(lat, lat.m, points)
        if not check_hc2(rep):
            continue
        passing += 1
        report = admissibility_report(rep)
        w = report["hc8"]["witness"]
        assert w == scan_hc8_witness(Rep(lat, lat.m, rep.points))
        assert report["hc8"]["holds"] == (brute_hc8(rep) is None)
        failing += w is not None
        critical, _ = rep._level_table()
        for j in range(lat.m):
            outside = [set(critical[c][1]) for c in lat.lower_covers(j)]
            table = reduce(hc._meets, outside) if outside else {(INF,) * lat.m}
            assert set(table) == cover_union_maxima(rep, j)
            folded += len(outside) > 1 and table not in outside
        assert rep.complete() == Rep(lat, lat.m, rep.points).complete()
    assert failing >= 5 and folded >= 100, (failing, folded)


def test_hc7_matches_box_comparison():
    rng = random.Random(11)
    for lat in small_lattices(max_size=4):
        for _ in range(10):
            rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=4)
            assert check_hc7(rep) == brute_hc7_holds(rep)


def test_dimension_gate(chain3):
    wrong = Rep(chain3, 2)
    for fn in (check_hc1, check_hc2, check_hc7, check_hc8):
        with pytest.raises(ValueError, match="dimension"):
            fn(wrong)


def test_is_admissible(rep_b, rep_b7):
    assert is_admissible(rep_b)
    assert is_admissible(rep_b7)
    two = chain(2, ["0", "1"])
    assert not is_admissible(Rep(two, 2))


def test_admissibility_report_structure(rep_b):
    report = admissibility_report(rep_b)
    assert report["admissible"] is True
    for key in ("hc1", "hc2", "hc3", "hc4", "hc7", "hc8"):
        assert report[key]["holds"] is True


def test_admissibility_report_witnesses(chain3):
    bad = Rep(chain3, 3, [(unit(3, 2), "0")])
    report = admissibility_report(bad)
    assert report["hc2"]["holds"] is False
    w = report["hc2"]["witness"]
    assert w["property"] == "hc2"
    assert report["hc8"]["holds"] is None
    assert report["admissible"] is False


def test_hc1_unaffected_by_points_above_units():
    # a violation at a unit vector cannot be repaired by prescribing points
    # strictly above it, values elsewhere do not enter the unit evaluation
    two = chain(2, ["0", "1"])
    rng = random.Random(12)
    for _ in range(50):
        base = Rep(two, 2)
        assert not check_hc1(base)
        extra = tuple(rng.randrange(1, 4) for _ in range(2))
        grown = Rep(two, 2, base.points + ((extra, rng.randrange(2)),))
        if any(c == 0 for c in extra):
            continue
        assert not check_hc1(grown)


def test_shift_law_random():
    rng = random.Random(13)
    for lat in small_lattices():
        for _ in range(6):
            d = rng.randrange(1, 4)
            rep = random_rep(rng, lat, d, max_coord=4, max_points=5)
            a = tuple(rng.randrange(3) for _ in range(d))
            shifted = rep.shifted(a)
            for _ in range(10):
                x = random_ext_vec(rng, d)
                assert shifted.eval_ext(x) == rep.eval_ext(vadd(x, a))


def test_join_law_random():
    rng = random.Random(14)
    for lat in small_lattices():
        for _ in range(6):
            d = rng.randrange(1, 4)
            r1 = random_rep(rng, lat, d, max_coord=4, max_points=5)
            r2 = random_rep(rng, lat, d, max_coord=4, max_points=5)
            joined = join_fn(r1, r2)
            for _ in range(10):
                x = random_ext_vec(rng, d)
                assert joined.eval_ext(x) == lat.join(
                    r1.eval_ext(x), r2.eval_ext(x)
                )


def test_join_fn_equals_itself_on_idempotent_input(rep_b):
    assert equal_fn(join_fn(rep_b, rep_b), rep_b)


def fixture_rep(name: str) -> Rep:
    # a fresh Rep, with an empty witness memo, read from tests/fixtures
    path = Path(__file__).resolve().parent / "fixtures" / f"{name}.json"
    return rep_from_doc(json.loads(path.read_text()))


def test_hc7_and_hc8_are_decided_once_per_rep(monkeypatch):
    # B7 passes every check; fails_hc1 fails hc1 alone; fails_hc8 passes
    # hc1 and hc2 and fails hc7 and hc8.  hc8 is decided wherever hc2 holds.
    reps = [example("B7")[1], fixture_rep("fails_hc1"), fixture_rep("fails_hc8")]
    for rep in reps:
        hc7 = count_calls(monkeypatch, hc, "_hc7_witness")
        hc8 = count_calls(monkeypatch, hc, "_hc8_witness")
        report = admissibility_report(rep)
        assert is_admissible(rep) == report["admissible"]
        assert check_hc7(rep) == report["hc7"]["holds"]
        assert check_hc8(rep) == report["hc8"]["holds"]
        assert admissibility_report(rep) == report
        assert len(hc7) == len(hc8) == 1
        monkeypatch.undo()


def test_is_admissible_agrees_with_the_report():
    names = ("bool4_diamond", "fails_hc1", "fails_hc2", "fails_hc8")
    for name in names:
        assert not is_admissible(fixture_rep(name))
        assert admissibility_report(fixture_rep(name))["admissible"] is False
    # Two in three encodings send each unit vector e_j to j, so hc1 holds
    # and the later checks decide.  is_admissible runs first on its own
    # Rep, so neither reads the other's memo.
    rng = random.Random(17)
    lattices = small_lattices(max_size=4)
    seen = {True: 0, False: 0, "hc7": 0, "hc8": 0}
    for n in range(300):
        lat = rng.choice(lattices)
        rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=8)
        if n % 3:
            units = [(unit(lat.m, j), j) for j in range(lat.m)]
            rep = Rep(lat, lat.m, units + [p for p in rep.points if sum(p[0]) > 1])
        ok = is_admissible(rep)
        report = admissibility_report(Rep(lat, lat.m, rep.points))
        assert report["admissible"] is ok
        seen[ok] += 1
        failing = [p for p in ("hc1", "hc2", "hc7", "hc8") if not report[p]["holds"]]
        if len(failing) == 1 and failing[0] in seen:
            seen[failing[0]] += 1
    assert seen[True] >= 100 and seen[False] >= 50, seen
    assert seen["hc7"] >= 1 and seen["hc8"] >= 5, seen  # the only failing check


def test_hc8_witness_is_the_unpruned_scans_first():
    rep = fixture_rep("fails_hc8")
    w = _hc8_witness(rep)
    assert w is not None and w == scan_hc8_witness(fixture_rep("fails_hc8"))
    assert_hc8_violation(rep, w)


def test_hc8_evaluates_only_what_antitony_leaves_open(monkeypatch):
    # Below a canonical point valued top nothing is evaluated: a constant
    # top has the zero vector as its only canonical point.  On the meet
    # sequence e_j -> j of a chain each point e_j below the top has the
    # candidates 0 and e_j, both at most e_F(b), so each is evaluated once
    # and no nested vector is.
    for lat in small_lattices(max_size=5):
        rep = Rep(lat, lat.m, [(unit(lat.m, j), lat.top) for j in range(lat.m)])
        _hc8_witness(rep)  # builds the sublevels and their maxima
        calls = count_calls(monkeypatch, Rep, "_value_at")
        assert _hc8_witness(rep) is None and calls == []
        monkeypatch.undo()
    for m in (2, 5, 16):
        lat = chain(m)
        rep = Rep(lat, m, [(unit(m, j), j) for j in range(m)])
        _hc8_witness(rep)
        calls = count_calls(monkeypatch, Rep, "_value_at")
        assert _hc8_witness(rep) is None
        points = [a for a, alpha in rep.canonical().points if alpha != lat.top]
        assert len(points) == m - 1
        assert calls == [(rep, b) for a in points for b in ((0,) * m, a)]
        monkeypatch.undo()


def test_report_witnesses_are_copies():
    rep = fixture_rep("fails_hc8")
    report = admissibility_report(rep)
    kept = {p: dict(report[p]["witness"]) for p in ("hc7", "hc8")}
    for p in ("hc7", "hc8"):
        report[p]["witness"]["point"] = None
        report[p]["witness"]["extra"] = 1
    again = admissibility_report(rep)
    assert {p: again[p]["witness"] for p in ("hc7", "hc8")} == kept
