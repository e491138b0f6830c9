import random
import time

import pytest

from commrep import (
    Rep,
    antitone,
    admissibility_report,
    hc,
    chain,
    check_hc1,
    check_hc2,
    check_hc7,
    check_hc8,
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
from commrep.upset import UpSet

from util import (
    bool4,
    brute_hc7_holds,
    brute_hc7_witness,
    brute_hc8,
    count_calls,
    random_ext_vec,
    random_rep,
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


def test_hc7_witness_matches_pairwise_shifts():
    # Sharing one shift per (sublevel, unit vector) across all pairs, and
    # skipping the member scan on equal generators, returns the witness
    # the pair-by-pair search finds.  The last 200 of the first 1,200
    # encodings are moved up by 2^60 in each nonzero coordinate.
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
    lat, rep = example("B")
    calls = count_calls(monkeypatch, UpSet, "shift")
    assert _hc7_witness(rep) is None
    assert len(calls) == len(set(calls)) == lat.m**2 == 9


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
