import random

import pytest

from commrep import (
    Rep,
    admissibility_report,
    chain,
    check_hc1,
    check_hc2,
    check_hc7,
    check_hc8,
    equal_fn,
    is_admissible,
    join_fn,
    unit,
    vadd,
)
from commrep.hc import _hc7_triple_ok

from util import bool4, brute_hc7_holds, random_ext_vec, random_rep, small_lattices


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
            for i in range(lat.m):
                for alpha in range(lat.m):
                    assert _hc7_triple_ok(rep, i, i, i, alpha)


def test_hc7_counterexample_on_diamond():
    lat = bool4()
    # the two atoms join to top, but the value at top's unit vector is
    # strictly below the join of the values at the atoms' unit vectors
    rep = Rep(lat, 4, [(unit(4, lat.top), "0")])
    assert not check_hc7(rep)
    assert not brute_hc7_holds(rep)


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
