"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; every tolerance is exact and the stated runtime caps are asserted.
"""

import random
import time

from commrep import (
    Rep,
    chain,
    check_complete,
    equal_fn,
    eval_commutator,
    eval_extended,
    is_admissible,
    learn,
    oracle_from_rep,
    satisfies,
    to_extended_equalities,
)
from commrep.commutator import make_equality
from commrep.hc import check_hc7

from util import (
    brute_complement_maxima,
    brute_eval_ext,
    brute_hc7_holds,
    brute_min_eq,
    brute_min_leq,
    random_ext_vec,
    random_rep,
    small_lattices,
)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_1_canonical_div52(div52, rep_g):
    t0 = time.perf_counter()
    got = {(v, div52.name(e)) for v, e in rep_g.canonical().points}
    expected = {
        ((0, 0), "52"),
        ((10, 20), "26"),
        ((30, 5), "4"),
        ((30, 20), "2"),
    }
    assert got == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"canonical set equality, {elapsed:.3f}s")


def test_criterion_2_completeness_div52(div52, rep_g, known_g2):
    t0 = time.perf_counter()
    assert check_complete(rep_g, known_g2)  # (a) the known ten point set
    assert check_complete(rep_g, rep_g.complete())  # (b) own output
    for vec, val in known_g2.points:  # (c) agreement at every point
        assert rep_g.eval_ext(vec) == val
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"ten point set accepted, own output accepted, {elapsed:.3f}s")


def test_criterion_3_algebra_b(chain3, rep_b, known_h):
    t0 = time.perf_counter()
    assert check_complete(rep_b, known_h)
    facts = [
        make_equality(chain3, ["1", "1"], "alpha"),
        make_equality(chain3, ["1", "alpha"], "0"),
        make_equality(chain3, ["alpha", "alpha"], "0"),
        make_equality(chain3, ["0"], "0"),
        make_equality(chain3, ["alpha"], "alpha"),
        make_equality(chain3, ["1"], "1"),
        make_equality(chain3, [], "alpha", unbounded=["1"]),
        make_equality(chain3, [], "0", unbounded=["0", "alpha", "1"]),
    ]
    for eq in facts:
        assert satisfies(rep_b, eq)
    emitted = to_extended_equalities(rep_b)
    for eq in emitted:  # the emitted set itself holds, and pins the sequence
        assert satisfies(rep_b, eq)
    recovered = learn(oracle_from_rep(rep_b))
    assert equal_fn(recovered, rep_b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"eight point set accepted, eight facts attained, {elapsed:.3f}s")


def test_criterion_4_algebra_b7(chain3, rep_b, rep_b7):
    t0 = time.perf_counter()
    assert eval_commutator(rep_b7, ["1"] * 7) == chain3.index("alpha")
    assert eval_commutator(rep_b7, ["1"] * 8) == chain3.bottom
    assert is_admissible(rep_b)
    assert is_admissible(rep_b7)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"values and admissibility, {elapsed:.3f}s")


def test_criterion_5_learning_round_trips():
    t0 = time.perf_counter()
    rng = random.Random(100)
    lattices = small_lattices(max_size=6)
    failures = 0
    for _ in range(100):
        lat = rng.choice(lattices)
        dim = rng.randrange(1, 4)
        target = random_rep(rng, lat, dim, max_coord=5, max_points=6)
        learned = learn(oracle_from_rep(target))
        if not equal_fn(learned, target):
            failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed < 60.0
    report(5, f"100 targets, 0 failures, {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(200)
    lattices = small_lattices()

    # continuation values against the definitional truncated meet
    cases = 0
    for _ in range(210):
        lat = rng.choice(lattices)
        dim = rng.randrange(1, 4)
        rep = random_rep(rng, lat, dim, max_coord=4, max_points=5)
        x = random_ext_vec(rng, dim)
        assert rep.eval_ext(x) == brute_eval_ext(rep, x)
        cases += 1
    assert cases >= 200

    # sublevel minima and canonical classes against box scans
    cases = 0
    while cases < 200:
        lat = rng.choice(lattices)
        dim = rng.randrange(1, 4)
        rep = random_rep(rng, lat, dim, max_coord=4, max_points=5)
        canon = rep.canonical()
        for a in range(lat.m):
            assert set(rep.sublevel(a).gens) == brute_min_leq(rep, a)
            assert {v for v, e in canon.points if e == a} == brute_min_eq(rep, a)
            cases += 1

    # complement maxima against the extended box scan
    cases = 0
    for _ in range(210):
        from commrep import UpSet

        dim = rng.randrange(1, 4)
        pts = [
            tuple(rng.randrange(5) for _ in range(dim))
            for _ in range(rng.randrange(6))
        ]
        u = UpSet.from_points(dim, pts)
        assert u.complement_maxima() == brute_complement_maxima(u)
        cases += 1
    assert cases >= 200

    # join distributivity decision against the bounded box comparison
    cases = 0
    for _ in range(210):
        lat = rng.choice(small_lattices(max_size=4))
        rep = random_rep(rng, lat, lat.m, max_coord=3, max_points=4)
        assert check_hc7(rep) == brute_hc7_holds(rep)
        cases += 1
    assert cases >= 200

    # shift and join laws at random extended points
    cases = 0
    while cases < 200:
        lat = rng.choice(lattices)
        dim = rng.randrange(1, 4)
        r1 = random_rep(rng, lat, dim, max_coord=4, max_points=5)
        r2 = random_rep(rng, lat, dim, max_coord=4, max_points=5)
        a = tuple(rng.randrange(3) for _ in range(dim))
        shifted = r1.shifted(a)
        from commrep import join_fn, vadd

        joined = join_fn(r1, r2)
        for _ in range(5):
            x = random_ext_vec(rng, dim)
            assert shifted.eval_ext(x) == r1.eval_ext(vadd(x, a))
            assert joined.eval_ext(x) == lat.join(r1.eval_ext(x), r2.eval_ext(x))
            cases += 1

    elapsed = time.perf_counter() - t0
    report(6, f"five suites, >=200 cases each, 0 discrepancies, {elapsed:.1f}s")


def test_criterion_7_non_determination(chain3, rep_b):
    assert not rep_b.finitely_determinable()

    two = chain(2, ["0", "1"])
    assert Rep(two, 1, [((3,), "0")]).finitely_determinable()
    axis_bottoming = Rep(two, 2, [((2, 0), "0"), ((0, 2), "0")])
    assert axis_bottoming.finitely_determinable()

    # witness for the false case: pinning one far axis point to bottom gives
    # a second antitone function through the same finite graph sample
    c = 1 + max(v[2] for v, _ in rep_b.points)
    extended = Rep(chain3, 3, rep_b.points + (((0, 0, c), chain3.bottom),))
    assert not equal_fn(extended, rep_b)
    assert rep_b.eval((0, 0, c)) != chain3.bottom
    assert extended.eval((0, 0, c)) == chain3.bottom
    for vec, val in rep_b.points:  # both pass through the original sample
        assert rep_b.eval(vec) == val
        assert extended.eval(vec) == val
    report(7, "finite determination decided, second function constructed")
