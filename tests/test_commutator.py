import random

import pytest

from commrep import (
    INF,
    CommEquality,
    Rep,
    check_hc1,
    check_hc2,
    encode_args,
    equal_fn,
    eval_commutator,
    eval_extended,
    example,
    largest_from_equalities,
    reduced_equalities,
    satisfies,
    to_equalities,
    to_extended_equalities,
)
from commrep.commutator import (
    _monotone_closed_rep,
    MAX_SPELLED_ARGS,
    args_from_vector,
    make_equality,
)
from commrep.vectors import unit
from util import (
    box,
    brute_monotone_closed_rep,
    brute_reduced_equalities,
    lattice_catalog,
    random_rep,
)

BIG = 2**60


def rendered(lat, eqs):
    return {e.render(lat) for e in eqs}


def test_encode_args(chain3):
    assert encode_args(chain3, ["1", "1"]) == (0, 0, 2)
    assert encode_args(chain3, []) == (0, 0, 0)
    assert encode_args(chain3, ["alpha", "1"]) == (0, 1, 1)
    assert encode_args(chain3, ["1", "alpha"]) == (0, 1, 1)  # order free
    assert encode_args(chain3, ["1", "alpha"], ["1"]) == (0, 1, INF)


def test_args_round_trip(chain3):
    vec = (1, 0, 3)
    assert encode_args(chain3, args_from_vector(chain3, vec)) == vec
    assert args_from_vector(chain3, (INF, 2, 1)) == (1, 1, 2)  # INF is skipped


def test_args_from_vector_refuses_more_than_the_spelled_limit(chain3):
    limit = MAX_SPELLED_ARGS
    assert args_from_vector(chain3, (INF, 0, limit)) == (2,) * limit
    with pytest.raises(ValueError, match=f"{limit} occurrences of 1"):
        args_from_vector(chain3, (0, 1, limit))
    with pytest.raises(ValueError, match=f"{2**60} occurrences of alpha"):
        args_from_vector(chain3, (0, 2**60, 0))


def test_eval_commutator_examples(chain3, rep_b, rep_b7):
    a = chain3.index
    assert eval_commutator(rep_b, ["1", "alpha"]) == a("0")
    assert eval_commutator(rep_b7, ["1"] * 8) == a("0")
    assert eval_commutator(rep_b7, ["1"] * 7) == a("alpha")
    assert eval_commutator(rep_b, []) == chain3.top


def test_eval_commutator_plateau(chain3, rep_b):
    for n in range(2, 12):
        assert eval_commutator(rep_b, ["1"] * n) == chain3.index("alpha")


def test_eval_extended_examples(chain3, rep_b):
    a = chain3.index
    assert eval_extended(rep_b, ["1"], []) == a("alpha")
    assert eval_extended(rep_b, ["0", "alpha", "1"], []) == a("0")
    assert eval_extended(rep_b, [], ["1", "1"]) == eval_commutator(rep_b, ["1", "1"])
    assert eval_extended(rep_b, [], []) == chain3.top


def test_omission_of_unbounded_arguments(chain3, rep_b):
    # arguments already declared unbounded never change the value
    rng = random.Random(30)
    for _ in range(50):
        s = [chain3.name(i) for i in range(3) if rng.random() < 0.5]
        if not s:
            continue
        args = [chain3.name(rng.randrange(3)) for _ in range(rng.randrange(3))]
        sigma = rng.choice(s)
        assert eval_extended(rep_b, s, args + [sigma]) == eval_extended(
            rep_b, s, args
        )


def test_permutation_invariance(chain3, rep_b):
    rng = random.Random(31)
    for _ in range(30):
        args = [chain3.name(rng.randrange(3)) for _ in range(4)]
        shuffled = args[:]
        rng.shuffle(shuffled)
        assert eval_commutator(rep_b, args) == eval_commutator(rep_b, shuffled)


def test_adding_arguments_never_raises_value(rep_b, chain3):
    rng = random.Random(32)
    for _ in range(50):
        args = [rng.randrange(3) for _ in range(rng.randrange(4))]
        extra = rng.randrange(3)
        assert chain3.leq(
            eval_commutator(rep_b, args + [extra]), eval_commutator(rep_b, args)
        )


def test_satisfies(chain3, rep_b):
    assert satisfies(rep_b, make_equality(chain3, ["1", "1"], "alpha"))
    assert not satisfies(rep_b, make_equality(chain3, ["1", "1"], "0"))
    assert not satisfies(
        example("B7")[1], make_equality(chain3, [], "alpha", unbounded=["1"])
    )


def test_to_equalities_b(chain3, rep_b):
    got = rendered(chain3, to_equalities(rep_b))
    assert got == {
        "[] = 1",
        "[1,1] = alpha",
        "[alpha,1] = 0",
        "[alpha,alpha] = 0",
        "[alpha] = alpha",
        "[0] = 0",
    }


def test_to_equalities_b7(chain3, rep_b7):
    got = rendered(chain3, to_equalities(rep_b7))
    assert "[1,1,1,1,1,1,1,1] = 0" in got


def test_to_equalities_empty(chain3):
    got = to_equalities(Rep(chain3, 3))
    assert rendered(chain3, got) == {"[] = 1"}


def test_round_trip_satisfaction(rep_b, rep_b7, rep_g):
    for rep in (rep_b, rep_b7):
        for e in to_equalities(rep):
            assert satisfies(rep, e)
        for e in to_extended_equalities(rep):
            assert satisfies(rep, e)


def test_extended_equalities_pin_the_function(chain3, rep_b):
    # a sequence satisfying the emitted set is forced to agree everywhere:
    # recover it through learning against an oracle built from the set
    eqs = to_extended_equalities(rep_b)
    assert any(INF in e.vec for e in eqs)
    for e in eqs:
        assert satisfies(rep_b, e)


def test_extended_equalities_b7_entail_known_facts(chain3, rep_b7):
    wanted = [
        make_equality(chain3, ["1", "alpha"], "0"),
        make_equality(chain3, ["1", "1"], "alpha"),
        make_equality(chain3, ["1"] * 7, "alpha"),
        make_equality(chain3, ["1"] * 8, "0"),
    ]
    for e in wanted:
        assert satisfies(rep_b7, e)


def test_largest_from_equalities_five_point_set(chain3, rep_b):
    # the full plain set from the canonical points recovers the sequence
    eqs = [
        make_equality(chain3, ["1", "1"], "alpha"),
        make_equality(chain3, ["1", "alpha"], "0"),
        make_equality(chain3, ["alpha", "alpha"], "0"),
        make_equality(chain3, ["alpha"], "alpha"),
        make_equality(chain3, ["0"], "0"),
    ]
    rep, report = largest_from_equalities(chain3, eqs)
    assert equal_fn(rep, rep_b)
    assert all(ok for _, ok in report)


def test_largest_from_equalities_empty(chain3):
    rep, report = largest_from_equalities(chain3, [])
    assert rep.points == ()
    assert report == ()


def test_largest_from_equalities_rejects_extended(chain3, rep_b):
    # [{1}; ] = alpha is a meet over all paddings, not a bound at one point
    eqs = to_equalities(rep_b) + (make_equality(chain3, [], "alpha", unbounded=["1"]),)
    with pytest.raises(ValueError, match=r"\[\{1\}; \] = alpha"):
        largest_from_equalities(chain3, eqs)
    with pytest.raises(ValueError, match="extended"):
        largest_from_equalities(chain3, to_extended_equalities(rep_b))


def test_largest_from_equalities_round_trip_big_offset():
    # Adding BIG to every nonzero count of one coordinate keeps the order
    # between all vectors, so the round trip must still recover rep.
    rng = random.Random(52)
    for _ in range(60):
        lat = rng.choice([lat for lat in lattice_catalog() if lat.m <= 5])
        small = random_rep(rng, lat, lat.m)
        j = rng.randrange(lat.m)
        rep = Rep(
            lat,
            lat.m,
            [
                (tuple(c + BIG if i == j and c else c for i, c in enumerate(v)), val)
                for v, val in small.points
            ],
        )
        back, report = largest_from_equalities(lat, to_equalities(rep))
        assert equal_fn(back, rep)
        assert all(ok for _, ok in report)


def test_largest_from_equalities_inconsistent(chain3):
    eqs = [
        make_equality(chain3, ["1"], "alpha"),
        make_equality(chain3, ["1", "1"], "1"),
    ]
    rep, report = largest_from_equalities(chain3, eqs)
    flags = dict((e.render(chain3), ok) for e, ok in report)
    assert flags["[1] = alpha"] is True
    assert flags["[1,1] = 1"] is False  # forced strictly below by antitony


def test_monotone_closed_interpolant_recovers_b(chain3, rep_b):
    # boundedness and monotony close the two essential equalities to the
    # whole sequence
    pairs = [
        (encode_args(chain3, ["1", "1"]), chain3.index("alpha")),
        (encode_args(chain3, ["1", "alpha"]), chain3.index("0")),
    ]
    closed = _monotone_closed_rep(chain3, pairs)
    brute = brute_monotone_closed_rep(chain3, pairs)
    for x in box(5, 3):
        assert closed(x) == rep_b.eval(x) == brute.eval(x)


def test_reduced_equalities(chain3, rep_b, rep_b7):
    assert rendered(chain3, reduced_equalities(rep_b)) == {
        "[1,1] = alpha",
        "[alpha,1] = 0",
    }
    assert rendered(chain3, reduced_equalities(rep_b7)) == {
        "[1,1] = alpha",
        "[alpha,1] = 0",
        "[1,1,1,1,1,1,1,1] = 0",
    }


def test_reduced_set_still_determines_largest(chain3, rep_b):
    kept = reduced_equalities(rep_b)
    pairs = [(e.vec, e.rhs) for e in kept]
    closed = _monotone_closed_rep(chain3, pairs)
    brute = brute_monotone_closed_rep(chain3, pairs)
    for x in box(5, 3):
        assert closed(x) == rep_b.eval(x) == brute.eval(x)


def dropped(rep, reduced) -> int:
    """How many nontrivial canonical equalities the reduction left out."""
    lat = rep.lattice
    nontrivial = [
        e
        for e in to_equalities(rep)
        if not (sum(e.vec) == 0 and e.rhs == lat.top)
        and not (sum(e.vec) == 1 and e.vec[e.rhs] == 1)
    ]
    return len(nontrivial) - len(reduced)


def test_reduced_equalities_match_materialised_closure():
    # Random encodings over the small catalog lattices; unit points take a
    # value below their element, so that many of them are bounded and
    # monotone and reduction has something to drop.
    rng = random.Random(50)
    lattices = [lat for lat in lattice_catalog() if lat.m <= 5]
    admissible = dropping = 0
    for _ in range(400):
        lat = rng.choice(lattices)
        m = lat.m
        pts = [
            (tuple(rng.randrange(3) for _ in range(m)), rng.randrange(m))
            for _ in range(rng.randrange(5))
        ]
        pts += [
            (unit(m, j), rng.choice([i for i in range(m) if lat.leq(i, j)]))
            for j in range(m)
            if rng.random() < 0.7
        ]
        rep = Rep(lat, m, pts)
        got = reduced_equalities(rep)
        assert got == brute_reduced_equalities(rep), rep
        if check_hc1(rep) and check_hc2(rep):
            admissible += 1
            dropping += dropped(rep, got) > 0
    assert admissible >= 100
    assert dropping >= 10


def test_reduced_equalities_of_closures_match_materialised_closure():
    # Encodings sampled from the closure of a few pairs, so that many are
    # bounded and monotone and several equalities entail one another: the
    # oracle drops them in the spelled-out order, reduced_equalities in one
    # order-free pass.
    rng = random.Random(52)
    lattices = [lat for lat in lattice_catalog() if 2 <= lat.m <= 4]
    admissible = dropping = dropping_two = 0
    for _ in range(300):
        lat = rng.choice(lattices)
        m = lat.m
        pairs = [
            (tuple(rng.randrange(3) for _ in range(m)), rng.randrange(m))
            for _ in range(rng.randint(1, 3))
        ]
        closed = _monotone_closed_rep(lat, pairs)
        xs = list(box(4 if m <= 3 else 3, m))
        if rng.random() < 0.5:
            xs = rng.sample(xs, len(xs) // 2)
        rep = Rep(lat, m, [(x, closed(x)) for x in xs] + pairs)
        got = reduced_equalities(rep)
        assert got == brute_reduced_equalities(rep), rep
        if check_hc1(rep) and check_hc2(rep):
            admissible += 1
            dropping += dropped(rep, got) > 0
            dropping_two += dropped(rep, got) > 1
    assert admissible >= 150
    assert dropping >= 30
    assert dropping_two >= 8


def test_monotone_closure_evaluator_matches_materialised_closure():
    rng = random.Random(51)
    for lat in lattice_catalog():
        if lat.m > 3:
            continue
        for _ in range(10):
            pairs = [
                (tuple(rng.randrange(3) for _ in range(lat.m)), rng.randrange(lat.m))
                for _ in range(rng.randrange(4))
            ]
            closed = _monotone_closed_rep(lat, pairs)
            brute = brute_monotone_closed_rep(lat, pairs)
            for x in box(3, lat.m):
                assert closed(x) == brute.eval(x)


@pytest.mark.parametrize("k", [128, 512])
def test_reduced_equalities_large_collapse(chain3, rep_b, k):
    rep = Rep(chain3, 3, list(rep_b.points) + [((0, 0, k), "0")])
    assert reduced_equalities(rep) == (
        make_equality(chain3, ["1", "1"], "alpha"),
        make_equality(chain3, ["1"] * k, "0"),
        make_equality(chain3, ["alpha", "1"], "0"),
    )


def test_equalities_at_big_count(chain3, rep_b):
    # B plus [1^k] = 0 at k = 2^60: every count stays a single integer
    rep = Rep(chain3, 3, list(rep_b.points) + [((0, 0, BIG), "0")])
    a = chain3.index
    assert reduced_equalities(rep) == (
        CommEquality((0, 0, 2), a("alpha")),
        CommEquality((0, 0, BIG), a("0")),
        CommEquality((0, 1, 1), a("0")),
    )
    assert CommEquality((0, 0, BIG), a("0")) in to_equalities(rep)
    ext = to_extended_equalities(rep)
    assert CommEquality((0, 0, BIG - 1), a("alpha")) in ext
    assert all(satisfies(rep, e) for e in ext)
    back, report = largest_from_equalities(chain3, to_equalities(rep))
    assert equal_fn(back, rep) and all(ok for _, ok in report)


def test_examples(div52, rep_g, rep_b, rep_b7):
    assert rep_g.eval((10, 20)) == div52.index("26")
    with pytest.raises(ValueError, match="unknown example"):
        example("nope")


def test_dimension_gate(chain3):
    wrong = Rep(chain3, 2)
    with pytest.raises(ValueError, match="dimension"):
        eval_commutator(wrong, [])
    with pytest.raises(ValueError, match="dimension"):
        to_equalities(wrong)


def test_unknown_element_rejected(chain3, rep_b):
    with pytest.raises(ValueError, match="unknown"):
        eval_commutator(rep_b, ["beta"])
