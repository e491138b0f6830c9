import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import commrep
from commrep import (
    INF,
    ExtRep,
    Lattice,
    Rep,
    UpSet,
    admissibility_report,
    antitone,
    chain,
    check_complete,
    divisor_lattice,
    equal_fn,
    eval_commutator,
    eval_extended,
    example,
    hc,
    join_fn,
    le_pointwise,
    learn,
    oracle_from_rep,
    residual,
    step,
    to_extended_equalities,
    unit,
    vadd,
    vectors,
    vleq,
)
from commrep.hc import _hc8_witness

from util import (
    box,
    brute_check_complete,
    brute_complete,
    brute_eval,
    brute_eval_ext,
    brute_meet_profile,
    brute_min_eq,
    brute_min_leq,
    brute_rep_from_level_minima,
    brute_witness,
    coord_bound,
    count_calls,
    hyperplane,
    lattice_catalog,
    random_ext_vec,
    random_rep,
    small_lattices,
)


def pts_named(lat, rep):
    return {(v, lat.name(e)) for v, e in rep.points}


# -- evaluation ----------------------------------------------------------------


def test_eval_examples(div52, rep_g):
    i = div52.index
    assert rep_g.eval((30, 20)) == i("2")
    assert rep_g.eval((0, 0)) == i("52")
    assert Rep(div52, 2).eval((99, 99)) == div52.top


def test_eval_ext_examples(div52, rep_g):
    i = div52.index
    assert rep_g.eval_ext((29, INF)) == i("26")
    assert rep_g.eval_ext((INF, INF)) == i("2")
    for x in [(0, 0), (10, 20), (30, 20), (15, 40)]:
        assert rep_g.eval_ext(x) == rep_g.eval(x)


def test_eval_dimension_checks(div52, rep_g):
    with pytest.raises(ValueError):
        rep_g.eval((1, 2, 3))
    with pytest.raises(ValueError):
        rep_g.eval((1, INF))


def test_dimension_must_be_positive(div52):
    # every public constructor takes an int, not a bool, of at least 1
    builds = (
        lambda d: Rep(div52, d),
        lambda d: ExtRep(div52, d),
        lambda d: UpSet(d, ()),
        lambda d: UpSet.from_points(d, []),
    )
    for build in builds:
        for dim in (0, -1, -2):
            with pytest.raises(ValueError, match="^dimension must be at least 1$"):
                build(dim)
        for dim in (1.5, 2.0, "2", True, None):
            with pytest.raises(ValueError, match="^dimension must be an int, got "):
                build(dim)
        assert build(2).dim == 2


def test_equal_reps_hash_alike(div52):
    pts = [((10, 20), "26"), ((30, 5), "4"), ((30, 5), "52")]
    r1, r2 = Rep(div52, 2, pts), Rep(div52, 2, pts[::-1])
    assert r1 == r2 and hash(r1) == hash(r2)
    assert len({r1, r2, example("div52")[1]}) == 1


def test_witness_examples(rep_g):
    assert rep_g.witness((INF, INF)) == (30, 20)
    assert rep_g.witness((9, INF)) == (0, 0)
    x = (31, 6)
    b = rep_g.witness(x)
    assert vleq(b, x) and rep_g.eval(b) == rep_g.eval_ext(x)


def test_witness_property_random(rep_g):
    rng = random.Random(0)
    for _ in range(100):
        x = random_ext_vec(rng, 2, max_coord=35)
        b = rep_g.witness(x)
        assert vleq(b, x)
        assert rep_g.eval(b) == rep_g.eval_ext(x)


# -- sublevel ------------------------------------------------------------------


def test_sublevel_examples(div52, rep_g):
    assert rep_g.sublevel("52").gens == ((0, 0),)
    assert rep_g.sublevel("2").gens == ((30, 20),)
    # the box scan is the authority for the remaining values
    for name in div52.names:
        got = set(rep_g.sublevel(name).gens)
        assert got == brute_min_leq(rep_g, div52.index(name))
    assert rep_g.sublevel("26").gens == ((10, 20),)


def test_sublevel_membership_matches_eval(rep_g, div52):
    level = rep_g.sublevel("4")
    for x in box(coord_bound(rep_g), 2):
        assert level.member(x) == div52.leq(rep_g.eval(x), div52.index("4"))


# -- canonical -----------------------------------------------------------------


def test_canonical_div52(div52, rep_g):
    assert pts_named(div52, rep_g.canonical()) == {
        ((0, 0), "52"),
        ((10, 20), "26"),
        ((30, 5), "4"),
        ((30, 20), "2"),
    }


def test_canonical_empty_rep(div52):
    empty = Rep(div52, 3)
    assert pts_named(div52, empty.canonical()) == {((0, 0, 0), "52")}


def test_canonical_idempotent(rep_g):
    once = rep_g.canonical()
    assert once.canonical() == once
    assert equal_fn(once, rep_g)


def test_canonical_matches_box_scan_random():
    rng = random.Random(1)
    for lat in small_lattices():
        for _ in range(6):
            d = rng.randrange(1, 4)
            rep = random_rep(rng, lat, d, max_coord=4, max_points=5)
            canon = rep.canonical()
            for a in range(lat.m):
                expected = brute_min_eq(rep, a)
                got = {v for v, e in canon.points if e == a}
                assert got == expected


def test_canonical_and_join_match_the_lower_cover_derivation():
    # canonical() and join_fn value each generator by the meet of the levels
    # it generates; the old derivation subtracts the lower covers' generators
    # over the catalog and its duals, whose element indices run top down
    rng = random.Random(17)
    lattices = lattice_catalog()
    lattices += [Lattice.from_leq(base.names, list(zip(*base.leq_matrix))) for base in lattices]
    spanning = incomparable = 0
    for i in range(1200):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        r1, r2 = (random_rep(rng, lat, d, max_coord=4, max_points=8) for _ in range(2))
        if i % 3 == 0:
            r1, r2 = (
                Rep(lat, d, [(tuple(c + 2**60 for c in v), e) for v, e in r.points])
                for r in (r1, r2)
            )
        levels = [r1.sublevel(a) for a in range(lat.m)]
        joint = [r1.sublevel(a) & r2.sublevel(a) for a in range(lat.m)]
        assert r1.canonical().points == brute_rep_from_level_minima(lat, d, levels).points
        assert join_fn(r1, r2).points == brute_rep_from_level_minima(lat, d, joint).points
        for family in (levels, joint):
            spans: dict = {}
            for a, level in enumerate(family):
                for g in level.gens:
                    spans.setdefault(g, []).append(a)
            for span in spans.values():
                spanning += len(span) >= 2
                incomparable += any(
                    not lat.leq(a, b) and not lat.leq(b, a) for a in span for b in span
                )
    print(f"generators of 2+ levels: {spanning}, of 2 incomparable levels: {incomparable}")
    assert spanning >= 100 and incomparable >= 10


def test_meet_profile_matches_pairwise_fold():
    rng = random.Random(8)
    lattices = lattice_catalog()
    wide = 0
    for i in range(360):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        rep = random_rep(rng, lat, d, max_coord=4, max_points=10)
        if i % 5 == 0:
            rep = Rep(lat, d, [(tuple(c + 2**60 for c in v), e) for v, e in rep.points])
        prof = rep._meet_profile()
        assert prof == brute_meet_profile(rep)
        wide += len(prof) >= 3 and max(map(len, prof.values())) >= 2
    assert wide >= 60


# -- complete / check_complete --------------------------------------------------


def test_complete_output_is_complete(rep_g):
    assert check_complete(rep_g, rep_g.complete())


def test_complete_values_generators_by_their_levels_and_evaluates_only_maxima(
    monkeypatch,
):
    # complete() values each sublevel generator by the meet of the levels it
    # generates, as canonical() does, and gives a complement maximum p the
    # value F(0) when each lower cover of F(0) lies below some a whose
    # complement maxima hold p; _value_at sees exactly the other maxima.
    # The points match every critical point valued on its own: by the box
    # scan of brute_eval_ext, or for the reps offset by 2^60, whose box
    # would be 2^60 wide, by the point scan.
    rng = random.Random(29)
    lattices = lattice_catalog()
    calls = count_calls(monkeypatch, Rep, "_value_at")
    unevaluated = decided = 0
    for i in range(450):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        rep = random_rep(rng, lat, d, max_coord=4, max_points=6)
        if i % 3 == 0:
            rep = Rep(lat, d, [(tuple(c + 2**60 for c in v), e) for v, e in rep.points])
        calls.clear()
        comp = rep.complete()
        levels = [rep.sublevel(a) for a in range(lat.m)]
        outside = [level.complement_maxima() for level in levels]
        maxima = set().union(*outside)
        gens = {g for level in levels for g in level.gens}
        f0 = brute_eval(rep, (0,) * d)
        at_f0 = {
            p for p in maxima
            if all(any(lat.leq(c, a) and p in outside[a] for a in range(lat.m))
                   for c in lat.lower_covers(f0))
        }
        assert {vec for _, vec in calls} == maxima - at_f0 - gens
        unevaluated += len(gens - maxima)
        decided += len(at_f0 - gens)
        expected = brute_complete(rep, brute_eval if i % 3 == 0 else brute_eval_ext)
        assert comp.points == expected
    assert unevaluated >= 900 and decided >= 450, (unevaluated, decided)


def test_levels_above_f0_are_everything_and_maxima_take_f0_below_top(monkeypatch):
    # Reps with a point at the zero vector, so F(0) < top: every sublevel
    # is the minimised union of the profile antichains at or below it, and
    # the zero vector alone from F(0) up; complete() matches the critical
    # points valued on their own; check_complete rejects its output with
    # any one value changed, the maxima valued F(0) with no evaluation
    # among them.  Neither computes the maxima outside a level that is all
    # of N^d.  Every third rep has its nonzero points offset by 2^60.
    rng = random.Random(37)
    lattices = [lat for lat in lattice_catalog() if lat.m >= 2]
    calls = count_calls(monkeypatch, UpSet, "complement_maxima")
    decided = computed = 0
    for i in range(300):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        f0 = rng.choice([e for e in range(lat.m) if e != lat.top])
        pts = random_rep(rng, lat, d, max_coord=4, max_points=6).points
        off = 2**60 if i % 3 == 0 else 0
        rep = Rep(lat, d, [((0,) * d, f0)] + [
            (tuple(c + off for c in v), e) for v, e in pts if any(v)
        ])
        assert brute_eval(rep, (0,) * d) == f0
        for a in range(lat.m):
            union = [v for mval, anti in rep._meet_profile().items()
                     if lat.leq(mval, a) for v in anti]
            assert rep.sublevel(a) == UpSet.from_points(d, union)
            if lat.leq(f0, a):
                assert rep.sublevel(a).gens == ((0,) * d,)
        calls.clear()
        comp = rep.complete()
        assert comp.points == brute_complete(rep, brute_eval if off else brute_eval_ext)
        assert check_complete(rep, comp)
        gens = {g for a in range(lat.m) for g in rep.sublevel(a).gens}
        decided += sum(
            v not in gens and v not in rep._values for v, _ in comp.points
        )
        for k, (vec, val) in enumerate(comp.points):
            wrong = rng.choice([e for e in range(lat.m) if e != val])
            changed = comp.points[:k] + ((vec, wrong),) + comp.points[k + 1 :]
            assert not check_complete(rep, ExtRep(lat, d, changed))
        assert all(up.gens != ((0,) * d,) for up, in calls), calls
        computed += len(calls)
    assert decided >= 250, decided
    assert computed >= 200, computed


def test_complete_and_check_complete_evaluate_nothing_on_a_hyperplane():
    # {x in N^3 : sum x = 6} -> 0 over chain(2): the generators take their
    # levels' values and every complement maximum takes F(0) = 1, so no
    # evaluation builds the rep's dominance index
    rep = Rep(chain(2), 3, [(x, 0) for x in hyperplane(3, 6)])
    comp = rep.complete()
    assert check_complete(rep, comp)
    assert rep._index is None
    assert len(comp.points) == 28 + 21 + 1


def test_known_ten_point_set_accepted(rep_g, known_g2):
    assert check_complete(rep_g, known_g2)
    for vec, val in known_g2.points:
        assert rep_g.eval_ext(vec) == val


def test_dropping_a_needed_point_breaks_completeness(div52, rep_g, known_g2):
    trimmed = ExtRep(
        div52, 2, [(v, e) for v, e in known_g2.points if v != (INF, INF)]
    )
    assert not check_complete(rep_g, trimmed)


def test_complete_constant_top():
    lat = chain(2, ["0", "1"])
    empty = Rep(lat, 1)
    comp = empty.complete()
    assert ((INF,), lat.index("1")) in comp.points
    assert check_complete(empty, comp)
    assert check_complete(empty, ExtRep(lat, 1, [((INF,), "1")]))


def test_complete_hyperplane_in_four_dimensions():
    # {x in N^4 : sum x = 8} -> 0: 165 points valued 0 and 121 valued 1
    rep = Rep(chain(2), 4, [(x, 0) for x in hyperplane(4, 8)])
    start = time.perf_counter()
    comp = rep.complete()
    assert check_complete(rep, comp)
    assert time.perf_counter() - start < 2.0
    assert len(comp.points) == 286


def test_complete_b_encoding(rep_b, known_h):
    assert check_complete(rep_b, rep_b.complete())
    assert check_complete(rep_b, known_h)


@pytest.mark.parametrize("name", ["B", "B7"])
def test_complement_maxima_are_computed_once_per_distinct_upset(monkeypatch, name):
    # complete(), check_complete and hc8 read one level table, which holds
    # the maxima outside each distinct sublevel below F(0), computed once:
    # the sublevels of 0 and alpha.  The 1-sublevel is all of N^3, outside
    # which nothing is computed, and hc8 computes no maxima of its own.
    lat, rep = example(name)
    calls = count_calls(monkeypatch, UpSet, "complement_maxima")
    admissibility_report(rep)
    to_extended_equalities(rep)
    assert check_complete(rep, rep.complete())
    f0 = rep.eval((0,) * rep.dim)
    below = {rep.sublevel(a) for a in range(lat.m) if not lat.leq(f0, a)}
    assert set(calls) == {(u,) for u in below}
    assert len(calls) == len(below) == 2


def test_equal_sublevels_share_their_complement_maxima(monkeypatch):
    # div52 takes no value below 1 or 13, so both sublevels are empty; the
    # top level is all of N^2, outside which nothing is computed
    _, rep = example("div52")
    calls = count_calls(monkeypatch, UpSet, "complement_maxima")
    rep.complete()
    assert rep.sublevel("1") == rep.sublevel("13")
    levels = {rep.sublevel(a) for a in range(rep.lattice.m)}
    levels.discard(UpSet.from_points(rep.dim, [(0,) * rep.dim]))
    assert set(calls) == {(u,) for u in levels}
    assert len(calls) == len(levels) == 4


@pytest.mark.parametrize("name", ["div52", "B", "B7"])
def test_check_complete_builds_no_index_when_ext_holds_every_critical_point(
    monkeypatch, name
):
    # complete() keeps the value of each complement maximum it evaluates,
    # building rep's own index if it needs one, so every index built from
    # here on would be one over ext
    _, rep = example(name)
    comp = rep.complete()
    calls = count_calls(monkeypatch, antitone, "_Below")
    assert check_complete(rep, comp)
    assert calls == []


def test_level_table_matches_brute_force_with_and_without_canonical():
    # The level table takes its generators' values from canonical() when
    # that is built first, and from one pass over the levels when it is
    # not; either way canonical() matches the old level-minima rule,
    # complete() the critical points valued on their own, and each value
    # the table proves is F's there.  Every third rep is offset by 2^60 and
    # valued by the point scan, as its box would be 2^60 wide.
    rng = random.Random(43)
    lattices = lattice_catalog()
    for i in range(300):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        rep = random_rep(rng, lat, d, max_coord=4, max_points=6)
        if i % 3 == 0:
            rep = Rep(lat, d, [(tuple(c + 2**60 for c in v), e) for v, e in rep.points])
        evaluate = brute_eval if i % 3 == 0 else brute_eval_ext
        expected = brute_complete(rep, evaluate)
        both, alone = Rep(lat, d, rep.points), Rep(lat, d, rep.points)
        levels = [both.sublevel(a) for a in range(lat.m)]
        assert both.canonical().points == brute_rep_from_level_minima(lat, d, levels).points
        assert both.complete().points == expected
        assert alone.complete().points == expected
        proven = both._level_table()[1]
        assert proven == alone._level_table()[1]
        assert all(evaluate(rep, vec) == val for vec, val in proven.items())


@pytest.mark.parametrize("name", ["div52", "B", "B7", "hyperplane"])
def test_the_levels_are_passed_over_once_per_rep(monkeypatch, name):
    # canonical(), complete() and check_complete on one rep read the
    # generators' values off one pass over the levels, and so do complete()
    # alone, complete() then check_complete, and check_complete on a fresh
    # rep, which builds the canonical rep before the table
    def fresh():
        if name == "hyperplane":
            return Rep(chain(2), 3, [(x, 0) for x in hyperplane(3, 6)])
        return example(name)[1]

    comp = fresh().complete()
    calls = count_calls(monkeypatch, antitone, "_level_values")
    for steps in ("canonical complete check", "complete", "complete check", "check"):
        rep = fresh()
        calls.clear()
        for step in steps.split():
            if step == "canonical":
                rep.canonical()
            elif step == "complete":
                assert rep.complete() == comp
            else:
                assert check_complete(rep, comp)
        assert len(calls) == 1, steps


def test_canonical_and_join_build_no_rep_through_the_constructor(monkeypatch):
    div52, rep = example("div52")
    other = Rep(div52, 2, [((5, 5), "13"), ((20, 0), "4")])
    calls = count_calls(monkeypatch, Rep, "__init__")
    canon = rep.canonical()
    joined = join_fn(rep, other)
    assert calls == []
    assert canon == Rep(div52, 2, canon.points)
    assert joined == Rep(div52, 2, joined.points)


def test_check_complete_requires_matching_context(div52, rep_g):
    other = ExtRep(div52, 3, [((0, 0, 0), "52")])
    with pytest.raises(ValueError, match="dimension"):
        check_complete(rep_g, other)
    lat2 = chain(2)
    with pytest.raises(ValueError, match="lattice"):
        check_complete(rep_g, ExtRep(lat2, 2, [((0, 0), 1)]))


def test_supersets_of_complete_sets_stay_complete(rep_g, div52):
    comp = rep_g.complete()
    extra = ((17, 23), rep_g.eval((17, 23)))
    assert check_complete(rep_g, ExtRep(div52, 2, comp.points + (extra,)))


def test_perturbed_point_sets_are_rejected():
    rng = random.Random(2)
    tried = 0
    for lat in small_lattices():
        if lat.m < 2:
            continue
        for _ in range(40):
            d = rng.randrange(1, 3)
            rep = random_rep(rng, lat, d, max_coord=3, max_points=4)
            comp = rep.complete()
            vec = random_ext_vec(rng, d, max_coord=5)
            true_val = rep.eval_ext(vec)
            wrong = rng.randrange(lat.m)
            if wrong == true_val or any(v == vec for v, _ in comp.points):
                continue
            tampered = ExtRep(lat, d, comp.points + ((vec, wrong),))
            assert not check_complete(rep, tampered)
            tried += 1
    assert tried >= 100


def test_index_matches_scans_on_seeded_reps():
    # The dominance index against the point scans: evaluation (INF query
    # coordinates included), witnesses, check_complete on the complete set
    # and on it with one point dropped, and the value-grouped meet profile
    # against the point-by-point fold; every third rep is offset by 2^60.
    # Each sublevel is the upward closure of the profile antichains at or
    # below its value, complete() equals its points passed through the
    # public ExtRep constructor, and so does canonical() through the Rep
    # constructor, with the same attributes.
    rng = random.Random(11)
    lattices = lattice_catalog()
    verdicts = {True: 0, False: 0}
    for i in range(1500):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        rep = random_rep(rng, lat, d, max_coord=5, max_points=6)
        off = 2**60 if i % 3 == 0 else 0
        if off:
            rep = Rep(lat, d, [(tuple(c + off for c in v), e) for v, e in rep.points])
        for _ in range(10):
            x = tuple(c if c == INF else c + off for c in random_ext_vec(rng, d))
            assert rep.eval_ext(x) == brute_eval(rep, x)
            assert rep.witness(x) == brute_witness(rep, x)
        assert rep._meet_profile() == brute_meet_profile(rep)
        for a in range(lat.m):
            union = [v for mval, anti in rep._meet_profile().items()
                     if lat.leq(mval, a) for v in anti]
            assert rep.sublevel(a) == UpSet.from_points(d, union)
        comp = rep.complete()
        assert comp == ExtRep(lat, d, comp.points)
        canon = rep.canonical()
        rebuilt = Rep(lat, d, canon.points)
        assert canon == rebuilt and vars(canon).keys() == vars(rebuilt).keys()
        assert check_complete(rep, comp) and brute_check_complete(rep, comp)
        if comp.points:
            drop = rng.randrange(len(comp.points))
            tampered = ExtRep(lat, d, comp.points[:drop] + comp.points[drop + 1 :])
            verdict = check_complete(rep, tampered)
            assert verdict == brute_check_complete(rep, tampered)
            verdicts[verdict] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100


def test_check_complete_matches_scans_off_the_complete_set(monkeypatch):
    # check_complete against brute_check_complete on three kinds of set:
    # the complete set plus graph points (finite and with INF), which must
    # need no index; the complete set without one to three of its points,
    # each of them critical; and random samples of graph points, drawn from
    # the complete set and random vectors. Every third rep is offset by
    # 2^60.
    rng = random.Random(23)
    lattices = lattice_catalog()
    calls = count_calls(monkeypatch, antitone, "_Below")
    verdicts = {(kind, v): 0 for kind in ("dropped", "sample") for v in (True, False)}
    indexed = 0
    for i in range(900):
        lat = lattices[i % len(lattices)]
        d = rng.randrange(1, 4)
        rep = random_rep(rng, lat, d, max_coord=5, max_points=6)
        off = 2**60 if i % 3 == 0 else 0
        if off:
            rep = Rep(lat, d, [(tuple(c + off for c in v), e) for v, e in rep.points])
        comp = rep.complete()

        def graph(k):
            vecs = {tuple(c if c == INF else c + off for c in random_ext_vec(rng, d))
                    for _ in range(k)}
            return tuple((v, rep.eval_ext(v)) for v in vecs)

        extra = ExtRep(lat, d, comp.points + graph(rng.randrange(1, 4)))
        n = len(comp.points)
        drop = set(rng.sample(range(n), min(n, rng.randrange(1, 4))))
        dropped = ExtRep(lat, d, [p for k, p in enumerate(comp.points) if k not in drop])
        pool = comp.points + graph(rng.randrange(1, 13))
        sample = ExtRep(lat, d, [p for p in pool if rng.random() < 0.6])
        for kind, ext in (("extra", extra), ("dropped", dropped), ("sample", sample)):
            before = len(calls)
            verdict = check_complete(rep, ext)
            assert verdict == brute_check_complete(rep, ext), (kind, rep, ext)
            if kind == "extra":
                assert verdict and len(calls) == before
            else:
                verdicts[kind, verdict] += 1
                indexed += len(calls) > before
    assert min(verdicts.values()) >= 100 and indexed >= 1400, (verdicts, indexed)


def test_index_spans_blocks():
    # 700 points fill three blocks of the index; evaluation and witnesses
    # agree with the scans, near 0 and near 2^60.
    rng = random.Random(13)
    lat = lattice_catalog()[-1]
    for off in (0, 2**60):
        pts = [
            (tuple(off + rng.randrange(40) for _ in range(3)), rng.randrange(lat.m))
            for _ in range(700)
        ]
        rep = Rep(lat, 3, pts)
        assert len(rep.points) > 2 * 256
        for _ in range(200):
            x = tuple(INF if rng.random() < 0.2 else off + rng.randrange(45) for _ in range(3))
            assert rep.eval_ext(x) == brute_eval(rep, x)
            assert rep.witness(x) == brute_witness(rep, x)


# Peak RSS allowed to the 10^5-point run below, which peaks at about 85 MB
# with the blocked index; masks over all n points would take n^2 / 8 bytes
# per coordinate, 1.25 GB at this n.
INDEX_RSS_MB = 150


def test_index_memory_is_bounded():
    # 10^5 points with distinct coordinates near 2^60, in a subprocess with
    # an address-space limit so that an unbounded index fails fast.
    script = textwrap.dedent(f"""
        import random, resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from commrep import INF, Rep, chain
        from util import brute_eval
        rng = random.Random(12)
        n, base = 100_000, 2**60
        axes = [rng.sample(range(2**40), n) for _ in range(3)]
        rep = Rep(chain(4), 3, [((base + a, base + b, base + c), rng.randrange(4))
                                for a, b, c in zip(*axes)])
        def query():
            scale = 2 ** rng.randrange(33, 41)
            return tuple(INF if rng.random() < 0.1 else base + rng.randrange(scale)
                         for _ in range(3))
        queries = [query() for _ in range(100)]
        values = [rep.eval_ext(q) for q in queries]
        assert len(set(values)) == 4, values
        for q, v in list(zip(queries, values))[::20]:
            assert v == brute_eval(rep, q), q
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
        assert peak < {INDEX_RSS_MB}, f"peak RSS {{peak}} MB"
    """)
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(commrep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 30


# -- finite determination --------------------------------------------------------


def test_finitely_determinable_examples(div52, rep_g, rep_b):
    assert not rep_g.finitely_determinable()
    lat2 = chain(2, ["0", "1"])
    assert Rep(lat2, 1, [((3,), "0")]).finitely_determinable()
    assert not rep_b.finitely_determinable()


def test_nonunique_witness_construction(rep_b, chain3):
    # the axis where the value never reaches bottom admits a second function
    # through any finite sample of the graph
    c = 3  # beyond every prescribed coordinate on the third axis
    g2 = Rep(chain3, 3, rep_b.points + (((0, 0, c), chain3.bottom),))
    assert not equal_fn(g2, rep_b)
    assert rep_b.eval((0, 0, c)) == chain3.index("alpha")
    assert g2.eval((0, 0, c)) == chain3.bottom
    # both pass through the original prescribed points
    for vec, val in rep_b.points:
        assert g2.eval(vec) == val == rep_b.eval(vec)


# -- comparison, step functions, combinations ------------------------------------


def test_le_pointwise_examples(div52, rep_g):
    assert equal_fn(rep_g, rep_g.canonical())
    lower = Rep(div52, 2, rep_g.points + (((5, 5), "2"),))
    assert le_pointwise(lower, rep_g)
    assert not le_pointwise(rep_g, lower)
    empty = Rep(div52, 2)
    assert le_pointwise(rep_g, empty)


def test_le_pointwise_matches_box_comparison():
    rng = random.Random(3)
    for lat in small_lattices():
        for _ in range(8):
            d = rng.randrange(1, 3)
            r1 = random_rep(rng, lat, d, max_coord=3, max_points=4)
            r2 = random_rep(rng, lat, d, max_coord=3, max_points=4)
            b = max(coord_bound(r1), coord_bound(r2))
            expected = all(
                lat.leq(r1.eval(x), r2.eval(x)) for x in box(b, d)
            )
            assert le_pointwise(r1, r2) == expected


def test_step_examples(div52):
    s = step(div52, (0, 0), "52")
    assert s.eval((4, 4)) == div52.top
    s2 = step(div52, (3, 1), "13")
    assert s2.eval((3, 1)) == div52.index("13")
    assert s2.eval((2, 1)) == div52.top


def test_function_is_meet_of_steps(div52, rep_g):
    steps = [step(div52, v, e) for v, e in rep_g.points]
    for x in box(coord_bound(rep_g), 2):
        expected = div52.big_meet(s.eval(x) for s in steps)
        assert rep_g.eval(x) == expected


def test_join_fn_pointwise(div52, rep_g):
    other = Rep(div52, 2, [((5, 5), "13"), ((20, 0), "4")])
    joined = join_fn(rep_g, other)
    for x in box(coord_bound(rep_g), 2):
        assert joined.eval(x) == div52.join(rep_g.eval(x), other.eval(x))


# -- laws of the represented functions -------------------------------------------


def test_antitone_random():
    rng = random.Random(4)
    for lat in small_lattices():
        for _ in range(8):
            d = rng.randrange(1, 4)
            rep = random_rep(rng, lat, d)
            b = coord_bound(rep)
            for _ in range(20):
                x = tuple(rng.randrange(b) for _ in range(d))
                y = vadd(x, tuple(rng.randrange(2) for _ in range(d)))
                assert lat.leq(rep.eval(y), rep.eval(x))


def test_prescribed_points_are_upper_bounds(rep_g, div52):
    for vec, val in rep_g.points:
        assert div52.leq(rep_g.eval(vec), val)


def test_consistent_graphs_are_interpolated():
    # when prescribed values are antitone along the prescribed vectors the
    # function passes through every prescribed point exactly
    rng = random.Random(5)
    hits = 0
    for lat in small_lattices():
        for _ in range(20):
            d = rng.randrange(1, 3)
            rep = random_rep(rng, lat, d, max_coord=3, max_points=4)
            consistent = all(
                not vleq(v1, v2) or lat.leq(e2, e1)
                for v1, e1 in rep.points
                for v2, e2 in rep.points
            )
            if not consistent:
                continue
            hits += 1
            for vec, val in rep.points:
                assert rep.eval(vec) == val
    assert hits >= 30


def test_eval_ext_matches_definitional_meet(rep_g):
    rng = random.Random(6)
    for _ in range(60):
        x = random_ext_vec(rng, 2, max_coord=35)
        assert rep_g.eval_ext(x) == brute_eval_ext(rep_g, x)


def test_duplicate_vectors_merge_by_meet(div52):
    rep = Rep(div52, 2, [((1, 1), "26"), ((1, 1), "4")])
    assert rep.points == (((1, 1), div52.index("2")),)


def test_extrep_rejects_conflicts(div52):
    with pytest.raises(ValueError, match="conflicting"):
        ExtRep(div52, 2, [((1, INF), "26"), ((1, INF), "4")])
    dedup = ExtRep(div52, 2, [((1, INF), "26"), ((1, INF), "26")])
    assert len(dedup.points) == 1


def test_rep_never_equals_extrep(div52, rep_g):
    ext = ExtRep(div52, 2, rep_g.points)
    assert ext.points == rep_g.points
    assert rep_g != ext and ext != rep_g
    assert repr(rep_g) == "Rep(dim=2, points=[([10, 20], 26), ([30, 5], 4)])"
    assert repr(ExtRep(div52, 2, [((9, INF), "52")])) == (
        "ExtRep(dim=2, points=[([9, inf], 52)])"
    )


def test_shifted_representation(rep_g, div52):
    a = (7, 3)
    shifted = rep_g.shifted(a)
    for x in box(coord_bound(rep_g), 2):
        assert shifted.eval(x) == rep_g.eval(vadd(x, a))


@pytest.mark.parametrize("cls", [Rep, ExtRep])
def test_from_checked_orders_the_points_it_is_given(cls):
    # _from_checked takes checked pairs with distinct vectors, in any order
    # and any container, and stores them sorted as the public constructor
    # does: coordinates offset by 2^60, INF in an ExtRep.
    rng = random.Random(30)
    catalog = lattice_catalog()
    unsorted = 0
    for trial in range(300):
        lat = rng.choice(catalog)
        d = rng.randint(1, 4)
        n = rng.randint(0, 8)
        vecs = set()
        while len(vecs) < n:
            vecs.add(tuple(
                INF if cls is ExtRep and rng.random() < 0.25
                else rng.randrange(13) + (2**60 if rng.random() < 0.3 else 0)
                for _ in range(d)
            ))
        pairs = [(v, rng.randrange(lat.m)) for v in vecs]
        rng.shuffle(pairs)
        unsorted += pairs != sorted(pairs)
        shape = trial % 4
        given = (pairs, tuple(pairs), dict(pairs).items(), iter(pairs))[shape]
        built = cls._from_checked(lat, d, given)
        assert built.points == tuple(sorted(pairs))
        public = cls(lat, d, pairs)
        assert built == public and hash(built) == hash(public)
    assert unsorted > 150


def test_library_code_does_not_recheck_its_own_vectors(monkeypatch):
    # Vectors the library built or already checked are evaluated, combined
    # and stored as they are: only a caller's own vector, such as the shift
    # of Rep.shifted, goes through as_nat_vec, and no library fold takes
    # suprema or infima through the dimension-checking vsup and vinf.
    nat = count_calls(monkeypatch, antitone, "as_nat_vec")
    two = chain(2, ["0", "1"])
    target = Rep(two, 2, [(x, "0") for x in hyperplane(2, 12)])
    history = []
    assert learn(oracle_from_rep(target), history=history) == target
    assert history == [(x, 0) for x in hyperplane(2, 12)]
    assert nat == []
    rep_b = example("B")[1]
    want = brute_eval(rep_b, (0, 1, 2)), brute_eval_ext(rep_b, (0, 1, INF))
    # counted from here: the oracle of a rep answers through eval_ext
    ext = count_calls(monkeypatch, antitone, "as_ext_vec")
    nat.clear()
    got = eval_commutator(rep_b, ["1", "alpha", "1"]), eval_extended(rep_b, ["1"], ["alpha"])
    assert got == want and nat == ext == []

    inits = count_calls(monkeypatch, Rep, "__init__")
    rng = random.Random(31)
    collided = 0
    for _ in range(200):
        lat = rng.choice(small_lattices())
        d = rng.randint(1, 3)
        r1, r2 = random_rep(rng, lat, d), random_rep(rng, lat, d)
        built = len(inits)
        assert le_pointwise(r1, r2) == all(
            lat.leq(brute_eval(r1, x), brute_eval(r2, x)) for x in box(6, d)
        )
        equal_fn(r1, r2)
        assert nat == []
        a = tuple(rng.randrange(6) for _ in range(d))
        shifted = r1.shifted(a)
        assert nat == [(a, d)] and len(inits) == built
        nat.clear()
        residuals = [residual(v, a) for v, _ in r1.points]
        collided += len(set(residuals)) < len(residuals)
        assert shifted == Rep(lat, d, [(r, e) for r, (_, e) in zip(residuals, r1.points)])
    assert collided > 20

    # vsup and vinf counted both where vectors defines them and where a
    # module binds them, if it does
    sups = [count_calls(monkeypatch, m, "vsup") for m in (vectors, antitone) if hasattr(m, "vsup")]
    infs = [count_calls(monkeypatch, m, "vinf") for m in (vectors, hc) if hasattr(m, "vinf")]
    div = divisor_lattice(30)
    meets = Rep(div, div.m, [(unit(div.m, j), j) for j in range(div.m)])
    for rep in (example("B")[1], example("B7")[1], meets):
        assert rep._meet_profile() == brute_meet_profile(rep)
        assert _hc8_witness(rep) is None
    for _ in range(100):
        rep = random_rep(rng, rng.choice(small_lattices()), rng.randint(1, 3))
        assert rep._meet_profile() == brute_meet_profile(rep)
        x = random_ext_vec(rng, rep.dim)
        assert rep.witness(x) == brute_witness(rep, x)
    assert not any(sups) and not any(infs)
