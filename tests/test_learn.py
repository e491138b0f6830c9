import random
import time

import pytest

from commrep import (
    INF,
    Oracle,
    Rep,
    RoundLimitError,
    antitone,
    chain,
    equal_fn,
    learn,
    oracle_from_rep,
)
from util import bool4, count_calls, hyperplane, random_rep, small_lattices


def test_oracle_from_rep_examples(div52, rep_g):
    oracle = oracle_from_rep(rep_g)
    assert oracle.query((29, INF)) == div52.index("26")
    assert oracle.query((7, 7)) == rep_g.eval((7, 7))
    assert oracle.query((INF, INF)) == div52.big_meet(
        val for _, val in rep_g.points
    )


def test_learn_div52(rep_g):
    learned = learn(oracle_from_rep(rep_g))
    assert equal_fn(learned, rep_g)


def test_learn_constant_top(chain3):
    learned = learn(oracle_from_rep(Rep(chain3, 3)))
    assert learned.points == ()


def test_learn_b_matches_known_points(rep_b, known_h):
    learned = learn(oracle_from_rep(rep_b))
    assert equal_fn(learned, rep_b)
    for vec, val in known_h.points:
        assert learned.eval_ext(vec) == val


def test_learn_progress_is_strictly_decreasing(rep_g, div52):
    history = []
    learn(oracle_from_rep(rep_g), history=history)
    assert history
    seen = []
    for vec, val in history:
        before = Rep(div52, 2, seen)
        assert before.eval(vec) != val
        assert div52.leq(val, before.eval(vec))
        seen.append((vec, val))


def test_learned_points_lie_on_target(rep_g, div52):
    history = []
    learned = learn(oracle_from_rep(rep_g), history=history)
    for vec, val in learned.points:
        assert rep_g.eval(vec) == val  # soundness: G stays inside the graph


def test_learn_accepts_name_answers(chain3, rep_b):
    by_name = Oracle(3, chain3, lambda v: chain3.name(rep_b.eval_ext(v)))
    assert equal_fn(learn(by_name), rep_b)


def test_enumeration_finds_counterexamples_at_infinity():
    # the hypothesis agrees with this target on every finite pinning point,
    # so the disagreement shows only at an extended point and the finite
    # counterexample has to come from the witness search along INF
    two = chain(2, ["0", "1"])
    target = Rep(two, 1, [((3,), "0")])
    history = []
    learned = learn(oracle_from_rep(target), history=history)
    assert equal_fn(learned, target)
    assert history == [((3,), 0)]


def test_learn_random_round_trips():
    rng = random.Random(20)
    for _ in range(100):
        lat = rng.choice(small_lattices())
        d = rng.randrange(1, 5)
        target = random_rep(rng, lat, d, max_coord=40, max_points=6)
        history = []
        learned = learn(oracle_from_rep(target), history=history)
        assert equal_fn(learned, target)
        # every witness is a canonical point of the target, and a new one
        # in each round
        canonical = set(target.canonical().points)
        assert set(learned.points) <= canonical
        assert len(history) <= len(canonical)


@pytest.mark.parametrize("point, budget", [((12,) * 4, 64), ((10**30,) * 3, 700)])
def test_learn_far_points(point, budget):
    # O(d log c) queries; enumerating the vectors below (12,)*4 took 261,982
    two = chain(2, ["0", "1"])
    target = Rep(two, len(point), [(point, "0")])
    calls = []
    oracle = Oracle(len(point), two, lambda v: (calls.append(v), target.eval_ext(v))[1])
    assert learn(oracle) == target
    assert len(calls) <= budget


def test_learn_hyperplane_target():
    # one round per canonical point, each completing a wider hypothesis
    two = chain(2, ["0", "1"])
    target = Rep(two, 3, [(x, "0") for x in hyperplane(3, 10)])
    start = time.perf_counter()
    learned = learn(oracle_from_rep(target))
    assert time.perf_counter() - start < 2.5
    assert learned == target and len(learned.points) == 66


def test_learn_builds_no_canonical_rep(monkeypatch):
    # each round completes a fresh hypothesis, whose level table makes one
    # pass over its levels; no round builds a canonical representation
    two = chain(2, ["0", "1"])
    target = Rep(two, 2, [(x, "0") for x in hyperplane(2, 12)])
    oracle = oracle_from_rep(target)
    passes = count_calls(monkeypatch, antitone, "_level_values")
    canonical = count_calls(monkeypatch, Rep, "canonical")
    history = []
    assert learn(oracle, history=history) == target
    assert len(history) == 13
    assert len(passes) == len(history) + 1
    assert canonical == []


def test_inconsistent_oracle_exhausts_the_query_budget():
    # bottom exactly at the non-finite vectors: no antitone function with a
    # finite representation answers like this, so no finite witness exists
    two = chain(2, ["0", "1"])
    oracle = Oracle(2, two, lambda v: two.bottom if INF in v else two.top)
    start = time.perf_counter()
    with pytest.raises(RoundLimitError, match="queries"):
        learn(oracle)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(RoundLimitError, match="5 queries"):
        learn(oracle_from_rep(Rep(two, 1, [((3,), "0")])), max_queries=5)
    with pytest.raises(ValueError):
        learn(oracle, max_queries=0)


def test_answer_above_the_hypothesis_is_rejected():
    # a on the x axis, b on the y axis, bottom beyond both, but top again at
    # (1, 1): once (1, 0) -> a and (0, 1) -> b are learned, the hypothesis
    # is a meet b = bottom at (1, 1), and the answer there does not drop below
    lat = bool4()
    a, b = (e for e in range(lat.m) if e not in (lat.top, lat.bottom))

    def query(v):
        if v in ((0, 0), (1, 1)):
            return lat.top
        return a if v[1] == 0 else b if v[0] == 0 else lat.bottom

    history = []
    with pytest.raises(RoundLimitError, match="antitone"):
        learn(Oracle(2, lat, query), history=history)
    assert ((1, 0), a) in history and ((0, 1), b) in history


def test_learn_counts_queries(rep_g):
    calls = []
    oracle = Oracle(2, rep_g.lattice, lambda v: (calls.append(v), rep_g.eval_ext(v))[1])
    learned = learn(oracle)
    assert equal_fn(learned, rep_g)
    assert len(calls) == len(set(calls))  # repeated questions are cached


def test_learn_builds_its_hypotheses_without_the_constructor(monkeypatch, rep_b7):
    # only the empty starting hypothesis goes through Rep.__init__; each
    # round adds its checked witness to points that are already checked
    history = []
    calls = count_calls(monkeypatch, Rep, "__init__")
    learned = learn(oracle_from_rep(rep_b7), history=history)
    assert len(calls) == 1 and len(history) >= 5
    monkeypatch.undo()
    assert learned == Rep(learned.lattice, learned.dim, learned.points)
    assert equal_fn(learned, rep_b7)
