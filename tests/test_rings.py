"""Ground truth from commutative rings with 1.

In a commutative ring with 1 the higher commutator of ideals is their
product (Aichinger & Mudrinski, "Some applications of higher commutators in
Mal'cev algebras", Algebra Universalis 2010).  So the commutator sequence
of a ring's ideal lattice is known in closed form, and ``learn`` recovers
it from these oracles alone:

- Z_n on ``divisor_lattice(n)``: element e is the ideal (n/e), and a product
  of principal ideals is generated by the product of the generators;
- F_2[x]/(x^5) on ``chain(6)``: element e is the ideal (x^(5 - e)), and
  (x^a)(x^b) = (x^min(a + b, 5)).
"""

import math
import random

import pytest

from commrep import (
    INF,
    Oracle,
    admissibility_report,
    chain,
    check_complete,
    divisor_lattice,
    largest_from_equalities,
    learn,
    reduced_equalities,
    to_equalities,
)
from commrep.commutator import _monotone_closed_rep


def integers_mod(n: int) -> Oracle:
    """Z_n: the ideal of count vector c is the product of (n/e_j)^(c_j),
    and an INF count takes an exponent past every prime power of n."""
    lat = divisor_lattice(n)
    divisors = [int(lat.name(e)) for e in range(lat.m)]
    big = n.bit_length() + 1

    def query(c) -> int:
        gen = math.prod((n // d) ** (big if k == INF else k) for d, k in zip(divisors, c))
        return lat.index(str(n // math.gcd(gen, n)))

    return Oracle(lat.m, lat, query)


def truncated_f2(k: int = 5) -> Oracle:
    """F_2[x]/(x^k): the ideal of count vector c is (x^s) for s the sum of
    c_e (k - e), at most k."""
    lat = chain(k + 1)

    def query(c) -> int:
        s = sum(n * (k - e) for e, n in enumerate(c) if n and e < k)
        return k - min(s, k)

    return Oracle(k + 1, lat, query)


# the rings by test id, Z_n by n, F_2[x]/(x^5) by None
RINGS = {"Z12": 12, "Z30": 30, "Z36": 36, "Z60": 60, "F2x_x5": None}


@pytest.fixture(scope="module", params=list(RINGS))
def ring(request):
    n = RINGS[request.param]
    oracle = truncated_f2() if n is None else integers_mod(n)
    return oracle, learn(oracle)


def sample(dim: int, seed: int) -> list:
    """200 seeded vectors of a box, mostly 0 and with INF coordinates, so
    that their products are not all the zero ideal."""
    rng = random.Random(seed)
    counts = (0,) * 8 + (1, 2, 3, INF)
    return [tuple(rng.choice(counts) for _ in range(dim)) for _ in range(200)]


def test_learned_rep_agrees_with_the_ideal_product(ring):
    oracle, rep = ring
    values = set()
    for x in sample(rep.dim, 1):
        assert rep.eval_ext(x) == oracle.query(x), x
        values.add(oracle.query(x))
    assert len(values) >= 4, values


def test_ring_sequences_are_admissible(ring):
    # the lattices other than the chain have incomparable pairs, which hc7
    # scans with hc2 holding
    _, rep = ring
    report = admissibility_report(rep)
    assert report["admissible"], report


def test_complete_set_is_accepted(ring):
    _, rep = ring
    assert check_complete(rep, rep.complete())


def test_canonical_equalities_give_back_the_sequence(ring):
    # learn keeps only some of the canonical points, so the largest model
    # is compared with the canonical representation, not the learned one
    _, rep = ring
    largest, report = largest_from_equalities(rep.lattice, to_equalities(rep))
    assert largest.points == rep.canonical().points
    assert all(attained for _, attained in report)


def test_reduced_equalities_still_determine_the_sequence(ring):
    _, rep = ring
    kept = reduced_equalities(rep)
    closed = _monotone_closed_rep(rep.lattice, [(e.vec, e.rhs) for e in kept])
    for x in sample(rep.dim, 2):
        assert closed(x) == rep.eval_ext(x), x
