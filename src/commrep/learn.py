"""Exact learning of an antitone function from evaluation queries.

The target is a black box answering evaluation queries on the extended
domain (INF coordinates allowed) and is assumed to behave like the
continuation of some antitone function with a finite representation.
Queries on the finite domain alone can never pin such a function down in
general, which is exactly why the oracle works on the extended domain.

The loop is exact learning with membership and equivalence queries
(Angluin 1988): it keeps a hypothesis representation G, and the point set
that :meth:`~commrep.antitone.Rep.complete` computes to pin G down plays
the equivalence query.  If the oracle agrees everywhere on it, G is the
target.  Otherwise, from a disagreeing point v with target value
t = F(v), a witness search lowers one coordinate after another to the
least value that keeps the answer at t: a binary search below a finite
coordinate, doubling then bisection for an INF one.  That costs
O(d log c) queries per round, for coordinates up to c.

F is antitone and G is built from true points of F, so F <= G throughout
and the witness w <= v has F(w) = t < G(v) <= G(w).  Each coordinate of w
is least, so w is a minimal vector of the t-sublevel of F, and every
added point is a point of the canonical representation of the target.
The loop therefore ends after at most that many rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .antitone import Rep
from .lattice import Lattice
from .vectors import INF, Vec, is_finite_vec

__all__ = ["Oracle", "RoundLimitError", "learn", "oracle_from_rep"]


class RoundLimitError(RuntimeError):
    """The learning loop exhausted its query budget.

    Signals an oracle inconsistent with any finitely represented antitone
    function, or a budget set too low for the target at hand.
    """


@dataclass(frozen=True)
class Oracle:
    """An evaluation black box: dimension, value lattice and query function.

    ``query`` maps an extended vector to a lattice element index and must
    be consistent with the continuation of an antitone function for the
    learning loop to be guaranteed to terminate.
    """

    dim: int
    lattice: Lattice
    query: Callable[[Vec], int]


def oracle_from_rep(rep: Rep) -> Oracle:
    """Wrap a representation as an oracle answering with its continuation."""
    return Oracle(rep.dim, rep.lattice, rep.eval_ext)


def _witness(ask: Callable[[Vec], int], v: Vec) -> Vec:
    """A coordinate-wise least finite w <= v with ask(w) == ask(v).

    Lowering coordinate i keeps the answer equal to ask(v) from some
    least value on, because the target is antitone: bisect for it below a
    finite coordinate, and double up to a bound first for an INF one.
    """
    t = ask(v)
    w = list(v)

    def holds(i: int, k: int) -> bool:
        w[i] = k
        return ask(tuple(w)) == t

    for i, c in enumerate(v):
        lo, hi = 0, c
        if c == INF:
            hi = 1
            while not holds(i, hi):
                lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(i, mid):
                hi = mid
            else:
                lo = mid + 1
        w[i] = hi
    return tuple(w)


def learn(
    oracle: Oracle,
    *,
    history: list | None = None,
    max_queries: int = 10_000,
) -> Rep:
    """Recover a representation of the oracle's function.

    Each round queries the oracle on a point set that pins the current
    hypothesis down uniquely.  From a disagreeing point, a finite one
    preferred, a witness search finds a minimal vector with the same
    target value, in O(d log c) queries for coordinates up to c; that
    vector and its value are a canonical point of the target, and the
    round adds it.  So at most as many rounds run as the target's
    canonical representation has points.  ``history``, when given,
    receives the (vector, value) pair added in each round.

    Raises :class:`RoundLimitError` when the oracle is asked more than
    ``max_queries`` distinct vectors, or when an answer shows the oracle
    is not antitone.  The query budget also bounds the rounds: each round
    queries its witness, and a witness asked again cannot drop below the
    hypothesis that already holds its answer.
    """
    if max_queries < 1:
        raise ValueError("max_queries must be at least 1")
    lat, dim = oracle.lattice, oracle.dim
    answers: dict[Vec, int] = {}

    def ask(v: Vec) -> int:
        if v not in answers:
            if len(answers) >= max_queries:
                raise RoundLimitError(
                    f"no consistent function found within {max_queries} queries"
                )
            answers[v] = lat.resolve(oracle.query(v))
        return answers[v]

    current = Rep(lat, dim, ())
    while True:
        pinned = current.complete()
        mismatches = [v for v, val in pinned.points if ask(v) != val]
        if not mismatches:
            return current
        v = next((v for v in mismatches if is_finite_vec(v)), mismatches[0])
        w = _witness(ask, v)
        got, have = ask(w), current._value_at(w)
        if got == have or not lat.leq(got, have):
            raise RoundLimitError(
                f"oracle answer at {w} does not drop below the hypothesis; "
                "it is not antitone"
            )
        if history is not None:
            history.append((w, got))
        # w is a tuple of dim ints from _witness, so it is evaluated and
        # added as it is, and got went through lat.resolve; w is no point of
        # the hypothesis G yet, since then have = G(w) <= F(w) = got and the
        # check above would have raised.
        current = Rep._from_checked(lat, dim, current.points + ((w, got),))
