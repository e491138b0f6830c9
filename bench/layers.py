"""Per-layer timings of commrep's antichain primitives, of
``Rep.canonical``, ``Rep.complete`` and ``check_complete``, of the hc7 and
hc8 deciders, of ``reduced_equalities``, of ``learn`` and of the JSON
documents (``commrep.io``), with scaling slopes.

Times ``min_elements``, ``max_elements``, ``UpSet.complement_maxima``,
``Rep.canonical``, ``Rep.complete`` and ``check_complete`` on two families
at four sizes each:

- hyperplanes ``{x in N^d : sum x = s}`` for d = 3 to 8, antichains whose
  complement maxima are the hyperplane at s - 1;
- matchings ``{e_2i + e_2i+1 : i < k}`` in d = 2k for k = 8 to 11, whose
  2^k complement maxima put 0 on one coordinate of each pair and INF on
  the other; ``min_elements`` and ``max_elements`` run on those maxima.

``complement_maxima`` also runs on antichains of n = 1,000 to 8,000
generators in d = 3 with distinct coordinates near 2^62 (x rising, y
falling, z drawn at random), whose maxima number 2n + 1, which is what
is checked.  ``distinct x first`` sorts them by x, so that coordinate 0
rises with the points, ``distinct x last`` by z, with x moved last.

``Rep.canonical`` runs on a fresh ``Rep`` over ``chain(2)`` that values each
point of the antichain 0.  Its output is the antichain at 0 and the zero
vector, the one generator of the top level, at 1.

``Rep.complete`` runs on such a fresh rep.  Its output is the antichain
at 0, the complement maxima at 1 and the zero vector at 1.  The rep has
no point at the zero vector, so F(0) is top, 1; the generators take
their levels' values and every complement maximum, lying outside the
0-sublevel, takes F(0), so nothing is evaluated.

``check_complete`` runs on one such rep and ``complete()``'s own output,
which it accepts.  The call of ``complete()`` builds the rep's level
table (its sublevels, their complement maxima and the values the levels
prove), which the rep keeps and the check reads, so the samples time the
check itself.  Its points in are the output's points.

hc7 (join distributivity, ``commrep.hc``) runs on the meet sequence
``e_j -> j`` of two families of distributive lattices, where it holds, so
its witness is None:

- chains of m = 8 to 64 elements, where every pair of arguments is
  comparable and, hc2 holding, skipped;
- divisor lattices of n = 6, 30, 60 and 210 (m = 4 to 16 elements), where
  the incomparable pairs are scanned on the sublevels' unit shifts.

The first, checking call builds the rep's sublevels and decides its hc2,
which the rep keeps, so the samples time hc7's own pair scan and shifts.
Its points in are the lattice's m elements.

hc8 (nesting) and ``reduced_equalities`` run on the same meet sequences.
hc8 holds, so its witness is None; on a chain every candidate below a
canonical point e_j is 0 or e_j, which antitony settles without nesting.
The reduction returns no equality.  On a chain every canonical equality is
trivial; on a divisor lattice the meets of several elements are kept, and
the closure through the unit points alone, already the meet, drops them
all.  hc8's first call also builds the canonical representation and the
level table, which holds the sublevels and the maxima outside them; the
reduction's builds the canonical representation and the hc1 and hc2
answers.  The rep keeps them all.

``learn`` recovers the hyperplane target ``{x : sum x = s} -> 0`` over
``chain(2)`` through ``oracle_from_rep``, for d = 2 with s = 20 to 160
and d = 3 with s = 6 to 20.  Each round adds one canonical point of the
target, so it takes one round per point and one more that finds no
mismatch; the learned points must be the target's.  Its points in are
those rounds, so the slope is in rounds.  The first, checking call fills
the target's memo of values, so the samples time ``learn``'s own rounds
with the oracle answering from that memo.

The io layer times three document paths:

- ``rep_from_doc`` followed by ``rep_to_doc`` on the rep valuing each
  hyperplane or matching generator 0, read from its document with the
  points shuffled and the lattice supplied, so that no lattice is built;
  the output's points must be the rep's, sorted;
- ``extrep_to_doc`` of that rep's ``complete()``, whose matching maxima
  hold INF;
- ``equalities_to_doc`` of ``to_equalities`` and ``to_extended_equalities``
  of ``Bk`` (``B`` plus ``(0,0,k) -> 0``) for k = 10 to 10^4, whose
  equality at ``(0,0,k)`` spells out k arguments.  Its points in are the
  arguments spelled out.

Each of them is also read back, and must give the object it was written
from.

Every output is checked against its closed form.  Each case reports the
best time per call over three samples and every sample's time per call,
and each family the least-squares slope of log time against log points
handled (input plus output), so a change in how a layer scales shows
even while its smallest size stays fast.  Only the standard library is
used; commrep is imported from ``src/`` of this checkout.

    python3 bench/layers.py --out BENCH.json             # every size
    python3 bench/layers.py --out smoke.json --sizes 2   # two smallest sizes
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commrep import (  # noqa: E402
    INF, Rep, UpSet, chain, check_complete, divisor_lattice, example, learn, oracle_from_rep,
    reduced_equalities, to_equalities, to_extended_equalities, unit,
)
from commrep.hc import _hc7_witness, _hc8_witness  # noqa: E402
from commrep.io import (  # noqa: E402
    equalities_from_doc, equalities_to_doc, extrep_from_doc, extrep_to_doc, rep_from_doc,
    rep_to_doc,
)
from commrep.upset import max_elements, min_elements  # noqa: E402

# The hyperplane sums per dimension, chosen so that each family spans
# tens to about a thousand points.
HYPERPLANE_SUMS = {
    3: (10, 20, 30, 40),
    4: (5, 8, 11, 14),
    5: (4, 6, 8, 10),
    6: (3, 5, 7, 8),
    7: (2, 4, 5, 6),
    8: (2, 3, 4, 6),
}
MATCHING_PAIRS = (8, 9, 10, 11)
CHAIN_SIZES = (8, 16, 32, 64)
DIVISOR_LATTICES = (6, 30, 60, 210)
DISTINCT_SIZES = (1000, 2000, 4000, 8000)
LEARN_SUMS = {2: (20, 40, 80, 160), 3: (6, 10, 14, 20)}
BK_COLLAPSES = (10, 100, 1000, 10_000)
CHAIN_2 = chain(2)

# A sample repeats the call until it has run this long, in seconds.
SAMPLE_S = 0.05


def hyperplane(d: int, s: int) -> list:
    """The antichain {x in N^d : sum x = s}, sorted."""
    if d == 1:
        return [(s,)]
    return [(c,) + x for c in range(s + 1) for x in hyperplane(d - 1, s - c)]


def matching(k: int) -> UpSet:
    gens = sorted(tuple(int(j // 2 == i) for j in range(2 * k)) for i in range(k))
    return UpSet._from_antichain(2 * k, tuple(gens))


def matching_maxima(k: int) -> set:
    return {sum(c, ()) for c in product([(0, INF), (INF, 0)], repeat=k)}


class Size(int):
    """An expected output known only by its number of points."""


def distinct(n: int, x_first: bool) -> UpSet:
    """n generators (x, y, z) near 2^62, x rising and y falling, z drawn
    from a seeded generator; (z, y, x) unless x_first."""
    rng = random.Random(14)
    base = 2**62
    xs = sorted(rng.sample(range(2**40), n))
    ys = sorted(rng.sample(range(2**40), n), reverse=True)
    zs = rng.sample(range(2**40), n)
    pts = [(base + x, base + y, base + z) for x, y, z in zip(xs, ys, zs)]
    return UpSet._from_antichain(3, tuple(sorted(p if x_first else p[::-1] for p in pts)))


def canonical_case(d: int, gens):
    """A call of ``canonical()`` on a fresh rep valuing gens 0, and its points."""
    points = tuple((g, 0) for g in gens)

    def call():
        return Rep._from_checked(CHAIN_2, d, points).canonical().points

    return call, tuple(sorted(points + (((0,) * d, 1),)))


def complete_case(d: int, gens, maxima):
    """A call of ``complete()`` on a fresh rep valuing gens 0, and its points."""
    points = tuple((g, 0) for g in gens)
    expected = {(g, 0) for g in gens} | {(m, 1) for m in maxima} | {((0,) * d, 1)}

    def call():
        return Rep._from_checked(CHAIN_2, d, points).complete().points

    return call, tuple(sorted(expected))


def check_complete_case(d: int, gens):
    """``check_complete`` on a rep valuing gens 0 and its complete() output."""
    rep = Rep._from_checked(CHAIN_2, d, tuple((g, 0) for g in gens))
    ext = rep.complete()
    return lambda: check_complete(rep, ext), len(ext.points)


def meet_case(decide, lattice):
    """decide on the meet sequence e_j -> j of a distributive lattice."""
    m = lattice.m
    rep = Rep._from_checked(lattice, m, ((unit(m, j), j) for j in range(m)))
    return lambda: decide(rep)


def learn_case(d: int, s: int):
    """``learn`` on the target valuing hyperplane(d, s) 0, and its rounds."""
    target = Rep._from_checked(CHAIN_2, d, tuple((x, 0) for x in hyperplane(d, s)))
    oracle = oracle_from_rep(target)
    history = []
    learn(oracle, history=history)
    if len(history) != len(target.points):
        raise AssertionError(f"learn on hyperplane({d}, {s}): {len(history) + 1} rounds")
    return lambda: learn(oracle).points == target.points, len(history) + 1


def _json(doc: dict) -> dict:
    """doc as a JSON reader gets it."""
    return json.loads(json.dumps(doc))


def io_cases(d: int, gens):
    """``rep_from_doc`` then ``rep_to_doc`` on a rep valuing gens 0, and
    ``extrep_to_doc`` of its ``complete()``: (call, expected output) each."""
    rep = Rep._from_checked(CHAIN_2, d, tuple((g, 0) for g in gens))
    doc = _json(rep_to_doc(rep))
    del doc["lattice"]
    random.Random(29).shuffle(doc["points"])
    if rep_from_doc(doc, CHAIN_2) != rep:
        raise AssertionError(f"rep document of {len(gens)} points does not read back")
    ext = rep.complete()
    if extrep_from_doc(_json(extrep_to_doc(ext))) != ext:
        raise AssertionError(f"complete() of {len(gens)} points does not read back")
    expected = [{"vec": list(g), "value": "0"} for g in sorted(gens)]
    return (
        (lambda: rep_to_doc(rep_from_doc(doc, CHAIN_2))["points"], expected),
        (lambda: extrep_to_doc(ext)["points"], Size(len(ext.points))),
    )


def equalities_case(k: int):
    """``equalities_to_doc`` of the canonical and extended equalities of Bk,
    the arguments it spells out, and the number of equalities."""
    lat, b = example("B")
    rep = Rep(lat, 3, b.points + (((0, 0, k), 0),))
    eqs = to_equalities(rep) + to_extended_equalities(rep)
    if set(equalities_from_doc(_json(equalities_to_doc(lat, eqs)))[1]) != set(eqs):
        raise AssertionError(f"the equalities of B{k} do not read back")
    spelled = sum(c for e in eqs for c in e.vec if c != INF)
    return lambda: equalities_to_doc(lat, eqs)["equalities"], spelled, Size(len(eqs))


def cases(sizes: int):
    """(layer, family, size label, call, points in, expected output)."""
    for d, sums in HYPERPLANE_SUMS.items():
        family = f"hyperplane d={d}"
        for s in sums[:sizes]:
            pts = hyperplane(d, s)
            up = UpSet._from_antichain(d, tuple(pts))
            below = set(hyperplane(d, s - 1))
            yield "min_elements", family, f"s={s}", lambda p=pts: min_elements(p), len(pts), set(pts)
            yield "max_elements", family, f"s={s}", lambda p=pts: max_elements(p), len(pts), set(pts)
            yield "complement_maxima", family, f"s={s}", up.complement_maxima, len(pts), below
            call, points = canonical_case(d, pts)
            yield "canonical", family, f"s={s}", call, len(pts), points
            call, points = complete_case(d, pts, below)
            yield "complete", family, f"s={s}", call, len(pts), points
            call, n = check_complete_case(d, pts)
            yield "check_complete", family, f"s={s}", call, n, True
            (call, points), (dump, n_out) = io_cases(d, pts)
            yield "rep_from_doc+rep_to_doc", family, f"s={s}", call, len(pts), points
            yield "extrep_to_doc", family, f"s={s}", dump, n_out, n_out
    for k in MATCHING_PAIRS[:sizes]:
        family = "matching"
        maxima = matching_maxima(k)
        pts = sorted(maxima)
        yield "complement_maxima", family, f"k={k}", matching(k).complement_maxima, k, maxima
        yield "min_elements", family, f"k={k}", lambda p=pts: min_elements(p), len(pts), maxima
        yield "max_elements", family, f"k={k}", lambda p=pts: max_elements(p), len(pts), maxima
        call, points = canonical_case(2 * k, matching(k).gens)
        yield "canonical", family, f"k={k}", call, k, points
        call, points = complete_case(2 * k, matching(k).gens, maxima)
        yield "complete", family, f"k={k}", call, k, points
        call, n = check_complete_case(2 * k, matching(k).gens)
        yield "check_complete", family, f"k={k}", call, n, True
        (call, points), (dump, n_out) = io_cases(2 * k, matching(k).gens)
        yield "rep_from_doc+rep_to_doc", family, f"k={k}", call, k, points
        yield "extrep_to_doc", family, f"k={k}", dump, n_out, n_out
    for family, x_first in (("distinct x first", True), ("distinct x last", False)):
        for n in DISTINCT_SIZES[:sizes]:
            up = distinct(n, x_first)
            yield "complement_maxima", family, f"n={n}", up.complement_maxima, n, Size(2 * n + 1)
    meets = (
        ("hc7", _hc7_witness, None),
        ("hc8", _hc8_witness, None),
        ("reduced_equalities", reduced_equalities, ()),
    )
    for layer, decide, expected in meets:
        for m in CHAIN_SIZES[:sizes]:
            yield layer, "chain", f"m={m}", meet_case(decide, chain(m)), m, expected
        for n in DIVISOR_LATTICES[:sizes]:
            lattice = divisor_lattice(n)
            yield layer, "divisors", f"n={n}", meet_case(decide, lattice), lattice.m, expected
    for k in BK_COLLAPSES[:sizes]:
        call, spelled, n_out = equalities_case(k)
        yield "equalities_to_doc", "Bk", f"k={k}", call, spelled, n_out
    for d, sums in LEARN_SUMS.items():
        for s in sums[:sizes]:
            call, rounds = learn_case(d, s)
            yield "learn", f"hyperplane d={d}", f"s={s}", call, rounds, True


def best_time(call) -> tuple[float, int, list[float]]:
    """The best seconds per call over three samples, the calls made, and
    each sample's seconds per call, which show the spread."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        first = time.perf_counter() - start
        if first >= SAMPLE_S or number >= 1 << 20:
            break
        number *= 2 if first > SAMPLE_S / 4 else 10
    samples = [first]
    for _ in range(2):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append(time.perf_counter() - start)
    per_call = [t / number for t in samples]
    return min(per_call), 3 * number, per_call


def slope(points: list[tuple[int, float]]) -> float | None:
    """Least-squares slope of log seconds against log points handled."""
    if len(points) < 2:
        return None
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def run(sizes: int) -> dict:
    rows = []
    for layer, family, size, call, n_in, expected in cases(sizes):
        out = call()
        if (len(out) if isinstance(expected, Size) else out) != expected:
            raise AssertionError(f"{layer} on {family} {size}: wrong output")
        n_out = 0 if out is None or out is True else len(out)
        seconds, calls, samples = best_time(call)
        rows.append({
            "layer": layer,
            "family": family,
            "size": size,
            "points_in": n_in,
            "points_out": n_out,
            "seconds": seconds,
            "samples": samples,
            "calls": calls,
        })
        print(f"{layer:18} {family:16} {size:5} {n_in:6} -> {n_out:6}  "
              f"{seconds * 1e3:10.3f} ms", file=sys.stderr)
    groups: dict[tuple[str, str], list] = {}
    for r in rows:
        groups.setdefault((r["layer"], r["family"]), []).append(
            (r["points_in"] + r["points_out"], r["seconds"]))
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cases": rows,
        "slopes": [
            {"layer": layer, "family": family, "slope": slope(pts)}
            for (layer, family), pts in groups.items()
        ],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--sizes", type=int, default=4, choices=range(1, 5),
                        help="how many of each family's sizes to run, smallest first")
    args = parser.parse_args(argv)
    record = run(args.sizes)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
