"""The benchmark's workloads: fixed job lists generated from a seed.

Every job is a JSON document, as a command line user would hand it to
commrep.  Most jobs of each list come from families whose cost does not
depend on the seed (hyperplane antichains, the ``Bk`` sequences,
far-point learning targets); the seed shuffles their points and the job
order and draws the smaller random jobs.  The random jobs are kept few and
cheap, and the families reach well past them, so the median and the 90th
percentile of job time fall on seed-independent jobs that cost more than
any random one; the quantiles then do not move with the seed.  With 35 or
25 jobs the median and the 90th percentile ranks (17.5 and 31.5, or 12.5
and 22.5) sit in the middle of one job's block of repetitions.
"""

from __future__ import annotations

import itertools
import json
import random

import lattices

WORKLOADS = ("complete", "sequences", "learn")

# Coordinates at or above 2**53 are not exact in float64.  commrep's
# complement maxima kernel casts to float64, so these jobs get a wrong
# complete() and are counted as failed until the kernel is exact.
BIG = 2**53 + 1
KNOWN_FAULT_DOCS = (
    (2, lattices.chain(2), [((BIG, 0), "0"), ((0, 5), "0")]),
    (3, lattices.chain(3), [((2**60, 0, 1), "0"), ((0, 3, 0), "1")]),
)

HYPERPLANES = (
    [(2, s) for s in range(12, 41, 2)]
    + [(3, s) for s in range(4, 10)]
    + [(4, s) for s in range(3, 7)]
)
B_POINTS = [
    ((0, 0, 0), "1"),
    ((0, 1, 0), "alpha"),
    ((0, 0, 2), "alpha"),
    ((1, 0, 0), "0"),
    ((0, 1, 1), "0"),
    ((0, 2, 0), "0"),
]
B_KS = (None,) + tuple(range(3, 24))  # None is B itself, without a collapse point
FAR_POINTS = (
    [(c, 2) for c in (24, 28, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52, 56)]
    + [(c, 3) for c in range(5, 12)]
    + [(c, 4) for c in range(2, 5)]
    + [(2, 5)]
)
# 35 or 25 jobs: both put the median and 90th percentile ranks mid-block.
# sequences has the costliest jobs, so its shorter list gets more rounds.
JOBS_PER_LIST = {"complete": 35, "sequences": 25, "learn": 35}


def rep_doc(lat, dim, points, rng):
    pts = [{"vec": list(v), "value": e} for v, e in points]
    rng.shuffle(pts)
    return json.dumps({"dimension": dim, "lattice": lat.to_doc(), "points": pts})


def random_points(rng, lat, dim, max_coord, max_points):
    n = rng.randrange(max_points + 1)
    return [
        (tuple(rng.randrange(max_coord + 1) for _ in range(dim)), lat.names[rng.randrange(lat.m)])
        for _ in range(n)
    ]


def hyperplane(d, s):
    return [x for x in itertools.product(range(s + 1), repeat=d) if sum(x) == s]


def _job(name, family, text, **facts):
    return {"name": name, "family": family, "text": text, "known_fault": False, **facts}


def complete_jobs(rng):
    c2 = lattices.chain(2)
    jobs = [
        _job(f"hyperplane-d{d}-s{s}", f"hyperplane-d{d}",
             rep_doc(c2, d, [(x, "0") for x in hyperplane(d, s)], rng), hyperplane=(d, s))
        for d, s in HYPERPLANES
    ]
    for i, (dim, lat, pts) in enumerate(KNOWN_FAULT_DOCS):
        job = _job(f"big-coordinate-{i}", "big-coordinate", rep_doc(lat, dim, pts, rng))
        job["known_fault"] = True
        jobs.append(job)
    cat = lattices.catalog()
    while len(jobs) < JOBS_PER_LIST["complete"]:
        lat = rng.choice(cat)
        dim = rng.randrange(1, 4)
        pts = random_points(rng, lat, dim, max_coord=5, max_points=6)
        jobs.append(_job(f"random-{len(jobs)}", "random", rep_doc(lat, dim, pts, rng)))
    return jobs


def sequences_jobs(rng):
    c3 = lattices.Lat(["0", "alpha", "1"], [[a <= b for b in range(3)] for a in range(3)])
    jobs = []
    for k in B_KS:
        pts = B_POINTS + ([((0, 0, k), "0")] if k is not None else [])
        name = "B" if k is None else f"B{k}"
        jobs.append(_job(name, "B" if k is None else "Bk", rep_doc(c3, 3, pts, rng), collapse=k))
    small = [lat for lat in lattices.catalog() if lat.m <= 5]
    while len(jobs) < JOBS_PER_LIST["sequences"]:
        lat = rng.choice(small)
        pts = random_points(rng, lat, lat.m, max_coord=1, max_points=5)
        jobs.append(_job(f"random-{len(jobs)}", "random", rep_doc(lat, lat.m, pts, rng)))
    return jobs


def learn_jobs(rng):
    c2 = lattices.chain(2)
    jobs = [
        _job(f"far-c{c}-d{d}", f"far-d{d}", rep_doc(c2, d, [((c,) * d, "0")], rng))
        for c, d in FAR_POINTS
    ]
    cat = [lat for lat in lattices.catalog() if lat.m <= 6]
    while len(jobs) < JOBS_PER_LIST["learn"]:
        lat = rng.choice(cat)
        dim = rng.randrange(1, 4)
        pts = random_points(rng, lat, dim, max_coord=5, max_points=6)
        jobs.append(_job(f"random-{len(jobs)}", "random", rep_doc(lat, dim, pts, rng)))
    return jobs


def make_jobs(workload, seed):
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"complete": complete_jobs, "sequences": sequences_jobs, "learn": learn_jobs}[workload](rng)
    if len(jobs) != JOBS_PER_LIST[workload]:
        raise AssertionError(f"{workload} has {len(jobs)} jobs, expected {JOBS_PER_LIST[workload]}")
    rng.shuffle(jobs)
    return jobs
