"""Correctness checks that share no code with commrep.

Every check works from the job's input document and the program's JSON
output, in exact Python integers, with ``math.inf`` for an unbounded
coordinate.  The function of a representation is evaluated by its
definition: the meet of the values of all prescribed points below x.
That function is constant on the cells cut out by the prescribed
coordinates, so scanning the coordinate-compressed grid decides what a
scan of the whole space would.  Two functions are compared at each
other's prescribed points.

Each ``check_*`` returns ``None`` when the output is right and otherwise a
short reason.
"""

from __future__ import annotations

import itertools
import json
import math
from math import comb

from lattices import Lat, is_inf

INF = math.inf


# -- documents --------------------------------------------------------------


def read_vec(data):
    return tuple(INF if c == "inf" else int(c) for c in data)


def read_points(lat, points):
    return [(read_vec(p["vec"]), lat.index[p["value"]]) for p in points]


def read_rep(doc):
    lat = Lat.from_doc(doc["lattice"])
    return lat, int(doc["dimension"]), read_points(lat, doc["points"])


def same_lattice(lat, doc):
    return doc["elements"] == lat.names and doc["meet"] == lat.meet and doc["join"] == lat.join


# -- the definitional evaluator ---------------------------------------------


def below(p, x):
    return all(a <= b for a, b in zip(p, x))


def value(lat, points, x):
    """Meet of the values of all prescribed points below x; x may hold INF."""
    return lat.big_meet(v for p, v in points if below(p, x))


class Fn:
    """The function of a point set, memoised per argument."""

    def __init__(self, lat, dim, points):
        self.lat, self.dim, self.points = lat, dim, points
        self.memo = {}

    def __call__(self, x):
        try:
            return self.memo[x]
        except KeyError:
            v = self.memo[x] = value(self.lat, self.points, x)
            return v

    def axes(self):
        """Per coordinate, 0 and every finite prescribed coordinate."""
        return [sorted({0} | {p[i] for p, _ in self.points}) for i in range(self.dim)]


def step_down(axis, x, i):
    pos = axis[i].index(x[i])
    return x[:i] + (axis[i][pos - 1],) + x[i + 1 :]


def grid(axes):
    return itertools.product(*axes)


def canonical(f):
    """Minimal vectors of each value class, by scanning the compressed grid.

    x is minimal in its class iff stepping any positive coordinate down to
    the previous grid value changes the value.
    """
    axes = f.axes()
    out = set()
    for x in grid(axes):
        v = f(x)
        if all(f(step_down(axes, x, i)) != v for i in range(f.dim) if x[i] > 0):
            out.add((x, v))
    return out


def sublevel_minima(f, alpha):
    lat, axes = f.lat, f.axes()
    return {
        x
        for x in grid(axes)
        if lat.leq[f(x)][alpha]
        and all(not lat.leq[f(step_down(axes, x, i))][alpha] for i in range(f.dim) if x[i] > 0)
    }


def complement_maxima(f, alpha):
    """Maximal points of {x : f(x) not <= alpha} in the INF-extended space.

    A maximal point has each coordinate INF or one less than a prescribed
    coordinate; it is maximal iff every finite one-step bump lands in the
    sublevel.
    """
    lat = f.lat
    cands = [sorted({c - 1 for c in axis if c > 0}) + [INF] for axis in f.axes()]
    out = set()
    for x in grid(cands):
        if lat.leq[f(x)][alpha]:
            continue
        if all(
            lat.leq[f(x[:i] + (x[i] + 1,) + x[i + 1 :])][alpha]
            for i in range(f.dim)
            if not is_inf(x[i])
        ):
            out.add(x)
    return out


def complete_set(f):
    """The point set ``Rep.complete`` is specified to return: for every
    element, the minimal vectors of its sublevel and the maximal vectors
    outside it, each with its value."""
    vecs = set()
    for a in range(f.lat.m):
        vecs |= sublevel_minima(f, a)
        vecs |= complement_maxima(f, a)
    return {(x, f(x)) for x in vecs}


def pins(f, ext):
    """Whether exactly one antitone function passes through ``ext`` and it is f.

    Both the largest (meet of values below) and the smallest (join of
    values above) antitone functions through ext must agree everywhere;
    they are constant between the grid values c and c + 1 of ext's finite
    coordinates, so checking the grid decides it.
    """
    lat = f.lat
    if any(f(p) != v for p, v in ext):
        return False
    axes = []
    for i in range(f.dim):
        fin = {p[i] for p, _ in ext if not is_inf(p[i])}
        axes.append(sorted({0} | fin | {c + 1 for c in fin}) + [INF])
    for x in grid(axes):
        upper = lat.big_meet(v for p, v in ext if below(p, x))
        lower = lat.big_join(v for p, v in ext if below(x, p))
        if upper != lower:
            return False
    return True


def same_function(f, g):
    """Whether two finite representations define the same function on N^d.

    f <= g everywhere iff f(p) <= v at every prescribed point (p, v) of g,
    since g is the largest antitone function below its points.
    """
    lat = f.lat
    return f.dim == g.dim and all(
        lat.leq[a(p)][v] for a, b in ((f, g), (g, f)) for p, v in b.points
    )


# -- complete ---------------------------------------------------------------


def hyperplane_sets(d, s):
    """Closed forms over chain(2) for {x : sum x = s} -> bottom.

    The canonical representation is the antichain plus zero at top; the
    complement maxima of its up-set are exactly {sum x = s - 1}, C(s+d-2, d-1)
    of them, each at top.
    """
    plane = {x for x in itertools.product(range(s + 1), repeat=d) if sum(x) == s}
    below_plane = {x for x in itertools.product(range(s), repeat=d) if sum(x) == s - 1}
    if len(below_plane) != comb(s + d - 2, d - 1):
        raise AssertionError("hyperplane closed form miscounted")
    canon = {(x, 0) for x in plane} | {((0,) * d, 1)}
    return canon, canon | {(x, 1) for x in below_plane}


def check_complete(job, out_text):
    lat, dim, points = read_rep(json.loads(job["text"]))
    out = json.loads(out_text)
    if not (same_lattice(lat, out["canonical"]["lattice"]) and same_lattice(lat, out["complete"]["lattice"])):
        return "output lattice differs from the input lattice"
    canon = set(read_points(lat, out["canonical"]["points"]))
    ext = set(read_points(lat, out["complete"]["points"]))
    f = Fn(lat, dim, points)
    if job.get("hyperplane"):
        want_canon, want_ext = hyperplane_sets(*job["hyperplane"])
        ext_pins = ext == want_ext
    else:
        want_canon, want_ext = canonical(f), complete_set(f)
        ext_pins = pins(f, ext)
    if canon != want_canon:
        return f"canonical() differs: missing {sorted(want_canon - canon)[:3]}, extra {sorted(canon - want_canon)[:3]}"
    if ext != want_ext:
        return f"complete() differs: missing {sorted(want_ext - ext)[:3]}, extra {sorted(ext - want_ext)[:3]}"
    if not ext_pins:
        return "complete() does not pin the function down"
    if out["check"] is not True:
        return f"check_complete() answered {out['check']} on a complete set"
    return None


# -- sequences --------------------------------------------------------------


def box_table(f, bound):
    return {x: f(x) for x in itertools.product(range(bound + 1), repeat=f.dim)}


def unit(m, j):
    return tuple(int(i == j) for i in range(m))


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def box_properties(f):
    """hc1, hc2, hc7 and hc8 decided on the box [0, B]^m, B one past the
    largest prescribed coordinate.  hc8 is None when hc2 fails."""
    lat, m = f.lat, f.dim
    bound = max((c for p, _ in f.points for c in p), default=0) + 1
    table = box_table(f, bound + 1)
    box = list(itertools.product(range(bound + 1), repeat=m))
    hc1 = all(lat.leq[table[unit(m, j)]][j] for j in range(m))
    hc2 = all(
        lat.leq[table[add(sub(x, unit(m, j)), unit(m, i))]][table[x]]
        for x in box
        for j in range(m)
        if x[j] > 0
        for i in range(m)
        if i != j and lat.leq[i][j]
    )
    hc7 = all(
        table[add(x, unit(m, lat.join[i][j]))]
        == lat.join[table[add(x, unit(m, i))]][table[add(x, unit(m, j))]]
        for i in range(m)
        for j in range(i, m)
        for x in box
    )
    hc8 = None
    if hc2:
        hc8 = all(
            lat.leq[table[add(sub(a, b), unit(m, table[b]))]][table[a]]
            for a in box
            for b in itertools.product(*(range(c + 1) for c in a))
        )
    return {"hc1": hc1, "hc2": hc2, "hc7": hc7, "hc8": hc8}


def args_vec(lat, args, unbounded=()):
    vec = [0] * lat.m
    for a in args:
        vec[lat.index[a]] += 1
    for u in unbounded:
        vec[lat.index[u]] = INF
    return tuple(vec)


def read_equalities(lat, doc):
    if not same_lattice(lat, doc["lattice"]):
        raise ValueError("equality document lattice differs from the input lattice")
    return {
        (args_vec(lat, e["args"], e.get("S", ())), lat.index[e["rhs"]])
        for e in doc["equalities"]
    }


def monotone_closure(lat, pairs):
    """The largest bounded, monotone sequence below ``pairs``: unit points
    e_j -> j, and every constraint closed under replacing one argument by
    a smaller element."""
    m = lat.m
    seen = {(unit(m, j), j) for j in range(m)} | set(pairs)
    work = list(seen)
    while work:
        b, beta = work.pop()
        for j in range(m):
            if b[j] == 0:
                continue
            for i in range(m):
                if i != j and lat.leq[i][j]:
                    item = (add(sub(b, unit(m, j)), unit(m, i)), beta)
                    if item not in seen:
                        seen.add(item)
                        work.append(item)
    return list(seen)


def trivial(lat, vec, rhs):
    if sum(vec) == 0:
        return rhs == lat.top
    return sum(vec) == 1 and vec[rhs] == 1


def b_reduced(k):
    # over 0 < alpha < 1: [1,1] = alpha, [alpha,1] = 0 and, for Bk, [1^k] = 0
    out = {((0, 0, 2), 1), ((0, 1, 1), 0)}
    if k is not None:
        out.add(((0, 0, k), 0))
    return out


def check_sequences(job, out_text):
    lat, dim, points = read_rep(json.loads(job["text"]))
    out = json.loads(out_text)
    f = Fn(lat, dim, points)
    if "collapse" in job:
        want = {"hc1": True, "hc2": True, "hc7": True, "hc8": True}
    else:
        want = box_properties(f)
    got = {p: out["report"][p]["holds"] for p in want}
    if got != want:
        return f"admissibility differs from the box check: {got} vs {want}"
    if out["report"]["admissible"] is not all(want.values()):
        return "admissible flag disagrees with the properties"

    eqs = read_equalities(lat, out["equalities"])
    if eqs != canonical(f):
        return "to_equalities() differs from the canonical points"

    reduced = read_equalities(lat, out["reduced"])
    if not reduced <= {e for e in eqs if not trivial(lat, *e)}:
        return "reduced_equalities() is not a subset of the nontrivial equalities"
    if "collapse" in job and reduced != b_reduced(job["collapse"]):
        return f"reduced_equalities() differs from the closed form: {sorted(reduced)}"
    # only a bounded, monotone sequence is the largest such one through its equalities
    if want["hc1"] and want["hc2"] and not same_function(f, Fn(lat, dim, monotone_closure(lat, reduced))):
        return "reduced_equalities() does not determine the sequence"

    ext = read_equalities(lat, out["extended"])
    if ext != complete_set(f):
        return "to_extended_equalities() differs from the complete set"
    if not pins(f, ext):
        return "to_extended_equalities() does not pin the sequence down"

    _, rdim, rpoints = read_rep(out["round_trip"])
    if not same_function(f, Fn(lat, rdim, rpoints)):
        return "largest_from_equalities() gives another sequence"
    if not all(out["attained"]):
        return "largest_from_equalities() reports an unattained equality"
    return None


# -- learn ------------------------------------------------------------------


def check_learn(job, out_text):
    lat, dim, points = read_rep(json.loads(job["text"]))
    out = json.loads(out_text)
    if not same_lattice(lat, out["lattice"]):
        return "learned lattice differs from the target lattice"
    _, ldim, lpoints = read_rep(out)
    if not same_function(Fn(lat, dim, points), Fn(lat, ldim, lpoints)):
        return "learned function differs from the target"
    return None


CHECKS = {"complete": check_complete, "sequences": check_sequences, "learn": check_learn}
