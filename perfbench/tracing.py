"""Spans and counters around commrep's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every commrep module
that holds it, with a wrapper that records a span (name, start, end,
parent, job id) and the layer's work counters.  Self time is a span's
duration minus the time its traced children took and minus the clock's
ticks that fell inside it; it is summed per job and converted to
reference seconds with the job's scale factor.  Spans are
kept in memory, up to ``SPAN_CAP`` of them, and written out at the end of
the run; the counters and self times cover every call.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

SPAN_CAP = 100_000

# metric name -> (unit, better direction)
PER_LAYER = {
    "upset.min_elements_calls": ("count", "lower"),
    "upset.min_elements_in": ("count", "lower"),
    "upset.min_elements_ms": ("ms", "lower"),
    "upset.complement_maxima_calls": ("count", "lower"),
    "upset.complement_maxima_ms": ("ms", "lower"),
    "upset.grid_points": ("count", "lower"),
    "upset.maxima": ("count", "lower"),
    "upset.grid_yield": ("ratio", "higher"),
    "antitone.eval_calls": ("count", "lower"),
    "antitone.eval_scanned": ("count", "lower"),
    "antitone.eval_ms": ("ms", "lower"),
    "antitone.sublevel_ms": ("ms", "lower"),
    "antitone.canonical_ms": ("ms", "lower"),
    "antitone.complete_ms": ("ms", "lower"),
    "antitone.check_complete_ms": ("ms", "lower"),
    "antitone.level_gens": ("count", "lower"),
    "antitone.complete_points": ("count", "lower"),
    "hc.reports": ("count", "lower"),
    "hc.report_ms": ("ms", "lower"),
    "commutator.reduce_trials": ("count", "lower"),
    "commutator.reduce_ms": ("ms", "lower"),
    "commutator.equalities_ms": ("ms", "lower"),
    "learn.rounds": ("count", "lower"),
    "learn.queries": ("count", "lower"),
    "learn.search_queries": ("count", "lower"),
    "learn.query_ms": ("ms", "lower"),
    "learn.complete_ms": ("ms", "lower"),
    "learn.self_ms": ("ms", "lower"),
    "io.parse_ms": ("ms", "lower"),
    "io.dump_ms": ("ms", "lower"),
    "lattice.builds": ("count", "lower"),
    "lattice.build_ms": ("ms", "lower"),
}

# self-time metrics: metric -> span names whose self time it sums
SELF_MS = {
    "upset.min_elements_ms": ("upset.min_elements",),
    "upset.complement_maxima_ms": ("upset.complement_maxima",),
    "antitone.eval_ms": ("antitone.eval",),
    "antitone.sublevel_ms": ("antitone.sublevel",),
    "antitone.canonical_ms": ("antitone.canonical",),
    "antitone.complete_ms": ("antitone.complete",),
    "antitone.check_complete_ms": ("antitone.check_complete",),
    "hc.report_ms": ("hc.admissibility_report",),
    "commutator.reduce_ms": ("commutator.reduced_equalities", "commutator.monotone_closure"),
    "commutator.equalities_ms": (
        "commutator.to_equalities",
        "commutator.to_extended_equalities",
        "commutator.largest_from_equalities",
    ),
    "learn.query_ms": ("learn.query",),
    "learn.self_ms": ("learn.learn",),
    "io.parse_ms": ("io.parse",),
    "io.dump_ms": ("io.dump",),
    "lattice.build_ms": ("lattice.build",),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.next_id = 0
        self.job = -1
        self.job_self = defaultdict(float)
        self.job_incl = defaultdict(float)
        self.per_job = []  # (self times, inclusive times) of each finished job, raw seconds
        self.counts = defaultdict(int)
        self.learn_depth = 0
        self.last_complete = frozenset()
        self.clock = None  # the refclock.Clock whose ticks interrupt the spans
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _stolen(self):
        return self.clock.stolen if self.clock is not None else 0.0

    def enter(self, name):
        parent = self.stack[-1][3] if self.stack else -1
        frame = [name, time.perf_counter(), 0.0, self.next_id, parent, self._stolen()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, sid, parent, stolen = frame
        dur = end - start - (self._stolen() - stolen)
        self.job_self[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if name == "antitone.complete" and self.learn_depth:
            self.job_incl["learn.complete"] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.job))
        else:
            self.dropped += 1

    def begin_job(self, job_id):
        self.job = job_id
        return self.enter("bench.job")

    def end_job(self, frame):
        """Close the job's root span and keep its times."""
        self.exit(frame)
        self.per_job.append((dict(self.job_self), dict(self.job_incl)))
        self.job_self.clear()
        self.job_incl.clear()

    def reset(self):
        """Forget everything recorded so far; the wrappers stay installed."""
        self.spans.clear()
        self.dropped = 0
        self.per_job.clear()
        self.counts.clear()

    def query(self, vec):
        """Count one oracle query; returns the span to close after answering."""
        self.counts["learn.queries"] += 1
        if vec not in self.last_complete:
            self.counts["learn.search_queries"] += 1
        return self.enter("learn.query")

    # -- installing the wrappers --------------------------------------------

    def _traced(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, original, wrapper, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        antitone, commutator, hc, io, lattice, learn, upset = (
            importlib.import_module(f"commrep.{m}")
            for m in ("antitone", "commutator", "hc", "io", "lattice", "learn", "upset")
        )
        mods = [m for n, m in sys.modules.items() if n == "commrep" or n.startswith("commrep.")]
        c = self.counts

        orig_min = upset.min_elements

        def min_elements(points):
            frame = self.enter("upset.min_elements")
            try:
                if not hasattr(points, "__len__"):
                    points = tuple(points)  # a generator is consumed inside the span
                c["upset.min_elements_calls"] += 1
                c["upset.min_elements_in"] += len(points)
                return orig_min(points)
            finally:
                self.exit(frame)

        self._replace(orig_min, min_elements, mods)

        def maxima_after(result, us, *a, **k):
            c["upset.complement_maxima_calls"] += 1
            c["upset.grid_points"] += math.prod(
                len({g[i] - 1 for g in us.gens if g[i] > 0}) + 1 for i in range(us.dim)
            )
            c["upset.maxima"] += len(result)

        self._method(upset.UpSet, "complement_maxima",
                     self._traced("upset.complement_maxima", upset.UpSet.complement_maxima, after=maxima_after))

        Rep = antitone.Rep

        def eval_before(rep, x):
            c["antitone.eval_calls"] += 1
            if x not in rep._values:
                c["antitone.eval_scanned"] += len(rep.points)

        self._method(Rep, "_value_at", self._traced("antitone.eval", Rep._value_at, before=eval_before))

        fresh = []

        def sublevel_before(rep, alpha):
            fresh.append(rep.lattice.resolve(alpha) not in rep._levels)

        def sublevel_after(result, rep, alpha):
            if fresh.pop():
                c["antitone.level_gens"] += len(result.gens)

        self._method(Rep, "sublevel",
                     self._traced("antitone.sublevel", Rep.sublevel, before=sublevel_before, after=sublevel_after))
        self._method(Rep, "canonical", self._traced("antitone.canonical", Rep.canonical))

        def complete_after(result, rep):
            c["antitone.complete_points"] += len(result.points)
            if self.learn_depth:
                c["learn.rounds"] += 1
                self.last_complete = frozenset(v for v, _ in result.points)

        self._method(Rep, "complete", self._traced("antitone.complete", Rep.complete, after=complete_after))
        self._replace(antitone.check_complete,
                      self._traced("antitone.check_complete", antitone.check_complete), mods)

        def report_after(result, rep):
            c["hc.reports"] += 1

        self._replace(hc.admissibility_report,
                      self._traced("hc.admissibility_report", hc.admissibility_report, after=report_after), mods)

        def trial_after(result, *a):
            c["commutator.reduce_trials"] += 1

        self._replace(commutator._monotone_closed_rep,
                      self._traced("commutator.monotone_closure", commutator._monotone_closed_rep,
                                   after=trial_after), mods)
        for fname in ("reduced_equalities", "to_equalities", "to_extended_equalities", "largest_from_equalities"):
            fn = getattr(commutator, fname)
            self._replace(fn, self._traced(f"commutator.{fname}", fn), mods)

        def learn_fn(*args, **kwargs):
            self.learn_depth += 1
            self.last_complete = frozenset()
            try:
                return orig_learn(*args, **kwargs)
            finally:
                self.learn_depth -= 1

        orig_learn = learn.learn
        self._replace(orig_learn, self._traced("learn.learn", learn_fn), mods)

        for fname in ("rep_from_doc", "extrep_from_doc", "lattice_from_doc", "equalities_from_doc"):
            fn = getattr(io, fname)
            self._replace(fn, self._traced("io.parse", fn), mods)
        for fname in ("rep_to_doc", "extrep_to_doc", "lattice_to_doc", "equalities_to_doc", "upset_to_doc"):
            fn = getattr(io, fname)
            self._replace(fn, self._traced("io.dump", fn), mods)

        Lattice = lattice.Lattice

        def build_after(result, *a, **k):
            c["lattice.builds"] += 1

        self._method(Lattice, "__init__", self._traced("lattice.build", Lattice.__init__, after=build_after))
        from_leq = Lattice.__dict__["from_leq"].__func__
        self._method(Lattice, "from_leq", classmethod(self._traced("lattice.build", from_leq)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def per_layer(self, factors):
        """Every per-layer metric as a mean per job, times in reference ms;
        ``factors`` holds each recorded job's reference scale factor."""
        if len(factors) != len(self.per_job):
            raise ValueError("need one scale factor per recorded job")
        self_ref, incl_ref = defaultdict(float), defaultdict(float)
        for f, (own, incl) in zip(factors, self.per_job):
            for name, t in own.items():
                self_ref[name] += t * f
            for name, t in incl.items():
                incl_ref[name] += t * f
        c, n = self.counts, len(factors)
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            if name in SELF_MS:
                value = sum(self_ref[s] for s in SELF_MS[name]) * 1e3 / n
            elif name == "learn.complete_ms":
                value = incl_ref["learn.complete"] * 1e3 / n
            elif name == "upset.grid_yield":
                value = c["upset.maxima"] / c["upset.grid_points"] if c["upset.grid_points"] else 0.0
            else:
                value = c[name] / n
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path, meta):
        names = sorted({s[1] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            **meta,
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "job"],
            "names": names,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "spans": [[s[0], ids[s[1]], round(s[2], 7), round(s[3], 7), s[4], s[5]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
