"""Benchmark of commrep's canonical and complete representations, sequence
properties and equality sets, and exact learning.

Usage, from the root of a commrep checkout:

    python3 perfbench/run.py --workload complete --seed 1 --seconds 20 --trace 0

It imports commrep from ``src/`` of the checkout, builds the workload's job
list from the seed, runs it once with every output checked by
``checks.py``, then runs whole rounds of it for ``--seconds`` seconds and
prints the metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
All times are in reference seconds (see refclock.py).  A fuller record,
raw wall-clock figures included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import refclock
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# set-ups per probing point; the points are before and after the warm-up
# round and after the timed rounds, so one slow phase cannot hold the median
SETUP_PROBES = 5


def load_commrep(root):
    src = root / "src"
    if not (src / "commrep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no commrep package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    lib = SimpleNamespace(**{
        name: importlib.import_module(f"commrep.{name}")
        for name in ("antitone", "commutator", "hc", "io", "learn")
    })
    if not Path(lib.io.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: commrep was imported from {lib.io.__file__}, not from {src}")
    return lib, src


# -- jobs -------------------------------------------------------------------
# Each job starts from its JSON document and ends with its JSON output, so
# no cache on a Rep outlives the job.  Library functions are looked up on
# their modules at call time, so the tracer's wrappers are seen.


def run_complete(lib, job):
    rep = lib.io.rep_from_doc(json.loads(job["text"]))
    canon = rep.canonical()
    ext = rep.complete()
    ok = lib.antitone.check_complete(rep, ext)
    return json.dumps(
        {"canonical": lib.io.rep_to_doc(canon), "complete": lib.io.extrep_to_doc(ext), "check": ok}
    )


def run_sequences(lib, job):
    c = lib.commutator
    rep = lib.io.rep_from_doc(json.loads(job["text"]))
    lat = rep.lattice
    report = lib.hc.admissibility_report(rep)
    eqs = c.to_equalities(rep)
    reduced = c.reduced_equalities(rep)
    ext = c.to_extended_equalities(rep)
    back, attained = c.largest_from_equalities(lat, eqs)
    return json.dumps(
        {
            "report": report,
            "equalities": lib.io.equalities_to_doc(lat, eqs),
            "reduced": lib.io.equalities_to_doc(lat, reduced),
            "extended": lib.io.equalities_to_doc(lat, ext),
            "round_trip": lib.io.rep_to_doc(back),
            "attained": [a for _, a in attained],
        }
    )


class BenchOracle:
    """Answers value queries on a hidden representation with the
    benchmark's own evaluator, so a query costs the same whatever the
    program does, and counts them."""

    def __init__(self, job, tracer):
        self.lat, _, self.points = checks.read_rep(json.loads(job["text"]))
        self.tracer = tracer
        self.queries = 0

    def __call__(self, vec):
        self.queries += 1
        if self.tracer is None:
            return self.lat.names[checks.value(self.lat, self.points, vec)]
        frame = self.tracer.query(vec)
        try:
            return self.lat.names[checks.value(self.lat, self.points, vec)]
        finally:
            self.tracer.exit(frame)


def run_learn(lib, job):
    hidden = lib.io.rep_from_doc(json.loads(job["text"]))
    learned = lib.learn.learn(lib.learn.Oracle(hidden.dim, hidden.lattice, job["oracle"]))
    return json.dumps(lib.io.rep_to_doc(learned))


RUNNERS = {"complete": run_complete, "sequences": run_sequences, "learn": run_learn}


# -- measuring --------------------------------------------------------------


def quantiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def time_metrics(times_s):
    p50, p90 = quantiles(times_s)
    return {"jobs_per_s": len(times_s) / sum(times_s), "job_p50_ms": p50 * 1e3, "job_p90_ms": p90 * 1e3}


class Runner:
    def __init__(self, workload, jobs, lib, tracer):
        self.run_job = RUNNERS[workload]
        self.check = checks.CHECKS[workload]
        self.jobs = jobs
        self.lib = lib
        self.tracer = tracer
        self.verdicts = [{} for _ in jobs]  # per job: output text -> failure reason or None
        self.job_seq = 0

    def attempt(self, i, clock=None):
        """Run job i once; returns its output text or None, the error, and
        its wall time (less the clock's ticks) when a clock is given."""
        job = self.jobs[i]

        def call():
            try:
                return self.run_job(self.lib, job), None
            except Exception as exc:  # a failing job is recorded, not fatal
                return None, f"{type(exc).__name__}: {exc}"

        gc.collect()
        frame = self.tracer.begin_job(self.job_seq) if self.tracer else None
        self.job_seq += 1
        if clock is None:
            (out, err), wall = call(), None
        else:
            (out, err), wall = clock.time(call)
        if frame is not None:
            self.tracer.end_job(frame)
        return out, err, wall

    def verdict(self, i, out, err):
        if err is not None:
            return err
        known = self.verdicts[i]
        if out not in known:
            try:
                known[out] = self.check(self.jobs[i], out)
            except (ValueError, KeyError, TypeError) as exc:  # output unreadable
                known[out] = f"unreadable output: {type(exc).__name__}: {exc}"
        return known[out]

    def warm_up(self):
        """One untimed round; every output gets the full check."""
        for i in range(len(self.jobs)):
            out, err, _ = self.attempt(i)
            self.verdict(i, out, err)

    def timed(self, seconds):
        clock = refclock.Clock()
        if self.tracer:
            self.tracer.clock = clock
        walls, reasons, order = [], [], []
        deadline = time.perf_counter() + seconds
        rounds = 0
        clock.start()
        try:
            while True:
                for i in range(len(self.jobs)):
                    out, err, wall = self.attempt(i, clock)
                    walls.append(wall)
                    order.append(i)
                    reasons.append(self.verdict(i, out, err))
                rounds += 1
                if time.perf_counter() >= deadline:
                    break
        finally:
            clock.stop()
        return SimpleNamespace(clock=clock, walls=walls, reasons=reasons, order=order, rounds=rounds)


def setup_probe(texts, src):
    """One set-up in a fresh interpreter: (reference seconds, wall seconds)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(src)],
        input=texts, capture_output=True, text=True, timeout=120, check=True,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["ref_s"], got["wall_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    jobs = workloads.make_jobs(args.workload, args.seed)
    lib, src = load_commrep(root)
    texts = json.dumps([job["text"] for job in jobs])
    setups = []

    def probe_setup():
        if not args.trace:
            setups.extend(setup_probe(texts, src) for _ in range(SETUP_PROBES))

    probe_setup()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    if args.workload == "learn":
        for job in jobs:
            job["oracle"] = BenchOracle(job, tracer)
    runner = Runner(args.workload, jobs, lib, tracer)
    runner.warm_up()
    probe_setup()
    if tracer:
        tracer.reset()
    queries_before = sum(job["oracle"].queries for job in jobs) if args.workload == "learn" else 0
    res = runner.timed(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_setup()

    factors = res.clock.factors()
    ref_times = [w * f for w, f in zip(res.walls, factors)]
    attempted = len(res.walls)
    failures = [(jobs[i]["name"], r) for i, r in zip(res.order, res.reasons) if r is not None]
    unexpected = [(jobs[i]["name"], r) for i, r in zip(res.order, res.reasons)
                  if r is not None and not jobs[i]["known_fault"]]
    kq = statistics.quantiles(res.clock.tick_s, n=10)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": res.rounds,
        "jobs_per_round": len(jobs),
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted({f"{n}: {r}" for n, r in failures}),
        "reference": time_metrics(ref_times),
        "wall": time_metrics(res.walls),
        "kernel_ms": {"p10": kq[0] * 1e3, "median": statistics.median(res.clock.tick_s) * 1e3, "p90": kq[8] * 1e3},
        "kernel_ms_by_family": {
            family: t * 1e3 for family, t in res.clock.medians_by([jobs[i]["family"] for i in res.order]).items()
        },
    }
    if args.workload == "learn":
        record["oracle_queries_per_job"] = (
            sum(job["oracle"].queries for job in jobs) - queries_before
        ) / attempted
    if tracer:
        metrics = tracer.per_layer(factors)
    else:
        setup = [statistics.median(v) for v in zip(*setups)]
        record["setup_s"] = {"reference": setup[0], "wall": setup[1]}
        record["peak_rss_mb"] = peak_rss_mb
        metrics = {
            "jobs_per_s": {"value": record["reference"]["jobs_per_s"], "unit": "1/s"},
            "job_p50_ms": {"value": record["reference"]["job_p50_ms"], "unit": "ms"},
            "job_p90_ms": {"value": record["reference"]["job_p90_ms"], "unit": "ms"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", {"workload": args.workload, "seed": args.seed})
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload}: seed {args.seed}, {res.rounds} rounds of {len(jobs)} jobs, "
          f"{attempted} attempted, {len(failures)} failed")
    for f in record["failures"]:
        print(f"  failed: {f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    w = record["wall"]
    print(f"  wall clock: {w['jobs_per_s']:.2f} jobs/s, p50 {w['job_p50_ms']:.3f} ms, p90 {w['job_p90_ms']:.3f} ms")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
