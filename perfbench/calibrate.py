"""Does the reference clock keep a known extra cost in full?

Usage, from the root of a commrep checkout:

    python3 perfbench/calibrate.py

For each workload, one commrep function that every job calls exactly once
(``HOOKS``) is wrapped so that it first runs an extra step of known cost.
The job list of seed 1 then runs in whole rounds for ``SECONDS`` seconds,
the rounds taking turns: one without a step, then one with each step.

Adding the same cost to every job shifts the mean and every quantile of
job time by that cost.  The step's own cost is measured apart from the
jobs, between warm ticks.  A share is the growth seen over that cost: in
reference time for the mean, p50 and p90, and in wall time for the mean.
Wall time is noisy, but no tick can bias it.  So a reference share well
below the wall share would mean that ticks slowed by the step divided part
of its cost out.  The median tick of each kind of round shows the same
directly.

The steps are a pure-Python loop, a numpy step that writes and reads a
64 MB array (it evicts the caches the ticks use), and a garbage step that
allocates and frees 200,000 small objects.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import numpy

import refclock
import run
import workloads

SECONDS = 90
SEED = 1
COST_REPS = 40
HOOKS = {"complete": ("antitone", "check_complete"), "sequences": ("hc", "admissibility_report"),
         "learn": ("learn", "learn")}


def python_step():
    x = 0
    for i in range(400_000):
        x += i * i
    return x


def numpy_step():
    a = numpy.full(8_000_000, 1.5)
    return float(a.sum())


def garbage_step():
    return len([(i, [i]) for i in range(100_000)])


STEPS = {"python": python_step, "numpy": numpy_step, "garbage": garbage_step}


def step_cost(step):
    """The step's median cost, (reference ms, wall ms), each time right
    after a collection, as a job starts (run.Runner.attempt)."""
    walls, ticks = [], []
    for _ in range(COST_REPS):
        gc.collect()
        ticks.append(refclock.tick())
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
        ticks.append(refclock.tick())
    wall = statistics.median(walls)
    return wall * refclock.NOMINAL_KERNEL_S / statistics.median(ticks) * 1e3, wall * 1e3


def one_round(runner, into):
    """Run one round; add its jobs' reference and wall times and its ticks to ``into``."""
    res = runner.timed(0)
    for i, reason in zip(res.order, res.reasons):
        if reason is not None and not runner.jobs[i]["known_fault"]:
            raise SystemExit(f"calibrate: job {runner.jobs[i]['name']} failed: {reason}")
    into["ref"].extend(w * f for w, f in zip(res.walls, res.clock.factors()))
    into["wall"].extend(res.walls)
    into["ticks"].extend(res.clock.tick_s)


def summary(times):
    m = run.time_metrics(times)
    return {"mean_ms": 1e3 / m["jobs_per_s"], "p50_ms": m["job_p50_ms"], "p90_ms": m["job_p90_ms"]}


def calibrate(workload, lib):
    module, name = HOOKS[workload]
    original = getattr(getattr(lib, module), name)
    active = [None]

    def hooked(*args, **kwargs):
        if active[0] is not None:
            active[0]()
        return original(*args, **kwargs)

    setattr(getattr(lib, module), name, hooked)
    try:
        jobs = workloads.make_jobs(workload, SEED)
        if workload == "learn":
            for job in jobs:
                job["oracle"] = run.BenchOracle(job, None)
        runner = run.Runner(workload, jobs, lib, None)
        runner.warm_up()
        times = {v: {"ref": [], "wall": [], "ticks": []} for v in ("none", *STEPS)}
        deadline = time.perf_counter() + SECONDS
        cycles = 0
        while time.perf_counter() < deadline:
            for variant, into in times.items():
                active[0] = STEPS.get(variant)
                one_round(runner, into)
            cycles += 1
    finally:
        setattr(getattr(lib, module), name, original)

    base_ref, base_wall = summary(times["none"]["ref"]), summary(times["none"]["wall"])
    print(f"### {workload}: extra step in `{module}.{name}`\n")
    print(f"{cycles} rounds of each kind; without a step: mean {base_ref['mean_ms']:.2f}, "
          f"p50 {base_ref['p50_ms']:.2f}, p90 {base_ref['p90_ms']:.2f} reference ms, "
          f"median tick {statistics.median(times['none']['ticks']) * 1e3:.3f} ms.\n")
    print("| step | cost, ref ms | mean share | p50 share | p90 share | wall mean share | median tick, ms |")
    print("|---|---|---|---|---|---|---|")
    for variant, step in STEPS.items():
        cost_ref, cost_wall = step_cost(step)
        ref, wall = summary(times[variant]["ref"]), summary(times[variant]["wall"])
        shares = [(ref[k] - base_ref[k]) / cost_ref for k in ("mean_ms", "p50_ms", "p90_ms")]
        wall_share = (wall["mean_ms"] - base_wall["mean_ms"]) / cost_wall
        tick = statistics.median(times[variant]["ticks"]) * 1e3
        print(f"| {variant} | {cost_ref:.2f} | " + " | ".join(f"{s:.2f}" for s in shares)
              + f" | {wall_share:.2f} | {tick:.3f} |")
    print()


def main():
    lib, _ = run.load_commrep(Path.cwd())
    for workload in workloads.WORKLOADS:
        calibrate(workload, lib)


if __name__ == "__main__":
    main()
