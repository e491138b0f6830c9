"""A smoke-sized run of the benchmark in perfbench/, so that it cannot rot.

The seed-1 ``random``, ``B`` and ``big-coordinate`` jobs of each workload
run through the benchmark's own runners under its tracer, and each output
goes through the benchmark's own check.  Installing the tracer fails if a
library name it wraps is gone; the full timed run stays out of the tests
(``python3 perfbench/run.py --workload <w> --seed 1 --seconds 25``).
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

checks = importlib.import_module("checks")
run = importlib.import_module("run")
workloads = importlib.import_module("workloads")
Tracer = importlib.import_module("tracing").Tracer
LIB, _ = run.load_commrep(ROOT)

SMOKE_FAMILIES = ("random", "B", "big-coordinate")


def library_attributes():
    """Every attribute of the commrep modules and of the classes the tracer
    patches, by identity."""
    owners = [m for n, m in sys.modules.items() if n == "commrep" or n.startswith("commrep.")]
    owners += [LIB.antitone.Rep, sys.modules["commrep.upset"].UpSet, sys.modules["commrep.lattice"].Lattice]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


@pytest.fixture
def tracer():
    before = library_attributes()
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()
    after = library_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_benchmark_jobs_pass_their_checks(tracer):
    ran = 0
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 1):
            if job["family"] not in SMOKE_FAMILIES:
                continue
            if workload == "learn":
                job["oracle"] = run.BenchOracle(job, tracer)
            frame = tracer.begin_job(ran)
            out = run.RUNNERS[workload](LIB, job)
            tracer.end_job(frame)
            assert checks.CHECKS[workload](job, out) is None, job["name"]
            ran += 1
    metrics = tracer.per_layer([1.0] * ran)
    assert metrics["upset.complement_maxima_calls"]["value"] > 0
    assert metrics["hc.reports"]["value"] > 0
    assert metrics["learn.queries"]["value"] > 0
