"""Regenerate the figures in perfbench/README.md.

Usage, from the root of a commrep checkout:

    python3 perfbench/report.py

For every workload it runs ``run.py`` once per seed in ``SEEDS``,
untraced and for ``run_seconds`` from BENCHMARK.json.  It prints each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median) in reference and in raw wall-clock
time, next to the bound in BENCHMARK.json, and the median tick per job
family.  ``SAME_SEED_RUNS`` runs of the first seed follow; their spread
shows the machine's own noise with and without the reference scaling.
Then one traced run per workload gives the per-layer table and the
tracing overhead, and calibrate.py checks that a known extra cost shows
in full.  Output is Markdown.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
TIMED = ("jobs_per_s", "job_p50_ms", "job_p90_ms")
SEEDS = range(1, 11)
SAME_SEED_RUNS = 5


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    record["printed"] = last
    return record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def series(records):
    """Metric name -> list of (reference value, wall value or None)."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            wall = None
            if name in TIMED:
                wall = r["wall"][name]
            elif name == "setup_s":
                wall = r["setup_s"]["wall"]
            out.setdefault(name, []).append((m["value"], wall))
    return out


def table(records, bounds):
    lines = ["| metric | median | q1 | q3 | spread | bound | wall median | wall spread |",
             "|---|---|---|---|---|---|---|---|"]
    for name, vals in series(records).items():
        med, q1, q3, sp = spread([v for v, _ in vals])
        walls = [w for _, w in vals if w is not None]
        wtxt = ("-", "-")
        if walls:
            wmed, _, _, wsp = spread(walls)
            wtxt = (f"{wmed:.4g}", f"{wsp:.3f}")
        lines.append(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {sp:.3f} | {bounds.get(name, '-')} | "
                     f"{wtxt[0]} | {wtxt[1]} |")
    return lines


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first = SEEDS[0]
    print(f"Runs of {seconds:g} s; spread = (q3 - q1) / median over the runs.\n")
    for workload in workloads.WORKLOADS:
        records = [run(workload, s, seconds, 0) for s in SEEDS]
        r0 = records[0]
        shares = {(r["failed"], r["attempted"]) for r in records}
        print(f"### {workload}\n")
        print(f"{len(records)} seeds ({first}-{SEEDS[-1]}), {r0['jobs_per_round']} jobs a round, "
              f"rounds per run {min(r['rounds'] for r in records)}-{max(r['rounds'] for r in records)}, "
              f"failed/attempted {sorted(shares)}, correct {all(r['printed']['correct'] for r in records)}.")
        kernel = [r["kernel_ms"] for r in records]
        print(f"Ticks within a run, p10-p90: "
              f"{min(k['p10'] for k in kernel):.3f}-{max(k['p90'] for k in kernel):.3f} ms; "
              f"run medians {min(k['median'] for k in kernel):.3f}-{max(k['median'] for k in kernel):.3f} ms.")
        families = sorted({f for r in records for f in r["kernel_ms_by_family"]})
        ratios = {f: [r["kernel_ms_by_family"][f] / r["kernel_ms"]["median"]
                      for r in records if f in r["kernel_ms_by_family"]] for f in families}
        print("Median tick inside each job family over the run's median tick, median over the seeds: "
              + ", ".join(f"{f} {statistics.median(v):.3f}" for f, v in ratios.items()) + ".")
        if workload == "learn":
            q = [r["oracle_queries_per_job"] for r in records]
            print(f"Oracle queries per job: {min(q):.2f}-{max(q):.2f} across seeds.")
        print()
        print("\n".join(table(records, bounds)))
        print()
        same = [run(workload, first, seconds, 0) for _ in range(SAME_SEED_RUNS)]
        print(f"Same seed {first}, {SAME_SEED_RUNS} runs:\n")
        print("\n".join(table(same, bounds)))
        print()
        traced = run(workload, first, seconds, 1)
        print(f"Traced run, seed {first} (per job; times in reference ms):\n")
        print("| metric | value | unit |\n|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| {name} | {m['value']:.4g} | {m['unit']} |")
        plain, over = r0["reference"]["jobs_per_s"], traced["reference"]["jobs_per_s"]
        print(f"\nTracing overhead: {plain:.2f} jobs/s untraced, {over:.2f} traced (x{plain / over:.2f}).\n")
    print("## Calibration\n", flush=True)
    subprocess.run([sys.executable, str(HERE / "calibrate.py")], check=True, timeout=900)


if __name__ == "__main__":
    main()
