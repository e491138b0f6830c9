"""A smoke-sized run of bench/layers.py, so that it cannot rot.

The two smallest sizes of every family, one call per sample; the full run
stays out of the tests (``python3 bench/layers.py --out BENCH.json``).
"""

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_bench_runs_its_smallest_sizes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    monkeypatch.setattr(layers, "SAMPLE_S", 0.0)
    out = tmp_path / "bench.json"
    layers.main(["--out", str(out), "--sizes", "2"])
    record = json.loads(out.read_text())
    families = [f"hyperplane d={d}" for d in range(3, 9)] + ["matching"]
    ops = ("min_elements", "max_elements", "complement_maxima", "canonical", "complete",
           "check_complete", "rep_from_doc+rep_to_doc", "extrep_to_doc")
    pairs = {(r["layer"], r["family"]) for r in record["cases"]}
    meets = {(op, f) for op in ("hc7", "hc8", "reduced_equalities") for f in ("chain", "divisors")}
    distinct = {("complement_maxima", "distinct x first"), ("complement_maxima", "distinct x last")}
    learn = {("learn", "hyperplane d=2"), ("learn", "hyperplane d=3")}
    equalities = {("equalities_to_doc", "Bk")}
    assert pairs == ({(op, f) for op in ops for f in families} | meets | distinct | learn
                     | equalities)
    assert len(record["cases"]) == 2 * len(pairs)
    assert all(r["seconds"] > 0 and r["calls"] == 3 for r in record["cases"])
    assert len(record["slopes"]) == len(pairs)
    assert all(math.isfinite(s["slope"]) for s in record["slopes"])
