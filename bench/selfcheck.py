"""Short smoke run of the benchmark's own invariants (run.py --self-check).

  1. every metric named in BENCHMARK.json is emitted, with its unit, by the
     untraced (end_to_end) and traced (per_layer) runs of each workload;
  2. stdout is byte-identical between the traced and untraced passes of the
     same commands, and the run is correct;
  3. the generated inputs (relabellings, lattice re-bases, coordinates) are
     identical for one seed and differ between two seeds.

The runs use the light op lists (small configurations only), one pass each.
"""

from __future__ import annotations

import json
import math
import os
import shutil


def _generated(run, workload: str, seed: int, tag: str) -> dict:
    """name -> bytes of every file generated for (workload, seed)."""
    workdir = os.path.join(run.WORK, f"selfcheck-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run.prepare(workload, seed, workdir, light=False)
        out = {}
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), "rb") as fh:
                out[name] = fh.read()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _metric_problems(line: dict, spec: list) -> list[str]:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = line.get("metrics", {})
    for name, unit in want.items():
        metric = got.get(name)
        if metric is None:
            problems.append(f"metric {name} missing")
        elif metric.get("unit") != unit:
            problems.append(f"metric {name} has unit {metric.get('unit')!r}, expected {unit!r}")
        elif not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"metric {name} has value {metric.get('value')!r}")
    problems += [f"metric {name} is not in BENCHMARK.json" for name in got if name not in want]
    return problems


def self_check(run) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    for workload in names:
        first = _generated(run, workload, 7, "a")
        if first != _generated(run, workload, 7, "b"):
            problems.append(f"{workload}: inputs for seed 7 differ between two generations")
        if first == _generated(run, workload, 8, "c"):
            problems.append(f"{workload}: seeds 7 and 8 generate the same inputs")
        for trace, spec in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            line, details = run.run(workload, 7, 0, trace, light=True)
            where = f"{workload} trace={int(trace)}"
            problems += [f"{where}: {p}" for p in _metric_problems(line, spec)]
            if not line["correct"]:
                problems.append(f"{where}: incorrect result: {details['failures']}")
            if details.get("stdout_mismatch"):
                problems.append(f"{where}: {details['stdout_mismatch']} commands printed "
                                f"different stdout when traced")
        print(f"# self-check {workload}: done", flush=True)
    for p in problems:
        print(f"self-check FAILED: {p}")
    if not problems:
        print("self-check passed")
    return 1 if problems else 0
