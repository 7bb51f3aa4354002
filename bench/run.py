"""Benchmark of the balanced CLI: seeded workloads, time to verdict.

Usage, from the root of a checkout:

    python3 bench/run.py --workload atlas --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-check

The seed generates the workload's input files and op list (workloads.py).
Set-up is timed in fresh interpreters; then one workload process (worker.py)
imports balanced.cli from the checkout's src/ and runs whole passes of the op
list in-process, one command at a time, until --seconds have elapsed.  Every
command's exit code and verdict is checked against values that do not come
from the library.  With --trace 1 the worker alternates untraced and traced
passes and reports per-layer metrics instead; end-to-end numbers never come
from a traced pass.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, each metric with its unit.  See bench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

from worker import PROBE_REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_SAMPLES = 5  # extra set-up-only interpreters, besides the workload process
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verdict_ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s", "cli.outputs_changed": "count",
    "files.read_s": "s", "files.write_s": "s",
    "files.bytes_in": "bytes", "files.bytes_out": "bytes",
    "exact.validate_s": "s", "exact.ldl_s": "s", "exact.ldl_calls": "count",
    "exact.rank_s": "s", "exact.rank_calls": "count", "exact.configs": "count",
    "exact.eliminations_per_config": "ratio",
    "constructors.build_s": "s",
    "balance.spherical_s": "s", "balance.euclidean_s": "s",
    "designs.theorem1_s": "s", "designs.strength_s": "s",
    "symmetry.graph_s": "s", "symmetry.search_s": "s", "symmetry.order_s": "s",
    "symmetry.orbits_s": "s", "symmetry.stabilizer_s": "s",
    "symmetry.stabilizer_calls": "count", "symmetry.fixed_dim_s": "s",
    "symmetry.group_balanced_s": "s", "symmetry.generators": "count",
    "lattice.minimal_norm_s": "s", "lattice.short_vectors_s": "s",
    "lattice.enum_s": "s", "lattice.enum_yielded": "count",
    "lattice.kept_ratio": "ratio", "lattice.gram_build_s": "s",
    "numerics.coords_s": "s", "numerics.float_balance_s": "s",
    "numerics.float_design_s": "s", "numerics.energy_s": "s", "numerics.force_s": "s",
    "report.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}


class BenchError(RuntimeError):
    """The run cannot produce a result; run.py exits non-zero without one."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_key(workdir: str, argv) -> str:
    """Identifies a command by its arguments and the bytes of its input files."""
    h = hashlib.sha256(json.dumps(argv).encode())
    for tok in argv:
        path = os.path.join(workdir, tok)
        if os.path.isfile(path):
            h.update(file_sha(path).encode())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int, workdir: str, light: bool) -> list:
    from workloads import build

    os.makedirs(workdir)
    ops = build(workload, seed, ROOT, workdir, light=light)
    for o in ops:
        o["digest_key"] = digest_key(workdir, o["argv"])
    with open(os.path.join(workdir, "ops.json"), "w") as fh:
        json.dump(ops, fh)
    return ops


def read_line(proc, deadline: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
    return proc.stdout.readline().strip() if ready else ""


def run_worker(workdir: str, mode: str, seconds: float, deadline: float,
               result=None, spans=None) -> float:
    """Run worker.py to completion; return its set-up time: seconds from
    process start to its "ready" line, normalized by the speed probe it runs
    right after."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workdir", workdir, "--mode", mode, "--seconds", str(seconds)]
    if result:
        cmd += ["--result", result]
    if spans:
        cmd += ["--spans", spans, "--digests", DIGESTS]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        ready = read_line(proc, deadline)
        elapsed = perf_counter() - t0
        probe = read_line(proc, deadline)
        if ready != "ready" or not probe.startswith("probe "):
            raise BenchError("workload process failed during set-up")
        try:
            proc.wait(timeout=max(0.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("workload process exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"workload process exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return elapsed * PROBE_REFERENCE_S / float(probe.split()[1])


def provenance(workload: str, seed: int, ops: list) -> dict:
    import numpy

    git = {"git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                               env=env, capture_output=True, text=True)
        if sha.returncode == 0:
            git = {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}
    paths = []
    for base, dirs, names in os.walk(os.path.join(ROOT, "src", "balanced")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.join(base, name) for name in names]
    src = hashlib.sha256()
    for path in sorted(paths):
        src.update(os.path.relpath(path, ROOT).encode() + file_sha(path).encode())
    cpu = None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {**git, "src_sha256": src.hexdigest()[:16], "workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "click": metadata.version("click"), "nproc": os.cpu_count(), "cpu": cpu,
            "commands_per_pass": len(ops)}


def run(workload: str, seed: int, seconds: float, trace: bool, light: bool = False):
    """Run one benchmark invocation; return (result line dict, details dict)."""
    deadline = perf_counter() + DEADLINE_S
    compileall.compile_dir(os.path.join(ROOT, "src", "balanced"), quiet=1)
    tag = f"{workload}-{seed}-{os.getpid()}"
    workdir = os.path.join(WORK, tag)
    result_path = os.path.join(WORK, f"{tag}.result.json")
    spans = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl") if trace else None
    try:
        ops = prepare(workload, seed, workdir, light)
        setup = [run_worker(workdir, "setup", 0, deadline) for _ in range(SETUP_SAMPLES)]
        setup.append(run_worker(workdir, "trace" if trace else "run", seconds, deadline,
                                result_path, spans))
        with open(result_path) as fh:
            res = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)

    m = res["metrics"]
    if trace:
        values = {name: m[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        m["setup_s"] = statistics.median(setup)
        m["verdict_ok_rate"] = 1.0 - res["failed"] / res["attempted"]
        values = {name: m[name] for name in END_TO_END}
        units = END_TO_END
    correct = res["unexpected"] == 0 and res.get("stdout_mismatch", 0) == 0
    line = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    details = {"provenance": provenance(workload, seed, ops), "passes": res["passes"],
               "setup_samples_s": setup, "failures": res["failures"],
               "error_rate": res["failed"] / res["attempted"]}
    for key in ("samples", "beyond_p90", "raw_ops_per_s", "raw_op_p50_ms", "raw_op_p90_ms",
                "median_scale"):
        if key in m:
            details[key] = m[key]
    for key in ("traced_passes", "stdout_mismatch", "outputs_compared", "canonical_digests"):
        if key in res:
            details[key] = res[key]
    return line, details


def print_result(line: dict, details: dict) -> None:
    shown = {k: v for k, v in details.items() if k not in ("canonical_digests", "error_rate")}
    for key, value in shown.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# error_rate = {details['error_rate']:.6g} ratio")
    for name, metric in line["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))


def record_digests(workloads, seed: int) -> None:
    """Store the stdout digests of every seed-independent command."""
    recorded = {}
    for workload in workloads:
        line, details = run(workload, seed, 0, trace=True)
        print_result(line, details)
        if not line["correct"]:
            raise BenchError(f"{workload}: incorrect outputs; digests not recorded")
        recorded.update(details["canonical_digests"])
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=0)
        fh.write("\n")


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="short smoke run of the benchmark's own invariants")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite bench/digests.json from this commit's outputs")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "balanced", "cli.py")):
        print(f"error: no balanced sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.self_check:
            from selfcheck import self_check

            return self_check(sys.modules[__name__])
        if args.record_digests:
            record_digests(WORKLOADS, args.seed)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        line, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(line, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
