#!/usr/bin/env python3
"""Benchmark of dbcfem: one workload per run, in fresh processes.

    python3 perfbench/run.py --workload tables-cold --seed 1 --seconds 24
    python3 perfbench/run.py --workload p2-levels --trace 1
    python3 perfbench/run.py                  # all four workloads in turn

Run it from the root of a checkout.  It imports dbcfem from the
checkout's src/ in a fresh single-threaded process (BLAS and OpenMP
pinned to one thread), gives the run its own reference cache and
output directories under .perfbench-work/, runs the workload's
operations back to back (one caller, closed loop) for --seconds, checks
every output against the seed's recorded outputs and prints each metric
with its unit.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1).  Without --workload it runs the four workloads
one after the other and prints one such block and line for each.  See perfbench/NOTES.md for what each metric
and workload is for.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# the metrics BENCHMARK.json lists; run.py prints more than these
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "mesh.self_s", "mesh.triangles_built", "mesh.reuse_ratio",
    "assembly.dofmap_s", "assembly.operators_s", "assembly.operator_calls",
    "assembly.operator_reuse_ratio", "assembly.load_s", "assembly.block_s",
    "assembly.system_nnz", "expr.eval_s", "expr.points", "linalg.solve_s",
    "linalg.solve_s.max", "linalg.solves", "linalg.unknowns",
    "linalg.unknowns_per_s", "linalg.residual_s", "linalg.max_rel_residual",
    "linalg.gate_failures", "analysis.norms_s", "problems.self_s",
    "problems.cache_hits", "problems.cache_misses", "problems.cache_bytes",
    "mesh.vtk_bytes", "cli.bytes_written", "trace.wall_s",
    "trace.overhead_s",
)
SETUP_PROBES = 4       # set-up-only processes beside the measured one
DEADLINE_S = 170.0     # the whole run, fill and probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(cache):
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["DBCFEM_CACHE_DIR"] = cache
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, env, deadline):
    """Run harness.py to completion; raises BenchError on failure."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before: harness %s" % " ".join(args))
    try:
        proc = subprocess.run([sys.executable, HARNESS] + args, env=env,
                              cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("harness %s timed out" % args[0]) from None
    if proc.returncode != 0:
        raise BenchError("harness %s exited with %d:\n%s"
                         % (args[0], proc.returncode, proc.stderr[-4000:]))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bench(args, work):
    deadline = time.monotonic() + DEADLINE_S
    cache = os.path.join(work, "cache")
    os.makedirs(cache)
    env = child_env(cache)
    if args.workload == "tables-warm":
        run_child(["fill", "--cache", cache], env, deadline)
    setups = []

    def probe_setup(count):
        for _ in range(0 if args.trace else count):
            path = os.path.join(work, "setup-%d.json" % len(setups))
            run_child(["setup", "--workload", args.workload, "--result", path],
                      env, deadline)
            setups.append(read_json(path)["setup_s"])

    # half of the probes before and half after the measured process, so
    # that they sample the machine over the whole run
    probe_setup(SETUP_PROBES // 2)
    path = os.path.join(work, "measure.json")
    measured = os.path.join(work, "run")
    os.makedirs(measured)
    run_child(["measure", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--workdir", measured, "--result", path],
              env, deadline)
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    result = read_json(path)
    result["setup_s"] = [result["setup_s"]] + setups
    return result


def report(args, result):
    """Print every metric with its unit; return the final JSON object."""
    attempted = result["attempted"]
    failed = len(result["failures"])
    print("workload %s  seed %d  trace %d  passes %d untraced, %d traced"
          % (args.workload, args.seed, args.trace, len(result["wall_s"]),
             len(result.get("traced_wall_s", ()))))
    for line in result["failures"][:8]:
        print("  failed op  %s" % line)
    for line in result["mismatches"][:8]:
        print("  mismatch   %s" % line)
    rows = [("wall_s", statistics.median(result["wall_s"]), "s",
             "median of %d passes" % len(result["wall_s"]))]
    if not args.trace:
        rows += [("setup_s", statistics.median(result["setup_s"]), "s",
                  "median of %d set-ups" % len(result["setup_s"])),
                 ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss")]
    rows += [("fail_share", failed / attempted, "ratio",
              "%d of %d ops failed" % (failed, attempted)),
             ("output_mismatches", len(result["mismatches"]), "count",
              "ops whose output differs from the seed's")]
    if args.trace:
        from tracer import UNITS
        layers = result["layers"]
        for name, unit in UNITS.items():
            note = ""
            if unit == "s" and name != "trace.wall_s":
                note = "%.1f%% of traced wall" % (
                    100.0 * layers[name] / layers["trace.wall_s"])
            rows.append((name, layers[name], unit, note))
        metrics = {name: {"value": layers[name], "unit": UNITS[name]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in END_TO_END}
    for name, value, unit, note in rows:
        print("  %-30s %14.6g %-6s %s" % (name, value, unit, note))
    return {"correct": not result["mismatches"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_workload(args):
    """Run and report one workload; returns the exit code."""
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result = bench(args, work)
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only when no other run is using it
    print(json.dumps(report(args, result)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",),
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of the operations")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measuring time; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dbcfem", "__init__.py")):
        print("error: no dbcfem sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        code = run_workload(argparse.Namespace(**dict(vars(args),
                                                      workload=name)))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
