"""The processes run.py starts: set-up probes, cache fill, measured run.

    python3 perfbench/harness.py setup   --workload W --result FILE
    python3 perfbench/harness.py fill    --cache DIR
    python3 perfbench/harness.py measure --workload W --seed N --seconds S
                                         --trace 0|1 --workdir DIR
                                         --result FILE

dbcfem is imported from the checkout's `src/`, never from an installed
copy.  run.py pins BLAS and OpenMP to one thread in the environment of
these processes, so the numbers are the plain single-threaded baseline.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from workloads import Golden, make_ops, table_specs  # noqa: E402


def import_dbcfem():
    """Import dbcfem from the checkout's src/ and refuse any other copy."""
    sys.path.insert(0, SRC)
    import dbcfem
    import dbcfem.cli
    if not os.path.abspath(dbcfem.__file__).startswith(SRC + os.sep):
        raise SystemExit("dbcfem was imported from %s, not from %s"
                         % (dbcfem.__file__, SRC))
    return dbcfem


def set_up(workload):
    """Import dbcfem and load the workload's specs; return (seconds, ...)."""
    t0 = time.perf_counter()
    dbcfem = import_dbcfem()
    ops = make_ops(workload, dbcfem)
    return time.perf_counter() - t0, dbcfem, ops


def run_op(fn, workdir):
    """Time one operation; returns (seconds, output or None, error or None)."""
    t0 = time.perf_counter()
    try:
        output = fn(workdir)
    except Exception as err:  # every failure of an op is counted, not fatal
        return time.perf_counter() - t0, None, "%s: %s" % (
            type(err).__name__, err)
    return time.perf_counter() - t0, output, None


class Run:
    """Passes over a workload's operations, with their accounting."""

    def __init__(self, workload, ops, golden, rng, workdir):
        self.workload = workload
        self.ops = ops
        self.golden = golden
        self.rng = rng
        self.workdir = workdir
        self.attempted = 0
        self.failures = []
        self.mismatches = []
        self.bytes_written = 0
        self._passes = 0

    def one_pass(self):
        """Run every op once, in seeded random order; return the op time."""
        self._passes += 1
        pass_dir = os.path.join(self.workdir, "pass-%d" % self._passes)
        os.makedirs(pass_dir)
        if self.workload == "tables-cold":
            cache = os.path.join(pass_dir, "cache")
            os.makedirs(cache)
            os.environ["DBCFEM_CACHE_DIR"] = cache
        order = list(self.ops)
        self.rng.shuffle(order)
        total = 0.0
        for name, fn in order:
            op_dir = os.path.join(pass_dir, name.replace(":", "-"))
            os.makedirs(op_dir)
            seconds, output, error = run_op(fn, op_dir)
            total += seconds
            self.attempted += 1
            if error is not None:
                self.failures.append("%s: %s" % (name, error))
                continue
            self.bytes_written += output.get("bytes_written", 0)
            diffs = self.golden.check(name, output)
            if diffs:
                self.mismatches.append("%s: %s" % (name, "; ".join(diffs)))
        shutil.rmtree(pass_dir)
        return total


def measure(args):
    seconds, dbcfem, ops = set_up(args.workload)
    if not os.environ.get("DBCFEM_CACHE_DIR"):
        raise SystemExit("DBCFEM_CACHE_DIR must be set")
    run = Run(args.workload, ops, Golden(), random.Random(args.seed),
              args.workdir)
    tracer = None
    if args.trace:
        # imported here: tracer imports numpy, which set_up must time
        from tracer import Tracer, median_metrics
        tracer = Tracer()
    plain, traced, layers = [], [], []
    if tracer is not None:
        # untimed warm-up, so that first-pass costs (fresh memory, first
        # calls) fall on neither side of the overhead
        run.one_pass()
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        # the traced run orders its passes untraced, traced, traced,
        # untraced, ... so that drift over the run cancels in the overhead
        if tracer is not None and (len(plain) + len(traced)) % 4 in (1, 2):
            tracer.reset()
            tracer.install(dbcfem)
            try:
                before = run.bytes_written
                wall = run.one_pass()
            finally:
                tracer.uninstall()
            traced.append(wall)
            layer = tracer.metrics(wall)
            layer["cli.bytes_written"] = run.bytes_written - before
            layers.append(layer)
        else:
            plain.append(run.one_pass())
        pass_s = time.perf_counter() - t_pass
        elapsed = time.perf_counter() - t_start
        enough = tracer is None or (plain and traced)
        # end the run at the pass boundary nearest to --seconds
        if enough and elapsed + pass_s / 2 > args.seconds:
            break
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": seconds, "wall_s": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": run.attempted, "failures": run.failures,
        "mismatches": run.mismatches,
    }
    if tracer is not None:
        result["traced_wall_s"] = traced
        result["layers"] = median_metrics(layers)
        result["layers"]["trace.overhead_s"] = (statistics.median(traced)
                                                - statistics.median(plain))
    return result


def fill(args):
    """Fill a reference cache with the singular study's level-7 solve."""
    os.environ["DBCFEM_CACHE_DIR"] = args.cache
    dbcfem = import_dbcfem()
    dbcfem.run_convergence(table_specs(dbcfem)["singular"])
    if not os.listdir(args.cache):
        raise SystemExit("the cache fill wrote nothing to %s" % args.cache)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "fill", "measure"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--cache")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "fill":
        fill(args)
        return 0
    if args.mode == "setup":
        result = {"setup_s": set_up(args.workload)[0]}
    else:
        result = measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
