"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
from harness import Run, import_dbcfem  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402
from workloads import Golden, run_cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def dbcfem():
    return import_dbcfem()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def inner():
        clock.now += 1.0
        tracer.call("b", "g.b", leaf, (2.0,), {})
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        tracer.call("a", "g.a", inner, (), {})
        tracer.call("c", "g.b", leaf, (4.0,), {})

    tracer.call("root", "g.root", outer, (), {})
    durations = [s.end - s.start for s in tracer.spans]
    assert [s.name for s in tracer.spans] == ["root", "a", "b", "c"]
    assert durations == [10.5, 3.5, 2.0, 4.0]
    assert tracer.self_times() == [3.0, 1.5, 2.0, 4.0]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_span_records_the_exception_type():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("f", "g", boom, (), {})
    assert tracer.spans[0].error == "ValueError"
    assert tracer._stack == []


def test_metric_names_and_units_are_well_formed():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["end_to_end"] + spec["per_layer"]
    names = ([m["name"] for m in declared] + list(UNITS)
             + list(bench_run.END_TO_END) + ["fail_share",
                                             "output_mismatches"])
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in spec["per_layer"]] == list(bench_run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    for m in spec["per_layer"]:
        assert UNITS[m["name"]] == m["unit"]
    assert [w["name"] for w in spec["workloads"]] == \
        list(bench_run.WORKLOADS)


def make_run(ops, tmp_path, golden=None):
    class NoGolden:
        def check(self, op, output):
            return []
    return Run("test", ops, golden or NoGolden(), random.Random(0),
               str(tmp_path))


def test_solver_error_and_cli_exit_code_count_as_failures(dbcfem, tmp_path):
    def solver_fails(workdir):
        raise dbcfem.SolverError("forced")

    def bad_config(workdir):
        return run_cli(dbcfem, ["verify", "--config", "no-such-preset"])

    def ok(workdir):
        return {}

    run = make_run([("a", solver_fails), ("b", bad_config), ("c", ok)],
                   tmp_path)
    run.one_pass()
    assert run.attempted == 3
    assert len(run.failures) == 2
    assert any("SolverError: forced" in f for f in run.failures)
    assert any("exited with 2" in f for f in run.failures)


def test_golden_check_catches_a_one_digit_change_in_a_csv():
    golden = Golden()
    text = golden._text("tables", "energy.csv")
    assert golden.check("table:energy", {"csv": text}) == []
    changed = text.replace("0.709855", "0.709856", 1)
    assert changed != text
    assert golden.check("table:energy", {"csv": changed})


def test_golden_check_of_numbers_uses_the_relative_tolerance():
    golden = Golden()
    ref = dict(golden.outputs["p2:level4"])
    assert golden.check("p2:level4", ref) == []
    near = dict(ref, h1_y=ref["h1_y"] * (1 + 1e-9))
    assert golden.check("p2:level4", near) == []
    far = dict(ref, h1_y=ref["h1_y"] * (1 + 1e-4))
    assert golden.check("p2:level4", far)


def test_tracer_wraps_the_names_callers_resolve(dbcfem):
    spec = dbcfem.load_config("example1")
    originals = (dbcfem.problems.solve_block, dbcfem.assembly.DofMap,
                 dbcfem.assembly.DofMap.__init__)
    tracer = Tracer()
    tracer.install(dbcfem)
    try:
        assert isinstance(dbcfem.problems.DofMap, type)
        dbcfem.solve_level(spec, 1)
    finally:
        tracer.uninstall()
    assert (dbcfem.problems.solve_block, dbcfem.assembly.DofMap,
            dbcfem.assembly.DofMap.__init__) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "problems.solve_level"
    for name in ("assembly.DofMap.__init__", "assembly.assemble_stiffness",
                 "assembly.build_block_system", "linalg.solve_block",
                 "linalg.residual", "expr.eval"):
        assert name in names, name
    solve = tracer.spans[names.index("linalg.solve_block")]
    assert tracer.spans[solve.parent].name == "problems.solve_level"
    metrics = tracer.metrics(1.0)
    assert metrics["linalg.solves"] == 1
    assert metrics["assembly.operator_calls"] == 3
    assert metrics["mesh.triangles_built"] > 0
    assert set(metrics) | {"trace.overhead_s"} == set(UNITS)
