"""The CLI on drawn configs: every run of solve, verify and convergence
ends in a documented exit code (0, 2, 3 or 4) with at most one stderr
line and no traceback.

Each drawn batch runs through cli.main in one child process, under
-W error::RuntimeWarning and an address-space cap, so that a config the
program fails to refuse (a level that would exhaust memory, data that
leave double precision) fails the test instead of the machine.  Valid
levels stay at most 3.
"""

import json
import os
import resource
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_problems import (NON_FINITE, NUMERIC_STRINGS, TOO_FINE,
                           WRONG_CONTAINERS, WRONG_TYPES)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ADDRESS_SPACE = 2 ** 30  # bytes; a child at level 3 maps about 0.3 GB

# runs in the child: the cases (command, level, config) come on stdin,
# and [exit status, stderr] of each goes to stdout; an exception that
# escapes cli.main is recorded as status 1 with its traceback
CHILD = r"""
import contextlib, io, json, os, sys, tempfile, traceback
from dbcfem import cli

results = []
with tempfile.TemporaryDirectory() as tmp:
    os.environ["DBCFEM_CACHE_DIR"] = tmp
    for i, (command, level, config) in enumerate(json.load(sys.stdin)):
        path = os.path.join(tmp, "case%d.json" % i)
        with open(path, "w") as fh:
            json.dump(config, fh)
        argv = [command, "--config", path] + {
            "solve": ["--level", level, "--out", os.path.join(tmp, "out")],
            "convergence": ["--out", os.path.join(tmp, "table.csv")],
            "verify": []}[command]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except BaseException:
            status = 1
            err.write(traceback.format_exc())
        results.append([status, err.getvalue()])
json.dump(results, sys.stdout)
"""


def cap_address_space():     # runs in the child before it starts
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


# values of every type a JSON config can hold, which each key also draws
ANY_TYPE = [None, True, 0, -1, 1.5, 1e308, float("nan"), float("-inf"),
            "1", "x1", [], [1, [2]], {}, {"a": 1}]

EXPRESSIONS = ["0", "x1*x2", "sin(pi*x1)*x2", "-4/gamma", "s*x1",
               "1/0", "log(0)", "x1^1e308", "sqrt(-1)", "exp(1000)",
               "tan(pi/2)", "log(x1-0.5)", "1e300*x1", "1e-170*x2",
               "x1 +", "nosuch(x1)", ""]


def bad_values(key):
    """The values of key in the bad-config tables of test_problems."""
    return [v for table in (WRONG_TYPES, NON_FINITE, NUMERIC_STRINGS,
                            WRONG_CONTAINERS, TOO_FINE)
            for patch, _ in table for k, v in patch.items() if k == key]


def drawn(key, values):
    return st.sampled_from(values + bad_values(key) + ANY_TYPE).map(
        lambda v: (key, v))


LEVELS = st.lists(st.integers(0, 3), min_size=1, max_size=3,
                  unique=True).map(sorted)
KEYS = st.one_of(
    LEVELS.map(lambda v: ("levels", v)),
    drawn("levels", [[0, 40], [0, 1e308], [2, 1], [-1, 2], ["1", "2"]]),
    drawn("reference_level", [1, 2, 3, 40, "3", [3]]),
    drawn("domain", [[0, 1, 0, 1], [-1, 2, 0, 0.5], [0, 1e-152, 0, 1e-152],
                     [1, 0, 0, 1], [0, 1, 0]]),
    drawn("gamma", [1, 0.01, 1e-300, 1e300, 0]),
    drawn("degree", [1, 2, 3]),
    drawn("f", EXPRESSIONS),
    drawn("y_d", EXPRESSIONS),
    drawn("columns", [["l2_y", "h1_y"], [["l2_u", False]], ["nope"],
                      "l2_y", [["l2_y"]]]),
    drawn("constants", [{"s": 1e-5}, {"s": 1e308}, {"x1": 1},
                        {"gamma": 2}]),
    drawn("exact", [None, {"y": "x1"}, {"q": "1"}, {"y_grad": "x1"}]),
    drawn("solver_tolerance", [1e-10, 1e-30, 2, 0]),
)
# a preset at levels 0-2 with a level-3 reference, and up to three keys
# set to drawn values
CASES = st.tuples(
    st.sampled_from(["solve", "verify", "convergence"]),
    st.sampled_from(["0", "3", "-1", "40", "1e308"]),
    st.tuples(st.sampled_from(["example1", "example2"]),
              st.lists(KEYS, max_size=3)).map(
        lambda d: {"problem": d[0], "levels": [0, 1, 2],
                   "reference_level": 3, **dict(d[1])}))


@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(CASES, min_size=12, max_size=12))
def test_every_run_ends_in_a_documented_exit(cases):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", CHILD],
        input=json.dumps(cases), capture_output=True, text=True, env=env,
        preexec_fn=cap_address_space, timeout=120)
    assert child.returncode == 0, child.stderr
    for case, (status, err) in zip(cases, json.loads(child.stdout)):
        assert status in (0, 2, 3, 4), (case, err)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (
            case, err)
