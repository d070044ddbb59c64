"""The benchmark's workloads: their specs, operations and golden outputs.

Every operation goes through the public API of dbcfem (`load_config`,
`run_convergence`, `solve_level`, the error norms and `dbcfem.cli.main`)
and returns an output dict that `Golden.check` compares with the
outputs the seed program recorded under `golden/`.

Tolerances of the golden check:

- table CSVs are compared byte for byte;
- the PASS/FAIL/SKIP status of each verify check must be equal;
- mesh sizes and dof counts must be equal, and the VTK geometry
  (everything before POINT_DATA) must be byte-identical;
- norms, errors and VTK field values must agree to RTOL relative to
  the recorded value (for a field: to its largest magnitude).  The
  solver gate is a 1e-12 relative residual, which perturbs these
  numbers far less than 1e-6, while any change to the discretisation
  moves them by much more;
- control.csv is printed with 6 significant digits, so it is compared
  to CONTROL_RTOL of each column's largest magnitude.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os

WORKLOADS = ("tables-cold", "tables-warm", "p2-levels", "cli-verify-solve")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-6
CONTROL_RTOL = 1e-5
P2_LEVELS = (4, 5, 6)
CLI_LEVEL = 6
VTK_SAMPLES = 129


class OpFailed(RuntimeError):
    """An operation ended without an exception but did not succeed."""


def table_specs(dbcfem):
    """The four studies of scripts/make_tables.py, copied so that an edit
    to the script cannot change the workload."""
    smooth = dbcfem.load_config("example1")
    return {
        "energy": smooth,
        "l2": dataclasses.replace(
            smooth, levels=(0, 1, 2, 3, 4, 5),
            columns=(("l2_y", True), ("l2_z", True))),
        "small-gamma": dataclasses.replace(
            smooth, gamma=0.01,
            columns=(("l2_y", True), ("h1_z", True), ("l2_u", True))),
        "singular": dbcfem.load_config("example2"),
    }


def make_ops(workload, dbcfem):
    """Load and validate the workload's specs; return its operations.

    Each operation is a (name, fn) pair; fn(workdir) runs it with a
    fresh, empty directory of its own and returns its output dict.
    """
    if workload in ("tables-cold", "tables-warm"):
        return [("table:%s" % name, _table_op(dbcfem, spec))
                for name, spec in sorted(table_specs(dbcfem).items())]
    if workload == "p2-levels":
        spec = p2_spec(dbcfem)
        return [("p2:level%d" % level, _p2_op(dbcfem, spec, level))
                for level in P2_LEVELS]
    if workload == "cli-verify-solve":
        ops = []
        for config in ("example1", "example2"):
            dbcfem.load_config(config)
            ops.append(("verify:%s" % config, _verify_op(dbcfem, config)))
            ops.append(("solve:%s" % config, _solve_op(dbcfem, config)))
        return ops
    raise ValueError("unknown workload %r" % (workload,))


def _table_op(dbcfem, spec):
    def run(workdir):
        report, _ = dbcfem.run_convergence(spec)
        return {"csv": report.to_csv()}
    return run


def p2_spec(dbcfem):
    """example1 at degree 2 and gamma 1."""
    return dataclasses.replace(dbcfem.load_config("example1"), degree=2,
                               gamma=1.0)


def p2_errors(dbcfem, spec, sol):
    """Closed-form h1_y, h1_z and l2_u errors of one solved level."""
    def grad(key):
        g1, g2 = (spec.field(s) for s in spec.exact[key])
        return lambda x1, x2: (g1(x1, x2), g2(x1, x2))
    return {
        "num_dofs": int(sol.dofmap.num_dofs),
        "h1_y": dbcfem.error_H1_semi(sol.y, grad("y_grad")),
        "h1_z": dbcfem.error_H1_semi(sol.z, grad("z_grad")),
        "l2_u": dbcfem.error_L2_boundary(sol.y, spec.field(spec.exact["u"])),
    }


def _p2_op(dbcfem, spec, level):
    def run(workdir):
        return p2_errors(dbcfem, spec, dbcfem.solve_level(spec, level))
    return run


def run_cli(dbcfem, argv):
    """dbcfem.cli.main(argv) with its standard streams captured.

    Raises OpFailed on a non-zero exit code; returns the captured stdout.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dbcfem.cli.main(argv)
    if code != 0:
        raise OpFailed("dbcfem %s exited with %r: %s"
                       % (" ".join(argv), code, err.getvalue().strip()))
    return out.getvalue()


def _verify_op(dbcfem, config):
    def run(workdir):
        text = run_cli(dbcfem, ["verify", "--config", config])
        status = {}
        for line in text.splitlines():
            word, _, rest = line.partition(" ")
            if word in ("PASS", "FAIL", "SKIP"):
                status[rest.split(":", 1)[0]] = word
        return {"status": status}
    return run


def _solve_op(dbcfem, config):
    def run(workdir):
        run_cli(dbcfem, ["solve", "--config", config, "--level",
                         str(CLI_LEVEL), "--out", workdir])
        return read_solve_outputs(workdir)
    return run


def read_solve_outputs(workdir):
    """Output dict of `dbcfem solve` from the files it wrote."""
    with open(os.path.join(workdir, "summary.json"), encoding="utf-8") as fh:
        report = json.load(fh)["report"]
    with open(os.path.join(workdir, "control.csv"), encoding="utf-8") as fh:
        control = fh.read()
    with open(os.path.join(workdir, "solution.vtk"), "rb") as fh:
        vtk = vtk_sketch(fh.read())
    written = sum(os.path.getsize(os.path.join(workdir, f))
                  for f in os.listdir(workdir))
    return {"summary": report, "control": control, "vtk": vtk,
            "bytes_written": written}


def vtk_sketch(data):
    """Geometry digest and per-field magnitudes and samples of a VTK file.

    The fields are sampled at VTK_SAMPLES evenly spaced vertices, which
    keeps the recorded file small and still catches a reordered,
    truncated or rescaled field.
    """
    import numpy as np
    head, _, tail = data.partition(b"POINT_DATA")
    lines = tail.decode("ascii").split("\n")
    n = int(lines[0].split()[0])
    fields, i = {}, 1
    while i < len(lines) and lines[i].startswith("SCALARS"):
        values = np.array(lines[i + 2:i + 2 + n], dtype=np.float64)
        pick = np.linspace(0, n - 1, VTK_SAMPLES).astype(np.int64)
        fields[lines[i].split()[1]] = {
            "max_abs": float(np.abs(values).max()),
            "l2": float(np.linalg.norm(values)),
            "samples": values[pick].tolist(),
        }
        i += 2 + n
    return {"geometry_sha256": hashlib.sha256(head).hexdigest(),
            "num_points": n, "fields": fields}


# --- golden outputs ------------------------------------------------------

def _close(value, ref, scale, rtol):
    return abs(value - ref) <= rtol * abs(scale)


def _compare_numbers(label, value, ref, rtol, out):
    """Recursively compare JSON-like numbers relative to each reference."""
    if isinstance(ref, dict):
        if set(value) != set(ref):
            out.append("%s: keys %s != %s" % (label, sorted(value),
                                              sorted(ref)))
            return
        for key in ref:
            _compare_numbers("%s.%s" % (label, key), value[key], ref[key],
                             rtol, out)
    elif isinstance(ref, int) and not isinstance(ref, bool):
        if value != ref:
            out.append("%s: %r != %r" % (label, value, ref))
    elif isinstance(ref, float):
        if not _close(value, ref, ref, rtol):
            out.append("%s: %.17g != %.17g" % (label, value, ref))
    elif value != ref:
        out.append("%s: %r != %r" % (label, value, ref))


def _compare_control(value, ref, out):
    def parse(text):
        lines = text.strip().split("\n")
        return lines[0], [[float(v) for v in line.split(",")]
                          for line in lines[1:]]
    head, rows = parse(value)
    ref_head, ref_rows = parse(ref)
    if head != ref_head or len(rows) != len(ref_rows):
        out.append("control.csv: header or row count differs")
        return
    for col in range(len(ref_head.split(","))):
        scale = max(abs(r[col]) for r in ref_rows)
        bad = sum(1 for r, g in zip(rows, ref_rows)
                  if not _close(r[col], g[col], scale, CONTROL_RTOL))
        if bad:
            out.append("control.csv column %d: %d rows differ" % (col, bad))


def _compare_vtk(value, ref, out):
    if value["geometry_sha256"] != ref["geometry_sha256"]:
        out.append("solution.vtk: geometry differs")
    if value["num_points"] != ref["num_points"] or (
            set(value["fields"]) != set(ref["fields"])):
        out.append("solution.vtk: point count or field names differ")
        return
    for name, g in ref["fields"].items():
        f = value["fields"][name]
        scale = g["max_abs"]
        pairs = ([(f["max_abs"], g["max_abs"]), (f["l2"], g["l2"])]
                 + list(zip(f["samples"], g["samples"])))
        bad = sum(1 for a, b in pairs if not _close(a, b, scale, RTOL))
        if bad:
            out.append("solution.vtk field %s: %d values differ"
                       % (name, bad))


class Golden:
    """The seed's recorded outputs, and the check against them."""

    def __init__(self, root=GOLDEN_DIR):
        self.root = root
        with open(os.path.join(root, "outputs.json"), encoding="utf-8") as fh:
            self.outputs = json.load(fh)

    def _text(self, *parts):
        with open(os.path.join(self.root, *parts), encoding="utf-8",
                  newline="") as fh:
            return fh.read()

    def check(self, op, output):
        """List of differences between an op's output and the record."""
        out = []
        kind, _, name = op.partition(":")
        if kind == "table":
            if output["csv"] != self._text("tables", name + ".csv"):
                out.append("%s.csv is not byte-identical" % name)
        elif kind == "solve":
            ref = self.outputs[op]
            _compare_numbers("summary", output["summary"], ref["summary"],
                             RTOL, out)
            _compare_control(output["control"],
                             self._text("control", name + ".csv"), out)
            _compare_vtk(output["vtk"], ref["vtk"], out)
        else:
            _compare_numbers(op, output, self.outputs[op], RTOL, out)
        return out
