"""Command-line harness: solve, convergence studies, property checks.

Three subcommands:

    solve        -- one level; writes solution.vtk (state and adjoint as
                    point data), control.csv (the control along the
                    boundary walk) and summary.json, optionally the
                    assembled system in Matrix Market form.
    convergence  -- all configured levels; writes the error/order table
                    as CSV (byte-identical across reruns) plus a run
                    record JSON next to it.
    verify       -- the property suite: homogeneous data gives the zero
                    solution, the state rows satisfy their Galerkin
                    identity, the adjoint rows are consistent, random
                    boundary bubbles respect the inverse estimate, the
                    L2 error stays controlled by the H1 error, and the
                    stability quantities stay bounded under refinement.

Exit codes: 0 success, 2 configuration or usage error, 3 solver
failure, 4 verification failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .analysis import (boundary_walk_dofs, verify_boundary_bubble_estimate,
                       verify_discrete_stability, verify_L2_controlled_by_H1)
from .assembly import DofMap
from .expr import EvalError, ParseError
from .linalg import SolverError, save_matrix_market
from .mesh import export_vtk, mesh_hierarchy
from .problems import (_NEEDS, ConfigError, _errors_exact, config_hash,
                       load_config, run_convergence, solve_level)

_TOLERANCES = {
    "homogeneous": 1e-12,
    "galerkin": 1e-10,
    "adjoint": 1e-10,
    "bubble_spread": 2.0,
    "stability_spread": 1.5,
}


@dataclass
class RunRecord:
    """What a command ran and what came out, for reproducibility."""

    command: str
    problem: str
    config_hash: str
    timestamp: str
    levels: list
    residuals: list
    iterations: list
    galerkin_residuals: list
    adjoint_residuals: list
    report: dict = None
    checks: dict = None

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"


def _timestamp():
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _record(command, spec, solutions, **extra):
    return RunRecord(
        command=command, problem=spec.name, config_hash=config_hash(spec),
        timestamp=_timestamp(), levels=[s.level for s in solutions],
        residuals=[s.residual for s in solutions],
        iterations=[s.iterations for s in solutions],
        galerkin_residuals=[s.galerkin_residual for s in solutions],
        adjoint_residuals=[s.adjoint_residual for s in solutions], **extra)


def cmd_solve(args):
    spec = load_config(args.config)
    sol = solve_level(spec, args.level)
    dofmap, mesh = sol.dofmap, sol.dofmap.mesh
    os.makedirs(args.out, exist_ok=True)

    vtk = export_vtk(mesh, fields=(sol.y, sol.z), names=("y", "z"))
    with open(os.path.join(args.out, "solution.vtk"), "wb") as fh:
        fh.write(vtk)

    dofs, arcs, coords = boundary_walk_dofs(dofmap)
    lines = ["arc_length,x1,x2,u"]
    for s, (x1, x2), value in zip(arcs, coords, sol.y.coeffs[dofs]):
        lines.append("%.6g,%.6g,%.6g,%.6g" % (s, x1, x2, value))
    with open(os.path.join(args.out, "control.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    if args.dump_matrix:
        save_matrix_market(os.path.join(args.out, "system.mtx"),
                           sol.system.full())
        save_matrix_market(os.path.join(args.out, "rhs.mtx"),
                           sol.system.rhs().reshape(-1, 1))

    mass, bmass = dofmap.mass, dofmap.boundary_mass
    norms = {
        "l2_y": math.sqrt(sol.y.coeffs @ (mass @ sol.y.coeffs)),
        "l2_z": math.sqrt(sol.z.coeffs @ (mass @ sol.z.coeffs)),
        "l2_u_boundary": math.sqrt(sol.y.coeffs @ (bmass @ sol.y.coeffs)),
    }
    if spec.exact is not None:
        norms["errors"] = _errors_exact(
            spec, sol, [key for key in ("l2_y", "h1_y", "l2_z", "l2_u")
                        if _NEEDS[key] in spec.exact])

    record = _record("solve", spec, [sol], report={
        "level": sol.level, "num_dofs": dofmap.num_dofs,
        "num_triangles": mesh.num_triangles, "h_max": mesh.h_max,
        "norms": norms})
    with open(os.path.join(args.out, "summary.json"), "w",
              encoding="utf-8") as fh:
        fh.write(record.to_json())
    print("solved %s level %d: %d dofs, %d cells, residual %.3e"
          % (spec.name, sol.level, dofmap.num_dofs, mesh.num_triangles,
             sol.residual))
    return 0


def cmd_convergence(args):
    spec = load_config(args.config)
    report, solutions = run_convergence(spec)
    csv_text = report.to_csv()

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)

    record = _record("convergence", spec, solutions, report={
        "h": list(report.h),
        "errors": {k: list(v) for k, v in report.errors.items()},
        "eoc": {k: list(v) for k, v in report.eoc.items()},
        "columns": [list(c) for c in report.columns]})
    stem, _ = os.path.splitext(args.out)
    with open(stem + ".run.json", "w", encoding="utf-8") as fh:
        fh.write(record.to_json())

    sys.stdout.write(csv_text)
    return 0


def _spread(values):
    lo, hi = min(values), max(values)
    return math.inf if lo <= 0.0 else hi / lo


def _verify_checks(spec):
    """Run the property suite; returns a list of (name, ok, detail).

    ok is None for checks the config cannot exercise (no closed-form
    solution, or too few levels).
    """
    checks = []
    meshes = mesh_hierarchy(spec.domain, max(spec.levels))
    solutions = [solve_level(spec, lv, DofMap(meshes[lv], spec.degree))
                 for lv in spec.levels]

    zero_spec = dataclasses.replace(spec, f="0", y_d="0")
    worst = 0.0
    for s in solutions:
        sol = solve_level(zero_spec, s.level, s.dofmap)
        worst = max(worst, float(np.abs(sol.y.coeffs).max()),
                    float(np.abs(sol.z.coeffs).max()))
    tol = _TOLERANCES["homogeneous"]
    checks.append(("homogeneous-data-zero-solution", worst <= tol,
                   "max |coefficient| %.3e (tolerance %g)" % (worst, tol)))

    gal = max(s.galerkin_residual for s in solutions)
    tol = _TOLERANCES["galerkin"]
    checks.append(("state-galerkin-identity", gal <= tol,
                   "max relative residual %.3e (tolerance %g)" % (gal, tol)))

    adj = max(s.adjoint_residual for s in solutions)
    tol = _TOLERANCES["adjoint"]
    checks.append(("adjoint-consistency", adj <= tol,
                   "max relative residual %.3e (tolerance %g)" % (adj, tol)))

    bubble_sols = [s for s in solutions if s.level >= 1]
    if len(bubble_sols) >= 2:
        ratios = [verify_boundary_bubble_estimate(s.dofmap)
                  for s in bubble_sols]
        spread = _spread(ratios)
        bound = _TOLERANCES["bubble_spread"]
        checks.append(("boundary-bubble-inverse-estimate", spread <= bound,
                       "ratio spread %.4g over levels %s (bound %g)"
                       % (spread, [s.level for s in bubble_sols], bound)))
    else:
        checks.append(("boundary-bubble-inverse-estimate", None,
                       "skipped: needs two levels >= 1"))

    if (spec.exact is not None and "y" in spec.exact
            and "y_grad" in spec.exact):
        fy = spec.field(spec.exact["y"])
        g1 = spec.field(spec.exact["y_grad"][0])
        g2 = spec.field(spec.exact["y_grad"][1])
        grad = lambda x1, x2: (g1(x1, x2), g2(x1, x2))
        ratios = [verify_L2_controlled_by_H1(s.y, fy, grad)
                  for s in solutions]
        ok = (all(math.isfinite(r) for r in ratios)
              and all(b <= a * (1.0 + 1e-9)
                      for a, b in zip(ratios, ratios[1:])))
        checks.append(("l2-error-controlled-by-h1", ok,
                       "ratios %s" % ["%.4g" % r for r in ratios]))
    else:
        checks.append(("l2-error-controlled-by-h1", None,
                       "skipped: no closed-form state"))

    stab_sols = [s for s in solutions if s.level >= 2]
    if len(stab_sols) >= 2:
        combined, hhalf = [], []
        for s in stab_sols:
            c, hh = verify_discrete_stability(s.y, spec.gamma)
            combined.append(c)
            hhalf.append(hh)
        spread = max(_spread(combined), _spread(hhalf))
        bound = _TOLERANCES["stability_spread"]
        checks.append(("discrete-stability-bounded", spread <= bound,
                       "max spread %.4g over levels %s (bound %g)"
                       % (spread, [s.level for s in stab_sols], bound)))
    else:
        checks.append(("discrete-stability-bounded", None,
                       "skipped: needs two levels >= 2"))
    return checks, solutions


def cmd_verify(args):
    spec = load_config(args.config)
    checks, solutions = _verify_checks(spec)
    failed = False
    for name, ok, detail in checks:
        status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        failed = failed or ok is False
        print("%s %s: %s" % (status, name, detail))
    return 4 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dbcfem",
        description="Dirichlet boundary control of the Poisson equation "
                    "by a coupled finite-element solve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one refinement level")
    p_solve.add_argument("--config", required=True,
                         help="preset name or JSON config path")
    p_solve.add_argument("--level", type=int, required=True,
                         help="number of uniform refinements")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.add_argument("--dump-matrix", action="store_true",
                         help="also write the coupled system and right-hand "
                              "side in Matrix Market form")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("convergence",
                            help="error/order table over all levels")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--out", required=True, help="output CSV path")
    p_conv.set_defaults(func=cmd_convergence)

    p_verify = sub.add_parser("verify", help="run the property suite")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code in (0, None) else 2

    try:
        return args.func(args)
    except (ConfigError, ParseError, EvalError, json.JSONDecodeError,
            OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except SolverError as err:
        print("solver error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
