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
from datetime import datetime, timezone

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .analysis import (boundary_walk_dofs, verify_boundary_bubble_estimate,
                       verify_discrete_stability, verify_L2_controlled_by_H1)
from .assembly import DofMap
from .expr import EvalError, ParseError
from .linalg import SolverError
from .mesh import export_vtk, mesh_hierarchy
from .problems import (NORMS, ConfigError, _errors_exact, _matrix_norms,
                       config_hash, load_config, run_convergence,
                       solve_level)

_TOLERANCES = {
    "homogeneous": 1e-12,
    "galerkin": 1e-10,
    "adjoint": 1e-10,
    "bubble_spread": 2.0,
    "stability_spread": 1.5,
}


def _write_record(path, command, spec, solutions, report):
    """Write the run record, what a command ran and what came out, as
    JSON; solves holds each level's solve_block stats."""
    record = {
        "command": command, "problem": spec.name,
        "config_hash": config_hash(spec),
        "timestamp": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "solves": [{"level": s.level, **s.stats} for s in solutions],
        "report": report}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cmd_solve(args):
    spec = load_config(args.config)
    sol = solve_level(spec, args.level)
    dofmap, mesh = sol.dofmap, sol.dofmap.mesh
    os.makedirs(args.out, exist_ok=True)

    vtk = export_vtk(mesh, fields=(sol.y, sol.z), names=("y", "z"))
    with open(os.path.join(args.out, "solution.vtk"), "wb") as fh:
        fh.write(vtk)

    dofs, arcs, coords = boundary_walk_dofs(dofmap)
    np.savetxt(os.path.join(args.out, "control.csv"),
               np.column_stack([arcs, coords, sol.y.coeffs[dofs]]),
               fmt="%.6g", delimiter=",", header="arc_length,x1,x2,u",
               comments="")

    if args.dump_matrix:
        mmwrite(os.path.join(args.out, "system.mtx"), sol.system.full())
        mmwrite(os.path.join(args.out, "rhs.mtx"),
                sp.coo_matrix(sol.system.rhs().reshape(-1, 1)))

    norms = _matrix_norms(dofmap, sol.y.coeffs, sol.z.coeffs,
                          ("l2_y", "l2_z", "l2_u"))
    norms["l2_u_boundary"] = norms.pop("l2_u")
    if spec.exact is not None:
        norms["errors"] = _errors_exact(
            spec, sol, [key for key in ("l2_y", "h1_y", "l2_z", "l2_u")
                        if NORMS[key][1] in spec.exact])

    _write_record(os.path.join(args.out, "summary.json"), "solve", spec,
                  [sol], report={
                      "level": sol.level, "num_dofs": dofmap.num_dofs,
                      "num_triangles": mesh.num_triangles,
                      "h_max": mesh.h_max, "norms": norms})
    print("solved %s level %d: %d dofs, %d cells, residual %.3e"
          % (spec.name, sol.level, dofmap.num_dofs, mesh.num_triangles,
             sol.stats["residual"]))
    return 0


def cmd_convergence(args):
    spec = load_config(args.config)
    report, solutions = run_convergence(spec)
    csv_text = report.to_csv()

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)

    stem, _ = os.path.splitext(args.out)
    _write_record(stem + ".run.json", "convergence", spec, solutions,
                  report=dict(dataclasses.asdict(report), eoc=report.eoc))

    sys.stdout.write(csv_text)
    return 0


def _level_spread(name, what, bound_key, solutions, k, measure):
    """The check (name, ok, detail) that each of the positive values
    measure(s) returns varies by at most _TOLERANCES[bound_key] (max
    over min) across the solutions of level >= k; ok is None when fewer
    than two such levels are solved."""
    kept = [s for s in solutions if s.level >= k]
    if len(kept) < 2:
        return (name, None, "skipped: needs two levels >= %d" % k)
    spread = max(math.inf if min(v) <= 0.0 else max(v) / min(v)
                 for v in zip(*map(measure, kept)))
    bound = _TOLERANCES[bound_key]
    return (name, spread <= bound, "%s %.4g over levels %s (bound %g)"
            % (what, spread, [s.level for s in kept], bound))


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

    for name, block in (("state-galerkin-identity", "galerkin"),
                        ("adjoint-consistency", "adjoint")):
        worst = max(s.stats[block] for s in solutions)
        tol = _TOLERANCES[block]
        checks.append((name, worst <= tol, "max relative residual %.3e "
                       "(tolerance %g)" % (worst, tol)))

    checks.append(_level_spread(
        "boundary-bubble-inverse-estimate", "ratio spread", "bubble_spread",
        solutions, 1,
        lambda s: (verify_boundary_bubble_estimate(s.dofmap),)))

    if (spec.exact is not None and "y" in spec.exact
            and "y_grad" in spec.exact):
        fy, grad = spec.exact_field("y"), spec.exact_field("y_grad")
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

    checks.append(_level_spread(
        "discrete-stability-bounded", "max spread", "stability_spread",
        solutions, 2, lambda s: verify_discrete_stability(s.y, spec.gamma)))
    return checks, solutions


def cmd_verify(args):
    spec = load_config(args.config)
    checks, solutions = _verify_checks(spec)
    failed = False
    for name, ok, detail in checks:
        status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
        failed = failed or (ok is not None and not ok)
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
