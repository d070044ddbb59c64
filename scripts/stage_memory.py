#!/usr/bin/env python3
"""Print the peak resident memory after each stage of one cold solve.

Runs the stages of problems.solve_level one at a time on a fresh
process's empty heap: the mesh, the DofMap with its cell geometry, the
stiffness K, the mass M, the boundary mass M_Gamma, the two loads, and
the solve.  After each it prints ru_maxrss / 1024, the peak resident
set in MB (Linux reports ru_maxrss in KB), so the stage that sets the
peak is the first one that raises it to its final value.  A solve that
fails its residual gate prints the error as one line after its stage;
the peaks are still measured.  Any other failure ends as dbcfem ends
it: one stderr line and exit code 2, or 3 for a solver failure.  The
peak never falls, so main() called twice in one process reads the
first call's peaks where they are higher.

    python3 scripts/stage_memory.py --config example2 --level 9
"""

import resource
import sys

from dbcfem import (DofMap, SolverConfig, SolverError, build_block_system,
                    load_config, mesh_hierarchy, solve_block)
from dbcfem.cli import Parser
from dbcfem.problems import check_level


def stage(name):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("%-28s %9.1f" % (name, peak), flush=True)


def run_stages(source, level):
    spec = load_config(source)
    check_level("--level", level, spec)
    print("%-28s %9s" % ("after stage", "peak MB"))
    stage("start")
    mesh = mesh_hierarchy(spec.domain, level)[-1]
    stage("mesh")
    dofmap = DofMap(mesh, spec.degree)
    dofmap.cell_geometry
    stage("DofMap and cell geometry")
    dofmap.stiffness
    stage("stiffness K")
    dofmap.mass
    stage("mass M")
    dofmap.boundary_mass
    stage("boundary mass M_Gamma")
    system = build_block_system(dofmap, spec.gamma, spec.field(spec.f),
                                spec.field(spec.y_d))
    stage("loads")
    try:
        solve_block(system, SolverConfig(spec.solver_tolerance))
        error = None
    except SolverError as err:
        error = err
    stage("solve")
    if error is not None:
        print("SolverError: %s" % error)
    return 0


def main(argv=None):
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True,
                        help="preset name or JSON config path")
    parser.add_argument("--level", type=int, required=True,
                        help="refinement level to solve")
    args = parser.parse_args(argv)
    return parser.run(lambda: run_stages(args.config, args.level))


if __name__ == "__main__":
    sys.exit(main())
