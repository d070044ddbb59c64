"""Dirichlet boundary control of the Poisson equation, one-shot FEM.

The optimal control enters as the Dirichlet trace of the state, and the
discrete optimality system is solved in one coupled block solve for the
state and adjoint; the control is then read off as the boundary trace
of the discrete state.
"""

__version__ = "0.1.0"

from .analysis import (ConvergenceReport, FemField, boundary_L2_projection,
                       boundary_walk_dofs, compute_eoc, error_H1_semi,
                       error_L2, error_L2_boundary, seminorm_H_half_boundary,
                       verify_boundary_bubble_estimate,
                       verify_discrete_stability, verify_L2_controlled_by_H1)
from .assembly import (BlockSystem, DofMap, assemble_boundary_mass,
                       assemble_load, assemble_mass, assemble_stiffness,
                       build_block_system)
from .elements import ReferenceBasis, segment_quadrature, triangle_quadrature
from .expr import EvalError, ParseError
from .linalg import SolverConfig, SolverError, residual, solve_block
from .mesh import (TriMesh, export_vtk, make_initial_mesh, mesh_hierarchy,
                   prolong_linear, refine_uniform)
from .problems import (ConfigError, ProblemSpec, config_hash, load_config,
                       run_convergence, solve_level)

__all__ = [
    "BlockSystem", "ConfigError", "ConvergenceReport", "DofMap", "EvalError",
    "FemField", "ParseError", "ProblemSpec", "ReferenceBasis", "SolverConfig",
    "SolverError", "TriMesh", "assemble_boundary_mass", "assemble_load",
    "assemble_mass", "assemble_stiffness", "boundary_L2_projection",
    "boundary_walk_dofs",
    "build_block_system", "compute_eoc", "config_hash",
    "error_H1_semi", "error_L2", "error_L2_boundary", "export_vtk",
    "load_config", "make_initial_mesh", "mesh_hierarchy",
    "prolong_linear", "refine_uniform", "residual", "run_convergence",
    "segment_quadrature", "seminorm_H_half_boundary", "solve_block",
    "solve_level", "triangle_quadrature", "verify_boundary_bubble_estimate",
    "verify_discrete_stability", "verify_L2_controlled_by_H1",
    "__version__",
]
