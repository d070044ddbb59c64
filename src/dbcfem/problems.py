"""Problem presets, JSON configs and the convergence-study driver.

A problem is a rectangle, a regularization weight gamma, a polynomial
degree, and two data expressions (source term f, target profile y_d),
optionally with closed-form solutions for error measurement.  Two
presets ship:

    example1 -- unit square with polynomial data chosen so the optimal
                state, control and adjoint are known in closed form;
                errors are measured against those expressions.
    example2 -- quarter square (0, 1/4)^2 with the nearly singular
                target (x1^2 + x2^2)^s, s = 1e-5, which has no closed
                form; errors are measured against a fine-level solve
                (the reference level), cached on disk per config hash.

JSON configs either name a preset under "problem" and override fields,
or spell out a problem from scratch.  Error columns are picked by norm
key: l2_y, h1_y, l2_z, h1_z, l2_u (u is the boundary trace of y, so its
error is a boundary L2 norm of the state).
"""

import copy
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from zipfile import BadZipFile

import numpy as np

from . import expr
from .analysis import (ConvergenceReport, FemField, compute_eoc, error_H1_semi,
                       error_L2, error_L2_boundary)
from .assembly import DofMap, build_block_system
from .linalg import METHODS, SolverConfig, solve_block
from .mesh import mesh_hierarchy, prolong_linear


class ConfigError(ValueError):
    """Invalid or inconsistent problem configuration."""


NORM_KEYS = ("l2_y", "h1_y", "l2_z", "h1_z", "l2_u")

# exact-solution entries each norm needs when errors are measured
# against closed-form expressions
_NEEDS = {"l2_y": "y", "h1_y": "y_grad", "l2_z": "z", "h1_z": "z_grad",
          "l2_u": "u"}


def compile_field(source, constants):
    """Compile an expression string into a vectorized callable (x1, x2).

    Keyword arguments:
        constants -- mapping of constant names to values, available both
                     at parse time (as names) and at evaluation
    """
    tree = expr.parse(source, constants=tuple(constants))

    def fn(x1, x2):
        return expr.eval(tree, x1, x2, constants=constants)

    fn.source = source
    return fn


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem setup; construct via load_config for JSON input."""

    name: str
    domain: tuple
    gamma: float
    degree: int
    f: str
    y_d: str
    levels: tuple
    columns: tuple
    constants: dict = None
    exact: dict = None
    reference_level: int = None
    solver_method: str = "reduced-pcg"
    solver_tolerance: float = 1e-12

    def __post_init__(self):
        fix = lambda k, v: object.__setattr__(self, k, v)
        fix("domain", tuple(float(v) for v in self.domain))
        fix("gamma", float(self.gamma))
        fix("levels", tuple(int(v) for v in self.levels))
        fix("columns", tuple((str(k), bool(o)) for k, o in self.columns))
        fix("constants", dict(self.constants or {}))

        if len(self.domain) != 4:
            raise ConfigError("domain must be (x_min, x_max, y_min, y_max)")
        if self.domain[1] <= self.domain[0] or self.domain[3] <= self.domain[2]:
            raise ConfigError("domain rectangle is empty or inverted")
        if not self.gamma > 0.0:
            raise ConfigError("gamma must be positive, got %g" % self.gamma)
        if self.degree not in (1, 2):
            raise ConfigError("degree must be 1 or 2, got %r" % (self.degree,))
        if not self.levels:
            raise ConfigError("levels must be a nonempty list")
        if self.levels[0] < 0 or any(b <= a for a, b in zip(self.levels,
                                                            self.levels[1:])):
            raise ConfigError("levels must be nonnegative and increasing")
        if not self.columns:
            raise ConfigError("columns must name at least one error norm")
        for key, _ in self.columns:
            if key not in NORM_KEYS:
                raise ConfigError("unknown norm key '%s' (choose from %s)"
                                  % (key, ", ".join(NORM_KEYS)))
        if self.solver_method not in METHODS:
            raise ConfigError("unknown solver method '%s'" % self.solver_method)
        if not 0.0 < float(self.solver_tolerance) < 1.0:
            raise ConfigError("solver tolerance must lie in (0, 1)")
        for cname in self.constants:
            if (cname in expr.VARIABLES or cname in expr.FUNCTIONS
                    or cname in ("pi", "gamma")):
                raise ConfigError("constant name '%s' is reserved" % cname)

        if self.exact is None:
            if self.reference_level is None:
                raise ConfigError("need either exact solutions or a "
                                  "reference_level to measure errors")
            if int(self.reference_level) <= max(self.levels):
                raise ConfigError("reference_level must exceed every study "
                                  "level")
            if self.degree != 1:
                raise ConfigError("reference-based errors are implemented "
                                  "for degree 1 only")
            fix("reference_level", int(self.reference_level))
        else:
            for key, _ in self.columns:
                if _NEEDS[key] not in self.exact:
                    raise ConfigError("column '%s' needs exact['%s']"
                                      % (key, _NEEDS[key]))

        self._parse_all()

    def _parse_all(self):
        sources = [("f", self.f), ("y_d", self.y_d)]
        if self.exact is not None:
            for key, value in self.exact.items():
                if key in ("y_grad", "z_grad"):
                    if len(value) != 2:
                        raise ConfigError("exact['%s'] must hold two "
                                          "components" % key)
                    sources += [(key, value[0]), (key, value[1])]
                else:
                    sources.append((key, value))
        for label, source in sources:
            try:
                expr.parse(source, constants=tuple(self.constants))
            except expr.ParseError as err:
                raise ConfigError("bad expression for %s: %s"
                                  % (label, err)) from None

    def eval_constants(self):
        return {"gamma": self.gamma, **self.constants}

    def field(self, source):
        return compile_field(source, self.eval_constants())


REGISTRY = {
    "example1": {
        "name": "example1",
        "domain": (0.0, 1.0, 0.0, 1.0),
        "gamma": 1.0,
        "degree": 1,
        "f": "-4/gamma",
        "y_d": "(2 + 1/gamma)*(x1^2 - x1 + x2^2 - x2)",
        "constants": {},
        "exact": {
            "y": "(x1^2 - x1 + x2^2 - x2)/gamma",
            "y_grad": ("(2*x1 - 1)/gamma", "(2*x2 - 1)/gamma"),
            "z": "(x1^2 - x1)*(x2^2 - x2)",
            "z_grad": ("(2*x1 - 1)*(x2^2 - x2)",
                       "(x1^2 - x1)*(2*x2 - 1)"),
            "u": "(x1^2 - x1 + x2^2 - x2)/gamma",
        },
        "levels": (0, 1, 2, 3, 4),
        "reference_level": None,
        "columns": (("h1_y", True), ("h1_z", True), ("l2_u", True)),
    },
    "example2": {
        "name": "example2",
        "domain": (0.0, 0.25, 0.0, 0.25),
        "gamma": 1.0,
        "degree": 1,
        "f": "0",
        "y_d": "(x1^2 + x2^2)^s",
        "constants": {"s": 1e-5},
        "exact": None,
        "levels": (0, 1, 2, 3, 4),
        "reference_level": 7,
        # With a zero volume force the load norm is ~1e5 times smaller
        # than |matrix|*|solution|, so even the correctly rounded exact
        # solution of the reference-level system carries a relative
        # residual near 2e-11; the default 1e-12 gate is unreachable in
        # double precision on this data and 1e-10 is the honest bound.
        "solver_tolerance": 1e-10,
        "columns": (("l2_y", True), ("l2_z", True), ("l2_u", False),
                    ("h1_y", False)),
    },
}

_CONFIG_KEYS = ("domain", "gamma", "degree", "f", "y_d", "constants", "exact",
                "levels", "reference_level", "columns", "solver_method",
                "solver_tolerance")


def _normalize_columns(columns):
    out = []
    for entry in columns:
        if isinstance(entry, str):
            out.append((entry, True))
        else:
            if len(entry) != 2:
                raise ConfigError("column entries are a norm key or a "
                                  "[key, with_order] pair")
            out.append((str(entry[0]), bool(entry[1])))
    return tuple(out)


def load_config(source):
    """Build a ProblemSpec from a preset name or a JSON config path.

    A config file may name a preset under "problem" and override any of
    its fields, or define every field itself.  Unknown keys are an
    error rather than a silent ignore.
    """
    if source in REGISTRY:
        merged = copy.deepcopy(REGISTRY[source])
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError("invalid JSON in %s: %s" % (source, err)) from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        base = data.pop("problem", None)
        if base is not None:
            if base not in REGISTRY:
                raise ConfigError("unknown problem preset '%s'" % base)
            merged = copy.deepcopy(REGISTRY[base])
        else:
            merged = {"name": os.path.splitext(os.path.basename(source))[0],
                      "constants": {}, "exact": None, "reference_level": None}
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        merged.update(data)

    missing = [k for k in ("domain", "gamma", "degree", "f", "y_d", "levels",
                           "columns") if k not in merged]
    if missing:
        raise ConfigError("config is missing: %s" % ", ".join(missing))
    merged["columns"] = _normalize_columns(merged["columns"])
    if merged.get("exact") is not None:
        exact = dict(merged["exact"])
        for key in ("y_grad", "z_grad"):
            if key in exact:
                exact[key] = tuple(exact[key])
        merged["exact"] = exact
    return ProblemSpec(**merged)


def config_hash(spec):
    """Short stable digest of the fields that determine the solution."""
    payload = {
        "domain": list(spec.domain),
        "gamma": spec.gamma,
        "degree": spec.degree,
        "f": spec.f,
        "y_d": spec.y_d,
        "constants": dict(sorted(spec.constants.items())),
        "reference_level": spec.reference_level,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class LevelSolution:
    """One solved refinement level with its consistency residuals.

    galerkin_residual checks the state rows alone (the discrete state
    equation restricted to zero-trace test functions); adjoint_residual
    checks the remaining rows.  Both are relative when the data side is
    nonzero.  iterations is the CG count of the solve, summed over the
    first solve and the refinement sweeps (0 for direct-lu).
    """

    level: int
    dofmap: DofMap
    system: object
    y: FemField
    z: FemField
    residual: float
    galerkin_residual: float
    adjoint_residual: float
    iterations: int


def _relative(num, den):
    return float(num) if den == 0.0 else float(num / den)


def solve_level(spec, level, dofmap=None, solver_config=None):
    """Assemble and solve one refinement level of a problem.

    Keyword arguments:
        dofmap -- reuse a prebuilt DofMap (and its operators) of the
                  right level and degree
        solver_config -- override the spec's solver choice
    """
    if level < 0:
        raise ConfigError("refinement level must be nonnegative, got %d"
                          % level)
    if dofmap is None:
        dofmap = DofMap(mesh_hierarchy(spec.domain, level)[-1], spec.degree)
    system = build_block_system(dofmap, spec.gamma, spec.field(spec.f),
                                spec.field(spec.y_d))
    if solver_config is None:
        solver_config = SolverConfig(method=spec.solver_method,
                                     tolerance=spec.solver_tolerance)
    stats = {}
    Y, Z = solve_block(system, solver_config, stats=stats)

    zfull = np.zeros(dofmap.num_dofs)
    zfull[system.interior] = Z
    gal = _relative(np.linalg.norm(system.A @ Y - system.F),
                    np.linalg.norm(system.F))
    adj = _relative(np.linalg.norm(system.B @ Y + system.C @ Z - system.G),
                    np.linalg.norm(system.G))
    return LevelSolution(level=level, dofmap=dofmap, system=system,
                         y=FemField(dofmap, Y), z=FemField(dofmap, zfull),
                         residual=stats["residual"],
                         galerkin_residual=gal, adjoint_residual=adj,
                         iterations=sum(stats["iterations"]))


def cache_dir():
    """Directory for cached reference solutions (DBCFEM_CACHE_DIR wins)."""
    env = os.environ.get("DBCFEM_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "dbcfem")


def get_reference(spec, dofmap, solver_config=None):
    """Solve (or load) the reference level on dofmap; returns (y, z)
    full vectors.

    A cache entry that cannot be read, or whose vectors do not have one
    value per dof of dofmap, is a miss: the level is solved again and
    the entry overwritten.  Entries are written to a temporary file and
    renamed, so a crash never leaves a partial entry under the name.
    """
    path = os.path.join(cache_dir(), "ref-%s.npz" % config_hash(spec))
    try:
        with np.load(path) as data:
            y, z = np.array(data["y"]), np.array(data["z"])
        if y.shape == z.shape == (dofmap.num_dofs,):
            return y, z
    except (BadZipFile, OSError, ValueError, KeyError, EOFError):
        pass
    sol = solve_level(spec, spec.reference_level, dofmap=dofmap,
                      solver_config=solver_config)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:  # a file object: no ".npz" appended
            np.savez(fh, y=sol.y.coeffs, z=sol.z.coeffs)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return sol.y.coeffs, sol.z.coeffs


def _errors_exact(spec, sol, keys):
    """Errors of sol against the closed-form solutions, one per norm key."""
    fns = {}
    exact = spec.exact
    out = {}
    for key in keys:
        name = _NEEDS[key]
        if name not in fns:
            if name.endswith("_grad"):
                g1 = spec.field(exact[name][0])
                g2 = spec.field(exact[name][1])
                fns[name] = lambda x1, x2, g1=g1, g2=g2: (g1(x1, x2),
                                                          g2(x1, x2))
            else:
                fns[name] = spec.field(exact[name])
        fn = fns[name]
        if key == "l2_y":
            out[key] = error_L2(sol.y, fn)
        elif key == "h1_y":
            out[key] = error_H1_semi(sol.y, fn)
        elif key == "l2_z":
            out[key] = error_L2(sol.z, fn)
        elif key == "h1_z":
            out[key] = error_H1_semi(sol.z, fn)
        else:
            out[key] = error_L2_boundary(sol.y, fn)
    return out


def run_convergence(spec, solver_config=None):
    """Solve every level of a spec and tabulate errors and orders.

    Return: (ConvergenceReport, list of LevelSolution).  With exact
    solutions the errors are quadrature integrals against them; without,
    each level is prolonged to the reference level and measured in the
    matrix norms there.
    """
    keys = [key for key, _ in spec.columns]
    errors = {key: [] for key in keys}
    hs = []
    solutions = []

    if spec.exact is not None:
        meshes = mesh_hierarchy(spec.domain, max(spec.levels))
    else:
        meshes = mesh_hierarchy(spec.domain, spec.reference_level)
        ref = DofMap(meshes[-1], 1)
        yref, zref = get_reference(spec, ref, solver_config=solver_config)
        stiff, mass, bmass = ref.stiffness, ref.mass, ref.boundary_mass
        norms = {
            "l2_y": lambda ey, ez: np.sqrt(ey @ (mass @ ey)),
            "l2_z": lambda ey, ez: np.sqrt(ez @ (mass @ ez)),
            "h1_y": lambda ey, ez: np.sqrt(ey @ (stiff @ ey)),
            "h1_z": lambda ey, ez: np.sqrt(ez @ (stiff @ ez)),
            "l2_u": lambda ey, ez: np.sqrt(ey @ (bmass @ ey)),
        }

    for level in spec.levels:
        sol = solve_level(spec, level, DofMap(meshes[level], spec.degree),
                          solver_config=solver_config)
        hs.append(sol.dofmap.mesh.h_max)
        solutions.append(sol)
        if spec.exact is not None:
            level_errors = _errors_exact(spec, sol, keys)
        else:
            py, pz = sol.y.coeffs, sol.z.coeffs
            for fine in meshes[level + 1:]:
                py = prolong_linear(py, fine)
                pz = prolong_linear(pz, fine)
            ey, ez = py - yref, pz - zref
            level_errors = {key: float(norms[key](ey, ez)) for key in keys}
        for key in keys:
            errors[key].append(level_errors[key])

    report = ConvergenceReport(
        problem=spec.name, gamma=spec.gamma, degree=spec.degree,
        levels=tuple(spec.levels), h=tuple(hs),
        errors={key: tuple(vals) for key, vals in errors.items()},
        eoc={key: compute_eoc(vals) for key, vals in errors.items()},
        columns=spec.columns)
    return report, solutions
