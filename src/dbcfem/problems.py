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

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields, replace
from zipfile import BadZipFile

import numpy as np

from . import analysis, expr
from .analysis import ConvergenceReport, FemField
from .assembly import BlockSystem, DofMap, build_block_system
from .linalg import SolverConfig, solve_block
from .mesh import mesh_hierarchy, prolong_linear


class ConfigError(ValueError):
    """Invalid or inconsistent problem configuration."""


# norm key -> (solution field, exact entry, closed-form error in
# analysis, DofMap operator of the matrix norm).  The error function is
# looked up by name at each use, so a wrapper installed on the analysis
# module (a tracer, a test double) sees every call.
NORMS = {
    "l2_y": ("y", "y", "error_L2", "mass"),
    "h1_y": ("y", "y_grad", "error_H1_semi", "stiffness"),
    "l2_z": ("z", "z", "error_L2", "mass"),
    "h1_z": ("z", "z_grad", "error_H1_semi", "stiffness"),
    "l2_u": ("y", "u", "error_L2_boundary", "boundary_mass"),
}
NORM_KEYS = tuple(NORMS)
EXACT_KEYS = tuple(entry for _, entry, _, _ in NORMS.values())


def _column(entry):
    """(key, with_order) from a norm key or a [key, with_order] pair."""
    if isinstance(entry, str):
        return entry, True
    if len(entry) != 2:
        raise ConfigError("column entries are a norm key or a "
                          "[key, with_order] pair")
    if not isinstance(entry[1], (bool, np.bool_)):
        raise TypeError("with_order must be true or false, got %r"
                        % (entry[1],))
    return str(entry[0]), bool(entry[1])


def _real(v):
    """float(v) of a finite number, refusing the strings and bools that
    float() takes."""
    if isinstance(v, (str, bool, np.bool_)) or not np.isfinite(float(v)):
        raise ValueError("expected a finite number, got %r" % (v,))
    return float(v)


def _integer(v):
    """int(v) of an integral number; int() would truncate 1.5 or take True."""
    if isinstance(v, (bool, np.bool_)) or int(v) != v:
        raise ValueError("expected an integer, got %r" % (v,))
    return int(v)


def _items(convert):
    """tuple(map(convert, v)) of a sequence v that is not a string or a
    mapping, whose iteration would read its characters or its keys."""
    def run(v):
        if isinstance(v, (str, Mapping)):
            raise TypeError("expected a list, got %r" % (v,))
        return tuple(map(convert, v))
    return run


def _mapping(v):
    """v itself if it is a mapping; dict() would also take a list of
    pairs."""
    if not isinstance(v, Mapping):
        raise TypeError("expected a mapping, got %r" % (v,))
    return v


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem setup; see load_config for presets and JSON.

    Every spec, from JSON, a preset, direct construction or
    dataclasses.replace, is normalized and checked here: a column is a
    norm key or a (key, with_order) pair with a boolean with_order,
    exact holds only the EXACT_KEYS and its *_grad entries are pairs,
    numbers are finite and not strings, expressions are strings, a list
    is neither a string nor a mapping, and constants is a mapping.
    constants and exact are copied, never shared with the spec replaced.
    A value that does not convert is a ConfigError that names its key.
    """

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
    solver_tolerance: float = SolverConfig.tolerance

    def __post_init__(self):
        def fix(key, convert):
            try:
                value = convert(getattr(self, key))
            except (TypeError, ValueError, OverflowError,
                    AttributeError) as err:
                raise ConfigError("bad value for %s: %s"
                                  % (key, err)) from None
            object.__setattr__(self, key, value)

        fix("domain", _items(_real))
        fix("gamma", _real)
        fix("degree", _integer)
        fix("levels", _items(_integer))
        fix("columns", _items(_column))
        fix("constants", lambda v: {k: _real(c) for k, c in _mapping(
            {} if v is None else v).items()})
        if self.exact is not None:
            pair = _items(lambda c: c)
            fix("exact", lambda v: {k: pair(e) if k.endswith("_grad") else e
                                    for k, e in v.items()})
            unknown = sorted(set(self.exact) - set(EXACT_KEYS))
            if unknown:
                raise ConfigError("unknown exact entries: %s (choose from "
                                  "%s)" % (", ".join(unknown),
                                           ", ".join(EXACT_KEYS)))
        if self.reference_level is not None:
            fix("reference_level", _integer)

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
        try:
            SolverConfig(self.solver_tolerance)
        except (TypeError, ValueError) as err:
            raise ConfigError("bad solver settings: %s" % err) from None
        for cname in self.constants:
            if cname in ("gamma", *expr.VARIABLES, *expr.FUNCTIONS,
                         *expr.BUILTINS):
                raise ConfigError("constant name '%s' is reserved" % cname)

        if self.exact is None:
            if self.reference_level is None:
                raise ConfigError("need either exact solutions or a "
                                  "reference_level to measure errors")
            if self.reference_level <= max(self.levels):
                raise ConfigError("reference_level must exceed every study "
                                  "level")
            if self.degree != 1:
                raise ConfigError("reference-based errors are implemented "
                                  "for degree 1 only")
        else:
            for key, _ in self.columns:
                if NORMS[key][1] not in self.exact:
                    raise ConfigError("column '%s' needs exact['%s']"
                                      % (key, NORMS[key][1]))

        sources = [("f", self.f), ("y_d", self.y_d)]
        for key, value in (self.exact or {}).items():
            if key.endswith("_grad"):
                if len(value) != 2:
                    raise ConfigError("exact['%s'] must hold two "
                                      "components" % key)
                sources += [(key, value[0]), (key, value[1])]
            else:
                sources.append((key, value))
        for label, source in sources:
            if not isinstance(source, str):
                raise ConfigError("bad expression for %s: %r is not a string"
                                  % (label, source))
            try:
                self.field(source)
            except expr.ParseError as err:
                raise ConfigError("bad expression for %s: %s"
                                  % (label, err)) from None

    def field(self, source):
        """Vectorized callable (x1, x2) of an expression string; its
        `tree` attribute is the parse tree, in which gamma and the
        declared constants are already numbers (see expr.parse)."""
        tree = expr.parse(source, {"gamma": self.gamma, **self.constants})
        # expr.eval is looked up at each call, so a wrapper installed on
        # the expr module sees every evaluation
        fn = lambda x1, x2: expr.eval(tree, x1, x2)
        fn.tree = tree
        return fn

    def exact_field(self, name):
        """Callable of exact[name]; a *_grad entry returns the pair."""
        if not name.endswith("_grad"):
            return self.field(self.exact[name])
        g1, g2 = (self.field(source) for source in self.exact[name])
        return lambda x1, x2: (g1(x1, x2), g2(x1, x2))


REGISTRY = {spec.name: spec for spec in (
    ProblemSpec(
        name="example1",
        domain=(0.0, 1.0, 0.0, 1.0),
        gamma=1.0,
        degree=1,
        f="-4/gamma",
        y_d="(2 + 1/gamma)*(x1^2 - x1 + x2^2 - x2)",
        exact={
            "y": "(x1^2 - x1 + x2^2 - x2)/gamma",
            "y_grad": ("(2*x1 - 1)/gamma", "(2*x2 - 1)/gamma"),
            "z": "(x1^2 - x1)*(x2^2 - x2)",
            "z_grad": ("(2*x1 - 1)*(x2^2 - x2)",
                       "(x1^2 - x1)*(2*x2 - 1)"),
            "u": "(x1^2 - x1 + x2^2 - x2)/gamma",
        },
        levels=(0, 1, 2, 3, 4),
        columns=(("h1_y", True), ("h1_z", True), ("l2_u", True)),
    ),
    ProblemSpec(
        name="example2",
        domain=(0.0, 0.25, 0.0, 0.25),
        gamma=1.0,
        degree=1,
        f="0",
        y_d="(x1^2 + x2^2)^s",
        constants={"s": 1e-5},
        levels=(0, 1, 2, 3, 4),
        reference_level=7,
        # With a zero volume force the load norm is ~1e5 times smaller
        # than |matrix|*|solution|, so even the correctly rounded exact
        # solution of the reference-level system carries a relative
        # residual near 2e-11; the default 1e-12 gate is unreachable in
        # double precision on this data and 1e-10 is the honest bound.
        solver_tolerance=1e-10,
        columns=(("l2_y", True), ("l2_z", True), ("l2_u", False),
                 ("h1_y", False)),
    ),
)}


def load_config(source):
    """Build a ProblemSpec from a preset name or a JSON config path.

    A preset is a dataclasses.replace of its REGISTRY spec.  A config
    file may name a preset under "problem" and override any of its
    fields by replace, or define every field itself and be named after
    the file.  Unknown keys are an error rather than a silent ignore.
    """
    if source in REGISTRY:
        return replace(REGISTRY[source])
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError("invalid JSON in %s: %s" % (source, err)) from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    base = data.pop("problem", None)
    if base is not None and (not isinstance(base, str)
                             or base not in REGISTRY):
        raise ConfigError("unknown problem preset '%s'" % (base,))
    settable = [f for f in fields(ProblemSpec) if f.name != "name"]
    unknown = sorted(set(data) - {f.name for f in settable})
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    if base is not None:
        return replace(REGISTRY[base], **data)
    missing = [f.name for f in settable
               if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigError("config is missing: %s" % ", ".join(missing))
    return ProblemSpec(name=os.path.splitext(os.path.basename(source))[0],
                       **data)


# fields that choose how a study measures, tabulates and labels its
# errors; every other field of ProblemSpec determines the solution
_PRESENTATION = ("name", "levels", "columns", "exact")


def config_hash(spec):
    """Short stable digest of every field but the _PRESENTATION ones."""
    payload = {key: value for key, value in asdict(spec).items()
               if key not in _PRESENTATION}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class LevelSolution:
    """One solved refinement level, on the DofMap and level of y; system
    is the BlockSystem that was solved, and stats the record solve_block
    filled for it (see linalg.solve_block)."""

    y: FemField
    z: FemField
    stats: dict
    system: BlockSystem

    dofmap = property(lambda self: self.y.dofmap)
    level = property(lambda self: self.dofmap.mesh.level)


def solve_level(spec, level, dofmap=None, solver_config=None):
    """Assemble and solve one refinement level of a problem.

    Keyword arguments:
        dofmap -- reuse a prebuilt DofMap (and its operators); its
                  mesh level and degree must be level and spec.degree
        solver_config -- override the spec's solver tolerance
    """
    if level < 0:
        raise ConfigError("refinement level must be nonnegative, got %d"
                          % level)
    if dofmap is None:
        dofmap = DofMap(mesh_hierarchy(spec.domain, level)[-1], spec.degree)
    elif (dofmap.mesh.level, dofmap.degree) != (level, spec.degree):
        raise ValueError("dofmap has level %d, degree %d, not level %d, "
                         "degree %d" % (dofmap.mesh.level, dofmap.degree,
                                        level, spec.degree))
    system = build_block_system(dofmap, spec.gamma, spec.field(spec.f),
                                spec.field(spec.y_d))
    if solver_config is None:
        solver_config = SolverConfig(tolerance=spec.solver_tolerance)
    stats = {}
    Y, Z = solve_block(system, solver_config, stats=stats)

    zfull = np.zeros(dofmap.num_dofs)
    zfull[system.interior] = Z
    return LevelSolution(y=FemField(dofmap, Y), z=FemField(dofmap, zfull),
                         stats=stats, system=system)


def cache_dir():
    """Directory for cached reference solutions (DBCFEM_CACHE_DIR wins)."""
    env = os.environ.get("DBCFEM_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "dbcfem")


def get_reference(spec, dofmap):
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
    sol = solve_level(spec, spec.reference_level, dofmap=dofmap)
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
    out = {}
    for key in keys:
        field, name, error, _ = NORMS[key]
        out[key] = getattr(analysis, error)(getattr(sol, field),
                                            spec.exact_field(name))
    return out


def _matrix_norms(dofmap, y, z, keys):
    """Norms of the full-length coefficient vectors y and z in the
    DofMap operators of the norm table, one per norm key."""
    out = {}
    for key in keys:
        field, _, _, operator = NORMS[key]
        v = y if field == "y" else z
        out[key] = float(np.sqrt(v @ (getattr(dofmap, operator) @ v)))
    return out


def run_convergence(spec):
    """Solve every level of a spec and tabulate errors and orders.

    Return: (ConvergenceReport, list of LevelSolution).  With exact
    solutions the errors are quadrature integrals against them; without,
    each level is prolonged to the reference level and measured in the
    matrix norms there.
    """
    keys = [key for key, _ in spec.columns]
    solutions, rows = [], []           # rows: one error dict per level

    if spec.exact is not None:
        meshes = mesh_hierarchy(spec.domain, max(spec.levels))
    else:
        meshes = mesh_hierarchy(spec.domain, spec.reference_level)
        ref = DofMap(meshes[-1], 1)
        yref, zref = get_reference(spec, ref)

    for level in spec.levels:
        sol = solve_level(spec, level, DofMap(meshes[level], spec.degree))
        solutions.append(sol)
        if spec.exact is not None:
            rows.append(_errors_exact(spec, sol, keys))
        else:
            py, pz = sol.y.coeffs, sol.z.coeffs
            for fine in meshes[level + 1:]:
                py = prolong_linear(py, fine)
                pz = prolong_linear(pz, fine)
            rows.append(_matrix_norms(ref, py - yref, pz - zref, keys))

    report = ConvergenceReport(
        h=tuple(sol.dofmap.mesh.h_max for sol in solutions),
        errors={key: tuple(row[key] for row in rows) for key in keys},
        columns=spec.columns)
    return report, solutions
