"""Spans around the public functions of each dbcfem module, from outside.

The tracer replaces a function under every module attribute that holds
it, because `problems`, `cli` and `analysis` import with
`from .x import y` and resolve the name in their own namespace:
wrapping only `dbcfem.linalg.solve_block` would miss every call made
from `dbcfem.problems`.  Methods (`DofMap.__init__`, `BlockSystem.full`)
are replaced on their class, so `DofMap` stays a class for callers.

A span records its function name, start, end, parent span and the type
of the exception it raised, if any.  Spans stay in memory until the
pass ends; a layer's self time is the duration of its spans minus the
duration of their direct children (the process is single-threaded, so
children never overlap).
"""

import importlib
import os
import statistics
import time

import numpy as np

# (module, attribute, span group); a dotted attribute is a method
TARGETS = (
    ("mesh", "make_initial_mesh", "mesh.build"),
    ("mesh", "refine_uniform", "mesh.build"),
    ("mesh", "mesh_hierarchy", "mesh.build"),
    ("mesh", "prolong_linear", "mesh.prolong"),
    ("mesh", "export_vtk", "mesh.export_vtk"),
    ("assembly", "DofMap.__init__", "assembly.dofmap"),
    ("assembly", "assemble_stiffness", "assembly.operators"),
    ("assembly", "assemble_mass", "assembly.operators"),
    ("assembly", "assemble_boundary_mass", "assembly.operators"),
    ("assembly", "assemble_load", "assembly.load"),
    ("assembly", "build_block_system", "assembly.block"),
    ("assembly", "BlockSystem.full", "assembly.block"),
    ("expr", "eval", "expr.eval"),
    ("linalg", "solve_block", "linalg.solve"),
    ("linalg", "residual", "linalg.residual"),
    ("analysis", "error_L2", "analysis.norms"),
    ("analysis", "error_H1_semi", "analysis.norms"),
    ("analysis", "error_L2_boundary", "analysis.norms"),
    ("analysis", "boundary_L2_projection", "analysis.norms"),
    ("analysis", "seminorm_H_half_boundary", "analysis.seminorm"),
    ("analysis", "verify_boundary_bubble_estimate", "analysis.verifiers"),
    ("analysis", "verify_L2_controlled_by_H1", "analysis.verifiers"),
    ("analysis", "verify_discrete_stability", "analysis.verifiers"),
    ("problems", "solve_level", "problems.self"),
    ("problems", "run_convergence", "problems.self"),
    ("problems", "get_reference", "problems.reference"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_solve", "cli.solve"),
)

# per-layer metric -> unit; the order is the order of the printed report
UNITS = {
    "mesh.self_s": "s",
    "mesh.triangles_built": "count",
    "mesh.reuse_ratio": "ratio",
    "mesh.prolong_s": "s",
    "mesh.export_vtk_s": "s",
    "mesh.vtk_bytes": "B",
    "assembly.dofmap_s": "s",
    "assembly.operators_s": "s",
    "assembly.operator_calls": "count",
    "assembly.operator_reuse_ratio": "ratio",
    "assembly.load_s": "s",
    "assembly.block_s": "s",
    "assembly.system_nnz": "count",
    "expr.eval_s": "s",
    "expr.points": "count",
    "linalg.solve_s": "s",
    "linalg.solve_s.max": "s",
    "linalg.solves": "count",
    "linalg.unknowns": "count",
    "linalg.unknowns_per_s": "1/s",
    "linalg.residual_s": "s",
    "linalg.max_rel_residual": "ratio",
    "linalg.gate_failures": "count",
    "analysis.norms_s": "s",
    "analysis.seminorm_s": "s",
    "analysis.verifiers_s": "s",
    "problems.reference_s": "s",
    "problems.cache_hits": "count",
    "problems.cache_misses": "count",
    "problems.cache_bytes": "B",
    "problems.self_s": "s",
    "cli.verify_s": "s",
    "cli.solve_s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "group", "start", "end", "parent", "error")

    def __init__(self, name, group, start, parent):
        self.name = name
        self.group = group
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None


class Tracer:
    """Records spans and boundary counts while installed on dbcfem."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.package = None
        self.spans = []
        self.counts = {}
        self.mesh_keys = []
        self.operator_keys = []
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans, self.counts = [], {}
        self.mesh_keys, self.operator_keys = [], []
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, group, fn, args, kwargs, observe=None):
        """Run fn(*args, **kwargs) inside a span.

        observe(tracer, args, kwargs, result) records the counts of the
        call after it returns.
        """
        if name in BEFORE:
            BEFORE[name](self, args, kwargs)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, group, self.clock(), parent)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            span.error = type(err).__name__
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
        if observe is not None:
            observe(self, args, kwargs, result)
        return result

    def wrap(self, name, group, fn, observe=None):
        def traced(*args, **kwargs):
            return self.call(name, group, fn, args, kwargs, observe)
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every TARGETS function under each name that resolves to it."""
        self.package = package
        modules = [package] + [importlib.import_module(package.__name__ + "."
                                                       + m)
                               for m in ("mesh", "assembly", "expr", "linalg",
                                         "analysis", "problems", "cli")]
        for modname, attr, group in TARGETS:
            home = getattr(package, modname)
            name = "%s.%s" % (modname, attr)
            observe = OBSERVERS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self.wrap(name, group, orig,
                                                       observe))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(name, group, orig, observe)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, orig, traced)

    def _patch(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    def self_times(self):
        """List of self times, index-aligned with self.spans."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def metrics(self, wall_s):
        """Per-layer metrics of the spans and counts recorded so far."""
        selfs = self.self_times()
        group_s = {}
        for span, t in zip(self.spans, selfs):
            group_s[span.group] = group_s.get(span.group, 0.0) + t
        g = lambda key: group_s.get(key, 0.0)
        c = lambda key: self.counts.get(key, 0)
        solve_selfs = [t for s, t in zip(self.spans, selfs)
                       if s.name == "linalg.solve_block"]
        hits = misses = 0
        for i, s in enumerate(self.spans):
            if s.name == "problems.get_reference" and s.error is None:
                if self._has_descendant(i, "linalg.solve_block"):
                    misses += 1
                else:
                    hits += 1
        solve_s = g("linalg.solve")
        unknowns = c("linalg.unknowns")
        return {
            "mesh.self_s": g("mesh.build"),
            "mesh.triangles_built": c("mesh.triangles_built"),
            "mesh.reuse_ratio": _ratio(len(set(self.mesh_keys)),
                                       len(self.mesh_keys)),
            "mesh.prolong_s": g("mesh.prolong"),
            "mesh.export_vtk_s": g("mesh.export_vtk"),
            "mesh.vtk_bytes": c("mesh.vtk_bytes"),
            "assembly.dofmap_s": g("assembly.dofmap"),
            "assembly.operators_s": g("assembly.operators"),
            "assembly.operator_calls": len(self.operator_keys),
            "assembly.operator_reuse_ratio": _ratio(
                len(set(self.operator_keys)), len(self.operator_keys)),
            "assembly.load_s": g("assembly.load"),
            "assembly.block_s": g("assembly.block"),
            "assembly.system_nnz": c("assembly.system_nnz"),
            "expr.eval_s": g("expr.eval"),
            "expr.points": c("expr.points"),
            "linalg.solve_s": solve_s,
            "linalg.solve_s.max": max(solve_selfs, default=0.0),
            "linalg.solves": len(solve_selfs),
            "linalg.unknowns": unknowns,
            "linalg.unknowns_per_s": _ratio(unknowns, solve_s),
            "linalg.residual_s": g("linalg.residual"),
            "linalg.max_rel_residual": self.counts.get(
                "linalg.max_rel_residual", 0.0),
            "linalg.gate_failures": sum(
                1 for s in self.spans
                if s.name == "linalg.solve_block" and s.error == "SolverError"),
            "analysis.norms_s": g("analysis.norms"),
            "analysis.seminorm_s": g("analysis.seminorm"),
            "analysis.verifiers_s": g("analysis.verifiers"),
            "problems.reference_s": g("problems.reference"),
            "problems.cache_hits": hits,
            "problems.cache_misses": misses,
            "problems.cache_bytes": c("problems.cache_bytes"),
            "problems.self_s": g("problems.self"),
            "cli.verify_s": g("cli.verify"),
            "cli.solve_s": g("cli.solve"),
            "cli.bytes_written": c("cli.bytes_written"),
            "trace.wall_s": wall_s,
        }

    def _has_descendant(self, index, name):
        for s in self.spans[index + 1:]:
            if s.start >= self.spans[index].end:
                break
            if s.name == name:
                return True
        return False


def _ratio(num, den):
    return float(num) / den if den else 0.0


def median_metrics(per_pass):
    """Metric-wise median over a list of per-pass metric dicts."""
    return {key: statistics.median(m[key] for m in per_pass)
            for key in per_pass[0]}


# --- counters recorded at the wrapped boundaries -------------------------

def _mesh_key(mesh):
    v = mesh.vertices
    lo, hi = v.min(axis=0), v.max(axis=0)
    return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]),
            int(mesh.level))


def _observe_mesh(tracer, args, kwargs, mesh):
    tracer.add("mesh.triangles_built", int(mesh.num_triangles))
    tracer.mesh_keys.append(_mesh_key(mesh))


def _observe_operator(kind):
    def observe(tracer, args, kwargs, result):
        dofmap = args[0] if args else kwargs["dofmap"]
        tracer.operator_keys.append(
            (_mesh_key(dofmap.mesh), int(dofmap.degree), kind))
    return observe


def _observe_vtk(tracer, args, kwargs, data):
    tracer.add("mesh.vtk_bytes", len(data))


def _observe_system(tracer, args, kwargs, system):
    tracer.add("assembly.system_nnz",
               int(system.A.nnz + system.B.nnz + system.C.nnz))


def _observe_eval(tracer, args, kwargs, result):
    x1, x2 = args[1], args[2]
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    tracer.add("expr.points", int(np.prod(shape, dtype=np.int64)))


def _count_unknowns(tracer, args, kwargs):
    system = args[0]
    tracer.add("linalg.unknowns",
               int(system.num_dofs + len(system.interior)))


def _observe_residual(tracer, args, kwargs, value):
    tracer.counts["linalg.max_rel_residual"] = max(
        tracer.counts.get("linalg.max_rel_residual", 0.0), float(value))


def _observe_reference(tracer, args, kwargs, result):
    root = tracer.package.problems.cache_dir()
    tracer.add("problems.cache_bytes",
               sum(os.path.getsize(os.path.join(root, f))
                   for f in os.listdir(root)))


# counted before the call, so that a solve which fails its gate counts too
BEFORE = {"linalg.solve_block": _count_unknowns}

OBSERVERS = {
    "mesh.make_initial_mesh": _observe_mesh,
    "mesh.refine_uniform": _observe_mesh,
    "mesh.export_vtk": _observe_vtk,
    "assembly.assemble_stiffness": _observe_operator("stiffness"),
    "assembly.assemble_mass": _observe_operator("mass"),
    "assembly.assemble_boundary_mass": _observe_operator("boundary_mass"),
    "assembly.build_block_system": _observe_system,
    "expr.eval": _observe_eval,
    "linalg.residual": _observe_residual,
    "problems.get_reference": _observe_reference,
}
