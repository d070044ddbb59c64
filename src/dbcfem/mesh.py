"""Triangulations of axis-aligned rectangles with uniform 1:4 refinement.

The initial mesh of a rectangle is a 2x2 grid of congruent
sub-rectangles, each split along the diagonal from its lower-left to
its upper-right corner.  On the unit square this gives 8 congruent
right triangles with legs 1/2 and h_max = sqrt(2)/2.

Uniform refinement splits every triangle into 4 congruent children by
edge midpoints, arranged as a fan around the midpoint of the longest
edge (two sweeps of longest-edge bisection applied at once).  For the
right triangles this family produces, the children are congruent with
legs halved, so after k refinements the triangle count is 8*4^k and
h_max is halved k times.  Refining the initial layout once yields the
pattern where each grid cell's diagonal orientation alternates in a
checkerboard, and that pattern then reproduces itself; the convergence
tables this package checks against are sensitive to the choice and were
produced on exactly this family (the midpoint-triangle 1:4 split gives
visibly different boundary-trace errors).

Boundary edges are stored as one closed counterclockwise walk starting
at the lower-left corner; refinement splits each walk edge in place, so
consecutive entries always share a vertex.  A refined mesh records
which coarse edge produced each new vertex (midpoint_of, after the
coarse vertices), which is what exact coarse-to-fine interpolation of
piecewise-linear fields needs.

Meshes are immutable after construction (the arrays are write locked)
and safe to share across threads; h_max is computed on first read, and
two threads reading it first at once both store the same value.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of an axis-aligned rectangle.

    vertices         -- (nv, 2) float coordinates
    triangles        -- (nt, 3) vertex indices, counterclockwise
    boundary_edges   -- (nbe, 2) vertex indices, a closed ccw walk
    level            -- refinement count from the initial mesh
    midpoint_of      -- (nv - nc, 2) parent vertex pairs bisected by the
                        vertices after the nc parent ones (empty at level 0)
    h_max            -- maximum triangle diameter, computed on first read
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    level: int
    midpoint_of: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self):
        for arr in (self.vertices, self.triangles, self.boundary_edges,
                    self.midpoint_of):
            arr.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @cached_property
    def h_max(self):
        return float(np.sqrt(_edge_lengths_sq(self.vertices,
                                              self.triangles).max()))


def _edge_lengths_sq(vertices, triangles):
    """Squared lengths of the edges v0v1, v1v2, v2v0 of each triangle."""
    x, y = vertices[:, 0][triangles], vertices[:, 1][triangles]
    out = np.empty(x.shape)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        out[:, i] = (x[:, i] - x[:, j]) ** 2 + (y[:, i] - y[:, j]) ** 2
    return out


def make_initial_mesh(rect):
    """Build the 8-triangle mesh of a rectangle (2x2 cells, up-diagonals).

    Keyword arguments:
        rect -- (x0, x1, y0, y1) with x0 < x1 and y0 < y1

    Return: TriMesh at level 0.
    """
    x0, x1, y0, y1 = (float(v) for v in rect)
    if not (np.isfinite([x0, x1, y0, y1]).all() and x1 > x0 and y1 > y0):
        raise ValueError(
            "invalid geometry: rectangle (%r, %r, %r, %r) must have positive "
            "width and height" % (x0, x1, y0, y1))
    xs = np.array([x0, 0.5 * (x0 + x1), x1])
    ys = np.array([y0, 0.5 * (y0 + y1), y1])
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])  # index = 3*row + col

    # per sub-rectangle, the lower-left to upper-right diagonal
    triangles = np.array([
        [0, 1, 4], [0, 4, 3],   # lower left
        [1, 2, 5], [1, 5, 4],   # lower right
        [3, 4, 7], [3, 7, 6],   # upper left
        [4, 5, 8], [4, 8, 7],   # upper right
    ], dtype=np.int64)

    # closed ccw walk from the lower-left corner
    boundary_edges = np.array(
        [[0, 1], [1, 2], [2, 5], [5, 8], [8, 7], [7, 6], [6, 3], [3, 0]],
        dtype=np.int64)
    return TriMesh(vertices, triangles, boundary_edges, level=0)


def edge_numbering(triangles):
    """Number the edges of a triangulation in lexicographic order.

    Return: (edges, cell_edges) -- edges is (ne, 2), each row a sorted
    vertex pair, rows sorted lexicographically; cell_edges is (nt, 3),
    the ids of each triangle's edges v0v1, v1v2 and v2v0.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    n = int(tri.max()) + 1
    start, end = tri.T, np.roll(tri, -1, axis=1).T          # (3, nt)
    # one integer key per sorted pair orders the keys like the pairs
    keys, inverse = np.unique(np.minimum(start, end) * n
                              + np.maximum(start, end), return_inverse=True)
    edges = np.column_stack([keys // n, keys % n])
    return edges, inverse.reshape(3, -1).T


def edge_lookup(edges, pairs):
    """Ids in `edges` (from edge_numbering) of the given vertex pairs.

    Pairs may come in either orientation; a pair that is not an edge
    raises KeyError.
    """
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    n = int(max(edges.max(), pairs.max())) + 1
    keys = edges[:, 0] * n + edges[:, 1]
    want = pairs[:, 0] * n + pairs[:, 1]
    ids = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if not (keys[ids] == want).all():
        raise KeyError("vertex pair is not an edge of the triangulation")
    return ids


def midpoint_nodes(mesh):
    """The mesh vertices followed by one node at the midpoint of every
    edge, in edge_numbering order: the vertices of the next refinement
    level, and the nodes of the P2 dofs.

    Return: (nodes, cell_mids, boundary_mids, edges) -- nodes is
    (nv + ne, 2); cell_mids is (nt, 3), the node ids of the midpoints
    of each triangle's edges v0v1, v1v2 and v2v0; boundary_mids is
    (nbe,), those of the boundary walk edges; edges is as returned by
    edge_numbering.
    """
    nv = mesh.num_vertices
    edges, cell_edges = edge_numbering(mesh.triangles)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    return (np.vstack([mesh.vertices, mids]), nv + cell_edges,
            nv + edge_lookup(edges, mesh.boundary_edges), edges)


def refine_uniform(mesh):
    """Split every triangle into 4 congruent children by edge midpoints.

    The children fan around the midpoint q of the triangle's longest
    edge: q is joined to the opposite vertex and to the midpoints of
    the two remaining edges.  This equals two sweeps of longest-edge
    bisection and, on right triangles, yields 4 congruent children
    with legs halved.  All three edge midpoints become new vertices,
    numbered after the coarse ones in edge_numbering order, so the
    refined vertex set (and one-level interpolation) is the same as for
    the midpoint-triangle split.
    """
    tri = mesh.triangles
    vertices, mids, m, edges = midpoint_nodes(mesh)

    # rotate each (ccw) triangle so the longest edge comes first, as
    # (vi, vj, vk); ties cannot occur for the right triangles this
    # family produces, and argmax breaks them deterministically anyway
    longest = np.argmax(_edge_lengths_sq(mesh.vertices, tri), axis=1)
    rows = np.arange(len(tri))[:, None]
    turn = (longest[:, None] + np.arange(3)) % 3
    vi, vj, vk = tri[rows, turn].T
    q, mkj, mik = mids[rows, turn].T     # midpoints of vivj, vjvk, vkvi

    children = np.stack([q, mik, vi, q, vk, mik, q, mkj, vk, q, vj, mkj],
                        axis=1).reshape(-1, 3)

    # each boundary edge (u, v) becomes (u, m), (m, v) in walk order
    u, v = mesh.boundary_edges.T
    bnd = np.stack([u, m, m, v], axis=1).reshape(-1, 2)

    return TriMesh(vertices, children, bnd, level=mesh.level + 1,
                   midpoint_of=edges)


def mesh_hierarchy(rect, max_level):
    """Return [level 0 mesh, ..., level max_level mesh]."""
    meshes = [make_initial_mesh(rect)]
    for _ in range(max_level):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def prolong_linear(coeffs, fine_mesh):
    """Interpolate vertex values one level up (exact for P1 fields)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    # the coarse vertices come first; the initial mesh has no parent
    nc = (fine_mesh.num_vertices - len(fine_mesh.midpoint_of)
          if fine_mesh.level else 0)
    if nc == 0 or len(coeffs) != nc:
        raise ValueError("coefficient length %d does not match the coarse "
                         "mesh (%d vertices)" % (len(coeffs), nc))
    out = np.empty(fine_mesh.num_vertices)
    out[:nc] = coeffs
    out[nc:] = 0.5 * (coeffs[fine_mesh.midpoint_of[:, 0]]
                      + coeffs[fine_mesh.midpoint_of[:, 1]])
    return out


def export_vtk(mesh, fields=(), names=None):
    """Serialize the mesh and nodal fields as a legacy VTK grid.

    Keyword arguments:
        fields -- FemField objects whose vertex values become POINT_DATA
        names  -- data array names (default field_0, field_1, ...)

    Return: bytes of an ASCII legacy VTK 3.0 UNSTRUCTURED_GRID file.
    Vertex coordinates are written with full precision so they
    round-trip exactly.
    """
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    if names is None:
        names = ["field_%d" % i for i in range(len(fields))]

    # one format per section over Python scalars from tolist(), which
    # prints exactly what a format per line would
    parts = [
        "# vtk DataFile Version 3.0\n",
        "dbcfem level %d mesh\n" % mesh.level,
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        "POINTS %d double\n" % nv,
        "%.17g %.17g 0\n" * nv % tuple(mesh.vertices.ravel().tolist()),
        "CELLS %d %d\n" % (nt, 4 * nt),
        "3 %d %d %d\n" * nt % tuple(mesh.triangles.ravel().tolist()),
        "CELL_TYPES %d\n" % nt,
        "5\n" * nt,
    ]

    if fields:
        parts.append("POINT_DATA %d\n" % nv)
        for name, f in zip(names, fields):
            if f.dofmap.mesh.num_vertices != nv:
                raise ValueError(
                    "field '%s' lives on a %d-vertex mesh, expected %d"
                    % (name, f.dofmap.mesh.num_vertices, nv))
            parts.append("SCALARS %s double 1\nLOOKUP_TABLE default\n" % name)
            # vertex dofs come first for every degree
            parts.append("%.17g\n" * nv % tuple(f.coeffs[:nv].tolist()))
    return "".join(parts).encode("ascii")
