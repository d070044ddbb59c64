"""Global operators and the coupled block system of the control problem.

The optimality system for minimizing
    1/2 ||y - y_d||^2 + gamma/2 ||u||^2 on Gamma,  -Lap y = f,  y = u on Gamma
is reformulated as one linear problem for the pair (y, z): find y in V_h
and z in V_h^0 such that

    (grad y, grad psi) = (f, psi)                       for psi in V_h^0
    (grad z, grad phi) - (gamma y, phi)_Gamma - (y, phi) = -(y_d, phi)
                                                        for phi in V_h

The control is recovered afterwards as the boundary trace of y.  With Y
the coefficient vector of y over all N dofs and Z the vector of z over
the |I| interior dofs, the algebraic form is

    [ A  0 ] [Y]   [F]      A = stiffness rows tested by interior dofs
    [ B  C ] [Z] = [G]      B = -(M + gamma * M_Gamma),  C = interior
                                stiffness columns,  G = -(y_d, phi)

The N x N stiffness K, mass M and boundary mass M_Gamma are assembled
once per DofMap, and the block system keeps those matrices themselves:
A = K[I, :] and C = K[:, I] are read off K, so the two blocks agree by
construction, and B is formed from M and M_Gamma only when asked for.
The homogeneous condition on z is imposed by dropping boundary columns,
never by penalty.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .elements import ReferenceBasis, segment_quadrature, triangle_quadrature
from .mesh import midpoint_nodes

_CELL_BLOCK = 2 ** 12  # cells per block of _cell_quadrature
_SCATTER_BLOCK = 2 ** 15  # cells above which _scatter halves its input


class DofMap:
    """Global numbering of Lagrange nodes over a TriMesh.

    Vertex dofs come first and reuse the vertex indices; degree-2 maps
    append one dof per mesh edge.  `boundary` and `interior` are sorted
    index arrays partitioning range(N); boundary dofs are exactly those
    whose nodes lie on the rectangle boundary.  The N x N operators
    `stiffness`, `mass` and `boundary_mass`, and the `cell_geometry`
    (origin, Jacobian and determinant of every cell) that the
    stiffness, the mass, the loads and the error norms read, are built
    on first use and then shared by every consumer of the map.
    """

    def __init__(self, mesh, degree=1):
        ReferenceBasis(degree)  # raises ValueError on a degree but 1 or 2
        self.mesh = mesh
        self.degree = degree
        tri = mesh.triangles

        if degree == 1:
            self.cell_dofs = tri
            self.edge_dofs = mesh.boundary_edges
            self.coords = mesh.vertices
        else:
            nodes, cell_mids, boundary_mids, _ = midpoint_nodes(mesh)
            self.cell_dofs = np.hstack([tri, cell_mids])
            self.edge_dofs = np.column_stack([mesh.boundary_edges,
                                              boundary_mids])
            self.coords = nodes

        self.num_dofs = len(self.coords)
        count = np.bincount(self.edge_dofs.ravel(), minlength=self.num_dofs)
        self.boundary = np.flatnonzero(count)
        self.interior = np.flatnonzero(count == 0)

    @cached_property
    def cell_geometry(self):
        return _cell_geometry(self.mesh)

    @cached_property
    def stiffness(self):
        return assemble_stiffness(self)

    @cached_property
    def mass(self):
        return assemble_mass(self)

    @cached_property
    def boundary_mass(self):
        return assemble_boundary_mass(self)


def _cell_geometry(mesh):
    """Per triangle: origin, Jacobian, determinant."""
    tri = mesh.triangles
    x, y = mesh.vertices[:, 0][tri], mesh.vertices[:, 1][tri]  # (nt, 3)
    jac = np.empty((len(tri), 2, 2))
    np.subtract(x[:, 1:], x[:, :1], out=jac[:, 0])
    np.subtract(y[:, 1:], y[:, :1], out=jac[:, 1])
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    return np.column_stack([x[:, 0], y[:, 0]]), jac, det


def _cell_quadrature(dofmap):
    """For each block of at most _CELL_BLOCK consecutive cells: the
    triangle rule of exactness 2k+2, the block's slice, and its det
    (nb,), Jacobians (nb, 2, 2) and physical quadrature points
    (nq, nb, 2) (see _map_points).  The loads and the error norms
    iterate it, so only one block's points, samples and local entries
    are live at once, never those of the whole mesh.
    """
    rule = triangle_quadrature(2 * dofmap.degree + 2)
    origin, jac, det = dofmap.cell_geometry
    for start in range(0, len(det), _CELL_BLOCK):
        cells = slice(start, start + _CELL_BLOCK)
        yield (rule, cells, det[cells], jac[cells],
               _map_points(rule.points, origin[cells], jac[cells]))


def _map_points(ref, origin, jac):
    """The reference points ref (nq, 2) mapped to the cells of origin
    and jac, (nq, nt, 2), stored as one (nq, nt) plane per coordinate,
    so that _sample passes each plane on without a copy."""
    pts = np.empty((2, len(ref), len(jac)))
    for a in range(2):           # J[a, 0]·ξ + J[a, 1]·η + origin[a]
        np.multiply(ref[:, :1], jac[:, a, 0], out=pts[a])
        pts[a] += ref[:, 1:] * jac[:, a, 1]
        pts[a] += origin[:, a]
    return pts.transpose(1, 2, 0)


def _sample(fn, pts):
    """fn at the points (..., 2), as float arrays of shape pts.shape[:-1].

    fn sees contiguous ravelled coordinates; a scalar result is
    broadcast, and a pair (a gradient) gives a pair of arrays.
    """
    x1, x2 = pts[..., 0].ravel(), pts[..., 1].ravel()
    shaped = lambda v: np.broadcast_to(np.asarray(v, dtype=np.float64),
                                       x1.shape).reshape(pts.shape[:-1])
    out = fn(x1, x2)
    return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)


def _boundary_geometry(dofmap):
    """Per boundary edge: start point, end point and length."""
    mesh = dofmap.mesh
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    return a, b, np.sqrt(((b - a) ** 2).sum(axis=1))


def _edge_points(a, b, t):
    """Points a + t (b - a) at parameters t on every boundary edge from
    a to b (see _boundary_geometry); (nbe, len(t), 2)."""
    return a[:, None, :] + np.asarray(t)[None, :, None] * (b - a)[:, None, :]


def _edge_quadrature(dofmap):
    """Segment rule of exactness 2k+2, boundary edge lengths and the
    physical quadrature points (nbe, nq, 2) on the boundary edges.
    """
    rule = segment_quadrature(2 * dofmap.degree + 2)
    a, b, lengths = _boundary_geometry(dofmap)
    return rule, lengths, _edge_points(a, b, rule.points)


def _scatter(dofs, local, n, start=0, halvings=2):
    """n x n CSR matrix summing the local matrices of the cells e on the
    rows and columns dofs[e]; sorted columns, no explicit zeros.
    local(cells) returns the (nb, nd, nd) or (nb, nd²) local matrices of
    the slice cells of the rows of dofs.  tocsr() already sums the
    duplicates and sorts the columns.  The row and column arrays are
    int32, the index type scipy would cast them to, whenever n allows
    it.

    More than _SCATTER_BLOCK cells are split into two halves of
    consecutive cells, at most twice, and the partial matrices are
    added pairwise; local is asked for one part at a time, so only one
    quarter's local matrices, COO arrays and duplicates are live at
    once.  A mesh of at most _SCATTER_BLOCK cells is converted in one
    step, with one call of local.  start is the first cell of dofs.
    """
    if halvings and len(dofs) > _SCATTER_BLOCK:
        h = len(dofs) // 2
        return (_scatter(dofs[:h], local, n, start, halvings - 1)
                + _scatter(dofs[h:], local, n, start + h, halvings - 1))
    nd = dofs.shape[1]
    dofs = dofs.astype(np.int32 if n < 2 ** 31 else np.int64)
    rows = np.repeat(dofs, nd, axis=1).ravel()
    cols = np.tile(dofs, (1, nd)).ravel()
    values = local(slice(start, start + len(dofs))).ravel()
    m = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    m.eliminate_zeros()
    return m


def _metric(dofmap, cells):
    """det J^-1 J^-T = adj(J) adj(J)^T / det per cell of the slice
    cells, as (nb, 4) rows, from the DofMap's cell geometry."""
    _, jac, det = dofmap.cell_geometry
    a, b, c, d = jac[cells].reshape(-1, 4).T
    off = -(a * b + c * d)
    rows = np.column_stack([b * b + d * d, off, off, a * a + c * c])
    return rows / det[cells, None]


def assemble_stiffness(dofmap):
    """N x N matrix with entries (grad phi_j, grad phi_i) over the domain:
    local matrices _metric @ R, with R_abnm = sum_q w_q d_a phi_n d_b phi_m
    on the reference cell (Kirby & Logg, ACM TOMS 32, 2006), computed
    for one _scatter block of cells at a time."""
    rule = triangle_quadrature(2 * dofmap.degree)
    grads = ReferenceBasis(dofmap.degree).gradients(rule.points)
    ref = np.einsum("q,nqa,mqb->abnm", rule.weights, grads,
                    grads).reshape(4, -1)
    return _scatter(dofmap.cell_dofs, lambda cells: _metric(dofmap, cells)
                    @ ref, dofmap.num_dofs)


def assemble_mass(dofmap):
    """N x N matrix with entries (phi_j, phi_i) over the domain: local
    matrices det times the reference mass, for one _scatter block of
    cells at a time."""
    rule = triangle_quadrature(2 * dofmap.degree)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)  # (nd, nq)
    ref = np.einsum("q,nq,mq->nm", rule.weights, vals, vals)
    _, _, det = dofmap.cell_geometry
    return _scatter(dofmap.cell_dofs, lambda cells: det[cells, None, None]
                    * ref, dofmap.num_dofs)


def _trace_values(degree, t):
    if degree == 1:
        return np.stack([1.0 - t, t])
    return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


def assemble_boundary_mass(dofmap):
    """N x N matrix with entries (phi_j, phi_i) over the boundary curve,
    from the local matrices of one _scatter block of edges at a time.

    Rows and columns of interior dofs are identically zero.
    """
    rule = segment_quadrature(2 * dofmap.degree)
    lengths = _boundary_geometry(dofmap)[2]
    vals = _trace_values(dofmap.degree, rule.points)  # (nd, nq)
    return _scatter(dofmap.edge_dofs, lambda edges: np.einsum(
        "q,e,nq,mq->enm", rule.weights, lengths[edges], vals, vals),
        dofmap.num_dofs)


def assemble_load(dofmap, g):
    """Vector with entries (g, phi_i); g is a callable of (x1, x2) arrays.

    The quadrature exactness is 2k+2 so that, for instance, a
    quadratic g against a linear basis is integrated exactly.  Each
    cell's entries det * (g at its points) @ (w * phi)^T are added in
    place, one _cell_quadrature block at a time, by np.add.at, which
    adds in cell order, so the sums do not depend on the block size.
    A g whose parse tree (see ProblemSpec.field) is the constant 0
    gives exact zeros, with no quadrature.
    """
    out = np.zeros(dofmap.num_dofs)
    if getattr(g, "tree", None) == ("num", 0.0):
        return out
    values = ReferenceBasis(dofmap.degree).values
    for rule, cells, det, _, pts in _cell_quadrature(dofmap):
        local = _sample(g, pts).T @ (values(rule.points) * rule.weights).T
        local *= det[:, None]
        np.add.at(out, dofmap.cell_dofs[cells].ravel(), local.ravel())
    return out


@dataclass
class BlockSystem:
    """The coupled algebraic system [[A, 0], [B, C]] [Y; Z] = [F; G].

    K        -- N x N stiffness, the DofMap's own: never modify it
    M        -- N x N mass, the DofMap's own: never modify it
    M_Gamma  -- N x N boundary mass, the DofMap's own, zero outside the
                boundary rows and columns: never modify it
    gamma    -- the control penalty weight
    A, C     -- K[I, :] and K[:, I], computed from K on each access
    B        -- -(M + gamma * M_Gamma), formed on each access; the
                solver never forms it
    F, G     -- load vectors of length |I| and N
    interior -- the Z (and test-row) index set I into 0..N
    boundary -- the sorted complement of I, derived on each access
    coords   -- N x 2 node coordinates of the dofs; they let the solver
                recognize a uniform grid of interior nodes, on which it
                solves the interior stiffness by sine transforms
    """

    K: sp.csr_matrix
    M: sp.csr_matrix
    M_Gamma: sp.csr_matrix
    gamma: float
    F: np.ndarray
    G: np.ndarray
    interior: np.ndarray
    coords: np.ndarray

    A = property(lambda self: self.K[self.interior, :])
    C = property(lambda self: self.K[:, self.interior])
    B = property(lambda self: -(self.M + self.gamma * self.M_Gamma))
    boundary = property(lambda self: np.flatnonzero(np.bincount(
        self.interior, minlength=self.num_dofs) == 0))

    @property
    def num_dofs(self):
        return self.K.shape[0]

    def full(self):
        """Square (N+|I|) sparse matrix in the Y-then-Z unknown order."""
        return sp.bmat([[self.A, None], [self.B, self.C]], format="csr")

    def rhs(self):
        return np.concatenate([self.F, self.G])


def build_block_system(dofmap, gamma, f, y_d):
    """Assemble the coupled system for data f and target y_d.

    Keyword arguments:
        gamma    -- positive control penalty weight
        f, y_d   -- callables of (x1, x2) arrays

    Return: BlockSystem with the Y-then-Z unknown ordering, holding the
    DofMap's stiffness, mass and boundary mass themselves.
    """
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("regularization weight gamma must be positive, got %r"
                         % (gamma,))
    F = assemble_load(dofmap, f)[dofmap.interior]
    G = -assemble_load(dofmap, y_d)
    return BlockSystem(K=dofmap.stiffness, M=dofmap.mass,
                       M_Gamma=dofmap.boundary_mass, gamma=gamma, F=F, G=G,
                       interior=dofmap.interior, coords=dofmap.coords)
