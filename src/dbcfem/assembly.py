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

The full N x N stiffness matrix is assembled once per DofMap; A and C
are row and column restrictions of it, which keeps the two blocks
consistent by construction.  The homogeneous condition on z is imposed
by dropping boundary columns (C has |I| columns), never by penalty.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .elements import ReferenceBasis, segment_quadrature, triangle_quadrature
from .mesh import edge_lookup, edge_numbering


class DofMap:
    """Global numbering of Lagrange nodes over a TriMesh.

    Vertex dofs come first and reuse the vertex indices; degree-2 maps
    append one dof per mesh edge.  `boundary` and `interior` are sorted
    index arrays partitioning range(N); boundary dofs are exactly those
    whose nodes lie on the rectangle boundary.  The N x N operators
    `stiffness`, `mass` and `boundary_mass` are assembled on first use
    and then shared by every consumer of the map.
    """

    def __init__(self, mesh, degree=1):
        if degree not in (1, 2):
            raise ValueError("unsupported degree %r (only 1 and 2)" % (degree,))
        self.mesh = mesh
        self.degree = degree
        nv = mesh.num_vertices
        tri = mesh.triangles

        if degree == 1:
            self.num_dofs = nv
            self.cell_dofs = tri
            self.edge_dofs = mesh.boundary_edges
            self.coords = mesh.vertices
            bset = np.unique(mesh.boundary_edges)
        else:
            # edge dofs follow the edge numbering that refine_uniform
            # gives the next level's new vertices
            edges, cell_edges = edge_numbering(tri)
            edofs = np.column_stack([
                mesh.boundary_edges,
                nv + edge_lookup(edges, mesh.boundary_edges)])

            self.num_dofs = nv + len(edges)
            self.cell_dofs = np.hstack([tri, nv + cell_edges])
            self.edge_dofs = edofs
            mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            self.coords = np.vstack([mesh.vertices, mids])
            bset = np.unique(edofs)

        self.boundary = np.sort(bset).astype(np.int64)
        mask = np.ones(self.num_dofs, dtype=bool)
        mask[self.boundary] = False
        self.interior = np.flatnonzero(mask).astype(np.int64)

    @cached_property
    def stiffness(self):
        return assemble_stiffness(self)

    @cached_property
    def mass(self):
        return assemble_mass(self)

    @cached_property
    def boundary_mass(self):
        return assemble_boundary_mass(self)


def _finalize(rows, cols, data, shape):
    # CSR with summed duplicates, sorted columns, no explicit zeros
    m = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _cell_geometry(mesh):
    """Per triangle: origin, Jacobian, determinant, inverse transpose."""
    p = mesh.vertices[mesh.triangles]          # (nt, 3, 2)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return p[:, 0], jac, det, inv_t


def _boundary_geometry(dofmap):
    """Per boundary edge: start point, end point and length."""
    mesh = dofmap.mesh
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    return a, b, np.sqrt(((b - a) ** 2).sum(axis=1))


def _scatter(dofmap, local):
    nd = dofmap.cell_dofs.shape[1]
    rows = np.repeat(dofmap.cell_dofs, nd, axis=1).ravel()
    cols = np.tile(dofmap.cell_dofs, (1, nd)).ravel()
    return _finalize(rows, cols, local.ravel(),
                     (dofmap.num_dofs, dofmap.num_dofs))


def assemble_stiffness(dofmap):
    """N x N matrix with entries (grad phi_j, grad phi_i) over the domain."""
    mesh = dofmap.mesh
    rule = triangle_quadrature(2 * dofmap.degree)
    basis = ReferenceBasis(dofmap.degree)
    grads = basis.gradients(rule.points)       # (nd, nq, 2)

    _, _, det, inv_t = _cell_geometry(mesh)
    phys = np.einsum("tab,nqb->tnqa", inv_t, grads)
    local = np.einsum("q,t,tnqa,tmqa->tnm", rule.weights, det, phys, phys)
    return _scatter(dofmap, local)


def assemble_mass(dofmap):
    """N x N matrix with entries (phi_j, phi_i) over the domain."""
    rule = triangle_quadrature(2 * dofmap.degree)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)  # (nd, nq)
    _, _, det, _ = _cell_geometry(dofmap.mesh)
    local = np.einsum("q,t,nq,mq->tnm", rule.weights, det, vals, vals)
    return _scatter(dofmap, local)


def _trace_values(degree, t):
    if degree == 1:
        return np.stack([1.0 - t, t])
    return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)])


def assemble_boundary_mass(dofmap):
    """N x N matrix with entries (phi_j, phi_i) over the boundary curve.

    Rows and columns of interior dofs are identically zero.
    """
    rule = segment_quadrature(2 * dofmap.degree)
    vals = _trace_values(dofmap.degree, rule.points)  # (nd, nq)
    _, _, lengths = _boundary_geometry(dofmap)
    local = np.einsum("q,e,nq,mq->enm", rule.weights, lengths, vals, vals)
    nd = dofmap.edge_dofs.shape[1]
    rows = np.repeat(dofmap.edge_dofs, nd, axis=1).ravel()
    cols = np.tile(dofmap.edge_dofs, (1, nd)).ravel()
    return _finalize(rows, cols, local.ravel(),
                     (dofmap.num_dofs, dofmap.num_dofs))


def assemble_load(dofmap, g, exactness=None):
    """Vector with entries (g, phi_i); g is a callable of (x1, x2) arrays.

    The default quadrature exactness is 2k+2 so that, for instance, a
    quadratic g against a linear basis is integrated exactly.
    """
    mesh = dofmap.mesh
    rule = triangle_quadrature(2 * dofmap.degree + 2 if exactness is None
                               else exactness)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)
    origin, jac, det, _ = _cell_geometry(mesh)

    pts = origin[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    gv = np.asarray(g(pts[..., 0].ravel(), pts[..., 1].ravel()),
                    dtype=np.float64)
    gv = np.broadcast_to(gv, (pts.shape[0] * pts.shape[1],)).reshape(pts.shape[:2])

    contrib = np.einsum("q,t,tq,nq->tn", rule.weights, det, gv, vals)
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, dofmap.cell_dofs.ravel(), contrib.ravel())
    return out


@dataclass
class BlockSystem:
    """The coupled algebraic system [[A, 0], [B, C]] [Y; Z] = [F; G].

    A        -- |I| x N stiffness rows tested by interior functions
    B        -- N x N, equal to -(M + gamma * M_Gamma)
    C        -- N x |I| stiffness columns of interior trial functions
    F, G     -- load vectors of length |I| and N
    interior -- the Z (and test-row) index set I into 0..N
    boundary -- complement of I
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    F: np.ndarray
    G: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray

    @property
    def num_dofs(self):
        return self.B.shape[0]

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

    Return: BlockSystem with the Y-then-Z unknown ordering.
    """
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError("regularization weight gamma must be positive, got %r"
                         % (gamma,))
    stiff = dofmap.stiffness
    interior = dofmap.interior
    A = stiff[interior, :]
    C = stiff[:, interior].tocsr()
    B = (-(dofmap.mass + gamma * dofmap.boundary_mass)).tocsr()
    B.sort_indices()
    F = assemble_load(dofmap, f)[interior]
    G = -assemble_load(dofmap, y_d)
    return BlockSystem(A=A, B=B, C=C, F=F, G=G,
                       interior=interior, boundary=dofmap.boundary)
