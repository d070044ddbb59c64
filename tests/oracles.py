"""Independent reference computations the tests compare against.

Everything in here deliberately avoids the package's own assembly,
quadrature and solver code paths: local matrices come from exact
rational integration of barycentric monomials, the fractional boundary
seminorm comes from a brute-force panel-pair integration with much
finer quadrature than the library uses, and the coupled system is
solved by one sparse LU of the whole matrix, its 80-bit residual by
products with whole 80-bit copies of the matrices.  The mesh invariant check
lives here too, as only the tests call it, and so do the loop and
einsum forms that the vectorized kernels replaced, the row-by-row
writers that numpy and dataclasses replaced, and the two level-spread
checks of verify as the separate blocks that one helper replaced.
"""

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from dbcfem.analysis import (verify_boundary_bubble_estimate,
                             verify_discrete_stability)
from dbcfem.elements import ReferenceBasis, triangle_quadrature
from dbcfem.mesh import edge_lookup, edge_numbering

# ---------------------------------------------------------------------------
# the coupled system by one LU


def coupled_lu_solve(system):
    """(Y, Z) from one splu of the whole coupled matrix system.full()."""
    x = splu(system.full().tocsc()).solve(system.rhs())
    return x[:system.num_dofs], x[system.num_dofs:]


def extended_residual_cast_once(system):
    """The 80-bit residual map x -> [F - A·Y; G - B·Y - C·Z] that casts
    whole 80-bit copies of K, M and gamma·M_Gamma, and F and G, once
    when it is built, and multiplies with the whole matrices; the blocked
    map of linalg._extended_residual must give the same bits."""
    ld = np.longdouble
    I, n = system.interior, system.num_dofs
    K, M, gM_Gamma = (sp.csr_matrix((A.data.astype(ld), A.indices, A.indptr),
                                    shape=A.shape)
                      for A in (system.K, system.M, system.M_Gamma))
    gM_Gamma.data *= ld(system.gamma)
    F, G = system.F.astype(ld), system.G.astype(ld)

    def residual_of(x):
        Y, Z = x[:n].astype(ld), np.zeros(n, dtype=ld)
        Z[I] = x[n:]
        r = F - (K @ Y)[I]
        s = M @ Y
        s += G
        s += gM_Gamma @ Y
        s -= K @ Z
        return np.concatenate([r, s])

    return residual_of


# ---------------------------------------------------------------------------
# mesh invariants


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def check_mesh(mesh):
    """Verify the TriMesh invariants; raises AssertionError on violation.

    Checks positive triangle orientation, the edge-manifold property
    (each edge in 1 or 2 triangles), and that the boundary walk is
    exactly the set of single-triangle edges.
    """
    assert (signed_areas(mesh) > 0).all(), "negatively oriented triangle"

    edges, cell_edges = edge_numbering(mesh.triangles)
    counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
    assert counts.max() <= 2, "edge shared by more than two triangles"

    differs = "boundary walk differs from single-count edges"
    try:
        walk = edge_lookup(edges, mesh.boundary_edges)
    except KeyError:
        raise AssertionError(differs) from None
    single = np.flatnonzero(counts == 1)
    assert (counts[walk] == 1).all() and np.isin(single, walk).all(), differs
    assert len(walk) == len(single), "duplicate boundary edge"
    # closed walk: consecutive edges chain head to tail
    heads = mesh.boundary_edges[:, 0]
    tails = np.roll(mesh.boundary_edges[:, 1], 1)
    assert (heads == tails).all(), "boundary walk is not a closed loop"


# ---------------------------------------------------------------------------
# exact local element matrices
#
# A polynomial on the triangle is stored as {(a, b, c): Fraction} over
# barycentric monomials l1^a l2^b l3^c.  The integral of a monomial is
#     int_T l1^a l2^b l3^c = 2|T| a! b! c! / (a+b+c+2)!
# which keeps every entry rational for rational vertices.

P1_BARY = (
    {(1, 0, 0): Fraction(1)},
    {(0, 1, 0): Fraction(1)},
    {(0, 0, 1): Fraction(1)},
)

# vertex functions l(2l-1), then edge bubbles 4 l_a l_b on edges
# (1,2), (2,3), (3,1) -- the node order DofMap uses.
P2_BARY = (
    {(2, 0, 0): Fraction(2), (1, 0, 0): Fraction(-1)},
    {(0, 2, 0): Fraction(2), (0, 1, 0): Fraction(-1)},
    {(0, 0, 2): Fraction(2), (0, 0, 1): Fraction(-1)},
    {(1, 1, 0): Fraction(4)},
    {(0, 1, 1): Fraction(4)},
    {(1, 0, 1): Fraction(4)},
)


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return out


def _poly_diff(p, i):
    out = {}
    for exps, coeff in p.items():
        if exps[i] == 0:
            continue
        lowered = list(exps)
        lowered[i] -= 1
        key = tuple(lowered)
        out[key] = out.get(key, Fraction(0)) + coeff * exps[i]
    return out


def _integral_unit(p):
    """Integral over a triangle of unit area (the 2|T| factor left out)."""
    total = Fraction(0)
    for (a, b, c), coeff in p.items():
        total += coeff * Fraction(
            math.factorial(a) * math.factorial(b) * math.factorial(c),
            math.factorial(a + b + c + 2))
    return 2 * total


def _bary_gradients(p0, p1, p2):
    """Exact gradients of (l1, l2, l3) and the signed area, as Fractions."""
    p0 = [Fraction(v) for v in p0]
    p1 = [Fraction(v) for v in p1]
    p2 = [Fraction(v) for v in p2]
    j11, j21 = p1[0] - p0[0], p1[1] - p0[1]
    j12, j22 = p2[0] - p0[0], p2[1] - p0[1]
    det = j11 * j22 - j12 * j21
    # x = p0 + J (xi, eta); grad xi and grad eta are the rows of J^-1
    gxi = (j22 / det, -j12 / det)
    geta = (-j21 / det, j11 / det)
    gl1 = (-gxi[0] - geta[0], -gxi[1] - geta[1])
    return (gl1, gxi, geta), det / 2


def local_mass_exact(p0, p1, p2, degree):
    basis = P1_BARY if degree == 1 else P2_BARY
    _, area = _bary_gradients(p0, p1, p2)
    n = len(basis)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            val = _integral_unit(_poly_mul(basis[i], basis[j])) * area
            out[i][j] = out[j][i] = val
    return out


def local_stiffness_exact(p0, p1, p2, degree):
    basis = P1_BARY if degree == 1 else P2_BARY
    grads, area = _bary_gradients(p0, p1, p2)
    n = len(basis)
    partials = [[_poly_diff(b, i) for i in range(3)] for b in basis]
    dots = [[grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1]
             for j in range(3)] for i in range(3)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for m in range(n):
        for k in range(m, n):
            val = Fraction(0)
            for i in range(3):
                for j in range(3):
                    if partials[m][i] and partials[k][j]:
                        prod = _poly_mul(partials[m][i], partials[k][j])
                        val += dots[i][j] * _integral_unit(prod)
            out[m][k] = out[k][m] = val * area
    return out


# trace bases on [0, 1]: coefficient lists in t (lowest power first)
_TRACE_T = {
    1: ([Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]),
    2: ([Fraction(1), Fraction(-3), Fraction(2)],
        [Fraction(0), Fraction(-1), Fraction(2)],
        [Fraction(0), Fraction(4), Fraction(-4)]),
}


def local_edge_mass_exact(length, degree):
    basis = _TRACE_T[degree]
    n = len(basis)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = [Fraction(0)] * (len(basis[i]) + len(basis[j]) - 1)
            for a, ca in enumerate(basis[i]):
                for b, cb in enumerate(basis[j]):
                    prod[a + b] += ca * cb
            val = sum(c / (k + 1) for k, c in enumerate(prod))
            out[i][j] = out[j][i] = val * Fraction(length)
    return out


def as_float(mat):
    return np.array([[float(v) for v in row] for row in mat])


def dense_global_matrix(dofmap, kind, gamma=None):
    """Assemble the full matrix densely from the exact local blocks."""
    mesh = dofmap.mesh
    n = dofmap.num_dofs
    out = np.zeros((n, n))
    if kind == "boundary_mass":
        for edge, dofs in zip(mesh.boundary_edges, dofmap.edge_dofs):
            a, b = mesh.vertices[edge[0]], mesh.vertices[edge[1]]
            length = Fraction(float(np.hypot(*(b - a))))
            loc = as_float(local_edge_mass_exact(length, dofmap.degree))
            out[np.ix_(dofs, dofs)] += loc
        return out
    fn = local_mass_exact if kind == "mass" else local_stiffness_exact
    for tri, dofs in zip(mesh.triangles, dofmap.cell_dofs):
        pts = [tuple(float(c) for c in mesh.vertices[v]) for v in tri]
        loc = as_float(fn(pts[0], pts[1], pts[2], dofmap.degree))
        out[np.ix_(dofs, dofs)] += loc
    return out


# ---------------------------------------------------------------------------
# brute-force fractional boundary seminorm
#
# |v|^2 = sum over ordered panel pairs of
#     int int (v(x) - v(y))^2 / |x - y|^2 ds(x) ds(y).
# For a linear trace the same-panel contribution collapses to the
# squared jump of the endpoint values; pairs sharing a vertex get a
# geometrically graded product rule, everything else a fat Gauss rule.


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _graded01(levels, per_cell):
    """Quadrature on (0, 1] graded geometrically toward 0."""
    x, w = _gauss01(per_cell)
    breaks = [0.0] + [2.0 ** (k - levels) for k in range(1, levels + 1)]
    pts, wts = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        pts.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
    return np.concatenate(pts), np.concatenate(wts)


def seminorm_dense_oracle(points, values):
    """H^{1/2} seminorm of the closed piecewise-linear boundary trace.

    points: (n, 2) panel start points in walk order (panel i runs from
    points[i] to points[(i+1) % n]); values: trace at those points.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(points)
    nxt = np.roll(np.arange(n), -1)
    a, b = points, points[nxt]
    va, vb = values, values[nxt]
    lengths = np.hypot(*(b - a).T)

    total = float(((vb - va) ** 2).sum())  # same-panel pairs, exact

    def pair_integral(i, j, s, ws, t, wt):
        xi = a[i] + np.outer(s, b[i] - a[i])
        xj = a[j] + np.outer(t, b[j] - a[j])
        vi = va[i] + s * (vb[i] - va[i])
        vj = va[j] + t * (vb[j] - va[j])
        num = (vi[:, None] - vj[None, :]) ** 2
        d2 = ((xi[:, None, :] - xj[None, :, :]) ** 2).sum(axis=2)
        return float((num / d2 * np.outer(ws, wt)).sum()
                     ) * lengths[i] * lengths[j]

    sg, wg = _graded01(16, 10)
    s16, w16 = _gauss01(16)
    for i in range(n):
        for j in range(i + 1, n):
            gap = min(j - i, n - (j - i))
            if gap == 1:
                # shares one vertex; grade both parameters toward it
                if (j - i) % n == 1:
                    contrib = pair_integral(i, j, 1.0 - sg, wg, sg, wg)
                else:
                    contrib = pair_integral(i, j, sg, wg, 1.0 - sg, wg)
            else:
                contrib = pair_integral(i, j, s16, w16, s16, w16)
            total += 2.0 * contrib
    return math.sqrt(total)


def walk_trace(field):
    """Panel start points and trace values of a P1 field's boundary."""
    dofmap = field.dofmap
    dofs = dofmap.edge_dofs[:, 0]
    return dofmap.coords[dofs], field.coeffs[dofs]


def seminorm_pairwise(field):
    """The H^{1/2} seminorm with the library's quadrature rule applied
    one panel pair at a time, in plain loops.

    Each pair gets the rule the library assigns to it: the squared
    divided difference with 4 x 5 Gauss points on the diagonal, the
    4-level graded rule (4 points per cell) toward the shared vertex
    for adjacent panels, tensor Gauss with 8 points per panel at cyclic
    distance 2 to 4 and with 4 points beyond.  The same sum in another
    order: it pins which pairs are counted and how often, not the
    accuracy of the rule.
    """
    dofmap = field.dofmap
    mesh = dofmap.mesh
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    coeffs = field.coeffs[dofmap.edge_dofs]
    basis = [np.array(poly, dtype=float) for poly in _TRACE_T[dofmap.degree]]
    n = len(a)
    lengths = np.hypot(*(b - a).T)

    def value(i, t):
        return sum(c * np.polynomial.polynomial.polyval(t, p)
                   for c, p in zip(coeffs[i], basis))

    def point(i, t):
        return a[i] + np.outer(t, b[i] - a[i])

    def pair(i, s, ws, j, t, wt):
        num = (value(i, s)[:, None] - value(j, t)[None, :]) ** 2
        d2 = ((point(i, s)[:, None, :] - point(j, t)[None, :, :]) ** 2
              ).sum(axis=2)
        return (num / d2 * np.outer(ws, wt)).sum() * lengths[i] * lengths[j]

    s4, w4 = _gauss01(4)
    s5, w5 = _gauss01(5)
    s8, w8 = _gauss01(8)
    sg, wg = _graded01(4, 4)
    total = 0.0
    for i in range(n):
        quot = ((value(i, s4)[:, None] - value(i, s5)[None, :])
                / (s4[:, None] - s5[None, :]))
        total += (quot ** 2 * np.outer(w4, w5)).sum()
        for j in range(i + 1, n):
            gap = min(j - i, n - (j - i))
            if gap == 1:
                # grade both parameters toward the shared vertex
                if j == i + 1:
                    total += 2.0 * pair(i, 1.0 - sg, wg, j, sg, wg)
                else:
                    total += 2.0 * pair(j, 1.0 - sg, wg, i, sg, wg)
            elif gap <= 4:
                total += 2.0 * pair(i, s8, w8, j, s8, w8)
            else:
                total += 2.0 * pair(i, s4, w4, j, s4, w4)
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# the forms the vectorized kernels replaced
#
# Cell geometry, edge lengths and the VTK writer must match these bit for
# bit.  The stiffness and the load round differently on purpose (a
# reference tensor and a matmul in place of per-point einsums) and are
# compared with a tolerance.


def cell_geometry_stacked(mesh):
    """Per triangle: origin, Jacobian, determinant, inverse transpose,
    from the (nt, 3, 2) array of corners."""
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv_t = np.empty_like(jac)
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]
    return p[:, 0], jac, det, inv_t


def edge_lengths_sq_rolled(vertices, triangles):
    """Squared lengths of the edges v0v1, v1v2, v2v0 of each triangle."""
    p = vertices[triangles]
    d = p - np.roll(p, -1, axis=1)
    return np.einsum("tij,tij->ti", d, d)


def stiffness_einsum(dofmap):
    """The stiffness summed point by point over triangle_quadrature(2k)."""
    rule = triangle_quadrature(2 * dofmap.degree)
    grads = ReferenceBasis(dofmap.degree).gradients(rule.points)
    _, _, det, inv_t = cell_geometry_stacked(dofmap.mesh)
    phys = np.einsum("tab,nqb->tnqa", inv_t, grads)
    local = np.einsum("q,t,tnqa,tmqa->tnm", rule.weights, det, phys, phys)
    nd = local.shape[1]
    rows = np.repeat(dofmap.cell_dofs, nd, axis=1).ravel()
    cols = np.tile(dofmap.cell_dofs, (1, nd)).ravel()
    n = dofmap.num_dofs
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def load_einsum(dofmap, g):
    """(g, phi_i) summed point by point over triangle_quadrature(2k+2)
    and added into the dofs with np.add.at; g maps (x1, x2) arrays."""
    rule = triangle_quadrature(2 * dofmap.degree + 2)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)
    origin, jac, det, _ = cell_geometry_stacked(dofmap.mesh)
    pts = origin[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    gq = np.broadcast_to(g(pts[..., 0], pts[..., 1]), pts.shape[:-1])
    contrib = np.einsum("q,t,tq,nq->tn", rule.weights, det, gq, vals)
    out = np.zeros(dofmap.num_dofs)
    np.add.at(out, dofmap.cell_dofs.ravel(), contrib.ravel())
    return out


def physical_gradients(jac, det, grads):
    """Basis gradients J^-T g in every cell, (nt, nd, nq, 2), from the
    cell geometry and the reference gradients (nd, nq, 2), with
    J^-T = adj(J)^T / det.  The two-term sum rounds exactly like
    einsum("tab,nqb->tnqa")."""
    # adj(J)^T: J with both axes reversed and the off-diagonal negated
    inv_t = jac[:, ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    inv_t /= det[:, None, None]
    phys = inv_t[:, None, None, :, 0] * grads[None, :, :, None, 0]
    phys += inv_t[:, None, None, :, 1] * grads[None, :, :, None, 1]
    return phys


def _error_quadrature(dofmap):
    """triangle_quadrature(2k+2), the stacked cell geometry and the
    physical points (nt, nq, 2)."""
    rule = triangle_quadrature(2 * dofmap.degree + 2)
    origin, jac, det, _ = cell_geometry_stacked(dofmap.mesh)
    pts = origin[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    return rule, jac, det, pts


def error_L2_einsum(field, exact):
    """The L2 error contracted cell by cell, (nt, nq), by einsums."""
    dofmap = field.dofmap
    rule, _, det, pts = _error_quadrature(dofmap)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)
    uh = np.einsum("tn,nq->tq", field.coeffs[dofmap.cell_dofs], vals)
    diff = uh - np.broadcast_to(exact(pts[..., 0], pts[..., 1]), uh.shape)
    return math.sqrt(np.einsum("q,t,tq->", rule.weights, det, diff ** 2))


def error_H1_semi_einsum(field, exact_grad):
    """The H1-seminorm error through the (nt, nd, nq, 2) physical basis
    gradients, contracted by einsums."""
    dofmap = field.dofmap
    rule, jac, det, pts = _error_quadrature(dofmap)
    grads = ReferenceBasis(dofmap.degree).gradients(rule.points)
    phys = physical_gradients(jac, det, grads)
    gh = np.einsum("tn,tnqa->tqa", field.coeffs[dofmap.cell_dofs], phys)
    g = np.stack([np.broadcast_to(v, gh.shape[:2])
                  for v in exact_grad(pts[..., 0], pts[..., 1])], axis=2)
    return math.sqrt(np.einsum("q,t,tqa->", rule.weights, det,
                               (gh - g) ** 2))


def export_vtk_per_element(mesh, fields=(), names=None):
    """Legacy VTK bytes written one numpy scalar at a time."""
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    if names is None:
        names = ["field_%d" % i for i in range(len(fields))]
    lines = [
        "# vtk DataFile Version 3.0",
        "dbcfem level %d mesh" % mesh.level,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        "POINTS %d double" % nv,
    ]
    for x, y in mesh.vertices:
        lines.append("%.17g %.17g 0" % (x, y))
    lines.append("CELLS %d %d" % (nt, 4 * nt))
    for a, b, c in mesh.triangles:
        lines.append("3 %d %d %d" % (a, b, c))
    lines.append("CELL_TYPES %d" % nt)
    lines.extend(["5"] * nt)
    if fields:
        lines.append("POINT_DATA %d" % nv)
        for name, f in zip(names, fields):
            lines.append("SCALARS %s double 1" % name)
            lines.append("LOOKUP_TABLE default")
            for v in f.coeffs[:nv]:
                lines.append("%.17g" % v)
    return ("\n".join(lines) + "\n").encode("ascii")


def export_vtk_per_line(mesh, fields=(), names=None):
    """Legacy VTK bytes formatted one line at a time over tolist()
    scalars, the form the one-format-per-section writer replaced."""
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    if names is None:
        names = ["field_%d" % i for i in range(len(fields))]
    lines = [
        "# vtk DataFile Version 3.0",
        "dbcfem level %d mesh" % mesh.level,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        "POINTS %d double" % nv,
    ]
    lines.extend("%.17g %.17g 0" % (x, y) for x, y in mesh.vertices.tolist())
    lines.append("CELLS %d %d" % (nt, 4 * nt))
    lines.extend("3 %d %d %d" % (a, b, c)
                 for a, b, c in mesh.triangles.tolist())
    lines.append("CELL_TYPES %d" % nt)
    lines.extend(["5"] * nt)
    if fields:
        lines.append("POINT_DATA %d" % nv)
        for name, f in zip(names, fields):
            lines.append("SCALARS %s double 1" % name)
            lines.append("LOOKUP_TABLE default")
            lines.extend("%.17g" % v for v in f.coeffs[:nv].tolist())
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# verifiers and writers, one trial or one row at a time


def bubble_estimate_loop(dofmap, trials=100, seed=0):
    """verify_boundary_bubble_estimate with one draw per trial, a
    running max and a redraw of an all-zero draw."""
    bnd = dofmap.boundary
    k_bb = dofmap.stiffness[bnd, :][:, bnd]
    m_bb = dofmap.boundary_mass[bnd, :][:, bnd]

    rng = np.random.default_rng(seed)
    best = 0.0
    h = dofmap.mesh.h_max
    for _ in range(trials):
        theta = rng.uniform(-1.0, 1.0, len(bnd))
        while not theta.any():
            theta = rng.uniform(-1.0, 1.0, len(bnd))
        num = theta @ (k_bb @ theta)
        den = theta @ (m_bb @ theta)
        best = max(best, math.sqrt(num * h / den))
    return best


def _spread(values):
    lo, hi = min(values), max(values)
    return math.inf if lo <= 0.0 else hi / lo


def bubble_check_block(solutions, tolerances):
    """cli's boundary-bubble check as its own block: the levels >= 1,
    one spread, its own SKIP line."""
    bubble_sols = [s for s in solutions if s.level >= 1]
    if len(bubble_sols) >= 2:
        ratios = [verify_boundary_bubble_estimate(s.dofmap)
                  for s in bubble_sols]
        spread = _spread(ratios)
        bound = tolerances["bubble_spread"]
        return ("boundary-bubble-inverse-estimate", spread <= bound,
                "ratio spread %.4g over levels %s (bound %g)"
                % (spread, [s.level for s in bubble_sols], bound))
    return ("boundary-bubble-inverse-estimate", None,
            "skipped: needs two levels >= 1")


def stability_check_block(spec, solutions, tolerances):
    """cli's discrete-stability check as its own block: the levels >= 2,
    the larger of two spreads, its own SKIP line."""
    stab_sols = [s for s in solutions if s.level >= 2]
    if len(stab_sols) >= 2:
        combined, hhalf = [], []
        for s in stab_sols:
            c, hh = verify_discrete_stability(s.y, spec.gamma)
            combined.append(c)
            hhalf.append(hh)
        spread = max(_spread(combined), _spread(hhalf))
        bound = tolerances["stability_spread"]
        return ("discrete-stability-bounded", spread <= bound,
                "max spread %.4g over levels %s (bound %g)"
                % (spread, [s.level for s in stab_sols], bound))
    return ("discrete-stability-bounded", None,
            "skipped: needs two levels >= 2")


def control_csv_per_row(arcs, coords, values):
    """control.csv text formatted one boundary dof at a time."""
    lines = ["arc_length,x1,x2,u"]
    for s, (x1, x2), value in zip(arcs, coords, values):
        lines.append("%.6g,%.6g,%.6g,%.6g" % (s, x1, x2, value))
    return "\n".join(lines) + "\n"


def convergence_report_by_hand(report):
    """The run record's report of a ConvergenceReport, field by field."""
    return {
        "h": list(report.h),
        "errors": {k: list(v) for k, v in report.errors.items()},
        "eoc": {k: list(v) for k, v in report.eoc.items()},
        "columns": [list(c) for c in report.columns]}
