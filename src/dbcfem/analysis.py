"""Error norms, convergence orders and numerical property verifiers.

Besides the standard L2, H1-seminorm and boundary-L2 error integrals
(computed with quadrature of exactness 2k+2 so smooth-solution tables
are never quadrature limited), this module evaluates the
Aronszajn-Slobodeckij trace seminorm

    |v|_{1/2,Gamma}^2 = int_Gamma int_Gamma |v(x) - v(y)|^2 / |x - y|^2 ds ds

for piecewise-polynomial traces, and provides the verifiers behind the
stability and inverse-estimate checks: random boundary bubbles (fields
vanishing at every interior node) for the inverse estimate
||grad theta|| <= C h^{-1/2} ||theta||_Gamma, the L2-vs-H1 error ratio,
and the uniform bound on gamma^{1/2}||y_h||_Gamma + ||y_h|| and
|y_h|_{1/2,Gamma} under refinement.

The double integral is evaluated panel-pairwise over the boundary walk:
the diagonal (same panel) reduces to the square of a polynomial divided
difference and is integrated with an unequal-order tensor Gauss rule
whose node sets cannot collide; panels sharing a vertex use a 4-level
geometrically graded subdivision toward the shared point; everything
else uses plain tensor Gauss, with more points for close pairs.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.sparse.linalg import spsolve

from .assembly import (DofMap, _boundary_geometry, _cell_geometry,
                       _trace_values)
from .elements import ReferenceBasis, segment_quadrature, triangle_quadrature


@dataclass
class FemField:
    """Coefficient vector over a DofMap.

    Fields in the zero-trace subspace are stored zero-extended over all
    N dofs, so every field here has full length.
    """

    dofmap: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.shape != (self.dofmap.num_dofs,):
            raise ValueError("coefficient vector has shape %s, expected (%d,)"
                             % (self.coeffs.shape, self.dofmap.num_dofs))


def interpolate(dofmap, fn):
    """Nodal interpolant of a callable; exact for polynomials of degree <= k."""
    x = dofmap.coords
    return FemField(dofmap, np.asarray(fn(x[:, 0], x[:, 1]), dtype=np.float64))


def _volume_setup(field, exactness):
    dofmap = field.dofmap
    rule = triangle_quadrature(2 * dofmap.degree + 2 if exactness is None
                               else exactness)
    origin, jac, det, inv_t = _cell_geometry(dofmap.mesh)
    pts = origin[:, None, :] + np.einsum("tab,qb->tqa", jac, rule.points)
    return dofmap, rule, inv_t, det, pts


def error_L2(field, exact, exactness=None):
    """sqrt of int (u_h - u)^2 over the domain."""
    dofmap, rule, _, det, pts = _volume_setup(field, exactness)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)
    uh = np.einsum("tn,nq->tq", field.coeffs[dofmap.cell_dofs], vals)
    ue = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=np.float64)
    diff = uh - np.broadcast_to(ue, uh.shape)
    return math.sqrt(np.einsum("q,t,tq->", rule.weights, det, diff ** 2))


def error_H1_semi(field, exact_grad, exactness=None):
    """sqrt of int |grad u_h - grad u|^2; exact_grad returns (g1, g2)."""
    dofmap, rule, inv_t, det, pts = _volume_setup(field, exactness)
    grads = ReferenceBasis(dofmap.degree).gradients(rule.points)
    phys = np.einsum("tab,nqb->tnqa", inv_t, grads)
    gh = np.einsum("tn,tnqa->tqa", field.coeffs[dofmap.cell_dofs], phys)
    g1, g2 = exact_grad(pts[..., 0], pts[..., 1])
    ge = np.stack([np.broadcast_to(np.asarray(g1, dtype=np.float64), gh.shape[:2]),
                   np.broadcast_to(np.asarray(g2, dtype=np.float64), gh.shape[:2])],
                  axis=2)
    diff = gh - ge
    return math.sqrt(np.einsum("q,t,tqa->", rule.weights, det, diff ** 2))


def error_L2_boundary(field, exact, exactness=None):
    """sqrt of int (u_h - u)^2 over the boundary curve."""
    dofmap = field.dofmap
    rule = segment_quadrature(2 * dofmap.degree + 2 if exactness is None
                              else exactness)
    a, b, lengths = _boundary_geometry(dofmap)
    tvals = _trace_values(dofmap.degree, rule.points)
    uh = np.einsum("en,nq->eq", field.coeffs[dofmap.edge_dofs], tvals)
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    ue = np.asarray(exact(pts[..., 0], pts[..., 1]), dtype=np.float64)
    diff = uh - np.broadcast_to(ue, uh.shape)
    return math.sqrt(np.einsum("q,e,eq->", rule.weights, lengths, diff ** 2))


def _gauss01(n):
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _graded_points(levels=4, per_cell=4):
    # geometric subdivision of [0,1] toward 0: [0,2^-l], then doubling
    breaks = [0.0] + [2.0 ** (k - levels) for k in range(levels + 1)][1:]
    x, w = _gauss01(per_cell)
    pts, wts = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        pts.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
    return np.concatenate(pts), np.concatenate(wts)


def _panel_values(field, t):
    """Trace values at per-panel parameters t; returns (npanels, len(t))."""
    tvals = _trace_values(field.dofmap.degree, np.asarray(t))
    return np.einsum("en,nq->eq", field.coeffs[field.dofmap.edge_dofs], tvals)


def _panel_points(dofmap, t):
    a, b, _ = _boundary_geometry(dofmap)
    return a[:, None, :] + np.asarray(t)[None, :, None] * (b - a)[:, None, :]


def seminorm_H_half_boundary(field):
    """Aronszajn-Slobodeckij H^{1/2} seminorm of the boundary trace."""
    dofmap = field.dofmap
    _, _, lengths = _boundary_geometry(dofmap)
    n = len(lengths)

    # diagonal: contribution of each panel against itself is the square
    # of the divided difference, a polynomial; unequal Gauss orders keep
    # the node sets disjoint so the difference quotient is well defined
    s, ws = _gauss01(4)
    t, wt = _gauss01(5)
    vs = _panel_values(field, s)
    vt = _panel_values(field, t)
    quot = (vs[:, :, None] - vt[:, None, :]) / (s[:, None] - t[None, :])
    total = np.einsum("i,j,eij->", ws, wt, quot ** 2)

    # panels sharing a vertex: graded subdivision toward the shared point
    tg, wg = _graded_points()
    v_out = _panel_values(field, 1.0 - tg)      # parameter from panel end
    x_out = _panel_points(dofmap, 1.0 - tg)
    v_in = np.roll(_panel_values(field, tg), -1, axis=0)
    x_in = np.roll(_panel_points(dofmap, tg), -1, axis=0)
    num = (v_out[:, :, None] - v_in[:, None, :]) ** 2
    d2 = ((x_out[:, :, None, :] - x_in[:, None, :, :]) ** 2).sum(axis=3)
    ww = np.einsum("e,i,j->eij", lengths * np.roll(lengths, -1), wg, wg)
    total += 2.0 * float((num / d2 * ww).sum())

    # close pairs (2 to 4 panels apart along the walk): dense tensor Gauss
    t8, w8 = _gauss01(8)
    v8 = _panel_values(field, t8)
    x8 = _panel_points(dofmap, t8)
    for off in (2, 3, 4):
        if off > n // 2:
            break
        rows = np.arange(n if off < n - off else n // 2)
        vq = np.roll(v8, -off, axis=0)[rows]
        xq = np.roll(x8, -off, axis=0)[rows]
        lq = np.roll(lengths, -off)[rows]
        num = (v8[rows, :, None] - vq[:, None, :]) ** 2
        d2 = ((x8[rows, :, None, :] - xq[:, None, :, :]) ** 2).sum(axis=3)
        ww = np.einsum("e,i,j->eij", lengths[rows] * lq, w8, w8)
        total += 2.0 * float((num / d2 * ww).sum())

    # far pairs: single tensor Gauss panel by panel, blocked over rows
    t4, w4 = _gauss01(4)
    v4 = _panel_values(field, t4)
    x4 = _panel_points(dofmap, t4)
    w4l = w4[None, :] * lengths[:, None]
    idx = np.arange(n)
    far = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                     n - np.abs(idx[:, None] - idx[None, :])) > 4
    step = max(1, 2 ** 22 // (16 * n))
    for lo in range(0, n, step):
        sel = slice(lo, min(lo + step, n))
        mask = far[sel]
        if not mask.any():
            continue
        num = (v4[sel][:, :, None, None] - v4[None, None, :, :]) ** 2
        d2 = ((x4[sel][:, :, None, None, :] - x4[None, None, :, :, :]) ** 2).sum(axis=4)
        d2 = np.where(mask[:, None, :, None], d2, 1.0)
        contrib = num / d2 * w4l[sel][:, :, None, None] * w4l[None, None, :, :]
        total += float((contrib * mask[:, None, :, None]).sum())

    return math.sqrt(total)


def boundary_L2_projection(dofmap, q, exactness=None):
    """L2 projection of q onto the boundary trace space.

    Return: coefficient vector over the boundary dofs, ordered like
    dofmap.boundary.
    """
    rule = segment_quadrature(2 * dofmap.degree + 2 if exactness is None
                              else exactness)
    a, b, lengths = _boundary_geometry(dofmap)
    tvals = _trace_values(dofmap.degree, rule.points)
    pts = a[:, None, :] + rule.points[None, :, None] * (b - a)[:, None, :]
    qv = np.asarray(q(pts[..., 0], pts[..., 1]), dtype=np.float64)
    qv = np.broadcast_to(qv, (len(lengths), len(rule.points)))

    contrib = np.einsum("q,e,eq,nq->en", rule.weights, lengths, qv, tvals)
    rhs_full = np.zeros(dofmap.num_dofs)
    np.add.at(rhs_full, dofmap.edge_dofs.ravel(), contrib.ravel())

    bb = dofmap.boundary_mass[dofmap.boundary, :][:, dofmap.boundary].tocsc()
    return spsolve(bb, rhs_full[dofmap.boundary])


def compute_eoc(errors):
    """Estimated orders log2(e_{l-1} / e_l) under mesh halving.

    The first entry is None; equal consecutive errors give 0.
    """
    out = [None]
    for prev, cur in zip(errors[:-1], errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            out.append(float("nan"))
        else:
            out.append(math.log2(prev / cur))
    return out


@dataclass
class ConvergenceReport:
    """Per-level errors and estimated orders for one problem setup.

    columns fixes the CSV layout: a tuple of (norm key, with_order)
    pairs in table order.
    """

    problem: str
    gamma: float
    degree: int
    levels: tuple
    h: tuple
    errors: dict
    eoc: dict
    columns: tuple

    def to_csv(self):
        header = ["h"]
        for key, with_order in self.columns:
            header.append(key)
            if with_order:
                header.append("order_" + key)
        lines = [",".join(header)]
        for i in range(len(self.levels)):
            row = ["%.6g" % self.h[i]]
            for key, with_order in self.columns:
                row.append("%.6g" % self.errors[key][i])
                if with_order:
                    o = self.eoc[key][i]
                    row.append("--" if o is None else "%.6g" % o)
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def verify_boundary_bubble_estimate(dofmap, trials=100, seed=0):
    """Max of ||grad theta|| h^{1/2} / ||theta||_Gamma over random bubbles.

    theta is supported on boundary nodes only (it vanishes at every
    interior node); coefficients are uniform in [-1, 1] from a seeded
    generator, and the all-zero draw is rejected.  The inverse estimate
    says this maximum stays bounded under refinement.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
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


def verify_L2_controlled_by_H1(field, exact, exact_grad):
    """Ratio ||u - u_h|| / ||grad(u - u_h)||; NaN when either error is 0."""
    l2 = error_L2(field, exact)
    h1 = error_H1_semi(field, exact_grad)
    if l2 == 0.0 or h1 == 0.0:
        return float("nan")
    return l2 / h1


def verify_discrete_stability(field, gamma):
    """Return (gamma^{1/2} ||v||_Gamma + ||v||, |v|_{1/2,Gamma}).

    Both sequences stay bounded under refinement for fixed data; the
    caller compares across levels.
    """
    dofmap = field.dofmap
    v = field.coeffs
    combined = (math.sqrt(gamma) * math.sqrt(v @ (dofmap.boundary_mass @ v))
                + math.sqrt(v @ (dofmap.mass @ v)))
    if not v.any():
        return 0.0, 0.0
    return combined, seminorm_H_half_boundary(field)


def boundary_walk_dofs(dofmap):
    """Dofs along the boundary walk with their arc-length positions.

    Return: (dof indices, arc lengths, coordinates) ordered
    counterclockwise from the walk start; degree 2 interleaves the edge
    midpoints between the vertex dofs.
    """
    _, _, lengths = _boundary_geometry(dofmap)
    starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    if dofmap.degree == 1:
        dofs = dofmap.edge_dofs[:, 0]
        arcs = starts
    else:
        dofs = dofmap.edge_dofs[:, [0, 2]].ravel()
        arcs = np.column_stack([starts, starts + 0.5 * lengths]).ravel()
    return dofs, arcs, dofmap.coords[dofs]
