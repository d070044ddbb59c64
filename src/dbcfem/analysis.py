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

The double integral is evaluated panel-pairwise over the boundary walk.
The diagonal block (each panel against itself) reduces to the square of
a polynomial divided difference and is integrated with an unequal-order
tensor Gauss rule whose node sets cannot collide.  Every other pair goes
through one loop over the walk offset with one rule per offset: panels
sharing a vertex (offset 1) use a 4-level geometrically graded
subdivision toward the shared point, and the rest plain tensor Gauss,
8 points per panel up to 4 panels apart and 4 beyond.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import spsolve

from .assembly import (DofMap, _boundary_geometry, _cell_quadrature,
                       _edge_points, _edge_quadrature, _sample,
                       _trace_values)
from .elements import ReferenceBasis, segment_quadrature


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


def error_L2(field, exact):
    """sqrt of int (u_h - u)^2 over the domain."""
    dofmap = field.dofmap
    rule, det, pts = _cell_quadrature(dofmap)
    vals = ReferenceBasis(dofmap.degree).values(rule.points)
    diff = vals.T @ field.coeffs[dofmap.cell_dofs.T]        # (nq, nt)
    diff -= _sample(exact, pts)
    return math.sqrt(rule.weights @ np.square(diff, out=diff) @ det)


def error_H1_semi(field, exact_grad):
    """sqrt of int |grad u_h - grad u|^2; exact_grad returns (g1, g2).

    The reference gradient of u_h at every point comes first, one
    (2·nq, nd) @ (nd, nt) product, and J^-T = adj(J)^T / det maps it,
    so no per-cell basis gradients are formed.
    """
    dofmap = field.dofmap
    rule, det, pts = _cell_quadrature(dofmap)
    grads = ReferenceBasis(dofmap.degree).gradients(rule.points)
    nd, nq = grads.shape[:2]
    ref = (grads.transpose(2, 1, 0).reshape(2 * nq, nd)
           @ field.coeffs[dofmap.cell_dofs.T]).reshape(2, nq, -1)
    (a, b), (c, d) = dofmap.cell_geometry[1].transpose(1, 2, 0)
    sq = np.zeros_like(ref[0])
    for gh, g in zip(((d * ref[0] - c * ref[1]) / det,
                      (a * ref[1] - b * ref[0]) / det),
                     _sample(exact_grad, pts)):
        gh -= g
        sq += np.square(gh, out=gh)
    return math.sqrt(rule.weights @ sq @ det)


def error_L2_boundary(field, exact):
    """sqrt of int (u_h - u)^2 over the boundary curve."""
    dofmap = field.dofmap
    rule, lengths, pts = _edge_quadrature(dofmap)
    diff = _panel_values(field, rule.points) - _sample(exact, pts)
    return math.sqrt(np.einsum("q,e,eq->", rule.weights, lengths, diff ** 2))


def _graded_points():
    # geometric subdivision of [0,1] toward 0 in 4 cells, [0, 1/8]
    # and then doubling, with 4 Gauss points per cell
    breaks = np.array([0.0] + [2.0 ** (k - 4) for k in range(1, 5)])
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    rule = segment_quadrature(7)
    return (lo + width * rule.points).ravel(), (width * rule.weights).ravel()


def _panel_values(field, t):
    """Trace values at per-panel parameters t; returns (npanels, len(t))."""
    tvals = _trace_values(field.dofmap.degree, np.asarray(t))
    return np.einsum("en,nq->eq", field.coeffs[field.dofmap.edge_dofs], tvals)


def seminorm_H_half_boundary(field):
    """Aronszajn-Slobodeckij H^{1/2} seminorm of the boundary trace."""
    a, b, lengths = _boundary_geometry(field.dofmap)
    n = len(lengths)

    # diagonal: contribution of each panel against itself is the square
    # of the divided difference, a polynomial; unequal Gauss orders keep
    # the node sets disjoint so the difference quotient is well defined
    s, t = segment_quadrature(7), segment_quadrature(9)
    vs = _panel_values(field, s.points)
    vt = _panel_values(field, t.points)
    quot = ((vs[:, :, None] - vt[:, None, :])
            / (s.points[:, None] - t.points[None, :]))
    total = np.einsum("i,j,eij->", s.weights, t.weights, quot ** 2)

    # every other pair, one walk offset at a time, each unordered pair
    # once (at off = n/2 only the first n/2 panels) and counted twice.
    # A rule is a (row side, column side, weights) triple; a side holds
    # the trace values and points at its parameters on every panel.
    # Neighbours (off = 1) use the points graded toward the shared
    # vertex, the row panel's end and the column panel's start; farther
    # pairs tensor Gauss, 8 points up to 4 panels apart and 4 beyond.
    def side(t):
        return _panel_values(field, t), _edge_points(a, b, t)

    tg, wg = _graded_points()
    rules = [(side(1.0 - tg), side(tg), wg)]
    for q in (8, 4):
        gauss = segment_quadrature(2 * q - 1)
        rules.append((side(gauss.points),) * 2 + (gauss.weights,))
    for off in range(1, n // 2 + 1):
        (v_r, x_r), (v_c, x_c), w = rules[0 if off == 1 else
                                          1 if off <= 4 else 2]
        rows = np.arange(n if off < n - off else n // 2)
        cols = (rows + off) % n
        num = (v_r[rows, :, None] - v_c[cols, None, :]) ** 2
        d2 = ((x_r[rows, :, None] - x_c[cols, None]) ** 2).sum(axis=3)
        ww = np.einsum("e,i,j->eij", lengths[rows] * lengths[cols], w, w)
        total += 2.0 * float((num / d2 * ww).sum())

    return math.sqrt(total)


def boundary_L2_projection(dofmap, q):
    """L2 projection of q onto the boundary trace space.

    Return: coefficient vector over the boundary dofs, ordered like
    dofmap.boundary.
    """
    rule, lengths, pts = _edge_quadrature(dofmap)
    tvals = _trace_values(dofmap.degree, rule.points)
    contrib = np.einsum("q,e,eq,nq->en", rule.weights, lengths,
                        _sample(q, pts), tvals)
    rhs_full = np.bincount(dofmap.edge_dofs.ravel(), contrib.ravel(),
                           minlength=dofmap.num_dofs)

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
    """Per-level errors, and the estimated orders (eoc) derived from
    them, for one problem setup.

    columns fixes the CSV layout: a tuple of (norm key, with_order)
    pairs in table order.
    """

    h: tuple
    errors: dict
    columns: tuple

    eoc = property(lambda self: {key: compute_eoc(vals) for key, vals
                                 in self.errors.items()})

    def to_csv(self):
        header = ["h"]
        for key, with_order in self.columns:
            header.append(key)
            if with_order:
                header.append("order_" + key)
        lines = [",".join(header)]
        eoc = self.eoc
        for i in range(len(self.h)):
            row = ["%.6g" % self.h[i]]
            for key, with_order in self.columns:
                row.append("%.6g" % self.errors[key][i])
                if with_order:
                    o = eoc[key][i]
                    row.append("--" if o is None else "%.6g" % o)
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def verify_boundary_bubble_estimate(dofmap, trials=100, seed=0):
    """Max of ||grad theta|| h^{1/2} / ||theta||_Gamma over random bubbles.

    theta is supported on boundary nodes only (it vanishes at every
    interior node); the trials are the rows of one seeded (trials, |B|)
    draw, uniform in [-1, 1] and never redrawn.  The inverse estimate
    says this maximum stays bounded under refinement.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    bnd = dofmap.boundary
    k_bb = dofmap.stiffness[bnd, :][:, bnd]
    m_bb = dofmap.boundary_mass[bnd, :][:, bnd]
    theta = np.random.default_rng(seed).uniform(-1, 1, (trials, bnd.size))
    num = np.einsum("ti,it->t", theta, k_bb @ theta.T)
    den = np.einsum("ti,it->t", theta, m_bb @ theta.T)
    return math.sqrt((num * dofmap.mesh.h_max / den).max())


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
    if not v.any():
        return 0.0, 0.0
    combined = (math.sqrt(gamma) * math.sqrt(v @ (dofmap.boundary_mass @ v))
                + math.sqrt(v @ (dofmap.mass @ v)))
    return combined, seminorm_H_half_boundary(field)


def boundary_walk_dofs(dofmap):
    """Dofs along the boundary walk with their arc-length positions.

    Return: (dof indices, arc lengths, coordinates) ordered
    counterclockwise from the walk start; degree 2 interleaves the edge
    midpoints between the vertex dofs.
    """
    _, _, lengths = _boundary_geometry(dofmap)
    starts = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    # each edge's first vertex, at offset 0, and its midpoint (column 2)
    # at half its length; degree 1 keeps only the vertex
    dofs = dofmap.edge_dofs[:, [0, 2][:dofmap.degree]].ravel()
    arcs = (starts[:, None]
            + np.multiply.outer(lengths, [0.0, 0.5][:dofmap.degree])).ravel()
    return dofs, arcs, dofmap.coords[dofs]
