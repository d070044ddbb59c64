"""Lagrange reference bases (P1, P2) and quadrature on triangles and segments.

The reference triangle has vertices (0,0), (1,0), (0,1); barycentric
coordinates are l1 = 1-x-y, l2 = x, l3 = y.  P2 nodes are the three
vertices followed by the edge midpoints (1/2,0), (1/2,1/2), (0,1/2),
i.e. midpoints of edges 12, 23, 31 in that order.

Triangle quadrature is a fixed table of symmetric rules with exactness
degrees 1, 2, 5 and 6; a request returns the cheapest rule at least as
exact, so nothing in the solver ever under-integrates.  The degree-5
rule is the classical 7-point rule whose points and weights are closed
forms in sqrt(15); the degree-6 12-point rule uses constants refined by
Newton iteration on the moment equations until every monomial of total
degree <= 6 is integrated to machine accuracy.  Segment rules are
Gauss-Legendre mapped to [0,1].
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class ReferenceBasis:
    """Nodal Lagrange basis on the reference triangle."""

    degree: int

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError("unsupported degree %r (only 1 and 2)" % (self.degree,))

    def values(self, points):
        """Basis values at reference points; shape (nd, npoints)."""
        x, y = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
        l1 = 1.0 - x - y
        if self.degree == 1:
            return np.stack([l1, x, y])
        return np.stack([
            l1 * (2 * l1 - 1), x * (2 * x - 1), y * (2 * y - 1),
            4 * l1 * x, 4 * x * y, 4 * y * l1])

    def gradients(self, points):
        """Basis gradients at reference points; shape (nd, npoints, 2)."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        x, y = pts.T
        n = len(pts)
        if self.degree == 1:
            g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            return np.broadcast_to(g[:, None, :], (3, n, 2)).copy()
        l1 = 1.0 - x - y
        zero = np.zeros(n)
        four_l1 = 4 * l1
        g = np.empty((6, n, 2))
        g[0] = np.stack([1 - 4 * l1, 1 - 4 * l1], axis=1)
        g[1] = np.stack([4 * x - 1, zero], axis=1)
        g[2] = np.stack([zero, 4 * y - 1], axis=1)
        g[3] = np.stack([four_l1 - 4 * x, -4 * x], axis=1)
        g[4] = np.stack([4 * y, 4 * x], axis=1)
        g[5] = np.stack([-4 * y, four_l1 - 4 * y], axis=1)
        return g


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference element.

    points  -- (n, 2) for triangles, (n,) for the unit segment
    weights -- (n,), summing to the reference measure
    degree  -- every polynomial up to this total degree is integrated
               exactly
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)


def _orbit3(a, b):
    return [(a, b), (b, a), (b, b)]


def _orbit6(e, f, g):
    return [(e, f), (f, e), (e, g), (g, e), (f, g), (g, f)]


def _tri_rules():
    third = 1.0 / 3.0
    rules = {1: ([(third, third)], [1.0])}

    rules[2] = (_orbit3(2.0 / 3.0, 1.0 / 6.0), [third] * 3)

    s15 = np.sqrt(15.0)
    ap, am = (6 + s15) / 21, (6 - s15) / 21
    wp, wm = (155 + s15) / 1200, (155 - s15) / 1200
    pts = [(third, third)]
    pts += _orbit3(1 - 2 * ap, ap)
    pts += _orbit3(1 - 2 * am, am)
    rules[5] = (pts, [0.225] + [wp] * 3 + [wm] * 3)

    # 12-point degree-6 rule, constants polished by Newton iteration on
    # the moment equations (residual below 1e-40 in exact arithmetic)
    a1, b1, w1 = 0.87382197101699554, 0.063089014491502228, 0.050844906370206817
    a2, b2, w2 = 0.50142650965817916, 0.24928674517091042, 0.11678627572637937
    e, f = 0.63650249912139865, 0.31035245103378441
    g, w3 = 0.053145049844816947, 0.082851075618373575
    pts = _orbit3(a1, b1) + _orbit3(a2, b2) + _orbit6(e, f, g)
    rules[6] = (pts, [w1] * 3 + [w2] * 3 + [w3] * 6)

    out = {}
    for deg, (pts, wts) in rules.items():
        out[deg] = QuadratureRule(np.array(pts, dtype=np.float64),
                                  0.5 * np.array(wts, dtype=np.float64), deg)
    return out


_TRI_RULES = _tri_rules()


def triangle_quadrature(exactness):
    """Symmetric triangle rule exact to at least the requested degree."""
    if not 1 <= exactness <= 6:
        raise ValueError("unsupported quadrature exactness %r (1..6)" % (exactness,))
    degree = min(d for d in _TRI_RULES if d >= exactness)
    return _TRI_RULES[degree]


@lru_cache(maxsize=None)
def _segment_rule(n):
    x, w = leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, 2 * n - 1)


def segment_quadrature(exactness):
    """Gauss-Legendre rule on [0,1] exact to at least the requested degree.

    leggauss solves an eigenvalue problem, so each rule is computed once
    and then shared, like the triangle rules."""
    if exactness < 1:
        raise ValueError("unsupported quadrature exactness %r" % (exactness,))
    return _segment_rule((int(exactness) + 2) // 2)
