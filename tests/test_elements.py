"""Reference bases and quadrature rules.

Monomial integrals over the reference triangle have the closed form
int x^i y^j = i! j! / (i + j + 2)!, which makes exact-rational oracles
cheap; every rule is checked against them through its stated exactness.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcfem.elements import (ReferenceBasis, segment_quadrature,
                             triangle_quadrature)

P1_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
P2_NODES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                     [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])


def tri_monomial(i, j):
    return Fraction(math.factorial(i) * math.factorial(j),
                    math.factorial(i + j + 2))


def random_reference_points(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, n)
    b = rng.uniform(0, 1, n) * (1 - a)
    return np.column_stack([a, b])


class TestReferenceBasis:
    @pytest.mark.parametrize("degree,nodes", [(1, P1_NODES), (2, P2_NODES)])
    def test_kronecker_at_nodes(self, degree, nodes):
        basis = ReferenceBasis(degree)
        vals = basis.values(nodes)
        assert vals == pytest.approx(np.eye(len(nodes)), abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_partition_of_unity_and_gradient_sum(self, degree):
        pts = random_reference_points(1000, seed=7)
        basis = ReferenceBasis(degree)
        vals, grads = basis.values(pts), basis.gradients(pts)
        assert vals.sum(axis=0) == pytest.approx(np.ones(1000), abs=1e-13)
        assert grads.sum(axis=0) == pytest.approx(
            np.zeros((1000, 2)), abs=1e-12)

    def test_p1_gradients_are_the_barycentric_ones(self):
        pts = random_reference_points(10, seed=1)
        grads = ReferenceBasis(1).gradients(pts)
        expect = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        for i in range(3):
            assert grads[i] == pytest.approx(
                np.tile(expect[i], (10, 1)), abs=1e-15)

    def test_p2_midpoint_kronecker(self):
        vals = ReferenceBasis(2).values(np.array([[0.5, 0.0]]))
        assert vals[:, 0] == pytest.approx([0, 0, 0, 1, 0, 0], abs=1e-15)

    def test_p2_reproduces_quadratics(self):
        # nodal interpolation of x^2 + 3xy - y is exact for degree 2
        f = lambda p: p[:, 0] ** 2 + 3 * p[:, 0] * p[:, 1] - p[:, 1]
        coeffs = f(P2_NODES)
        pts = random_reference_points(200, seed=3)
        vals = ReferenceBasis(2).values(pts)
        assert coeffs @ vals == pytest.approx(f(pts), abs=1e-13)

    @pytest.mark.parametrize("degree", [0, 3, -1])
    def test_unsupported_degree_rejected(self, degree):
        with pytest.raises(ValueError):
            ReferenceBasis(degree)


class TestTriangleQuadrature:
    @pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6])
    def test_weights_sum_to_half(self, exactness):
        rule = triangle_quadrature(exactness)
        assert rule.weights.sum() == pytest.approx(0.5, rel=1e-14)
        assert rule.degree >= exactness

    @pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6])
    def test_monomials_integrated_exactly(self, exactness):
        rule = triangle_quadrature(exactness)
        for i in range(rule.degree + 1):
            for j in range(rule.degree + 1 - i):
                got = (rule.weights
                       * rule.points[:, 0] ** i
                       * rule.points[:, 1] ** j).sum()
                assert got == pytest.approx(
                    float(tri_monomial(i, j)), rel=2e-14), (i, j)

    def test_degree_one_is_the_centroid_rule(self):
        rule = triangle_quadrature(1)
        assert len(rule.weights) == 1
        assert rule.points[0] == pytest.approx([1 / 3, 1 / 3])
        assert rule.weights[0] == pytest.approx(0.5)

    def test_degree_five_value_for_x_to_the_fifth(self):
        rule = triangle_quadrature(5)
        got = (rule.weights * rule.points[:, 0] ** 5).sum()
        assert got == pytest.approx(1 / 42, rel=1e-14)

    def test_points_inside_reference_triangle(self):
        for exactness in range(1, 7):
            p = triangle_quadrature(exactness).points
            assert (p >= 0).all() and (p.sum(axis=1) <= 1 + 1e-15).all()

    @pytest.mark.parametrize("exactness", [0, 7])
    def test_unsupported_exactness_rejected(self, exactness):
        with pytest.raises(ValueError):
            triangle_quadrature(exactness)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_random_polynomial_agrees_with_closed_form(self, exactness, data):
        rule = triangle_quadrature(exactness)
        deg = rule.degree
        terms = [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
        coeffs = [data.draw(st.integers(-9, 9)) for _ in terms]
        exact = sum(c * tri_monomial(i, j)
                    for c, (i, j) in zip(coeffs, terms))
        got = sum(c * (rule.weights * rule.points[:, 0] ** i
                       * rule.points[:, 1] ** j).sum()
                  for c, (i, j) in zip(coeffs, terms))
        assert got == pytest.approx(float(exact), abs=1e-13)


class TestSegmentQuadrature:
    @pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6])
    def test_weights_sum_to_one(self, exactness):
        rule = segment_quadrature(exactness)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert rule.degree >= exactness

    @pytest.mark.parametrize("exactness", [1, 2, 3, 4, 5, 6])
    def test_monomials_integrated_exactly(self, exactness):
        rule = segment_quadrature(exactness)
        for i in range(rule.degree + 1):
            got = (rule.weights * rule.points ** i).sum()
            assert got == pytest.approx(1.0 / (i + 1), rel=1e-14), i

    def test_degree_three_is_two_point_gauss(self):
        rule = segment_quadrature(3)
        assert len(rule.points) == 2
        expect = np.sort([(1 - 1 / math.sqrt(3)) / 2,
                          (1 + 1 / math.sqrt(3)) / 2])
        assert np.sort(rule.points) == pytest.approx(expect, rel=1e-15)

    def test_degree_five_integrates_quartics(self):
        rule = segment_quadrature(5)
        assert (rule.weights * rule.points ** 4).sum() == pytest.approx(
            0.2, rel=1e-14)

    def test_points_inside_unit_interval(self):
        for exactness in range(1, 7):
            p = segment_quadrature(exactness).points
            assert (p > 0).all() and (p < 1).all()

    @pytest.mark.parametrize("exactness", [1, 3, 7, 9, 15])
    def test_rule_is_computed_once_and_is_leggauss(self, exactness):
        rule = segment_quadrature(exactness)
        assert segment_quadrature(exactness) is rule
        x, w = np.polynomial.legendre.leggauss((exactness + 2) // 2)
        assert rule.points.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert rule.weights.tobytes() == (0.5 * w).tobytes()
        assert not rule.points.flags.writeable
        assert not rule.weights.flags.writeable
