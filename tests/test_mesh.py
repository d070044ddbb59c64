"""Mesh construction, uniform refinement, and VTK export."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbcfem.mesh as mesh_module
from dbcfem.assembly import DofMap
from dbcfem.mesh import (TriMesh, _edge_lengths_sq, edge_numbering,
                         export_vtk, make_initial_mesh, mesh_hierarchy,
                         prolong_linear, refine_uniform)

from oracles import (check_mesh, edge_lengths_sq_rolled,
                     export_vtk_per_element, export_vtk_per_line,
                     interpolate, signed_areas)

UNIT = (0.0, 1.0, 0.0, 1.0)
QUARTER = (0.0, 0.25, 0.0, 0.25)
SKEW = (0.1, 1.3, 0.2, 0.9)


def rect_area(rect):
    return (rect[1] - rect[0]) * (rect[3] - rect[2])


def rect_perimeter(rect):
    return 2.0 * ((rect[1] - rect[0]) + (rect[3] - rect[2]))


def all_edges(mesh):
    tri = mesh.triangles
    pairs = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


class TestInitialMesh:
    def test_unit_square_counts_and_h(self):
        mesh = make_initial_mesh(UNIT)
        assert mesh.num_triangles == 8
        assert mesh.num_vertices == 9
        assert mesh.level == 0
        assert mesh.h_max == pytest.approx(math.sqrt(2) / 2, rel=1e-15)

    def test_quarter_square_h(self):
        mesh = make_initial_mesh(QUARTER)
        assert mesh.num_triangles == 8
        assert mesh.h_max == pytest.approx(math.sqrt(2) / 8, rel=1e-15)

    def test_all_triangles_congruent_area_eighth(self):
        mesh = make_initial_mesh(UNIT)
        areas = signed_areas(mesh)
        assert areas == pytest.approx(np.full(8, 1.0 / 8.0), rel=1e-15)
        # congruent: every triangle has the same sorted side lengths
        p = mesh.vertices[mesh.triangles]
        sides = np.sort(np.stack([
            np.hypot(*(p[:, 1] - p[:, 0]).T),
            np.hypot(*(p[:, 2] - p[:, 1]).T),
            np.hypot(*(p[:, 0] - p[:, 2]).T)]), axis=0)
        assert np.ptp(sides, axis=1) == pytest.approx(np.zeros(3), abs=1e-15)
        assert sides[:, 0] == pytest.approx([0.5, 0.5, math.sqrt(2) / 2])

    @pytest.mark.parametrize("rect", [
        (0.0, 0.0, 0.0, 1.0),       # zero width
        (0.0, 1.0, 2.0, 2.0),       # zero height
        (1.0, 0.0, 0.0, 1.0),       # inverted
    ])
    def test_degenerate_rectangle_rejected(self, rect):
        with pytest.raises(ValueError):
            make_initial_mesh(rect)

    def test_boundary_walk_closed(self):
        mesh = make_initial_mesh(UNIT)
        assert len(mesh.boundary_edges) == 8
        heads = mesh.boundary_edges[:, 0]
        tails = np.roll(mesh.boundary_edges[:, 1], 1)
        assert (heads == tails).all()


@pytest.fixture(scope="module")
def unit_hierarchy():
    return mesh_hierarchy(UNIT, 4)


class TestRefinement:
    def test_counts_follow_powers_of_four(self, unit_hierarchy):
        for lv, mesh in enumerate(unit_hierarchy):
            assert mesh.level == lv
            assert mesh.num_triangles == 8 * 4 ** lv
            assert mesh.num_vertices == (2 ** (lv + 1) + 1) ** 2
            assert len(mesh.boundary_edges) == 8 * 2 ** lv

    def test_h_max_halves_exactly(self, unit_hierarchy):
        for coarse, fine in zip(unit_hierarchy, unit_hierarchy[1:]):
            assert fine.h_max == pytest.approx(0.5 * coarse.h_max, rel=1e-14)
        assert unit_hierarchy[4].h_max == pytest.approx(
            math.sqrt(2) / 32, rel=1e-14)

    def test_h_max_is_computed_on_first_read_only(self, monkeypatch):
        calls = []
        original = mesh_module._edge_lengths_sq
        monkeypatch.setattr(mesh_module, "_edge_lengths_sq",
                            lambda *args: calls.append(1) or original(*args))
        meshes = mesh_hierarchy(SKEW, 4)
        assert len(calls) == 4          # one longest-edge pass per split
        for mesh in meshes:
            first = mesh.h_max
            assert mesh.h_max == first
        assert len(calls) == 4 + len(meshes)

    def test_area_and_perimeter_preserved(self, unit_hierarchy):
        for mesh in unit_hierarchy:
            assert signed_areas(mesh).sum() == pytest.approx(1.0, rel=1e-12)
            p = mesh.vertices
            lengths = np.hypot(*(p[mesh.boundary_edges[:, 1]]
                                 - p[mesh.boundary_edges[:, 0]]).T)
            assert lengths.sum() == pytest.approx(4.0, rel=1e-12)

    def test_euler_formula(self, unit_hierarchy):
        # V - E + F = 1 for a triangulated disk (outer face not counted)
        for mesh in unit_hierarchy:
            v = mesh.num_vertices
            e = len(all_edges(mesh))
            f = mesh.num_triangles
            assert v - e + f == 1

    def test_invariants_hold_at_every_level(self, unit_hierarchy):
        for mesh in unit_hierarchy:
            check_mesh(mesh)

    def test_children_congruent_to_each_other(self, unit_hierarchy):
        # the family stays uniform: one triangle shape per level
        for mesh in unit_hierarchy:
            p = mesh.vertices[mesh.triangles]
            sides = np.sort(np.stack([
                np.hypot(*(p[:, 1] - p[:, 0]).T),
                np.hypot(*(p[:, 2] - p[:, 1]).T),
                np.hypot(*(p[:, 0] - p[:, 2]).T)]), axis=0)
            assert np.ptp(sides, axis=1).max() < 1e-14

    def test_vertices_form_uniform_grid(self, unit_hierarchy):
        for lv, mesh in enumerate(unit_hierarchy):
            m = 2 ** (lv + 1) + 1
            grid = {(round(i / (m - 1), 12), round(j / (m - 1), 12))
                    for i in range(m) for j in range(m)}
            got = {(round(x, 12), round(y, 12)) for x, y in mesh.vertices}
            assert got == grid

    def test_vertex_nesting(self, unit_hierarchy):
        for coarse, fine in zip(unit_hierarchy, unit_hierarchy[1:]):
            nc = coarse.num_vertices
            assert fine.num_vertices - len(fine.midpoint_of) == nc
            assert np.array_equal(fine.vertices[:nc], coarse.vertices)

    def test_refinement_is_deterministic(self):
        a = mesh_hierarchy(QUARTER, 3)[-1]
        b = mesh_hierarchy(QUARTER, 3)[-1]
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)
        assert np.array_equal(a.boundary_edges, b.boundary_edges)

    @settings(max_examples=25, deadline=None)
    @given(x0=st.floats(-5, 5), w=st.floats(0.01, 10),
           y0=st.floats(-5, 5), h=st.floats(0.01, 10),
           levels=st.integers(0, 3))
    def test_any_rectangle_keeps_invariants(self, x0, w, y0, h, levels):
        rect = (x0, x0 + w, y0, y0 + h)
        mesh = make_initial_mesh(rect)
        for _ in range(levels):
            mesh = refine_uniform(mesh)
        check_mesh(mesh)
        assert mesh.num_triangles == 8 * 4 ** levels
        assert signed_areas(mesh).sum() == pytest.approx(
            rect_area(rect), rel=1e-12)
        lengths = np.hypot(*(mesh.vertices[mesh.boundary_edges[:, 1]]
                             - mesh.vertices[mesh.boundary_edges[:, 0]]).T)
        assert lengths.sum() == pytest.approx(rect_perimeter(rect), rel=1e-12)
        # right triangles split at the hypotenuse midpoint stay similar,
        # so the mesh size halves exactly for any aspect ratio
        assert mesh.h_max == pytest.approx(
            math.hypot(w, h) / 2 ** (levels + 1), rel=1e-12)

    def test_check_mesh_catches_flipped_triangle(self):
        mesh = make_initial_mesh(UNIT)
        tri = mesh.triangles.copy()
        tri[0] = tri[0][::-1]
        bad = TriMesh(vertices=mesh.vertices.copy(), triangles=tri,
                      boundary_edges=mesh.boundary_edges.copy(),
                      level=0)
        with pytest.raises(AssertionError):
            check_mesh(bad)

    @pytest.mark.parametrize("rect", [SKEW, (-0.7, 0.3, 0.15, 2.2)])
    def test_edge_lengths_and_h_max_equal_the_rolled_form(self, rect):
        for mesh in mesh_hierarchy(rect, 6):
            want = edge_lengths_sq_rolled(mesh.vertices, mesh.triangles)
            got = _edge_lengths_sq(mesh.vertices, mesh.triangles)
            assert np.array_equal(got, want), mesh.level
            assert mesh.h_max == float(np.sqrt(want.max())), mesh.level


class TestEdgeNumbering:
    @pytest.mark.parametrize("pair", [(0, 8), (0, 4)])
    def test_check_mesh_catches_a_walk_edge_off_the_boundary(self, pair):
        # (0, 8) is no edge at all, (0, 4) an interior diagonal
        mesh = make_initial_mesh(UNIT)
        walk = mesh.boundary_edges.copy()
        walk[0] = pair
        bad = TriMesh(vertices=mesh.vertices.copy(),
                      triangles=mesh.triangles.copy(), boundary_edges=walk,
                      level=0)
        with pytest.raises(AssertionError, match="differs"):
            check_mesh(bad)

    def test_initial_mesh_edges(self):
        tri = make_initial_mesh(UNIT).triangles
        edges, cell_edges = edge_numbering(tri)
        assert edges.shape == (16, 2)
        assert (edges[:, 0] < edges[:, 1]).all()
        assert np.array_equal(edges, np.unique(edges, axis=0))  # sorted
        assert cell_edges.shape == (8, 3)
        for t, (a, b, c) in enumerate(tri):
            for k, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                assert tuple(edges[cell_edges[t, k]]) == (min(u, v), max(u, v))

    def test_level4_arrays_are_pinned(self):
        # sha256 of the raw int64 bytes; the convergence tables depend on
        # this element and vertex order
        mesh = mesh_hierarchy(UNIT, 4)[-1]
        digests = {
            "triangles": "d53e9e71baa22330c9eec68ed8aac89f"
                         "03cd31cc4d205f6c3e0b5fd9ca8bc9de",
            "boundary_edges": "68a13224a84a3dfc6e03cc40252351ad"
                              "e74450d02094d2f8e6c021050e6f0ee0",
            "midpoint_of": "0354bdc50448ef2bccd786aca2047fa0"
                           "0306445ea17909d1cb7fab7cb5617bdf",
        }
        for name, digest in digests.items():
            arr = np.ascontiguousarray(getattr(mesh, name), dtype=np.int64)
            assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name


class TestProlongation:
    def test_exact_on_linear_functions(self):
        meshes = mesh_hierarchy(UNIT, 3)
        f = lambda p: 0.3 + 1.7 * p[:, 0] - 0.9 * p[:, 1]
        coeffs = f(meshes[0].vertices)
        for fine in meshes[1:]:
            coeffs = prolong_linear(coeffs, fine)
            assert coeffs == pytest.approx(f(fine.vertices), abs=1e-14)

    def test_rejects_wrong_length(self):
        meshes = mesh_hierarchy(UNIT, 1)
        with pytest.raises(ValueError):
            prolong_linear(np.zeros(5), meshes[1])
        with pytest.raises(ValueError):
            # the initial mesh records no parent
            prolong_linear(np.zeros(9), meshes[0])


class FakeField:
    """Just enough of the field interface for the writer: a coefficient
    vector attached to a mesh."""

    def __init__(self, mesh, coeffs):
        self.dofmap = type("D", (), {"mesh": mesh})()
        self.coeffs = np.asarray(coeffs, dtype=float)


def parse_vtk(data):
    """Minimal independent reader for the legacy ASCII format."""
    lines = data.decode("ascii").splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    idx = 4
    out = {"points": None, "cells": None, "cell_types": None, "fields": {}}
    while idx < len(lines):
        line = lines[idx].split()
        if not line:
            idx += 1
            continue
        if line[0] == "POINTS":
            n = int(line[1])
            vals = [float(v) for row in lines[idx + 1:idx + 1 + n]
                    for v in row.split()]
            out["points"] = np.array(vals).reshape(n, 3)
            idx += 1 + n
        elif line[0] == "CELLS":
            n = int(line[1])
            rows = [[int(v) for v in r.split()]
                    for r in lines[idx + 1:idx + 1 + n]]
            assert all(r[0] == 3 for r in rows)
            out["cells"] = np.array([r[1:] for r in rows])
            idx += 1 + n
        elif line[0] == "CELL_TYPES":
            n = int(line[1])
            out["cell_types"] = np.array(
                [int(v) for v in lines[idx + 1:idx + 1 + n]])
            idx += 1 + n
        elif line[0] == "SCALARS":
            name = line[1]
            assert lines[idx + 1].startswith("LOOKUP_TABLE")
            n = len(out["points"])
            out["fields"][name] = np.array(
                [float(v) for v in lines[idx + 2:idx + 2 + n]])
            idx += 2 + n
        else:
            idx += 1
    return out


class TestVtkExport:
    def test_bare_mesh_round_trips(self):
        mesh = make_initial_mesh(UNIT)
        parsed = parse_vtk(export_vtk(mesh))
        assert len(parsed["points"]) == 9
        assert (parsed["cell_types"] == 5).all()
        assert np.array_equal(parsed["cells"], mesh.triangles)
        # coordinates survive at full precision
        assert np.array_equal(parsed["points"][:, :2], mesh.vertices)
        assert (parsed["points"][:, 2] == 0).all()

    def test_constant_field_values(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        ones = FakeField(mesh, np.ones(mesh.num_vertices))
        parsed = parse_vtk(export_vtk(mesh, fields=(ones,), names=("c",)))
        assert (parsed["fields"]["c"] == 1.0).all()

    def test_two_named_fields(self):
        mesh = make_initial_mesh(QUARTER)
        y = np.linspace(0.0, 1.0, mesh.num_vertices)
        z = np.linspace(-1.0, 1.0, mesh.num_vertices)
        parsed = parse_vtk(export_vtk(
            mesh, fields=(FakeField(mesh, y), FakeField(mesh, z)),
            names=("y", "z")))
        assert parsed["fields"]["y"] == pytest.approx(y, abs=0)
        assert parsed["fields"]["z"] == pytest.approx(z, abs=0)

    def test_wrong_field_length_rejected(self):
        mesh = make_initial_mesh(UNIT)
        other = refine_uniform(mesh)
        with pytest.raises(ValueError):
            export_vtk(mesh, fields=(FakeField(other, np.zeros(25)),),
                       names=("bad",))

    def test_output_is_deterministic_bytes(self):
        mesh = refine_uniform(make_initial_mesh(UNIT))
        field = FakeField(mesh, np.arange(mesh.num_vertices, dtype=float))
        a = export_vtk(mesh, fields=(field,), names=("f",))
        b = export_vtk(mesh, fields=(field,), names=("f",))
        assert isinstance(a, bytes)
        assert a == b

    @pytest.mark.parametrize("rect", [UNIT, SKEW])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_bytes_equal_the_per_element_writer(self, rect, degree):
        mesh = mesh_hierarchy(rect, 3)[-1]
        dofmap = DofMap(mesh, degree)
        fields = (interpolate(dofmap, lambda a, b: np.sin(3 * a) * np.exp(b)),
                  interpolate(dofmap, lambda a, b: a / 3 - b * b))
        assert export_vtk(mesh) == export_vtk_per_element(mesh)
        assert (export_vtk(mesh, fields, names=("y", "z"))
                == export_vtk_per_element(mesh, fields, names=("y", "z")))

    @pytest.mark.parametrize("rect", [SKEW, (-0.3, 0.7, 0.1, 2.9)])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_bytes_equal_the_per_line_writer(self, rect, degree):
        # coordinates and values that are not dyadic print all 17 digits
        mesh = mesh_hierarchy(rect, 4)[-1]
        dofmap = DofMap(mesh, degree)
        fields = (interpolate(dofmap, lambda a, b: np.exp(a) / (3 + b)),
                  interpolate(dofmap, lambda a, b: -a * b / 7))
        assert export_vtk(mesh) == export_vtk_per_line(mesh)
        assert (export_vtk(mesh, fields)
                == export_vtk_per_line(mesh, fields))
