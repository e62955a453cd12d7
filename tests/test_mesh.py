import hashlib

import numpy as np
import pytest

from frostsim.errors import (
    DegenerateElementError,
    InvalidGeometryError,
    MeshFormatError,
)
from frostsim.mesh import (
    BoundaryTag,
    Mesh,
    _mesh_from_grid,
    generate_lshape,
    generate_rectangle,
    load_mesh,
    parse_mesh,
    write_mesh,
)

UNIT_TRIANGLE_TEXT = """\
# unit right triangle
nodes 3
0 0.0 0.0
1 1.0 0.0
2 0.0 1.0
elements 1
0 0 1 2
bedges 3
0 0 EXT
0 1 EXT
0 2 EXT
"""


def triangle(points):
    """One-element mesh of the given vertices, every edge tagged EXT."""
    return Mesh(points, [[0, 1, 2]], [[0, k, 0] for k in range(3)])


class TestShapeGradients:
    def test_unit_triangle_analytic(self):
        mesh = triangle([[0, 0], [1, 0], [0, 1]])
        assert mesh.areas[0] == pytest.approx(0.5, abs=0.0)
        np.testing.assert_allclose(
            mesh.grads[0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], atol=0.0)

    def test_gradients_sum_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.uniform(-3, 3, size=(3, 2))
            try:
                grads = triangle(pts).grads[0]
            except DegenerateElementError:
                continue
            scale = max(1.0, float(np.abs(grads).max()))
            np.testing.assert_allclose(grads.sum(axis=0), 0.0,
                                       atol=1e-14 * scale)

    def test_scaling(self):
        pts = np.array([[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]])
        m1, m2 = triangle(pts), triangle(2.0 * pts)
        np.testing.assert_allclose(m2.grads, 0.5 * m1.grads, rtol=1e-14)
        assert m2.areas[0] == pytest.approx(4.0 * m1.areas[0], rel=1e-14)

    def test_clockwise_rejected(self):
        with pytest.raises(DegenerateElementError):
            triangle([[0, 0], [0, 1], [1, 0]])

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateElementError):
            triangle([[0, 0], [1, 1], [2, 2]])


class TestMeshQueries:
    def test_linear_field_gradient_recovery(self, lshape_coarse):
        # FEM gradient of an interpolated linear field is exact for CST
        mesh = lshape_coarse
        b, c = 1.7, -0.6
        field = 0.3 + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        grad = np.einsum("eij,ei->ej", mesh.grads, field[mesh.elements])
        np.testing.assert_allclose(grad[:, 0], b, atol=1e-12)
        np.testing.assert_allclose(grad[:, 1], c, atol=1e-12)

    def test_element_mean_of_linear_field(self, lshape_coarse):
        mesh = lshape_coarse
        field = 2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1]
        expect = 2.0 * mesh.centroids[:, 0] - mesh.centroids[:, 1]
        np.testing.assert_allclose(mesh.element_mean(field), expect,
                                   rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("h", [0.1, 0.015])
    def test_element_mean_is_bitwise_the_row_mean(self, h):
        mesh = generate_lshape(1.0, 0.4, h)
        field = np.random.default_rng(3).normal(size=mesh.num_nodes) * 1e3
        np.testing.assert_array_equal(mesh.element_mean(field),
                                      field[mesh.elements].mean(axis=1))

    def test_boundary_nodes_lie_on_two_edges(self, lshape_coarse):
        pairs = lshape_coarse.boundary_edge_nodes()
        ids, counts = np.unique(pairs, return_counts=True)
        assert np.all(counts == 2)

    def test_arrays_immutable(self, lshape_coarse):
        with pytest.raises(ValueError):
            lshape_coarse.nodes[0, 0] = 99.0


class TestGenerateLshape:
    def test_reference_golden_counts(self):
        mesh = generate_lshape(1.0, 0.4, 0.05)
        assert (mesh.num_nodes, mesh.num_elements) == (297, 512)

    def test_fine_mesh_counts(self):
        # target discretization of the reference wall section
        mesh = generate_lshape(1.0, 0.4, 0.03)
        assert (mesh.num_nodes, mesh.num_elements) == (756, 1378)

    def test_minimal_strip(self):
        mesh = generate_lshape(0.2, 0.1, 0.1)
        assert mesh.num_elements >= 2
        assert np.all(mesh.areas > 0.0)

    def test_coarse_limit_is_valid_or_error(self):
        with pytest.raises(InvalidGeometryError):
            generate_lshape(1.0, 0.4, 1.0)     # h > thickness
        mesh = generate_lshape(1.0, 0.4, 0.4)  # h == thickness
        assert mesh.num_elements >= 2
        assert np.all(mesh.areas > 0.0)

    @pytest.mark.parametrize("outer,thickness,h", [
        (1.0, 1.0, 0.1),    # thickness == outer
        (1.0, 1.2, 0.1),    # thickness > outer
        (-1.0, 0.4, 0.1),
        (1.0, -0.4, 0.1),
        (1.0, 0.4, 0.0),
    ])
    def test_bad_dimensions(self, outer, thickness, h):
        with pytest.raises(InvalidGeometryError):
            generate_lshape(outer, thickness, h)

    def test_tag_placement(self):
        mesh = generate_lshape(1.0, 0.4, 0.1)
        pairs = mesh.boundary_edge_nodes()
        xy = mesh.nodes

        def edge_coords(tag):
            sel = pairs[mesh.edges_with_tag(tag)]
            return xy[sel]  # (k, 2, 2)

        ext = edge_coords(BoundaryTag.EXT)
        assert np.all((np.abs(ext[:, :, 0]) < 1e-12).all(axis=1)
                      | (np.abs(ext[:, :, 1]) < 1e-12).all(axis=1))
        a = edge_coords(BoundaryTag.A)
        assert np.all(np.abs(a[:, :, 0] - 1.0) < 1e-12)
        b = edge_coords(BoundaryTag.B)
        assert np.all(np.abs(b[:, :, 1] - 1.0) < 1e-12)
        inner = edge_coords(BoundaryTag.INT)
        on_x = (np.abs(inner[:, :, 0] - 0.4) < 1e-12).all(axis=1)
        on_y = (np.abs(inner[:, :, 1] - 0.4) < 1e-12).all(axis=1)
        assert np.all(on_x | on_y)

    def test_all_four_tags_present(self):
        mesh = generate_lshape(1.0, 0.4, 0.1)
        for tag in BoundaryTag:
            assert len(mesh.edges_with_tag(tag)) > 0


class TestRectangle:
    def test_counts_and_tags(self):
        mesh = generate_rectangle(2.0, 1.0, 4, 2)
        assert mesh.num_nodes == 15
        assert mesh.num_elements == 16
        assert len(mesh.edges_with_tag(BoundaryTag.EXT)) == 12
        assert np.all(mesh.areas > 0.0)


def _boundary_rows(mesh):
    return np.column_stack([mesh.bedge_elem, mesh.bedge_local,
                            mesh.bedge_tag]).tolist()


class TestGeneratedArrays:
    """The generators' numbering is part of their contract: probe ids,
    mesh files and the benchmark baselines refer to it."""

    def test_minimal_lshape_arrays(self):
        mesh = generate_lshape(0.2, 0.1, 0.1)
        assert mesh.nodes.tolist() == [
            [0.0, 0.0], [0.0, 0.1], [0.0, 0.2], [0.1, 0.0], [0.1, 0.1],
            [0.1, 0.2], [0.2, 0.0], [0.2, 0.1]]
        assert mesh.elements.tolist() == [
            [0, 3, 4], [0, 4, 1], [1, 4, 5], [1, 5, 2], [3, 6, 7], [3, 7, 4]]
        ext, inner, a, b = (int(t) for t in BoundaryTag)
        assert _boundary_rows(mesh) == [
            [0, 0, ext], [1, 2, ext], [2, 1, inner], [3, 1, b],
            [3, 2, ext], [4, 0, ext], [4, 1, a], [5, 1, inner]]

    def test_rectangle_arrays(self):
        mesh = generate_rectangle(1.0, 0.5, 2, 1)
        assert mesh.nodes.tolist() == [
            [0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5], [1.0, 0.0],
            [1.0, 0.5]]
        assert mesh.elements.tolist() == [
            [0, 2, 3], [0, 3, 1], [2, 4, 5], [2, 5, 3]]
        ext = int(BoundaryTag.EXT)
        assert _boundary_rows(mesh) == [
            [0, 0, ext], [1, 1, ext], [1, 2, ext], [2, 0, ext], [2, 1, ext],
            [3, 1, ext]]
        assert mesh.areas.tolist() == [0.125] * 4

    def test_reference_mesh_digest(self):
        mesh = generate_lshape(1.0, 0.4, 0.03)
        digest = hashlib.sha256()
        for arr, dtype in ((mesh.nodes, "<f8"), (mesh.elements, "<i8"),
                           (mesh.bedge_elem, "<i8"), (mesh.bedge_local, "<i8"),
                           (mesh.bedge_tag, "<i8")):
            digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        assert digest.hexdigest() == (
            "a2d13b7ec0214251f20cd3908cb9bacb254a5a6396997272fd105ab1cbed69bf")


class TestMeshFromGrid:
    def test_no_kept_cell(self):
        xs = np.linspace(0.0, 1.0, 3)
        with pytest.raises(InvalidGeometryError, match="no cells"):
            _mesh_from_grid(xs, xs, lambda *cell: False,
                            lambda mx, my: BoundaryTag.EXT)

    def test_untagged_boundary_edge(self):
        xs = np.linspace(0.0, 1.0, 3)

        def tag(mx, my):
            return None if mx > 0.99 else BoundaryTag.EXT

        with pytest.raises(InvalidGeometryError,
                           match=r"boundary edge at \[1\.\s+0\.25\] matches no face"):
            _mesh_from_grid(xs, xs, lambda *cell: True, tag)


class TestParse:
    def test_unit_triangle_file(self):
        mesh = parse_mesh(UNIT_TRIANGLE_TEXT)
        assert mesh.num_nodes == 3
        assert mesh.areas[0] == pytest.approx(0.5, abs=0.0)

    def test_dangling_node_reference(self):
        bad = UNIT_TRIANGLE_TEXT.replace("0 0 1 2", "0 0 1 99")
        with pytest.raises(MeshFormatError):
            parse_mesh(bad)

    def test_clockwise_element_reoriented(self):
        # same triangle entered clockwise; parser must flip it
        cw = UNIT_TRIANGLE_TEXT.replace("0 0 1 2", "0 0 2 1")
        mesh = parse_mesh(cw)
        assert mesh.areas[0] == pytest.approx(0.5, abs=0.0)
        # tags survive: still three boundary edges, all EXT
        assert len(mesh.edges_with_tag(BoundaryTag.EXT)) == 3
        pairs = set(map(frozenset, mesh.boundary_edge_nodes().tolist()))
        assert pairs == {frozenset({0, 1}), frozenset({1, 2}),
                         frozenset({0, 2})}

    def test_parse_error_carries_line_number(self):
        bad = UNIT_TRIANGLE_TEXT.replace("1 1.0 0.0", "1 1.0")
        with pytest.raises(MeshFormatError) as exc:
            parse_mesh(bad)
        assert exc.value.line == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_carries_line_number(self, value):
        bad = UNIT_TRIANGLE_TEXT.replace("1 1.0 0.0", f"1 {value} 0.0")
        with pytest.raises(MeshFormatError,
                           match="node coordinate is not finite") as exc:
            parse_mesh(bad)
        assert exc.value.line == 4

    def test_duplicate_node_id(self):
        bad = UNIT_TRIANGLE_TEXT.replace("1 1.0 0.0", "0 1.0 0.0")
        with pytest.raises(MeshFormatError):
            parse_mesh(bad)

    def test_unknown_tag(self):
        bad = UNIT_TRIANGLE_TEXT.replace("0 1 EXT", "0 1 WALL")
        with pytest.raises(MeshFormatError):
            parse_mesh(bad)

    def test_missing_boundary_edge(self):
        bad = UNIT_TRIANGLE_TEXT.replace("bedges 3", "bedges 2").replace(
            "0 2 EXT\n", "")
        with pytest.raises(MeshFormatError):
            parse_mesh(bad)

    def test_round_trip(self, tmp_path):
        mesh = generate_lshape(1.0, 0.4, 0.1)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        again = load_mesh(path)
        np.testing.assert_array_equal(mesh.nodes, again.nodes)
        np.testing.assert_array_equal(mesh.elements, again.elements)
        np.testing.assert_array_equal(mesh.bedge_elem, again.bedge_elem)
        np.testing.assert_array_equal(mesh.bedge_local, again.bedge_local)
        np.testing.assert_array_equal(mesh.bedge_tag, again.bedge_tag)

    def test_load_errors_start_with_the_path(self, tmp_path):
        path = tmp_path / "cut.mesh"
        path.write_text("nodes 2\n0 0.0 0.0\n", encoding="utf-8")
        with pytest.raises(MeshFormatError) as exc:
            load_mesh(path)
        assert str(exc.value) == (
            f"{path}: unexpected end of file, expected a node line")

        path.write_text(UNIT_TRIANGLE_TEXT.replace("1 1.0 0.0", "1 1.0"),
                        encoding="utf-8")
        with pytest.raises(MeshFormatError) as exc:
            load_mesh(path)
        assert exc.value.line == 4
        assert str(exc.value).startswith(f"{path}: line 4: ")

        path.write_bytes(b"# M\xf6rtel\n" + UNIT_TRIANGLE_TEXT.encode())
        with pytest.raises(MeshFormatError,
                           match=r": not UTF-8 text \(byte 3\)$") as exc:
            load_mesh(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_load_reads_utf8(self, tmp_path):
        path = tmp_path / "corner.mesh"
        path.write_bytes(("# Mörtelecke, 2 °C\n" + UNIT_TRIANGLE_TEXT)
                         .encode("utf-8"))
        assert load_mesh(path).num_nodes == 3


class TestConstruction:
    def test_untagged_boundary_edge_rejected(self):
        with pytest.raises(MeshFormatError):
            Mesh(nodes=[[0, 0], [1, 0], [0, 1]], elements=[[0, 1, 2]],
                 boundary_edges=[[0, 0, 0], [0, 1, 0]])  # edge 2 missing

    def test_interior_edge_tag_rejected(self):
        # two triangles sharing an edge; tagging the shared edge is invalid
        nodes = [[0, 0], [1, 0], [1, 1], [0, 1]]
        elements = [[0, 1, 2], [0, 2, 3]]
        boundary = [[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 2, 0],
                    [0, 2, 0]]  # last entry is the diagonal
        with pytest.raises(MeshFormatError):
            Mesh(nodes, elements, boundary)

    def test_degenerate_element_rejected(self):
        with pytest.raises(DegenerateElementError):
            Mesh(nodes=[[0, 0], [1, 1], [2, 2]], elements=[[0, 1, 2]],
                 boundary_edges=[[0, 0, 0], [0, 1, 0], [0, 2, 0]])
