"""Triangular meshes with tagged boundary edges.

Meshes are stored as flat numpy arrays: node coordinates, element
connectivity (three node ids per triangle, counterclockwise), and boundary
edges given as (element id, local edge index, tag). Local edge k runs from
local node k to local node (k+1) % 3. Per-element shape-function gradients
and areas are precomputed at construction and the arrays are frozen.

Four boundary tags name the surfaces of the reference wall section: EXT and
INT are the exchange surfaces toward outdoor and indoor climate, A and B are
the cut faces that act as roller supports.
"""

from __future__ import annotations

import enum
import functools
import math
from pathlib import Path

import numpy as np

from ._linalg import NodeGraph
from ._table import read_text
from .errors import (
    DegenerateElementError,
    InvalidGeometryError,
    MeshFormatError,
)


class BoundaryTag(enum.IntEnum):
    EXT = 0
    INT = 1
    A = 2
    B = 3


_TAG_FROM_NAME = {t.name: t for t in BoundaryTag}

# local edge k connects local nodes _EDGE_NODES[k]
_EDGE_NODES = ((0, 1), (1, 2), (2, 0))


def _all_geometry(nodes: np.ndarray, elements: np.ndarray):
    """Constant shape-function gradients (E, 3, 2) and areas (E,) of every
    element: row i of an element's gradients is grad N_i, and the rows sum
    to zero. Raises DegenerateElementError for an element whose vertices
    are collinear or clockwise."""
    p = nodes[elements]  # (E, 3, 2)
    x = p[:, :, 0]
    y = p[:, :, 1]
    twice_area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(twice_area <= 0.0):
        bad = int(np.argmin(twice_area))
        raise DegenerateElementError(
            f"element {bad} has non-positive area {0.5 * twice_area[bad]:g}")
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([b, c], axis=2) / twice_area[:, None, None]
    return grads, 0.5 * twice_area


def _sorted_edge_codes(elements: np.ndarray, num_nodes: int) -> np.ndarray:
    """Encode the 3 undirected edges of every element as integers."""
    n0 = elements
    n1 = elements[:, [1, 2, 0]]
    lo = np.minimum(n0, n1)
    hi = np.maximum(n0, n1)
    return (lo.astype(np.int64) * num_nodes + hi).ravel()  # (3E,) element-major


class Mesh:
    """Immutable triangle mesh with tagged boundary edges."""

    def __init__(self, nodes: np.ndarray, elements: np.ndarray,
                 boundary_edges: np.ndarray):
        nodes = np.array(nodes, dtype=float)
        elements = np.array(elements, dtype=np.int64)
        boundary_edges = np.array(boundary_edges, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (N, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError("elements must be an (M, 3) array")
        if boundary_edges.ndim != 2 or boundary_edges.shape[1] != 3:
            raise ValueError("boundary_edges must be a (K, 3) array")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("node coordinates must be finite")
        n = len(nodes)
        m = len(elements)
        if n < 3 or m < 1:
            raise MeshFormatError("mesh needs at least one triangle")
        if elements.min() < 0 or elements.max() >= n:
            raise MeshFormatError("element references a node id out of range")

        self.nodes = nodes
        self.elements = elements
        self.bedge_elem = boundary_edges[:, 0]
        self.bedge_local = boundary_edges[:, 1]
        self.bedge_tag = boundary_edges[:, 2]
        self._validate_boundary()
        self.grads, self.areas = _all_geometry(nodes, elements)
        self.centroids = nodes[elements].mean(axis=1)
        self._corners = np.ascontiguousarray(elements.T)
        for arr in (self.nodes, self.elements, self.bedge_elem,
                    self.bedge_local, self.bedge_tag, self.grads,
                    self.areas, self.centroids, self._corners):
            arr.setflags(write=False)

    # -- basic queries ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def graph(self) -> NodeGraph:
        """The node adjacency that the transport and mechanics operators
        share, with its bandwidth order, built at first use."""
        return NodeGraph(self.elements, self.num_nodes)

    def edges_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Indices into the boundary edge arrays carrying the given tag."""
        return np.nonzero(self.bedge_tag == int(tag))[0]

    def boundary_edge_nodes(self) -> np.ndarray:
        """Node id pair (K, 2) of every boundary edge, in element order."""
        loc = self.bedge_local
        a = self.elements[self.bedge_elem, loc]
        b = self.elements[self.bedge_elem, (loc + 1) % 3]
        return np.column_stack([a, b])

    def boundary_edge_lengths(self) -> np.ndarray:
        pairs = self.boundary_edge_nodes()
        d = self.nodes[pairs[:, 1]] - self.nodes[pairs[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def nodes_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Sorted unique node ids lying on edges with the given tag."""
        idx = self.edges_with_tag(tag)
        pairs = self.boundary_edge_nodes()[idx]
        return np.unique(pairs)

    def element_mean(self, nodal_field: np.ndarray) -> np.ndarray:
        """Average a nodal field over the three nodes of every element.

        Three gathers and a sum give bitwise what
        ``field[elements].mean(axis=1)`` does, without the (E, 3) copy."""
        f = np.asarray(nodal_field)
        c0, c1, c2 = self._corners
        return (f[c0] + f[c1] + f[c2]) / 3.0

    # -- validation -------------------------------------------------------

    def _validate_boundary(self):
        n = self.num_nodes
        m = self.num_elements
        if len(self.bedge_elem) == 0:
            raise MeshFormatError("mesh has no tagged boundary edges")
        if self.bedge_elem.min() < 0 or self.bedge_elem.max() >= m:
            raise MeshFormatError("boundary edge references a bad element id")
        if self.bedge_local.min() < 0 or self.bedge_local.max() > 2:
            raise MeshFormatError("boundary edge local index must be 0, 1 or 2")
        valid_tags = {int(t) for t in BoundaryTag}
        if not set(np.unique(self.bedge_tag)).issubset(valid_tags):
            raise MeshFormatError("unknown boundary tag value")

        codes = _sorted_edge_codes(self.elements, n).reshape(m, 3)
        unique, counts = np.unique(codes, return_counts=True)
        if counts.max() > 2:
            raise MeshFormatError("an edge is shared by more than two elements")
        boundary_codes = set(unique[counts == 1].tolist())

        tagged = codes[self.bedge_elem, self.bedge_local]
        tagged_set = set(tagged.tolist())
        if len(tagged_set) != len(tagged):
            raise MeshFormatError("an edge carries more than one boundary tag")
        if not tagged_set.issubset(boundary_codes):
            raise MeshFormatError("a tagged edge is interior to the mesh")
        missing = boundary_codes - tagged_set
        if missing:
            code = next(iter(missing))
            raise MeshFormatError(
                "untagged boundary edge between nodes "
                f"{code // n} and {code % n}")


# -- generators -----------------------------------------------------------


def _grid_lines(inner: float, outer: float, h: float) -> np.ndarray:
    """Grid lines over [0, outer] with a line exactly at ``inner``."""
    n_in = max(1, round(inner / h))
    n_out = max(1, round((outer - inner) / h))
    return np.concatenate([
        np.linspace(0.0, inner, n_in + 1),
        np.linspace(inner, outer, n_out + 1)[1:],
    ])


def _mesh_from_grid(xs: np.ndarray, ys: np.ndarray, keep_cell, tag_of_edge) -> Mesh:
    """Triangulate the kept cells of a tensor grid and tag boundary edges.

    Cells, nodes and boundary edges are numbered x-major. Each kept cell
    gives two counterclockwise triangles through its diagonal.
    """
    keep = np.array([[keep_cell(xs[i], xs[i + 1], ys[j], ys[j + 1])
                      for j in range(len(ys) - 1)]
                     for i in range(len(xs) - 1)], dtype=bool)
    ci, cj = np.nonzero(keep)
    if len(ci) == 0:
        raise InvalidGeometryError("no cells fall inside the domain")

    used = np.zeros((len(xs), len(ys)), dtype=bool)
    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
        used[ci + di, cj + dj] = True
    ni, nj = np.nonzero(used)
    node_id = np.full(used.shape, -1, dtype=np.int64)
    node_id[ni, nj] = np.arange(len(ni))
    nodes = np.column_stack([xs[ni], ys[nj]])

    p00 = node_id[ci, cj]
    p10 = node_id[ci + 1, cj]
    p11 = node_id[ci + 1, cj + 1]
    p01 = node_id[ci, cj + 1]
    elements = np.column_stack([p00, p10, p11, p00, p11, p01]).reshape(-1, 3)

    # tag topological boundary edges through the caller's geometric rule
    codes = _sorted_edge_codes(elements, len(nodes)).reshape(len(elements), 3)
    unique, counts = np.unique(codes, return_counts=True)
    e, k = np.nonzero(np.isin(codes, unique[counts == 1]))
    mid = 0.5 * (nodes[elements[e, k]] + nodes[elements[e, (k + 1) % 3]])
    tags = [tag_of_edge(x, y) for x, y in mid]
    if None in tags:
        raise InvalidGeometryError(
            f"boundary edge at {mid[tags.index(None)]} matches no face")
    return Mesh(nodes, elements, np.column_stack([e, k, tags]))


def generate_lshape(outer: float, thickness: float, h: float) -> Mesh:
    """Structured mesh of an L-shaped wall corner.

    The domain is the union of two rectangular legs of the given wall
    thickness along the x and y axes of a square with side ``outer``. The
    two outside faces (x = 0 and y = 0) are tagged EXT, the two inside
    faces are tagged INT, and the cut faces x = outer and y = outer are
    tagged A and B.

    Parameters
    ----------
    outer : float
        Side length of the bounding square, m.
    thickness : float
        Wall thickness, m; must satisfy 0 < thickness < outer.
    h : float
        Target element size, m; must satisfy 0 < h <= thickness.
    """
    if not (outer > 0.0 and 0.0 < thickness < outer):
        raise InvalidGeometryError(
            f"need 0 < thickness < outer, got thickness={thickness}, outer={outer}")
    if not (0.0 < h <= thickness):
        raise InvalidGeometryError(
            f"need 0 < h <= thickness, got h={h}, thickness={thickness}")

    xs = _grid_lines(thickness, outer, h)
    tol = 1e-9 * outer

    def keep(x0, x1, y0, y1):
        return x1 <= thickness + tol or y1 <= thickness + tol

    def tag(mx, my):
        if abs(mx) <= tol or abs(my) <= tol:
            return BoundaryTag.EXT
        if abs(mx - outer) <= tol:
            return BoundaryTag.A
        if abs(my - outer) <= tol:
            return BoundaryTag.B
        if abs(mx - thickness) <= tol and my >= thickness - tol:
            return BoundaryTag.INT
        if abs(my - thickness) <= tol and mx >= thickness - tol:
            return BoundaryTag.INT
        return None

    return _mesh_from_grid(xs, xs, keep, tag)


def generate_rectangle(width: float, height: float, nx: int, ny: int) -> Mesh:
    """Structured mesh of a rectangle; every boundary edge is tagged EXT."""
    if width <= 0.0 or height <= 0.0 or nx < 1 or ny < 1:
        raise InvalidGeometryError("rectangle needs positive size and cell counts")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    return _mesh_from_grid(xs, ys, lambda *a: True,
                           lambda mx, my: BoundaryTag.EXT)


# -- text format ----------------------------------------------------------


def parse_mesh(text: str) -> Mesh:
    """Parse the mesh text format.

    Layout: a ``nodes N`` header followed by N ``id x y`` lines, an
    ``elements M`` header with M ``id n0 n1 n2`` lines, and a ``bedges K``
    header with K ``elem localEdge TAG`` lines. ``#`` starts a comment.
    Clockwise triangles are reoriented and their edge indices remapped.
    """
    rows = []  # (line_number, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    pos = 0

    def take(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            raise MeshFormatError(f"unexpected end of file, expected {expect}")
        row = rows[pos]
        pos += 1
        return row

    def header(name: str) -> int:
        lineno, tok = take(f"'{name} N'")
        if len(tok) != 2 or tok[0] != name:
            raise MeshFormatError(f"expected '{name} <count>'", lineno)
        try:
            count = int(tok[1])
        except ValueError:
            raise MeshFormatError(f"bad count in '{name}' header", lineno) from None
        if count < 0:
            raise MeshFormatError(f"negative count in '{name}' header", lineno)
        return count

    n = header("nodes")
    nodes = np.full((n, 2), np.nan)
    seen = np.zeros(n, dtype=bool)
    for _ in range(n):
        lineno, tok = take("a node line")
        if len(tok) != 3:
            raise MeshFormatError("node line needs 'id x y'", lineno)
        try:
            i = int(tok[0])
            xy = (float(tok[1]), float(tok[2]))
        except ValueError:
            raise MeshFormatError("bad number on node line", lineno) from None
        if not all(map(math.isfinite, xy)):
            raise MeshFormatError("node coordinate is not finite", lineno)
        if not 0 <= i < n:
            raise MeshFormatError(f"node id {i} out of range 0..{n - 1}", lineno)
        if seen[i]:
            raise MeshFormatError(f"duplicate node id {i}", lineno)
        seen[i] = True
        nodes[i] = xy

    m = header("elements")
    elements = np.zeros((m, 3), dtype=np.int64)
    eseen = np.zeros(m, dtype=bool)
    for _ in range(m):
        lineno, tok = take("an element line")
        if len(tok) != 4:
            raise MeshFormatError("element line needs 'id n0 n1 n2'", lineno)
        try:
            i = int(tok[0])
            conn = [int(t) for t in tok[1:]]
        except ValueError:
            raise MeshFormatError("bad number on element line", lineno) from None
        if not 0 <= i < m:
            raise MeshFormatError(f"element id {i} out of range 0..{m - 1}", lineno)
        if eseen[i]:
            raise MeshFormatError(f"duplicate element id {i}", lineno)
        if len(set(conn)) != 3:
            raise MeshFormatError("element repeats a node", lineno)
        for nid in conn:
            if not 0 <= nid < n:
                raise MeshFormatError(f"element references unknown node {nid}", lineno)
        eseen[i] = True
        elements[i] = conn

    k = header("bedges")
    bedges = np.zeros((k, 3), dtype=np.int64)
    for r in range(k):
        lineno, tok = take("a boundary edge line")
        if len(tok) != 3:
            raise MeshFormatError("boundary edge line needs 'elem localEdge TAG'", lineno)
        try:
            e = int(tok[0])
            loc = int(tok[1])
        except ValueError:
            raise MeshFormatError("bad number on boundary edge line", lineno) from None
        tagname = tok[2]
        if tagname not in _TAG_FROM_NAME:
            raise MeshFormatError(
                f"unknown tag '{tagname}', expected one of EXT INT A B", lineno)
        if not 0 <= e < m:
            raise MeshFormatError(f"boundary edge references unknown element {e}", lineno)
        if not 0 <= loc <= 2:
            raise MeshFormatError("local edge index must be 0, 1 or 2", lineno)
        bedges[r] = (e, loc, int(_TAG_FROM_NAME[tagname]))

    if pos != len(rows):
        lineno, _ = rows[pos]
        raise MeshFormatError("trailing content after boundary edges", lineno)

    # reorient clockwise triangles; local edges 0 and 2 swap under the flip
    p = nodes[elements]
    twice_area = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    flipped = twice_area < 0.0
    if np.any(flipped):
        elements[flipped] = elements[flipped][:, [0, 2, 1]]
        remap = np.array([2, 1, 0])
        for r in range(k):
            if flipped[bedges[r, 0]]:
                bedges[r, 1] = remap[bedges[r, 1]]

    return Mesh(nodes, elements, bedges)


def load_mesh(path: str | Path) -> Mesh:
    """Read a UTF-8 mesh text file; errors start with the path, and format
    errors carry the offending line number."""
    path = Path(path)
    text = read_text(path, MeshFormatError)
    try:
        return parse_mesh(text)
    except (MeshFormatError, DegenerateElementError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def write_mesh(mesh: Mesh, path: str | Path) -> None:
    """Write the mesh text format with full float precision."""
    lines = [f"nodes {mesh.num_nodes}"]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {float(x)!r} {float(y)!r}")
    lines.append(f"elements {mesh.num_elements}")
    for i, (a, b, c) in enumerate(mesh.elements):
        lines.append(f"{i} {a} {b} {c}")
    lines.append(f"bedges {len(mesh.bedge_elem)}")
    for e, loc, tag in zip(mesh.bedge_elem, mesh.bedge_local, mesh.bedge_tag):
        lines.append(f"{e} {loc} {BoundaryTag(tag).name}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
