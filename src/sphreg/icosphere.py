"""Icosahedral sphere meshes and barycentric interpolation between them.

Meshes are produced by recursive midpoint subdivision of a regular
icosahedron in a canonical orientation (poles on the z axis, two staggered
rings of five).  Subdivision appends the new midpoint vertices after their
parents, so the vertices of level k are exactly the first 10*4^k + 2 rows of
every finer level; the rest of the package leans on that prefix property for
control grids and label sets.  It also writes the four children of face f
as rows 4f..4f+3, and their normalised midpoints lie on the parent's
great-circle edges, so the children's cones tile the parent's cone.

Interpolation uses gnomonic (central projection) barycentric coordinates:
for a query point t inside the cone of face (a, b, c) the weights solve
[a b c] lam = t and are normalised to sum to one.  That choice makes
resampling exact for targets equal to source vertices and reproduces
tangent-plane linear functions to second order in the edge length.

Point location descends that face tree: the base face with the largest
minimum coordinate, then per level the child on the target's side of the
great circles that cut the centre child from the corner children.  The
leaf's corner nearest the target seeds the last step, which keeps the face
around that corner with the largest minimum coordinate (the lowest face
index on exact ties).  That is O(level) work and O(1) memory per target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import autodiff as ag

MAX_LEVEL = 7


def vertex_count(level: int) -> int:
    return 10 * 4 ** level + 2


def face_count(level: int) -> int:
    return 20 * 4 ** level


def edge_count(level: int) -> int:
    return 30 * 4 ** level


@dataclass(eq=False)
class Icosphere:
    """Triangulated unit sphere at one subdivision level.

    ``vertices`` are unit rows, ``faces`` index CCW as seen from outside.
    Every index set depends only on ``faces`` and is built once by
    ``build_mesh``; the arrays are frozen so cached meshes can be shared
    freely.  Meshes hash by identity, so tables derived from one (such as
    the per-face solve matrices) are memoised per mesh object.

    ``edges`` are the undirected edges as sorted (i, j) pairs in
    lexicographic order.  The directed one-ring is stored in CSR form:
    ``ring_dst`` ascending, ``ring_src`` ascending within each destination,
    and ``ring_offsets[v]:ring_offsets[v + 1]`` the slice of vertex v, of
    which ``one_ring[v]`` is a view.
    ``incident_faces[v]`` lists the faces around v in ascending order,
    padded to six with the first of them.

    ``face_neighbours[f, k]`` is the face across the edge opposite corner
    k of face f.

    ``neighbourhood`` is the (V, 7) attention table: row v holds v itself,
    then ``one_ring[v]``.  The twelve degree-5 vertices pad their last slot
    with v, so slot k of row v is padding exactly when k exceeds the degree
    ``ring_offsets[v + 1] - ring_offsets[v]``.

    ``scatter_plan(name)`` is the frozen autodiff scatter plan of a vertex
    index array such as ``neighbourhood``, ``ring_dst`` or ``ring_src``
    onto the vertices, built once per mesh and name.
    """

    level: int
    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray = field(repr=False)
    ring_offsets: np.ndarray = field(repr=False)
    ring_dst: np.ndarray = field(repr=False)
    ring_src: np.ndarray = field(repr=False)
    incident_faces: np.ndarray = field(repr=False)
    neighbourhood: np.ndarray = field(repr=False)
    face_neighbours: np.ndarray = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @cached_property
    def one_ring(self) -> list[np.ndarray]:
        """Per vertex, the view of ``ring_src`` holding its neighbours."""
        return np.split(self.ring_src, self.ring_offsets[1:-1])

    def scatter_plan(self, name: str) -> ag.ScatterPlan:
        """Plan of the vertex index array ``name`` onto the vertices."""
        return _scatter_plan(self, name)

    @cached_property
    def corner_inverse(self) -> np.ndarray:
        """Per-face inverse of the 3x3 corner-column matrix, shape (F, 3, 3)."""
        corners = self.vertices[self.faces]              # (F, corner, xyz)
        return np.linalg.inv(corners.transpose(0, 2, 1))

    @cached_property
    def split_normals(self) -> np.ndarray:
        """How each face one level up splits into this level's faces.

        ``_subdivide`` writes the children of parent face f as rows
        4f..4f+3: one per parent corner, then the centre child.  Row f,
        shape (F / 4, 3, 3), holds per corner child c the normal of the
        great circle between it and the centre child, positive on the
        corner child's side.  Only meaningful above level 0."""
        centre = self.vertices[self.faces[3::4]]         # (F/4, corner, xyz)
        return np.cross(centre, np.roll(centre, 1, axis=1))

    def mean_edge_arc(self) -> float:
        a = self.vertices[self.edges[:, 0]]
        b = self.vertices[self.edges[:, 1]]
        return float(np.mean(_arc_length(a, b)))

    def max_edge_arc(self) -> float:
        a = self.vertices[self.edges[:, 0]]
        b = self.vertices[self.edges[:, 1]]
        return float(np.max(_arc_length(a, b)))


@cache
def _scatter_plan(mesh: Icosphere, name: str) -> ag.ScatterPlan:
    return ag.ScatterPlan(getattr(mesh, name), mesh.n_vertices)


def _arc_length(a, b):
    crossed = np.linalg.norm(np.cross(a, b), axis=-1)
    dotted = np.sum(a * b, axis=-1)
    return np.arctan2(crossed, dotted)


def _base_icosahedron():
    lat = np.arctan(0.5)
    verts = [(0.0, 0.0, 1.0)]
    for k in range(5):
        lon = 2.0 * np.pi * k / 5.0
        verts.append((np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat)))
    for k in range(5):
        lon = 2.0 * np.pi * k / 5.0 + np.pi / 5.0
        verts.append((np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), -np.sin(lat)))
    verts.append((0.0, 0.0, -1.0))
    vertices = np.array(verts, dtype=np.float64)
    vertices /= np.linalg.norm(vertices, axis=1, keepdims=True)

    faces = []
    for k in range(5):
        up, up_next = 1 + k, 1 + (k + 1) % 5
        lo, lo_next = 6 + k, 6 + (k + 1) % 5
        faces.append((0, up, up_next))            # polar cap
        faces.append((up, lo, up_next))           # upper band
        faces.append((lo, lo_next, up_next))      # lower band
        faces.append((11, lo_next, lo))           # antipolar cap
    return vertices, np.array(faces, dtype=np.int64)


def _unique_edges(faces, n_vertices):
    """Undirected edges as sorted (i, j) rows in lexicographic order, and the
    row of each face edge, edge-major: every (a, b), then (b, c), (c, a)."""
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    pairs.sort(axis=1)
    keys, inverse = np.unique(pairs[:, 0] * n_vertices + pairs[:, 1],
                              return_inverse=True)
    return np.stack(np.divmod(keys, n_vertices), axis=1), inverse


def _subdivide(vertices, faces):
    unique_edges, inverse = _unique_edges(faces, vertices.shape[0])
    midpoints = vertices[unique_edges[:, 0]] + vertices[unique_edges[:, 1]]
    midpoints /= np.linalg.norm(midpoints, axis=1, keepdims=True)
    new_vertices = np.concatenate([vertices, midpoints])

    n_faces = faces.shape[0]
    base = vertices.shape[0]
    m_ab = base + inverse[:n_faces]
    m_bc = base + inverse[n_faces:2 * n_faces]
    m_ca = base + inverse[2 * n_faces:]
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    children = np.stack([
        np.stack([a, m_ab, m_ca], axis=1),
        np.stack([b, m_bc, m_ab], axis=1),
        np.stack([c, m_ca, m_bc], axis=1),
        np.stack([m_ab, m_bc, m_ca], axis=1),
    ], axis=1).reshape(-1, 3)
    return new_vertices, children


def build_mesh(level: int, vertices: np.ndarray, faces: np.ndarray) -> Icosphere:
    """Icosphere with every index set derived once from ``faces``, frozen."""
    n_vertices = vertices.shape[0]
    edges, edge_of = _unique_edges(faces, n_vertices)
    directed = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((directed[:, 1], directed[:, 0]))
    ring_dst, ring_src = directed[order, 0], directed[order, 1]
    ring_offsets = np.searchsorted(ring_dst, np.arange(n_vertices + 1))
    degree = np.diff(ring_offsets)
    ring_slots = np.arange(6)
    in_ring = ring_slots < degree[:, None]
    ring = ring_src[ring_offsets[:-1, None] + np.where(in_ring, ring_slots, 0)]
    vertex_ids = np.arange(n_vertices)[:, None]
    neighbourhood = np.concatenate(
        [vertex_ids, np.where(in_ring, ring, vertex_ids)], axis=1)

    corner_vertex = faces.ravel()
    by_vertex = np.argsort(corner_vertex, kind="stable")
    face_offsets = np.searchsorted(corner_vertex[by_vertex],
                                   np.arange(n_vertices + 1))
    slots = np.arange(6)
    slots = np.where(slots < np.diff(face_offsets)[:, None], slots, 0)
    incident_faces = (by_vertex // 3)[face_offsets[:-1, None] + slots]

    # each edge has two face-edge slots (slot g * F + f is edge g of face f),
    # so a slot's partner is the edge's slot sum minus itself.  Edge g of a
    # face runs (a, b), (b, c), (c, a): corner k faces edge k + 1.
    n_faces = faces.shape[0]
    slot = np.arange(3 * n_faces)
    partner = np.bincount(edge_of, weights=slot)[edge_of].astype(np.int64) - slot
    face_neighbours = (partner % n_faces).reshape(3, n_faces).T[:, [1, 2, 0]]

    for array in (vertices, faces, edges, ring_offsets, ring_dst, ring_src,
                  incident_faces, neighbourhood, face_neighbours):
        array.setflags(write=False)
    return Icosphere(level=level, vertices=vertices, faces=faces, edges=edges,
                     ring_offsets=ring_offsets, ring_dst=ring_dst,
                     ring_src=ring_src,
                     incident_faces=incident_faces,
                     neighbourhood=neighbourhood,
                     face_neighbours=face_neighbours)


def generate_icosphere(level: int) -> Icosphere:
    """Return the (cached, shared) icosphere at ``level`` subdivisions."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ValueError(f"level must be an integer, got {level!r}")
    if level < 0 or level > MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    return _icosphere(int(level))


@cache
def _icosphere(level: int) -> Icosphere:
    if level == 0:
        vertices, faces = _base_icosahedron()
    else:
        parent = _icosphere(level - 1)
        vertices, faces = _subdivide(parent.vertices, parent.faces)
    return build_mesh(level, vertices, faces)


# ---------------------------------------------------------------------------
# point location and resampling
# ---------------------------------------------------------------------------

_SNAP_DOT = 1.0 - 1e-12


def _max_min_coordinate(lam):
    """Per target, the candidate row of ``lam`` (T, K, 3) whose smallest
    coordinate is largest; the first such row on exact ties."""
    # np.minimum over the three slices, not lam.min(axis=2): a reduction
    # over a length-3 axis runs ten times slower, for the same values
    return np.argmax(np.minimum(np.minimum(lam[..., 0], lam[..., 1]),
                                lam[..., 2]), axis=1)


def locate_faces(mesh: Icosphere, targets: np.ndarray):
    """Find the containing face and gnomonic barycentric weights per target.

    The descent picks the base face with the largest minimum coordinate,
    then per level the child of the picked face on the target's side of
    ``split_normals``.  The leaf's corner nearest the target seeds the last
    step: the face around that corner with the largest minimum coordinate.
    A target on an edge or at a vertex lies in several faces with (near)
    zero minima; the rule keeps the largest as computed, and on exact ties
    the lowest face index, since ``incident_faces`` lists faces in
    ascending order.  ``mesh`` must come from ``generate_icosphere``: the
    descent reads the coarser levels through it.
    Returns (face_indices, lambdas) with lambdas unnormalised.
    """
    targets = np.asarray(targets, dtype=np.float64)
    norms = np.linalg.norm(targets, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"locate_faces: target {worst} has norm {norms[worst]:.9f}, expected unit")

    # tables are gathered by np.take, which copies the same bytes as fancy
    # indexing several times faster
    rows = np.arange(targets.shape[0])
    base = generate_icosphere(0).corner_inverse.reshape(-1, 3)
    leaf = _max_min_coordinate((targets @ base.T).reshape(-1, 20, 3))
    for level in range(1, mesh.level + 1):
        normals = np.take(generate_icosphere(level).split_normals, leaf, axis=0)
        side = np.einsum("tcx,tx->ct", normals, targets) > 0
        # the first corner child whose side holds the target, else the centre
        leaf = 4 * leaf + np.where(side[0], 0, np.where(side[1], 1,
                                                        np.where(side[2], 2, 3)))

    corners = np.take(mesh.faces, leaf, axis=0)               # (T, 3)
    dots = np.einsum("tkx,tx->tk", np.take(mesh.vertices, corners, axis=0),
                     targets)
    seeds = corners[rows, np.argmax(dots, axis=1)]
    candidates = np.take(mesh.incident_faces, seeds, axis=0)  # (T, 6)
    inv = np.take(mesh.corner_inverse, candidates, axis=0)    # (T, 6, 3, 3)
    lam = np.einsum("tkij,tj->tki", inv, targets)             # (T, 6, 3)
    best = _max_min_coordinate(lam)
    return candidates[rows, best], lam[rows, best]


def barycentric_weights(mesh: Icosphere, targets: np.ndarray):
    """Containing faces plus weights normalised to sum to one."""
    face_idx, lam = locate_faces(mesh, targets)
    weights = lam / lam.sum(axis=1, keepdims=True)
    return face_idx, weights


def barycentric_resample(values: np.ndarray, mesh: Icosphere,
                         targets: np.ndarray) -> np.ndarray:
    """Sample per-vertex ``values`` on ``mesh`` at unit-norm ``targets``.

    Targets that coincide with a mesh vertex (to ~1e-12 in dot product)
    return that vertex's row bitwise, so resampling a signal at its own
    vertices is the identity.  Such a vertex is the corner of the located
    face with the largest weight.
    """
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if values.ndim == 1:
        return barycentric_resample(values[:, None], mesh, targets)[:, 0]
    if values.shape[0] != mesh.n_vertices:
        raise ValueError(
            f"barycentric_resample: {values.shape[0]} rows for mesh with "
            f"{mesh.n_vertices} vertices")

    face_idx, weights = barycentric_weights(mesh, targets)
    corners = np.take(mesh.faces, face_idx, axis=0)           # (T, 3)
    nearest = corners[np.arange(targets.shape[0]), np.argmax(weights, axis=1)]
    snapped = (np.sum(targets * np.take(mesh.vertices, nearest, axis=0), axis=1)
               >= _SNAP_DOT)
    out = np.einsum("tk,tkc->tc", weights, np.take(values, corners, axis=0))
    out[snapped] = np.take(values, nearest[snapped], axis=0)
    return out


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

@dataclass
class SphericalSignal:
    """Per-vertex channel data bound to a mesh level."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.ndim != 2:
            raise ValueError("signal values must be (vertices, channels)")
        expected = vertex_count(self.level)
        if self.values.shape[0] != expected:
            raise ValueError(
                f"signal has {self.values.shape[0]} rows, level {self.level} "
                f"needs {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("signal values must be finite")

    @property
    def channels(self) -> int:
        return self.values.shape[1]

