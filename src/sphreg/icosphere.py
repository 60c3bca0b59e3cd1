"""Icosahedral sphere meshes and barycentric interpolation between them.

Meshes are produced by recursive midpoint subdivision of a regular
icosahedron in a canonical orientation (poles on the z axis, two staggered
rings of five).  Subdivision appends the new midpoint vertices after their
parents, so the vertices of level k are exactly the first 10*4^k + 2 rows of
every finer level; the rest of the package leans on that prefix property for
control grids and label sets.

Interpolation uses gnomonic (central projection) barycentric coordinates:
for a query point t inside the cone of face (a, b, c) the weights solve
[a b c] lam = t and are normalised to sum to one.  That choice makes
resampling exact for targets equal to source vertices and reproduces
tangent-plane linear functions to second order in the edge length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_LEVEL = 7

_mesh_cache: dict[int, "Icosphere"] = {}


def vertex_count(level: int) -> int:
    return 10 * 4 ** level + 2


def face_count(level: int) -> int:
    return 20 * 4 ** level


def edge_count(level: int) -> int:
    return 30 * 4 ** level


@dataclass
class Icosphere:
    """Triangulated unit sphere at one subdivision level.

    ``vertices`` are unit rows, ``faces`` index CCW as seen from outside.
    Every index set depends only on ``faces`` and is built once by
    ``build_mesh``; the arrays are frozen so cached meshes can be shared
    freely.  The per-face solve matrices are built lazily.

    ``edges`` are the undirected edges as sorted (i, j) pairs in
    lexicographic order.  The directed one-ring is stored in CSR form:
    ``ring_dst`` ascending, ``ring_src`` ascending within each destination,
    and ``ring_offsets[v]:ring_offsets[v + 1]`` the slice of vertex v, of
    which ``one_ring[v]`` is a view.  ``incident_faces[v]`` lists the faces
    around v in ascending order, padded to six with the first of them.
    """

    level: int
    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray = field(repr=False)
    ring_offsets: np.ndarray = field(repr=False)
    ring_dst: np.ndarray = field(repr=False)
    ring_src: np.ndarray = field(repr=False)
    one_ring: list[np.ndarray] = field(repr=False)
    incident_faces: np.ndarray = field(repr=False)
    _corner_inverse: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @property
    def corner_inverse(self) -> np.ndarray:
        """Per-face inverse of the 3x3 corner-column matrix, shape (F, 3, 3)."""
        if self._corner_inverse is None:
            corners = self.vertices[self.faces]          # (F, corner, xyz)
            self._corner_inverse = np.linalg.inv(corners.transpose(0, 2, 1))
        return self._corner_inverse

    def mean_edge_arc(self) -> float:
        a = self.vertices[self.edges[:, 0]]
        b = self.vertices[self.edges[:, 1]]
        return float(np.mean(_arc_length(a, b)))

    def max_edge_arc(self) -> float:
        a = self.vertices[self.edges[:, 0]]
        b = self.vertices[self.edges[:, 1]]
        return float(np.max(_arc_length(a, b)))


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
    edges, _ = _unique_edges(faces, n_vertices)
    directed = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((directed[:, 1], directed[:, 0]))
    ring_dst, ring_src = directed[order, 0], directed[order, 1]
    ring_offsets = np.searchsorted(ring_dst, np.arange(n_vertices + 1))

    corner_vertex = faces.ravel()
    by_vertex = np.argsort(corner_vertex, kind="stable")
    face_offsets = np.searchsorted(corner_vertex[by_vertex],
                                   np.arange(n_vertices + 1))
    slots = np.arange(6)
    slots = np.where(slots < np.diff(face_offsets)[:, None], slots, 0)
    incident_faces = (by_vertex // 3)[face_offsets[:-1, None] + slots]

    for array in (vertices, faces, edges, ring_offsets, ring_dst, ring_src,
                  incident_faces):
        array.setflags(write=False)
    return Icosphere(level=level, vertices=vertices, faces=faces, edges=edges,
                     ring_offsets=ring_offsets, ring_dst=ring_dst,
                     ring_src=ring_src,
                     one_ring=np.split(ring_src, ring_offsets[1:-1]),
                     incident_faces=incident_faces)


def generate_icosphere(level: int) -> Icosphere:
    """Return the (cached, shared) icosphere at ``level`` subdivisions."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ValueError(f"level must be an integer, got {level!r}")
    if level < 0 or level > MAX_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    if level in _mesh_cache:
        return _mesh_cache[level]
    if level == 0:
        vertices, faces = _base_icosahedron()
    else:
        parent = generate_icosphere(level - 1)
        vertices, faces = _subdivide(parent.vertices, parent.faces)
    mesh = build_mesh(level, vertices, faces)
    _mesh_cache[level] = mesh
    return mesh


# ---------------------------------------------------------------------------
# point location and resampling
# ---------------------------------------------------------------------------

_SNAP_DOT = 1.0 - 1e-12


def _nearest_vertices(mesh, targets, chunk=4096):
    seeds = np.empty(targets.shape[0], dtype=np.int64)
    verts_t = mesh.vertices.T
    for lo in range(0, targets.shape[0], chunk):
        hi = min(lo + chunk, targets.shape[0])
        seeds[lo:hi] = np.argmax(targets[lo:hi] @ verts_t, axis=1)
    return seeds


def locate_faces(mesh: Icosphere, targets: np.ndarray, seeds=None):
    """Find the containing face and gnomonic barycentric weights per target.

    Candidates incident to each target's nearest vertex cover essentially all
    queries; the rare stragglers (targets balancing on numerical edges) fall
    back to an exhaustive max-min-coordinate scan, which is the geometric
    argmax and therefore always valid.  ``seeds`` are the nearest vertices
    when the caller has already found them.
    Returns (face_indices, lambdas) with lambdas unnormalised.
    """
    targets = np.asarray(targets, dtype=np.float64)
    norms = np.linalg.norm(targets, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-8):
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"locate_faces: target {worst} has norm {norms[worst]:.9f}, expected unit")

    if seeds is None:
        seeds = _nearest_vertices(mesh, targets)
    candidates = mesh.incident_faces[seeds]                   # (T, 6)
    inv = mesh.corner_inverse[candidates]                     # (T, 6, 3, 3)
    lam = np.einsum("tkij,tj->tki", inv, targets)             # (T, 6, 3)
    min_coord = lam.min(axis=2)                               # (T, 6)
    best = np.argmax(min_coord, axis=1)
    rows = np.arange(targets.shape[0])
    face_idx = candidates[rows, best]
    lam_best = lam[rows, best]
    unresolved = min_coord[rows, best] < -1e-9

    if np.any(unresolved):
        all_inverse = mesh.corner_inverse
        for row in np.nonzero(unresolved)[0]:
            lam_all = np.einsum("fij,j->fi", all_inverse, targets[row])
            f = int(np.argmax(lam_all.min(axis=1)))
            face_idx[row] = f
            lam_best[row] = lam_all[f]
    return face_idx, lam_best


def barycentric_weights(mesh: Icosphere, targets: np.ndarray, seeds=None):
    """Containing faces plus weights normalised to sum to one."""
    face_idx, lam = locate_faces(mesh, targets, seeds)
    weights = lam / lam.sum(axis=1, keepdims=True)
    return face_idx, weights


def barycentric_resample(values: np.ndarray, mesh: Icosphere,
                         targets: np.ndarray) -> np.ndarray:
    """Sample per-vertex ``values`` on ``mesh`` at unit-norm ``targets``.

    Targets that coincide with a mesh vertex (to ~1e-12 in dot product)
    return that vertex's row bitwise, so resampling a signal at its own
    vertices is the identity.
    """
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if values.ndim == 1:
        return barycentric_resample(values[:, None], mesh, targets)[:, 0]
    if values.shape[0] != mesh.n_vertices:
        raise ValueError(
            f"barycentric_resample: {values.shape[0]} rows for mesh with "
            f"{mesh.n_vertices} vertices")

    seeds = _nearest_vertices(mesh, targets)
    seed_dot = np.sum(targets * mesh.vertices[seeds], axis=1)
    snapped = seed_dot >= _SNAP_DOT

    out = np.empty((targets.shape[0], values.shape[1]), dtype=np.float64)
    out[snapped] = values[seeds[snapped]]
    if np.any(~snapped):
        rest = ~snapped
        face_idx, weights = barycentric_weights(mesh, targets[rest], seeds[rest])
        corner_vals = values[mesh.faces[face_idx]]            # (T, 3, C)
        out[rest] = np.einsum("tk,tkc->tc", weights, corner_vals)
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

