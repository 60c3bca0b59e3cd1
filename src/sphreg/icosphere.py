"""Icosahedral sphere meshes and barycentric interpolation between them.

Meshes are produced by recursive midpoint subdivision of a regular
icosahedron in a canonical orientation (poles on the z axis, two staggered
rings of five).  Subdivision appends the new midpoint vertices after their
parents, so the vertices of level k are exactly the first 10*4^k + 2 rows of
every finer level; the rest of the package leans on that prefix property for
control grids and label sets.  It also writes the four children of face f
as rows 4f..4f+3, and their normalised midpoints lie on the parent's
great-circle edges, so the children's cones tile the parent's cone.
Subdivision reads only the parent's edge table; every other index table of
a mesh is built on its first read and then frozen, so a process pays only
for the tables it uses.

Interpolation uses gnomonic (central projection) barycentric coordinates:
for a query point t inside the cone of face (a, b, c) the weights solve
[a b c] lam = t and are normalised to sum to one.  That choice makes
resampling exact for targets equal to source vertices and reproduces
tangent-plane linear functions to second order in the edge length.

Point location descends that face tree: the base face with the largest
minimum coordinate, then per level the child on the target's side of the
great circles that cut the centre child from the corner children.  The
leaf's corner nearest the target is the seed.  The leaf is the answer
when its smallest coordinate exceeds ``_INSIDE`` (1e-10, far above the
rounding error of a coordinate); only targets near an edge or a vertex
search the faces around the seed for the largest minimum coordinate (the
lowest face index on exact ties), and resampling reads a target on a
vertex from the seed's row.  That is O(level) work per target and memory
per block of ``_BLOCK`` targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

MAX_LEVEL = 7


def vertex_count(level: int) -> int:
    return 10 * 4 ** level + 2


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(eq=False)
class Icosphere:
    """Triangulated unit sphere at one subdivision level.

    ``vertices`` are unit rows, ``faces`` index CCW as seen from outside;
    both are frozen on construction.  Each index set depends only on
    ``faces`` and is built on first read, then frozen, so cached meshes
    can be shared freely.  Meshes hash by identity, so tables derived from
    one (such as the per-face solve matrices) are memoised per mesh object.

    ``edges`` are the undirected edges as sorted (i, j) pairs in
    lexicographic order.  The directed one-ring is stored in CSR form:
    ``ring_dst`` ascending, ``ring_src`` ascending within each destination,
    and ``ring_src[ring_offsets[v]:ring_offsets[v + 1]]`` the one-ring of
    vertex v.
    ``incident_faces[v]`` lists the faces around v in ascending order,
    padded to six with the first of them.

    ``face_neighbours[f, k]`` is the face across the edge opposite corner
    k of face f.

    ``neighbourhood`` is the (V, 7) attention table: row v holds v itself,
    then the one-ring of v.  The twelve degree-5 vertices pad their last slot
    with v, so slot k of row v is padding exactly when k exceeds the degree
    ``ring_offsets[v + 1] - ring_offsets[v]``.
    """

    level: int
    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        _frozen(self.vertices)
        _frozen(self.faces)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``_unique_edges`` of the faces, frozen; ``_subdivide`` reads it
        to place the next level's midpoints."""
        edges, edge_of = _unique_edges(self.faces, self.n_vertices)
        return _frozen(edges), _frozen(edge_of)

    @cached_property
    def edges(self) -> np.ndarray:
        return self._edge_table[0]

    @cached_property
    def _directed_ring(self) -> tuple[np.ndarray, np.ndarray]:
        """(dst, src) of every directed edge, by dst and then src, frozen."""
        directed = np.concatenate([self.edges, self.edges[:, ::-1]])
        order = np.lexsort((directed[:, 1], directed[:, 0]))
        return _frozen(directed[order, 0]), _frozen(directed[order, 1])

    @cached_property
    def ring_dst(self) -> np.ndarray:
        return self._directed_ring[0]

    @cached_property
    def ring_src(self) -> np.ndarray:
        return self._directed_ring[1]

    @cached_property
    def ring_offsets(self) -> np.ndarray:
        return _frozen(np.searchsorted(self.ring_dst,
                                       np.arange(self.n_vertices + 1)))

    @cached_property
    def neighbourhood(self) -> np.ndarray:
        ring_slots = np.arange(6)
        in_ring = ring_slots < np.diff(self.ring_offsets)[:, None]
        ring = self.ring_src[self.ring_offsets[:-1, None]
                             + np.where(in_ring, ring_slots, 0)]
        vertex_ids = np.arange(self.n_vertices)[:, None]
        return _frozen(np.concatenate(
            [vertex_ids, np.where(in_ring, ring, vertex_ids)], axis=1))

    @cached_property
    def incident_faces(self) -> np.ndarray:
        corner_vertex = self.faces.ravel()
        by_vertex = np.argsort(corner_vertex, kind="stable")
        face_offsets = np.searchsorted(corner_vertex[by_vertex],
                                       np.arange(self.n_vertices + 1))
        slots = np.arange(6)
        slots = np.where(slots < np.diff(face_offsets)[:, None], slots, 0)
        return _frozen((by_vertex // 3)[face_offsets[:-1, None] + slots])

    @cached_property
    def face_neighbours(self) -> np.ndarray:
        # slot g * F + f is edge g of face f; each edge has two slots, so a
        # slot's partner is the edge's slot sum minus itself.  Edge g runs
        # (a, b), (b, c), (c, a): corner k faces edge k + 1.
        edge_of = self._edge_table[1]
        slot = np.arange(3 * self.n_faces)
        partner = (np.bincount(edge_of, weights=slot)[edge_of]
                   .astype(np.int64) - slot)
        return _frozen((partner % self.n_faces)
                       .reshape(3, self.n_faces).T[:, [1, 2, 0]])

    @cached_property
    def antipodes(self) -> np.ndarray:
        """Per vertex, the vertex at minus it, in O(N): level 0 pairs by dot
        product, then the midpoint of (a, b) maps to that of (anti a, anti b)."""
        if self.level == 0:
            return _frozen(np.argmin(self.vertices @ self.vertices.T, axis=1))
        parent = generate_icosphere(self.level - 1)
        n, anti = parent.n_vertices, parent.antipodes
        mapped = np.sort(anti[parent.edges], axis=1)
        midpoints = np.searchsorted(parent.edges @ [n, 1], mapped @ [n, 1])
        return _frozen(np.concatenate([anti, n + midpoints]))

    @cached_property
    def corner_inverse(self) -> np.ndarray:
        """Per-face inverse of the 3x3 corner-column matrix, shape (F, 3, 3)."""
        corners = self.vertices[self.faces]              # (F, corner, xyz)
        return _frozen(np.linalg.inv(corners.transpose(0, 2, 1)))

    @cached_property
    def split_normals(self) -> np.ndarray:
        """How each face one level up splits into this level's faces.

        ``_subdivide`` writes the children of parent face f as rows
        4f..4f+3: one per parent corner, then the centre child.  Row f,
        shape (F / 4, 3, 3), holds per corner child c the normal of the
        great circle between it and the centre child, positive on the
        corner child's side.  Only meaningful above level 0."""
        centre = self.vertices[self.faces[3::4]]         # (F/4, corner, xyz)
        return _frozen(np.cross(centre, np.roll(centre, 1, axis=1)))


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
    start, end = faces.T.ravel(), faces[:, [1, 2, 0]].T.ravel()
    keys, inverse = np.unique(np.minimum(start, end) * n_vertices
                              + np.maximum(start, end), return_inverse=True)
    return np.stack(np.divmod(keys, n_vertices), axis=1), inverse


def _subdivide(parent: Icosphere):
    """The next level's vertices and faces, from the parent's edge table."""
    vertices, faces = parent.vertices, parent.faces
    unique_edges, inverse = parent._edge_table
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
        vertices, faces = _subdivide(parent)
    return Icosphere(level, vertices, faces)


# ---------------------------------------------------------------------------
# point location and resampling
# ---------------------------------------------------------------------------

_SNAP_DOT = 1.0 - 1e-12

# Up to MAX_LEVEL a computed coordinate errs by at most about 4e-12 (largest
# |corner_inverse| entry 143, condition number 303), so only the face that
# holds a target with a computed minimum above this can be the max-min face.
_INSIDE = 1e-10

# Rows per block of location, interpolation and harmonic sampling: rows
# never mix, so blocks change no bit; (_BLOCK, 20, 3) floats take 2 MB.
_BLOCK = 4096


def _sum3(a):
    """Sums over a length-3 axis 1, bitwise ``a.sum(axis=1)``, which adds
    the terms in order onto +0.0: the trailing ``+ 0.0`` turns -0.0 into
    +0.0 as that start does.  Column arithmetic beats the reduction 2-5x."""
    return ((a[:, 0] + a[:, 1]) + a[:, 2]) + 0.0


def _dot3(a, b):
    """Row-wise dot products of (M, 3) arrays, bitwise np.sum(a * b, axis=1)."""
    return _sum3(a * b)


def _norm3(a):
    """Row norms of an (M, 3) array, bitwise np.linalg.norm(a, axis=1)."""
    p = a * a                                   # never -0.0: no + 0.0
    return np.sqrt((p[:, 0] + p[:, 1]) + p[:, 2])


def _cross3(a, b):
    """Row-wise cross products of (M, 3) arrays, bitwise np.cross(a, b)."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=1)


def _argmax3(a):
    """Per row of an (M, 3) array without NaN, the column that
    ``np.argmax(a, axis=1)`` picks, the first of the largest."""
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    # boolean arithmetic: np.where with scalar branches runs 3x slower
    return ~((a0 >= a1) & (a0 >= a2)) * (2 - (a1 >= a2))


def _min_coordinate(lam):
    """Smallest of the three coordinates along the last axis of ``lam``."""
    # np.minimum over the three slices, not lam.min(axis=-1): a reduction
    # over a length-3 axis runs ten times slower, for the same values
    return np.minimum(np.minimum(lam[..., 0], lam[..., 1]), lam[..., 2])


def _unit_blocks(targets):
    """``targets`` as float64 rows, checked all at once to be of unit length
    within 1e-8 (a NaN row is not), and the row slices of its blocks."""
    targets = np.asarray(targets, dtype=np.float64)
    norms = _norm3(targets)
    if not np.all(np.abs(norms - 1.0) <= 1e-8):
        worst = int(np.argmax(np.abs(norms - 1.0)))     # the first NaN, if any
        raise ValueError(
            f"target {worst} has norm {norms[worst]:.9f}, expected unit")
    return targets, [slice(lo, lo + _BLOCK)
                     for lo in range(0, len(targets), _BLOCK)]


def _descend(mesh: Icosphere, targets: np.ndarray):
    """Per unit float64 target row, the descent's leaf face and its corner
    nearest the target, the seed."""
    # tables are gathered by np.take, which copies the same bytes as fancy
    # indexing several times faster
    base = generate_icosphere(0).corner_inverse.reshape(-1, 3)
    leaf = np.argmax(_min_coordinate((targets @ base.T).reshape(-1, 20, 3)),
                     axis=1)
    for level in range(1, mesh.level + 1):
        normals = np.take(generate_icosphere(level).split_normals, leaf, axis=0)
        s0, s1, s2 = np.einsum("tcx,tx->ct", normals, targets) > 0
        # the first corner child k whose side holds the target, else the
        # centre (k = 3): 3 minus how many of s0, s0|s1, s0|s1|s2 hold
        leaf = 4 * leaf + 3 - (s0 | s1 | s2) - (s0 | s1) - s0
    corners = np.take(mesh.faces, leaf, axis=0)               # (T, 3)
    dots = np.einsum("tkx,tx->tk", np.take(mesh.vertices, corners, axis=0),
                     targets)
    return leaf, np.take(corners, 3 * np.arange(len(leaf)) + _argmax3(dots))


def _around_seed(mesh: Icosphere, targets: np.ndarray, seeds: np.ndarray):
    """Per target, the face around its seed with the largest minimum
    coordinate (the lowest face index on exact ties) and its coordinates."""
    candidates = np.take(mesh.incident_faces, seeds, axis=0)  # (T, 6)
    inv = np.take(mesh.corner_inverse, candidates, axis=0)    # (T, 6, 3, 3)
    lam = np.einsum("tkij,tj->tki", inv, targets)             # (T, 6, 3)
    best = np.argmax(_min_coordinate(lam), axis=1)
    rows = np.arange(len(seeds))
    return candidates[rows, best], lam[rows, best]


def _settle(mesh: Icosphere, targets: np.ndarray, leaf: np.ndarray,
            seeds: np.ndarray):
    """Faces and unnormalised coordinates: the leaf where its minimum
    exceeds ``_INSIDE``, else ``_around_seed``.  Writes into ``leaf``."""
    # the einsum of _around_seed on one candidate: the same bits per face
    inv = np.take(mesh.corner_inverse, leaf[:, None], axis=0)  # (T, 1, 3, 3)
    lam = np.einsum("tkij,tj->tki", inv, targets)[:, 0]
    edge = np.flatnonzero(_min_coordinate(lam) <= _INSIDE)
    leaf[edge], lam[edge] = _around_seed(mesh, targets[edge], seeds[edge])
    return leaf, lam


def locate_faces(mesh: Icosphere, targets: np.ndarray):
    """Find the containing face and gnomonic barycentric weights per target.

    The descent picks the base face with the largest minimum coordinate,
    then per level the child of the picked face on the target's side of
    ``split_normals``; the leaf's corner nearest the target is the seed.
    The leaf is the answer where its smallest coordinate exceeds
    ``_INSIDE``: coordinates err by at most about 4e-12, so no other face
    can then score higher.  Targets on or near an edge or a vertex take the
    face around the seed with the largest minimum coordinate as computed,
    and on exact ties the lowest face index, since ``incident_faces`` lists
    faces in ascending order.  ``mesh`` must come from ``generate_icosphere``:
    the descent reads the coarser levels through it.  Targets are checked
    all at once, then located per block of ``_BLOCK``.
    Returns (face_indices, lambdas) with lambdas unnormalised.
    """
    targets, blocks = _unit_blocks(targets)
    faces, lam = np.empty(len(targets), np.intp), np.empty((len(targets), 3))
    for rows in blocks:
        block = targets[rows]
        faces[rows], lam[rows] = _settle(mesh, block, *_descend(mesh, block))
    return faces, lam


def locate_points(mesh: Icosphere, targets: np.ndarray):
    """Where ``barycentric_resample`` reads each unit-norm target, per block
    as in ``locate_faces``: the seeds, the rows off every vertex, and their
    face corners and normalised weights, for ``interpolate`` to reuse."""
    targets, blocks = _unit_blocks(targets)
    located = []
    for rows in blocks:
        block = targets[rows]
        leaf, seeds = _descend(mesh, block)
        rest = np.flatnonzero(
            _dot3(block, np.take(mesh.vertices, seeds, axis=0)) < _SNAP_DOT)
        face_idx, lam = _settle(mesh, block[rest], leaf[rest], seeds[rest])
        located.append((rows, seeds, rest, np.take(mesh.faces, face_idx, axis=0),
                        lam / _sum3(lam)[:, None]))
    return mesh, len(targets), located


def interpolate(values: np.ndarray, located) -> np.ndarray:
    """Sample (N, C) per-vertex ``values`` at the targets of ``located``,
    one row per mesh vertex: a target on a vertex reads its row bitwise."""
    (mesh, count, blocks), values = located, np.asarray(values, np.float64)
    if values.ndim != 2 or values.shape[0] != mesh.n_vertices:
        raise ValueError(
            f"barycentric_resample: values of shape {values.shape} for mesh "
            f"with {mesh.n_vertices} vertices")
    out = np.empty((count, values.shape[1]))
    for rows, seeds, rest, corners, weights in blocks:
        out[rows] = np.take(values, seeds, axis=0)
        out[rows.start + rest] = np.einsum(
            "tk,tkc->tc", weights, np.take(values, corners, axis=0))
    return out


def barycentric_resample(values: np.ndarray, mesh: Icosphere,
                         targets: np.ndarray) -> np.ndarray:
    """Sample per-vertex ``values`` on ``mesh`` at unit-norm ``targets``:
    ``interpolate`` at ``locate_points``.

    Targets that coincide with a mesh vertex (to ~1e-12 in dot product)
    return that vertex's row bitwise, so resampling a signal at its own
    vertices is the identity.  Such a target lies only in faces around the
    vertex, so the vertex is the descent's seed and the row skips
    ``_settle``.  ``values`` is (N, C), one row per mesh vertex.
    """
    return interpolate(values, locate_points(mesh, targets))


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

