"""Deformation fields on the sphere: densification, warping, composition.

A field stores, per mesh vertex v, the unit point ``targets[v]`` the warped
image samples from (pull-back convention):

    warp(moving, field)[v] = moving(targets[v])

so composing fields reads ``compose(a, b)(v) = b(a(v))`` ("a acts first"),
and warp(m, compose(a, b)) == warp(warp(m, b), a).

Sparse control-point moves are densified by rotation-vector interpolation:
each control move becomes the minimal rotation carrying the control point to
its target, rotation vectors are interpolated with gnomonic barycentric
weights over the control mesh (the weights depend only on the two mesh
levels and are cached), and each fine vertex is rotated by its interpolated
vector.  Unlike Euclidean displacement blending this keeps intermediate
points on the sphere and is exact for a shared global rotation up to the
interpolation error of the rotation-vector field.

A field is linear in gnomonic coordinates on each mesh face, so it is
inverted exactly: each vertex is located in the deformed mesh by a walk
that starts at one of the vertex's own faces and crosses, over the mesh's
face-neighbour table, the edge opposite its most negative coordinate, and
its weights there map back to the original corners.

Everything on the "moving" side (control targets, warped values) may be an
autodiff tensor; mesh geometry and interpolation weights are constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .errors import NumericError
from .icosphere import (Icosphere, SphericalSignal, _norm3,
                        barycentric_resample, generate_icosphere, interpolate,
                        locate_faces, locate_points, vertex_count)

# a walk stops in a face where no gnomonic coordinate is below -tolerance:
# a vertex on a deformed edge may compute a tiny negative coordinate in
# both faces, and an exact test would step back and forth between them
_WALK_TOLERANCE = 1e-12

# largest |norm - 1| of a field target, in memory and on disk alike
UNIT_TOLERANCE = 1e-9


@dataclass
class DeformationField:
    """Per-vertex pull-back sample points for one mesh level."""

    mesh_level: int
    targets: np.ndarray

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=np.float64)
        expected = vertex_count(self.mesh_level)
        if self.targets.shape != (expected, 3):
            raise ValueError(
                f"field at level {self.mesh_level} needs shape ({expected}, 3), "
                f"got {self.targets.shape}")
        check_unit_targets(self.targets)


def check_unit_targets(targets: np.ndarray) -> None:
    """Raise ValueError unless every (x, y, z) row of ``targets`` is finite
    and of unit length within ``UNIT_TOLERANCE``."""
    if not np.all(np.isfinite(targets)):
        raise ValueError("field targets must be finite")
    norms = _norm3(targets)
    if np.any(np.abs(norms - 1.0) > UNIT_TOLERANCE):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"field target {bad} has norm {norms[bad]:.12f}, expected unit")


def identity_field(mesh_level: int) -> DeformationField:
    return DeformationField(mesh_level,
                            generate_icosphere(mesh_level).vertices.copy())


# ---------------------------------------------------------------------------
# rotation-vector helpers (tensor-aware)
# ---------------------------------------------------------------------------

def _arc_over_sin(c):
    """arccos(c) / sqrt(1 - c^2), the factor that scales p x d into a
    rotation vector, with a series branch near c = 1.

    Only valid for c > -1 (no antipodal rotations); inputs are clipped a hair
    inside the domain, which is harmless for the small deformations used here.
    """
    u = 1.0 - c
    small = u <= 1e-9
    cc = np.clip(c, -1.0 + 1e-12, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.arccos(cc) / np.sqrt(np.maximum(1.0 - cc * cc, 1e-300))
    series = 1.0 + u / 3.0 + 2.0 * u * u / 15.0
    return np.where(small, series, direct)


def _arc_over_sin_deriv(c, value):
    """d/dc of ``_arc_over_sin`` given its ``value`` at c.  c*g - 1 cancels
    to O(u); switch to the series well before roundoff in the direct form
    becomes visible."""
    u = 1.0 - c
    small = u <= 1e-6
    cc = np.clip(c, -1.0 + 1e-12, 1.0)
    denom = np.where(small, 1.0, 1.0 - cc * cc)
    direct = (cc * value - 1.0) / denom
    series = -1.0 / 3.0 - 4.0 * u / 15.0
    return np.where(small, series, direct)


def minimal_rotation_vectors(origins: np.ndarray, targets):
    """Rotation vector of the smallest rotation carrying each origin to its
    target: r = (p x d) * arccos(p . d) / |p x d|, finite at zero rotation.

    One tape node.  The forward makes the numpy calls of the chain
    ``mul(cross(p, d), arc_over_sin(reduce_sum(mul(p, d))))`` and the
    backward replays that chain's backward: each intermediate gradient
    starts from +0.0 (``+ 0.0``), and the cross-product path reaches
    ``targets`` before the dot-product path, so gradients are bitwise
    those of the chain."""
    d = ag.value_of(targets)
    cos = (origins * d).sum(axis=1, keepdims=True)
    crossed = np.cross(origins, d)
    scale = _arc_over_sin(cos)

    def backward(g):
        ag.accumulate(targets, np.cross(g * scale + 0.0, origins))
        g_scale = (g * crossed).sum(axis=1, keepdims=True) + 0.0
        g_cos = g_scale * _arc_over_sin_deriv(cos, scale) + 0.0
        ag.accumulate(targets, g_cos * origins)

    return ag.record(crossed * scale, (targets,), backward)


def apply_rotation_vectors(rotvecs, points: np.ndarray):
    """Rodrigues rotation of each point by its own rotation vector.

    Written in terms of t = |r|^2 through the smooth kernels so zero
    rotations pass points through bitwise and gradients stay finite."""
    t = ag.reduce_sum(ag.square(rotvecs), axis=1, keepdims=True)
    cosc = ag.cosc_sq(t)
    radial = ag.mul(points, ag.sub(1.0, ag.mul(t, cosc)))
    tangential = ag.mul(ag.cross(rotvecs, points), ag.sinc_sq(t))
    axial = ag.mul(rotvecs,
                   ag.mul(ag.reduce_sum(ag.mul(rotvecs, points), axis=1,
                                        keepdims=True), cosc))
    return ag.add(ag.add(radial, tangential), axial)


@cache
def _densify_weights(control_level: int, dst_level: int):
    """Barycentric corners and weights of every dst vertex over the control
    mesh: the frozen (N, 3) control-vertex corner ids and (N, 3) weights;
    pure geometry, cached per level pair."""
    control = generate_icosphere(control_level)
    dst = generate_icosphere(dst_level)
    faces, lam = locate_faces(control, dst.vertices)
    weights = lam / lam.sum(axis=1, keepdims=True)
    corners = control.faces[faces]
    # dst vertices that are control vertices (the level prefix) interpolate
    # their own rotation vector exactly; the locator puts each in a face
    # around it, so its row has one corner equal to itself
    prefix = control.n_vertices
    weights[:prefix] = corners[:prefix] == np.arange(prefix)[:, None]
    corners.setflags(write=False)
    weights.setflags(write=False)
    return corners, weights


def densify_targets(control_targets, control_level: int, dst_level: int):
    """Dense (N, 3) sample targets from control-point targets (tensor-aware)."""
    value = ag.value_of(control_targets)
    expected = vertex_count(control_level)
    if value.shape != (expected, 3):
        raise ValueError(
            f"control targets must be ({expected}, 3) for level {control_level}, "
            f"got {value.shape}")
    if dst_level < control_level:
        raise ValueError(
            f"densify: dst level {dst_level} below control level {control_level}")
    control = generate_icosphere(control_level)
    dst = generate_icosphere(dst_level)

    rotvecs = minimal_rotation_vectors(control.vertices, control_targets)
    corners, weights = _densify_weights(control_level, dst_level)
    gathered = ag.take_rows(rotvecs, corners)                   # (N, 3, 3)
    dense_rotvecs = ag.einsum2("nk,nkx->nx", weights, gathered)
    rotated = apply_rotation_vectors(dense_rotvecs, dst.vertices)
    return ag.row_normalize(rotated)


# ---------------------------------------------------------------------------
# warping and composition
# ---------------------------------------------------------------------------

def warp_values(values, targets, src_mesh: Icosphere):
    """Sample ``values`` (rows on src_mesh) at ``targets`` (tensor-aware).

    The containing faces are located from detached target values and held
    fixed; within a face the gnomonic weights are smooth in the target, so
    gradients flow through both the sample points and the sampled values.
    """
    target_values = ag.value_of(targets)
    faces, _ = locate_faces(src_mesh, target_values)
    corner_ids = src_mesh.faces[faces]                          # (T, 3)
    inverse = src_mesh.corner_inverse[faces]                    # (T, 3, 3)
    lam = ag.einsum2("tij,tj->ti", inverse, targets)
    weights = ag.div(lam, ag.reduce_sum(lam, axis=1, keepdims=True))
    corner_vals = ag.reshape(ag.take_rows(values, corner_ids.ravel()),
                             (target_values.shape[0], 3, -1))
    return ag.einsum2("tk,tkc->tc", weights, corner_vals)


def warp_signal(signal: SphericalSignal, field: DeformationField) -> SphericalSignal:
    """Pull a signal back through a field on the same mesh level."""
    if signal.level != field.mesh_level:
        raise ValueError(
            f"signal level {signal.level} != field level {field.mesh_level}")
    mesh = generate_icosphere(signal.level)
    return SphericalSignal(signal.level,
                           barycentric_resample(signal.values, mesh, field.targets))


def compose(first: DeformationField, second: DeformationField,
            located=None) -> DeformationField:
    """Field equivalent to applying ``first`` then ``second`` (pull-back).
    ``located``, if given, is ``locate_points`` of ``first.targets`` on
    their mesh, found earlier, so they are not located again."""
    if first.mesh_level != second.mesh_level:
        raise ValueError(
            f"compose: field levels differ ({first.mesh_level} vs "
            f"{second.mesh_level})")
    if located is None:
        located = locate_points(generate_icosphere(first.mesh_level),
                                first.targets)
    targets = ag.row_normalize(interpolate(second.targets, located))
    return DeformationField(first.mesh_level, targets)


def invert_field(field: DeformationField) -> DeformationField:
    """Exact inverse: the field u with field(u(v)) = v at every vertex v.

    v is located in the deformed mesh (the same faces with corners at
    ``field.targets``), and u(v) = normalize(sum_k w_k x_k) over the
    original corners x_k, with w the normalised gnomonic weights of v in
    that face.  A walk takes at most one step per face.  A folded field
    has no inverse and raises NumericError."""
    from .metrics import fold_count
    mesh = generate_icosphere(field.mesh_level)
    folds = fold_count(mesh, field)
    if folds:
        raise NumericError(f"invert_field: field folds {folds} triangles "
                           "and has no inverse")
    deformed = field.targets[mesh.faces]                        # (F, 3, 3)
    inverse = np.linalg.inv(deformed.transpose(0, 2, 1))
    points = mesh.vertices
    face = mesh.incident_faces[:, 0].copy()
    lam = np.empty_like(points)
    walking = np.arange(mesh.n_vertices)
    for _ in range(mesh.n_faces):
        lam[walking] = np.einsum("tij,tj->ti", inverse[face[walking]],
                                 points[walking])
        exit_corner = np.argmin(lam[walking], axis=1)
        outside = lam[walking, exit_corner] < -_WALK_TOLERANCE
        walking, exit_corner = walking[outside], exit_corner[outside]
        if walking.size == 0:
            break
        face[walking] = mesh.face_neighbours[face[walking], exit_corner]
    else:
        raise NumericError(f"invert_field: {walking.size} vertices found no "
                           "deformed face")
    weights = lam / lam.sum(axis=1, keepdims=True)
    targets = np.einsum("tk,tkx->tx", weights, points[mesh.faces[face]])
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return DeformationField(field.mesh_level, targets)
