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

Everything on the "moving" side (control targets, warped values) may be an
autodiff tensor; mesh geometry and interpolation weights are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .errors import NumericError
from .icosphere import (Icosphere, SphericalSignal, barycentric_resample,
                        generate_icosphere, locate_faces, vertex_count)

_densify_weights_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


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
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("field targets must be finite")
        norms = np.linalg.norm(self.targets, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(
                f"field target {bad} has norm {norms[bad]:.12f}, expected unit")


def identity_field(mesh_level: int) -> DeformationField:
    return DeformationField(mesh_level,
                            generate_icosphere(mesh_level).vertices.copy())


# ---------------------------------------------------------------------------
# rotation-vector helpers (tensor-aware)
# ---------------------------------------------------------------------------

def minimal_rotation_vectors(origins: np.ndarray, targets):
    """Rotation vector of the smallest rotation carrying each origin to its
    target: r = (p x d) * arccos(p . d) / |p x d|, finite at zero rotation."""
    cos = ag.reduce_sum(ag.mul(origins, targets), axis=1, keepdims=True)
    return ag.mul(ag.cross(origins, targets), ag.arc_over_sin(cos))


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


def _densify_weights(control_level: int, dst_level: int):
    """Barycentric corner ids and weights of every dst vertex over the
    control mesh; pure geometry, cached per level pair."""
    key = (control_level, dst_level)
    cached = _densify_weights_cache.get(key)
    if cached is not None:
        return cached
    control = generate_icosphere(control_level)
    dst = generate_icosphere(dst_level)
    faces, lam = locate_faces(control, dst.vertices)
    weights = lam / lam.sum(axis=1, keepdims=True)
    corners = control.faces[faces]
    # dst vertices that are control vertices (the level prefix) interpolate
    # their own rotation vector exactly
    prefix = vertex_count(control_level)
    for v in range(min(prefix, dst.n_vertices)):
        slot = np.nonzero(corners[v] == v)[0]
        if len(slot):
            weights[v] = 0.0
            weights[v, slot[0]] = 1.0
    result = (corners, weights)
    _densify_weights_cache[key] = result
    return result


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
    gathered = ag.take_rows(rotvecs, corners.ravel())           # (N*3, 3)
    gathered = ag.reshape(gathered, (dst.n_vertices, 3, 3))
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
    Plain-array calls route through barycentric_resample and keep its
    exact-vertex snapping.
    """
    if not (ag.is_tensor(values) or ag.is_tensor(targets)):
        return barycentric_resample(values, src_mesh, targets)
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


def compose(first: DeformationField, second: DeformationField) -> DeformationField:
    """Field equivalent to applying ``first`` then ``second`` (pull-back)."""
    if first.mesh_level != second.mesh_level:
        raise ValueError(
            f"compose: field levels differ ({first.mesh_level} vs "
            f"{second.mesh_level})")
    mesh = generate_icosphere(first.mesh_level)
    targets = barycentric_resample(second.targets, mesh, first.targets)
    targets = ag.row_normalize(targets)
    return DeformationField(first.mesh_level, targets)


def invert_field(field: DeformationField, iterations: int = 300,
                 tol: float = 1e-12, damping: float = 0.5) -> DeformationField:
    """Fixed-point inverse: find u(v) with field(u(v)) = v.

    Damped iteration u <- u - damping * (field(u) - v) converges for smooth
    fields whose displacement gradients stay moderate; raises NumericError
    if the residual stays above 1e-6 (field too large or folded)."""
    mesh = generate_icosphere(field.mesh_level)
    v = mesh.vertices
    u = v.copy()
    residual = np.inf
    for _ in range(iterations):
        t_u = barycentric_resample(field.targets, mesh, u)
        t_u /= np.linalg.norm(t_u, axis=1, keepdims=True)
        delta = t_u - v
        residual = np.abs(delta).max()
        if residual < tol:
            break
        u = u - damping * delta
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    if residual > 1e-6:
        raise NumericError(
            f"invert_field did not converge (residual {residual:.3e}); "
            "field is too large or folded")
    return DeformationField(field.mesh_level, u)
