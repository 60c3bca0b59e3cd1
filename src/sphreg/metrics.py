"""Similarity losses and triangle-distortion metrics.

Similarity combines (1 - Pearson correlation) with mean squared difference;
both terms are differentiable.  Smoothness penalizes one-ring displacement
variation of control-scale deformation fields.

Distortion is measured per triangle from the 2x2 deformation gradient F
between pre- and post-deformation edge vectors expressed in tangent-plane
coordinates: singular values s1 >= s2 give areal distortion J = det F
(signed; J <= 0 marks a fold) and shape anisotropy R = s1/s2.  Summary
statistics are reported for |log2 J| and |log2 R|.  The undeformed half
(edge matrices and their determinants) depends only on the mesh, so it is
built once per mesh object and kept, frozen; another mesh at the same
level gets its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .icosphere import Icosphere, SphericalSignal, generate_icosphere, vertex_count
from .warp import DeformationField

_STAT_KEYS = ("mean", "std", "max", "p95", "p98")


def _as_column(signal, name: str):
    if isinstance(signal, SphericalSignal):
        if signal.channels != 1:
            raise ValueError(f"{name} must be single-channel, "
                             f"got {signal.channels} channels")
        return signal.values
    return signal


def require_variance(values: np.ndarray, name: str, rows: bool = False):
    """Raise unless ``values`` (each row of it, if ``rows``) varies, so that
    its Pearson correlation is defined.  The test is exact: the std of a
    constant whose value is not representable, such as 0.1, reads a
    rounding error instead of zero."""
    axis = -1 if rows else None
    constant = values.min(axis=axis) == values.max(axis=axis)
    if np.any(constant):
        where = f" in row {int(np.argmax(constant))}" if rows else ""
        raise ValueError(f"Pearson correlation undefined: {name} signal "
                         f"has zero variance{where}")


def pearson_cc(a, b):
    """Pearson correlation across vertices (tensor-aware, scalar output).

    ``b`` may instead hold K candidates as the rows of a (K, N) array,
    scored against an (N, 1) ``a``; the result is then the K correlations.
    Each row's reductions run over its N contiguous values, so every
    candidate gets the bits of a lone call."""
    if isinstance(a, SphericalSignal) and isinstance(b, SphericalSignal):
        if a.level != b.level:
            raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    av, bv = _as_column(a, "a"), _as_column(b, "b")
    a_shape, b_shape = ag.value_of(av).shape, ag.value_of(bv).shape
    rows = (isinstance(bv, np.ndarray) and bv.ndim == 2
            and a_shape == (b_shape[1], 1))
    if a_shape != b_shape and not rows:
        raise ValueError("signals must share shape")
    kw = {}
    if rows:
        kw = {"axis": -1, "keepdims": True}
        av = ag.value_of(av).reshape(1, -1)
        bv = np.ascontiguousarray(bv)
    require_variance(ag.value_of(av), "first")
    require_variance(ag.value_of(bv), "second", rows=rows)
    ca = ag.sub(av, ag.reduce_mean(av, **kw))
    cb = ag.sub(bv, ag.reduce_mean(bv, **kw))
    num = ag.reduce_sum(ag.mul(ca, cb), **kw)
    denom = ag.sqrt(ag.mul(ag.reduce_sum(ag.square(ca), **kw),
                           ag.reduce_sum(ag.square(cb), **kw)))
    cc = ag.div(num, denom)
    return cc[:, 0] if rows else cc


def mean_squared_difference(a, b):
    """Mean squared pointwise difference (tensor-aware)."""
    av, bv = _as_column(a, "a"), _as_column(b, "b")
    if ag.value_of(av).shape != ag.value_of(bv).shape:
        raise ValueError("signals must share shape")
    return ag.reduce_mean(ag.square(ag.sub(av, bv)))


def loss_sim(fixed, warped):
    """(1 - Pearson) + MSE; zero iff warped matches fixed pointwise."""
    return ag.add(ag.sub(1.0, pearson_cc(fixed, warped)),
                  mean_squared_difference(fixed, warped))


def smoothness_penalty(targets, mesh_level: int):
    """Sum over vertices and components of the mean absolute one-ring
    difference of the displacement field (tensor-aware)."""
    mesh = generate_icosphere(mesh_level)
    value = ag.value_of(targets)
    if value.shape != (mesh.n_vertices, 3):
        raise ValueError(
            f"targets must be ({mesh.n_vertices}, 3) at level {mesh_level}, "
            f"got {value.shape}")
    disp = ag.sub(targets, mesh.vertices)
    dst, src = mesh.scatter_plan("ring_dst"), mesh.scatter_plan("ring_src")
    degree = np.diff(mesh.ring_offsets).astype(np.float64)
    diffs = ag.absolute(ag.sub(ag.take_rows(disp, dst), ag.take_rows(disp, src)))
    scaled = ag.mul(diffs, (1.0 / degree[mesh.ring_dst])[:, None])
    return ag.reduce_sum(scaled)


def _field_parts(field):
    if isinstance(field, DeformationField):
        return field.targets, field.mesh_level
    return field


def loss_reg(field1, field2, lam1: float, lam2: float):
    """0.5 * (lam1 * g(field1) + lam2 * g(field2)) over control-scale fields.

    Each field is a DeformationField or a (targets, mesh_level) pair so the
    training graph can pass tensors.
    """
    if lam1 < 0 or lam2 < 0:
        raise ValueError("regularization weights must be nonnegative")
    t1, l1 = _field_parts(field1)
    t2, l2 = _field_parts(field2)
    g1 = smoothness_penalty(t1, l1)
    g2 = smoothness_penalty(t2, l2)
    return ag.mul(0.5, ag.add(ag.mul(lam1, g1), ag.mul(lam2, g2)))


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

@dataclass
class DistortionReport:
    """Per-triangle areal (J) and shape (R) distortion with |log2| statistics."""

    J: np.ndarray
    R: np.ndarray
    fold_count: int
    log2J: dict
    log2R: dict

    def row(self) -> dict:
        """Flat metric -> value mapping for table output."""
        out = {"folds": self.fold_count}
        for prefix, stats in (("J", self.log2J), ("R", self.log2R)):
            for key in _STAT_KEYS:
                out[f"{prefix}_{key}"] = stats[key]
        return out


def _stats(values: np.ndarray) -> dict:
    if len(values) == 0:
        return {key: float("nan") for key in _STAT_KEYS}
    return {
        "mean": float(values.mean()),
        "std": float(values.std()),
        "max": float(values.max()),
        "p95": float(np.percentile(values, 95)),
        "p98": float(np.percentile(values, 98)),
    }


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (M, 3) arrays, with the bits of
    ``np.sum(a * b, axis=1)``: that sum adds the three products in order
    onto +0.0, and the trailing ``+ 0.0`` turns a -0.0 result into +0.0
    as that start does.  About 4x faster than the reduction."""
    p = a * b
    return ((p[:, 0] + p[:, 1]) + p[:, 2]) + 0.0


def _norm3(a: np.ndarray) -> np.ndarray:
    """Row norms of an (M, 3) array, bitwise ``np.linalg.norm(a, axis=1)``
    (squares are never -0.0, so no +0.0 is needed)."""
    p = a * a
    return np.sqrt((p[:, 0] + p[:, 1]) + p[:, 2])


def _tangent_frame(edge1: np.ndarray, normal: np.ndarray):
    t1 = edge1 - _dot3(edge1, normal)[:, None] * normal
    norms = _norm3(t1)[:, None]
    # Collapsed triangles (hard label moves can land corners on one point)
    # have no preferred tangent; any orthonormal frame gives the same
    # singular values, so fall back to a seed vector not parallel to normal.
    bad = norms[:, 0] < 1e-14
    if bad.any():
        seed = np.tile([1.0, 0.0, 0.0], (int(bad.sum()), 1))
        seed[np.abs(normal[bad, 0]) > 0.9] = [0.0, 1.0, 0.0]
        fallback = seed - _dot3(seed, normal[bad])[:, None] * normal[bad]
        t1[bad] = fallback
        norms[bad] = _norm3(fallback)[:, None]
    t1 = t1 / norms
    t2 = np.cross(normal, t1)
    return t1, t2


def _edge_matrix(corners: np.ndarray):
    """2x2 edge matrices in per-triangle tangent frames; right-handed with
    respect to the outward (centroid) direction, so folds flip det sign."""
    centroid = corners.mean(axis=1)
    normal = centroid / _norm3(centroid)[:, None]
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    t1, t2 = _tangent_frame(e1, normal)
    mat = np.empty((len(corners), 2, 2))
    mat[:, 0, 0] = _dot3(e1, t1)
    mat[:, 1, 0] = _dot3(e1, t2)
    mat[:, 0, 1] = _dot3(e2, t1)
    mat[:, 1, 1] = _dot3(e2, t2)
    return mat


def singular_values_2x2(F: np.ndarray):
    """Closed-form singular values s1 >= s2 >= 0 of a stack of 2x2 matrices."""
    e = (F[:, 0, 0] + F[:, 1, 1]) / 2.0
    h = (F[:, 0, 0] - F[:, 1, 1]) / 2.0
    f = (F[:, 1, 0] + F[:, 0, 1]) / 2.0
    g = (F[:, 1, 0] - F[:, 0, 1]) / 2.0
    q = np.sqrt(e * e + g * g)
    r = np.sqrt(h * h + f * f)
    return q + r, np.abs(q - r)


@cache
def _undeformed(mesh: Icosphere):
    """The mesh's edge matrices and their determinants, built once per
    mesh and frozen; a degenerate triangle raises."""
    before = _edge_matrix(mesh.vertices[mesh.faces])
    det_before = (before[:, 0, 0] * before[:, 1, 1]
                  - before[:, 0, 1] * before[:, 1, 0])
    degenerate = np.abs(det_before) < 1e-12
    if np.any(degenerate):
        raise ValueError(
            f"degenerate source triangle {int(np.argmax(degenerate))}")
    before.setflags(write=False)
    det_before.setflags(write=False)
    return before, det_before


def distortion_report(mesh: Icosphere, field: DeformationField) -> DistortionReport:
    """Per-triangle J and R between the mesh and its deformed image."""
    if field.mesh_level != mesh.level:
        raise ValueError(
            f"field level {field.mesh_level} does not match mesh level "
            f"{mesh.level}")
    before, det_before = _undeformed(mesh)
    J = np.ones(mesh.n_faces)
    R = np.ones(mesh.n_faces)
    # triangles whose corners did not move keep J = R = 1 exactly
    still = np.all(field.targets == mesh.vertices, axis=1)
    moved = ~np.all(still[mesh.faces], axis=1)
    if np.any(moved):
        deformed = np.take(field.targets, mesh.faces[moved], axis=0)
        after = _edge_matrix(deformed)
        b = before[moved]
        inv = np.empty_like(b)
        inv[:, 0, 0] = b[:, 1, 1]
        inv[:, 1, 1] = b[:, 0, 0]
        inv[:, 0, 1] = -b[:, 0, 1]
        inv[:, 1, 0] = -b[:, 1, 0]
        inv /= det_before[moved][:, None, None]
        F = after @ inv
        s1, s2 = singular_values_2x2(F)
        J[moved] = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        with np.errstate(divide="ignore"):
            R[moved] = np.where(s2 > 0, s1 / np.where(s2 > 0, s2, 1.0), np.inf)

    folds = int(np.sum(J <= 0))
    with np.errstate(divide="ignore"):
        log2j = np.abs(np.log2(np.abs(J[J != 0])))
        finite_r = R[np.isfinite(R)]
        log2r = np.abs(np.log2(finite_r[finite_r > 0]))
    return DistortionReport(J=J, R=R, fold_count=folds,
                            log2J=_stats(log2j), log2R=_stats(log2r))
