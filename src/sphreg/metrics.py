"""Similarity losses and triangle-distortion metrics.

Similarity combines (1 - Pearson correlation) with mean squared difference;
both terms are differentiable.  Smoothness penalizes one-ring displacement
variation of control-scale deformation fields.

Distortion is measured per triangle from the 2x2 deformation gradient F
between pre- and post-deformation edge vectors expressed in tangent-plane
coordinates: singular values s1 >= s2 give areal distortion J = det F
(signed; J <= 0 marks a fold) and shape anisotropy R = s1/s2.  Summary
statistics are reported for |log2 J| and |log2 R|.  The undeformed half
(the inverses of the edge matrices) depends only on the mesh, so it is
built once per mesh object and kept, frozen; another mesh at the same
level gets its own.  Sums, dot products, norms and cross products of
length-3 rows are ``icosphere``'s column arithmetic, bitwise NumPy's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .icosphere import (Icosphere, _cross3, _dot3, _norm3, _sum3,
                        generate_icosphere)
from .warp import DeformationField

_STAT_KEYS = ("mean", "std", "max", "p95", "p98")


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
    a_shape, b_shape = ag.value_of(a).shape, ag.value_of(b).shape
    rows = (isinstance(b, np.ndarray) and b.ndim == 2
            and a_shape == (b_shape[1], 1))
    if a_shape != b_shape and not rows:
        raise ValueError("signals must share shape")
    kw = {}
    if rows:
        kw = {"axis": -1, "keepdims": True}
        a = ag.value_of(a).reshape(1, -1)
        b = np.ascontiguousarray(b)
    require_variance(ag.value_of(a), "first")
    require_variance(ag.value_of(b), "second", rows=rows)
    ca = ag.sub(a, ag.reduce_mean(a, **kw))
    cb = ag.sub(b, ag.reduce_mean(b, **kw))
    num = ag.reduce_sum(ag.mul(ca, cb), **kw)
    denom = ag.sqrt(ag.mul(ag.reduce_sum(ag.square(ca), **kw),
                           ag.reduce_sum(ag.square(cb), **kw)))
    cc = ag.div(num, denom)
    return cc[:, 0] if rows else cc


def mean_squared_difference(a, b):
    """Mean squared pointwise difference (tensor-aware)."""
    if ag.value_of(a).shape != ag.value_of(b).shape:
        raise ValueError("signals must share shape")
    return ag.reduce_mean(ag.square(ag.sub(a, b)))


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
    degree = np.diff(mesh.ring_offsets).astype(np.float64)
    diffs = ag.absolute(ag.sub(ag.take_rows(disp, mesh.ring_dst),
                               ag.take_rows(disp, mesh.ring_src)))
    scaled = ag.mul(diffs, (1.0 / degree[mesh.ring_dst])[:, None])
    return ag.reduce_sum(scaled)


def loss_reg(field1, field2, lam1: float, lam2: float):
    """0.5 * (lam1 * g(field1) + lam2 * g(field2)) over control-scale fields,
    each a (targets, mesh_level) pair whose targets may be a tensor."""
    g1 = smoothness_penalty(*field1)
    g2 = smoothness_penalty(*field2)
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
    p95, p98 = np.percentile(values, [95, 98])
    return {"mean": float(values.mean()), "std": float(values.std()),
            "max": float(values.max()), "p95": float(p95), "p98": float(p98)}


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
    return t1, _cross3(normal, t1)


def _edge_matrix(corners: np.ndarray):
    """2x2 edge matrices in per-triangle tangent frames; right-handed with
    respect to the outward (centroid) direction, so folds flip det sign."""
    centroid = _sum3(corners) / 3.0          # bitwise corners.mean(axis=1)
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
    """The inverses of the mesh's edge matrices, (F, 2, 2): each adjugate
    entry divided by the determinant.  Built once per mesh and frozen; a
    degenerate triangle raises."""
    before = _edge_matrix(mesh.vertices[mesh.faces])
    det_before = (before[:, 0, 0] * before[:, 1, 1]
                  - before[:, 0, 1] * before[:, 1, 0])
    degenerate = np.abs(det_before) < 1e-12
    if np.any(degenerate):
        raise ValueError(
            f"degenerate source triangle {int(np.argmax(degenerate))}")
    adjugate = np.stack([before[:, 1, 1], -before[:, 0, 1],
                         -before[:, 1, 0], before[:, 0, 0]], axis=1)
    inverse = (adjugate / det_before[:, None]).reshape(-1, 2, 2)
    inverse.setflags(write=False)
    return inverse


def _jacobians(mesh: Icosphere, field: DeformationField):
    """Per triangle J (exactly 1 where no corner moved), which triangles
    moved, and their deformation gradients F."""
    if field.mesh_level != mesh.level:
        raise ValueError(
            f"field level {field.mesh_level} does not match mesh level "
            f"{mesh.level}")
    same = field.targets == mesh.vertices
    still = np.take(same[:, 0] & same[:, 1] & same[:, 2], mesh.faces)
    moved = ~(still[:, 0] & still[:, 1] & still[:, 2])
    deformed = np.take(field.targets, mesh.faces[moved], axis=0)
    F = _edge_matrix(deformed) @ _undeformed(mesh)[moved]
    J = np.ones(mesh.n_faces)
    J[moved] = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
    return J, moved, F


def fold_count(mesh: Icosphere, field: DeformationField) -> int:
    """The triangles with J <= 0, as ``distortion_report`` counts them."""
    return int(np.sum(_jacobians(mesh, field)[0] <= 0))


def distortion_report(mesh: Icosphere, field: DeformationField) -> DistortionReport:
    """Per-triangle J and R between the mesh and its deformed image."""
    J, moved, F = _jacobians(mesh, field)
    R = np.ones(mesh.n_faces)
    s1, s2 = singular_values_2x2(F)
    with np.errstate(divide="ignore"):
        R[moved] = np.where(s2 > 0, s1 / np.where(s2 > 0, s2, 1.0), np.inf)

    folds = int(np.sum(J <= 0))
    with np.errstate(divide="ignore"):
        log2j = np.abs(np.log2(np.abs(J[J != 0])))
        finite_r = R[np.isfinite(R)]
        log2r = np.abs(np.log2(finite_r[finite_r > 0]))
    return DistortionReport(J=J, R=R, fold_count=folds,
                            log2J=_stats(log2j), log2R=_stats(log2r))
