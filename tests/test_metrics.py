"""Similarity losses, smoothness regularizer, and triangle-distortion
metrics.

The distortion oracle is a polar cap stretched by a uniform factor s in
colatitude: near the pole the map is conformal with both principal
stretches close to s, so J -> s^2 and R -> 1 on triangles well inside
the cap.  Singular values are cross-checked against LAPACK's SVD.
"""

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import icosphere, metrics
from sphreg.icosphere import Icosphere, generate_icosphere
from sphreg.metrics import (DistortionReport, distortion_report, loss_reg,
                            loss_sim, mean_squared_difference, pearson_cc,
                            singular_values_2x2, smoothness_penalty)
from sphreg.sht import random_bandlimited
from sphreg.warp import DeformationField, densify_targets, identity_field

from mesh_arcs import one_ring


def random_signal(level: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = generate_icosphere(level).n_vertices
    return rng.standard_normal((n, 1))


# ---------------------------------------------------------------------------
# correlation and similarity loss
# ---------------------------------------------------------------------------

def test_pearson_identical_signals():
    signal = random_signal(1, 0)
    assert abs(float(pearson_cc(signal, signal)) - 1.0) < 1e-12


def test_pearson_negated_signal():
    signal = random_signal(1, 1)
    centered = signal - signal.mean()
    negated = -centered
    assert abs(float(pearson_cc(centered, negated)) + 1.0) < 1e-12


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((42, 1))
    b = rng.standard_normal((42, 1))
    expected = (np.sum((a - a.mean()) * (b - b.mean()))
                / np.sqrt(np.sum((a - a.mean()) ** 2)
                          * np.sum((b - b.mean()) ** 2)))
    produced = float(pearson_cc(a, b))
    assert abs(produced - expected) < 1e-12


def test_pearson_shift_and_scale_invariant():
    signal = random_signal(1, 3)
    rescaled = 2.5 * signal + 3.0
    assert abs(float(pearson_cc(signal, rescaled)) - 1.0) < 1e-12


def test_pearson_rejects_zero_variance():
    # the std of 42 copies of 0.1 reads 2.8e-17, not zero
    for value in (2.0, 0.1):
        flat = np.full((42, 1), value)
        with pytest.raises(ValueError, match="zero variance"):
            pearson_cc(flat, random_signal(1, 4))
        with pytest.raises(ValueError, match="second signal has zero variance"):
            pearson_cc(random_signal(1, 4), flat)


@pytest.mark.parametrize("n", [162, 642])
def test_pearson_rows_equal_single_calls_bitwise(n):
    # a (K, N) block scores each row as a lone (N, 1) call would, also
    # when the block arrives as the transpose of an (N, K) one
    rng = np.random.default_rng(n)
    fixed = rng.standard_normal((n, 1))
    block = rng.standard_normal((16 * n, 1)).reshape(16, n)
    single = [pearson_cc(fixed, row.reshape(n, 1).copy()) for row in block]
    for candidates in (block, np.asfortranarray(block), block.T.copy().T):
        ccs = pearson_cc(fixed, candidates)
        assert ccs.shape == (16,)
        assert ccs.tobytes() == np.array(single).tobytes()


def test_pearson_rows_reject_any_constant_row():
    rng = np.random.default_rng(3)
    fixed = rng.standard_normal((162, 1))
    block = rng.standard_normal((5, 162))
    block[3] = 0.1
    with pytest.raises(ValueError, match="second signal has zero variance "
                                         "in row 3"):
        pearson_cc(fixed, block)
    with pytest.raises(ValueError, match="first signal has zero variance$"):
        pearson_cc(np.full((162, 1), 0.1), rng.standard_normal((5, 162)))
    with pytest.raises(ValueError, match="share shape"):
        pearson_cc(fixed, rng.standard_normal((5, 161)))


def test_pearson_rejects_level_mismatch():
    # signals of two mesh levels differ in their row counts
    with pytest.raises(ValueError, match="share shape"):
        pearson_cc(random_signal(1, 5), random_signal(2, 5))
    with pytest.raises(ValueError, match="share shape"):
        mean_squared_difference(random_signal(1, 5), random_signal(2, 5))


def test_loss_sim_zero_for_equal_signals():
    signal = random_signal(2, 6)
    assert abs(float(loss_sim(signal, signal))) < 1e-12


def test_loss_sim_positive_for_different_signals():
    assert float(loss_sim(random_signal(1, 7), random_signal(1, 8))) > 0.0


def test_loss_sim_constant_shift_gives_squared_offset():
    signal = random_signal(1, 9)
    shifted = signal + 0.3
    assert abs(float(loss_sim(signal, shifted)) - 0.3 ** 2) < 1e-12


def test_mean_squared_difference_value():
    a = np.zeros((42, 1))
    b = np.full((42, 1), 2.0)
    assert float(mean_squared_difference(a, b)) == 4.0


def test_loss_sim_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    fixed = random_signal(1, 11)
    warped_values = rng.standard_normal((42, 1))
    leaf = ag.parameter(warped_values.copy())
    loss_sim(fixed, leaf).backward()
    grad = leaf.grad

    step = 1e-6
    for idx in rng.choice(42, size=20, replace=False):
        plus = warped_values.copy()
        plus[idx, 0] += step
        minus = warped_values.copy()
        minus[idx, 0] -= step
        fd = (float(loss_sim(fixed, plus))
              - float(loss_sim(fixed, minus))) / (2 * step)
        denom = max(abs(fd), 1e-8)
        assert abs(grad[idx, 0] - fd) / denom < 1e-5


# ---------------------------------------------------------------------------
# smoothness regularizer
# ---------------------------------------------------------------------------

def axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def test_loss_reg_zero_for_identity_fields():
    phi1 = identity_field(1)
    phi2 = identity_field(2)
    assert float(loss_reg((phi1.targets, 1), (phi2.targets, 2),
                          0.5, 0.5)) == 0.0


def test_loss_reg_zero_weights():
    mesh = generate_icosphere(1)
    rng = np.random.default_rng(12)
    targets = mesh.vertices + 0.1 * rng.standard_normal((42, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    assert float(loss_reg((targets, 1), (targets, 1), 0.0, 0.0)) == 0.0


def test_single_vertex_kick_raises_penalty_of_smooth_field():
    # the penalty sums one-ring variation over every vertex, so a global
    # rotation is compared against the same rotation with a spike added,
    # not against a lone spike of equal peak displacement
    mesh = generate_icosphere(1)
    R = axis_angle([0.0, 0.0, 1.0], 0.05)
    rotated = mesh.vertices @ R.T
    rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
    max_disp = np.max(np.linalg.norm(rotated - mesh.vertices, axis=1))

    kicked = rotated.copy()
    direction = np.cross(kicked[20], [0.0, 0.0, 1.0])
    direction /= np.linalg.norm(direction)
    kicked[20] = kicked[20] + 3.0 * max_disp * direction
    kicked[20] /= np.linalg.norm(kicked[20])

    smooth = float(smoothness_penalty(rotated, 1))
    spiky = float(smoothness_penalty(kicked, 1))
    assert 0.0 < smooth < spiky


def test_smoothness_penalty_shape_validation():
    with pytest.raises(ValueError, match="targets"):
        smoothness_penalty(np.zeros((10, 3)), 1)


# ---------------------------------------------------------------------------
# distortion report
# ---------------------------------------------------------------------------

def scaled_cap_field(level: int, s: float) -> DeformationField:
    """Stretch colatitude by s around the north pole, identity elsewhere."""
    mesh = generate_icosphere(level)
    v = mesh.vertices
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0])
    new_theta = np.where(theta < 0.5, np.minimum(theta * s, np.pi), theta)
    targets = np.stack([np.sin(new_theta) * np.cos(phi),
                        np.sin(new_theta) * np.sin(phi),
                        np.cos(new_theta)], axis=1)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return DeformationField(level, targets)


def test_identity_field_reports_zero_distortion():
    mesh = generate_icosphere(2)
    rep = distortion_report(mesh, identity_field(2))
    np.testing.assert_array_equal(rep.J, np.ones(mesh.n_faces))
    np.testing.assert_array_equal(rep.R, np.ones(mesh.n_faces))
    assert rep.fold_count == 0
    for stats in (rep.log2J, rep.log2R):
        assert all(value == 0.0 for value in stats.values())


def test_scaled_cap_distortion_matches_conformal_oracle():
    s = 1.15
    level = 3
    mesh = generate_icosphere(level)
    rep = distortion_report(mesh, scaled_cap_field(level, s))
    theta = np.arccos(np.clip(mesh.vertices[:, 2], -1.0, 1.0))
    inside = np.all(theta[mesh.faces] < 0.4, axis=1)
    assert inside.sum() > 20
    assert np.max(np.abs(rep.J[inside] - s ** 2)) < 2e-2
    assert np.max(np.abs(rep.R[inside] - 1.0)) < 2e-2


def test_singular_values_match_svd_oracle():
    rng = np.random.default_rng(13)
    F = rng.standard_normal((300, 2, 2))
    s1, s2 = singular_values_2x2(F)
    oracle = np.linalg.svd(F, compute_uv=False)
    assert np.max(np.abs(s1 - oracle[:, 0])) < 1e-9
    assert np.max(np.abs(s2 - oracle[:, 1])) < 1e-9


def random_field(level: int, seed: int, amplitude: float) -> DeformationField:
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(seed)
    targets = mesh.vertices + amplitude * rng.standard_normal(
        mesh.vertices.shape)
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return DeformationField(level, targets)


def test_distortion_invariant_under_global_rotation():
    mesh = generate_icosphere(2)
    field = random_field(2, 14, 0.02)
    R = axis_angle([0.4, 1.0, -0.3], 0.8)
    rotated = DeformationField(2, field.targets @ R.T
                               / np.linalg.norm(field.targets @ R.T,
                                                axis=1, keepdims=True))
    rep = distortion_report(mesh, field)
    rep_rot = distortion_report(mesh, rotated)
    np.testing.assert_allclose(rep_rot.J, rep.J, atol=1e-9)
    np.testing.assert_allclose(rep_rot.R, rep.R, atol=1e-9)


def test_shape_ratio_at_least_one():
    mesh = generate_icosphere(2)
    rep = distortion_report(mesh, random_field(2, 15, 0.05))
    assert np.min(rep.R) >= 1.0
    assert rep.log2R["mean"] >= 0.0


def test_percentiles_ordered():
    mesh = generate_icosphere(2)
    rep = distortion_report(mesh, random_field(2, 16, 0.05))
    for stats in (rep.log2J, rep.log2R):
        assert stats["p95"] <= stats["p98"] <= stats["max"]


def test_fold_detection():
    mesh = generate_icosphere(1)
    targets = mesh.vertices.copy()
    # swapping two adjacent vertices inverts the triangles between them
    a, b = one_ring(mesh)[0][0], 0
    targets[[a, b]] = targets[[b, a]]
    rep = distortion_report(mesh, DeformationField(1, targets))
    assert rep.fold_count > 0
    assert np.min(rep.J) <= 0.0


def test_distortion_level_mismatch_rejected():
    mesh = generate_icosphere(2)
    with pytest.raises(ValueError, match="level"):
        distortion_report(mesh, identity_field(3))


def test_report_row_is_flat_table():
    mesh = generate_icosphere(1)
    row = distortion_report(mesh, random_field(1, 17, 0.05)).row()
    assert row["folds"] == 0
    expected = {"folds"} | {f"{p}_{k}" for p in ("J", "R")
                            for k in ("mean", "std", "max", "p95", "p98")}
    assert set(row) == expected


# ---------------------------------------------------------------------------
# distortion against the uncached, reduction-based reference
# ---------------------------------------------------------------------------

def reference_tangent_frame(edge1, normal):
    t1 = edge1 - np.sum(edge1 * normal, axis=1, keepdims=True) * normal
    norms = np.linalg.norm(t1, axis=1, keepdims=True)
    bad = norms[:, 0] < 1e-14
    if bad.any():
        seed = np.tile([1.0, 0.0, 0.0], (int(bad.sum()), 1))
        seed[np.abs(normal[bad, 0]) > 0.9] = [0.0, 1.0, 0.0]
        fallback = seed - np.sum(seed * normal[bad], axis=1,
                                 keepdims=True) * normal[bad]
        t1[bad] = fallback
        norms[bad] = np.linalg.norm(fallback, axis=1, keepdims=True)
    t1 = t1 / norms
    return t1, np.cross(normal, t1)


def reference_edge_matrix(corners):
    centroid = corners.mean(axis=1)
    normal = centroid / np.linalg.norm(centroid, axis=1, keepdims=True)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    t1, t2 = reference_tangent_frame(e1, normal)
    mat = np.empty((len(corners), 2, 2))
    mat[:, 0, 0] = np.sum(e1 * t1, axis=1)
    mat[:, 1, 0] = np.sum(e1 * t2, axis=1)
    mat[:, 0, 1] = np.sum(e2 * t1, axis=1)
    mat[:, 1, 1] = np.sum(e2 * t2, axis=1)
    return mat


def reference_distortion(mesh, field):
    """``distortion_report`` as it was before its undeformed half was
    cached and its dot products written out."""
    corners = mesh.vertices[mesh.faces]
    deformed = field.targets[mesh.faces]
    before = reference_edge_matrix(corners)
    det_before = (before[:, 0, 0] * before[:, 1, 1]
                  - before[:, 0, 1] * before[:, 1, 0])
    J = np.ones(mesh.n_faces)
    R = np.ones(mesh.n_faces)
    moved = ~np.all(corners == deformed, axis=(1, 2))
    if np.any(moved):
        after = reference_edge_matrix(deformed[moved])
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
    with np.errstate(divide="ignore"):
        log2j = np.abs(np.log2(np.abs(J[J != 0])))
        finite_r = R[np.isfinite(R)]
        log2r = np.abs(np.log2(finite_r[finite_r > 0]))
    return DistortionReport(J=J, R=R, fold_count=int(np.sum(J <= 0)),
                            log2J=reference_stats(log2j),
                            log2R=reference_stats(log2r))


def reference_stats(values):
    if len(values) == 0:
        return {key: float("nan") for key in metrics._STAT_KEYS}
    return {"mean": float(values.mean()), "std": float(values.std()),
            "max": float(values.max()),
            "p95": float(np.percentile(values, 95)),
            "p98": float(np.percentile(values, 98))}


def distortion_fields(level):
    """Smooth, random, hard (corners snapped onto neighbours), folded and
    collapsed fields; the collapsed ones take the tangent-frame fallback."""
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(level)
    control = generate_icosphere(1).vertices
    shift = random_bandlimited(1, 2, 3, rng).values
    shift *= 0.3 / np.sqrt((shift ** 2).sum(axis=1).mean())
    moves = control + shift
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    yield "smooth", densify_targets(moves, 1, level)
    yield "random", random_field(level, 100 + level, 0.05).targets
    hard = mesh.vertices.copy()
    snapped = rng.choice(mesh.n_faces, size=mesh.n_faces // 10, replace=False)
    hard[mesh.faces[snapped, 1]] = mesh.vertices[mesh.faces[snapped, 0]]
    yield "hard", hard
    folded = mesh.vertices.copy()
    a, b = mesh.faces[0, :2]
    folded[[a, b]] = folded[[b, a]]
    yield "folded", folded
    collapsed = mesh.vertices.copy()
    for face in mesh.faces[:3]:
        collapsed[face] = mesh.vertices[face[0]]     # all corners on one point
    face = mesh.faces[-1]
    collapsed[face[1]] = mesh.vertices[face[0]]      # first edge zero
    yield "collapsed", collapsed


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_distortion_report_matches_reference_bitwise(level):
    mesh = generate_icosphere(level)
    metrics._undeformed.cache_clear()
    for name, targets in distortion_fields(level):
        field = DeformationField(level, targets)
        expected = reference_distortion(mesh, field)
        for call in ("cold", "cached"):
            rep = distortion_report(mesh, field)
            where = f"{name} field, {call} call"
            assert rep.J.tobytes() == expected.J.tobytes(), where
            assert rep.R.tobytes() == expected.R.tobytes(), where
            assert rep.fold_count == expected.fold_count, where
            assert repr(rep.row()) == repr(expected.row()), where
        if name in ("hard", "folded", "collapsed"):
            assert rep.fold_count > 0 or not np.all(np.isfinite(rep.R)), name
    assert metrics._undeformed.cache_info().misses == 1   # built once
    inverse = metrics._undeformed(mesh)
    assert inverse.shape == (mesh.n_faces, 2, 2)
    assert not inverse.flags.writeable


def test_distortion_report_of_another_mesh_at_a_cached_level():
    # a mesh built apart from generate_icosphere, at a level whose shared
    # mesh is cached, gets its own undeformed edge matrices
    shared = generate_icosphere(2)
    field = DeformationField(2, shared.vertices.copy())
    distortion_report(shared, field)
    moved = shared.vertices + 0.01 * np.random.default_rng(0).standard_normal(
        shared.vertices.shape)
    moved /= np.linalg.norm(moved, axis=1, keepdims=True)
    other = Icosphere(2, moved, shared.faces.copy())
    for mesh in (other, shared, other):
        rep = distortion_report(mesh, field)
        expected = reference_distortion(mesh, field)
        assert rep.J.tobytes() == expected.J.tobytes()
        assert rep.R.tobytes() == expected.R.tobytes()


def test_dot_products_keep_the_sign_of_zero_of_the_reduction():
    # np.sum adds onto +0.0, so three -0.0 products sum to +0.0; the rows
    # mix every sign of zero with random values
    rng = np.random.default_rng(5)
    zeros = np.array([-0.0, 0.0])
    signed = zeros[np.stack(np.meshgrid(*[[0, 1]] * 3)).reshape(3, -1).T]
    a = np.concatenate([signed, signed, [[1.5, -2.0, 0.25]],
                        rng.standard_normal((64, 3))])
    b = np.concatenate([signed, -signed[::-1], [[0.5, 3.0, -8.0]],
                        rng.standard_normal((64, 3))])
    b[-8:, 1] = -0.0
    assert icosphere._sum3(a).tobytes() == a.sum(axis=1).tobytes()
    assert (icosphere._dot3(a, b).tobytes()
            == np.sum(a * b, axis=1).tobytes())
    assert icosphere._norm3(b).tobytes() == np.linalg.norm(b, axis=1).tobytes()
    assert icosphere._cross3(a, b).tobytes() == np.cross(a, b).tobytes()
    corners = np.stack([a, b, a[::-1]], axis=1)          # (M, corner, xyz)
    assert ((icosphere._sum3(corners) / 3.0).tobytes()
            == corners.mean(axis=1).tobytes())
