"""Deformation fields: densification, pull-back warping, composition,
inversion.

Rotation fields double as oracles throughout: applying a known rotation
matrix to the vertices gives an exact reference both for warped signal
values and for composed target maps.  Densification interpolates the
minimal rotation lift of each control move, and that lift varies across
control points even under a shared global rotation, so rotation
reproduction carries an O(angle * edge^2) interpolation error; the tests
pin that scaling instead of assuming exactness.
"""

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import warp
from sphreg.icosphere import (SphericalSignal, barycentric_resample,
                              generate_icosphere, locate_faces, vertex_count)
from sphreg.errors import NumericError
from sphreg.training import TrainConfig, synth_dataset
from sphreg.warp import (DeformationField, apply_rotation_vectors, compose,
                         densify_targets, identity_field, invert_field,
                         minimal_rotation_vectors, warp_signal)


def axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def rotation_field(level: int, R: np.ndarray) -> DeformationField:
    vertices = generate_icosphere(level).vertices
    targets = vertices @ R.T
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return DeformationField(level, targets)


# ---------------------------------------------------------------------------
# field type
# ---------------------------------------------------------------------------

def test_identity_field_is_exact():
    mesh = generate_icosphere(2)
    field = identity_field(2)
    np.testing.assert_array_equal(field.targets, mesh.vertices)


def test_field_validation():
    with pytest.raises(ValueError, match="shape"):
        DeformationField(1, np.zeros((10, 3)))
    bad = generate_icosphere(1).vertices * 1.5
    with pytest.raises(ValueError, match="norm"):
        DeformationField(1, bad)
    nan = generate_icosphere(1).vertices.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DeformationField(1, nan)


# ---------------------------------------------------------------------------
# rotation-vector helpers
# ---------------------------------------------------------------------------

def test_minimal_rotation_of_fixed_points_is_zero():
    points = generate_icosphere(1).vertices
    rotvecs = minimal_rotation_vectors(points, points)
    np.testing.assert_array_equal(rotvecs, np.zeros_like(points))


def test_minimal_rotation_carries_origin_to_target():
    rng = np.random.default_rng(0)
    origins = rng.standard_normal((40, 3))
    origins /= np.linalg.norm(origins, axis=1, keepdims=True)
    targets = origins + 0.4 * rng.standard_normal((40, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    rotvecs = np.asarray(minimal_rotation_vectors(origins, targets))
    moved = np.asarray(apply_rotation_vectors(rotvecs, origins))
    assert np.max(np.linalg.norm(moved - targets, axis=1)) < 1e-12


def _targets_at_cosines(cosines):
    """Origins at the north pole and unit targets d with p . d = cosines."""
    angles = np.arccos(cosines)
    origins = np.tile([0.0, 0.0, 1.0], (len(cosines), 1))
    targets = np.stack([np.sin(angles), np.zeros_like(angles), cosines],
                       axis=1)
    return origins, targets, angles


def test_minimal_rotation_matches_definition():
    c = np.array([-0.9, -0.2, 0.0, 0.3, 0.999])
    expected = np.arccos(c) / np.sqrt(1 - c * c)
    np.testing.assert_allclose(warp._arc_over_sin(c), expected, rtol=1e-10)
    origins, targets, angles = _targets_at_cosines(c)
    rotvecs = minimal_rotation_vectors(origins, targets)
    np.testing.assert_allclose(rotvecs[:, 1], angles, rtol=1e-10)
    assert np.all(rotvecs[:, [0, 2]] == 0.0)
    # the series branch: the limit c -> 1 is 1, and a rotation of about
    # 1.4e-7 rad keeps its length
    near = warp._arc_over_sin(np.array([1 - 1e-14]))
    np.testing.assert_allclose(near, 1.0, atol=1e-6)
    origins, targets, angles = _targets_at_cosines(np.array([1 - 1e-14]))
    np.testing.assert_allclose(
        minimal_rotation_vectors(origins, targets)[:, 1], angles, rtol=1e-6)


def test_minimal_rotation_gradient_matches_finite_differences():
    origins, targets, _ = _targets_at_cosines(np.array([-0.5, 0.0, 0.4, 0.9]))
    weights = np.random.default_rng(3).standard_normal(targets.shape)

    def loss(d):
        return float(np.sum(minimal_rotation_vectors(origins, d) * weights))

    tensor = ag.Tensor(targets.copy())
    ag.reduce_sum(ag.mul(minimal_rotation_vectors(origins, tensor),
                         weights)).backward()
    step = 1e-7
    numeric = np.zeros_like(targets)
    for index in np.ndindex(targets.shape):
        plus, minus = targets.copy(), targets.copy()
        plus[index] += step
        minus[index] -= step
        numeric[index] = (loss(plus) - loss(minus)) / (2 * step)
    err = np.abs(tensor.grad - numeric) / np.maximum(np.abs(numeric), 1e-3)
    assert err.max() < 2e-5


def test_minimal_rotation_records_one_node(tape_counter):
    origins = generate_icosphere(1).vertices
    targets = ag.Tensor(origins.copy())
    tape_counter["nodes"] = 0
    out = minimal_rotation_vectors(origins, targets)
    assert tape_counter["nodes"] == 1
    assert out.parents == (targets,)


def _chain_arc_over_sin(c):
    value = ag.value_of(c)
    out = warp._arc_over_sin(value)

    def backward(g):
        ag.accumulate(c, g * warp._arc_over_sin_deriv(value, out))

    return ag.record(out, (c,), backward)


def chain_minimal_rotation_vectors(origins, targets):
    """The composite chain that the node replaces, as the bitwise oracle."""
    cos = ag.reduce_sum(ag.mul(origins, targets), axis=1, keepdims=True)
    return ag.mul(ag.cross(origins, targets), _chain_arc_over_sin(cos))


@pytest.mark.parametrize("order", [1, -1])
@pytest.mark.parametrize("amplitude", [0.0, 1e-9, 0.05, 0.2])
def test_minimal_rotation_node_matches_composite_chain_bitwise(amplitude,
                                                               order):
    # the targets feed a second consumer as well, as the control targets
    # feed the smoothness penalty in training, and ``order`` decides whose
    # gradient reaches them first; zero moves give zero gradients, where
    # only the sign of zero can differ
    rng = np.random.default_rng(17)
    origins = generate_icosphere(1).vertices
    moves = origins + amplitude * rng.standard_normal(origins.shape)
    moves[::7] = origins[::7]
    weights = rng.standard_normal((2,) + origins.shape)
    results = []
    for rotation in (minimal_rotation_vectors, chain_minimal_rotation_vectors):
        leaf = ag.Tensor(moves.copy())
        targets = ag.row_normalize(leaf)
        rotvecs = rotation(origins, targets)
        terms = [ag.reduce_sum(ag.mul(rotvecs, weights[0])),
                 ag.reduce_sum(ag.mul(ag.square(targets), weights[1]))]
        ag.add(*terms[::order]).backward()
        plain = rotation(origins, ag.value_of(targets))
        assert plain.tobytes() == rotvecs.value.tobytes()
        results.append((rotvecs.value.tobytes(), leaf.grad.tobytes()))
    assert results[0] == results[1]


def test_apply_rotation_vectors_matches_rodrigues_oracle():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((25, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    rotvecs = 0.7 * rng.standard_normal((25, 3))
    produced = np.asarray(apply_rotation_vectors(rotvecs, points))
    for i in range(25):
        angle = np.linalg.norm(rotvecs[i])
        R = axis_angle(rotvecs[i], angle) if angle > 0 else np.eye(3)
        np.testing.assert_allclose(produced[i], R @ points[i], atol=1e-12)


def test_zero_rotation_passes_points_through_bitwise():
    points = generate_icosphere(2).vertices
    moved = np.asarray(apply_rotation_vectors(np.zeros_like(points), points))
    np.testing.assert_array_equal(moved, points)


# ---------------------------------------------------------------------------
# densification
# ---------------------------------------------------------------------------

def test_densify_identity_controls_is_identity():
    control = generate_icosphere(1)
    field = DeformationField(3, densify_targets(control.vertices, 1, 3))
    np.testing.assert_array_equal(field.targets,
                                  generate_icosphere(3).vertices)


def test_densify_targets_are_unit():
    rng = np.random.default_rng(2)
    control = generate_icosphere(1)
    moves = control.vertices + 0.2 * rng.standard_normal((42, 3))
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    field = DeformationField(3, densify_targets(moves, 1, 3))
    np.testing.assert_allclose(np.linalg.norm(field.targets, axis=1), 1.0,
                               atol=1e-9)


def test_densify_interpolates_controls_exactly():
    # control vertices are a prefix of the fine mesh and own their rotation
    rng = np.random.default_rng(3)
    control = generate_icosphere(1)
    moves = control.vertices + 0.15 * rng.standard_normal((42, 3))
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    field = DeformationField(3, densify_targets(moves, 1, 3))
    assert np.max(np.linalg.norm(field.targets[:42] - moves, axis=1)) < 1e-12


@pytest.mark.parametrize("control_level,dst_level",
                         [(c, d) for d in range(5) for c in range(d + 1)])
def test_densify_weights_match_prefix_loop(control_level, dst_level):
    # the one-hot rows of the control prefix against the per-vertex loop
    corners, weights = warp._densify_weights(control_level, dst_level)
    faces, lam = locate_faces(generate_icosphere(control_level),
                              generate_icosphere(dst_level).vertices)
    expected = lam / lam.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(corners,
                                  generate_icosphere(control_level).faces[faces])
    for v in range(vertex_count(control_level)):
        slot = np.nonzero(corners[v] == v)[0]
        if len(slot):
            expected[v] = 0.0
            expected[v, slot[0]] = 1.0
    np.testing.assert_array_equal(weights, expected)


def test_densify_weights_are_frozen():
    # one cached array serves every caller; the write stores the same values
    _, weights = warp._densify_weights(1, 3)
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = weights[0]


def test_densify_common_rotation_error_scales_with_angle():
    fine = generate_icosphere(3)
    control = generate_icosphere(1)
    errors = []
    for angle in (0.1, 0.01):
        R = axis_angle([1.0, 2.0, 0.5], angle)
        field = DeformationField(3, densify_targets(control.vertices @ R.T, 1, 3))
        errors.append(np.max(np.linalg.norm(
            field.targets - fine.vertices @ R.T, axis=1)))
    assert 8.0 < errors[0] / errors[1] < 12.0     # linear in the angle
    assert errors[1] < 1e-3


def test_densify_common_rotation_error_scales_with_control_spacing():
    fine = generate_icosphere(4)
    R = axis_angle([1.0, 2.0, 0.5], 0.1)
    errors = []
    for control_level in (1, 2, 3):
        control = generate_icosphere(control_level)
        field = DeformationField(4, densify_targets(control.vertices @ R.T,
                                                    control_level, 4))
        errors.append(np.max(np.linalg.norm(
            field.targets - fine.vertices @ R.T, axis=1)))
    # quadratic in the control edge length: one level quarters the error
    assert 3.0 < errors[0] / errors[1] < 5.0
    assert 3.0 < errors[1] / errors[2] < 5.0


def test_densify_reproduces_small_common_rotation():
    fine = generate_icosphere(4)
    control = generate_icosphere(3)
    R = axis_angle([0.3, -1.0, 0.8], 1e-4)
    field = DeformationField(4, densify_targets(control.vertices @ R.T, 3, 4))
    err = np.max(np.linalg.norm(field.targets - fine.vertices @ R.T, axis=1))
    assert err < 1e-6


def test_densify_single_control_perturbation_is_local():
    control = generate_icosphere(1)
    fine = generate_icosphere(3)
    moves = control.vertices.copy()
    moves[17] = moves[17] + np.array([0.05, -0.03, 0.02])
    moves[17] /= np.linalg.norm(moves[17])
    field = DeformationField(3, densify_targets(moves, 1, 3))
    # faces not touching control 17 interpolate zero rotation vectors
    corners_near = {17}
    support = np.array([any(c in corners_near for c in face)
                        for face in control.faces])
    from sphreg.icosphere import locate_faces
    faces, _ = locate_faces(control, fine.vertices)
    far = ~support[faces]
    np.testing.assert_array_equal(field.targets[far], fine.vertices[far])


def test_densify_validation():
    control = generate_icosphere(1)
    with pytest.raises(ValueError, match="control targets"):
        DeformationField(3, densify_targets(control.vertices[:10], 1, 3))
    with pytest.raises(ValueError, match="dst level"):
        DeformationField(0, densify_targets(control.vertices, 1, 0))


# ---------------------------------------------------------------------------
# warping
# ---------------------------------------------------------------------------

def test_warp_identity_is_exact():
    rng = np.random.default_rng(4)
    signal = SphericalSignal(2, rng.standard_normal((162, 2)))
    warped = warp_signal(signal, identity_field(2))
    np.testing.assert_array_equal(warped.values, signal.values)


def test_warp_constant_signal_stays_constant():
    signal = SphericalSignal(2, np.full((162, 1), 3.25))
    R = axis_angle([0.0, 1.0, 0.3], 0.5)
    warped = warp_signal(signal, rotation_field(2, R))
    np.testing.assert_allclose(warped.values, 3.25, atol=1e-12)


def test_warp_rotation_matches_analytic_oracle():
    level = 3
    mesh = generate_icosphere(level)
    signal = SphericalSignal(level, mesh.vertices[:, 2:3].copy())
    R = axis_angle([1.0, 0.5, -0.2], 0.4)
    warped = warp_signal(signal, rotation_field(level, R))
    expected = (mesh.vertices @ R.T)[:, 2:3]
    assert np.max(np.abs(warped.values - expected)) < 5e-3


def test_warp_level_mismatch_rejected():
    signal = SphericalSignal(2, np.zeros((162, 1)))
    with pytest.raises(ValueError, match="level"):
        warp_signal(signal, identity_field(3))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_identity_laws():
    rng = np.random.default_rng(5)
    control = generate_icosphere(1)
    moves = control.vertices + 0.1 * rng.standard_normal((42, 3))
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    phi = DeformationField(2, densify_targets(moves, 1, 2))
    identity = identity_field(2)
    left = compose(identity, phi)
    right = compose(phi, identity)
    assert np.max(np.abs(left.targets - phi.targets)) < 1e-9
    assert np.max(np.abs(right.targets - phi.targets)) < 1e-9


def test_compose_rotations_matches_matrix_product():
    level = 3
    R1 = axis_angle([1.0, 0.0, 0.2], 0.3)
    R2 = axis_angle([0.1, -1.0, 0.5], 0.45)
    composed = compose(rotation_field(level, R1), rotation_field(level, R2))
    oracle = rotation_field(level, R2 @ R1)
    assert np.max(np.linalg.norm(composed.targets - oracle.targets,
                                 axis=1)) < 5e-3


def test_compose_targets_unit_norm():
    rng = np.random.default_rng(6)
    fields = []
    for seed in (0, 1):
        control = generate_icosphere(1)
        moves = control.vertices + 0.2 * rng.standard_normal((42, 3))
        moves /= np.linalg.norm(moves, axis=1, keepdims=True)
        fields.append(DeformationField(3, densify_targets(moves, 1, 3)))
    composed = compose(fields[0], fields[1])
    np.testing.assert_allclose(np.linalg.norm(composed.targets, axis=1), 1.0,
                               atol=1e-12)


def test_compose_level_mismatch_rejected():
    with pytest.raises(ValueError, match="levels differ"):
        compose(identity_field(2), identity_field(3))


def test_pullback_associativity():
    # tolerance is interpolation-limited: error grows with signal curvature
    # and deformation amplitude, so both are kept at working scale
    level = 4
    rng = np.random.default_rng(7)
    mesh = generate_icosphere(level)
    signal = SphericalSignal(level, np.cos(2 * mesh.vertices[:, :1])
                             + 0.5 * np.sin(2 * mesh.vertices[:, 1:2]))
    fields = []
    for _ in range(2):
        control = generate_icosphere(1)
        moves = control.vertices + 0.1 * rng.standard_normal((42, 3))
        moves /= np.linalg.norm(moves, axis=1, keepdims=True)
        fields.append(DeformationField(level, densify_targets(moves, 1, level)))
    a, b = fields
    fused = warp_signal(signal, compose(a, b))
    stepped = warp_signal(warp_signal(signal, b), a)
    assert np.max(np.abs(fused.values - stepped.values)) < 1e-2


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_field_reaches_fixed_point():
    rng = np.random.default_rng(8)
    control = generate_icosphere(1)
    moves = control.vertices + 0.1 * rng.standard_normal((42, 3))
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    field = DeformationField(3, densify_targets(moves, 1, 3))
    inverse = invert_field(field)
    mesh = generate_icosphere(3)
    roundtrip = barycentric_resample(field.targets, mesh, inverse.targets)
    roundtrip /= np.linalg.norm(roundtrip, axis=1, keepdims=True)
    assert np.max(np.abs(roundtrip - mesh.vertices)) < 1e-6


def test_invert_identity_is_identity():
    inverse = invert_field(identity_field(2))
    np.testing.assert_allclose(inverse.targets,
                               generate_icosphere(2).vertices, atol=1e-12)


def test_invert_rejects_extreme_field():
    # antipodal map is orientation-reversing, so every triangle folds and
    # there is no inverse to return
    field = DeformationField(2, -generate_icosphere(2).vertices)
    with pytest.raises(NumericError):
        invert_field(field)


def test_invert_seed2_pair17_is_exact():
    # a fold-free synthetic truth on which a damped fixed-point iteration
    # stalled at residual 0.29
    truth = synth_dataset(18, TrainConfig(seed=2), seed=2)[17].ground_truth
    inverse = invert_field(truth)
    mesh = generate_icosphere(truth.mesh_level)
    roundtrip = barycentric_resample(truth.targets, mesh, inverse.targets)
    roundtrip /= np.linalg.norm(roundtrip, axis=1, keepdims=True)
    assert np.max(np.abs(roundtrip - mesh.vertices)) <= 1e-12
