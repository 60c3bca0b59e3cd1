"""Control grids, label sets, the scoring U-Net, and deformation decoding."""

import numpy as np
import pytest

import sphreg.autodiff as ag
from sphreg import discrete_reg
from sphreg.discrete_reg import (ControlGrid, DeformationProbabilities,
                                 argmax_deformation, build_label_sets,
                                 init_unet, predict_probabilities,
                                 soft_deformation, unet_forward)
from sphreg.errors import NumericError
from sphreg.icosphere import generate_icosphere
from sphreg.shconv import ZonalFilter, init_zonal_filter, zonal_convolve
from sphreg.sht import build_basis

from mesh_arcs import max_edge_arc, one_ring


# ---------------------------------------------------------------------------
# label sets
# ---------------------------------------------------------------------------

def test_label_count_is_seven_for_one_hop():
    grid = build_label_sets(1, 2)
    assert grid.n_controls == 42
    assert grid.n_labels == 7


def test_interior_controls_get_self_plus_one_ring():
    grid = build_label_sets(1, 2)
    rings = one_ring(generate_icosphere(2))
    # control vertices 12..41 have degree 6 on the label mesh
    for c in range(12, 42):
        expected = {c} | set(rings[c].tolist())
        assert set(grid.labels[c].tolist()) == expected


def test_pentagon_controls_pad_with_identity():
    grid = build_label_sets(1, 2)
    for c in range(12):
        row = grid.labels[c]
        assert row[0] == c
        assert len(set(row.tolist())) == 6    # 5 neighbours + self
        assert row[6] == c                    # padding repeats the identity


def test_identity_slot_is_exact_control_position():
    grid = build_label_sets(1, 3)
    np.testing.assert_array_equal(grid.label_positions[:, 0, :],
                                  grid.control_positions)


def test_labels_within_hop_radius():
    grid = build_label_sets(1, 2)
    radius = max_edge_arc(generate_icosphere(2)) + 1e-12
    cos = np.einsum("clx,cx->cl", grid.label_positions, grid.control_positions)
    arcs = np.arccos(np.clip(cos, -1.0, 1.0))
    assert arcs.max() <= radius


def test_neighbours_ordered_nearest_first():
    grid = build_label_sets(1, 2)
    cos = np.einsum("clx,cx->cl", grid.label_positions, grid.control_positions)
    arcs = np.arccos(np.clip(cos, -1.0, 1.0))
    for c in range(12, grid.n_controls):    # interior rows have no padding
        assert np.all(np.diff(arcs[c, 1:]) >= -1e-12)


def test_label_sets_are_built_once_and_frozen():
    first = build_label_sets(1, 3)
    assert build_label_sets(1, 3) is first
    discrete_reg._label_sets.cache_clear()
    fresh = build_label_sets(1, 3)
    assert fresh is not first
    for name in ("labels", "label_positions", "control_positions", "edges"):
        got, expected = getattr(first, name), getattr(fresh, name)
        assert not got.flags.writeable
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype


def test_invalid_levels_rejected():
    with pytest.raises(ValueError, match="label level"):
        build_label_sets(2, 2)


def test_grid_validation_catches_tampering():
    grid = build_label_sets(1, 2)
    bad = grid.label_positions.copy()
    bad[0, 0] = [0.0, 0.0, 1.0]
    if np.array_equal(bad[0, 0], grid.control_positions[0]):
        bad[0, 0] = [1.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="slot 0"):
        ControlGrid(control_level=grid.control_level,
                    label_level=grid.label_level, labels=grid.labels,
                    label_positions=bad,
                    control_positions=grid.control_positions,
                    edges=grid.edges)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def test_uniform_logits_give_uniform_probabilities():
    grid = build_label_sets(1, 2)
    logits = np.zeros((642, grid.n_labels))
    Q = predict_probabilities(logits, grid)
    np.testing.assert_allclose(Q.value, 1.0 / grid.n_labels, atol=1e-15)


def test_large_logit_saturates():
    grid = build_label_sets(1, 2)
    logits = np.zeros((grid.n_controls, grid.n_labels))
    logits[:, 3] = 50.0
    Q = predict_probabilities(logits, grid)
    assert np.all(Q.value[:, 3] > 1 - 1e-9)


def test_probability_rows_sum_to_one():
    grid = build_label_sets(1, 2)
    logits = np.random.default_rng(0).standard_normal((642, grid.n_labels))
    Q = predict_probabilities(logits, grid)
    assert np.max(np.abs(Q.value.sum(axis=1) - 1.0)) < 1e-12


def test_prefix_rows_only():
    grid = build_label_sets(1, 2)
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((642, grid.n_labels))
    tampered = logits.copy()
    tampered[grid.n_controls:] = rng.standard_normal(
        (642 - grid.n_controls, grid.n_labels))
    np.testing.assert_array_equal(
        predict_probabilities(logits, grid).value,
        predict_probabilities(tampered, grid).value)


def test_nonfinite_logits_rejected():
    grid = build_label_sets(1, 2)
    logits = np.zeros((642, grid.n_labels))
    logits[5, 2] = np.nan
    with pytest.raises(NumericError, match="finite"):
        predict_probabilities(logits, grid)


def test_q_validation():
    with pytest.raises(ValueError, match="sums"):
        DeformationProbabilities(np.full((4, 3), 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        DeformationProbabilities(np.array([[1.5, -0.5, 0.0]]))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_uniform_q_decodes_to_identity():
    grid = build_label_sets(1, 2)
    Q = DeformationProbabilities(
        np.full((grid.n_controls, grid.n_labels), 1.0 / grid.n_labels))
    np.testing.assert_array_equal(argmax_deformation(Q, grid),
                                  grid.control_positions)


def test_one_hot_q_decodes_to_that_label():
    grid = build_label_sets(1, 2)
    rng = np.random.default_rng(2)
    slots = rng.integers(grid.n_labels, size=grid.n_controls)
    Q = np.zeros((grid.n_controls, grid.n_labels))
    Q[np.arange(grid.n_controls), slots] = 1.0
    probs = DeformationProbabilities(Q)
    expected = grid.label_positions[np.arange(grid.n_controls), slots]
    np.testing.assert_array_equal(argmax_deformation(probs, grid), expected)
    # the soft expectation of a one-hot row is the same unit vector, exactly
    np.testing.assert_array_equal(
        ag.value_of(soft_deformation(probs, grid)), expected)


def test_argmax_matches_row_scan_oracle():
    grid = build_label_sets(1, 2)
    rng = np.random.default_rng(3)
    raw = rng.random((grid.n_controls, grid.n_labels))
    Q = DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))
    produced = argmax_deformation(Q, grid)
    for c in range(grid.n_controls):
        best, best_p = 0, Q.value[c, 0]
        for j in range(1, grid.n_labels):
            if Q.value[c, j] > best_p:
                best, best_p = j, Q.value[c, j]
        np.testing.assert_array_equal(produced[c],
                                      grid.label_positions[c, best])


def test_argmax_output_stays_in_label_set():
    grid = build_label_sets(2, 3)
    rng = np.random.default_rng(4)
    raw = rng.random((grid.n_controls, grid.n_labels))
    Q = DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))
    D = argmax_deformation(Q, grid)
    for c in range(grid.n_controls):
        assert any(np.array_equal(D[c], pos) for pos in grid.label_positions[c])


def test_argmax_invariant_to_monotone_row_transform():
    grid = build_label_sets(1, 2)
    rng = np.random.default_rng(5)
    raw = rng.random((grid.n_controls, grid.n_labels)) + 0.1
    Q = DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))
    squared = Q.value ** 2
    Q2 = DeformationProbabilities(squared / squared.sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(argmax_deformation(Q, grid),
                                  argmax_deformation(Q2, grid))


def test_soft_deformation_returns_unit_vectors():
    grid = build_label_sets(1, 2)
    rng = np.random.default_rng(6)
    raw = rng.random((grid.n_controls, grid.n_labels))
    Q = DeformationProbabilities(raw / raw.sum(axis=1, keepdims=True))
    D = ag.value_of(soft_deformation(Q, grid))
    np.testing.assert_allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# U-Net
# ---------------------------------------------------------------------------

def test_unet_output_shape():
    rng = np.random.default_rng(7)
    params = init_unet(16, 8, 7, 4, rng)
    mesh = generate_icosphere(3)
    moving = rng.standard_normal((mesh.n_vertices, 1))
    fixed = rng.standard_normal((mesh.n_vertices, 1))
    logits = ag.value_of(unet_forward(moving, fixed, params, 3))
    assert logits.shape == (642, 7)


def test_zero_head_gives_uniform_probabilities():
    rng = np.random.default_rng(8)
    params = init_unet(8, 4, 7, 4, rng)
    params.head.filt.h = np.zeros_like(params.head.filt.h)
    params.head.filt.alpha = np.zeros_like(params.head.filt.alpha)
    params.head.bn_beta = np.zeros_like(params.head.bn_beta)
    mesh = generate_icosphere(2)
    moving = rng.standard_normal((mesh.n_vertices, 1))
    fixed = rng.standard_normal((mesh.n_vertices, 1))
    logits = ag.value_of(unet_forward(moving, fixed, params, 2))
    grid = build_label_sets(1, 2)
    Q = predict_probabilities(logits, grid)
    np.testing.assert_allclose(Q.value, 1.0 / grid.n_labels, atol=1e-12)


def test_unet_deterministic():
    rng = np.random.default_rng(9)
    params = init_unet(8, 4, 7, 4, rng)
    mesh = generate_icosphere(2)
    moving = rng.standard_normal((mesh.n_vertices, 1))
    fixed = rng.standard_normal((mesh.n_vertices, 1))
    first = ag.value_of(unet_forward(moving, fixed, params, 2))
    second = ag.value_of(unet_forward(moving, fixed, params, 2))
    np.testing.assert_array_equal(first, second)


def test_unet_input_shape_validated():
    rng = np.random.default_rng(10)
    params = init_unet(8, 4, 7, 4, rng)
    good = np.zeros((162, 1))
    with pytest.raises(ValueError, match="moving"):
        unet_forward(np.zeros((100, 1)), good, params, 2)
    with pytest.raises(ValueError, match="fixed"):
        unet_forward(good, np.zeros((162, 2)), params, 2)


def test_unet_bandwidth_multiple_of_four():
    with pytest.raises(ValueError, match="multiple of 4"):
        init_unet(10, 4, 7, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# spectral pooling
# ---------------------------------------------------------------------------

def spectral_project(values, basis, L_new):
    """Band-limit vertex values to degree <= L_new through the vertices:
    analyse on the full basis, keep the low degrees, synthesise them."""
    n_lm = (L_new + 1) ** 2
    coeffs = ag.slice_rows(ag.matmul(basis.forward, values), 0, n_lm)
    return ag.matmul(basis.Y[:, :n_lm], coeffs)


def _pool_and_grads(pool, values, h, weights):
    """A pooling chain's output and the gradients of sum(out * weights)
    into the values and ``h``."""
    leaves = [ag.Tensor(values.copy()), ag.Tensor(h.copy())]
    out = pool(*leaves)
    ag.reduce_sum(ag.mul(out, weights)).backward()
    return [out.value] + [leaf.grad for leaf in leaves]


# (c_out, c_in, filter bandwidth, bandwidth of the basis it pools from):
# the default U-Net's enc2 and enc3
POOLING_BLOCKS = [(16, 8, 8, 16), (32, 16, 4, 8)]


@pytest.mark.parametrize("shape", POOLING_BLOCKS,
                         ids=[f"{i}to{o}L{w}toL{L}"
                              for o, i, L, w in POOLING_BLOCKS])
def test_pooled_block_matches_project_then_filter(shape):
    # the filter reads only its own degrees of the wider basis, so it pools
    # as a projection to its band through the vertices followed by the same
    # filter on the band's own basis, where any alpha cancels
    c_out, c_in, L, wide = shape
    mesh = generate_icosphere(3)
    wide_basis, band_basis = build_basis(mesh, wide), build_basis(mesh, L)
    rng = np.random.default_rng(c_out + c_in)
    filt = init_zonal_filter(c_out, c_in, L, rng)
    values = rng.standard_normal((mesh.n_vertices, c_in))
    weights = rng.standard_normal((mesh.n_vertices, c_out))

    def pooled(v, h):
        return zonal_convolve(v, ZonalFilter(h=h, alpha=None), wide_basis)

    def chain(v, h):
        return zonal_convolve(spectral_project(v, wide_basis, L),
                              ZonalFilter(h=h, alpha=filt.alpha), band_basis)

    new = _pool_and_grads(pooled, values, filt.h, weights)
    old = _pool_and_grads(chain, values, filt.h, weights)
    for name, a, b in zip(("out", "values", "h"), new, old):
        assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name
