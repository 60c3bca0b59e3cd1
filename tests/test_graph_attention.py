"""Graph attention against a naive per-edge oracle.

The oracle walks every destination vertex and its one-ring + self
neighbourhood with plain Python loops, computing projections, LeakyReLU
edge logits, softmax weights, and attended sums exactly as written in the
layer equations.  The production path must match it to near machine
precision, and the attention weights of every row must form a probability
distribution.
"""

import numpy as np
import pytest

import sphreg.autodiff as ag
from sphreg.graph_attention import (GatLayer, GraphModuleParams, LEAKY_SLOPE,
                                    coarse_level, gat_forward,
                                    graph_enhanced_module, init_gat_layer,
                                    init_graph_module, lift_matrix)
from sphreg.icosphere import generate_icosphere, vertex_count
from sphreg.sht import build_basis

from mesh_arcs import one_ring


def oracle_gat(features: np.ndarray, mesh, layer: GatLayer):
    """Per-vertex loop implementation; returns (output, attention rows)."""
    W = np.asarray(ag.value_of(layer.W))
    a = np.asarray(ag.value_of(layer.a))
    heads, d_head, _ = W.shape
    n = features.shape[0]
    rings = one_ring(mesh)
    head_outputs = []
    rows = []
    for h in range(heads):
        projected = features @ W[h].T
        out = np.zeros((n, d_head))
        for i in range(n):
            neighbours = [i] + list(rings[i])
            logits = np.empty(len(neighbours))
            for k, j in enumerate(neighbours):
                z = a[h] @ np.concatenate([projected[i], projected[j]])
                logits[k] = z if z > 0 else LEAKY_SLOPE * z
            weights = np.exp(logits - logits.max())
            alpha = weights / weights.sum()
            rows.append(alpha)
            out[i] = alpha @ projected[neighbours]
        head_outputs.append(out)
    return np.concatenate(head_outputs, axis=1), rows


# every level-0 vertex has degree 5, so every row of its table is padded;
# level 1 mixes padded and full rows
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("level", [0, 1])
def test_matches_naive_oracle(level, heads):
    mesh = generate_icosphere(level)
    rng = np.random.default_rng(41 + heads + 10 * level)
    layer = init_gat_layer(8, heads, rng)
    for _ in range(5):
        features = rng.standard_normal((mesh.n_vertices, 8))
        expected, _ = oracle_gat(features, mesh, layer)
        produced = ag.value_of(gat_forward(features, mesh, layer))
        assert np.max(np.abs(produced - expected)) < 1e-10


def test_attention_rows_sum_to_one():
    mesh = generate_icosphere(0)
    rng = np.random.default_rng(7)
    layer = init_gat_layer(8, 2, rng)
    features = rng.standard_normal((mesh.n_vertices, 8))
    _, rows = oracle_gat(features, mesh, layer)
    for alpha in rows:
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert np.all(alpha >= 0)


def test_uniform_attention_reduces_to_neighbourhood_mean():
    # zero attention vector makes every edge logit 0, so softmax is uniform
    # and the output is the plain mean of projected neighbour features; this
    # checks the production path normalizes rows without oracle involvement
    mesh = generate_icosphere(0)
    rng = np.random.default_rng(11)
    layer = init_gat_layer(6, 1, rng)
    layer.a = np.zeros_like(layer.a)
    features = rng.standard_normal((mesh.n_vertices, 6))
    projected = features @ np.asarray(layer.W)[0].T
    expected = np.stack([
        projected[[v] + list(ring)].mean(axis=0)
        for v, ring in enumerate(one_ring(mesh))])
    produced = ag.value_of(gat_forward(features, mesh, layer))
    assert np.max(np.abs(produced - expected)) < 1e-12


def test_zero_features_give_zero_output():
    mesh = generate_icosphere(0)
    layer = init_gat_layer(8, 4, np.random.default_rng(5))
    out = ag.value_of(gat_forward(np.zeros((mesh.n_vertices, 8)), mesh, layer))
    assert np.all(out == 0)


def test_edges_cover_one_ring_plus_self():
    # the attention edges into v are the row of v in the neighbourhood table:
    # v, its one ring ascending, then v again in the padding slot if any
    mesh = generate_icosphere(1)
    degree = np.diff(mesh.ring_offsets)
    for v, ring in enumerate(one_ring(mesh)):
        row = mesh.neighbourhood[v]
        assert row.tolist() == [v] + ring.tolist() + \
            [v] * (6 - degree[v])
    assert set(degree.tolist()) == {5, 6}


def _tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def test_tape_nodes_do_not_grow_with_heads():
    mesh = generate_icosphere(1)
    rng = np.random.default_rng(13)
    features = ag.parameter(rng.standard_normal((mesh.n_vertices, 8)))
    counts = []
    for heads in (1, 2, 4):
        layer = init_gat_layer(8, heads, rng)
        probe = GatLayer(W=ag.parameter(layer.W), a=ag.parameter(layer.a))
        counts.append(_tape_nodes(gat_forward(features, mesh, probe)))
    assert counts[0] == counts[1] == counts[2]


def test_feature_width_mismatch_rejected():
    mesh = generate_icosphere(0)
    layer = init_gat_layer(4, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="width"):
        gat_forward(np.zeros((mesh.n_vertices, 6)), mesh, layer)


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        init_gat_layer(6, 4, np.random.default_rng(0))


def test_module_preserves_shape_and_is_deterministic():
    mesh = generate_icosphere(1)
    rng = np.random.default_rng(19)
    params = init_graph_module(8, 4, rng)
    features = rng.standard_normal((mesh.n_vertices, 8))
    first = ag.value_of(graph_enhanced_module(features, mesh, params, 2))
    second = ag.value_of(graph_enhanced_module(features, mesh, params, 2))
    assert first.shape == features.shape
    np.testing.assert_array_equal(first, second)


def test_module_is_residual_around_second_layer():
    # with layer 2 projecting to zero, only the skip connection remains
    mesh = generate_icosphere(1)
    rng = np.random.default_rng(29)
    params = init_graph_module(8, 4, rng)
    params.layer2.W = np.zeros_like(params.layer2.W)
    features = rng.standard_normal((mesh.n_vertices, 8))
    out = ag.value_of(graph_enhanced_module(features, mesh, params, 2))
    np.testing.assert_array_equal(out, features)


# ---------------------------------------------------------------------------
# the module on the coarse mesh of its band
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L, level", [(8, 0), (16, 1), (32, 2)])
def test_coarse_level_is_the_coarsest_that_holds_the_band(L, level):
    band = L // 4
    assert coarse_level(band) == level
    assert vertex_count(level) >= (band + 1) ** 2
    assert level == 0 or vertex_count(level - 1) < (band + 1) ** 2


@pytest.mark.parametrize("band", range(1, 17))
def test_lift_reproduces_band_limited_signals_from_the_coarse_rows(band):
    # every degree <= band harmonic sampled at level 3, and so every signal
    # band-limited to L/4 (L = 4 * band), is its lift from the first V_c
    # rows; bands 1-16 are every band whose coarse level is at most 3,
    # and they include the least oversampled ones (36 coefficients on the
    # 42 level-1 vertices at band 5, 144 on 162 at band 11)
    n_coarse = vertex_count(coarse_level(band))
    lift = lift_matrix(3, band)
    assert lift.shape == (642, n_coarse)
    harmonics = build_basis(generate_icosphere(3), band).Y
    assert np.max(np.abs(lift @ harmonics[:n_coarse] - harmonics)) < 1e-12
    sampled = build_basis(generate_icosphere(coarse_level(band)), band).Y
    singular = np.linalg.svd(sampled, compute_uv=False)
    assert singular[0] / singular[-1] < 1.7      # worst: 1.61 at band 11
    # with both samplings perfectly conditioned the lift's 2-norm would be
    # sqrt(V / V_c); the coarse analysis may inflate it by at most half
    # (the worst band, 11, reads 1.31)
    assert np.linalg.norm(lift, 2) < 1.5 * np.sqrt(642 / n_coarse)
    assert not lift.flags.writeable
    assert lift_matrix(3, band) is lift


def test_module_attends_on_the_coarse_prefix_and_lifts_back():
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(31)
    params = init_graph_module(8, 2, rng)
    features = rng.standard_normal((mesh.n_vertices, 8))
    coarse = generate_icosphere(1)
    hidden = ag.elu(gat_forward(features[:42], coarse, params.layer1))
    attended = gat_forward(hidden, coarse, params.layer2)
    expected = features + lift_matrix(3, 4) @ attended
    produced = graph_enhanced_module(features, mesh, params, 4)
    assert produced.tobytes() == expected.tobytes()
    # rows past the coarse prefix pass through the residual only
    moved = features.copy()
    moved[42:] += 1.0
    shifted = graph_enhanced_module(moved, mesh, params, 4)
    expected = moved + lift_matrix(3, 4) @ attended
    assert shifted.tobytes() == expected.tobytes()


def test_module_gradients_match_finite_differences_at_default_bandwidth():
    # the default model's module: level-3 features of width 4C = 32, four
    # heads, band L/4 = 4, so attention runs on level 1
    mesh = generate_icosphere(3)
    rng = np.random.default_rng(37)
    params = init_graph_module(32, 4, rng)
    features = rng.standard_normal((mesh.n_vertices, 32))
    weights = rng.standard_normal((mesh.n_vertices, 32))
    leaves = {(layer, name): np.asarray(getattr(getattr(params, layer), name))
              for layer in ("layer1", "layer2") for name in ("W", "a")}

    def module(values):
        layers = {layer: GatLayer(W=values[(layer, "W")],
                                  a=values[(layer, "a")])
                  for layer in ("layer1", "layer2")}
        return graph_enhanced_module(features, mesh,
                                     GraphModuleParams(**layers), 4)

    tensors = {key: ag.parameter(value) for key, value in leaves.items()}
    ag.reduce_sum(ag.mul(module(tensors), weights)).backward()
    step = 1e-6
    for key, base in leaves.items():
        for k in rng.choice(base.size, size=5, replace=False):
            index = np.unravel_index(k, base.shape)
            plus, minus = dict(leaves), dict(leaves)
            plus[key], minus[key] = base.copy(), base.copy()
            plus[key][index] += step
            minus[key][index] -= step
            fd = (np.sum(module(plus) * weights)
                  - np.sum(module(minus) * weights)) / (2 * step)
            analytic = tensors[key].grad[index]
            assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6) \
                < 1e-5, (key, index, fd, analytic)


def test_gradients_match_finite_differences():
    mesh = generate_icosphere(0)
    rng = np.random.default_rng(23)
    layer = init_gat_layer(4, 2, rng)
    features = rng.standard_normal((mesh.n_vertices, 4))
    weights = rng.standard_normal((mesh.n_vertices, 4))

    def loss_value(W_val, a_val):
        probe = GatLayer(W=W_val, a=a_val)
        return float(np.sum(ag.value_of(
            gat_forward(features, mesh, probe)) * weights))

    W_t = ag.parameter(np.asarray(layer.W))
    a_t = ag.parameter(np.asarray(layer.a))
    out = gat_forward(features, mesh, GatLayer(W=W_t, a=a_t))
    ag.reduce_sum(ag.mul(out, weights)).backward()

    step = 1e-6
    for tensor, base in ((W_t, np.asarray(layer.W)), (a_t, np.asarray(layer.a))):
        flat = rng.choice(base.size, size=6, replace=False)
        for k in flat:
            idx = np.unravel_index(k, base.shape)
            plus, minus = base.copy(), base.copy()
            plus[idx] += step
            minus[idx] -= step
            if tensor is W_t:
                fd = (loss_value(plus, np.asarray(layer.a))
                      - loss_value(minus, np.asarray(layer.a))) / (2 * step)
            else:
                fd = (loss_value(np.asarray(layer.W), plus)
                      - loss_value(np.asarray(layer.W), minus)) / (2 * step)
            analytic = tensor.grad[idx]
            assert abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6) < 1e-4
