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
from sphreg.graph_attention import (GatLayer, LEAKY_SLOPE, gat_forward,
                                    graph_enhanced_module, init_gat_layer,
                                    init_graph_module)
from sphreg.icosphere import generate_icosphere


def oracle_gat(features: np.ndarray, mesh, layer: GatLayer):
    """Per-vertex loop implementation; returns (output, attention rows)."""
    W = np.asarray(ag.value_of(layer.W))
    a = np.asarray(ag.value_of(layer.a))
    heads, d_head, _ = W.shape
    n = features.shape[0]
    head_outputs = []
    rows = []
    for h in range(heads):
        projected = features @ W[h].T
        out = np.zeros((n, d_head))
        for i in range(n):
            neighbours = [i] + list(mesh.one_ring[i])
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
        projected[[v] + list(mesh.one_ring[v])].mean(axis=0)
        for v in range(mesh.n_vertices)])
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
    for v in range(mesh.n_vertices):
        row = mesh.neighbourhood[v]
        assert row.tolist() == [v] + mesh.one_ring[v].tolist() + \
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
    first = ag.value_of(graph_enhanced_module(features, mesh, params))
    second = ag.value_of(graph_enhanced_module(features, mesh, params))
    assert first.shape == features.shape
    np.testing.assert_array_equal(first, second)


def test_module_is_residual_around_second_layer():
    # with layer 2 projecting to zero, only the skip connection remains
    mesh = generate_icosphere(1)
    rng = np.random.default_rng(29)
    params = init_graph_module(8, 4, rng)
    params.layer2.W = np.zeros_like(params.layer2.W)
    features = rng.standard_normal((mesh.n_vertices, 8))
    out = ag.value_of(graph_enhanced_module(features, mesh, params))
    np.testing.assert_array_equal(out, features)


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
