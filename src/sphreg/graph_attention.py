"""Multi-head graph attention over one-ring mesh neighbourhoods.

Attention follows the additive form: per head, features are projected by W,
edge logits are LeakyReLU(a . [f'_dst || f'_src]) with slope 0.2, softmax is
taken over each destination's neighbourhood (one ring plus self), and the
attended neighbour features are summed.  Heads are concatenated, so a layer
maps (N, D) -> (N, D) with D divisible by the head count.

The edge-list core is exposed separately from the mesh wrapper so degenerate
neighbourhoods (used in the tests) and future adjacency variants need no
mesh object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .icosphere import Icosphere

LEAKY_SLOPE = 0.2


@dataclass
class GatLayer:
    """Projection and attention weights for all heads of one layer."""

    W: object   # (H, D_head, D_in)
    a: object   # (H, 2 * D_head)

    @property
    def heads(self) -> int:
        return ag.value_of(self.W).shape[0]

    @property
    def d_head(self) -> int:
        return ag.value_of(self.W).shape[1]

    @property
    def d_in(self) -> int:
        return ag.value_of(self.W).shape[2]


def init_gat_layer(d_in: int, heads: int, rng) -> GatLayer:
    if d_in % heads != 0:
        raise ValueError(f"feature width {d_in} not divisible by {heads} heads")
    d_head = d_in // heads
    w_bound = 1.0 / np.sqrt(d_in)
    a_bound = 1.0 / np.sqrt(2 * d_head)
    return GatLayer(
        W=rng.uniform(-w_bound, w_bound, size=(heads, d_head, d_in)),
        a=rng.uniform(-a_bound, a_bound, size=(heads, 2 * d_head)),
    )


def attention_edges(mesh: Icosphere):
    """(dst, src) edge arrays covering one-ring neighbours plus self loops.

    The mesh's one-ring CSR with a self loop at the start of every segment,
    so the sources of v are ``[v] + one_ring[v]``."""
    vertices = np.arange(mesh.n_vertices)
    dst = np.repeat(vertices, np.diff(mesh.ring_offsets) + 1)
    return dst, np.insert(mesh.ring_src, mesh.ring_offsets[:-1], vertices)


def gat_forward_edges(features, dst: np.ndarray, src: np.ndarray,
                      layer: GatLayer, n_vertices: int):
    """Attention over an explicit (dst, src) edge list.

    Every destination must appear in at least one edge (its softmax is over
    its own edges); single-edge neighbourhoods degenerate to attention 1.
    """
    d_in = ag.value_of(features).shape[1]
    if d_in != layer.d_in:
        raise ValueError(f"layer expects width {layer.d_in}, got {d_in}")
    present = np.zeros(n_vertices, dtype=bool)
    present[dst] = True
    if not present.all():
        missing = int(np.argmin(present))
        raise ValueError(f"vertex {missing} has no attention edges")

    head_outputs = []
    for h in range(layer.heads):
        W_h = ag.take_rows(layer.W, np.array([h]))
        W_h = ag.reshape(W_h, (layer.d_head, layer.d_in))
        a_h = ag.reshape(ag.take_rows(layer.a, np.array([h])), (2 * layer.d_head, 1))
        a_dst = ag.slice_rows(a_h, 0, layer.d_head)
        a_src = ag.slice_rows(a_h, layer.d_head, 2 * layer.d_head)

        projected = ag.einsum2("nd,kd->nk", features, W_h)      # (N, D_head)
        score_dst = ag.matmul(projected, a_dst)                 # (N, 1)
        score_src = ag.matmul(projected, a_src)
        logits = ag.leaky_relu(
            ag.add(ag.take_rows(score_dst, dst), ag.take_rows(score_src, src)),
            LEAKY_SLOPE)

        # softmax per destination, stabilised by a detached segment max
        shift = np.full(n_vertices, -np.inf)
        np.maximum.at(shift, dst, ag.value_of(logits)[:, 0])
        weights = ag.exp(ag.sub(logits, shift[dst][:, None]))
        denom = ag.segment_sum(weights, dst, n_vertices)
        attention = ag.div(weights, ag.take_rows(denom, dst))

        attended = ag.mul(ag.take_rows(projected, src), attention)
        head_outputs.append(ag.segment_sum(attended, dst, n_vertices))
    return ag.concat(head_outputs, axis=1)


def gat_forward(features, mesh: Icosphere, layer: GatLayer):
    """One-ring + self attention on an icosphere."""
    if ag.value_of(features).shape[0] != mesh.n_vertices:
        raise ValueError("feature rows do not match mesh vertex count")
    dst, src = attention_edges(mesh)
    return gat_forward_edges(features, dst, src, layer, mesh.n_vertices)


@dataclass
class GraphModuleParams:
    """Residual bottleneck: two stacked attention layers with an ELU in
    between, whose output is added to the module input,
    ``f + layer2(elu(layer1(f)))``."""

    layer1: GatLayer
    layer2: GatLayer


def init_graph_module(d_in: int, heads: int, rng) -> GraphModuleParams:
    return GraphModuleParams(init_gat_layer(d_in, heads, rng),
                             init_gat_layer(d_in, heads, rng))


def graph_enhanced_module(features, mesh: Icosphere, params: GraphModuleParams):
    hidden = ag.elu(gat_forward(features, mesh, params.layer1))
    return ag.add(features, gat_forward(hidden, mesh, params.layer2))
