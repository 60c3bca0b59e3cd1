"""Multi-head graph attention over one-ring mesh neighbourhoods.

Attention follows the additive form: per head, features are projected by W,
edge logits are LeakyReLU(a . [f'_dst || f'_src]) with slope 0.2, softmax is
taken over each destination's neighbourhood (one ring plus self), and the
attended neighbour features are summed.  Heads are concatenated, so a layer
maps (N, D) -> (N, D) with D divisible by the head count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .icosphere import Icosphere

LEAKY_SLOPE = 0.2


@cache
def _half_plans(heads: int) -> tuple[ag.ScatterPlan, ag.ScatterPlan]:
    """Frozen plans of the even and odd rows of the ``(2 * heads, D_head)``
    attention vectors: each head's destination and source halves."""
    halves = np.arange(2 * heads).reshape(heads, 2).T.copy()
    halves.setflags(write=False)
    return tuple(ag.ScatterPlan(rows, 2 * heads) for rows in halves)


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


def gat_forward(features, mesh: Icosphere, layer: GatLayer):
    """One-ring + self attention on an icosphere, all heads in one pass over
    the mesh's neighbourhood table."""
    n, d_in = ag.value_of(features).shape
    if n != mesh.n_vertices:
        raise ValueError("feature rows do not match mesh vertex count")
    if d_in != layer.d_in:
        raise ValueError(f"layer expects width {layer.d_in}, got {d_in}")
    heads, d_head = layer.heads, layer.d_head
    table = mesh.scatter_plan("neighbourhood")                  # (N, 7)
    padding = np.arange(mesh.neighbourhood.shape[1]) > np.diff(mesh.ring_offsets)[:, None]

    projected = ag.einsum2("nd,hkd->nhk", features, layer.W)    # (N, H, D_head)
    a = ag.reshape(layer.a, (2 * heads, d_head))
    dst_half, src_half = _half_plans(heads)
    score_dst = ag.einsum2("nhk,hk->nh", projected, ag.take_rows(a, dst_half))
    score_src = ag.einsum2("nhk,hk->nh", projected, ag.take_rows(a, src_half))
    logits = ag.leaky_relu(
        ag.add(ag.reshape(score_dst, (n, 1, heads)), ag.take_rows(score_src, table)),
        LEAKY_SLOPE)                                            # (N, 7, H)

    # softmax over each row, stabilised by a detached row max (padding slots
    # repeat slot 0, so they leave it unchanged); padding slots are shifted
    # by +inf, so their weight is exactly zero
    shift = np.where(padding[:, :, None], np.inf,
                     ag.value_of(logits).max(axis=1, keepdims=True))
    weights = ag.exp(ag.sub(logits, shift))
    attention = ag.div(weights, ag.reduce_sum(weights, axis=1, keepdims=True))

    attended = ag.einsum2("njh,njhk->nhk", attention, ag.take_rows(projected, table))
    return ag.reshape(attended, (n, heads * d_head))


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
