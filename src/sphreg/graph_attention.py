"""Multi-head graph attention over one-ring mesh neighbourhoods.

Attention follows the additive form: per head, features are projected by W,
edge logits are LeakyReLU(a . [f'_dst || f'_src]) with slope 0.2, softmax is
taken over each destination's neighbourhood (one ring plus self), and the
attended neighbour features are summed.  Heads are concatenated, so a layer
maps (N, D) -> (N, D) with D divisible by the head count.

The U-Net's bottleneck features are band-limited to a degree ``band``, so
the graph module attends on the coarsest icosphere that holds that band,
``coarse_level(band)``, whose vertices are the first rows of every finer
level (prefix property), and lifts its output back to the full mesh by one
frozen matrix: the coarse mesh's least-squares analysis followed by the
full mesh's synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .icosphere import Icosphere, _frozen, generate_icosphere, vertex_count
from .sht import build_basis

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


def gat_forward(features, mesh: Icosphere, layer: GatLayer):
    """One-ring + self attention on an icosphere, all heads in one pass over
    the mesh's neighbourhood table."""
    n, d_in = ag.value_of(features).shape
    if n != mesh.n_vertices:
        raise ValueError("feature rows do not match mesh vertex count")
    if d_in != layer.d_in:
        raise ValueError(f"layer expects width {layer.d_in}, got {d_in}")
    heads, d_head = layer.heads, layer.d_head
    table = mesh.neighbourhood                                  # (N, 7)
    padding = np.arange(mesh.neighbourhood.shape[1]) > np.diff(mesh.ring_offsets)[:, None]

    projected = ag.einsum2("nd,hkd->nhk", features, layer.W)    # (N, H, D_head)
    # each head's destination and source halves are the even and odd rows
    a = ag.reshape(layer.a, (2 * heads, d_head))
    rows = np.arange(2 * heads)
    score_dst = ag.einsum2("nhk,hk->nh", projected, ag.take_rows(a, rows[0::2]))
    score_src = ag.einsum2("nhk,hk->nh", projected, ag.take_rows(a, rows[1::2]))
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
    between, run on the first V_c rows of the module input (the vertices
    of the coarse mesh), whose output is lifted back to the full mesh and
    added to the input, ``f + lift @ layer2(elu(layer1(f[:V_c])))``.  The
    weight shapes do not depend on the mesh."""

    layer1: GatLayer
    layer2: GatLayer


def init_graph_module(d_in: int, heads: int, rng) -> GraphModuleParams:
    return GraphModuleParams(init_gat_layer(d_in, heads, rng),
                             init_gat_layer(d_in, heads, rng))


def coarse_level(band: int) -> int:
    """The coarsest icosphere level with at least (band + 1)^2 vertices,
    one per harmonic coefficient up to degree ``band``.

    This can leave far less than ``build_basis``'s 2x oversampling (36
    coefficients on 42 vertices at band 5, 144 on 162 at band 11), but the
    icosphere's vertices sample the sphere evenly enough that the coarse
    analysis stays well conditioned: for every band from 1 to 16 (coarse
    level 0 to 3) the sampled basis has a condition number below 1.7 and
    ``lift_matrix`` reproduces band-limited signals to 1e-12 with a
    2-norm within 1.5x of sqrt(V / V_c) (checked in the tests)."""
    level = 0
    while vertex_count(level) < (band + 1) ** 2:
        level += 1
    return level


@cache
def lift_matrix(mesh_level: int, band: int) -> np.ndarray:
    """Frozen (V, V_c) map from values on the coarse mesh of ``band`` to the
    level-``mesh_level`` mesh: degree-``band`` analysis on the coarse mesh,
    then synthesis on the full one.  It reproduces a signal band-limited to
    ``band`` from its first V_c rows.  Built once per (level, band)."""
    coarse = build_basis(generate_icosphere(coarse_level(band)), band)
    return _frozen(build_basis(generate_icosphere(mesh_level), band).Y
                   @ coarse.forward)


def graph_enhanced_module(features, mesh: Icosphere, params: GraphModuleParams,
                          band: int):
    """``f + lift @ layer2(elu(layer1(f[:V_c])))`` for (V, D) features on
    ``mesh`` that are band-limited to degree ``band``; attention runs on
    the coarse mesh ``coarse_level(band)``."""
    coarse = generate_icosphere(coarse_level(band))
    prefix = ag.slice_rows(features, 0, coarse.n_vertices)
    hidden = ag.elu(gat_forward(prefix, coarse, params.layer1))
    attended = gat_forward(hidden, coarse, params.layer2)
    return ag.add(features, ag.matmul(lift_matrix(mesh.level, band), attended))
