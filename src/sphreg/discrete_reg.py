"""Discrete control-point registration head.

A control grid places deformation handles on a coarse icosphere; each handle
may move to one of N_l candidate positions (its "labels") chosen from a finer
icosphere: itself (slot 0, the identity move) plus its one-ring neighbours
there.  The U-Net below scores the candidates per control point; the
resulting row-stochastic matrix Q drives either a hard argmax deformation
(inference) or a probability-weighted soft deformation (training).  The
CRF that refines Q between the two (``crf``) builds its pairwise kernel from
the grid's label positions and edges.

Architecture: three zonal-convolution encoder blocks, the last two pooling
by spectral truncation with no residual (bandwidths L, L/2, L/4, channels C,
2C, 4C), a two-layer graph-attention bottleneck, and a mirrored decoder with
concatenated skips, ending in a batch-normalized linear head with one logit
channel per label slot.  The bottleneck attends on the coarsest icosphere
with a vertex per degree-L/4 coefficient (level 1 at L = 16) and lifts its
output back by one frozen matrix (``graph_attention.lift_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import autodiff as ag
from .errors import NumericError
from .graph_attention import GraphModuleParams, graph_enhanced_module, init_graph_module
from .icosphere import Icosphere, generate_icosphere, vertex_count
from .sht import build_basis
from .shconv import BlockParams, init_block, shconv_block


@dataclass(eq=False)
class ControlGrid:
    """Control points, their candidate label positions, and adjacency.

    ``labels[c]`` indexes label-level vertices; ``label_positions[c, 0]``
    is always the control point's own position (the identity move).
    ``edges`` holds directed one-ring pairs (dst, src) of the control mesh.
    A grid holds label geometry only.  Grids compare and hash by identity,
    so caches keyed on a grid, such as the CRF's kernel, assume its arrays
    do not change.
    """

    control_level: int
    label_level: int
    labels: np.ndarray            # (N_c, N_l) int
    label_positions: np.ndarray   # (N_c, N_l, 3)
    control_positions: np.ndarray  # (N_c, 3)
    edges: np.ndarray             # (E, 2) directed (dst, src)

    def __post_init__(self):
        if self.label_level <= self.control_level:
            raise ValueError(
                f"label level {self.label_level} must exceed control level "
                f"{self.control_level}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.label_positions = np.asarray(self.label_positions, dtype=np.float64)
        self.control_positions = np.asarray(self.control_positions, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64)
        n_c, n_l = self.labels.shape
        if self.label_positions.shape != (n_c, n_l, 3):
            raise ValueError("label_positions shape does not match labels")
        if self.control_positions.shape != (n_c, 3):
            raise ValueError("control_positions shape does not match labels")
        if self.labels.min() < 0 or self.labels.max() >= vertex_count(self.label_level):
            raise ValueError("label indices out of range for label level")
        norms = np.linalg.norm(self.label_positions, axis=2)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("label positions must be unit vectors")
        if not np.array_equal(self.label_positions[:, 0, :], self.control_positions):
            raise ValueError("label slot 0 must equal the control position exactly")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array")
        if len(self.edges) and (self.edges.min() < 0 or self.edges.max() >= n_c):
            raise ValueError("edge endpoints out of range")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self-edges are not allowed")

    @property
    def n_controls(self) -> int:
        return self.labels.shape[0]

    @property
    def n_labels(self) -> int:
        return self.labels.shape[1]


def build_label_sets(control_level: int, label_level: int) -> ControlGrid:
    """Label sets from one-ring neighbourhoods on the label mesh.

    Each control point (a label-mesh vertex by the prefix property) gets
    slot 0 = itself, then its label-mesh one-ring nearest-first (arc
    distance, index tie-break).  N_l is one more than the largest degree;
    degree-5 control points pad the trailing slot with a repeat of the
    identity label so Q stays rectangular and padding slots are inert.

    Grids are built once per (control_level, label_level) and shared, with
    their arrays frozen as the meshes' are.
    """
    control = generate_icosphere(control_level)
    label = generate_icosphere(label_level)
    if label_level <= control_level:
        raise ValueError(
            f"label level {label_level} must exceed control level {control_level}")
    return _label_sets(control, label)


@cache
def _label_sets(control: Icosphere, label: Icosphere) -> ControlGrid:
    # the one-rings of the control vertices, as slices of ring_src
    ring, offsets = label.ring_src, label.ring_offsets
    neighbor_sets: list[np.ndarray] = []
    for c in range(control.n_vertices):
        ids = ring[offsets[c]:offsets[c + 1]]
        arcs = np.arccos(np.clip(label.vertices[ids] @ label.vertices[c], -1.0, 1.0))
        neighbor_sets.append(ids[np.lexsort((ids, arcs))])

    n_l = 1 + max(len(ids) for ids in neighbor_sets)
    labels = np.empty((control.n_vertices, n_l), dtype=np.int64)
    for c, ids in enumerate(neighbor_sets):
        labels[c, 0] = c
        labels[c, 1:1 + len(ids)] = ids
        labels[c, 1 + len(ids):] = c
    grid = ControlGrid(
        control_level=control.level,
        label_level=label.level,
        labels=labels,
        label_positions=label.vertices[labels],
        control_positions=control.vertices,
        edges=np.stack([control.ring_dst, control.ring_src], axis=1),
    )
    for array in (grid.labels, grid.label_positions, grid.edges):
        array.setflags(write=False)
    return grid


@dataclass
class DeformationProbabilities:
    """Row-stochastic control-to-label assignment probabilities."""

    Q: object   # (N_c, N_l) array or autodiff tensor

    def __post_init__(self):
        q = ag.value_of(self.Q)
        if q.ndim != 2:
            raise ValueError(f"Q must be 2-D, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q must be finite")
        if q.min() < 0:
            raise ValueError("Q must be nonnegative")
        if np.any(np.abs(q.sum(axis=1) - 1.0) > 1e-9):
            bad = int(np.argmax(np.abs(q.sum(axis=1) - 1.0)))
            raise ValueError(f"Q row {bad} sums to {q.sum(axis=1)[bad]!r}, not 1")

    @property
    def value(self) -> np.ndarray:
        return ag.value_of(self.Q)


# ---------------------------------------------------------------------------
# U-Net
# ---------------------------------------------------------------------------

@dataclass
class UNetParams:
    enc1: BlockParams   # 2   -> C   at L
    enc2: BlockParams   # C   -> 2C  at L/2, pools from L (no alpha)
    enc3: BlockParams   # 2C  -> 4C  at L/4, pools from L/2 (no alpha)
    graph: GraphModuleParams | None   # 4C -> 4C bottleneck
    dec1: BlockParams   # 8C  -> 4C  at L/4
    dec2: BlockParams   # 6C  -> 2C  at L/2
    dec3: BlockParams   # 3C  -> C   at L
    head: BlockParams   # C   -> N_l at L, logits (no ReLU)

    @property
    def bandwidth(self) -> int:
        return self.enc1.filt.L_in


def init_unet(L: int, channels: int, n_labels: int, heads: int, rng,
              use_graph: bool = True) -> UNetParams:
    if L % 4 != 0 or L < 4:
        raise ValueError(f"bandwidth must be a positive multiple of 4, got {L}")
    c = channels
    enc1 = init_block(c, 2, L, rng)
    enc2 = init_block(2 * c, c, L // 2, rng)
    enc3 = init_block(4 * c, 2 * c, L // 4, rng)
    enc2.filt.alpha = enc3.filt.alpha = None    # pooling: no residual
    # the dropped alphas and the graph are drawn even when unused, so every
    # later parameter keeps its place in the rng stream and the ablation
    # changes only the graph
    graph = init_graph_module(4 * c, heads, rng)
    return UNetParams(
        enc1=enc1,
        enc2=enc2,
        enc3=enc3,
        graph=graph if use_graph else None,
        dec1=init_block(4 * c, 8 * c, L // 4, rng),
        dec2=init_block(2 * c, 6 * c, L // 2, rng),
        dec3=init_block(c, 3 * c, L, rng),
        head=init_block(n_labels, c, L, rng, relu=False),
    )


def unet_forward(moving, fixed, params: UNetParams, mesh_level: int,
                 training: bool = False):
    """Full-resolution per-vertex label logits for a (moving, fixed) pair.

    ``moving`` and ``fixed`` are (N, 1) vertex signals (arrays or autodiff
    tensors).  Gradient flows through both inputs and all parameters.
    ``training`` selects the batch norms' mode (see ``shconv.shconv_block``).
    """
    n = vertex_count(mesh_level)
    for name, sig in (("moving", moving), ("fixed", fixed)):
        v = ag.value_of(sig)
        if v.shape != (n, 1):
            raise ValueError(
                f"{name} must have shape ({n}, 1) at level {mesh_level}, "
                f"got {v.shape}")
    mesh = generate_icosphere(mesh_level)
    L = params.bandwidth
    b_full = build_basis(mesh, L)
    b_half = build_basis(mesh, L // 2)
    b_quarter = build_basis(mesh, L // 4)

    x = ag.concat([moving, fixed], axis=1)
    f1 = shconv_block(x, params.enc1, b_full, training)
    f2 = shconv_block(f1, params.enc2, b_full, training)
    f3 = shconv_block(f2, params.enc3, b_half, training)

    bottleneck = f3 if params.graph is None else \
        graph_enhanced_module(f3, mesh, params.graph, L // 4)

    d1 = shconv_block(ag.concat([bottleneck, f3], axis=1), params.dec1,
                      b_quarter, training)
    d2 = shconv_block(ag.concat([d1, f2], axis=1), params.dec2, b_half, training)
    d3 = shconv_block(ag.concat([d2, f1], axis=1), params.dec3, b_full, training)
    return shconv_block(d3, params.head, b_full, training)


def predict_probabilities(logits, grid: ControlGrid) -> DeformationProbabilities:
    """Row-softmax of the control-point prefix rows of the logits; a
    non-finite logit, as from weights that overflow, raises NumericError."""
    value = ag.value_of(logits)
    if not np.all(np.isfinite(value)):
        raise NumericError("logits must be finite")
    if value.ndim != 2 or value.shape[1] != grid.n_labels:
        raise ValueError(
            f"logits must be (N, {grid.n_labels}), got {value.shape}")
    if value.shape[0] < grid.n_controls:
        raise ValueError(
            f"logits have {value.shape[0]} rows, need at least {grid.n_controls}")
    prefix = ag.slice_rows(logits, 0, grid.n_controls)
    return DeformationProbabilities(ag.softmax_rows(prefix))


def check_q_shape(Q: DeformationProbabilities, grid: ControlGrid) -> None:
    """Raise ValueError unless Q has a row per control, a column per label."""
    if Q.value.shape != (grid.n_controls, grid.n_labels):
        raise ValueError(
            f"Q shape {Q.value.shape} does not match grid "
            f"({grid.n_controls}, {grid.n_labels})")


def argmax_deformation(Q: DeformationProbabilities, grid: ControlGrid) -> np.ndarray:
    """Hard deformation: each control moves to its most probable label.

    Ties resolve to the lowest slot, so a uniform row stays at slot 0
    (the identity move).
    """
    check_q_shape(Q, grid)
    best = np.argmax(Q.value, axis=1)
    return grid.label_positions[np.arange(grid.n_controls), best].copy()


def soft_deformation(Q: DeformationProbabilities, grid: ControlGrid):
    """Probability-weighted mean of label positions, renormalized to the
    sphere (tensor-aware).  Equals argmax_deformation exactly for one-hot Q."""
    check_q_shape(Q, grid)
    blended = ag.einsum2("cl,clx->cx", Q.Q, grid.label_positions)
    return ag.row_normalize(blended)
