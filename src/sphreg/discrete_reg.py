"""Discrete control-point registration head.

A control grid places deformation handles on a coarse icosphere; each handle
may move to one of N_l candidate positions (its "labels") chosen from a finer
icosphere: itself (slot 0, the identity move) plus the vertices within a few
one-ring hops.  The U-Net below scores the candidates per control point; the
resulting row-stochastic matrix Q drives either a hard argmax deformation
(inference) or a probability-weighted soft deformation (training).

Architecture: three zonal-convolution encoder blocks with spectral pooling
(bandwidths L, L/2, L/4, channels C, 2C, 4C), a two-layer graph-attention
bottleneck, and a mirrored decoder with concatenated skips, ending in a
batch-normalized linear head with one logit channel per label slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import autodiff as ag
from .graph_attention import GraphModuleParams, graph_enhanced_module, init_graph_module
from .icosphere import Icosphere, generate_icosphere, vertex_count
from .sht import HarmonicBasis, build_basis
from .shconv import BlockParams, init_block, shconv_block


@dataclass(eq=False)
class ControlGrid:
    """Control points, their candidate label positions, and adjacency.

    ``labels[c]`` indexes label-level vertices; ``label_positions[c, 0]``
    is always the control point's own position (the identity move).
    ``edges`` holds directed one-ring pairs (dst, src) of the control mesh;
    ``edge_plans`` are the frozen scatter plans of its two columns onto the
    controls.  ``kernel_stack(sigma)`` is the CRF's frozen Gaussian kernel
    over those edges.  Grids compare and hash by identity, and both tables
    are memoised per grid (and sigma), so they assume ``edges`` and
    ``label_positions`` do not change.
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

    @cached_property
    def edge_plans(self) -> tuple[ag.ScatterPlan, ag.ScatterPlan]:
        return tuple(
            ag.ScatterPlan(self.edges[:, k], self.n_controls) for k in (0, 1))

    def kernel_stack(self, sigma: float) -> np.ndarray:
        """K[e, l, l'] = exp(-arc(pos_dst(l), pos_src(l'))^2 / (2 sigma^2))."""
        return _kernel_stack(self, sigma)


@cache
def _kernel_stack(grid: ControlGrid, sigma: float) -> np.ndarray:
    pos_dst = grid.label_positions[grid.edges[:, 0]]    # (E, N_l, 3)
    pos_src = grid.label_positions[grid.edges[:, 1]]
    cos = np.einsum("elx,emx->elm", pos_dst, pos_src)
    arc = np.arccos(np.clip(cos, -1.0, 1.0))
    kernel = np.exp(-(arc ** 2) / (2.0 * sigma * sigma))
    kernel.setflags(write=False)
    return kernel


def build_label_sets(control_level: int, label_level: int,
                     hops: int = 1) -> ControlGrid:
    """Label sets from k-hop neighborhoods on the label mesh.

    Each control point (a label-mesh vertex by the prefix property) gets
    slot 0 = itself, then its within-``hops`` neighbors nearest-first
    (arc distance, index tie-break).  N_l is the largest neighborhood size;
    sparser (pentagon) control points pad trailing slots with repeats of
    the identity label so Q stays rectangular and padding slots are inert.

    Grids are built once per (control_level, label_level, hops) and shared,
    with their arrays frozen as the meshes' are.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    control = generate_icosphere(control_level)
    label = generate_icosphere(label_level)
    if label_level <= control_level:
        raise ValueError(
            f"label level {label_level} must exceed control level {control_level}")
    return _label_sets(control, label, hops)


@cache
def _label_sets(control: Icosphere, label: Icosphere, hops: int) -> ControlGrid:
    ring, offsets = label.ring_src, label.ring_offsets
    neighbor_sets: list[np.ndarray] = []
    for c in range(control.n_vertices):
        seen = {c}
        frontier = [c]
        for _ in range(hops):
            nxt = []
            for v in frontier:
                for u in ring[offsets[v]:offsets[v + 1]]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        seen.discard(c)
        ids = np.fromiter(seen, dtype=np.int64, count=len(seen))
        arcs = np.arccos(np.clip(label.vertices[ids] @ label.vertices[c], -1.0, 1.0))
        order = np.lexsort((ids, arcs))
        neighbor_sets.append(ids[order])

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
    enc2: BlockParams   # C   -> 2C  at L/2
    enc3: BlockParams   # 2C  -> 4C  at L/4
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
    # drawn even when unused, so every later parameter starts from the same
    # numbers with the graph on or off and the ablation changes only the graph
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


def spectral_project(values, basis: HarmonicBasis, L_new: int):
    """Band-limit vertex values to degree <= L_new (differentiable pooling)."""
    if L_new > basis.L:
        raise ValueError(f"cannot project to L={L_new} with basis L={basis.L}")
    n_lm = (L_new + 1) ** 2
    coeffs = ag.slice_rows(ag.matmul(basis.forward, values), 0, n_lm)
    return ag.matmul(basis.Y[:, :n_lm], coeffs)


def unet_forward(moving, fixed, params: UNetParams, mesh_level: int,
                 training: bool = False):
    """Full-resolution per-vertex label logits for a (moving, fixed) pair.

    ``moving`` and ``fixed`` are (N, 1) vertex signals (arrays or autodiff
    tensors).  Gradient flows through both inputs and all parameters.
    ``training`` selects the batch norms' mode (see ``shconv.batch_norm``).
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
    f2 = shconv_block(spectral_project(f1, b_full, L // 2), params.enc2,
                      b_half, training)
    f3 = shconv_block(spectral_project(f2, b_half, L // 4), params.enc3,
                      b_quarter, training)

    bottleneck = f3 if params.graph is None else \
        graph_enhanced_module(f3, mesh, params.graph)

    d1 = shconv_block(ag.concat([bottleneck, f3], axis=1), params.dec1,
                      b_quarter, training)
    d2 = shconv_block(ag.concat([d1, f2], axis=1), params.dec2, b_half, training)
    d3 = shconv_block(ag.concat([d2, f1], axis=1), params.dec3, b_full, training)
    return shconv_block(d3, params.head, b_full, training)


def predict_probabilities(logits, grid: ControlGrid) -> DeformationProbabilities:
    """Row-softmax of the control-point prefix rows of the logits."""
    value = ag.value_of(logits)
    if not np.all(np.isfinite(value)):
        raise ValueError("logits must be finite")
    if value.ndim != 2 or value.shape[1] != grid.n_labels:
        raise ValueError(
            f"logits must be (N, {grid.n_labels}), got {value.shape}")
    if value.shape[0] < grid.n_controls:
        raise ValueError(
            f"logits have {value.shape[0]} rows, need at least {grid.n_controls}")
    prefix = ag.slice_rows(logits, 0, grid.n_controls)
    return DeformationProbabilities(ag.softmax_rows(prefix))


def argmax_deformation(Q: DeformationProbabilities, grid: ControlGrid) -> np.ndarray:
    """Hard deformation: each control moves to its most probable label.

    Ties resolve to the lowest slot, so a uniform row stays at slot 0
    (the identity move).
    """
    q = Q.value
    if q.shape != (grid.n_controls, grid.n_labels):
        raise ValueError(
            f"Q shape {q.shape} does not match grid "
            f"({grid.n_controls}, {grid.n_labels})")
    best = np.argmax(q, axis=1)
    return grid.label_positions[np.arange(grid.n_controls), best].copy()


def soft_deformation(Q: DeformationProbabilities, grid: ControlGrid):
    """Probability-weighted mean of label positions, renormalized to the
    sphere (tensor-aware).  Equals argmax_deformation exactly for one-hot Q."""
    q = Q.value
    if q.shape != (grid.n_controls, grid.n_labels):
        raise ValueError(
            f"Q shape {q.shape} does not match grid "
            f"({grid.n_controls}, {grid.n_labels})")
    blended = ag.einsum2("cl,clx->cx", Q.Q, grid.label_positions)
    return ag.row_normalize(blended)
