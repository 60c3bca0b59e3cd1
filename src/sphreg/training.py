"""Cascaded two-scale registration: model assembly, synthetic data, training.

The model runs two discrete registration stages: a coarse stage (control
level ``CONTROL_COARSE``) deforms the moving image first, then a fine stage
(control level ``CONTROL_FINE``) refines the result.  Training is
unsupervised: similarity is measured at the finest scale only (cascaded
mode) or per stage (independent mode, the ablation), plus control-grid
smoothness regularization.  There are two run modes: training relaxes the
discrete label choice to the probability-weighted mean of label positions
and normalises with batch statistics, folding them into running buffers it
never reads; inference decodes the hard argmax and normalises with those
buffers.  The control levels and the CRF schedule are module constants
(here and in ``crf``), fixed for every run as in the paper's two-scale
cascade; the config sets the model, the optimiser and the ablations.

All parameters live in plain numpy arrays; during a training step they are
wrapped as autodiff tensors, gradients accumulate over the batch, and an
Adam update writes back.  Everything is seeded and single-threaded, so two
runs with one seed match bit for bit.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from . import fileio
from .crf import (CRF_ITERATIONS, CRF_WEIGHT, CrfParams, crf_refine,
                  mean_edge_arc)
from .discrete_reg import (ControlGrid, DeformationProbabilities, UNetParams,
                           argmax_deformation, build_label_sets, init_unet,
                           predict_probabilities, soft_deformation, unet_forward)
from .errors import FormatError, NumericError
from .icosphere import (SphericalSignal, _norm3, barycentric_resample,
                        generate_icosphere)
from .metrics import loss_reg, loss_sim, pearson_cc
from .sht import build_basis, random_coefficients, sht_inverse
from .warp import (DeformationField, compose, densify_targets, warp_signal,
                   warp_values)

CASCADE_MODES = ("cascaded", "independent")


@dataclass
class TrainConfig:
    mesh_level: int = 3
    bandwidth: int = 16
    channels: int = 8
    heads: int = 4
    lambda1: float = 0.05
    lambda2: float = 0.02
    learning_rate: float = 0.01
    epochs: int = 15
    # 480 Adam steps over 15 epochs of 64 desk pairs (batch 8 gives 120);
    # held-out CC still rises at epoch 15: 0.8074, 0.8141, 0.8184 at seed 0
    batch_size: int = 2
    seed: int = 0
    use_graph_module: bool = True
    use_crf: bool = True
    cascade_mode: str = "cascaded"

    def __post_init__(self):
        if self.cascade_mode not in CASCADE_MODES:
            raise ValueError(
                f"cascade_mode must be one of {CASCADE_MODES}, "
                f"got {self.cascade_mode!r}")
        for name in ("mesh_level", "bandwidth", "channels", "heads",
                     "epochs", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mesh_level < CONTROL_FINE:
            raise ValueError(f"mesh level must be at least the fine control "
                             f"level {CONTROL_FINE}, got {self.mesh_level}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("regularization weights must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config is not a JSON object: {data!r}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        # a float field takes an int too (JSON has one number type); bool is
        # an int subclass, so only a bool field takes a bool
        allowed = {"bool": bool, "int": int, "float": (int, float), "str": str}
        for name, value in data.items():
            if (not isinstance(value, allowed[types[name]])
                    or isinstance(value, bool) != (types[name] == "bool")):
                raise ValueError(f"config {name} must be {types[name]}, "
                                 f"got {value!r}")
        return cls(**data)


@dataclass
class ModelParams:
    coarse: UNetParams
    fine: UNetParams


def build_grids() -> tuple[ControlGrid, ControlGrid]:
    """Label grids for both stages, at control levels ``CONTROL_COARSE``
    and ``CONTROL_FINE`` (label level = control level + 2).

    The label mesh sits two levels below the control mesh so a label step,
    one label-mesh edge, is a quarter of the control edge.  Adjacent control
    points snapping toward each other then compress a cell by at most half,
    keeping the Jacobian of the densified map positive; with half-edge steps
    (one level) opposing snaps sit exactly at the fold threshold.  Both
    grids have seven labels, so the two U-Nets share one head width."""
    return (build_label_sets(CONTROL_COARSE, CONTROL_COARSE + 2),
            build_label_sets(CONTROL_FINE, CONTROL_FINE + 2))


def init_model(config: TrainConfig) -> ModelParams:
    """Seeded initial parameters: the two U-Nets.  The CRF has none; its
    Potts compatibility is fixed in the grids' kernels."""
    rng = np.random.default_rng(config.seed)
    n_l = build_grids()[0].n_labels
    return ModelParams(
        coarse=init_unet(config.bandwidth, config.channels, n_l, config.heads,
                         rng, use_graph=config.use_graph_module),
        fine=init_unet(config.bandwidth, config.channels, n_l, config.heads,
                       rng, use_graph=config.use_graph_module),
    )


_BLOCK_NAMES = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3", "head")


def _leaf_specs(model: ModelParams, trainable_only: bool = True):
    """(name, owner, attribute) triples for every parameter leaf, in a fixed
    deterministic order.  Buffers (bn running stats) are appended when
    ``trainable_only`` is false."""
    specs = []
    for scale, net in (("coarse", model.coarse), ("fine", model.fine)):
        for bname in _BLOCK_NAMES:
            block = getattr(net, bname)
            specs.append((f"{scale}.{bname}.h", block.filt, "h"))
            if block.filt.alpha is not None:    # pooling blocks have none
                specs.append((f"{scale}.{bname}.alpha", block.filt, "alpha"))
            specs.append((f"{scale}.{bname}.bn_gamma", block, "bn_gamma"))
            specs.append((f"{scale}.{bname}.bn_beta", block, "bn_beta"))
            if not trainable_only:
                specs.append((f"{scale}.{bname}.bn_mean", block, "bn_mean"))
                specs.append((f"{scale}.{bname}.bn_var", block, "bn_var"))
        if net.graph is not None:
            for lname in ("layer1", "layer2"):
                layer = getattr(net.graph, lname)
                specs.append((f"{scale}.graph.{lname}.W", layer, "W"))
                specs.append((f"{scale}.graph.{lname}.a", layer, "a"))
    return specs


def named_arrays(model: ModelParams) -> dict[str, np.ndarray]:
    """All leaves and buffers as plain arrays (checkpoint payload)."""
    return {name: np.asarray(ag.value_of(getattr(owner, attr)))
            for name, owner, attr in _leaf_specs(model, trainable_only=False)}


def _wrap_parameters(model: ModelParams) -> dict[str, "ag.Tensor"]:
    wrapped = {}
    for name, owner, attr in _leaf_specs(model):
        tensor = ag.parameter(np.asarray(getattr(owner, attr), dtype=np.float64))
        setattr(owner, attr, tensor)
        wrapped[name] = tensor
    return wrapped


def _unwrap_parameters(model: ModelParams) -> None:
    for _, owner, attr in _leaf_specs(model):
        value = getattr(owner, attr)
        if ag.is_tensor(value):
            setattr(owner, attr, value.value)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

# Control levels of the coarse and the fine stage
CONTROL_COARSE = 1
CONTROL_FINE = 2

# Synthetic pairs: RMS control-point displacement on the unit sphere and its
# harmonic degree; noise std relative to the fixed image's; per-pair detail
# std relative to the standardised template's
SYNTH_WARP_AMPLITUDE = 0.5
SYNTH_WARP_DEGREE = 2
SYNTH_NOISE = 0.1
SYNTH_DETAIL = 0.35


@dataclass
class SyntheticPair:
    fixed: SphericalSignal
    moving: SphericalSignal
    ground_truth: DeformationField


def _standardize(values: np.ndarray) -> np.ndarray:
    std = values.std()
    if std == 0:
        return values
    return (values - values.mean()) / std


def _smooth_control_moves(control, rng) -> np.ndarray:
    """Degree-``SYNTH_WARP_DEGREE`` band-limited displacement of the control
    vertices, scaled so the RMS per-vertex displacement equals
    ``SYNTH_WARP_AMPLITUDE``.

    Smoothness matters: independent per-vertex moves at any useful amplitude
    fold the densified warp, which has no inverse and makes the synthetic
    task ill-posed."""
    disp = sht_inverse(random_coefficients(SYNTH_WARP_DEGREE, 3, rng),
                       build_basis(control, SYNTH_WARP_DEGREE)).values
    rms = float(np.sqrt((disp ** 2).sum(axis=1).mean()))
    if rms == 0:
        raise NumericError("degenerate displacement draw (all zeros)")
    moves = control.vertices + (SYNTH_WARP_AMPLITUDE / rms) * disp
    moves /= np.linalg.norm(moves, axis=1, keepdims=True)
    return moves


def synth_dataset(n_pairs: int, config: TrainConfig, seed: int) -> list[SyntheticPair]:
    """Seeded registration pairs: a band-limited fixed image, a known smooth
    fold-free control-point warp, and a fresh low-amplitude perturbation.

    Fixed images share a band-limited template plus per-pair detail, the
    surrogate for inter-subject data where every subject shows the same
    anatomy with individual variation.  Shared structure is what a network
    can generalize from; fully independent random images per pair would
    leave nothing transferable between training and held-out pairs."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    from .metrics import fold_count
    control = generate_icosphere(CONTROL_COARSE)
    mesh = generate_icosphere(config.mesh_level)
    basis = build_basis(mesh, config.bandwidth // 2)    # the model's, cached

    def bandlimited(rng):
        return sht_inverse(random_coefficients(basis.L, 1, rng), basis).values

    template = _standardize(bandlimited(np.random.default_rng([seed])))
    pairs = []
    for i in range(n_pairs):
        rng = np.random.default_rng([seed, i])
        detail = bandlimited(rng)
        detail = detail * (SYNTH_DETAIL / detail.std())
        fixed_vals = _standardize(template + detail)
        fixed = SphericalSignal(config.mesh_level, fixed_vals)

        truth = None
        for _ in range(20):
            moves = _smooth_control_moves(control, rng)
            candidate = DeformationField(
                config.mesh_level,
                densify_targets(moves, CONTROL_COARSE, config.mesh_level))
            if fold_count(mesh, candidate) == 0:
                truth = candidate
                break
        if truth is None:
            raise NumericError(
                f"pair {i}: no fold-free warp in 20 draws at amplitude "
                f"{SYNTH_WARP_AMPLITUDE}")

        noise = bandlimited(rng)
        moving_vals = warp_signal(fixed, truth).values + noise * (
            SYNTH_NOISE * fixed_vals.std() / noise.std())
        pairs.append(SyntheticPair(
            fixed=fixed,
            moving=SphericalSignal(config.mesh_level, moving_vals),
            ground_truth=truth))
    return pairs


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class CascadeResult:
    warped: object            # final warped moving values (N, 1)
    warped_coarse: object     # after stage 1 only
    control1: object          # (N_c1, 3) stage-1 control targets
    control2: object          # (N_c2, 3) stage-2 control targets
    dense1: object            # (N, 3) stage-1 targets densified to the mesh
    dense2: object            # (N, 3) stage-2 targets densified to the mesh
    Q1: DeformationProbabilities
    Q2: DeformationProbabilities
    timings: dict


def _stage(values_moving, values_fixed, net: UNetParams, grid: ControlGrid,
           config: TrainConfig, training: bool, timings: dict):
    t0 = time.perf_counter()
    logits = unet_forward(values_moving, values_fixed, net, config.mesh_level,
                          training)
    Q = predict_probabilities(logits, grid)
    t1 = time.perf_counter()
    if config.use_crf:
        params = CrfParams(CRF_ITERATIONS, mean_edge_arc(grid), CRF_WEIGHT)
        Q = crf_refine(Q, grid, params)
    t2 = time.perf_counter()
    if training:
        control = soft_deformation(Q, grid)
    else:
        control = argmax_deformation(Q, grid)
    dense = densify_targets(control, grid.control_level, config.mesh_level)
    t3 = time.perf_counter()
    mesh = generate_icosphere(config.mesh_level)
    warped = warp_values(values_moving, dense, mesh)
    t4 = time.perf_counter()
    timings["forward"] = timings.get("forward", 0.0) + (t1 - t0)
    timings["crf"] = timings.get("crf", 0.0) + (t2 - t1)
    timings["densify"] = timings.get("densify", 0.0) + (t3 - t2)
    timings["warp"] = timings.get("warp", 0.0) + (t4 - t3)
    return warped, control, dense, Q


def forward_cascade(moving, fixed, model: ModelParams, config: TrainConfig,
                    training: bool = False) -> CascadeResult:
    """Run both stages.  ``moving``/``fixed`` are (N, 1) values (arrays or
    tensors).  ``training`` picks the mode (see the module docstring).  In
    independent mode the second stage sees the first stage's output as a
    constant, so no gradient crosses the scale boundary."""
    grid_coarse, grid_fine = build_grids()
    timings: dict = {}
    warped1, ctrl1, dense1, q1 = _stage(
        moving, fixed, model.coarse, grid_coarse, config, training, timings)
    stage2_in = warped1
    if config.cascade_mode == "independent":
        stage2_in = ag.value_of(warped1)
    warped2, ctrl2, dense2, q2 = _stage(
        stage2_in, fixed, model.fine, grid_fine, config, training, timings)
    return CascadeResult(warped=warped2, warped_coarse=warped1,
                         control1=ctrl1, control2=ctrl2, dense1=dense1,
                         dense2=dense2, Q1=q1, Q2=q2, timings=timings)


def composed_field(result: CascadeResult, config: TrainConfig) -> DeformationField:
    """Single full-resolution field equivalent to the cascade (stage 1 acts
    first, so it is the second argument of compose)."""
    phi1 = DeformationField(config.mesh_level, ag.value_of(result.dense1))
    phi2 = DeformationField(config.mesh_level, ag.value_of(result.dense2))
    return compose(phi2, phi1)


def total_loss(result: CascadeResult, fixed, config: TrainConfig):
    """loss_sim + loss_reg per the cascade mode (see train()).  Returns
    (loss, sim_part, reg_part) as graph nodes / floats."""
    reg = loss_reg((result.control1, CONTROL_COARSE),
                   (result.control2, CONTROL_FINE),
                   config.lambda1, config.lambda2)
    sim = loss_sim(fixed, result.warped)
    if config.cascade_mode == "independent":
        sim = ag.add(sim, loss_sim(fixed, result.warped_coarse))
    return ag.add(sim, reg), sim, reg


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class Adam:
    """Standard Adam with bias correction, beta = (0.9, 0.999), eps = 1e-8."""

    def __init__(self, names: list[str], lr: float):
        self.lr = lr
        self.step_count = 0
        self.m = {name: 0.0 for name in names}
        self.v = {name: 0.0 for name in names}

    def step(self, tensors: dict[str, "ag.Tensor"]) -> None:
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        correction1 = 1.0 - b1 ** self.step_count
        correction2 = 1.0 - b2 ** self.step_count
        for name, tensor in tensors.items():
            g = tensor.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / correction1
            v_hat = self.v[name] / correction2
            tensor.value -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


def _parameter_norms(model: ModelParams) -> dict[str, float]:
    return {name: float(np.linalg.norm(value))
            for name, value in named_arrays(model).items()}


def train(config: TrainConfig, dataset: list[SyntheticPair],
          val_dataset: list[SyntheticPair] | None = None,
          log_path=None, checkpoint_path=None):
    """Adam training loop from ``init_model(config)``.  Returns (model,
    history); history rows carry epoch, loss, loss_sim, loss_reg, cc_val.
    The log CSV and the per-epoch checkpoint are written when paths are
    given."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    model = init_model(config)
    val_pairs = val_dataset if val_dataset else dataset[:min(8, len(dataset))]

    tensors = _wrap_parameters(model)
    optimizer = Adam(list(tensors), config.learning_rate)
    history = []
    try:
        for epoch in range(1, config.epochs + 1):
            sums = np.zeros(3)
            n_batches = 0
            for start in range(0, len(dataset), config.batch_size):
                batch = dataset[start:start + config.batch_size]
                for tensor in tensors.values():
                    tensor.grad = None
                batch_stats = []
                for pair in batch:
                    result = forward_cascade(
                        pair.moving.values, pair.fixed.values, model, config,
                        training=True)
                    loss, sim, reg = total_loss(result, pair.fixed.values,
                                                config)
                    loss_value = float(ag.value_of(loss))
                    if not np.isfinite(loss_value):
                        raise NumericError(
                            f"non-finite loss {loss_value} at epoch {epoch}, "
                            f"batch {n_batches}; parameter norms: "
                            f"{_parameter_norms(model)}")
                    ag.mul(loss, 1.0 / len(batch)).backward()
                    batch_stats.append((loss_value, float(ag.value_of(sim)),
                                        float(ag.value_of(reg))))
                optimizer.step(tensors)
                sums += np.mean(batch_stats, axis=0)
                n_batches += 1
            epoch_loss, epoch_sim, epoch_reg = (float(x) for x in sums / n_batches)

            _unwrap_parameters(model)
            cc_val = evaluate_cc(model, config, val_pairs)
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, config, model)
            tensors = _wrap_parameters(model)

            history.append({"epoch": epoch, "loss": epoch_loss,
                            "loss_sim": epoch_sim, "loss_reg": epoch_reg,
                            "cc_val": cc_val})
    finally:
        _unwrap_parameters(model)

    if log_path is not None:
        lines = ["epoch,loss,loss_sim,loss_reg,cc_val"]
        lines += [f"{row['epoch']},{row['loss']!r},{row['loss_sim']!r},"
                  f"{row['loss_reg']!r},{row['cc_val']!r}"
                  for row in history]
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    return model, history


def evaluate_cc(model: ModelParams, config: TrainConfig,
                pairs: list[SyntheticPair]) -> float:
    """Mean held-out Pearson CC of registered pairs (inference mode)."""
    scores = []
    for pair in pairs:
        result = forward_cascade(pair.moving.values, pair.fixed.values, model,
                                 config)
        scores.append(float(ag.value_of(
            pearson_cc(pair.fixed.values, ag.value_of(result.warped)))))
    return float(np.mean(scores))


def register_pair(model: ModelParams, config: TrainConfig,
                  moving: SphericalSignal, fixed: SphericalSignal):
    """Inference: returns (field, warped signal, result) where ``field`` is
    the composed full-resolution deformation."""
    if moving.level != config.mesh_level or fixed.level != config.mesh_level:
        raise ValueError(
            f"signals must be at mesh level {config.mesh_level}")
    result = forward_cascade(moving.values, fixed.values, model, config)
    field = composed_field(result, config)
    warped = SphericalSignal(config.mesh_level, ag.value_of(result.warped))
    return field, warped, result


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

_FAMILIES = ("h", "alpha", "bn_gamma", "bn_beta", "W", "a")
_SAMPLES_PER_FAMILY = 9
_FD_STEP = 1e-5


def gradient_check(config: TrainConfig, pair: SyntheticPair,
                   rng=None) -> float:
    """Max relative error between reverse-mode and central finite-difference
    gradients of the total loss, sampling coordinates from every parameter
    family.  Relative error uses max(|fd|, |grad|, 1e-6) as denominator.
    The forwards update this private model's buffers, which they never read."""
    rng = np.random.default_rng(0) if rng is None else rng
    model = init_model(config)

    def run_loss():
        result = forward_cascade(pair.moving.values, pair.fixed.values, model,
                                 config, training=True)
        loss, _, _ = total_loss(result, pair.fixed.values, config)
        return loss

    tensors = _wrap_parameters(model)
    loss = run_loss()
    loss.backward()
    grads = {name: t.grad.copy() for name, t in tensors.items()}
    _unwrap_parameters(model)

    specs = _leaf_specs(model)
    worst = 0.0
    for family in _FAMILIES:
        members = [(name, owner, attr) for name, owner, attr in specs
                   if attr == family or name.endswith(f".{family}")]
        if not members:
            continue
        for _ in range(_SAMPLES_PER_FAMILY):
            name, owner, attr = members[rng.integers(len(members))]
            base = getattr(owner, attr)
            flat_index = int(rng.integers(base.size))
            idx = np.unravel_index(flat_index, base.shape)
            original = base[idx]
            base[idx] = original + _FD_STEP
            f_plus = float(ag.value_of(run_loss()))
            base[idx] = original - _FD_STEP
            f_minus = float(ag.value_of(run_loss()))
            base[idx] = original
            fd = (f_plus - f_minus) / (2 * _FD_STEP)
            analytic = grads[name][idx]
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path, config: TrainConfig, model: ModelParams) -> None:
    fileio.write_checkpoint(path, dataclasses.asdict(config),
                            named_arrays(model))


def load_checkpoint(path) -> tuple[TrainConfig, ModelParams]:
    """Config and model from a ``.sphk`` file; a config that is not a valid
    TrainConfig, or tensors that do not fit it, raise FormatError at the
    config blob."""
    data, tensors = fileio.read_checkpoint(path)
    if isinstance(data, str):
        raise FormatError(fileio.CHECKPOINT_CONFIG_OFFSET,
                          f"{path}: config is not a JSON object but a JSON "
                          "string, as in checkpoints that encoded it twice; "
                          "train the model again")
    try:
        config = TrainConfig.from_dict(data)
    except (ValueError, TypeError) as exc:
        raise FormatError(fileio.CHECKPOINT_CONFIG_OFFSET,
                          f"{path}: bad config ({exc})") from None
    model = init_model(config)
    expected = named_arrays(model)
    if set(tensors) != set(expected):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise FormatError(fileio.CHECKPOINT_CONFIG_OFFSET,
                          f"{path}: tensor names do not fit the config: "
                          f"missing {missing}, unexpected {extra}")
    for name, owner, attr in _leaf_specs(model, trainable_only=False):
        stored = tensors[name]
        if stored.shape != expected[name].shape:
            raise FormatError(fileio.CHECKPOINT_CONFIG_OFFSET,
                              f"{path}: tensor {name} has shape "
                              f"{stored.shape}, the config needs "
                              f"{expected[name].shape}")
        setattr(owner, attr, stored)
    return config, model


# ---------------------------------------------------------------------------
# initial linear alignment
# ---------------------------------------------------------------------------

def _golden_spiral_axes(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    phi = np.pi * (1 + np.sqrt(5.0)) * k
    z = 1 - 2 * k / n
    r = np.sqrt(1 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def align_search(moving: SphericalSignal, fixed: SphericalSignal,
                 n_axes: int = 32, n_angles: int = 16):
    """Coarse SO(3) grid search for the rotation field maximizing Pearson CC.

    Rotations are sampled as golden-spiral axes times uniformly spaced
    angles; CC is scored at mesh level 2 (or the input's, if coarser), and
    the first rotation with the largest CC wins.  The candidates of one
    axis are located and resampled in one batch, which keeps the locator's
    arrays small, and one ``pearson_cc`` call scores the candidates of all
    axes: point location and ``pearson_cc`` work row by row, so each
    candidate's values and CC are those it would get alone.
    Returns (field at the input level, best cc)."""
    for name, count in (("n_axes", n_axes), ("n_angles", n_angles)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if moving.level != fixed.level:
        raise ValueError("signals must share a mesh level")
    level = min(2, moving.level)
    coarse_mesh = generate_icosphere(level)
    n_coarse = coarse_mesh.n_vertices
    m_coarse = moving.values[:n_coarse]
    f_coarse = fixed.values[:n_coarse]

    mesh = generate_icosphere(moving.level)
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    # Rodrigues' formula I + sin(a) K + (1 - cos(a)) K^2, with the scalar
    # sin and cos calls of one rotation at a time (the array calls may
    # round differently)
    sines = np.array([np.sin(a) for a in angles])[:, None, None]
    versines = np.array([1 - np.cos(a) for a in angles])[:, None, None]
    rotations = np.empty((n_axes, n_angles, 3, 3))
    warped = np.empty((n_axes, n_angles * n_coarse, m_coarse.shape[1]))
    for axis, (x, y, z) in enumerate(_golden_spiral_axes(n_axes)):
        K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        rotations[axis] = np.eye(3) + sines * K + versines * (K @ K)
        targets = (coarse_mesh.vertices
                   @ rotations[axis].transpose(0, 2, 1)).reshape(-1, 3)
        targets /= _norm3(targets)[:, None]
        warped[axis] = barycentric_resample(m_coarse, coarse_mesh, targets)
    # a candidate's (N, C) values as one row: reduced over its N * C
    # contiguous values, as a lone call on the (N, C) block is; the first
    # largest CC is the candidate a strict > over the rows in order keeps
    ccs = pearson_cc(f_coarse.reshape(-1, 1),
                     warped.reshape(n_axes * n_angles, -1))
    best = int(np.argmax(ccs))
    targets = mesh.vertices @ rotations.reshape(-1, 3, 3)[best].T
    targets /= _norm3(targets)[:, None]
    return DeformationField(moving.level, targets), float(ccs[best])
