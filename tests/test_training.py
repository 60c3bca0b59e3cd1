"""Synthetic data, cascade forward pass, loss wiring, training loop,
checkpoints, and the coarse rotational alignment search.

Training runs here use a reduced geometry (level 2, bandwidth 8) so the
whole file stays fast.  The desk-scale loss-trend check reads check 08's
training run in ``test_acceptance``, which trains that configuration anyway.
"""

import dataclasses
import json

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg import training
from sphreg.crf import (CRF_ITERATIONS, CRF_WEIGHT, CrfParams, crf_refine,
                        mean_edge_arc)
from sphreg.discrete_reg import predict_probabilities, unet_forward
from sphreg.graph_attention import init_graph_module
from sphreg.icosphere import SphericalSignal, generate_icosphere
from sphreg.metrics import distortion_report, pearson_cc
from sphreg.shconv import init_block
from sphreg.training import (CONTROL_COARSE, CONTROL_FINE, ModelParams,
                             TrainConfig, align_search, build_grids,
                             composed_field, forward_cascade,
                             init_model, load_checkpoint, named_arrays,
                             register_pair, save_checkpoint, synth_dataset,
                             total_loss, train)
from sphreg.training import (_golden_spiral_axes, _unwrap_parameters,
                             _wrap_parameters)
from sphreg.warp import DeformationField, warp_signal


def tiny_config(**overrides) -> TrainConfig:
    base = dict(mesh_level=2, bandwidth=8, channels=4, heads=2, epochs=3,
                batch_size=4, learning_rate=0.05)
    base.update(overrides)
    return TrainConfig(**base)


def zero_head(model: ModelParams) -> None:
    for net in (model.coarse, model.fine):
        net.head.filt.h[...] = 0.0
        net.head.filt.alpha[...] = 0.0
        net.head.bn_beta[...] = 0.0


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def test_synth_same_seed_bit_identical():
    cfg = tiny_config()
    first = synth_dataset(4, cfg, seed=5)
    second = synth_dataset(4, cfg, seed=5)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.fixed.values, b.fixed.values)
        np.testing.assert_array_equal(a.moving.values, b.moving.values)
        np.testing.assert_array_equal(a.ground_truth.targets,
                                      b.ground_truth.targets)


def test_synth_seeds_differ():
    cfg = tiny_config()
    a = synth_dataset(1, cfg, seed=1)[0]
    b = synth_dataset(1, cfg, seed=2)[0]
    assert not np.array_equal(a.fixed.values, b.fixed.values)


def test_synth_ground_truth_is_fold_free():
    cfg = TrainConfig()
    mesh = generate_icosphere(cfg.mesh_level)
    for pair in synth_dataset(3, cfg, seed=11):
        assert distortion_report(mesh, pair.ground_truth).fold_count == 0


def test_synth_unregistered_cc_band():
    cfg = TrainConfig()
    ccs = [float(pearson_cc(p.moving.values, p.fixed.values))
           for p in synth_dataset(50, cfg, seed=0)]
    assert min(ccs) > 0.3
    assert max(ccs) < 0.95


def test_synth_rejects_nonpositive_count():
    with pytest.raises(ValueError, match="n_pairs"):
        synth_dataset(0, tiny_config(), seed=0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="cascade_mode"):
        TrainConfig(cascade_mode="parallel")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="fine control level 2, got 1"):
        TrainConfig(mesh_level=1)
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        TrainConfig(lambda1=-0.1)


def test_build_grids_gives_seven_labels_at_the_fixed_control_levels():
    coarse, fine = build_grids()
    assert (coarse.control_level, fine.control_level) == (1, 2)
    assert (coarse.label_level, fine.label_level) == (3, 4)
    assert coarse.n_labels == fine.n_labels == 7


def test_config_json_roundtrip():
    cfg = tiny_config(lambda1=0.125, use_graph_module=False)
    clone = TrainConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert clone == cfg
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({"momentum": 0.9})


# ---------------------------------------------------------------------------
# forward cascade
# ---------------------------------------------------------------------------

def test_untrained_zero_head_registers_as_identity():
    # uniform probabilities decode to the identity label at every control
    # point, so the composed field is the identity and warping is a no-op;
    # exact only on the CRF-off path (mean-field breaks the tie: the
    # identity label sits closest to the others and so collects the
    # largest smoothness message)
    for cfg in (tiny_config(use_crf=False), TrainConfig(use_crf=False)):
        pair = synth_dataset(1, cfg, seed=3)[0]
        model = init_model(cfg)
        zero_head(model)
        field, warped, result = register_pair(model, cfg, pair.moving,
                                              pair.fixed)
        np.testing.assert_array_equal(warped.values, pair.moving.values)
        np.testing.assert_array_equal(
            field.targets, generate_icosphere(cfg.mesh_level).vertices)


def test_identity_init_is_near_loss_minimum():
    # the soft decode of uniform probabilities is not exactly the identity
    # (label rings are not perfectly symmetric), so the loss and gradients
    # at identity initialization are small but not zero
    cfg = tiny_config(use_crf=False)
    pair = synth_dataset(1, cfg, seed=3)[0]

    def loss_at(moving_values):
        model = init_model(cfg)
        zero_head(model)
        result = forward_cascade(moving_values, pair.fixed.values, model,
                                 cfg, training=True)
        return float(ag.value_of(total_loss(result, pair.fixed.values,
                                            cfg)[0]))

    matched = loss_at(pair.fixed.values)
    displaced = loss_at(pair.moving.values)
    assert matched < 0.05
    assert matched < displaced


def test_forward_cascade_matches_composed_field():
    # the composition check runs on a smooth probe signal: band-limited
    # synthetic images carry mesh-scale curvature, and double versus single
    # interpolation of such a signal differs by far more than the field
    # composition error being verified here
    cfg = TrainConfig()
    pair = synth_dataset(1, cfg, seed=9)[0]
    model = init_model(cfg)
    result = forward_cascade(pair.moving.values, pair.fixed.values, model,
                             cfg)
    field = composed_field(result, cfg)

    from sphreg.warp import DeformationField, compose, densify_targets
    phi1 = DeformationField(cfg.mesh_level, densify_targets(
        ag.value_of(result.control1), CONTROL_COARSE, cfg.mesh_level))
    phi2 = DeformationField(cfg.mesh_level, densify_targets(
        ag.value_of(result.control2), CONTROL_FINE, cfg.mesh_level))
    np.testing.assert_array_equal(field.targets,
                                  compose(phi2, phi1).targets)

    mesh = generate_icosphere(cfg.mesh_level)
    probe = SphericalSignal(cfg.mesh_level, mesh.vertices[:, 2:3].copy())
    stepped = warp_signal(warp_signal(probe, phi1), phi2)
    fused = warp_signal(probe, field)
    assert np.max(np.abs(fused.values - stepped.values)) < 1e-2


def test_loss_invariant_to_common_signal_shift():
    cfg = tiny_config(use_crf=True)
    pair = synth_dataset(1, cfg, seed=15)[0]

    def loss_with_offset(c: float) -> float:
        model = init_model(cfg)
        result = forward_cascade(pair.moving.values + c,
                                 pair.fixed.values + c, model, cfg,
                                 training=True)
        return float(ag.value_of(total_loss(result, pair.fixed.values + c,
                                            cfg)[0]))

    assert abs(loss_with_offset(0.0) - loss_with_offset(1.7)) < 1e-9


def test_lambda_zero_makes_loss_pure_similarity():
    cfg = tiny_config(lambda1=0.0, lambda2=0.0)
    pair = synth_dataset(1, cfg, seed=17)[0]
    model = init_model(cfg)
    result = forward_cascade(pair.moving.values, pair.fixed.values, model,
                             cfg, training=True)
    loss, sim, reg = total_loss(result, pair.fixed.values, cfg)
    assert float(ag.value_of(reg)) == 0.0
    assert float(ag.value_of(loss)) == float(ag.value_of(sim))


def test_soft_matches_hard_when_probabilities_are_one_hot():
    cfg = tiny_config(use_crf=False)
    pair = synth_dataset(1, cfg, seed=19)[0]
    model = init_model(cfg)
    # saturate the head bias so every row is numerically one-hot
    for net in (model.coarse, model.fine):
        net.head.filt.h[...] = 0.0
        net.head.filt.alpha[...] = 0.0
        net.head.bn_beta[...] = 0.0
        net.head.bn_beta[0] = 60.0
    # inference first: the training forward moves the running buffers
    hard = forward_cascade(pair.moving.values, pair.fixed.values, model, cfg)
    soft = forward_cascade(pair.moving.values, pair.fixed.values, model, cfg,
                           training=True)
    np.testing.assert_allclose(ag.value_of(soft.control1),
                               ag.value_of(hard.control1), atol=1e-12)


def test_training_mode_never_reads_running_buffers():
    # every training-mode forward may update the buffers because none reads
    # them: the second call runs on buffers the first one moved
    cfg = tiny_config()
    pair = synth_dataset(1, cfg, seed=29)[0]
    model = init_model(cfg)
    start = model.coarse.enc1.bn_mean.copy()
    first = forward_cascade(pair.moving.values, pair.fixed.values, model, cfg,
                            training=True)
    moved = model.coarse.enc1.bn_mean.copy()
    second = forward_cascade(pair.moving.values, pair.fixed.values, model,
                             cfg, training=True)
    assert not np.array_equal(moved, start)
    assert not np.array_equal(model.coarse.enc1.bn_mean, moved)
    assert (ag.value_of(first.warped).tobytes()
            == ag.value_of(second.warped).tobytes())


def test_crf_schedule_defaults_from_grid():
    # each stage's kernel bandwidth is its grid's mean control edge arc
    cfg = tiny_config()
    grid = build_grids()[0]
    model = init_model(cfg)
    pair = synth_dataset(1, cfg, seed=31)[0]
    result = forward_cascade(pair.moving.values, pair.fixed.values, model, cfg)
    logits = unet_forward(pair.moving.values, pair.fixed.values, model.coarse,
                          cfg.mesh_level, training=False)
    unrefined = predict_probabilities(logits, grid)

    def refined(sigma: float) -> bytes:
        params = CrfParams(CRF_ITERATIONS, sigma, CRF_WEIGHT)
        return crf_refine(unrefined, grid, params).value.tobytes()

    assert result.Q1.value.tobytes() == refined(mean_edge_arc(grid))
    assert result.Q1.value.tobytes() != refined(0.5 * mean_edge_arc(grid))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_is_bit_deterministic(tmp_path):
    cfg = tiny_config()
    dataset = synth_dataset(4, cfg, seed=21)

    runs = []
    for tag in ("a", "b"):
        log = tmp_path / f"log_{tag}.csv"
        ckpt = tmp_path / f"model_{tag}.ckpt"
        model, history = train(cfg, dataset, log_path=log,
                               checkpoint_path=ckpt)
        runs.append((named_arrays(model), history,
                     ckpt.read_bytes(), log.read_text()))

    arrays_a, hist_a, ckpt_a, log_a = runs[0]
    arrays_b, hist_b, ckpt_b, log_b = runs[1]
    assert hist_a == hist_b
    assert ckpt_a == ckpt_b
    assert log_a == log_b
    for name in arrays_a:
        np.testing.assert_array_equal(arrays_a[name], arrays_b[name])


def test_training_log_format(tmp_path):
    cfg = tiny_config(epochs=2)
    dataset = synth_dataset(2, cfg, seed=23)
    log = tmp_path / "train.csv"
    _, history = train(cfg, dataset, log_path=log)
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,loss_sim,loss_reg,cc_val"
    assert len(lines) == 1 + cfg.epochs
    for row, line in zip(history, lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == row["epoch"]
        assert float(cells[1]) == row["loss"]
        assert float(cells[4]) == row["cc_val"]


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="non-empty"):
        train(tiny_config(), [])


def test_graph_ablation_keeps_spectral_initialisation():
    # turning the graph module off must not shift the random stream that
    # initialises the decoder, the head and the whole fine U-Net
    with_graph = named_arrays(init_model(TrainConfig(use_graph_module=True)))
    without = named_arrays(init_model(TrainConfig(use_graph_module=False)))
    spectral = [name for name in with_graph if ".graph." not in name]
    assert sorted(spectral) == sorted(without)
    for name in spectral:
        np.testing.assert_array_equal(with_graph[name], without[name])


def test_init_keeps_the_draw_order_of_residual_pooling_blocks():
    # the pooling blocks' alphas are drawn and dropped, so every parameter
    # starts from the numbers of a U-Net whose seven blocks all draw one
    config = TrainConfig()
    rng = np.random.default_rng(config.seed)
    n_l = build_grids()[0].n_labels
    L, c = config.bandwidth, config.channels
    expected = {}
    for scale in ("coarse", "fine"):
        blocks = {"enc1": init_block(c, 2, L, rng),
                  "enc2": init_block(2 * c, c, L // 2, rng),
                  "enc3": init_block(4 * c, 2 * c, L // 4, rng)}
        graph = init_graph_module(4 * c, config.heads, rng)
        blocks.update(dec1=init_block(4 * c, 8 * c, L // 4, rng),
                      dec2=init_block(2 * c, 6 * c, L // 2, rng),
                      dec3=init_block(c, 3 * c, L, rng),
                      head=init_block(n_l, c, L, rng, relu=False))
        for bname, block in blocks.items():
            arrays = {"h": block.filt.h, "alpha": block.filt.alpha,
                      "bn_gamma": block.bn_gamma, "bn_beta": block.bn_beta,
                      "bn_mean": block.bn_mean, "bn_var": block.bn_var}
            if bname in ("enc2", "enc3"):
                del arrays["alpha"]
            for key, array in arrays.items():
                expected[f"{scale}.{bname}.{key}"] = array
        for lname in ("layer1", "layer2"):
            layer = getattr(graph, lname)
            expected[f"{scale}.graph.{lname}.W"] = layer.W
            expected[f"{scale}.graph.{lname}.a"] = layer.a
    actual = named_arrays(init_model(config))
    # the CRF's Potts compatibility is fixed, so the CRF has no parameter
    assert not [name for name in actual if name.startswith("crf.")]
    assert sorted(actual) == sorted(expected)
    for name, array in expected.items():
        assert actual[name].tobytes() == array.tobytes(), name


def test_register_pair_rejects_level_mismatch():
    cfg = tiny_config()
    model = init_model(cfg)
    wrong = SphericalSignal(3, np.zeros((642, 1)))
    with pytest.raises(ValueError, match="mesh level"):
        register_pair(model, cfg, wrong, wrong)


def test_register_pair_builds_no_tensors(monkeypatch):
    # inference runs the training forward code on plain arrays; no op may
    # record a node when none of its inputs is a Tensor
    cfg = TrainConfig()
    model = init_model(cfg)
    pair = synth_dataset(1, cfg, seed=0)[0]
    created = []
    original = ag.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ag.Tensor, "__init__", counting_init)
    ag.add(ag.Tensor(np.ones(2)), 1.0)
    assert len(created) == 2          # the counter sees leaves and nodes
    created.clear()
    field, warped, _ = register_pair(model, cfg, pair.moving, pair.fixed)
    assert len(created) == 0
    assert type(warped.values) is np.ndarray


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = tiny_config(use_graph_module=True)
    pair = synth_dataset(1, cfg, seed=25)[0]
    model = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, model)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == cfg

    saved = named_arrays(model)
    restored = named_arrays(loaded)
    assert set(saved) == set(restored)
    for name in saved:
        np.testing.assert_array_equal(saved[name], restored[name])

    a = forward_cascade(pair.moving.values, pair.fixed.values, model, cfg)
    b = forward_cascade(pair.moving.values, pair.fixed.values, loaded, cfg)
    np.testing.assert_array_equal(ag.value_of(a.warped),
                                  ag.value_of(b.warped))


# ---------------------------------------------------------------------------
# rotational alignment search
# ---------------------------------------------------------------------------

def test_align_search_recovers_global_rotation():
    cfg = tiny_config()
    pair = synth_dataset(1, cfg, seed=27)[0]
    mesh = generate_icosphere(cfg.mesh_level)
    angle = 0.35
    K = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)
    targets = mesh.vertices @ R.T
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    from sphreg.warp import DeformationField
    rotated = warp_signal(pair.fixed, DeformationField(cfg.mesh_level,
                                                       targets))

    pre = float(pearson_cc(rotated.values, pair.fixed.values))
    field, best_cc = align_search(rotated, pair.fixed)
    aligned = warp_signal(rotated, field)
    post = float(pearson_cc(aligned.values, pair.fixed.values))
    assert post > pre + 0.05
    assert best_cc > pre


def per_rotation_align(moving, fixed, n_axes, n_angles):
    """Reference: each candidate rotation built, warped and scored on its
    own, the rotation by Rodrigues' formula for one axis and angle."""
    level = min(2, moving.level)
    coarse = generate_icosphere(level)
    m_coarse = SphericalSignal(level, moving.values[:coarse.n_vertices].copy())
    f_coarse = fixed.values[:coarse.n_vertices]
    best_cc, best_rotation = -np.inf, np.eye(3)
    for x, y, z in _golden_spiral_axes(n_axes):
        K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        for angle in np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False):
            rotation = (np.eye(3) + np.sin(angle) * K
                        + (1 - np.cos(angle)) * (K @ K))
            targets = coarse.vertices @ rotation.T
            targets /= np.linalg.norm(targets, axis=1, keepdims=True)
            warped = warp_signal(m_coarse, DeformationField(level, targets))
            cc = float(ag.value_of(pearson_cc(f_coarse, warped.values)))
            if cc > best_cc:
                best_cc, best_rotation = cc, rotation
    targets = generate_icosphere(moving.level).vertices @ best_rotation.T
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return targets, best_cc


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("n_axes,n_angles", [(5, 3), (4, 1), (1, 1), (3, 4)])
def test_align_search_matches_per_rotation_reference(level, n_axes, n_angles,
                                                     monkeypatch):
    calls = []
    score = training.pearson_cc

    def counting_cc(*args):
        calls.append(args[1].shape)
        return score(*args)

    monkeypatch.setattr(training, "pearson_cc", counting_cc)
    mesh = generate_icosphere(level)
    for channels in (1, 2):
        rng = np.random.default_rng(level)
        fixed = SphericalSignal(level, rng.standard_normal((mesh.n_vertices,
                                                            channels)))
        rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotation *= np.sign(np.linalg.det(rotation))
        rotated = mesh.vertices @ rotation.T
        rotated /= np.linalg.norm(rotated, axis=1, keepdims=True)
        moving = warp_signal(fixed, DeformationField(level, rotated))
        calls.clear()
        field, best_cc = align_search(moving, fixed, n_axes=n_axes,
                                      n_angles=n_angles)
        # one call scores every candidate
        assert calls == [(n_axes * n_angles, 162 * channels)]
        targets, expected_cc = per_rotation_align(moving, fixed, n_axes,
                                                  n_angles)
        np.testing.assert_array_equal(field.targets, targets)
        assert best_cc == expected_cc, f"{channels} channels"


def test_align_search_rejects_constant_moving_signal():
    rng = np.random.default_rng(0)
    fixed = SphericalSignal(2, rng.standard_normal((162, 1)))
    for value in (1.0, 0.1):
        with pytest.raises(ValueError, match="zero variance"):
            align_search(SphericalSignal(2, np.full((162, 1), value)), fixed,
                         n_axes=5, n_angles=3)


@pytest.mark.parametrize("n_axes,n_angles", [(0, 3), (-2, 3), (5, 0), (5, -1)])
def test_align_search_rejects_empty_grid(n_axes, n_angles, monkeypatch):
    # counts below one searched nothing and returned the identity at -inf
    def no_work(*args, **kwargs):
        raise AssertionError("align_search worked before checking counts")
    monkeypatch.setattr("sphreg.training.generate_icosphere", no_work)
    rng = np.random.default_rng(0)
    signal = SphericalSignal(2, rng.standard_normal((162, 1)))
    name = "n_axes" if n_axes < 1 else "n_angles"
    with pytest.raises(ValueError, match=name):
        align_search(signal, signal, n_axes=n_axes, n_angles=n_angles)


def test_align_search_rejects_level_mismatch():
    a = SphericalSignal(1, np.random.default_rng(0).standard_normal((42, 1)))
    b = SphericalSignal(2, np.random.default_rng(1).standard_normal((162, 1)))
    with pytest.raises(ValueError, match="level"):
        align_search(a, b)


def test_training_cascade_tape_size(tape_counter):
    # a conv block is three nodes (convolution, batch norm, ReLU) and a
    # cross product one; as chains of elementary ops they made the cascade
    # 653 nodes
    config = TrainConfig()
    pair = synth_dataset(1, config, 0)[0]
    model = init_model(config)
    _wrap_parameters(model)
    try:
        tape_counter["nodes"] = 0
        forward_cascade(pair.moving.values, pair.fixed.values, model, config,
                        training=True)
    finally:
        _unwrap_parameters(model)
    assert tape_counter["nodes"] <= 300
