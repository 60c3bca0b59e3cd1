"""Zonal spectral convolution against a brute-force oracle."""

import copy

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg.icosphere import generate_icosphere
from sphreg.sht import build_basis, random_bandlimited
from sphreg.shconv import (BlockParams, ZonalFilter, batch_norm,
                           degree_of_index, degree_scale, init_block,
                           init_zonal_filter, shconv_block, zonal_convolve)


def oracle_convolve(values, filt, basis):
    """Dense per-coefficient reference: analyse, scale every (l, m) by
    C(l) * h[l], synthesise, then add the alpha residual channel mix."""
    h = ag.value_of(filt.h)
    alpha = ag.value_of(filt.alpha)
    c_out, c_in, _ = h.shape
    L = filt.L_in
    n = values.shape[0]
    out = np.zeros((n, c_out))
    scale = degree_scale(L)
    for o in range(c_out):
        for i in range(c_in):
            coeffs = basis.forward @ values[:, i]
            shaped = np.zeros((L + 1) ** 2)
            for l in range(L + 1):
                gain = scale[l] * (h[o, i, l] - alpha[o, i] / scale[l])
                for m in range(-l, l + 1):
                    idx = l * l + l + m
                    shaped[idx] = gain * coeffs[idx]
            out[:, o] += basis.Y[:, :(L + 1) ** 2] @ shaped
            out[:, o] += alpha[o, i] * values[:, i]
    return out


def test_matches_dense_oracle():
    # the flat degree table that spreads per-degree gains over (l, m) slots
    for L in range(17):
        expected = np.empty((L + 1) ** 2, dtype=np.int64)
        for l in range(L + 1):
            expected[l * l:(l + 1) * (l + 1)] = l
        got = degree_of_index(L)
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == np.int64

    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        filt = init_zonal_filter(2, 3, 8, rng)
        values = rng.standard_normal((mesh.n_vertices, 3))
        ours = ag.value_of(zonal_convolve(values, filt, basis))
        ref = oracle_convolve(values, filt, basis)
        worst = max(worst, np.abs(ours - ref).max())
    assert worst < 1e-8


def test_identity_filter_reproduces_bandlimited_input():
    # h[l] = 1 / C(l), alpha = 0 makes every spectral gain exactly one.
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, 8)
    rng = np.random.default_rng(1)
    signal = random_bandlimited(3, 8, 1, rng)
    filt = ZonalFilter(h=(1.0 / degree_scale(8))[None, None, :],
                       alpha=np.zeros((1, 1)))
    out = ag.value_of(zonal_convolve(signal.values, filt, basis))
    assert np.abs(out - signal.values).max() < 1e-6


def test_alpha_cancellation_passes_alpha_times_input():
    # h[l] = alpha / C(l) zeroes the spectral bracket bitwise, leaving the
    # residual alpha * f even for signals with content above the bandwidth.
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 6)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((mesh.n_vertices, 1))
    alpha = 0.7
    filt = ZonalFilter(h=alpha / degree_scale(6)[None, None, :],
                       alpha=np.array([[alpha]]))
    out = ag.value_of(zonal_convolve(values, filt, basis))
    np.testing.assert_array_equal(out, alpha * values)


def test_alpha_cancels_on_band_limited_input():
    # on input limited to the filter's degrees the spectral path's -alpha * f
    # cancels the residual alpha * f, so alpha has no effect on the output;
    # the pooled encoder blocks see only such input
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, 16)
    rng = np.random.default_rng(15)
    filt = init_zonal_filter(4, 3, 16, rng)
    redrawn = ZonalFilter(h=filt.h, alpha=rng.uniform(-1, 1, filt.alpha.shape))
    noise = rng.standard_normal((mesh.n_vertices, 3))
    limited = basis.Y @ (basis.forward @ noise)

    def alpha_effect(values):
        return np.abs(zonal_convolve(values, filt, basis)
                      - zonal_convolve(values, redrawn, basis)).max()

    assert alpha_effect(limited) < 1e-12
    assert alpha_effect(noise) > 1.0


def test_input_validation():
    mesh = generate_icosphere(1)
    basis = build_basis(mesh, 4)
    rng = np.random.default_rng(4)
    filt = init_zonal_filter(1, 2, 4, rng)
    with pytest.raises(ValueError):
        zonal_convolve(np.zeros((42, 1)), filt, basis)       # channel count
    with pytest.raises(ValueError):
        zonal_convolve(np.zeros((12, 2)), filt, basis)       # wrong mesh
    with pytest.raises(ValueError, match="bandwidth"):
        zonal_convolve(np.zeros((42, 2)), init_zonal_filter(1, 2, 5, rng),
                       basis)


def test_batch_norm_training_stats_and_running_update():
    rng = np.random.default_rng(7)
    params = init_block(3, 2, 4, rng)
    values = rng.standard_normal((100, 3)) * 2.0 + 1.5
    out = ag.value_of(batch_norm(values, params, training=True))
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-3
    # one momentum-0.1 update pulls the buffers toward the batch stats
    np.testing.assert_allclose(params.bn_mean, 0.1 * values.mean(axis=0),
                               atol=1e-12)
    inference = ag.value_of(batch_norm(values, params, training=False))
    assert inference.shape == values.shape


def test_block_relu_clamps_and_block_shapes():
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 6)
    rng = np.random.default_rng(8)
    params = init_block(4, 2, 6, rng)
    values = rng.standard_normal((mesh.n_vertices, 2))
    out = ag.value_of(shconv_block(values, params, basis, training=True))
    assert out.shape == (mesh.n_vertices, 4)
    assert out.min() >= 0.0
    no_relu = init_block(4, 2, 6, rng, relu=False)
    out2 = ag.value_of(shconv_block(values, no_relu, basis, training=True))
    assert out2.min() < 0.0


def test_gradients_flow_through_block():
    mesh = generate_icosphere(1)
    basis = build_basis(mesh, 4)
    rng = np.random.default_rng(9)
    params = init_block(2, 1, 4, rng)
    filt_h = ag.Tensor(ag.value_of(params.filt.h).copy())
    params.filt.h = filt_h
    values = rng.standard_normal((42, 1))
    out = shconv_block(values, params, basis, training=True)
    ag.reduce_sum(ag.square(out)).backward()
    assert filt_h.grad is not None
    assert np.isfinite(filt_h.grad).all()
    assert np.abs(filt_h.grad).max() > 0


# ---------------------------------------------------------------------------
# the fused block against the chain of elementary ops it replaced
# ---------------------------------------------------------------------------

def take_degrees(gains, degrees):
    """The per-degree gain gather as one recorded op whose backward is
    np.add.at on the degree axis, the reference order of the scatter."""
    v = ag.value_of(gains)

    def backward(g):
        grad = np.zeros_like(v)
        np.add.at(grad, (slice(None), slice(None), degrees), g)
        ag.accumulate(gains, grad)

    return ag.record(np.take(v, degrees, axis=2), (gains,), backward)


def composite_zonal_convolve(values, filt, basis):
    """The zonal convolution as eleven elementary autodiff ops."""
    n_lm = (filt.L_in + 1) ** 2
    coeffs = ag.slice_rows(ag.matmul(basis.forward, values), 0, n_lm)
    scale = degree_scale(filt.L_in)[None, None, :]
    alpha_col = ag.reshape(filt.alpha, (filt.c_out, filt.c_in, 1))
    bracket = ag.sub(filt.h, ag.div(alpha_col, scale))
    gains = ag.mul(bracket, scale)
    gains_lm = take_degrees(gains, degree_of_index(filt.L_in))
    spectral = ag.matmul(basis.Y[:, :n_lm],
                         ag.einsum2("oil,li->lo", gains_lm, coeffs))
    residual = ag.einsum2("ni,oi->no", values, filt.alpha)
    return ag.add(spectral, residual)


def composite_batch_norm(values, params, training):
    """Batch norm as elementary autodiff ops (thirteen in training mode)."""
    if training:
        mean = ag.reduce_mean(values, axis=0, keepdims=True)
        centered = ag.sub(values, mean)
        var = ag.reduce_mean(ag.square(centered), axis=0, keepdims=True)
        params.bn_mean = 0.9 * params.bn_mean + 0.1 * ag.value_of(mean)[0]
        params.bn_var = 0.9 * params.bn_var + 0.1 * ag.value_of(var)[0]
        normalized = ag.div(centered, ag.sqrt(ag.add(var, 1e-5)))
    else:
        normalized = ag.div(ag.sub(values, params.bn_mean[None, :]),
                            np.sqrt(params.bn_var + 1e-5)[None, :])
    gamma = ag.reshape(params.bn_gamma, (1, -1))
    beta = ag.reshape(params.bn_beta, (1, -1))
    return ag.add(ag.mul(normalized, gamma), beta)


def composite_block(values, params, basis, training):
    out = composite_zonal_convolve(values, params.filt, basis)
    out = composite_batch_norm(out, params, training)
    return ag.relu(out) if params.relu else out


# (c_out, c_in, filter bandwidth, relu): the default U-Net's seven blocks at
# bandwidth 16, channels 8 and 7 labels
UNET_BLOCKS = [(8, 2, 16, True), (16, 8, 8, True), (32, 16, 4, True),
               (32, 64, 4, True), (16, 48, 8, True), (8, 24, 16, True),
               (7, 8, 16, False)]


def _tensor_copy(params):
    """A deep copy of block params whose four trainable arrays are leaves."""
    twin = copy.deepcopy(params)
    leaves = {"h": ag.Tensor(np.array(params.filt.h)),
              "alpha": ag.Tensor(np.array(params.filt.alpha)),
              "bn_gamma": ag.Tensor(np.array(params.bn_gamma)),
              "bn_beta": ag.Tensor(np.array(params.bn_beta))}
    twin.filt.h, twin.filt.alpha = leaves["h"], leaves["alpha"]
    twin.bn_gamma, twin.bn_beta = leaves["bn_gamma"], leaves["bn_beta"]
    return twin, leaves


@pytest.mark.parametrize("shape", UNET_BLOCKS,
                         ids=[f"{i}to{o}L{L}" for o, i, L, _ in UNET_BLOCKS])
def test_fused_block_is_bitwise_the_composite(shape):
    c_out, c_in, L, relu = shape
    mesh = generate_icosphere(3)
    basis = build_basis(mesh, L)
    rng = np.random.default_rng(c_out * 100 + c_in)
    params = init_block(c_out, c_in, L, rng, relu=relu)
    params.bn_gamma = rng.uniform(-1.5, 1.5, c_out)   # negative scales too
    params.bn_beta = rng.standard_normal(c_out)
    params.bn_mean = rng.standard_normal(c_out)
    params.bn_var = rng.uniform(0.5, 2.0, c_out)
    x = rng.standard_normal((mesh.n_vertices, c_in))
    weights = rng.standard_normal((mesh.n_vertices, c_out))

    runs = {}
    for name, block in (("fused", shconv_block), ("composite", composite_block)):
        twin, leaves = _tensor_copy(params)
        inputs = ag.Tensor(x.copy())
        outs = []
        for _ in range(2):          # two backward passes into the same leaves
            out = block(inputs, twin, basis, True)
            ag.reduce_sum(ag.mul(out, weights)).backward()
            outs.append(out.value.tobytes())
        inference = ag.value_of(block(x, twin, basis, False))
        grads = {k: t.grad.tobytes() for k, t in leaves.items()}
        runs[name] = (outs, twin.bn_mean.tobytes(), twin.bn_var.tobytes(),
                      inputs.grad.tobytes(), grads, inference.tobytes())
    fused, composite = runs["fused"], runs["composite"]
    assert fused[0] == composite[0]                      # training forwards
    assert fused[1:3] == composite[1:3]                  # running buffers
    assert fused[3] == composite[3]                      # input gradient
    for name in ("h", "alpha", "bn_gamma", "bn_beta"):
        assert fused[4][name] == composite[4][name], name
    assert fused[5] == composite[5]                      # inference forward


def test_taped_block_records_three_nodes(tape_counter):
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    params, _ = _tensor_copy(init_block(4, 2, 8, np.random.default_rng(5)))
    values = ag.Tensor(np.random.default_rng(6).standard_normal((mesh.n_vertices, 2)))
    tape_counter["nodes"] = 0
    shconv_block(values, params, basis, training=True)
    assert tape_counter["nodes"] <= 3
