"""Zonal spectral convolution against a brute-force oracle."""

import copy

import numpy as np
import pytest

from sphreg import autodiff as ag
from sphreg.icosphere import generate_icosphere
from sphreg.sht import build_basis, parity_columns, random_bandlimited
from sphreg.shconv import (BlockParams, ZonalFilter, batch_norm,
                           degree_scale, init_block, init_zonal_filter,
                           pad_table, shconv_block, zonal_convolve)


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


def test_pad_table_holds_every_index_once():
    # row l of the table lists the flat indices l^2 .. l^2 + 2l of degree l;
    # every other slot points at the zero row appended below the coefficients
    rng = np.random.default_rng(16)
    for L in range(17):
        n_lm = (L + 1) ** 2
        table = pad_table(L)
        assert table.shape == (L + 1, 2 * L + 1)
        used = table[table < n_lm]
        np.testing.assert_array_equal(np.sort(used), np.arange(n_lm))
        padding = np.arange(2 * L + 1)[None, :] > 2 * np.arange(L + 1)[:, None]
        assert (table[padding] == n_lm).all()
        for l in range(L + 1):
            np.testing.assert_array_equal(table[l, :2 * l + 1],
                                          l * l + np.arange(2 * l + 1))
        coeffs = np.concatenate([rng.standard_normal((n_lm, 3)),
                                 np.zeros((1, 3))])
        padded = coeffs[table]
        assert (padded[padding] == 0.0).all()
        assert (padded[~padding] != 0.0).all()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert pad_table(L) is table


def test_matches_dense_oracle():
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
    # a pooling block would see only such input after truncation, so it has
    # no alpha
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


@pytest.mark.parametrize("shape", [(16, 8, 8), (32, 16, 4)],
                         ids=["8to16L8", "16to32L4"])
def test_no_alpha_is_bitwise_zero_alpha(shape):
    # a filter without alpha is the residual filter at alpha = 0, bit for bit
    c_out, c_in, L = shape
    basis = build_basis(generate_icosphere(3), 2 * L)
    rng = np.random.default_rng(c_out + c_in)
    h = init_zonal_filter(c_out, c_in, L, rng).h
    x = rng.standard_normal((basis.Y.shape[0], c_in))
    weights = rng.standard_normal((basis.Y.shape[0], c_out))
    runs = []
    for alpha in (None, np.zeros((c_out, c_in))):
        leaves = [ag.Tensor(x.copy()), ag.Tensor(h.copy())]
        out = zonal_convolve(leaves[0], ZonalFilter(h=leaves[1], alpha=alpha),
                             basis)
        ag.reduce_sum(ag.mul(out, weights)).backward()
        runs.append([a.tobytes() for a in
                     (out.value, leaves[0].grad, leaves[1].grad)])
    assert runs[0] == runs[1]


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
# the fused block against plain-NumPy and elementary-op references
# ---------------------------------------------------------------------------

def reference_zonal_convolve(values, filt, basis):
    """The zonal convolution in plain NumPy as one recorded op: the parity
    halves of the basis as 2-D ``@`` on the antipodal pairs, and a loop of
    2-D ``@`` over the degrees, each on its padded (2L+1)-row slice.  The
    fused node must match it bitwise, forward and backward."""
    L = filt.L_in
    n_lm = (L + 1) ** 2
    v, h, alpha = (ag.value_of(x) for x in (values, filt.h, filt.alpha))
    even, odd = parity_columns(L)
    synth = basis.even[:, :len(even)], basis.odd[:, :len(odd)]
    analysis = basis.forward_even[:len(even)], basis.forward_odd[:len(odd)]
    P, Q = basis.P, basis.Q
    table = pad_table(L)
    kept = np.flatnonzero(table.ravel() < n_lm)

    def fold(rows, ops):
        """Flat (l, m) rows from vertex rows: the even op on P + Q, the odd
        op on P - Q (analysis, and the adjoint of synthesis)."""
        out = np.zeros((n_lm, rows.shape[1]))
        out[even] = ops[0] @ (rows[P] + rows[Q])
        out[odd] = ops[1] @ (rows[P] - rows[Q])
        return out

    def unfold(coeffs, ops):
        """Vertex rows from flat (l, m) rows: a + b at P, a - b at Q
        (synthesis, and the adjoint of analysis)."""
        a, b = ops[0] @ coeffs[even], ops[1] @ coeffs[odd]
        out = np.zeros((2 * len(P), coeffs.shape[1]))
        out[P], out[Q] = a + b, a - b
        return out

    def pad(rows):
        return np.concatenate([rows, np.zeros((1, rows.shape[1]))])[table]

    def per_degree(stack, mix):
        out = np.stack([stack[l] @ mix[l] for l in range(L + 1)])
        return out.reshape(-1, out.shape[2])[kept]

    scale = degree_scale(L)[None, None, :]
    gains = ((h - alpha[:, :, None] / scale) * scale).transpose(2, 1, 0).copy()
    padded = pad(fold(v, analysis))
    out = unfold(per_degree(padded, gains), synth) + v @ alpha.T

    def backward(g):
        g_padded = pad(fold(g, [s.T for s in synth]))
        g_gains = np.stack([padded[l].T @ g_padded[l] for l in range(L + 1)])
        g_bracket = g_gains.transpose(2, 1, 0).copy() * scale
        # each input takes its contributions in the fused node's order
        if ag.is_tensor(filt.h):
            ag.accumulate(filt.h, g_bracket)
        if ag.is_tensor(filt.alpha):
            ag.accumulate(filt.alpha, (-g_bracket / scale).sum(axis=2))
        if ag.is_tensor(values):
            g_coeffs = per_degree(g_padded, gains.transpose(0, 2, 1))
            ag.accumulate(values, unfold(g_coeffs, [a.T for a in analysis]))
            ag.accumulate(values, g @ alpha)
        if ag.is_tensor(filt.alpha):
            ag.accumulate(filt.alpha, g.T @ v)

    return ag.record(out, (values, filt.h, filt.alpha), backward)


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
    """The zonal convolution as elementary autodiff ops on the full basis
    ``Y`` and its pseudo-inverse, with the degree mixing and the residual
    as einsum contractions; a filter without ``alpha`` has no residual."""
    n_lm = (filt.L_in + 1) ** 2
    coeffs = ag.slice_rows(ag.matmul(basis.forward, values), 0, n_lm)
    scale = degree_scale(filt.L_in)[None, None, :]
    bracket = filt.h
    if filt.alpha is not None:
        alpha_col = ag.reshape(filt.alpha, (filt.c_out, filt.c_in, 1))
        bracket = ag.sub(filt.h, ag.div(alpha_col, scale))
    gains = ag.mul(bracket, scale)
    l = np.arange(filt.L_in + 1)
    degrees = np.repeat(l, 2 * l + 1)
    gains_lm = take_degrees(gains, degrees)
    spectral = ag.matmul(basis.Y[:, :n_lm],
                         ag.einsum2("oil,li->lo", gains_lm, coeffs))
    if filt.alpha is None:
        return spectral
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
    """The plain-NumPy conv, then batch norm and ReLU as elementary ops."""
    out = reference_zonal_convolve(values, params.filt, basis)
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


# (c_out, c_in, filter bandwidth, bandwidth of the basis it pools from) of
# the default U-Net's two pooling blocks, whose filters have no alpha
POOLING_BLOCKS = [(16, 8, 8, 16), (32, 16, 4, 8)]


def _conv_case(shape):
    """A level-3 basis, a seeded filter, input values and output weights.
    A pooling shape's filter has no alpha and reads the wider basis that
    the shape's last entry names."""
    c_out, c_in, L = shape[:3]
    wide = shape[3] if shape in POOLING_BLOCKS else None
    basis = build_basis(generate_icosphere(3), wide or L)
    rng = np.random.default_rng(c_out * 100 + c_in + 1)
    filt = init_zonal_filter(c_out, c_in, L, rng)
    if wide:
        filt = ZonalFilter(h=filt.h, alpha=None)
    x = rng.standard_normal((basis.Y.shape[0], c_in))
    weights = rng.standard_normal((basis.Y.shape[0], c_out))
    return basis, filt, x, weights


def _conv_and_grads(conv, basis, filt, x, weights):
    """A conv's output and the gradients of sum(out * weights) into the
    input, ``h`` and, if the filter has it, ``alpha``."""
    leaves = [ag.Tensor(x.copy()), ag.Tensor(np.array(filt.h))]
    if filt.alpha is not None:
        leaves.append(ag.Tensor(np.array(filt.alpha)))
    alpha = leaves[2] if len(leaves) == 3 else None
    out = conv(leaves[0], ZonalFilter(h=leaves[1], alpha=alpha), basis)
    ag.reduce_sum(ag.mul(out, weights)).backward()
    return [out.value] + [leaf.grad for leaf in leaves]


CONV_SHAPES = UNET_BLOCKS + POOLING_BLOCKS


@pytest.mark.parametrize(
    "shape", CONV_SHAPES,
    ids=[f"{s[1]}to{s[0]}L{s[2]}" + ("" if s in UNET_BLOCKS else f"of{s[3]}")
         for s in CONV_SHAPES])
def test_fused_conv_is_near_the_einsum_chain(shape):
    # the fused conv analyses and synthesises on the antipodal pairs' parity
    # halves, and its per-degree products add in another order than the
    # einsum chain on the full basis, so the two agree only to rounding:
    # 1e-14 of each array's largest value
    case = _conv_case(shape)
    fused = _conv_and_grads(zonal_convolve, *case)
    chain = _conv_and_grads(composite_zonal_convolve, *case)
    assert len(fused) == len(chain) == (3 if shape in POOLING_BLOCKS else 4)
    for name, a, b in zip(("out", "values", "h", "alpha"), fused, chain):
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max(), name


@pytest.mark.parametrize("shape", UNET_BLOCKS,
                         ids=[f"{i}to{o}L{L}" for o, i, L, _ in UNET_BLOCKS])
def test_conv_gradients_match_finite_differences(shape):
    # the conv is linear in the input and in (h, alpha), so central
    # differences leave only rounding
    basis, filt, x, weights = _conv_case(shape)
    _, *grads = _conv_and_grads(zonal_convolve, basis, filt, x, weights)
    arrays = {"values": x, "h": filt.h, "alpha": filt.alpha}

    def loss(values, h, alpha):
        out = zonal_convolve(values, ZonalFilter(h=h, alpha=alpha), basis)
        return (out * weights).sum()

    rng = np.random.default_rng(17)
    eps = 1e-6
    for (name, array), grad in zip(arrays.items(), grads):
        for _ in range(3):
            at = tuple(int(rng.integers(n)) for n in array.shape)
            sides = []
            for step in (eps, -eps):
                moved = dict(arrays, **{name: array.copy()})
                moved[name][at] += step
                sides.append(loss(**moved))
            numeric = (sides[0] - sides[1]) / (2 * eps)
            assert abs(numeric - grad[at]) < 1e-5 * abs(grad[at]), (name, at)


def test_taped_block_records_three_nodes(tape_counter):
    mesh = generate_icosphere(2)
    basis = build_basis(mesh, 8)
    params, _ = _tensor_copy(init_block(4, 2, 8, np.random.default_rng(5)))
    values = ag.Tensor(np.random.default_rng(6).standard_normal((mesh.n_vertices, 2)))
    tape_counter["nodes"] = 0
    shconv_block(values, params, basis, training=True)
    assert tape_counter["nodes"] <= 3
