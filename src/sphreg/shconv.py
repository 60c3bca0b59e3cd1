"""Zonal spectral convolution blocks on the sphere.

A zonal (rotation-steerable) filter h acts diagonally per degree: each
coefficient f_hat_lm of an input channel is scaled by

    C(l) * (h_hat[l] - alpha / C(l)),       C(l) = sqrt(4 pi / (2 l + 1)),

summed over input channels, synthesised back to the mesh, and the residual
term alpha * f is added in the spatial domain.  The bracket is evaluated in
exactly that grouping so filters with h_hat = alpha / C(l) cancel the
spectral path bitwise and pass alpha * f through untouched.

Blocks wrap the convolution with per-channel batch normalisation over the
vertex axis (momentum 0.1 running stats) and an optional ReLU.  All forward
code accepts plain arrays or autodiff tensors interchangeably.

The convolution and the batch norm each record one autodiff node, so a
block is three with the ReLU.  Their forwards make the same numpy calls as
the chains of elementary autodiff ops they replaced, and their hand-written
backwards make the calls those chains' backwards made, on C-contiguous
gradients, with each input receiving its contributions in the chains'
order: the bracket path into ``alpha`` before the residual path, the
spectral path into the input before the residual path.  Outputs and
gradients are bitwise those of the chains, which the tests keep as the
oracle.  The per-degree gains add back through a frozen ``ScatterPlan``
per bandwidth, over the (l, o, i) product with the degree axis first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ag
from .sht import HarmonicBasis

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def degree_scale(L: int) -> np.ndarray:
    """C(l) = sqrt(4 pi / (2l + 1)) for l = 0..L."""
    l = np.arange(L + 1, dtype=np.float64)
    return np.sqrt(4.0 * np.pi / (2.0 * l + 1.0))


def degree_of_index(L: int) -> np.ndarray:
    """Degree l for every flat index below (L+1)^2."""
    return np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)


_degree_plan_cache: dict[int, ag.ScatterPlan] = {}


def _degree_plan(L: int) -> ag.ScatterPlan:
    """Frozen plan of ``degree_of_index(L)`` onto the degrees 0..L."""
    plan = _degree_plan_cache.get(L)
    if plan is None:
        index = degree_of_index(L)
        index.setflags(write=False)
        plan = _degree_plan_cache[L] = ag.ScatterPlan(index, L + 1)
    return plan


@dataclass
class ZonalFilter:
    """Per-(out, in) channel zonal taps plus the residual mixing weights."""

    h: object       # (C_out, C_in, L_in + 1) array or Tensor
    alpha: object   # (C_out, C_in) array or Tensor

    @property
    def c_out(self) -> int:
        return ag.value_of(self.h).shape[0]

    @property
    def c_in(self) -> int:
        return ag.value_of(self.h).shape[1]

    @property
    def L_in(self) -> int:
        return ag.value_of(self.h).shape[2] - 1


def init_zonal_filter(c_out: int, c_in: int, L: int, rng) -> ZonalFilter:
    h_bound = 1.0 / np.sqrt((L + 1) * c_in)
    a_bound = 1.0 / np.sqrt(c_in)
    return ZonalFilter(
        h=rng.uniform(-h_bound, h_bound, size=(c_out, c_in, L + 1)),
        alpha=rng.uniform(-a_bound, a_bound, size=(c_out, c_in)),
    )


def zonal_convolve(values, filt: ZonalFilter, basis: HarmonicBasis):
    """Convolve (N, C_in) vertex values with a zonal filter bank.

    The basis must live on the signal's mesh and cover the filter bandwidth.
    """
    v = ag.value_of(values)
    if v.ndim != 2:
        raise ValueError("zonal_convolve expects (vertices, channels) values")
    if v.shape[1] != filt.c_in:
        raise ValueError(
            f"filter expects {filt.c_in} input channels, got {v.shape[1]}")
    if v.shape[0] != basis.Y.shape[0]:
        raise ValueError("values row count does not match basis mesh")
    if filt.L_in > basis.L:
        raise ValueError(f"filter bandwidth {filt.L_in} exceeds basis "
                         f"bandwidth {basis.L}")

    n_lm = (filt.L_in + 1) ** 2
    h_in, alpha_in = filt.h, filt.alpha
    h, alpha = ag.value_of(h_in), ag.value_of(alpha_in)
    plan = _degree_plan(filt.L_in)
    synthesis = basis.Y[:, :n_lm]

    analysed = basis.forward @ v
    coeffs = analysed[:n_lm]
    scale = degree_scale(filt.L_in)[None, None, :]          # (1, 1, L_in+1)
    bracket = h - alpha.reshape(filt.c_out, filt.c_in, 1) / scale
    gains_lm = np.take(bracket * scale, plan.indices, axis=2)  # C(l) * (h - a/C(l))
    mixed = np.einsum("oil,li->lo", gains_lm, coeffs)
    spectral = synthesis @ mixed
    residual = np.einsum("ni,oi->no", v, alpha)

    def backward(g):
        g_mixed = synthesis.T @ g
        if ag.is_tensor(h_in) or ag.is_tensor(alpha_in):
            by_degree = plan.scatter(np.einsum("lo,li->loi", g_mixed, coeffs))
            # copied C-contiguous with the degree axis last: the product with
            # ``scale`` keeps its operand's layout, and the ``alpha`` path's
            # .sum(axis=2) adds the elements of a strided array in another
            # order, which changes bits
            g_bracket = np.ascontiguousarray(np.moveaxis(by_degree, 0, 2)) * scale
            if ag.is_tensor(h_in):
                ag.accumulate(h_in, g_bracket)
            if ag.is_tensor(alpha_in):
                ag.accumulate(alpha_in, (-g_bracket / scale).sum(axis=2))
        if ag.is_tensor(values):
            g_analysed = np.zeros_like(analysed)
            g_analysed[:n_lm] = np.einsum("lo,oil->li", g_mixed, gains_lm)
            ag.accumulate(values, basis.forward.T @ g_analysed)
            ag.accumulate(values, np.einsum("no,oi->ni", g, alpha))
        if ag.is_tensor(alpha_in):
            ag.accumulate(alpha_in, np.einsum("no,ni->oi", g, v))

    return ag.record(spectral + residual, (values, h_in, alpha_in), backward)


@dataclass
class BlockParams:
    """One conv block: zonal filter bank + batch norm (+ optional ReLU)."""

    filt: ZonalFilter
    bn_gamma: object    # (C_out,)
    bn_beta: object     # (C_out,)
    bn_mean: np.ndarray
    bn_var: np.ndarray
    relu: bool = True

    @property
    def c_out(self) -> int:
        return self.filt.c_out


def init_block(c_out: int, c_in: int, L: int, rng, relu: bool = True) -> BlockParams:
    return BlockParams(
        filt=init_zonal_filter(c_out, c_in, L, rng),
        bn_gamma=np.ones(c_out),
        bn_beta=np.zeros(c_out),
        bn_mean=np.zeros(c_out),
        bn_var=np.ones(c_out),
        relu=relu,
    )


def batch_norm(values, params: BlockParams, training: bool):
    """Per-channel normalisation over the vertex axis.

    Training normalises with the biased batch statistics and folds them
    into the running buffers with momentum 0.1 (a side effect on the params,
    outside the autodiff graph), but never reads the buffers, so no training
    output depends on them.  Inference uses the running buffers only.
    """
    v = ag.value_of(values)
    gamma_in, beta_in = params.bn_gamma, params.bn_beta
    gamma = ag.value_of(gamma_in).reshape(1, -1)
    beta = ag.value_of(beta_in).reshape(1, -1)
    count = float(v.shape[0])
    if training:
        mean = v.sum(axis=0, keepdims=True) / count
        centered = v - mean
        var = np.square(centered).sum(axis=0, keepdims=True) / count
        params.bn_mean = ((1.0 - BN_MOMENTUM) * params.bn_mean
                          + BN_MOMENTUM * mean[0])
        params.bn_var = ((1.0 - BN_MOMENTUM) * params.bn_var
                         + BN_MOMENTUM * var[0])
        sd = np.sqrt(var + BN_EPS)
    else:
        centered = v - params.bn_mean[None, :]
        sd = np.sqrt(params.bn_var + BN_EPS)[None, :]
    normalized = centered / sd

    def backward(g):
        if ag.is_tensor(values):
            g_normalized = g * gamma
            g_centered = g_normalized / sd
            if training:
                g_sd = (-g_normalized * centered / (sd * sd)).sum(axis=0,
                                                                  keepdims=True)
                g_var = g_sd * (0.5 / sd)
                g_centered += g_var / count * (2.0 * centered)
                g_mean = (-g_centered).sum(axis=0, keepdims=True)
            ag.accumulate(values, g_centered)
            if training:
                ag.accumulate(values, np.broadcast_to(g_mean / count, v.shape))
        if ag.is_tensor(gamma_in):
            ag.accumulate(gamma_in, (g * normalized).sum(axis=0))
        if ag.is_tensor(beta_in):
            ag.accumulate(beta_in, g.sum(axis=0))

    return ag.record(normalized * gamma + beta, (values, gamma_in, beta_in),
                     backward)


def shconv_block(values, params: BlockParams, basis: HarmonicBasis,
                 training: bool = False):
    """Zonal convolution -> batch norm -> optional ReLU."""
    out = zonal_convolve(values, params.filt, basis)
    out = batch_norm(out, params, training)
    if params.relu:
        out = ag.relu(out)
    return out
