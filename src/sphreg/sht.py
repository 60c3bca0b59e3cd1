"""Real orthonormal spherical harmonics on icosphere samplings.

The basis is real, orthonormal, and Condon-Shortley-free:

    Y_l^0  = Pbar_l^0(cos th)
    Y_l^m  = sqrt(2) Pbar_l^m(cos th) cos(m ph)      m > 0
    Y_l^-m = sqrt(2) Pbar_l^m(cos th) sin(m ph)      m > 0

where Pbar is the fully normalised associated Legendre function computed by
the standard three-term recurrence in l with diagonal seeding in m.  The
recurrence operates on normalised values throughout, so it is stable to the
l = 64 cap (the unnormalised P_l^m would overflow long before that).

Columns use the flat index l^2 + l + m, and coefficients are plain
((L+1)^2, C) arrays in that order, so their row count gives their band.
Icosphere samplings admit no exact quadrature, so the forward transform is
the Moore-Penrose pseudo-inverse of the sampled basis (least squares); see
the design notes in build_basis.

Y_lm(-x) = (-1)^l Y_lm(x) on the centrally symmetric icosphere, so a basis
is sampled at P, one vertex per antipodal pair, and reflected to Q = anti P.
With E and O its even-degree and odd-degree halves at P, Y = [[E, O],
[E, -O]] and Y^T Y = diag(2 E^T E, 2 O^T O), so pinv(Y) = [[E+, E+],
[O+, -O+]] / 2 exactly: two half pinvs, no full-size SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .icosphere import (_BLOCK, Icosphere, SphericalSignal, _frozen,
                        generate_icosphere)

MAX_DEGREE = 64


def flat_index(l: int, m: int) -> int:
    if abs(m) > l:
        raise ValueError(f"order |{m}| exceeds degree {l}")
    return l * l + l + m


def _sample_rows(points: np.ndarray, L: int) -> np.ndarray:
    """((L+1)^2, N) harmonics at ``points``: rows fill faster than columns."""
    n = points.shape[0]
    ct = points[:, 2]
    st = np.hypot(points[:, 0], points[:, 1])
    phi = np.arctan2(points[:, 1], points[:, 0])

    T = np.empty(((L + 1) ** 2, n), dtype=np.float64)
    # azimuthal factors, computed once per order
    cos_m = [np.ones(n)] + [np.cos(m * phi) for m in range(1, L + 1)]
    sin_m = [np.zeros(n)] + [np.sin(m * phi) for m in range(1, L + 1)]

    p_mm = np.full(n, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(0, L + 1):
        if m > 0:
            p_mm = p_mm * st * np.sqrt((2.0 * m + 1.0) / (2.0 * m))
        p_prev, p_curr = None, p_mm
        for l in range(m, L + 1):
            if l == m:
                pass
            elif l == m + 1:
                p_prev, p_curr = p_curr, p_curr * ct * np.sqrt(2.0 * m + 3.0)
            else:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p_curr = p_curr, a * (ct * p_curr - b * p_prev)
            if m == 0:
                T[flat_index(l, 0)] = p_curr
            else:
                scaled = np.sqrt(2.0) * p_curr
                T[flat_index(l, m)] = scaled * cos_m[m]
                T[flat_index(l, -m)] = scaled * sin_m[m]
    return T


@cache
def parity_columns(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Frozen flat indices of the even and the odd degrees up to L, ascending."""
    odd = np.repeat(np.arange(L + 1) % 2, 2 * np.arange(L + 1) + 1)
    return _frozen(np.flatnonzero(odd == 0)), _frozen(np.flatnonzero(odd))


@dataclass
class HarmonicBasis:
    """One mesh's sampled basis; its parity halves and analysis operators
    are built on first use, since synthesis alone never needs them."""

    mesh_level: int
    L: int
    P: np.ndarray          # (N/2,) the first vertex of each antipodal pair
    Q: np.ndarray          # (N/2,) its antipode
    Y: np.ndarray          # (N, (L+1)^2), Y[Q] = (-1)^l Y[P] exactly

    @property
    def n_coeffs(self) -> int:
        return (self.L + 1) ** 2

    @cached_property
    def even(self) -> np.ndarray:
        """(N/2, n_even) Y[P] at the even degrees."""
        return _frozen(self.Y[np.ix_(self.P, parity_columns(self.L)[0])])

    @cached_property
    def odd(self) -> np.ndarray:
        """(N/2, n_odd) Y[P] at the odd degrees."""
        return _frozen(self.Y[np.ix_(self.P, parity_columns(self.L)[1])])

    @cached_property
    def forward_even(self) -> np.ndarray:
        """(n_even, N/2) rows of pinv(Y) at the even degrees, read at P."""
        return _frozen(0.5 * np.linalg.pinv(self.even))

    @cached_property
    def forward_odd(self) -> np.ndarray:
        """(n_odd, N/2) rows of pinv(Y) at the odd degrees, read at P."""
        return _frozen(0.5 * np.linalg.pinv(self.odd))

    @cached_property
    def forward(self) -> np.ndarray:
        """((L+1)^2, N) pseudo-inverse of ``Y``, from the two half pinvs."""
        (ce, co), P, Q = parity_columns(self.L), self.P, self.Q
        forward = np.empty((self.n_coeffs, 2 * len(P)))
        forward[np.ix_(ce, P)] = forward[np.ix_(ce, Q)] = self.forward_even
        forward[np.ix_(co, P)] = self.forward_odd
        forward[np.ix_(co, Q)] = -self.forward_odd
        return _frozen(forward)


def build_basis(mesh: Icosphere, L: int) -> HarmonicBasis:
    """Basis for ``mesh`` up to degree ``L`` (cached per (mesh, L)).

    Each parity half needs as many antipodal pairs as columns, (L+1)(L+2)/2
    for the wider one.  At 2x oversampling or better the pseudo-inverse is
    a stable left inverse (checked to 1e-12 in the tests).
    """
    return _basis(mesh, L)


@cache
def _basis(mesh: Icosphere, L: int) -> HarmonicBasis:
    if L < 0 or L > MAX_DEGREE:
        raise ValueError(f"bandwidth L={L} out of [0, {MAX_DEGREE}]")
    if mesh.n_vertices < (L + 1) * (L + 2):
        raise ValueError(
            f"level {mesh.level} has {mesh.n_vertices // 2} antipodal pairs, "
            f"fewer than L={L}'s {(L + 1) * (L + 2) // 2} coefficients of "
            "one parity; refine the mesh or lower L")
    anti = mesh.antipodes
    P = np.flatnonzero(np.arange(mesh.n_vertices) < anti)
    sign = np.repeat((-1.0) ** np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    Y = np.empty((mesh.n_vertices, (L + 1) ** 2))
    for lo in range(0, len(P), _BLOCK):
        block = P[lo:lo + _BLOCK]
        Y[block] = rows = _sample_rows(mesh.vertices[block], int(L)).T
        Y[anti[block]] = np.multiply(rows, sign, out=rows)    # reflected
        del rows                    # one block's rows alive at a time
    return HarmonicBasis(mesh.level, int(L), _frozen(P), _frozen(anti[P]),
                         _frozen(Y))


def sht_forward(signal: SphericalSignal, basis: HarmonicBasis) -> np.ndarray:
    """Least-squares analysis of a signal sampled on the basis mesh: the
    ((L+1)^2, C) coefficient array."""
    if signal.level != basis.mesh_level:
        raise ValueError(
            f"signal level {signal.level} does not match basis mesh level "
            f"{basis.mesh_level}")
    return basis.forward @ signal.values


def sht_inverse(coeffs: np.ndarray, basis: HarmonicBasis) -> SphericalSignal:
    """Synthesise a signal on the basis mesh from ((L'+1)^2, C) coefficients,
    L' <= L: a narrower band reads the basis's leading columns."""
    cols = len(coeffs)
    if not 1 <= cols <= basis.Y.shape[1] or math.isqrt(cols) ** 2 != cols:
        raise ValueError(
            f"{cols} coefficient rows are not (L'+1)^2 for any L' <= "
            f"{basis.L}")
    return SphericalSignal(basis.mesh_level, basis.Y[:, :cols] @ coeffs)


def random_coefficients(L: int, channels: int, rng) -> np.ndarray:
    """(L+1)^2 x channels normal draws scaled by a 1/(1+l)^2 spectrum."""
    n = (L + 1) ** 2
    scales = np.empty(n)
    for l in range(L + 1):
        scales[l * l:(l + 1) * (l + 1)] = (1.0 + l) ** (-2.0)
    return rng.normal(size=(n, channels)) * scales[:, None]


def random_bandlimited(mesh_level: int, L: int, channels: int,
                       rng) -> SphericalSignal:
    """``random_coefficients`` on the level's mesh, bitwise ``sht_inverse``
    on ``build_basis``, but with a basis sampled for this call alone."""
    basis = _basis.__wrapped__(generate_icosphere(mesh_level), L)
    return sht_inverse(random_coefficients(L, channels, rng), basis)
