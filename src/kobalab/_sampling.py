"""Deterministic sampling helpers: Halton sequences, sphere direction sets,
and seeded interior-point grids for the model domains.

Everything here is a pure function of its arguments, so identical configs
reproduce identical grids byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def halton_value(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def halton(count: int, dim: int, skip: int = 20) -> np.ndarray:
    """count x dim array of Halton points in the open unit cube: row k is
    halton_value(k + 1 + skip, p_j) in column j, to the bit.  Each column's
    radical inverse runs over the whole index column at once, one digit
    per pass; a row whose digits are spent adds 0.0, which leaves it as
    it is."""
    if dim > len(_PRIMES):
        raise ValueError("Halton dimension too large")
    out = np.zeros((count, dim))
    for j, base in enumerate(_PRIMES[:dim]):
        f = 1.0
        i = np.arange(skip + 1, skip + 1 + count)
        while i.any():
            f /= base
            out[:, j] += f * (i % base)
            i //= base
    return out


def sphere_directions(count: int, dim: int) -> np.ndarray:
    """Deterministic spread of unit directions in R^dim.

    dim == 1 reduces to {+1, -1}; dim == 2 uses equal angles; higher
    dimensions map Halton points through the inverse normal CDF and
    normalize, which disperses well enough for slab sweeps.
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]])[: max(count, 2) if count >= 2 else 2]
    if dim == 2:
        angles = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cube = halton(count, dim)
    gauss = _norm_ppf(cube)
    norms = np.linalg.norm(gauss, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return gauss / norms


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    # Acklam's rational approximation; plenty for direction spreading.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    out = np.empty_like(u)
    low = u < 0.02425
    high = u > 1.0 - 0.02425
    mid = ~(low | high)
    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        out[mid] = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
                    (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        out[low] = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
                    ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        out[high] = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
                      ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    return out


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ball_points(count: int, dim_complex: int, radius: float = 0.9, seed: int = 0) -> list[np.ndarray]:
    """Deterministic complex points in the ball of given radius (quasi-random)."""
    real_dim = 2 * dim_complex
    cube = halton(count, real_dim)
    gauss = _norm_ppf(cube)
    pts = []
    for k in range(count):
        g = gauss[k]
        norm = np.linalg.norm(g)
        if norm == 0.0:
            norm = 1.0
        # radial factor u^(1/real_dim) gives the uniform-ball law
        u = halton_value(k + 31, 53)
        r = radius * u ** (1.0 / real_dim)
        vec = r * g / norm
        pts.append(vec[:dim_complex] + 1j * vec[dim_complex:])
    return pts
