"""Closed-form Kobayashi distances and densities for the basic one- and
several-variable models: disc, half-plane, strip, ball, polydisc.

All distances are in the Kobayashi normalization (disc density
|v|/(1-|z|^2), so K_D(0, r) = arctanh r).  The strip and half-plane use
arcsinh forms that stay accurate for hyperbolically distant points, which
the deck-transform searches rely on.
"""

from __future__ import annotations

import math

import numpy as np


def stable_arctanh(x: float) -> float:
    """arctanh via log1p; accurate near x = 1 where it diverges slowly."""
    if x < 0.0 or x >= 1.0:
        if 0.0 > x > -1e-15:
            return 0.0
        raise ValueError(f"arctanh argument {x} outside [0, 1)")
    return 0.5 * math.log1p(2.0 * x / (1.0 - x))


def disc_distance(z: complex, w: complex) -> float:
    num = abs(z - w)
    den = abs(1.0 - w.conjugate() * z)
    return stable_arctanh(num / den)


def disc_density(z: complex, v: complex) -> float:
    return abs(v) / (1.0 - abs(z) ** 2)


def halfplane_distance(z: complex, w: complex) -> float:
    """Left half-plane {Re < 0}: arcsinh(|z-w| / (2 sqrt(x_z x_w)))."""
    xz, xw = -z.real, -w.real
    if xz <= 0.0 or xw <= 0.0:
        raise ValueError("points must have Re < 0")
    return math.asinh(abs(z - w) / (2.0 * math.sqrt(xz * xw)))


def halfplane_density(z: complex, v: complex) -> float:
    return abs(v) / (2.0 * (-z.real))


def strip_distance(halfwidth: float, z: complex, w: complex) -> float:
    """Distance in {|Re| < halfwidth}.

    Via the exp chart onto the upper half-plane the distance reduces to
        arcsinh( sqrt(sinh^2(pi dy/4a) + sin^2(pi dx/4a))
                 / sqrt(cos(pi x1/2a) cos(pi x2/2a)) ),
    which is stable for arbitrarily large imaginary separations.
    """
    a = halfwidth
    x1, x2 = z.real, w.real
    if abs(x1) >= a or abs(x2) >= a:
        raise ValueError("points must lie strictly inside the strip")
    dx = x1 - x2
    dy = z.imag - w.imag
    p = math.pi * dy / (4.0 * a)
    q = math.pi * dx / (4.0 * a)
    c = math.cos(math.pi * x1 / (2.0 * a)) * math.cos(math.pi * x2 / (2.0 * a))
    ap = abs(p)
    if ap > 350.0:
        # asymptotic: sinh dominates, arcsinh(y) ~ log(2y)
        return ap + math.log(1.0 / math.sqrt(c))
    s = math.sqrt(math.sinh(p) ** 2 + math.sin(q) ** 2)
    return math.asinh(s / math.sqrt(c))


def strip_density(halfwidth: float, z: complex, v: complex) -> float:
    a = halfwidth
    return (math.pi / (4.0 * a)) * abs(v) / math.cos(math.pi * z.real / (2.0 * a))


def strip_distance_offset(lo: float, hi: float, z: complex, w: complex) -> float:
    """Distance in the strip {lo < Re < hi}."""
    mid = 0.5 * (lo + hi)
    return strip_distance(0.5 * (hi - lo), z - mid, w - mid)


def strip_density_offset(lo: float, hi: float, z: complex, v: complex) -> float:
    mid = 0.5 * (lo + hi)
    return strip_density(0.5 * (hi - lo), z - mid, v)


def ball_mobius_modulus_sq(z: np.ndarray, w: np.ndarray) -> float:
    """|phi_z(w)|^2 computed cancellation-free.

    tanh^2 K = (|z-w|^2 - G) / |1 - <z,w>|^2 with the Gram defect
    G = |z|^2|w|^2 - |<z,w>|^2 expanded by the complex Lagrange identity.
    """
    diff2 = float(np.sum(np.abs(z - w) ** 2))
    inner = complex(np.sum(z * np.conj(w)))
    gram = 0.0
    n = z.size
    for i in range(n):
        for j in range(i + 1, n):
            gram += abs(z[i] * w[j] - z[j] * w[i]) ** 2
    den = abs(1.0 - inner) ** 2
    return max(0.0, (diff2 - gram)) / den


def ball_distance(z: np.ndarray, w: np.ndarray) -> float:
    return stable_arctanh(math.sqrt(ball_mobius_modulus_sq(z, w)))


def ball_density(z: np.ndarray, v: np.ndarray) -> float:
    z2 = float(np.sum(np.abs(z) ** 2))
    v2 = float(np.sum(np.abs(v) ** 2))
    vz = abs(complex(np.sum(v * np.conj(z)))) ** 2
    one = 1.0 - z2
    return math.sqrt(v2 * one + vz) / one


def polydisc_distance(z: np.ndarray, w: np.ndarray) -> float:
    return max(disc_distance(complex(a), complex(b)) for a, b in zip(z, w))


def polydisc_density(z: np.ndarray, v: np.ndarray) -> float:
    return max(disc_density(complex(a), complex(b)) for a, b in zip(z, v))


def punctured_density(z: complex, v: complex) -> float:
    """k of the punctured disc: |v| / (2 |z| log(1/|z|))."""
    r = abs(z)
    return abs(v) / (2.0 * r * math.log(1.0 / r))


def annulus_density(R: float, z: complex, v: complex) -> float:
    a = math.log(R)
    r = abs(z)
    return (math.pi / (4.0 * a)) * abs(v) / (r * math.cos(math.pi * math.log(r) / (2.0 * a)))
