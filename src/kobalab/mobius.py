"""Moebius machinery of the unit ball: automorphisms, the first-axis scaling
family, and their complex differentials.

Conventions: points are 1-d complex ndarrays, the Hermitian pairing is
``herm(z, w) = sum(z_j * conj(w_j))``, and the ball is the open Euclidean
unit ball of C^N.
"""

from __future__ import annotations

import numpy as np

# |1 + t z_1| below this is the pole of the scaling automorphism A_t
POLE_TOL = 1e-300


def herm(z: np.ndarray, w: np.ndarray) -> complex:
    """Hermitian inner product <z, w> = sum z_j conj(w_j)."""
    return complex(np.sum(z * np.conj(w)))


def mobius_to_origin(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Ball automorphism phi_a with phi_a(a) = 0 and phi_a(0) = a.

    phi_a is an involution, so it doubles as its own inverse.  The formula
    extends continuously to the closed ball, which we rely on to transport
    boundary points.
    """
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    a2 = float(np.sum(np.abs(a) ** 2))
    if a2 < 1e-28:
        return -z
    s = np.sqrt(max(0.0, 1.0 - a2))
    za = herm(z, a)
    proj = (za / a2) * a
    orth = z - proj
    denom = 1.0 - za
    return (a - proj - s * orth) / denom


def mobius_differential(a: np.ndarray, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex differential d(phi_a)_z applied to the tangent vector v."""
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    a2 = float(np.sum(np.abs(a) ** 2))
    if a2 < 1e-28:
        return -v
    s = np.sqrt(max(0.0, 1.0 - a2))
    za = herm(z, a)
    va = herm(v, a)
    proj_v = (va / a2) * a
    orth_v = v - proj_v
    num = a - (za / a2) * a - s * (z - (za / a2) * a)
    denom = 1.0 - za
    # quotient rule: d[num/denom] = (num' * denom - num * denom') / denom^2
    num_prime = -proj_v - s * orth_v
    denom_prime = -va
    return (num_prime * denom - num * denom_prime) / (denom * denom)


def ball_scaling_map(t: float, z: np.ndarray) -> np.ndarray:
    """First-axis scaling automorphism A_t of the ball, t in (-1, 1).

    A_t(z) = ((z_1 + t)/(1 + t z_1), sqrt(1-t^2) z''/(1 + t z_1)); fixes
    +-e_1 and sends 0 to t e_1.  A_t^{-1} = A_{-t}.  z is one point or an
    (N, n) array of points, one per row.
    """
    z = np.asarray(z, dtype=complex)
    denom = 1.0 + t * z[..., 0]
    if np.any(np.abs(denom) < POLE_TOL):
        raise ZeroDivisionError("pole of the scaling automorphism: 1 + t z_1 = 0")
    out = np.empty_like(z)
    out[..., 0] = (z[..., 0] + t) / denom
    if z.shape[-1] > 1:
        out[..., 1:] = np.sqrt(1.0 - t * t) * z[..., 1:] / denom[..., None]
    return out


def ball_scaling_differential(t: float, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex differential d(A_t)_z applied to v."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    denom = 1.0 + t * z[0]
    out = np.empty_like(v)
    out[0] = v[0] * (1.0 - t * t) / (denom * denom)
    if z.size > 1:
        out[1:] = np.sqrt(1.0 - t * t) * (v[1:] * denom - t * z[1:] * v[0]) / (denom * denom)
    return out
