"""Closed-form Kobayashi distances and densities for the basic one- and
several-variable models: disc, half-plane, strip, ball, polydisc.

All distances are in the Kobayashi normalization (disc density
|v|/(1-|z|^2), so K_D(0, r) = arctanh r).  The strip and half-plane use
arcsinh forms that stay accurate for hyperbolically distant points, which
the deck-transform searches rely on.

Each distance is one numpy kernel over arrays of pairs ((..., n) arrays
of points for the ball and polydisc); one pair gives a Python float.  Each
pair is computed on its own, so its value does not depend on its batch; a
batch with one point outside the model raises ClosedFormError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .domains import rowdot


class ClosedFormError(ValueError):
    """A closed form met an argument outside its range: a point outside its
    model, or an arctanh argument that rounds to 1 or above, which points
    interior in floating point can give within about 1e-11 of the
    boundary."""


def _value(x):
    """A Python float for the one-pair case, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def stable_arctanh(x):
    """arctanh via log1p; accurate near x = 1 where it diverges slowly."""
    x = np.asarray(x, dtype=float)
    bad = ((x < 0.0) & ~(x > -1e-15)) | (x >= 1.0)
    if np.any(bad):
        raise ClosedFormError(f"arctanh argument {x[bad].flat[0]} outside [0, 1)")
    x = np.maximum(x, 0.0)
    return _value(0.5 * np.log1p(2.0 * x / (1.0 - x)))


def disc_distance(z, w):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    return stable_arctanh(np.abs(z - w) / np.abs(1.0 - np.conj(w) * z))


def disc_density(z: complex, v: complex) -> float:
    return abs(v) / (1.0 - abs(z) ** 2)


def halfplane_distance(z, w):
    """Left half-plane {Re < 0}: arcsinh(q), q = |z-w| / (2 sqrt(x_z x_w)).
    Where q is not finite (x_z x_w underflows or the quotient overflows),
    log q is taken as a sum of logs: then arcsinh q = log 2q if q > e^20."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    xz, xw = -z.real, -w.real
    if np.any(xz <= 0.0) or np.any(xw <= 0.0):
        raise ClosedFormError("points must have Re < 0")
    d = np.abs(z - w)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = d / (2.0 * np.sqrt(xz * xw))
        far = ~np.isfinite(q)
        if not np.any(far):
            return _value(np.arcsinh(q))
        logq = np.log(d) - 0.5 * (np.log(xz) + np.log(xw)) - math.log(2.0)
        return _value(np.where(far, np.where(logq > 20.0, logq + math.log(2.0),
                                             np.arcsinh(np.exp(np.minimum(logq, 20.0)))),
                               np.arcsinh(q)))


def halfplane_density(z: complex, v: complex) -> float:
    return abs(v) / (2.0 * (-z.real))


def strip_distance(halfwidth, z, w):
    """Distance in {|Re| < halfwidth}.

    Via the exp chart onto the upper half-plane the distance reduces to
        arcsinh( sqrt(sinh^2(pi dy/4a) + sin^2(pi dx/4a))
                 / sqrt(cos(pi x1/2a) cos(pi x2/2a)) ),
    which is stable for arbitrarily large imaginary separations.  The
    half-width may be an array broadcast against the points.  It is the
    imaginary stage applied to the real stage of the pair.
    """
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    sin2q, c = strip_real_stage(halfwidth, z.real, w.real)
    return _value(strip_imag_stage(halfwidth, z.imag - w.imag, sin2q, c))


def strip_real_stage(halfwidth, x1, x2) -> tuple:
    """The part of `strip_distance` that depends only on the real parts x1,
    x2 of the points: (sin^2(pi dx/4a), c) with c = cos(pi x1/2a)
    cos(pi x2/2a).  Points that differ only in their imaginary parts share
    it.  It is `strip_pair_stage` of the two points' `strip_point_stage`."""
    return strip_pair_stage(halfwidth, x1, x2, strip_point_stage(halfwidth, x1),
                            strip_point_stage(halfwidth, x2))


def strip_point_stage(halfwidth, x) -> np.ndarray:
    """cos(pi x/2a) of real parts x strictly inside the strip: the factor of
    `strip_real_stage` that depends on one point, which every pair of that
    point shares."""
    if not (np.abs(x) < halfwidth).all():
        raise ClosedFormError("points must lie strictly inside the strip")
    return np.cos(math.pi * x / (2.0 * halfwidth))


def strip_pair_stage(halfwidth, x1, x2, cos1, cos2) -> tuple:
    """`strip_real_stage` of the real parts x1, x2 given their
    `strip_point_stage` values cos1, cos2."""
    return np.sin(_strip_q(halfwidth, x1, x2)) ** 2, cos1 * cos2


def _strip_q(halfwidth, x1, x2):
    """q = pi (x1 - x2)/(4a), the sine's argument of the real stage."""
    return math.pi * (x1 - x2) / (4.0 * halfwidth)


def _strip_imag_terms(halfwidth, dy, sin2q, c) -> tuple:
    """(ap, arg, big) of the imaginary stage: ap = |pi dy/4a|, the arcsinh
    argument sqrt(sinh^2 ap + sin2q)/sqrt(c), and the cells with ap > 350,
    where sinh dominates and the distance is ap - log(c)/2 (arcsinh(y) ~
    log 2y) instead.  Where dy is 0, sinh^2 0 + sin2q = sin2q exactly, so
    the argument is sqrt(sin2q)/sqrt(c) to the bit."""
    ap = np.abs(math.pi * dy / (4.0 * halfwidth))
    # sinh is capped where the asymptotic form replaces it
    return ap, np.sqrt(np.sinh(np.minimum(ap, 350.0)) ** 2 + sin2q) / np.sqrt(c), ap > 350.0


def strip_imag_stage(halfwidth, dy, sin2q, c) -> np.ndarray:
    """`strip_distance` of points whose imaginary parts differ by dy, given
    their `strip_real_stage`."""
    ap, arg, big = _strip_imag_terms(halfwidth, dy, sin2q, c)
    out = np.arcsinh(arg)
    if np.any(big):
        out = np.where(big, ap - 0.5 * np.log(c), out)
    return out


def strip_imag_max(halfwidth, dy, sin2q, c) -> np.ndarray:
    """np.max(strip_imag_stage(halfwidth, dy, sin2q, c), axis=-1) with one
    arcsinh per row: arcsinh is increasing, so it maps the row max of the
    arguments to the row max of the distances.  Cells past the cap take
    their asymptotic form and the larger of the two maxima counts; both
    start from 0, which no cell is below (c <= 1).  Rows whose points have
    equal imaginary parts take `strip_flat_max` instead."""
    ap, arg, big = _strip_imag_terms(halfwidth, dy, sin2q, c)
    if not np.any(big):
        return np.arcsinh(np.max(arg, axis=-1))
    near = np.arcsinh(np.max(arg, axis=-1, where=~big, initial=0.0))
    return np.maximum(near, np.max(ap - 0.5 * np.log(c), axis=-1, where=big, initial=0.0))


# below this |q|, sin^2 q may leave the normal range of doubles
_NORMAL_Q = 2.0 ** -500


def strip_flat_max(halfwidth, x1, x2, cos1, cos2, along: int) -> np.ndarray:
    """`strip_imag_max` of rows of cells whose points have equal imaginary
    parts, given their real parts and `strip_point_stage` values: the row
    maxima with dy = 0 in every cell, to the bit, with the sine taken only
    in the cells that can set their row's maximum.

    The certificate.  Column `along` gives each row its value
    ref = sqrt(sin^2 q)/sqrt(c), as the full sweep computes it.  Every
    cell's computed value is at most its bound |q|/sqrt(c), rounded:
    |fl(sin q)| <= |q|, sqrt(fl(s^2)) = |s| in binary while s^2 is normal,
    and correctly rounded operations are monotone (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 2-3).  So a cell whose bound is
    strictly below ref cannot set its row's maximum and is skipped, while
    the cell of column `along`, whose bound is at least ref, never is.
    Cells with |q| < 2^-500, whose square may leave the normal range, are
    always taken, and a row whose column `along` reads 0 (a dropped slab)
    skips nothing."""
    q = _strip_q(halfwidth, x1, x2)
    root = np.sqrt(cos1 * cos2)
    ref = np.sqrt(np.sin(q[:, along]) ** 2) / root[:, along]
    size = np.abs(q)
    live = (size / root >= ref[:, None]) | (size < _NORMAL_Q)
    arg = np.zeros(q.shape)
    arg[live] = np.sqrt(np.sin(q[live]) ** 2) / root[live]
    return np.arcsinh(np.max(arg, axis=-1))


def strip_density(halfwidth, z, v):
    a = halfwidth
    return _value((math.pi / (4.0 * a)) * np.abs(v) / np.cos(math.pi * np.real(z) / (2.0 * a)))


def strip_centre(lo, hi) -> tuple:
    """(mid, halfwidth) of the strip {lo < Re < hi}; every slab is centred here."""
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def strip_distance_offset(lo, hi, z, w):
    """Distance in the strip {lo < Re < hi}; the ends may be arrays."""
    mid, halfwidth = strip_centre(lo, hi)
    return strip_distance(halfwidth, z - mid, w - mid)


def strip_density_offset(lo, hi, z, v):
    mid, halfwidth = strip_centre(lo, hi)
    return strip_density(halfwidth, z - mid, v)


@functools.lru_cache(maxsize=None)
def _index_pairs(n: int) -> tuple:
    """The read-only index arrays (i, j) of the coordinate pairs i < j of n
    coordinates."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def ball_distance(z, w):
    """arctanh |phi_z(w)| for (..., n) arrays, with |phi_z(w)|^2 computed
    cancellation-free: tanh^2 K = (|z-w|^2 - G) / |1 - <z,w>|^2 with the
    Gram defect G = |z|^2|w|^2 - |<z,w>|^2 expanded by the complex Lagrange
    identity."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    diff = np.abs(z - w)
    i, j = _index_pairs(z.shape[-1])
    cross = np.abs(z[..., i] * w[..., j] - z[..., j] * w[..., i])
    tanh2 = (np.maximum(0.0, rowdot(diff, diff) - rowdot(cross, cross))
             / np.abs(1.0 - rowdot(z, np.conj(w))) ** 2)
    return stable_arctanh(np.sqrt(tanh2))


def ball_density(z, v):
    z, v = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
    one = 1.0 - rowdot(np.abs(z), np.abs(z))
    vz = np.abs(rowdot(v, np.conj(z))) ** 2
    return _value(np.sqrt(rowdot(np.abs(v), np.abs(v)) * one + vz) / one)


def polydisc_distance(z, w):
    """The largest coordinate disc distance, for (..., n) arrays."""
    return _value(np.max(disc_distance(z, w), axis=-1))


def polydisc_density(z, v):
    return _value(np.max(disc_density(np.asarray(z), np.asarray(v)), axis=-1))


def punctured_density(z: complex, v: complex) -> float:
    """k of the punctured disc: |v| / (2 |z| log(1/|z|))."""
    r = abs(z)
    return abs(v) / (2.0 * r * math.log(1.0 / r))


def annulus_density(R: float, z: complex, v: complex) -> float:
    a = math.log(R)
    r = abs(z)
    return (math.pi / (4.0 * a)) * abs(v) / (r * math.cos(math.pi * math.log(r) / (2.0 * a)))
