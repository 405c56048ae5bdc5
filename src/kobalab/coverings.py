"""Holomorphic coverings and monomial proper maps between model domains.

Map kinds: the power maps of the punctured disc, exponential coverings
(strip -> annulus, tube -> Reinhardt), monomial maps Phi_A with an
invertible integer exponent matrix, ball scaling automorphisms, the
identity, and compositions.  Monomial preimage fibers are enumerated
exactly through the Smith normal form of A: the fiber over any point of
C_*^n has |det A| points.

Each map kind is one frozen dataclass below whose fields are its
descriptor's fields (`_MapKind` lists what it defines: the source and
target, derived from the fields, the map and its differential, fibers,
local inverse and audit label); `HolomorphicMap` is the union of the kinds.
A map encodes and decodes through the codec shared by every descriptor
kind (domains.py), and the module functions (`apply_map`,
`map_differential`, `deck_preimages`) dispatch to it.  Every kind maps the
rows of an (N, n) array at once, and `apply_map` is the one-row case, so a
point's image never depends on the batch it is mapped in.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import get_args

import numpy as np

from .domains import (_CODEC_BY_ANNOTATION, Annulus, ConvexBase, DomainError, ModelDomain,
                      PuncturedDisc, ReinhardtLog, Strip, TubeOverBase, UnitBall, _Codec, _int,
                      _kind_decoder, as_point, base_dim, domain_to_dict, membership)
from .mobius import ball_scaling_differential, ball_scaling_map
from .smith import smith_normal_form, snf_determinant


class CoveringError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerMatrix:
    """n x n integer exponent matrix; rows are the monomial exponents."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise CoveringError("exponent matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return _int_det([list(r) for r in self.entries])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


def _int_det(a: list[list[int]]) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    det = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        det += (-1) ** j * a[0][j] * _int_det(minor)
    return det


# map kinds: one class per kind ------------------------------------------------

class _MapKind(_Codec):
    """What a map kind defines, with the shared defaults.

    `kind` (the descriptor name), the constructor fields (the descriptor's
    fields, encoded and decoded by the shared codec), `source` and `target`
    (derived from the fields), `label` (the audit report's name for the
    map), `apply(zs)` (the image of each row of an (N, n) complex array, as
    (N, n) rows), `differential(z, v)` (dF_z v), `fiber_matrix` (the
    exponent matrix whose Smith form enumerates a finite fiber, else None),
    `preimages(w)` and `local_inverse(w, ref)` (the preimage of w on the
    branch through ref, for covering lifts; None where no lift is
    implemented).  Points reach these methods validated.
    """

    fiber_matrix = None
    local_inverse = None

    @property
    def target(self) -> ModelDomain:
        """The default for the kinds that map their source into itself."""
        return self.source

    def preimages(self, w: np.ndarray) -> list:
        if self.fiber_matrix is None:
            raise CoveringError(f"no preimage enumeration for {self!r}")
        return monomial_preimages(self.fiber_matrix, w)


@dataclass(frozen=True)
class Power(_MapKind):
    n: int
    kind = "power"
    source = target = PuncturedDisc()

    def __post_init__(self):
        if self.n < 1:
            raise CoveringError("power exponent must be >= 1")

    @property
    def label(self) -> str:
        return f"power-{self.n}"

    @property
    def fiber_matrix(self) -> IntegerMatrix:
        return IntegerMatrix(((self.n,),))

    def apply(self, zs):
        return _images(zs, lambda zs: _complex(*_pow_rows(zs[:, 0].real, zs[:, 0].imag,
                                                           self.n))[:, None])

    def differential(self, z, v):
        return np.array([self.n * _int_pow(complex(z[0]), self.n - 1) * v[0]])

    def local_inverse(self, w, ref):
        # continuous n-th root: pick the branch whose n-th power has the
        # argument nearest the reference's image
        raw_angle = np.angle(w)
        ref_angle = np.angle(ref) * self.n
        k = np.round((ref_angle - raw_angle) / (2.0 * math.pi))
        ang = (raw_angle + 2.0 * math.pi * k) / self.n
        return np.abs(w) ** (1.0 / self.n) * np.exp(1j * ang)


# the exp image of each exp-cover source kind
_EXP_IMAGES = {Strip: lambda strip: Annulus(strip.R),
               TubeOverBase: lambda tube: ReinhardtLog(tube.base)}


@dataclass(frozen=True)
class ExpCover(_MapKind):
    source: ModelDomain
    kind = "exp"
    label = "exp-cover"

    def __post_init__(self):
        if type(self.source) not in _EXP_IMAGES:
            raise CoveringError("exp cover needs a strip or tube source")

    @functools.cached_property
    def target(self) -> ModelDomain:
        return _EXP_IMAGES[type(self.source)](self.source)

    def apply(self, zs):
        return np.exp(zs)

    def differential(self, z, v):
        return np.exp(z) * v

    def preimages(self, w):
        # the principal log moved by each lattice vector 2 pi i k, |k_j| <= 2:
        # every preimage with imaginary parts within 12
        base_log = np.log(np.abs(w)) + 1j * np.angle(w)
        k_max = 2
        out = []
        for k in _mixed_radix([2 * k_max + 1] * w.size):
            cand = base_log + 2.0 * math.pi * 1j * (np.asarray(k) - k_max)
            if membership(self.source, cand):
                out.append(cand)
        return out

    def local_inverse(self, w, ref):
        raw = np.log(np.abs(w)) + 1j * np.angle(w)
        shift = np.round((ref.imag - raw.imag) / (2.0 * math.pi))
        return raw + 2.0 * math.pi * 1j * shift


@dataclass(frozen=True)
class Monomial(_MapKind):
    matrix: IntegerMatrix
    base: ConvexBase
    kind = "monomial"

    def __post_init__(self):
        n = self.matrix.n
        if n != base_dim(self.base):
            raise CoveringError(f"a {n}x{n} exponent matrix needs a {n}-d base")
        if self.matrix.det == 0:
            raise CoveringError("monomial maps need det A != 0")

    @functools.cached_property
    def source(self) -> ReinhardtLog:
        return ReinhardtLog(self.base)

    @functools.cached_property
    def target(self) -> ReinhardtLog:
        return ReinhardtLog(log_image(self.matrix, self.base))

    @property
    def label(self) -> str:
        return f"monomial-det{self.matrix.det}"

    @property
    def fiber_matrix(self) -> IntegerMatrix:
        return self.matrix

    def apply(self, zs):
        return _monomial_rows(self.matrix, zs)

    def differential(self, z, v):
        return monomial_apply(self.matrix, z) * (self.matrix.as_array() @ (v / z))


@dataclass(frozen=True)
class BallMobius(_MapKind):
    t: float
    dim: int
    kind = "ball-mobius"
    label = "ballmobius"

    def __post_init__(self):
        if not 0.0 <= self.t < 1.0:
            raise CoveringError("scaling parameter t must lie in [0, 1)")
        if self.dim < 1:
            raise CoveringError("ball dimension must be >= 1")

    @functools.cached_property
    def source(self) -> UnitBall:
        return UnitBall(self.dim)

    def apply(self, zs):
        return ball_scaling_map(self.t, zs)

    def differential(self, z, v):
        return ball_scaling_differential(self.t, z, v)


@dataclass(frozen=True)
class Identity(_MapKind):
    domain: ModelDomain
    kind = "identity"
    label = "identity"

    @property
    def source(self) -> ModelDomain:
        return self.domain

    def apply(self, zs):
        return zs.copy()

    def differential(self, z, v):
        return v.copy()

    def preimages(self, w):
        return [w.copy()]


@dataclass(frozen=True)
class Compose(_MapKind):
    maps: tuple[HolomorphicMap, ...]
    kind = "compose"
    label = "compose"

    def __post_init__(self):
        if not self.maps:
            raise CoveringError("need at least one map")
        for f, g in zip(self.maps, self.maps[1:]):
            if domain_to_dict(f.target) != domain_to_dict(g.source):
                raise CoveringError("composition chain does not typecheck")

    @property
    def source(self) -> ModelDomain:
        return self.maps[0].source

    @property
    def target(self) -> ModelDomain:
        return self.maps[-1].target

    def apply(self, zs):
        return functools.reduce(lambda acc, part: part.apply(acc), self.maps, zs)

    def differential(self, z, v):
        for part in self.maps:
            v = map_differential(part, z, v)
            z = apply_map(part, z)
        return v


HolomorphicMap = Power | ExpCover | Monomial | BallMobius | Identity | Compose
_MAP_KINDS = {cls.kind: cls for cls in get_args(HolomorphicMap)}  # descriptor name -> kind


def _integer_matrix(rows) -> IntegerMatrix:
    """An exponent matrix from rows of integral numbers (3 or 3.0, not 1.5
    or true); an IntegerMatrix passes unchanged."""
    if isinstance(rows, IntegerMatrix):
        return rows
    try:
        entries = tuple(tuple(_int(x) for x in row) for row in rows)
    except ValueError as exc:
        raise CoveringError(f"monomial exponents must be integers: {exc}") from None
    return IntegerMatrix(entries)


# the map fields' codecs: exponent matrices and the parts of a composition
_CODEC_BY_ANNOTATION.update({
    "IntegerMatrix": (_integer_matrix, lambda matrix: [list(r) for r in matrix.entries]),
    "tuple[HolomorphicMap, ...]": (lambda maps: tuple(map_from_dict(d) for d in maps),
                                   lambda maps: [map_to_dict(f) for f in maps])})


# constructors ----------------------------------------------------------------

def power_map(n: int) -> HolomorphicMap:
    """lambda -> lambda^n on the punctured disc (a holomorphic covering)."""
    return Power(n)


def exp_strip_cover(R: float) -> HolomorphicMap:
    return ExpCover(Strip(R))


def exp_tube_cover(base: ConvexBase) -> HolomorphicMap:
    return ExpCover(TubeOverBase(base))


def monomial_map(matrix, base: ConvexBase) -> HolomorphicMap:
    """Phi_A restricted to the Reinhardt domain over `base`, for A an
    IntegerMatrix or rows of integral numbers.

    The target is the Reinhardt domain over the exact linear image A(base),
    matching log(Phi_A(D)) = A(log D).
    """
    return Monomial(_integer_matrix(matrix), base)


def ball_mobius_map(t: float, n: int) -> HolomorphicMap:
    return BallMobius(t, n)


def identity_map(domain: ModelDomain) -> HolomorphicMap:
    return Identity(domain)


def compose_maps(*maps: HolomorphicMap) -> HolomorphicMap:
    """Composition applying left-to-right: compose(f, g) sends z to g(f(z))."""
    return Compose(maps)


# evaluation ------------------------------------------------------------------

def monomial_power(z, alpha) -> complex:
    """z^alpha = prod z_j^{alpha_j} for an integer exponent vector.

    Exact integer exponents via repeated squaring; a zero coordinate with a
    negative exponent is rejected.
    """
    image = _images(as_point(z)[None],
                    lambda zs: _complex(*_monomial_power_rows(zs, alpha, zs == 0))[:, None])
    return complex(image[0, 0])


def _monomial_power_rows(zs: np.ndarray, alpha, zero: np.ndarray) -> tuple:
    """(Re, Im) of zs_k^alpha for each row of an (N, n) complex array, given
    the mask `zero` of its zero entries: the factors z_j^{alpha_j}
    multiplied in coordinate order, as Python's complex arithmetic would
    (from 1 + 0i), and 0 * the product so far for a zero coordinate with a
    positive exponent."""
    acc = None      # the product so far; None is 1 + 0i
    for zj, aj, zero_j, any_zero in zip(zs.T, alpha, zero.T, zero.any(axis=0).tolist()):
        aj = int(aj)
        if aj == 0:
            continue
        if not any_zero:
            factor = _pow_rows(zj.real, zj.imag, aj)
            acc = _one_times(*factor) if acc is None else _mul(*acc, *factor)
        elif aj < 0:
            raise CoveringError("zero coordinate with negative exponent")
        else:
            acc = (np.ones(len(zs)), np.zeros(len(zs))) if acc is None else acc
            acc = np.where(zero_j, _mul(0.0, 0.0, *acc),
                           _mul(*acc, *_pow_rows(zj.real, zj.imag, aj)))
    return (np.ones(len(zs)), np.zeros(len(zs))) if acc is None else acc


# Row-wise complex arithmetic on (Re, Im) float arrays, operation for
# operation as Python's complex * and /: numpy's complex product can round
# differently in the last bit, and images must not depend on which of the
# two computed them.

def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _mul(ar, ai, br, bi) -> tuple:
    return ar * br - ai * bi, ar * bi + ai * br


def _one_times(br, bi) -> tuple:
    """(1 + 0i) * b as `_mul` rounds it: 1.0 * x is x exactly, so only the
    products with the zero imaginary part are left."""
    return br - 0.0 * bi, bi + 0.0 * br


def _div(ar, ai, br, bi) -> tuple:
    """a / b by Smith's method, with CPython's branches and rounding."""
    if np.any((br == 0.0) & (bi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    with np.errstate(all="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        return (np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom)


def _pow_rows(re: np.ndarray, im: np.ndarray, k: int) -> tuple:
    """(Re, Im) of z^k for an integer k by repeated squaring; 1 / z^-k for
    k < 0."""
    if k < 0:
        return _div(1.0, 0.0, *_pow_rows(re, im, -k))
    if k == 0:
        return np.ones_like(re), np.zeros_like(re)
    out = None      # 1 + 0i: the first product still rounds as Python's
    while k:
        if k & 1:
            out = _one_times(re, im) if out is None else _mul(*out, re, im)
        k >>= 1
        if k:
            re, im = _mul(re, im, re, im)
    return out


def _int_pow(z: complex, k: int) -> complex:
    """z^k for one complex number, as `_pow_rows` computes it."""
    re, im = _pow_rows(np.array([z.real]), np.array([z.imag]), k)
    return complex(re[0], im[0])


def _monomial_rows(matrix: IntegerMatrix, zs: np.ndarray) -> np.ndarray:
    """Phi_A of each row of an (N, n) complex array."""
    def rows(zs):
        out = np.empty((len(zs), matrix.n), dtype=complex)
        zero = zs == 0
        for j, row in enumerate(matrix.entries):
            out.real[:, j], out.imag[:, j] = _monomial_power_rows(zs, row, zero)
        return out
    return _images(zs, rows)


def _images(zs: np.ndarray, images_of) -> np.ndarray:
    """images_of(zs), the images of the rows zs under a power or monomial
    map, unless the image of a point with no zero coordinate has a
    coordinate 0, infinite or NaN, or divides by such a 0: its exponents
    then under- or overflow floating point, which CoveringError reports
    (and numpy does not warn of)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            images = images_of(zs)
        except ZeroDivisionError:
            # only a power of a nonzero coordinate that underflowed to 0
            # divides by 0: a zero coordinate with a negative exponent is
            # refused before
            raise CoveringError("an image under- or overflows floating point: the map's "
                                "exponents are too large") from None
        # a NaN or an infinite coordinate makes the sum non-finite (and so
        # may an overflow of the sum itself, which the test below clears)
        if images.all() and cmath.isfinite(images.sum()):
            return images
    lost = ~np.isfinite(images) | ((images == 0) & zs.all(axis=1, keepdims=True))
    if lost.any():
        k = int(lost.any(axis=1).argmax())
        raise CoveringError(f"the image of {zs[k]} under- or overflows floating point: "
                            f"the map's exponents are too large")
    return images


def monomial_apply(matrix: IntegerMatrix, z) -> np.ndarray:
    """Phi_A(z): coordinate j is z^{A^j} (j-th row as exponent vector)."""
    z = as_point(z)
    if z.size != matrix.n:
        raise CoveringError("dimension mismatch")
    return _monomial_rows(matrix, z[None])[0]


def apply_map(f: HolomorphicMap, z) -> np.ndarray:
    """F(z) for one point: the one-row case of the map kind's `apply`."""
    return f.apply(as_point(z)[None])[0]


def map_differential(f: HolomorphicMap, z, v) -> np.ndarray:
    """Complex differential dF_z applied to v."""
    return f.differential(as_point(z), as_point(v))


# preimages and log geometry --------------------------------------------------

def monomial_preimages(matrix: IntegerMatrix, w) -> list[np.ndarray] | np.ndarray:
    """The full Phi_A-fiber over w in C_*^n: exactly |det A| points.

    Writing z = exp(zeta), the equation becomes A zeta = Log w + 2 pi i nu;
    distinct solutions modulo 2 pi i Z^n correspond to the cosets of A Z^n,
    which the Smith form U A V = S enumerates as V S^{-1} k with
    0 <= k_j < s_j.  Every returned point is verified forward.

    w is one point, whose fiber is returned as a list of points, or the
    rows of an (N, n) array, whose fibers are returned as one
    (N, |det A|, n) array; the rows take one solve, one exp and one
    row-wise forward pass, and a row's fiber does not depend on its batch
    beyond rounding.
    """
    ws = np.asarray(w, dtype=complex)
    single = ws.ndim < 2
    if single:
        ws = as_point(ws)[None]
    elif not np.isfinite(ws).all():
        raise DomainError("point has non-finite coordinates")
    if ws.ndim != 2 or ws.shape[1] != matrix.n:
        raise CoveringError("dimension mismatch")
    if np.any(ws == 0.0):
        raise CoveringError("preimages need w in C_*^n")
    offsets = _fiber_offsets(matrix)
    log_w = np.log(np.abs(ws)) + 1j * np.angle(ws)
    zeta0 = np.linalg.solve(matrix.as_array(), log_w.T).T
    fibers = np.exp(zeta0[:, None, :] + 2.0 * math.pi * 1j * offsets)
    # one row-wise forward pass verifies every candidate
    images = _monomial_rows(matrix, fibers.reshape(-1, matrix.n)).reshape(fibers.shape)
    miss = np.max(np.abs(images - ws[:, None, :]), axis=(1, 2), initial=0.0)
    if np.any(miss > 1e-8 * np.maximum(1.0, np.max(np.abs(ws), axis=1, initial=0.0))):
        raise CoveringError("preimage verification failed")
    return list(fibers[0]) if single else fibers


@functools.lru_cache(maxsize=64)
def _fiber_offsets(matrix: IntegerMatrix) -> np.ndarray:
    """The fiber's offsets V S^{-1} k, 0 <= k_j < s_j, in log coordinates,
    as the rows of a read-only (|det A|, n) array, from the Smith form
    U A V = S, computed once per matrix."""
    _, s_mat, v_mat = smith_normal_form([list(r) for r in matrix.entries])
    if snf_determinant(s_mat) == 0:
        raise CoveringError("singular exponent matrix")
    v_arr = np.asarray(v_mat, dtype=float)
    s_diag = np.array([s_mat[i][i] for i in range(matrix.n)], dtype=float)
    offsets = np.array([v_arr @ (np.asarray(k, dtype=float) / s_diag)
                        for k in _mixed_radix(np.abs(s_diag).astype(int))])
    offsets.setflags(write=False)
    return offsets


def _mixed_radix(sizes):
    idx = [0] * len(sizes)
    while True:
        yield tuple(idx)
        for j in range(len(sizes) - 1, -1, -1):
            idx[j] += 1
            if idx[j] < sizes[j]:
                break
            idx[j] = 0
        else:
            return


def log_image(matrix: IntegerMatrix, base: ConvexBase) -> ConvexBase:
    """The exact linear image A(base), honoring log(Phi_A(D)) = A(log D).

    Scalar multiples of Euclidean balls stay Euclidean balls; everything
    else is returned as an exact LinearImage wrapper (membership and
    support delegate through A^{-1} and A^T).  Use domains.to_polytope for
    a facet export.
    """
    if matrix.det == 0:
        raise CoveringError("singular exponent matrix")
    return base.linear_image(matrix.as_array())


def antipodal_image_check(matrix: IntegerMatrix, pair):
    """Transport an antipodal pair through A: (x, y) -> (Ax, Ay).

    The supporting normal transports by the inverse transpose; the
    certificate is revalidated on the image base, so a failure (which
    would contradict the linear-image identity) surfaces as an error.
    """
    from .geodesics import AntipodalPair

    if not isinstance(pair, AntipodalPair):
        raise CoveringError("need an AntipodalPair")
    a = matrix.as_array()
    new_base = log_image(matrix, pair.base)
    x = a @ np.asarray(pair.x, dtype=float)
    y = a @ np.asarray(pair.y, dtype=float)
    d = np.linalg.inv(a).T @ np.asarray(pair.normal, dtype=float)
    d = d / np.linalg.norm(d)
    return AntipodalPair(new_base, tuple(float(c) for c in x), tuple(float(c) for c in y),
                         tuple(float(c) for c in d))


def deck_preimages(f: HolomorphicMap, w) -> list[np.ndarray]:
    """Preimage points of w under the implemented coverings.

    Power/monomial fibers are finite and complete; exp-covers return the
    lattice translates of the principal log by 2 pi i k, |k_j| <= 2 (those in
    the source), which include every preimage with imaginary parts within 12.
    """
    return f.preimages(as_point(w))


# serialization ---------------------------------------------------------------

def map_to_dict(f: HolomorphicMap) -> dict:
    return f.to_dict()


map_from_dict = _kind_decoder(_MAP_KINDS, "map")
