"""Each closed-form kernel over a seeded batch of pairs: the batch equals the
one-pair calls bit for bit, agrees with a 50-digit mpmath value, and a batch
with one point outside the model raises ValueError."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kobalab import closed_forms as cf
from kobalab.domains import rowdot

M = 64


def _disc(gen, shape, radius=0.99):
    """Points of modulus up to `radius`, moduli uniform."""
    angles = 2.0 * math.pi * gen.uniform(0.0, 1.0, shape)
    return radius * gen.uniform(0.0, 1.0, shape) * np.exp(1j * angles)


def _ball(gen, m, n, radius=0.99):
    dirs = gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radius * gen.uniform(0.0, 1.0, (m, 1)) * dirs


def _strip_pairs(gen, a):
    """Real parts within 0.99 a; imaginary gaps up to 3 for half the pairs
    and up to 3000 for the other half, so the |p| > 350 branch runs."""
    z = 0.99 * a * gen.uniform(-1.0, 1.0, M) + 1j * gen.uniform(-3.0, 3.0, M)
    gaps = np.concatenate([gen.uniform(-3.0, 3.0, M // 2), gen.uniform(-3000.0, 3000.0, M // 2)])
    w = 0.99 * a * gen.uniform(-1.0, 1.0, M) + 1j * (z.imag + gaps)
    return z, w


def _mp(z):
    return mpmath.mpc(complex(z).real, complex(z).imag)


def _mp_disc(z, w):
    return mpmath.atanh(abs(_mp(z) - _mp(w)) / abs(1 - mpmath.conj(_mp(w)) * _mp(z)))


def _mp_strip(a, z, w):
    a = mpmath.mpf(a)
    z, w = _mp(z), _mp(w)
    p = mpmath.pi * (z.imag - w.imag) / (4 * a)
    q = mpmath.pi * (z.real - w.real) / (4 * a)
    c = mpmath.cos(mpmath.pi * z.real / (2 * a)) * mpmath.cos(mpmath.pi * w.real / (2 * a))
    return mpmath.asinh(mpmath.sqrt(mpmath.sinh(p) ** 2 + mpmath.sin(q) ** 2) / mpmath.sqrt(c))


def _mp_ball(z, w):
    z, w = [_mp(c) for c in z], [_mp(c) for c in w]
    inner = sum(a * mpmath.conj(b) for a, b in zip(z, w))
    z2 = sum(abs(a) ** 2 for a in z)
    w2 = sum(abs(b) ** 2 for b in w)
    return mpmath.atanh(mpmath.sqrt(1 - (1 - z2) * (1 - w2) / abs(1 - inner) ** 2))


def _check(batch, singles, oracle):
    """The batch is an array equal to the Python-float one-pair values, each
    within 1e-13 relative of its 50-digit value."""
    assert isinstance(batch, np.ndarray) and batch.shape == (len(singles),)
    assert all(type(x) is float for x in singles)
    assert np.array_equal(batch, np.array(singles))
    with mpmath.workdps(50):
        for x, want in zip(singles, oracle()):
            assert abs(x - want) <= 1e-13 * abs(want), (x, want)


def test_stable_arctanh_batch():
    x = np.random.default_rng(20).uniform(0.0, 0.999, M)
    _check(cf.stable_arctanh(x), [cf.stable_arctanh(float(t)) for t in x],
           lambda: [mpmath.atanh(mpmath.mpf(float(t))) for t in x])
    with pytest.raises(ValueError):
        cf.stable_arctanh(np.append(x, 1.5))


def test_disc_distance_batch():
    gen = np.random.default_rng(21)
    z, w = _disc(gen, M), _disc(gen, M)
    _check(cf.disc_distance(z, w), [cf.disc_distance(a, b) for a, b in zip(z.tolist(), w.tolist())],
           lambda: [_mp_disc(a, b) for a, b in zip(z, w)])
    with pytest.raises(ValueError):
        cf.disc_distance(np.append(z, 1.01), np.append(w, 0.5))


def test_halfplane_distance_batch():
    gen = np.random.default_rng(22)
    z = -np.exp(gen.uniform(-3.0, 3.0, M)) + 1j * gen.uniform(-5.0, 5.0, M)
    w = -np.exp(gen.uniform(-3.0, 3.0, M)) + 1j * gen.uniform(-5.0, 5.0, M)

    def oracle():
        return [mpmath.asinh(abs(_mp(a) - _mp(b)) / (2 * mpmath.sqrt(_mp(a).real * _mp(b).real)))
                for a, b in zip(z, w)]

    _check(cf.halfplane_distance(z, w),
           [cf.halfplane_distance(a, b) for a, b in zip(z.tolist(), w.tolist())], oracle)
    with pytest.raises(ValueError):
        cf.halfplane_distance(np.append(z, 0.1), np.append(w, -1.0))


def test_halfplane_distance_where_the_quotient_is_not_finite():
    # real parts hundreds of orders of magnitude apart overflow the quotient
    # (the first pair's distance is about 727), and tiny ones underflow
    # x_z x_w to 0 with a moderate quotient; a batch that mixes them with an
    # ordinary pair keeps the ordinary pair's bits
    z = np.array([-5e-324, -1e-300 + 2j, -1e-200, -1e-170, -0.5 + 0.25j])
    w = np.array([-1.7e308 + 1j, -1e300 - 3j, -1e-200 + 1e-200j, -3e-170 + 1e-169j, -2.0 - 1j])

    def oracle():
        return [mpmath.asinh(abs(_mp(a) - _mp(b)) / (2 * mpmath.sqrt(_mp(a).real * _mp(b).real)))
                for a, b in zip(z, w)]

    _check(cf.halfplane_distance(z, w),
           [cf.halfplane_distance(a, b) for a, b in zip(z.tolist(), w.tolist())], oracle)
    assert 727.0 < cf.halfplane_distance(z[0], w[0]) < 727.1
    assert cf.halfplane_distance(z[-1:], w[-1:])[0] == cf.halfplane_distance(z, w)[-1]


def test_strip_distance_batch():
    a = 1.3
    z, w = _strip_pairs(np.random.default_rng(23), a)
    assert np.max(math.pi * np.abs(z.imag - w.imag) / (4.0 * a)) > 350.0
    _check(cf.strip_distance(a, z, w),
           [cf.strip_distance(a, p, q) for p, q in zip(z.tolist(), w.tolist())],
           lambda: [_mp_strip(a, p, q) for p, q in zip(z, w)])
    with pytest.raises(ValueError):
        cf.strip_distance(a, np.append(z, 1.3), np.append(w, 0.0))


def test_strip_distance_offset_batch():
    gen = np.random.default_rng(24)
    lo, hi = gen.uniform(-2.0, -0.5, M), gen.uniform(0.5, 2.0, M)
    mid, a = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z, w = _strip_pairs(gen, 1.0)
    z, w = mid + a * z.real + 1j * z.imag, mid + a * w.real + 1j * w.imag
    _check(cf.strip_distance_offset(lo, hi, z, w),
           [cf.strip_distance_offset(l, h, p, q)
            for l, h, p, q in zip(lo.tolist(), hi.tolist(), z.tolist(), w.tolist())],
           lambda: [_mp_strip(mpmath.mpf(float(h)) / 2 - mpmath.mpf(float(l)) / 2,
                              _mp(p) - (mpmath.mpf(float(l)) + float(h)) / 2,
                              _mp(q) - (mpmath.mpf(float(l)) + float(h)) / 2)
                    for l, h, p, q in zip(lo, hi, z, w)])
    with pytest.raises(ValueError):
        cf.strip_distance_offset(np.append(lo, -1.0), np.append(hi, 1.0),
                                 np.append(z, -1.0), np.append(w, 0.0))


def test_strip_density_batch():
    gen = np.random.default_rng(25)
    a = 0.7
    z = 0.99 * a * gen.uniform(-1.0, 1.0, M) + 1j * gen.uniform(-3.0, 3.0, M)
    v = gen.normal(size=M) + 1j * gen.normal(size=M)

    def oracle():
        return [mpmath.pi / (4 * mpmath.mpf(a)) * abs(_mp(t))
                / mpmath.cos(mpmath.pi * _mp(p).real / (2 * mpmath.mpf(a))) for p, t in zip(z, v)]

    _check(cf.strip_density(a, z, v),
           [cf.strip_density(a, p, t) for p, t in zip(z.tolist(), v.tolist())], oracle)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_distance_batch(n):
    gen = np.random.default_rng(26 + n)
    z, w = _ball(gen, M, n), _ball(gen, M, n)
    _check(cf.ball_distance(z, w), [cf.ball_distance(a, b) for a, b in zip(z, w)],
           lambda: [_mp_ball(a, b) for a, b in zip(z, w)])
    outside = np.zeros(n, dtype=complex)
    outside[-1] = 1.01
    with pytest.raises(ValueError):
        cf.ball_distance(np.vstack([z, outside]), np.vstack([w, np.zeros(n)]))


def test_ball_distance_index_pairs_are_built_once_per_dimension():
    # the kernel with indices built afresh on every call, as it was before
    # they were cached; the cached ones are read-only
    def fresh(z, w):
        diff = np.abs(z - w)
        i, j = np.triu_indices(z.shape[-1], 1)
        cross = np.abs(z[..., i] * w[..., j] - z[..., j] * w[..., i])
        tanh2 = (np.maximum(0.0, rowdot(diff, diff) - rowdot(cross, cross))
                 / np.abs(1.0 - rowdot(z, np.conj(w))) ** 2)
        return cf.stable_arctanh(np.sqrt(tanh2))

    gen = np.random.default_rng(50)
    for n in range(1, 5):
        z, w = _ball(gen, M, n), _ball(gen, M, n)
        assert cf.ball_distance(z, w).tolist() == fresh(z, w).tolist()
        assert cf.ball_distance(z[0], w[0]) == fresh(z[0], w[0])
        assert cf._index_pairs(n) is cf._index_pairs(n)
        for index in cf._index_pairs(n):
            assert not index.flags.writeable


@pytest.mark.parametrize("n", [2, 3])
def test_polydisc_distance_batch(n):
    gen = np.random.default_rng(30 + n)
    z, w = _disc(gen, (M, n)), _disc(gen, (M, n))
    _check(cf.polydisc_distance(z, w), [cf.polydisc_distance(a, b) for a, b in zip(z, w)],
           lambda: [max(_mp_disc(p, q) for p, q in zip(a, b)) for a, b in zip(z, w)])
    outside = np.full(n, 0.5, dtype=complex)
    outside[0] = 1.01j
    with pytest.raises(ValueError):
        cf.polydisc_distance(np.vstack([z, outside]), np.vstack([w, np.zeros(n)]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_and_polydisc_density_batch(n):
    gen = np.random.default_rng(40 + n)
    z = _ball(gen, M, n, radius=0.9)
    v = gen.normal(size=(M, n)) + 1j * gen.normal(size=(M, n))
    for kernel in (cf.ball_density, cf.polydisc_density):
        singles = [kernel(a, b) for a, b in zip(z, v)]
        assert all(type(x) is float for x in singles)
        assert np.array_equal(kernel(z, v), np.array(singles))


# the strip kernel as one formula, as it was before its split into a real
# and an imaginary stage; the stages must compose to it bit for bit
def _reference_strip_distance(halfwidth, z, w):
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    x1, x2 = z.real, w.real
    ap = np.abs(math.pi * (z.imag - w.imag) / (4.0 * halfwidth))
    q = math.pi * (x1 - x2) / (4.0 * halfwidth)
    c = np.cos(math.pi * x1 / (2.0 * halfwidth)) * np.cos(math.pi * x2 / (2.0 * halfwidth))
    out = np.arcsinh(np.sqrt(np.sinh(np.minimum(ap, 350.0)) ** 2 + np.sin(q) ** 2) / np.sqrt(c))
    return np.where(ap > 350.0, ap - 0.5 * np.log(c), out)


_UNIT = st.floats(-0.999, 0.999, allow_nan=False)


@given(a=st.floats(0.05, 20.0), s1=_UNIT, s2=_UNIT,
       dy=st.one_of(st.floats(-5.0, 5.0), st.floats(-1e4, 1e4), st.just(0.0)),
       dropped=st.booleans())
def test_split_strip_kernel_equals_the_one_formula(a, s1, s2, dy, dropped):
    # `dropped` is the slab table's stand-in for a dropped extra slab:
    # (-1, 1) with both points at 0, whose distance is 0
    if dropped:
        a, s1, s2, dy = 1.0, 0.0, 0.0, 0.0
    x1, x2 = s1 * a, s2 * a
    # imaginary gaps of up to 1e4 half-widths take the ap > 350 branch
    z, w = complex(x1, 0.5), complex(x2, 0.5 + dy * a)
    want = float(_reference_strip_distance(a, z, w))
    assert cf.strip_distance(a, z, w) == want
    staged = cf.strip_imag_stage(a, np.array([z.imag - w.imag]),
                                 *cf.strip_real_stage(a, np.array([x1]), np.array([x2])))
    assert staged.tolist() == [want]
    if dropped:
        assert want == 0.0


def test_split_strip_kernel_batch_takes_both_branches():
    gen = np.random.default_rng(17)
    a = gen.uniform(0.1, 5.0, M)
    z, w = _strip_pairs(gen, a)
    want = _reference_strip_distance(a, z, w)
    big = np.abs(math.pi * (z.imag - w.imag) / (4.0 * a)) > 350.0
    assert big.any() and not big.all()
    assert cf.strip_distance(a, z, w).tolist() == want.tolist()


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 9),
       far=st.sampled_from([0.0, 0.3, 1.0, None]))
def test_one_arcsinh_per_row_is_the_row_max_of_the_stage(seed, rows, cols, far):
    # the row max of the arcsinh arguments, with the cells past the cap in
    # their asymptotic form, is the row max of the per-cell stage to the
    # bit: rows with no cell past the cap, mixed rows and rows of such
    # cells only, single-column rows among them.  far None draws dy = 0,
    # as signed zeros, where `strip_flat_max` on real parts with that
    # stage gives the same bytes, its last column (dropped in some rows) as
    # the column along Re(v - u)
    gen = np.random.default_rng(seed)
    halfwidth = gen.uniform(0.05, 5.0, (rows, cols))
    # about a `far` share of the cells lie past ap = 350
    scale = np.where(gen.uniform(size=(rows, cols)) < (far or 0.0), 1e3, 5.0)
    dy = scale * halfwidth * gen.uniform(-1.0, 1.0, (rows, cols))
    sin2q = gen.uniform(0.0, 1.0, (rows, cols))
    c = np.cos(math.pi * gen.uniform(-0.999, 0.999, (rows, cols)) / 2.0) \
        * np.cos(math.pi * gen.uniform(-0.999, 0.999, (rows, cols)) / 2.0)
    c[:, -1] = 1.0  # a dropped slab's cell
    if far is None:
        dy = np.where(gen.uniform(size=(rows, cols)) < 0.5, -0.0, 0.0)
        x1, x2 = halfwidth * gen.uniform(-0.999, 0.999, (2, rows, cols))
        x1[::2, -1] = x2[::2, -1] = 0.0
        cos1, cos2 = cf.strip_point_stage(halfwidth, x1), cf.strip_point_stage(halfwidth, x2)
        flat_sin2q, flat_c = cf.strip_pair_stage(halfwidth, x1, x2, cos1, cos2)
        lower = cf.strip_flat_max(halfwidth, x1, x2, cos1, cos2, cols - 1)
        assert lower.shape == (rows,)
        assert lower.tobytes() == cf.strip_imag_max(halfwidth, dy, flat_sin2q, flat_c).tobytes()
    want = np.max(cf.strip_imag_stage(halfwidth, dy, sin2q, c), axis=1)
    assert cf.strip_imag_max(halfwidth, dy, sin2q, c).tobytes() == want.tobytes()


def test_one_arcsinh_per_row_takes_every_kind_of_row():
    # a row under the cap, a mixed row, a row past the cap, a row whose
    # largest cell is under the cap although another is past it (c tiny),
    # and a single-column row past the cap
    halfwidth = np.ones((4, 3))
    dy = np.array([[1.0, 2.0, 3.0], [1.0, 500.0, 3.0], [500.0, 600.0, 700.0],
                   [445.0, 446.0, 1.0]])
    c = np.array([[0.5, 0.9, 1.0], [0.5, 0.9, 1.0], [0.5, 0.9, 1.0], [1e-300, 1.0, 1.0]])
    sin2q = np.full((4, 3), 0.25)
    ap = np.abs(math.pi * dy / 4.0)
    assert [(row > 350.0).sum() for row in ap] == [0, 1, 3, 1]
    stage = cf.strip_imag_stage(halfwidth, dy, sin2q, c)
    assert np.argmax(stage[3]) == 0 and ap[3, 0] < 350.0 < ap[3, 1]
    assert cf.strip_imag_max(halfwidth, dy, sin2q, c).tolist() == np.max(stage, axis=1).tolist()
    one = (halfwidth[:1, :1], dy[2:3, :1], sin2q[:1, :1], c[:1, :1])
    assert cf.strip_imag_max(*one).tolist() == cf.strip_imag_stage(*one)[:, 0].tolist()
