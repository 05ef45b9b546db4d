"""The shared kernels, bit for bit: a stack of inputs gives the stack of the
per-input results, the layout and writeability of an operand change nothing,
and the results equal the slice loops in `oracles`, signed zeros included."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gradleak import SeedRng
from gradleak import _kernels as k
from gradleak.graph import _margin


def _rand(rng, shape):
    return np.array([(rng.uniform() * 2 - 1) * 30
                     for _ in range(int(np.prod(shape)))]).reshape(shape)


def _corr2d(x, kernel):
    return k.corr2d(k.im2col(x, kernel.shape[-3]), kernel)


def _kgrad_corr(x, dy):
    return k.kgrad_corr(k.im2col(x, x.shape[-2] - dy.shape[-2] + 1), dy)


# name -> (kernel call, operand shapes, which operands carry the batch axis)
CASES = {
    "pad2d": (lambda a: k.pad2d(a, 2), [(6, 5, 3)], (True,)),
    "crop2d": (lambda a: k.crop2d(a, 1), [(6, 5, 3)], (True,)),
    "im2col": (lambda a: k.im2col(a, 3), [(6, 5, 3)], (True,)),
    "corr2d": (_corr2d, [(9, 8, 3), (3, 3, 3, 4)], (True, False)),
    "corr2d_batched_kernel": (_corr2d, [(9, 8, 3), (3, 3, 3, 4)], (True, True)),
    "kgrad_corr": (_kgrad_corr, [(9, 8, 3), (7, 6, 4)], (True, True)),
    "rotswap": (k.rotswap, [(3, 3, 2, 5)], (True,)),
    "sslice2d": (lambda a: k.sslice2d(a, 2), [(7, 9, 2)], (True,)),
    "dilate2d": (lambda a: k.dilate2d(a, 2, 7, 9), [(4, 5, 2)], (True,)),
    "avg_pool": (lambda a: k.avg_pool(a, 3, 2), [(9, 7, 2)], (True,)),
    "avg_unpool": (lambda a: k.avg_unpool(a, 3, 2, 9, 7), [(4, 3, 2)], (True,)),
    "sigmoid": (k.sigmoid, [(6, 5, 3)], (True,)),
}


@pytest.mark.parametrize("lead", [(4,), (2, 3)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_kernel_is_stack_of_single_results(case, lead):
    fn, shapes, batched = CASES[case]
    rng = SeedRng(len(case))
    operands = [_rand(rng, lead + s if b else s) for s, b in zip(shapes, batched)]
    got = fn(*operands)
    flat = [op.reshape((-1,) + s) if b else op for op, s, b in zip(operands, shapes, batched)]
    singles = [fn(*(op[i] if b else op for op, b in zip(flat, batched)))
               for i in range(int(np.prod(lead)))]
    want = np.stack(singles).reshape(lead + singles[0].shape)
    assert np.array_equal(got, want)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _cropped(a):
    """A crop2d view holding a's values."""
    pad = [(0, 0)] * a.ndim
    pad[-3] = pad[-2] = (1, 1)
    return k.crop2d(np.pad(a, pad, constant_values=np.nan), 1)


LAYOUTS = {
    "contiguous": lambda a: a.copy(),
    "crop2d": _cropped,
    "negative_stride": lambda a: np.flip(np.flip(a).copy()),
    "swapaxes": lambda a: np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_ignores_operand_layout_and_never_writes_it(case, layout):
    fn, shapes, _ = CASES[case]
    rng = SeedRng(len(case))
    operands = [_rand(rng, s) for s in shapes]
    want = fn(*operands)
    views = [LAYOUTS[layout](op) for op in operands]
    for view in views:
        view.flags.writeable = False  # as Tensor hands arrays over
    got = fn(*views)
    assert np.array_equal(got, want) and _same_bits(got, want)
    assert all(_same_bits(view, op) for view, op in zip(views, operands))


def _special_mix(seed, shape):
    """Values in [-3, 3] with about a third replaced by +-0.0 or +-800."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, shape)
    special = rng.choice(np.array([0.0, -0.0, 800.0, -800.0]), shape)
    return np.where(rng.uniform(size=shape) < 0.35, special, values)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (2,), (2, 1)]),
       pool=st.sampled_from([(2, 2), (3, 3), (3, 2), (2, 3)]),
       h=st.integers(3, 9), w=st.integers(3, 9), c=st.integers(1, 3),
       margin=st.integers(-1, 2), kh=st.integers(1, 4), kw=st.integers(1, 3),
       d=st.integers(1, 3), k_lead=st.sampled_from([(), (1,), (2,)]),
       dy_lead=st.sampled_from([(), (1,), (2,)]))
def test_kernels_keep_the_bits_of_the_slice_loops(seed, lead, pool, h, w, c, margin,
                                                  kh, kw, d, k_lead, dy_lead):
    window, stride = pool
    x = _special_mix(seed, lead + (h, w, c))
    xm = _margin(x, margin)
    oh, ow = xm.shape[-3] - kh + 1, xm.shape[-2] - kw + 1
    if ow >= 1:
        rows = oracles.slice_loop_shifted_rows(xm, kw, ow)
        assert _same_bits(k.im2col(xm, kw).reshape(rows.shape), rows)
    if oh >= 1 and ow >= 1:
        kernel = _special_mix(seed + 2, k_lead + (kh, kw, c, d))
        assert _same_bits(_corr2d(xm, kernel), oracles.row_loop_corr2d(xm, kernel))
        dy = _special_mix(seed + 3, dy_lead + (oh, ow, d))
        assert _same_bits(_kgrad_corr(xm, dy), oracles.row_loop_kgrad_corr(xm, dy))
    assert _same_bits(k.sigmoid(x), oracles.two_quotient_sigmoid(x))
    pooled = oracles.slice_loop_avg_pool(x, window, stride)
    assert _same_bits(k.avg_pool(x, window, stride), pooled)
    gy = _special_mix(seed + 1, pooled.shape)
    assert _same_bits(k.avg_unpool(gy, window, stride, h, w),
                      oracles.slice_loop_avg_unpool(gy, window, stride, h, w))


@pytest.mark.parametrize("lead", [(), (2,)])
@pytest.mark.parametrize("kh", [1, 8, 9])
def test_correlations_keep_the_row_order_of_tall_kernels(kh, lead):
    # a 1x1 output of one channel makes the kernel-row axis the only one a
    # reduction over it would loop over, which is where NumPy sums pairwise
    for seed in range(8):
        for (h, w, c), (kw, d) in (((kh, 3, 1), (3, 1)), ((kh + 2, 5, 2), (3, 3))):
            x = _special_mix(seed, lead + (h, w, c))
            kernel = _special_mix(seed + 100, lead + (kh, kw, c, d))
            dy = _special_mix(seed + 200, lead + (h - kh + 1, w - kw + 1, d))
            assert _same_bits(_corr2d(x, kernel), oracles.row_loop_corr2d(x, kernel))
            assert _same_bits(_kgrad_corr(x, dy), oracles.row_loop_kgrad_corr(x, dy))


@pytest.mark.parametrize("x_lead, other_lead", [
    ((), (3,)),          # the kernel (or dy) alone is stacked
    ((3,), ()),          # the rows alone
    ((3,), (3,)),        # both, axis for axis
    ((3,), (1,)),        # a size-1 axis broadcast against the rows'
    ((1,), (3,)),
    ((2, 1), (3,)),      # two leading axes from two operands
])
def test_correlation_leading_axes_broadcast_like_per_point_calls(x_lead, other_lead):
    # entry i of a stacked call is the call on entry i of each operand,
    # broadcast over size-1 axes, whichever operand carries the axes
    lead = np.broadcast_shapes(x_lead, other_lead)
    for seed in range(3):
        x = _special_mix(seed, x_lead + (7, 6, 2))
        kernel = _special_mix(seed + 10, other_lead + (3, 3, 2, 4))
        dy = _special_mix(seed + 20, other_lead + (5, 4, 4))
        rows = k.im2col(x, 3)
        stacked = {"corr2d": k.corr2d(rows, kernel), "kgrad_corr": k.kgrad_corr(rows, dy)}
        for name, other in (("corr2d", kernel), ("kgrad_corr", dy)):
            rb = np.broadcast_to(rows, lead + rows.shape[len(x_lead):])
            ob = np.broadcast_to(other, lead + other.shape[len(other_lead):])
            fn = getattr(k, name)
            singles = [fn(np.ascontiguousarray(rb[i]), np.ascontiguousarray(ob[i]))
                       for i in np.ndindex(lead)]
            want = np.stack(singles).reshape(lead + singles[0].shape)
            assert _same_bits(stacked[name], want), name
