"""Independent reference implementations the tests check the package against.

Everything here is deliberately naive (nested loops, high-precision decimal
arithmetic, central finite differences) and shares no code with the package
internals beyond numpy itself.
"""

import math
from decimal import Decimal, getcontext

import numpy as np


def loop_affine(w, x, b):
    m, n = len(w), len(w[0])
    out = [0.0] * m
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += w[i][j] * x[j]
        out[i] = acc + b[i]
    return np.array(out)


def loop_conv2d(x, k, stride=1, padding=0, flip=False):
    """Six-nested-loop convolution; x is HxWxC, k is khxkwxCxD."""
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    h, w, c = x.shape
    kh, kw, _, d = k.shape
    if padding:
        padded = np.zeros((h + 2 * padding, w + 2 * padding, c))
        padded[padding : padding + h, padding : padding + w, :] = x
        x = padded
        h, w = x.shape[0], x.shape[1]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((oh, ow, d))
    for i in range(oh):
        for j in range(ow):
            for dd in range(d):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        for cc in range(c):
                            if flip:
                                kv = k[kh - 1 - a, kw - 1 - b, cc, dd]
                            else:
                                kv = k[a, b, cc, dd]
                            acc += x[i * stride + a, j * stride + b, cc] * kv
                out[i, j, dd] = acc
    return out


def loop_avg_pool(x, window, stride):
    x = np.asarray(x, dtype=float)
    h, w, c = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            for cc in range(c):
                acc = 0.0
                for a in range(window):
                    for b in range(window):
                        acc += x[i * stride + a, j * stride + b, cc]
                out[i, j, cc] = acc / (window * window)
    return out


# Slice-loop and row-loop forms of six `_kernels` functions; the kernels must
# match them bit for bit, signed zeros included.
def slice_loop_shifted_rows(x, kw, ow):
    c = x.shape[-1]
    rows = np.empty(x.shape[:-2] + (ow, kw * c), dtype=x.dtype)
    for j in range(kw):
        rows[..., j * c : (j + 1) * c] = x[..., j : j + ow, :]
    return rows


def row_loop_corr2d(x, k):
    """One GEMM per kernel row, accumulated in row order 0, 1, ..., kh-1."""
    kh, kw, c, d = k.shape[-4:]
    h = x.shape[-3]
    oh, ow = h - kh + 1, x.shape[-2] - kw + 1
    rows = slice_loop_shifted_rows(x, kw, ow).reshape(x.shape[:-3] + (h * ow, kw * c))
    kr = k.reshape(k.shape[:-4] + (kh, kw * c, d))
    out = rows[..., : oh * ow, :] @ kr[..., 0, :, :]
    for i in range(1, kh):
        out += rows[..., i * ow : (i + oh) * ow, :] @ kr[..., i, :, :]
    return out.reshape(out.shape[:-2] + (oh, ow, d))


def row_loop_kgrad_corr(x, dy):
    """One GEMM per kernel row, each written into its row of the result."""
    oh, ow, d = dy.shape[-3:]
    h, w, c = x.shape[-3:]
    kh, kw = h - oh + 1, w - ow + 1
    rows = slice_loop_shifted_rows(x, kw, ow).reshape(x.shape[:-3] + (h * ow, kw * c))
    dyf = dy.reshape(dy.shape[:-3] + (oh * ow, d))
    lead = np.broadcast_shapes(x.shape[:-3], dy.shape[:-3])
    out = np.empty(lead + (kh, kw * c, d), dtype=x.dtype)
    for a in range(kh):
        np.matmul(rows[..., a * ow : (a + oh) * ow, :].swapaxes(-1, -2), dyf,
                  out=out[..., a, :, :])
    return out.reshape(lead + (kh, kw, c, d))


def slice_loop_avg_pool(x, window, stride):
    oh = (x.shape[-3] - window) // stride + 1
    ow = (x.shape[-2] - window) // stride + 1
    rows = (oh - 1) * stride + 1
    cols = (ow - 1) * stride + 1
    total = np.zeros(x.shape[:-3] + (oh, ow, x.shape[-1]), dtype=x.dtype)
    for a in range(window):
        for b in range(window):
            total += x[..., a : a + rows : stride, b : b + cols : stride, :]
    return total / float(window * window)


def slice_loop_avg_unpool(gy, window, stride, h, w):
    out = np.zeros(gy.shape[:-3] + (h, w, gy.shape[-1]), dtype=gy.dtype)
    g = gy / float(window * window)
    rows = (gy.shape[-3] - 1) * stride + 1
    cols = (gy.shape[-2] - 1) * stride + 1
    for a in range(window):
        for b in range(window):
            out[..., a : a + rows : stride, b : b + cols : stride, :] += g
    return out


def two_quotient_sigmoid(v):
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def loop_mse_255(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.clip(np.asarray(b, dtype=float).ravel(), 0.0, 1.0)
    total = 0.0
    for x, y in zip(a, b):
        total += (255.0 * (x - y)) ** 2
    return total / a.size


def softmax_hp(v, digits=50):
    """Softmax evaluated in `digits`-digit decimal arithmetic."""
    getcontext().prec = digits
    exps = [Decimal(float(x)).exp() for x in v]
    s = sum(exps)
    return np.array([float(e / s) for e in exps])


def log_softmax_hp(v, digits=50):
    """log(softmax(v)) evaluated in `digits`-digit decimal arithmetic."""
    getcontext().prec = digits
    xs = [Decimal(float(x)) for x in v]
    lse = sum(x.exp() for x in xs).ln()
    return np.array([float(x - lse) for x in xs])


def cross_entropy_hp(probs, targets, digits=50):
    getcontext().prec = digits
    acc = Decimal(0)
    for p, t in zip(probs, targets):
        if t != 0:
            acc -= Decimal(float(t)) * Decimal(float(p)).ln()
    return float(acc)


def splitmix64_ref(seed, n):
    """Reference SplitMix64 stream, written independently from the package."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def loop_build_model(seed, layout):
    """Model parameters drawn one SplitMix64 uniform at a time.

    `layout` lists (tensor name, shape, fan-in) in draw order; each element
    is (u - 0.5) / sqrt(fan-in), u being the 53 high bits of the next output.
    """
    stream = iter(splitmix64_ref(seed, sum(math.prod(shape) for _, shape, _ in layout)))
    out = {}
    for name, shape, fan_in in layout:
        scale = 1.0 / math.sqrt(fan_in)
        vals = [((next(stream) >> 11) * 2.0**-53 - 0.5) * scale for _ in range(math.prod(shape))]
        out[name] = np.array(vals).reshape(shape)
    return out


def loop_ramp_image(width, height, channels):
    """Diagonal 0..255 ramp, HxWxC uint8, filled one sample at a time."""
    img = np.zeros((height, width, channels), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            for ch in range(channels):
                img[y, x, ch] = ((x + y + ch) * 255) // (width + height + channels - 3)
    return img


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_gradient(run, bindings, name, h=1e-5):
    """Central-difference gradient of a scalar evaluator w.r.t. bindings[name]."""
    base = np.asarray(bindings[name], dtype=float)
    grad = np.zeros_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus.ravel()[i] += h
        minus = base.copy()
        minus.ravel()[i] -= h
        bindings[name] = plus
        fp = float(run(bindings)[0])
        bindings[name] = minus
        fm = float(run(bindings)[0])
        grad.ravel()[i] = (fp - fm) / (2.0 * h)
    bindings[name] = base
    return grad


def explicit_broyden_update(jt, gram, s, dr):
    """Broyden's secant update written out on whole matrices.

    jt is a transposed Jacobian (one row per input) and gram = jt jt^T. For
    the step s with residual change dr, the new jt is jt + s u^T with
    u = (dr - jt^T s) / (s.s), and gram gets the matching rank-two correction
    w s^T + s w^T + (u.u) s s^T with w = jt u. Returns new arrays.
    """
    u = (dr - jt.T @ s) / (s @ s)
    w = jt @ u
    gram = gram + np.outer(w, s) + np.outer(s, w) + (u @ u) * np.outer(s, s)
    return jt + np.outer(s, u), gram
