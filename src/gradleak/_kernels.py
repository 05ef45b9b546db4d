"""NumPy kernels the graph's evaluation rules call.

Layout conventions: images/features are HxWxC, kernels are khxkwxCxD.
Every kernel also accepts leading batch axes on its operands, (..., H, W, C)
and (..., kh, kw, C, D), and works on the trailing axes only, so a stack of
inputs gives the stack of the per-input results.
All functions are pure: inputs of any layout are never mutated, and the
in-place steps write only arrays the kernel allocated.

The correlations are row-wise im2col: `im2col` copies the kw column shifts
of every input row side by side once, and `corr2d` and `kgrad_corr` take
that copy, view it as the kh overlapping blocks the kernel rows read and
make one stacked GEMM over the kernel rows, so correlations that read one
input share one copy. `corr2d` then sums the rows' products in row order.
`avg_unpool` fills the disjoint cells of a window == stride pool (the
layer's own geometry) with one broadcast assignment, into an uninitialised
canvas when the windows tile it; overlapping or gapped windows keep the loop.

A compiled plan calls these kernels on small arrays (a 12x12 attack step
makes about 40 kernel calls of a few microseconds each), so fixed per-call
work counts as much as arithmetic: a correlation reads its leading axes off
its rows unless the kernel is stacked, and `avg_pool` adds its cells into
one accumulator without building a list of them.
"""

from __future__ import annotations

import numpy as np


def pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    h, w, c = x.shape[-3:]
    out = np.zeros(x.shape[:-3] + (h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    out[..., p : p + h, p : p + w, :] = x
    return out


def crop2d(x: np.ndarray, p: int) -> np.ndarray:
    return x[..., p : x.shape[-3] - p, p : x.shape[-2] - p, :]


def im2col(x: np.ndarray, kw: int) -> np.ndarray:
    """The kw column shifts of every row of x, copied once: (..., H, ow, kw, C).

    Entry [..., r, o, j, c] is x[..., r, o + j, c], with ow = W - kw + 1.
    The copy is taken from a view of the contiguous input whose shift axis
    repeats the column stride, so the shifted rows overlap until copied.
    """
    x = np.ascontiguousarray(x)
    ow = x.shape[-2] - kw + 1
    shifts = np.ndarray(x.shape[:-2] + (ow, kw, x.shape[-1]), x.dtype, x, 0,
                        x.strides[:-1] + x.strides[-2:])
    return shifts.copy()


def _row_blocks(rows: np.ndarray, kh: int) -> np.ndarray:
    """What each kernel row reads from `im2col` rows, stacked: (..., kh, oh*ow, kw*C).

    Entry [..., i, r * ow + o, j * C + c] is rows[..., i + r, o, j, c]. The
    kernel-row axis steps one input row of the contiguous copy, so the kh
    overlapping blocks are views of it.
    """
    rows = np.ascontiguousarray(rows)
    h, ow, kw, c = rows.shape[-4:]
    step = rows.strides[-3]
    return np.ndarray(rows.shape[:-4] + (kh, (h - kh + 1) * ow, kw * c), rows.dtype, rows, 0,
                      rows.strides[:-4] + (ow * step, step, rows.strides[-1]))


def corr2d(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid cross-correlation with stride 1 of the input whose `im2col`
    rows are given; sums over input channels.

    One stacked GEMM gives every kernel row's (oh*ow, kw*C) @ (kw*C, D)
    product, written kernel row first so each row's products are contiguous
    for any leading axes. The leading axes are the rows' own when the kernel
    has none, as in the attacks' plans, else the broadcast of both operands';
    without any, the GEMM's own output is already in that order. The rows
    are then summed by explicit adds in order
    0, 1, ..., kh-1. A `sum` over the row axis would not keep that order:
    NumPy sums pairwise when the reduced axis becomes its inner loop (a 1x1
    output of one channel), which changes the low bits.
    """
    kh, kw, c, d = k.shape[-4:]
    oh, ow = rows.shape[-4] - kh + 1, rows.shape[-3]
    lead = rows.shape[:-4] if k.ndim == 4 else np.broadcast_shapes(rows.shape[:-4], k.shape[:-4])
    blocks, kr = _row_blocks(rows, kh), k.reshape(k.shape[:-4] + (kh, kw * c, d))
    if lead:
        parts = np.empty((kh,) + lead + (oh * ow, d), dtype=rows.dtype)
        np.matmul(blocks, kr, out=parts.transpose(*range(1, len(lead) + 1), 0, -2, -1))
    else:
        parts = blocks @ kr
    out = parts[0]
    if kh > 1:
        out = out + parts[1]
        for i in range(2, kh):
            out += parts[i]
    return out.reshape(lead + (oh, ow, d))


def kgrad_corr(rows: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Kernel-shaped correlation of the input whose `im2col` rows are given:
    out[a,b,c,d] = sum_ij x[a+i,b+j,c] * dy[i,j,d].

    One stacked GEMM, blocks^T @ dy, writes all kh kernel rows; nothing is
    summed across rows.
    """
    oh, ow, d = dy.shape[-3:]
    h, _, kw, c = rows.shape[-4:]
    blocks = _row_blocks(rows, h - oh + 1)
    out = blocks.swapaxes(-1, -2) @ dy.reshape(dy.shape[:-3] + (1, oh * ow, d))
    return out.reshape(out.shape[:-2] + (kw, c, d))


def rotswap(k: np.ndarray) -> np.ndarray:
    """180-degree spatial flip plus a swap of the two channel axes."""
    return np.ascontiguousarray(k[..., ::-1, ::-1, :, :].swapaxes(-1, -2))


def sslice2d(x: np.ndarray, s: int) -> np.ndarray:
    if s == 1:
        return x
    return np.ascontiguousarray(x[..., ::s, ::s, :])


def dilate2d(x: np.ndarray, s: int, h: int, w: int) -> np.ndarray:
    """Inverse of sslice2d onto an h x w canvas: zeros off the stride grid."""
    ah, aw = x.shape[-3], x.shape[-2]
    if s == 1 and ah == h and aw == w:
        return x
    out = np.zeros(x.shape[:-3] + (h, w, x.shape[-1]), dtype=x.dtype)
    out[..., 0 : (ah - 1) * s + 1 : s, 0 : (aw - 1) * s + 1 : s, :] = x
    return out


def avg_pool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Mean over window x window cells placed every `stride` pixels.

    The cells are summed in (a, b) order from 0.0, so a -0.0 cell sum is +0.0.
    """
    oh = (x.shape[-3] - window) // stride + 1
    ow = (x.shape[-2] - window) // stride + 1
    rows = (oh - 1) * stride + 1
    cols = (ow - 1) * stride + 1
    total = x[..., 0 : rows : stride, 0 : cols : stride, :] + 0.0
    for a in range(window):
        for b in range(a == 0, window):  # cell (0, 0) is already in
            total += x[..., a : a + rows : stride, b : b + cols : stride, :]
    total /= float(window * window)
    return total


def avg_unpool(gy: np.ndarray, window: int, stride: int, h: int, w: int) -> np.ndarray:
    """Adjoint of avg_pool: spreads each cell's value/window^2 over its window.

    Every pixel is 0.0 plus the shares of the windows covering it.
    """
    gh, gw, c = gy.shape[-3:]
    tiled = window == stride and gh * stride == h and gw * stride == w
    # disjoint windows that tile the canvas write every pixel; else start from zeros
    out = (np.empty if tiled else np.zeros)(gy.shape[:-3] + (h, w, c), dtype=gy.dtype)
    g = gy / float(window * window)
    if window == stride:
        cells = out[..., : gh * stride, : gw * stride, :].reshape(
            gy.shape[:-3] + (gh, stride, gw, stride, c))
        np.add(g[..., :, None, :, None, :], 0.0, out=cells)
        return out
    rows = (gh - 1) * stride + 1
    cols = (gw - 1) * stride + 1
    for a in range(window):
        for b in range(window):
            out[..., a : a + rows : stride, b : b + cols : stride, :] += g
    return out


def sigmoid(v: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-v)), masked into two branches so no exp ever overflows:
    v >= 0 takes 1/(1 + e) and v < 0 takes e/(1 + e), both with e = exp(-|v|)."""
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash, used for model-spec digests."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
