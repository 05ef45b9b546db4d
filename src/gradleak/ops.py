"""Eager tensor operations: the numeric primitives the attackable models use.

These run immediately on concrete values and raise on malformed shapes. The
differentiable versions of the same operations live on `ExprGraph`; both call
into the shared kernels so the two paths agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as k
from .errors import DomainError, GeometryError, ShapeError
from .tensor import Tensor, as_array


def affine(weight, x, bias) -> Tensor:
    """weight @ x + bias for a single sample: (m x n) @ (n,) + (m,) -> (m,)."""
    w = as_array(weight)
    v = as_array(x)
    b = as_array(bias)
    if w.ndim != 2:
        raise ShapeError(f"affine: weight must be 2-D, got shape {w.shape}")
    if v.ndim != 1 or v.shape[0] != w.shape[1]:
        raise ShapeError(
            f"affine: input of shape {v.shape} does not match weight columns {w.shape[1]}"
        )
    if b.shape != (w.shape[0],):
        raise ShapeError(
            f"affine: bias of shape {b.shape} does not match weight rows {w.shape[0]}"
        )
    return Tensor(w @ v + b)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a sliding window: (size + 2*padding - kernel)/stride + 1."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise GeometryError(f"window {kernel} and stride {stride} must be positive and "
                            f"padding {padding} non-negative")
    span = size + 2 * padding - kernel
    if span < 0:
        raise GeometryError(
            f"window of size {kernel} does not fit input extent {size} with padding {padding}"
        )
    if span % stride != 0:
        raise GeometryError(
            f"extent {size} with kernel {kernel}, padding {padding} is not divisible "
            f"by stride {stride}"
        )
    return span // stride + 1


def conv2d(input, kernel, stride: int = 1, zero_padding: int = 0, flip: bool = False) -> Tensor:
    """2-D convolution of an HxWxC input with a khxkwxCxD kernel stack.

    flip=False computes cross-correlation (the usual CNN convention);
    flip=True rotates the kernel 180 degrees first, i.e. true convolution.
    """
    x = as_array(input)
    kr = as_array(kernel)
    if x.ndim != 3:
        raise ShapeError(f"conv2d: input must be HxWxC, got shape {x.shape}")
    if kr.ndim != 4 or kr.shape[0] != kr.shape[1]:
        raise ShapeError(f"conv2d: kernel must be kxkxCxD, got shape {kr.shape}")
    if kr.shape[2] != x.shape[2]:
        raise ShapeError(
            f"conv2d: kernel expects {kr.shape[2]} input channels, input has {x.shape[2]}"
        )
    conv_output_size(x.shape[0], kr.shape[0], stride, zero_padding)
    conv_output_size(x.shape[1], kr.shape[0], stride, zero_padding)
    if flip:
        kr = np.ascontiguousarray(kr[::-1, ::-1])
    out = k.corr2d(k.pad2d(x, zero_padding), kr)
    return Tensor(k.sslice2d(out, stride))


def avg_pool2d(input, window: int, stride: int) -> Tensor:
    """Mean over non-overlapping (or strided) square windows, per channel."""
    x = as_array(input)
    if x.ndim != 3:
        raise ShapeError(f"avg_pool2d: input must be HxWxC, got shape {x.shape}")
    conv_output_size(x.shape[0], window, stride, 0)
    conv_output_size(x.shape[1], window, stride, 0)
    return Tensor(k.avg_pool(x, window, stride))


def sigmoid(x) -> Tensor:
    """Element-wise 1/(1 + exp(-x)); saturates but never leaves (0, 1)."""
    return Tensor(k.sigmoid(as_array(x)))


def softmax(logits) -> Tensor:
    """Stable softmax of a logit vector: positive entries summing to 1."""
    v = as_array(logits)
    if v.ndim != 1 or v.size < 1:
        raise ShapeError(f"softmax: logits must be a non-empty vector, got shape {v.shape}")
    e = np.exp(v - np.max(v))
    return Tensor(e / e.sum())


def cross_entropy(probs, target_probs) -> float:
    """-sum(target * ln(prob)) over classes.

    Entries with zero target weight contribute nothing, whatever their
    probability; a non-positive probability under a positive target is a
    domain error.
    """
    p = as_array(probs)
    t = as_array(target_probs)
    if p.shape != t.shape or p.ndim != 1:
        raise ShapeError(
            f"cross_entropy: probs {p.shape} and target_probs {t.shape} must be equal vectors"
        )
    active = t > 0
    if np.any(p[active] <= 0):
        raise DomainError("cross_entropy: non-positive probability under a positive target")
    return float(-np.sum(t[active] * np.log(p[active])))
