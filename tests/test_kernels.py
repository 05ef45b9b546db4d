"""Batch axes on the shared kernels: a stack of inputs gives the stack of
the per-input results, bit for bit, since each entry goes through the same
arithmetic as a lone input."""

import numpy as np
import pytest

from gradleak import SeedRng
from gradleak import _kernels as k


def _rand(rng, shape):
    return np.array([rng.uniform() * 2 - 1 for _ in range(int(np.prod(shape)))]).reshape(shape)


# name -> (kernel call, operand shapes, which operands carry the batch axis)
CASES = {
    "pad2d": (lambda a: k.pad2d(a, 2), [(6, 5, 3)], (True,)),
    "crop2d": (lambda a: k.crop2d(a, 1), [(6, 5, 3)], (True,)),
    "corr2d": (k.corr2d, [(9, 8, 3), (3, 3, 3, 4)], (True, False)),
    "corr2d_batched_kernel": (k.corr2d, [(9, 8, 3), (3, 3, 3, 4)], (True, True)),
    "kgrad_corr": (k.kgrad_corr, [(9, 8, 3), (7, 6, 4)], (True, True)),
    "rotswap": (k.rotswap, [(3, 3, 2, 5)], (True,)),
    "sslice2d": (lambda a: k.sslice2d(a, 2), [(7, 9, 2)], (True,)),
    "dilate2d": (lambda a: k.dilate2d(a, 2, 7, 9), [(4, 5, 2)], (True,)),
    "avg_pool": (lambda a: k.avg_pool(a, 3, 2), [(9, 7, 2)], (True,)),
    "avg_unpool": (lambda a: k.avg_unpool(a, 3, 2, 9, 7), [(4, 3, 2)], (True,)),
    "sigmoid": (lambda a: k.sigmoid(30.0 * a), [(6, 5, 3)], (True,)),
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
