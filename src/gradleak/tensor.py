"""Dense float64 tensors and the deterministic random stream used everywhere.

Tensors are immutable: the wrapped buffer is row-major, C-contiguous and
marked read-only, so instances can be handed between threads without copies.
All numeric work in the package happens in double precision; the attack
objective is badly conditioned near its optimum and single precision stalls.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Shape = tuple[int, ...]


def _normalize_shape(shape: Iterable[int]) -> Shape:
    dims = tuple(int(d) for d in shape)
    if any(d <= 0 for d in dims):
        raise ShapeError(f"shape {dims} has a non-positive dimension")
    return dims


def _checked(arr: np.ndarray) -> np.ndarray:
    """`arr`, marked read-only, after one scan for non-finite values."""
    if not np.isfinite(arr).all():
        raise ContractError("tensor values must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


class Tensor:
    """Immutable n-dimensional array of finite float64 values."""

    __slots__ = ("_arr",)

    def __init__(self, data, shape: Iterable[int] | None = None):
        arr = np.array(data, dtype=np.float64, order="C", copy=True)
        if shape is not None:
            target = _normalize_shape(shape)
            if arr.size != math.prod(target):
                raise ShapeError(
                    f"data of size {arr.size} does not fill shape {target}"
                )
            arr = arr.reshape(target)
        self._arr = _checked(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Tensor":
        """Wrap `arr` without copying it. The caller hands over a float64,
        C-contiguous array that nothing else writes to: a fresh allocation,
        or a view of immutable bytes."""
        tensor = cls.__new__(cls)
        tensor._arr = _checked(arr)
        return tensor

    @classmethod
    def zeros(cls, shape: Iterable[int]) -> "Tensor":
        return cls(np.zeros(_normalize_shape(shape)))

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the underlying buffer."""
        return self._arr

    @property
    def shape(self) -> Shape:
        return self._arr.shape

    @property
    def ndim(self) -> int:
        return self._arr.ndim

    @property
    def size(self) -> int:
        return self._arr.size

    def item(self) -> float:
        if self._arr.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self._arr.reshape(()))

    def tolist(self):
        return self._arr.tolist()

    def reshape(self, shape: Iterable[int]) -> "Tensor":
        return Tensor(self._arr, shape=shape)

    def __eq__(self, other) -> bool:
        """Exact equality: same shape and bit-identical values."""
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self._arr.tobytes() == other._arr.tobytes()

    __hash__ = None  # mutable-looking value semantics; not a dict key

    def __reduce__(self):
        # rebuild through __init__ so an unpickled buffer is read-only again
        return (Tensor, (self._arr,))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self._arr.tolist()!r})"


def as_array(value) -> np.ndarray:
    """Coerce a Tensor or array-like into a float64 ndarray (no copy for tensors)."""
    if isinstance(value, Tensor):
        return value.array
    return np.asarray(value, dtype=np.float64)


_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SeedRng:
    """SplitMix64 stream with Box-Muller normals.

    The recurrence is fixed so the same seed yields the same draw sequence on
    every platform, which makes whole attack runs reproducible from a single
    CLI seed. Draw k of the stream depends only on `seed + k * golden`, so
    `uniform_array` computes a block of draws in wrapping uint64 NumPy; its
    values and the state it leaves equal as many `uniform()` calls bit for
    bit, and block and scalar draws interleave freely. Each normal consumes
    exactly two uniform draws (the sine branch of the pair is discarded);
    nothing is cached between calls.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & _U64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Next double in [0, 1), from the 53 high bits of the stream."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, shape: Sequence[int]) -> np.ndarray:
        """The next `prod(shape)` uniforms, row-major; equal to that many `uniform()` calls."""
        dims = _normalize_shape(shape)
        n = math.prod(dims)
        # uint64 array arithmetic wraps mod 2**64, as the masks do in next_u64
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.state)
        self.state = (self.state + n * _GOLDEN) & _U64
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        z ^= z >> 31
        return ((z >> 11).astype(np.float64) * 2.0**-53).reshape(dims)

    def normal(self) -> float:
        """Next N(0, 1) draw."""
        return float(self.normal_array(()))

    def normal_array(self, shape: Sequence[int]) -> np.ndarray:
        dims = _normalize_shape(shape)
        u = self.uniform_array((2 * math.prod(dims),))
        u1 = (1.0 - u[0::2]).tolist()  # (0, 1]; keeps the log finite
        angle = (2.0 * math.pi * u[1::2]).tolist()
        # libm per element: np.log and np.cos differ from it in the last bit
        flat = [math.sqrt(-2.0 * math.log(a)) * math.cos(t) for a, t in zip(u1, angle)]
        return np.array(flat, dtype=np.float64).reshape(dims)
