"""The honest side of a federated round: gradients, aggregation, bundle files.

A GradientBundle is what a client would put on the wire: one gradient tensor
per model parameter plus enough metadata (a digest of the model spec, client
id, round index) for the receiver to know what it belongs to. The file format
is little-endian and bit-exact; serialize/deserialize round-trips byte for
byte, which the attack tooling leans on for reproducibility. Decoded tensors
are read-only views of the input bytes (a payload off an 8-byte boundary is
copied); a mutable input is copied once first.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, IncompatibilityError, ParseError
from .graph import grad
from .models import ModelParams, forward_loss, loss_bindings
from .tensor import Tensor

MAGIC = b"GLKB"
FORMAT_VERSION = 1
AGGREGATE_CLIENT = 0xFFFFFFFF  # reserved client id marking an aggregated bundle
_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class GradientBundle:
    """Ordered per-parameter gradient tensors plus provenance metadata."""

    digest: int
    client_id: int
    round_index: int
    tensors: tuple[tuple[str, Tensor], ...]

    def __post_init__(self):
        for field, value, top in (("client_id", self.client_id, _U32_MAX),
                                  ("round_index", self.round_index, _U32_MAX),
                                  ("digest", self.digest, _U64_MAX)):
            if not 0 <= value <= top:
                raise ContractError(f"GradientBundle: {field} {value} outside [0, {top}]")
        seen: set[str] = set()
        for name in self.names():
            if name in seen:
                raise ContractError(f"GradientBundle: repeated tensor name {name!r}")
            seen.add(name)

    def names(self) -> list[str]:
        return [name for name, _ in self.tensors]

    def get(self, name: str) -> Tensor:
        for n, t in self.tensors:
            if n == name:
                return t
        raise KeyError(name)


def gradient_plan(params: ModelParams):
    """Compile the loss gradient w.r.t. every parameter into one plan.

    The plan returns one gradient per tensor of `params.flat()`, in that
    order, at `loss_bindings`, with "x" (and "target") bound to one point or
    to a `Stack` of them. It depends only on the spec and the parameter
    shapes, so it serves any inputs.
    """
    lg = forward_loss(params)
    grads = grad(lg.graph, wrt=lg.param_nodes.values(), of=lg.loss)
    return lg.graph.evaluator([grads[node] for node in lg.param_nodes.values()])


# The most recent victim-gradient plan, as (key, compiled plan). The clients
# of a round share one model, so between their calls only the bound arrays
# change; holding a single entry keeps memory bounded.
_plan = None


def victim_gradient(params: ModelParams, x: Tensor, target_probs: Tensor,
                    *, client_id: int = 0, round_index: int = 0) -> GradientBundle:
    """Gradient of the classification loss at (x, target) w.r.t. every parameter.

    The inputs are checked and bound by `loss_bindings`. The gradient plan
    depends only on the spec and the parameter names and shapes, so it is
    compiled once and reused while calls keep to one model.
    """
    global _plan
    bindings = loss_bindings(params, x, target_probs)
    flat = params.flat()
    key = (params.spec, tuple((name, t.shape) for name, t in flat))
    if _plan is None or _plan[0] != key:
        _plan = (key, gradient_plan(params))
    # plan outputs are fresh arrays or read-only ones (bindings come from
    # Tensors, an unreachable parameter's zero gradient is a graph constant)
    values = _plan[1](bindings)
    return GradientBundle(
        digest=params.spec.digest,
        client_id=client_id,
        round_index=round_index,
        tensors=tuple((name, Tensor._adopt(np.ascontiguousarray(v)))
                      for (name, _), v in zip(flat, values)),
    )


def aggregate(bundles: Sequence[GradientBundle]) -> GradientBundle:
    """Element-wise mean of client bundles, the federated-averaging convention."""
    if not bundles:
        raise ContractError("aggregate: need at least one bundle")
    first = bundles[0]
    for b in bundles[1:]:
        if b.digest != first.digest:
            raise IncompatibilityError(
                f"aggregate: bundle digests differ ({b.digest:#018x} vs {first.digest:#018x})"
            )
        if b.names() != first.names():
            raise IncompatibilityError("aggregate: bundle tensor names differ")
        for (name, t), (_, t0) in zip(b.tensors, first.tensors):
            if t.shape != t0.shape:
                raise IncompatibilityError(f"aggregate: tensor {name!r} shapes differ")
    combined = []
    for i, (name, t0) in enumerate(first.tensors):
        total = t0.array.copy()  # not a sum from zeros, which would lose -0.0
        for b in bundles[1:]:
            total += b.tensors[i][1].array
        total /= len(bundles)
        combined.append((name, Tensor._adopt(total)))
    return GradientBundle(
        digest=first.digest,
        client_id=AGGREGATE_CLIENT,
        round_index=first.round_index,
        tensors=tuple(combined),
    )


_HEADER = struct.Struct("<4sIQIII")  # magic, version, digest, client, round, count
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


def serialize_bundle(bundle: GradientBundle) -> bytes:
    """Encode a bundle in the .glkb wire format (little-endian, f64 payload)."""
    parts = [_HEADER.pack(MAGIC, FORMAT_VERSION, bundle.digest, bundle.client_id,
                          bundle.round_index, len(bundle.tensors))]
    for name, tensor in bundle.tensors:
        encoded = name.encode("utf-8")
        if not encoded:
            raise ContractError("serialize_bundle: empty tensor name")
        if len(encoded) > 0xFFFF:
            raise ContractError(f"serialize_bundle: tensor name too long ({len(encoded)} bytes)")
        parts.append(struct.pack(f"<H{len(encoded)}sB{tensor.ndim}Q",
                                 len(encoded), encoded, tensor.ndim, *tensor.shape))
        parts.append(np.asarray(tensor.array, "<f8"))  # copies only on a big-endian host
    return b"".join(parts)


def deserialize_bundle(data) -> GradientBundle:
    """Decode .glkb bytes; malformed input raises ParseError, never crashes.

    Any bytes-like input is accepted. A mutable one (bytearray, memoryview)
    is copied once into bytes, so no tensor aliases memory the caller can
    write. Each tensor is a read-only view of those bytes, copied only when
    its payload is not 8-byte aligned there (or the host is big-endian).
    """
    if not isinstance(data, bytes):
        data = memoryview(data).tobytes()
    end = len(data)

    def need(pos: int, n: int, what: str) -> None:
        if pos + n > end:
            raise ParseError(f"truncated {what}", pos)

    need(0, 4, "magic")
    if data[:4] != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", 0)
    need(4, 4, "version")
    (version,) = _U32.unpack_from(data, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", 4)
    need(8, 16, "header")
    need(24, 4, "tensor count")
    _, _, digest, client_id, round_index, count = _HEADER.unpack_from(data)
    pos = _HEADER.size
    tensors = []
    seen: set[str] = set()
    for _ in range(count):
        need(pos, 2, "name length")
        (name_len,) = _U16.unpack_from(data, pos)
        if name_len == 0:
            raise ParseError("empty tensor name", pos)
        name_at = pos + 2
        need(name_at, name_len, "tensor name")
        try:
            name = data[name_at : name_at + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("tensor name is not valid UTF-8", name_at) from None
        if name in seen:
            raise ParseError(f"repeated tensor name {name!r}", name_at)
        seen.add(name)
        pos = name_at + name_len
        need(pos, 1, "rank")
        rank = data[pos]
        pos += 1
        fit = min(rank, (end - pos) // 8)  # the dimensions present before a cut
        dims = struct.unpack_from(f"<{fit}Q", data, pos)
        if 0 in dims:
            raise ParseError("zero tensor dimension", pos + 8 * dims.index(0))
        if fit < rank:
            raise ParseError("truncated dimension", pos + 8 * fit)
        pos += 8 * rank
        size = math.prod(dims)
        if size * 8 > end - pos:
            raise ParseError(f"tensor shape {dims} overflows remaining payload", pos)
        try:
            values = np.frombuffer(data, "<f8", size, pos).reshape(dims)
        except ValueError:  # more dimensions than NumPy holds
            raise ParseError(f"rank {rank} exceeds NumPy's maximum", name_at + name_len) from None
        if not (values.flags.aligned and values.dtype.isnative):
            values = values.astype(np.float64)  # unaligned views are slow and sum differently
        try:
            tensor = Tensor._adopt(values)
        except ContractError:
            bad = np.flatnonzero(~np.isfinite(values))
            raise ParseError(f"tensor {name!r} holds a non-finite value",
                             pos + 8 * int(bad[0])) from None
        tensors.append((name, tensor))
        pos += 8 * size
    if pos != end:
        raise ParseError(f"{end - pos} trailing bytes after last tensor", pos)
    return GradientBundle(digest, client_id, round_index, tuple(tensors))


def write_bundle(path, bundle: GradientBundle) -> None:
    """Encode, then write: a bundle that fails to encode leaves no file."""
    data = serialize_bundle(bundle)
    with open(path, "wb") as fh:
        fh.write(data)


def read_bundle(path) -> GradientBundle:
    with open(path, "rb") as fh:
        return deserialize_bundle(fh.read())
