"""The honest side of a federated round: gradients, aggregation, bundle files.

A GradientBundle is what a client would put on the wire: one gradient tensor
per model parameter plus enough metadata (a digest of the model spec, client
id, round index) for the receiver to know what it belongs to. The file format
is little-endian and bit-exact; serialize/deserialize round-trips byte for
byte, which the attack tooling leans on for reproducibility.
"""

from __future__ import annotations

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
    values = _plan[1](bindings)
    return GradientBundle(
        digest=params.spec.digest,
        client_id=client_id,
        round_index=round_index,
        tensors=tuple((name, Tensor(v)) for (name, _), v in zip(flat, values)),
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
    for i, (name, _) in enumerate(first.tensors):
        total = np.zeros(first.tensors[i][1].shape)
        for b in bundles:
            total = total + b.tensors[i][1].array
        combined.append((name, Tensor(total / len(bundles))))
    return GradientBundle(
        digest=first.digest,
        client_id=AGGREGATE_CLIENT,
        round_index=first.round_index,
        tensors=tuple(combined),
    )


def serialize_bundle(bundle: GradientBundle) -> bytes:
    """Encode a bundle in the .glkb wire format (little-endian, f64 payload)."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<IQII", FORMAT_VERSION, bundle.digest,
                       bundle.client_id, bundle.round_index)
    out += struct.pack("<I", len(bundle.tensors))
    for name, tensor in bundle.tensors:
        encoded = name.encode("utf-8")
        if not encoded:
            raise ContractError("serialize_bundle: empty tensor name")
        if len(encoded) > 0xFFFF:
            raise ContractError(f"serialize_bundle: tensor name too long ({len(encoded)} bytes)")
        out += struct.pack("<H", len(encoded))
        out += encoded
        out += struct.pack("B", tensor.ndim)
        for dim in tensor.shape:
            out += struct.pack("<Q", dim)
        out += tensor.array.astype("<f8").tobytes()
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError(f"truncated {what}", self.pos)
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def deserialize_bundle(data: bytes) -> GradientBundle:
    """Decode a .glkb byte string; malformed input raises ParseError, never crashes."""
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise ParseError(f"bad magic, expected {MAGIC!r}", 0)
    (version,) = r.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}", 4)
    digest, client_id, round_index = r.unpack("<QII", "header")
    (count,) = r.unpack("<I", "tensor count")
    tensors = []
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        if name_len == 0:
            raise ParseError("empty tensor name", r.pos - 2)
        name_at = r.pos
        raw_name = r.take(name_len, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("tensor name is not valid UTF-8", name_at) from None
        if name in seen:
            raise ParseError(f"repeated tensor name {name!r}", name_at)
        seen.add(name)
        (rank,) = r.unpack("B", "rank")
        dims = []
        for _ in range(rank):
            dim_at = r.pos
            (dim,) = r.unpack("<Q", "dimension")
            if dim == 0:
                raise ParseError("zero tensor dimension", dim_at)
            dims.append(dim)
        size = 1
        for dim in dims:
            size *= dim
        payload_at = r.pos
        if size * 8 > len(r.data) - r.pos:
            raise ParseError(
                f"tensor shape {tuple(dims)} overflows remaining payload", payload_at
            )
        payload = r.take(size * 8, "tensor payload")
        try:
            values = np.frombuffer(payload, dtype="<f8").reshape(tuple(dims))
        except ValueError:  # more dimensions than NumPy holds
            raise ParseError(f"rank {rank} exceeds NumPy's maximum", name_at + name_len) from None
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ParseError(f"tensor {name!r} holds a non-finite value",
                             payload_at + 8 * int(bad[0]))
        tensors.append((name, Tensor(values)))
    if r.pos != len(data):
        raise ParseError(f"{len(data) - r.pos} trailing bytes after last tensor", r.pos)
    return GradientBundle(digest, client_id, round_index, tuple(tensors))


def write_bundle(path, bundle: GradientBundle) -> None:
    """Encode, then write: a bundle that fails to encode leaves no file."""
    data = serialize_bundle(bundle)
    with open(path, "wb") as fh:
        fh.write(data)


def read_bundle(path) -> GradientBundle:
    with open(path, "rb") as fh:
        return deserialize_bundle(fh.read())
