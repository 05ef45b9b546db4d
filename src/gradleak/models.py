"""Attackable model descriptions: layer stacks, parameters, loss graphs.

A ModelSpec is a declarative layer list with a fixed input shape. Shapes are
walked at construction time with the standard sliding-window size formula, so
an inconsistent stack never survives long enough to be built. The canonical
text rendering of a spec doubles as its wire format and as the input of the
64-bit digest that ties gradient bundles to the model they came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Union

import numpy as np

from ._kernels import fnv1a64
from .errors import ContractError, GeometryError, ParseError, ShapeError
from .graph import ExprGraph, NodeId
from .ops import conv_output_size
from .tensor import Shape, SeedRng, Tensor

ACTIVATION_KINDS = ("sigmoid", "relu")


@dataclass(frozen=True)
class Conv:
    kernel: int
    out_channels: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class Activation:
    kind: str


@dataclass(frozen=True)
class Pool:
    window: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Dense:
    out_dim: int
    biased: bool = True


Layer = Union[Conv, Activation, Pool, Flatten, Dense]


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack with a fixed HxWxC input; the last layer must be dense."""

    input_shape: tuple[int, int, int]
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ShapeError(f"model input shape {self.input_shape} must be HxWxC")
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ContractError("model must end with a dense layer producing the logits")
        self.layer_shapes  # walk once; raises on any inconsistency

    @cached_property
    def layer_shapes(self) -> tuple[Shape, ...]:
        """Output shape after each layer, via the sliding-window size formula."""
        shapes: list[Shape] = []
        current: Shape = self.input_shape
        for name, layer in self.named_layers():
            if isinstance(layer, Conv):
                if len(current) != 3:
                    raise ShapeError(f"{name}: convolution needs an HxWxC input, got {current}")
                try:
                    oh = conv_output_size(current[0], layer.kernel, layer.stride, layer.padding)
                    ow = conv_output_size(current[1], layer.kernel, layer.stride, layer.padding)
                except GeometryError as e:
                    raise GeometryError(f"{name}: {e}") from None
                if layer.out_channels < 1:
                    raise ShapeError(f"{name}: out_channels {layer.out_channels} must be positive")
                current = (oh, ow, layer.out_channels)
            elif isinstance(layer, Pool):
                if len(current) != 3:
                    raise ShapeError(f"{name}: pooling needs an HxWxC input, got {current}")
                try:
                    oh = conv_output_size(current[0], layer.window, layer.stride, 0)
                    ow = conv_output_size(current[1], layer.window, layer.stride, 0)
                except GeometryError as e:
                    raise GeometryError(f"{name}: {e}") from None
                current = (oh, ow, current[2])
            elif isinstance(layer, Activation):
                if layer.kind not in ACTIVATION_KINDS:
                    raise ContractError(f"{name}: unknown activation {layer.kind!r}")
            elif isinstance(layer, Flatten):
                current = (math.prod(current),)
            elif isinstance(layer, Dense):
                if len(current) != 1:
                    raise ShapeError(
                        f"{name}: dense layer needs a flattened 1-D input, got {current}"
                    )
                if layer.out_dim < 1:
                    raise ShapeError(f"{name}: out_dim {layer.out_dim} must be positive")
                current = (layer.out_dim,)
            else:
                raise ContractError(f"{name}: unsupported layer {layer!r}")
            shapes.append(current)
        return tuple(shapes)

    @property
    def classes(self) -> int:
        return self.layers[-1].out_dim

    def named_layers(self) -> Iterator[tuple[str, Layer]]:
        """Stable names: conv1, conv2, ... fc1, fc2, ... act/pool/flatten unnamed kinds."""
        conv_n = fc_n = other_n = 0
        for layer in self.layers:
            if isinstance(layer, Conv):
                conv_n += 1
                yield f"conv{conv_n}", layer
            elif isinstance(layer, Dense):
                fc_n += 1
                yield f"fc{fc_n}", layer
            else:
                other_n += 1
                yield f"layer{other_n}", layer

    def param_layers(self) -> list[tuple[str, Layer, Shape]]:
        """(name, layer, input shape) for every layer that owns parameters."""
        out = []
        current: Shape = self.input_shape
        for (name, layer), shape in zip(self.named_layers(), self.layer_shapes):
            if isinstance(layer, (Conv, Dense)):
                out.append((name, layer, current))
            current = shape
        return out

    def param_shapes(self) -> dict[str, Shape]:
        """Flat tensor name ('conv1.W', 'fc1.B', ...) -> shape."""
        shapes: dict[str, Shape] = {}
        for name, layer, inp in self.param_layers():
            if isinstance(layer, Conv):
                shapes[f"{name}.W"] = (layer.kernel, layer.kernel, inp[2], layer.out_channels)
            else:
                shapes[f"{name}.W"] = (layer.out_dim, inp[0])
                if layer.biased:
                    shapes[f"{name}.B"] = (layer.out_dim,)
        return shapes

    def canonical_text(self) -> str:
        h, w, c = self.input_shape
        lines = [f"input h={h} w={w} c={c}"]
        for layer in self.layers:
            if isinstance(layer, Conv):
                lines.append(
                    f"conv k={layer.kernel} out={layer.out_channels} "
                    f"stride={layer.stride} pad={layer.padding}"
                )
            elif isinstance(layer, Activation):
                lines.append(f"act {layer.kind}")
            elif isinstance(layer, Pool):
                lines.append(f"pool window={layer.window} stride={layer.stride}")
            elif isinstance(layer, Flatten):
                lines.append("flatten")
            else:
                lines.append(f"dense out={layer.out_dim} bias={'yes' if layer.biased else 'no'}")
        return "\n".join(lines) + "\n"

    @cached_property
    def digest(self) -> int:
        return fnv1a64(self.canonical_text().encode("utf-8"))


def _parse_kv(tokens: list[str], line_no: int, offset: int, keys: tuple[str, ...]) -> dict[str, str]:
    seen: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"line {line_no}: expected key=value, got {tok!r}", offset)
        key, _, value = tok.partition("=")
        if key not in keys:
            raise ParseError(f"line {line_no}: unknown key {key!r}", offset)
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate key {key!r}", offset)
        seen[key] = value
    missing = [key for key in keys if key not in seen]
    if missing:
        raise ParseError(f"line {line_no}: missing key {missing[0]!r}", offset)
    return seen


def _int_field(kv: dict[str, str], key: str, line_no: int, offset: int) -> int:
    try:
        return int(kv[key])
    except ValueError:
        raise ParseError(f"line {line_no}: {key}={kv[key]!r} is not an integer", offset) from None


def parse_model_text(text: str) -> ModelSpec:
    """Parse the one-layer-per-line model format; '#' starts a comment."""
    input_shape: tuple[int, int, int] | None = None
    layers: list[Layer] = []
    offset = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line_offset = offset
        offset += len(raw.encode("utf-8")) + 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tokens = line.split()
        if kind == "input":
            if input_shape is not None:
                raise ParseError(f"line {line_no}: duplicate input line", line_offset)
            if layers:
                raise ParseError(f"line {line_no}: input line must come first", line_offset)
            kv = _parse_kv(tokens, line_no, line_offset, ("h", "w", "c"))
            input_shape = (
                _int_field(kv, "h", line_no, line_offset),
                _int_field(kv, "w", line_no, line_offset),
                _int_field(kv, "c", line_no, line_offset),
            )
        elif kind == "conv":
            kv = _parse_kv(tokens, line_no, line_offset, ("k", "out", "stride", "pad"))
            layers.append(Conv(
                kernel=_int_field(kv, "k", line_no, line_offset),
                out_channels=_int_field(kv, "out", line_no, line_offset),
                stride=_int_field(kv, "stride", line_no, line_offset),
                padding=_int_field(kv, "pad", line_no, line_offset),
            ))
        elif kind == "act":
            if len(tokens) != 1 or tokens[0] not in ACTIVATION_KINDS:
                raise ParseError(f"line {line_no}: act needs one of {ACTIVATION_KINDS}", line_offset)
            layers.append(Activation(tokens[0]))
        elif kind == "pool":
            kv = _parse_kv(tokens, line_no, line_offset, ("window", "stride"))
            layers.append(Pool(
                window=_int_field(kv, "window", line_no, line_offset),
                stride=_int_field(kv, "stride", line_no, line_offset),
            ))
        elif kind == "flatten":
            if tokens:
                raise ParseError(f"line {line_no}: flatten takes no arguments", line_offset)
            layers.append(Flatten())
        elif kind == "dense":
            kv = _parse_kv(tokens, line_no, line_offset, ("out", "bias"))
            if kv["bias"] not in ("yes", "no"):
                raise ParseError(f"line {line_no}: bias must be yes or no", line_offset)
            layers.append(Dense(
                out_dim=_int_field(kv, "out", line_no, line_offset),
                biased=kv["bias"] == "yes",
            ))
        else:
            raise ParseError(f"line {line_no}: unknown layer kind {kind!r}", line_offset)
    if input_shape is None:
        raise ParseError("model text has no input line", 0)
    if not layers:
        raise ParseError("model text has no layers", 0)
    try:
        return ModelSpec(input_shape, tuple(layers))
    except (ShapeError, GeometryError, ContractError) as e:
        raise ParseError(f"inconsistent model: {e}", 0) from None


@dataclass(frozen=True)
class ModelParams:
    """Initialized weights for a spec; treat the nested mapping as read-only."""

    spec: ModelSpec
    weights: Mapping[str, Mapping[str, Tensor]]

    def flat(self) -> list[tuple[str, Tensor]]:
        """Canonical (tensor name, tensor) order: layer order, W before B."""
        out = []
        for layer_name, entry in self.weights.items():
            for part in ("W", "B"):
                if part in entry:
                    out.append((f"{layer_name}.{part}", entry[part]))
        return out

    def param_count(self) -> int:
        return sum(t.size for _, t in self.flat())


def build_model(spec: ModelSpec, rng: SeedRng) -> ModelParams:
    """Draw parameters uniform in [-0.5, 0.5] scaled by 1/sqrt(fan-in).

    Draw order is fixed (layer order, weight elements row-major, then bias),
    so a seed pins every parameter bit for bit.
    """
    weights: dict[str, dict[str, Tensor]] = {}
    shapes = spec.param_shapes()
    for layer_name, layer, inp in spec.param_layers():
        if isinstance(layer, Conv):
            fan_in = layer.kernel * layer.kernel * inp[2]
        else:
            fan_in = inp[0]
        scale = 1.0 / math.sqrt(fan_in)
        entry: dict[str, Tensor] = {}
        wshape = shapes[f"{layer_name}.W"]
        entry["W"] = Tensor((rng.uniform_array(wshape) - 0.5) * scale)
        bname = f"{layer_name}.B"
        if bname in shapes:
            entry["B"] = Tensor((rng.uniform_array(shapes[bname]) - 0.5) * scale)
        weights[layer_name] = entry
    return ModelParams(spec, weights)


def build_logits(g: ExprGraph, spec: ModelSpec, x: NodeId,
                 param_nodes: Mapping[str, NodeId]) -> NodeId:
    """Wire the spec's layer stack into g from input node to logits node."""
    current = x
    for name, layer in spec.named_layers():
        if isinstance(layer, Conv):
            current = g.conv2d(current, param_nodes[f"{name}.W"], layer.stride, layer.padding)
        elif isinstance(layer, Activation):
            current = g.sigmoid(current) if layer.kind == "sigmoid" else g.relu(current)
        elif isinstance(layer, Pool):
            current = g.avg_pool2d(current, layer.window, layer.stride)
        elif isinstance(layer, Flatten):
            current = g.reshape(current, (math.prod(g.shape_of(current)),))
        else:
            bias = param_nodes.get(f"{name}.B")
            current = g.affine(param_nodes[f"{name}.W"], current, bias)
    return current


@dataclass(frozen=True)
class LossGraph:
    """A built classification loss: softmax of the logits against fixed
    target probabilities, differentiable in the input and every parameter."""

    graph: ExprGraph
    loss: NodeId
    x: NodeId
    param_nodes: Mapping[str, NodeId]
    bindings: Mapping[str, np.ndarray]


def forward_loss(params: ModelParams, x: Tensor, target_probs: Tensor) -> LossGraph:
    """Build cross_entropy(softmax(logits(x)), target_probs) as a graph.

    The input and all parameters enter as variables; `bindings` carries their
    concrete values so the graph evaluates (or differentiates) immediately.
    """
    spec = params.spec
    if x.shape != spec.input_shape:
        raise ShapeError(
            f"forward_loss: input of shape {x.shape} does not match model input {spec.input_shape}"
        )
    if target_probs.shape != (spec.classes,):
        raise ShapeError(
            f"forward_loss: target of shape {target_probs.shape} does not match "
            f"{spec.classes} classes"
        )
    g = ExprGraph()
    xv = g.variable("x", spec.input_shape)
    param_nodes = {name: g.variable(name, t.shape) for name, t in params.flat()}
    logits = build_logits(g, spec, xv, param_nodes)
    target = g.constant(target_probs)
    loss = g.cross_entropy_logits(logits, target)
    g.set_output(loss)
    bindings = {name: t.array for name, t in params.flat()}
    bindings["x"] = x.array
    return LossGraph(g, loss, xv, param_nodes, bindings)


def default_attack_spec(h: int, w: int, c: int, m: int) -> ModelSpec:
    """The small two-block CNN the attack tooling defaults to.

    conv(5, 6, stride 1, pad 2) -> sigmoid -> pool(2, 2) ->
    conv(5, 12, stride 1, pad 2) -> sigmoid -> pool(2, 2) -> flatten ->
    dense(m, biased). Sigmoid activations keep the whole stack twice
    differentiable, which the second-order attack updates require.
    """
    if h < 12 or w < 12:
        raise GeometryError(f"default_attack_spec: input {h}x{w} is too small (need >= 12)")
    return ModelSpec(
        input_shape=(h, w, c),
        layers=(
            Conv(kernel=5, out_channels=6, stride=1, padding=2),
            Activation("sigmoid"),
            Pool(window=2, stride=2),
            Conv(kernel=5, out_channels=12, stride=1, padding=2),
            Activation("sigmoid"),
            Pool(window=2, stride=2),
            Flatten(),
            Dense(out_dim=m, biased=True),
        ),
    )


def one_hot(label: int, classes: int) -> Tensor:
    """Probability vector with all mass on `label`."""
    if not 0 <= label < classes:
        raise ContractError(f"label {label} outside [0, {classes})")
    v = np.zeros(classes)
    v[label] = 1.0
    return Tensor(v)
