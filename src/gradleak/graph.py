"""Expression-graph reverse-mode differentiation, closed under itself.

A graph is an append-only list of nodes; every node's inputs have smaller
ids, so ascending id order is already a topological order. `grad` walks the
ancestors of the scalar node it is given in reverse and emits the adjoint
of each node as *new nodes in the same graph*. Because every derivative
rule is written in terms of registered primitives, the result of `grad` can
be fed straight back into `grad`, which is how the attack differentiates
through a gradient (its update needs the derivative of a gradient-matching
distance whose value already contains first-order gradients).

Shapes are static: builders infer and check them at construction time, so a
mis-wired model fails when it is assembled, not mid-evaluation. The graph is
the package's one implementation of every operation, shape rules included
(a `ModelSpec` checks itself by wiring its layers into a scratch graph), and
the eager `conv2d` builds one graph convolution over two constants.

`evaluator` compiles the ancestors of its outputs once into a flat
instruction list whose slots are node ids: constants, variables by name and
shape, and one step per computed node holding its rule, a getter of its
inputs (an `operator.itemgetter`, built once) and the slots whose last
consumer it is. The correlations of one input, margin and kernel width
share one more step, the im2col copy of their padded input (Chellapilla et
al., 2006), in a slot past the node ids. A call fills a plain list step by
step and drops every value that is not an output after its last use.
Plans of small arrays spend about as much on per-call bookkeeping as on
arithmetic, so a float64 ndarray bound to a variable of its shape is used
as it is, without the conversion and checks other bindings get. Rules
look up `_kernels` functions when they run, so a wrapper installed on the
module after a plan is compiled still sees every kernel call.

Correlations carry a signed margin: `corr2d` and `kgrad_corr` zero-pad
their input by it, or crop it when the margin is negative. The input
gradient of a correlation with margin m is then the correlation of the
upstream gradient with margin k-1-m (the zero-padding identity of
transposed convolutions, Dumoulin and Visin, arXiv:1603.07285), so no
gradient is built full-size and cropped.

Builders rewrite a node only where the result has the same bits in IEEE
arithmetic, -0.0 included:
- a node equal to an existing one (same op, inputs and params; a constant,
  same shape and bytes) is that node;
- a node whose inputs are all constants is the constant its rule gives;
- `rotswap(rotswap(k))` is `k`;
- `mul` by a constant whose entries all have the bits of c is `scale` by c,
  or the other operand when c is 1.0;
- `add(a, a)` is `scale(a, 2.0)`, and `add(a, scale(b, -1.0))` is `sub(a, b)`.

The loss head is one primitive, `log_softmax`, with its max shift inside
the rule: `softmax` is its exponential and `cross_entropy_logits` its
target-weighted sum, and its derivative rule is built from `exp`, `fill`
and `sum_all`. Every primitive has a derivative rule, so `grad` reaches no
op it cannot differentiate.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import _kernels as k
from .errors import ContractError, GeometryError, ShapeError
from .tensor import Shape, Tensor, as_array

# node id within a graph
NodeId = int


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


class _Node:
    __slots__ = ("op", "inputs", "shape", "params", "payload")

    def __init__(self, op: str, inputs: tuple[NodeId, ...], shape: Shape,
                 params: tuple = (), payload: np.ndarray | None = None):
        self.op = op
        self.inputs = inputs
        self.shape = shape
        self.params = params
        self.payload = payload


# op -> (node, input arrays) -> output array
_EVAL: dict[str, Callable] = {}
# op -> (graph, node id, upstream id) -> [(input position, contribution id)]
_VJP: dict[str, Callable] = {}


class ExprGraph:
    """Append-only expression graph over float64 arrays. It designates no
    output: `grad` and `evaluator` take the nodes they work on."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._index: dict[tuple, NodeId] = {}
        self._vars: dict[str, NodeId] = {}
        self._consts: set[NodeId] = set()

    # ------------------------------------------------------------------ basics

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, nid: NodeId) -> _Node:
        return self._nodes[nid]

    def shape_of(self, nid: NodeId) -> Shape:
        return self._nodes[nid].shape

    def op_of(self, nid: NodeId) -> str:
        return self._nodes[nid].op

    def variables(self) -> Mapping[str, NodeId]:
        return dict(self._vars)

    def _append(self, op: str, inputs: tuple[NodeId, ...], shape: Shape,
                params: tuple = (), payload: np.ndarray | None = None) -> NodeId:
        for i in inputs:
            if not 0 <= i < len(self._nodes):
                raise ContractError(f"{op}: input id {i} is not a node of this graph")
        if inputs and self._consts.issuperset(inputs):
            node = _Node(op, inputs, shape, params)
            return self.constant(_EVAL[op](node, [self._nodes[i].payload for i in inputs]))
        # repr keeps scale(a, -0.0) apart from scale(a, 0.0), which == would merge
        key = ((op, shape, payload.tobytes()) if payload is not None
               else (op, inputs, repr(params)))
        nid = self._index.get(key)
        if nid is None:
            nid = self._index[key] = len(self._nodes)
            self._nodes.append(_Node(op, inputs, shape, params, payload))
        return nid

    # ------------------------------------------------------------------ leaves

    def constant(self, value) -> NodeId:
        arr = np.array(as_array(value), dtype=np.float64, order="C", copy=True)
        arr.flags.writeable = False
        nid = self._append("const", (), arr.shape, payload=arr)
        self._consts.add(nid)
        return nid

    def variable(self, name: str, shape: Iterable[int]) -> NodeId:
        if name in self._vars:
            raise ContractError(f"variable {name!r} already exists in this graph")
        dims = tuple(int(d) for d in shape)
        if any(d <= 0 for d in dims):
            raise ShapeError(f"variable {name!r} has invalid shape {dims}")
        nid = self._append("var", (), dims, params=(name,))
        self._vars[name] = nid
        return nid

    # -------------------------------------------------------- elementwise alg.

    def _same_shape(self, op: str, a: NodeId, b: NodeId) -> Shape:
        sa, sb = self.shape_of(a), self.shape_of(b)
        if sa != sb:
            raise ShapeError(f"{op}: operand shapes {sa} and {sb} differ")
        return sa

    def add(self, a: NodeId, b: NodeId) -> NodeId:
        shape = self._same_shape("add", a, b)
        if a == b:
            return self.scale(a, 2.0)
        nb = self._nodes[b]
        if nb.op == "scale" and nb.params == (-1.0,):
            return self.sub(a, nb.inputs[0])
        return self._append("add", (a, b), shape)

    def sub(self, a: NodeId, b: NodeId) -> NodeId:
        return self._append("sub", (a, b), self._same_shape("sub", a, b))

    def mul(self, a: NodeId, b: NodeId) -> NodeId:
        shape = self._same_shape("mul", a, b)
        if (a in self._consts) != (b in self._consts):
            x, const = (b, a) if a in self._consts else (a, b)
            c = self._uniform(const)
            if c is not None:
                return x if c == 1.0 else self.scale(x, c)
        return self._append("mul", (a, b), shape)

    def _uniform(self, const: NodeId) -> float | None:
        """The value every entry of a constant node holds, bit for bit, or
        None if there is no such value (so 0.0 and -0.0 are not uniform)."""
        payload = self._nodes[const].payload
        raw = payload.tobytes()
        return float(payload.flat[0]) if raw and raw == raw[:8] * payload.size else None

    def neg(self, a: NodeId) -> NodeId:
        return self.scale(a, -1.0)

    def scale(self, a: NodeId, c: float) -> NodeId:
        return self._append("scale", (a,), self.shape_of(a), params=(float(c),))

    def exp(self, a: NodeId) -> NodeId:
        return self._append("exp", (a,), self.shape_of(a))

    def sigmoid(self, a: NodeId) -> NodeId:
        return self._append("sigmoid", (a,), self.shape_of(a))

    def relu(self, a: NodeId) -> NodeId:
        return self._append("relu", (a,), self.shape_of(a))

    def step(self, a: NodeId) -> NodeId:
        # 1 where a > 0 else 0; derivative defined as 0 everywhere
        return self._append("step", (a,), self.shape_of(a))

    # ------------------------------------------------------------- reductions

    def _all_axes(self, a: NodeId) -> tuple[int, ...]:
        # counted from the end, so a reduction leaves leading batch axes alone
        return tuple(range(-len(self.shape_of(a)), 0))

    def sum_all(self, a: NodeId) -> NodeId:
        return self._append("sum_all", (a,), (), params=(self._all_axes(a),))

    def fill(self, scalar: NodeId, shape: Iterable[int]) -> NodeId:
        if self.shape_of(scalar) != ():
            raise ShapeError(
                f"fill: source must be scalar, got shape {self.shape_of(scalar)}"
            )
        dims = tuple(int(d) for d in shape)
        return self._append("fill", (scalar,), dims, params=(dims,))

    def reshape(self, a: NodeId, shape: Iterable[int]) -> NodeId:
        dims = tuple(int(d) for d in shape)
        if math.prod(dims) != math.prod(self.shape_of(a)):
            raise ShapeError(
                f"reshape: cannot view shape {self.shape_of(a)} as {dims}"
            )
        return self._append("reshape", (a,), dims, params=(dims, len(self.shape_of(a))))

    # ----------------------------------------------------------- linear algebra

    def matvec(self, w: NodeId, x: NodeId) -> NodeId:
        sw, sx = self.shape_of(w), self.shape_of(x)
        if len(sw) != 2 or len(sx) != 1 or sw[1] != sx[0]:
            raise ShapeError(f"matvec: weight {sw} does not act on vector {sx}")
        return self._append("matvec", (w, x), (sw[0],))

    def matvec_t(self, w: NodeId, y: NodeId) -> NodeId:
        sw, sy = self.shape_of(w), self.shape_of(y)
        if len(sw) != 2 or len(sy) != 1 or sw[0] != sy[0]:
            raise ShapeError(f"matvec_t: weight {sw} transposed does not act on vector {sy}")
        return self._append("matvec_t", (w, y), (sw[1],))

    def outer(self, u: NodeId, v: NodeId) -> NodeId:
        su, sv = self.shape_of(u), self.shape_of(v)
        if len(su) != 1 or len(sv) != 1:
            raise ShapeError(f"outer: needs two vectors, got {su} and {sv}")
        return self._append("outer", (u, v), (su[0], sv[0]))

    # ------------------------------------------------------------ spatial ops

    def _spatial(self, op: str, a: NodeId) -> Shape:
        s = self.shape_of(a)
        if len(s) != 3:
            raise ShapeError(f"{op}: input must be HxWxC, got shape {s}")
        return s

    def _margined(self, op: str, x: NodeId, m: int) -> Shape:
        """x's shape once zero-padded by margin m, or cropped by -m if m < 0."""
        h, w, c = self._spatial(op, x)
        if h + 2 * m < 1 or w + 2 * m < 1:
            raise GeometryError(f"{op}: margin {m} leaves no pixels of {(h, w)}")
        return h + 2 * m, w + 2 * m, c

    def corr2d(self, x: NodeId, kernel: NodeId, margin: int = 0) -> NodeId:
        sx = self._margined("corr2d", x, margin)
        sk = self.shape_of(kernel)
        if len(sk) != 4 or sk[0] != sk[1]:
            raise ShapeError(f"corr2d: kernel must be kxkxCxD, got shape {sk}")
        if sk[2] != sx[2]:
            raise ShapeError(
                f"corr2d: kernel expects {sk[2]} input channels, input has {sx[2]}"
            )
        oh = conv_output_size(sx[0], sk[0], 1, 0)
        ow = conv_output_size(sx[1], sk[0], 1, 0)
        return self._append("corr2d", (x, kernel), (oh, ow, sk[3]), params=(margin,))

    def kgrad_corr(self, x: NodeId, dy: NodeId, margin: int = 0) -> NodeId:
        sx = self._margined("kgrad_corr", x, margin)
        sy = self._spatial("kgrad_corr", dy)
        kh = sx[0] - sy[0] + 1
        kw = sx[1] - sy[1] + 1
        if kh < 1 or kw < 1:
            raise ShapeError(f"kgrad_corr: output grid {sy} larger than input {sx}")
        if kh != kw:
            raise ShapeError(
                f"kgrad_corr: input {sx} and output grid {sy} give a non-square "
                f"kernel grid {(kh, kw)}; corr2d takes kxkxCxD kernels only"
            )
        return self._append("kgrad_corr", (x, dy), (kh, kw, sx[2], sy[2]), params=(margin,))

    def rotswap(self, kernel: NodeId) -> NodeId:
        s = self.shape_of(kernel)
        if len(s) != 4:
            raise ShapeError(f"rotswap: kernel must be 4-D, got shape {s}")
        if self._nodes[kernel].op == "rotswap":
            return self._nodes[kernel].inputs[0]
        return self._append("rotswap", (kernel,), (s[0], s[1], s[3], s[2]))

    def sslice2d(self, a: NodeId, s: int) -> NodeId:
        h, w, c = self._spatial("sslice2d", a)
        if s < 1:
            raise GeometryError(f"sslice2d: stride {s} must be positive")
        oh = (h - 1) // s + 1
        ow = (w - 1) // s + 1
        return self._append("sslice2d", (a,), (oh, ow, c), params=(s, h, w))

    def dilate2d(self, a: NodeId, s: int, h: int, w: int) -> NodeId:
        ah, aw, c = self._spatial("dilate2d", a)
        if (ah - 1) * s + 1 > h or (aw - 1) * s + 1 > w:
            raise GeometryError(
                f"dilate2d: grid {(ah, aw)} at stride {s} overflows canvas {(h, w)}"
            )
        return self._append("dilate2d", (a,), (h, w, c), params=(s, h, w))

    def avg_pool2d(self, a: NodeId, window: int, stride: int) -> NodeId:
        h, w, c = self._spatial("avg_pool2d", a)
        oh = conv_output_size(h, window, stride, 0)
        ow = conv_output_size(w, window, stride, 0)
        return self._append("avg_pool2d", (a,), (oh, ow, c), params=(window, stride))

    def avg_unpool2d(self, a: NodeId, window: int, stride: int, h: int, w: int) -> NodeId:
        ah, aw, c = self._spatial("avg_unpool2d", a)
        if conv_output_size(h, window, stride, 0) != ah or conv_output_size(w, window, stride, 0) != aw:
            raise GeometryError(
                f"avg_unpool2d: grid {(ah, aw)} does not pool back onto canvas {(h, w)}"
            )
        return self._append("avg_unpool2d", (a,), (h, w, c), params=(window, stride, h, w))

    # ------------------------------------------------------------- composites

    def affine(self, w: NodeId, x: NodeId, b: NodeId | None = None) -> NodeId:
        y = self.matvec(w, x)
        return y if b is None else self.add(y, b)

    def conv2d(self, x: NodeId, kernel: NodeId, stride: int = 1, zero_padding: int = 0) -> NodeId:
        """Strided, zero-padded cross-correlation built from the primitives."""
        sx = self._spatial("conv2d", x)
        sk = self.shape_of(kernel)
        if len(sk) != 4 or sk[0] != sk[1]:
            raise ShapeError(f"conv2d: kernel must be kxkxCxD, got shape {sk}")
        conv_output_size(sx[0], sk[0], stride, zero_padding)
        conv_output_size(sx[1], sk[0], stride, zero_padding)
        y = self.corr2d(x, kernel, zero_padding)
        return y if stride == 1 else self.sslice2d(y, stride)

    def log_softmax(self, v: NodeId) -> NodeId:
        """log(softmax(v)) of a logit vector, shifted by its max inside the
        rule so no exp overflows and the log probabilities stay finite
        however saturated the logits get."""
        s = self.shape_of(v)
        if len(s) != 1:
            raise ShapeError(f"log_softmax: logits must be a vector, got shape {s}")
        return self._append("log_softmax", (v,), s)

    def softmax(self, v: NodeId) -> NodeId:
        """exp(log_softmax(v)): stable by the same shift, differentiated
        through log_softmax's rule."""
        return self.exp(self.log_softmax(v))

    def cross_entropy_logits(self, logits: NodeId, target: NodeId) -> NodeId:
        """cross_entropy(softmax(logits), target) as -sum(target * log_softmax(logits)),
        so optimization cannot step the graph into log(0)."""
        self._same_shape("cross_entropy_logits", logits, target)
        return self.neg(self.sum_all(self.mul(target, self.log_softmax(logits))))

    def sq_diff_sum(self, a: NodeId, b: NodeId) -> NodeId:
        d = self.sub(a, b)
        return self.sum_all(self.mul(d, d))

    # ------------------------------------------------------------- evaluation

    def _ancestors(self, roots: Sequence[NodeId]) -> set[NodeId]:
        seen: set[NodeId] = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._nodes[nid].inputs)
        return seen

    def evaluator(self, outputs: Sequence[NodeId]):
        """Compile an evaluation plan; returns bindings -> list of ndarrays.

        The plan is the id-sorted ancestor set of the outputs, resolved once
        into the instruction list described above; each step hands its rule
        the sequence its input getter takes from the value list. Shared
        subexpressions are computed once per call, and so is the im2col copy
        that correlations of one input, margin and kernel width read, just
        before its first reader. No value outlives its last consumer unless
        it is an output, and the plan stays valid as the graph grows. A
        variable is bound to an array of exactly its shape, or to a `Stack`
        of B such points; all stacks in one call share B, and then each
        output comes back with shape (B,) + its node shape, entry b being
        the output at the b-th point of every stack. A float64 ndarray of
        the variable's shape is used as it is, in any layout; anything else
        (a `Tensor`, another dtype, nested lists) goes through `_bound` and
        the shape checks.
        """
        key = tuple(outputs)
        for o in key:
            if not 0 <= o < len(self._nodes):
                raise ContractError(f"evaluator: unknown node id {o}")
        order = sorted(self._ancestors(key))
        nodes = self._nodes
        n_vals = order[-1] + 1
        consts, variables, computed = [], [], []  # computed: (slot, rule, node, inputs)
        rows_slot: dict[tuple, int] = {}
        for nid in order:
            node = nodes[nid]
            if node.op == "const":
                consts.append((nid, node.payload))
            elif node.op == "var":
                variables.append((nid, node.params[0], node.shape))
            elif node.op in _FROM_ROWS:
                # the correlation reads its input's im2col rows from a slot
                # past the node ids, filled by the step its first reader adds
                x, other = node.inputs
                kw = (node.shape if node.op == "kgrad_corr" else nodes[other].shape)[1]
                rows_key = (x, node.params[0], kw)
                slot = rows_slot.get(rows_key)
                if slot is None:
                    slot = rows_slot[rows_key] = n_vals
                    n_vals += 1
                    computed.append((slot, _im2col, _Node("im2col", (x,), (), rows_key[1:]), (x,)))
                computed.append((nid, _FROM_ROWS[node.op], node, (slot, other)))
            else:
                computed.append((nid, _EVAL[node.op], node, node.inputs))
        last_use = {i: slot for slot, _, _, ins in computed for i in ins}
        for o in key:
            last_use.pop(o, None)
        dies_at: dict[int, list[int]] = {}
        for i, slot in last_use.items():
            dies_at.setdefault(slot, []).append(i)
        steps = []
        for slot, rule, node, ins in computed:
            # one input is got as a slice, so a rule still gets a sequence
            get = itemgetter(*ins) if len(ins) > 1 else itemgetter(slice(ins[0], ins[0] + 1))
            steps.append((slot, rule, node, get, tuple(dies_at.get(slot, ()))))
        out_shapes = [nodes[o].shape for o in key]

        def run(bindings: Mapping[str, np.ndarray | Stack]) -> list[np.ndarray]:
            vals: list = [None] * n_vals
            for nid, payload in consts:
                vals[nid] = payload
            size = None
            for nid, name, shape in variables:
                arr = bindings.get(name)
                if type(arr) is np.ndarray and arr.dtype == np.float64 and arr.shape == shape:
                    vals[nid] = arr  # _bound would return it as it is
                    continue
                arr = _bound(bindings, name)
                if isinstance(arr, Stack):
                    arr = arr.points
                    if arr.ndim != len(shape) + 1 or arr.shape[1:] != shape or (
                            size not in (None, arr.shape[0])):
                        raise ShapeError(
                            f"eval: stack for {name!r} has shape {arr.shape}, expected "
                            f"({'B' if size is None else size},) + {shape}"
                        )
                    size = arr.shape[0]
                elif arr.shape != shape:
                    raise ShapeError(
                        f"eval: binding for {name!r} has shape {arr.shape}, "
                        f"variable expects {shape}"
                    )
                vals[nid] = arr
            for nid, rule, node, get, dead in steps:
                vals[nid] = rule(node, get(vals))
                for d in dead:
                    vals[d] = None
            if size is None:
                return [vals[o] for o in key]
            return [np.broadcast_to(vals[o], (size,) + shape) for o, shape in zip(key, out_shapes)]

        return run

    def eval(self, bindings: Mapping[str, np.ndarray], outputs: Sequence[NodeId]) -> list[Tensor]:
        return [Tensor(a) for a in self.evaluator(outputs)(bindings)]


def conv2d(input, kernel, stride: int = 1, zero_padding: int = 0, flip: bool = False) -> Tensor:
    """Eager 2-D convolution of an HxWxC input with a khxkwxCxD kernel stack:
    one `ExprGraph.conv2d` over two constants, evaluated at once.

    flip=False computes cross-correlation (the usual CNN convention);
    flip=True rotates the kernel 180 degrees first, i.e. true convolution.
    """
    kr = as_array(kernel)
    if flip and kr.ndim == 4:  # any other shape is left for the builder to reject
        kr = kr[::-1, ::-1]
    g = ExprGraph()
    return g.eval({}, [g.conv2d(g.constant(input), g.constant(kr), stride, zero_padding)])[0]


class Stack:
    """B points of one variable, bound in its place for a single evaluation."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)


def _bound(bindings: Mapping[str, np.ndarray | Stack], name: str) -> np.ndarray | Stack:
    try:
        v = bindings[name]
    except KeyError:
        raise ContractError(f"eval: no binding for variable {name!r}") from None
    if isinstance(v, Stack):
        return v
    return v.array if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)


# --------------------------------------------------------------------- grad


def grad(graph: ExprGraph, wrt: Iterable[NodeId], of: NodeId) -> dict[NodeId, NodeId]:
    """Reverse-mode gradient of the scalar node `of`.

    Returns {variable node id -> gradient node id}; the gradient nodes live
    in the same graph and can be differentiated again. Variables that cannot
    reach `of` get a zero constant of their own shape.
    """
    if graph.shape_of(of) != ():
        raise ContractError(
            f"grad: output must be scalar, node {of} has shape {graph.shape_of(of)}"
        )
    wanted = list(wrt)
    for v in wanted:
        if graph.op_of(v) != "var":
            raise ContractError(f"grad: node {v} ({graph.op_of(v)}) is not a variable leaf")

    ancestors = graph._ancestors([of])
    contribs: dict[NodeId, list[NodeId]] = {of: [graph.constant(np.ones(()))]}
    gradient_of: dict[NodeId, NodeId] = {}

    # consumers always have larger ids, so one descending sweep settles every adjoint
    for nid in range(of, -1, -1):
        if nid not in ancestors or nid not in contribs:
            continue
        # summed pairwise, ((p0 + p1) + (p2 + p3)) + ...; float addition does not
        # associate, so this order is part of every adjoint's bits
        parts = contribs.pop(nid)
        while len(parts) > 1:
            parts = [graph.add(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                     for i in range(0, len(parts), 2)]
        gbar = parts[0]
        gradient_of[nid] = gbar
        node = graph.node(nid)
        if node.op in ("const", "var"):
            continue
        for pos, contribution in _VJP[node.op](graph, nid, gbar):
            contribs.setdefault(node.inputs[pos], []).append(contribution)

    result: dict[NodeId, NodeId] = {}
    for v in wanted:
        result[v] = gradient_of.get(v, None)
        if result[v] is None:
            result[v] = graph.constant(np.zeros(graph.shape_of(v)))
    return result


def meta_grad(graph: ExprGraph, wrt: Iterable[NodeId], of: NodeId) -> dict[NodeId, NodeId]:
    """Gradient of `of`, a distance whose value already embeds gradients.

    Mechanically identical to `grad`; the separate name marks the
    second-order use.
    """
    return grad(graph, wrt, of)


# ------------------------------------------------------------ eval registry
# Rules reduce, broadcast and contract over the trailing node axes only, so
# a value carrying leading batch axes evaluates as the stack of its entries.


def _margin(x: np.ndarray, m: int) -> np.ndarray:
    """A correlation's input as it sees it: zero-padded by m, or cropped by -m."""
    return k.pad2d(x, m) if m >= 0 else k.crop2d(x, -m)


def _rows(x: np.ndarray, m: int, kw: int) -> np.ndarray:
    """The im2col rows a correlation with margin m and kernel width kw reads."""
    return k.im2col(_margin(x, m), kw)


def _log_softmax(n, a):
    shifted = a[0] - np.maximum.reduce(a[0], axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _fill(n, a):
    out = np.empty(a[0].shape + n.params[0])
    out[...] = a[0].reshape(a[0].shape + (1,) * len(n.params[0]))
    return out


_EVAL.update({
    "add": lambda n, a: a[0] + a[1],
    "sub": lambda n, a: a[0] - a[1],
    "mul": lambda n, a: a[0] * a[1],
    "scale": lambda n, a: a[0] * n.params[0],
    "exp": lambda n, a: np.exp(a[0]),
    "sigmoid": lambda n, a: k.sigmoid(a[0]),
    "relu": lambda n, a: np.maximum(a[0], 0.0),
    "step": lambda n, a: (a[0] > 0).astype(np.float64),
    "sum_all": lambda n, a: np.asarray(np.add.reduce(a[0], axis=n.params[0])),
    "log_softmax": _log_softmax,
    "fill": _fill,
    "reshape": lambda n, a: a[0].reshape(a[0].shape[: a[0].ndim - n.params[1]] + n.params[0]),
    "matvec": lambda n, a: np.matmul(a[0], a[1][..., None])[..., 0],
    "matvec_t": lambda n, a: np.matmul(a[0].swapaxes(-1, -2), a[1][..., None])[..., 0],
    "outer": lambda n, a: a[0][..., :, None] * a[1][..., None, :],
    "corr2d": lambda n, a: k.corr2d(_rows(a[0], n.params[0], a[1].shape[-3]), a[1]),
    "kgrad_corr": lambda n, a: k.kgrad_corr(_rows(a[0], n.params[0], n.shape[1]), a[1]),
    "rotswap": lambda n, a: k.rotswap(a[0]),
    "sslice2d": lambda n, a: k.sslice2d(a[0], n.params[0]),
    "dilate2d": lambda n, a: k.dilate2d(a[0], *n.params),
    "avg_pool2d": lambda n, a: k.avg_pool(a[0], *n.params),
    "avg_unpool2d": lambda n, a: k.avg_unpool(a[0], *n.params),
})


# A compiled plan gives each (input, margin, kernel width) of its correlations
# one im2col step, whose params are (margin, kw), and the correlations read it.
# The width alone fixes the copy; kh only picks the blocks a kernel reads.
def _im2col(n, a):
    return _rows(a[0], *n.params)


_FROM_ROWS: dict[str, Callable] = {
    "corr2d": lambda n, a: k.corr2d(*a),
    "kgrad_corr": lambda n, a: k.kgrad_corr(*a),
}


# ------------------------------------------------------------- VJP registry
# Each rule returns [(input position, contribution node id)]. Contributions
# are built out of registered primitives only, which is what keeps the graph
# closed under repeated differentiation.


def _vjp_add(g, nid, gbar):
    return [(0, gbar), (1, gbar)]


def _vjp_sub(g, nid, gbar):
    return [(0, gbar), (1, g.neg(gbar))]


def _vjp_mul(g, nid, gbar):
    a, b = g.node(nid).inputs
    return [(0, g.mul(gbar, b)), (1, g.mul(gbar, a))]


def _vjp_scale(g, nid, gbar):
    return [(0, g.scale(gbar, g.node(nid).params[0]))]


def _vjp_exp(g, nid, gbar):
    return [(0, g.mul(gbar, nid))]


def _vjp_sigmoid(g, nid, gbar):
    # y' = y (1 - y)
    one = g.constant(np.ones(g.shape_of(nid)))
    return [(0, g.mul(gbar, g.mul(nid, g.sub(one, nid))))]


def _vjp_relu(g, nid, gbar):
    (a,) = g.node(nid).inputs
    return [(0, g.mul(gbar, g.step(a)))]


def _vjp_zero(g, nid, gbar):
    # step has zero derivative everywhere by definition
    return []


def _vjp_log_softmax(g, nid, gbar):
    # d out_i / d v_j = [i == j] - softmax_j, and softmax = exp(out)
    (v,) = g.node(nid).inputs
    return [(0, g.sub(gbar, g.mul(g.exp(nid), g.fill(g.sum_all(gbar), g.shape_of(v)))))]


def _vjp_sum_all(g, nid, gbar):
    (a,) = g.node(nid).inputs
    return [(0, g.fill(gbar, g.shape_of(a)))]


def _vjp_fill(g, nid, gbar):
    return [(0, g.sum_all(gbar))]


def _vjp_reshape(g, nid, gbar):
    (a,) = g.node(nid).inputs
    return [(0, g.reshape(gbar, g.shape_of(a)))]


def _vjp_matvec(g, nid, gbar):
    w, x = g.node(nid).inputs
    return [(0, g.outer(gbar, x)), (1, g.matvec_t(w, gbar))]


def _vjp_matvec_t(g, nid, gbar):
    w, y = g.node(nid).inputs
    return [(0, g.outer(y, gbar)), (1, g.matvec(w, gbar))]


def _vjp_outer(g, nid, gbar):
    u, v = g.node(nid).inputs
    return [(0, g.matvec(gbar, v)), (1, g.matvec_t(gbar, u))]


def _vjp_corr2d(g, nid, gbar):
    x, kernel = g.node(nid).inputs
    (m,) = g.node(nid).params
    back = g.shape_of(kernel)[0] - 1 - m
    return [(0, g.corr2d(gbar, g.rotswap(kernel), back)), (1, g.kgrad_corr(x, gbar, m))]


def _vjp_kgrad_corr(g, nid, gbar):
    x, dy = g.node(nid).inputs
    (m,) = g.node(nid).params
    back = g.shape_of(nid)[0] - 1 - m
    return [(0, g.corr2d(dy, g.rotswap(gbar), back)), (1, g.corr2d(x, gbar, m))]


def _vjp_rotswap(g, nid, gbar):
    return [(0, g.rotswap(gbar))]


def _vjp_sslice2d(g, nid, gbar):
    s, h, w = g.node(nid).params
    return [(0, g.dilate2d(gbar, s, h, w))]


def _vjp_dilate2d(g, nid, gbar):
    s, _, _ = g.node(nid).params
    return [(0, g.sslice2d(gbar, s))]


def _vjp_avg_pool2d(g, nid, gbar):
    (a,) = g.node(nid).inputs
    window, stride = g.node(nid).params
    h, w, _ = g.shape_of(a)
    return [(0, g.avg_unpool2d(gbar, window, stride, h, w))]


def _vjp_avg_unpool2d(g, nid, gbar):
    window, stride, _, _ = g.node(nid).params
    return [(0, g.avg_pool2d(gbar, window, stride))]


_VJP.update({
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "scale": _vjp_scale,
    "exp": _vjp_exp,
    "sigmoid": _vjp_sigmoid,
    "relu": _vjp_relu,
    "step": _vjp_zero,
    "sum_all": _vjp_sum_all,
    "log_softmax": _vjp_log_softmax,
    "fill": _vjp_fill,
    "reshape": _vjp_reshape,
    "matvec": _vjp_matvec,
    "matvec_t": _vjp_matvec_t,
    "outer": _vjp_outer,
    "corr2d": _vjp_corr2d,
    "kgrad_corr": _vjp_kgrad_corr,
    "rotswap": _vjp_rotswap,
    "sslice2d": _vjp_sslice2d,
    "dilate2d": _vjp_dilate2d,
    "avg_pool2d": _vjp_avg_pool2d,
    "avg_unpool2d": _vjp_avg_unpool2d,
})
