"""Reconstruction attacks against a captured gradient bundle.

Three attacks live here:

* `fc_analytic_reconstruct`: closed-form recovery of a biased dense layer's
  input as the ratio of a weight-gradient row to its bias-gradient entry.
* `dlg_attack`: the iterative gradient-matching attack. A virtual image and
  virtual label logits start as N(0, 1) noise; each iteration computes the
  gradient the model *would* have produced for them, measures the squared
  distance to the captured gradient, and moves both virtual tensors to shrink
  it. The default update is plain fixed-step descent on the distance's own
  gradient, which differentiates through the inner gradient computation
  (hence the second-order machinery in `graph`). Because the distance's
  curvature spans many orders of magnitude on CNNs, there is also a damped
  least-squares update (`optimizer="gauss_newton"`) that reaches pixel-exact
  reconstructions in tens of iterations where fixed-step descent stalls.
* `improved_dlg`: same loop with an extra mean-anchoring penalty that pulls
  pixels toward the image's running mean, damping leftover noise pixels in
  flat, light regions.

`infer_label_from_bundle` reads the victim's label straight off the final
layer's bias gradient: under softmax cross-entropy with batch size 1 the
true class is the only strictly negative entry. `label_from_gradient_sign`
is the same rule after a digest check against the model spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import (
    AmbiguityError,
    BiasGradientVanishesError,
    ContractError,
    DivergenceError,
    IncompatibilityError,
    ShapeError,
)
from .graph import ExprGraph, NodeId, Stack, grad, meta_grad
from .flsim import GradientBundle
from .metrics import ImagePair, mse_255, mse_unit
from .models import ModelParams, ModelSpec, build_logits
from .tensor import SeedRng, Tensor, as_array

VARIANTS = ("baseline", "improved")
OPTIMIZERS = ("gd", "gauss_newton")

# invented plumbing: fail fast instead of emitting NaN images
_DIVERGENCE_FACTOR = 1e6
_DIVERGENCE_FLOOR = 1e-12
_MAX_HALVINGS_PER_STEP = 60

# gauss_newton internals
_GN_FD_STEP = 1e-6
_GN_DAMPING_SEED = 1e-3      # initial mu = this times max(diag(J^T J))
_GN_DAMPING_MIN = 1e-14
_GN_MAX_REJECTS_PER_STEP = 25
_GN_STEP_CAP = 10.0          # reject steps larger than this per coordinate
_GN_FREEZE_DISTANCE = 1e-14  # below this the step is numerical noise
_GN_JAC_BLOCK = 16           # perturbed points per batched residual evaluation
_GN_BROYDEN_REFRESH = 8      # secant updates between forward-difference Jacobians

# trace checkpoints when none are given, clipped to the iteration budget
_STANDARD_CHECKPOINTS = (20, 40, 50, 80, 200)


@dataclass(frozen=True)
class VirtualSample:
    """The attacker's trainable stand-ins: image pixels and label logits."""

    x_virtual: Tensor
    y_virtual: Tensor


@dataclass(frozen=True)
class AttackConfig:
    eta: float = 1.0
    iterations: int = 200
    seed: int = 0
    variant: str = "baseline"
    lambda_mean: float = 0.01
    checkpoints: tuple[int, ...] | None = None  # None: standard ones, plus the last
    halve_on_increase: bool = False
    optimizer: str = "gd"

    def __post_init__(self):
        if self.eta <= 0:
            raise ContractError(f"eta must be positive, got {self.eta}")
        if self.iterations < 1:
            raise ContractError(f"iterations must be >= 1, got {self.iterations}")
        if self.variant not in VARIANTS:
            raise ContractError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}"
            )
        if self.halve_on_increase and self.optimizer == "gauss_newton":
            raise ContractError("halve_on_increase applies to the gd optimizer only; "
                                "gauss_newton controls its step by damping")
        if self.lambda_mean < 0:
            raise ContractError(f"lambda_mean must be >= 0, got {self.lambda_mean}")
        if self.checkpoints is None:
            cps = tuple(sorted({c for c in _STANDARD_CHECKPOINTS if c <= self.iterations}
                               | {self.iterations}))
        else:
            cps = tuple(int(c) for c in self.checkpoints)
        if sorted(set(cps)) != list(cps):
            raise ContractError(f"checkpoints must be sorted and unique, got {cps}")
        if cps and (cps[0] < 1 or cps[-1] > self.iterations):
            raise ContractError(
                f"checkpoints {cps} fall outside [1, {self.iterations}]"
            )
        object.__setattr__(self, "checkpoints", cps)


@dataclass(frozen=True)
class TraceRecord:
    """State after `iteration` update steps. `step_events` counts step-size
    control events so far: halvings in gd mode, damping raises in
    gauss_newton mode."""

    iteration: int
    distance: float
    mse_255: float | None
    mse_raw: float | None
    snapshot: Tensor
    step_events: int


@dataclass(frozen=True)
class AttackTrace:
    records: tuple[TraceRecord, ...]

    def distances(self) -> list[float]:
        return [r.distance for r in self.records]

    def mses(self) -> list[float | None]:
        return [r.mse_255 for r in self.records]


def gradient_distance(g: ExprGraph, virtual_grads: Mapping[str, NodeId],
                      true_bundle: GradientBundle) -> NodeId:
    """Append sum of squared element-wise gradient differences to g.

    `virtual_grads` maps tensor names to gradient nodes already in the graph;
    the captured gradients enter as constants. The resulting scalar node is
    designated as the graph output and returned.
    """
    if set(virtual_grads) != set(true_bundle.names()):
        raise IncompatibilityError(
            f"gradient_distance: tensor names differ "
            f"({sorted(virtual_grads)} vs {sorted(true_bundle.names())})"
        )
    total: NodeId | None = None
    for name, tensor in true_bundle.tensors:
        vnode = virtual_grads[name]
        if g.shape_of(vnode) != tensor.shape:
            raise IncompatibilityError(
                f"gradient_distance: tensor {name!r} has graph shape "
                f"{g.shape_of(vnode)} but bundle shape {tensor.shape}"
            )
        term = g.sq_diff_sum(vnode, g.constant(tensor))
        total = term if total is None else g.add(total, term)
    return g.set_output(total)


def bundle_sq_distance(a: GradientBundle, b: GradientBundle) -> float:
    """Eager sum of squared differences between two bundles' tensors."""
    if a.names() != b.names():
        raise IncompatibilityError("bundle_sq_distance: tensor names differ")
    total = 0.0
    for (name, ta), (_, tb) in zip(a.tensors, b.tensors):
        if ta.shape != tb.shape:
            raise IncompatibilityError(f"bundle_sq_distance: tensor {name!r} shapes differ")
        d = ta.array - tb.array
        total += float((d * d).sum())
    return total


def mean_anchor_penalty(g: ExprGraph, x: NodeId, weight: float) -> NodeId:
    """weight * (1/P) * sum((x - mean(x))^2), with the mean kept inside the
    graph so its dependence on x enters the derivative in full."""
    pixels = 1
    for d in g.shape_of(x):
        pixels *= d
    mean = g.scale(g.sum_all(x), 1.0 / pixels)
    centered = g.sub(x, g.fill(mean, g.shape_of(x)))
    return g.scale(g.sum_all(g.mul(centered, centered)), weight / pixels)


def fc_analytic_reconstruct(grad_weight, grad_bias, *, tol: float = 1e-12) -> Tensor:
    """Recover a biased dense layer's input from its gradient pair.

    For any row r, grad_weight[r] = grad_bias[r] * input, so the input is the
    ratio; the row with the largest |bias gradient| is used for stability.
    """
    gw = as_array(grad_weight)
    gb = as_array(grad_bias)
    if gw.ndim != 2 or gb.ndim != 1 or gw.shape[0] != gb.shape[0]:
        raise ShapeError(
            f"fc_analytic_reconstruct: weight gradient {gw.shape} and bias gradient "
            f"{gb.shape} do not pair up"
        )
    row = int(np.argmax(np.abs(gb)))
    if abs(gb[row]) <= tol:
        raise BiasGradientVanishesError(
            f"all bias-gradient entries are within {tol} of zero"
        )
    return Tensor(gw[row] / gb[row])


def fc_reconstruction_spread(grad_weight, grad_bias, *, tol: float = 1e-12) -> float:
    """Diagnostic: worst disagreement between the per-row reconstructions.

    Near zero for a consistent gradient pair; a large spread means the bundle
    was not produced by a single forward/backward pass of this layer.
    """
    gw = as_array(grad_weight)
    gb = as_array(grad_bias)
    best = fc_analytic_reconstruct(gw, gb, tol=tol).array
    rows = np.nonzero(np.abs(gb) > tol)[0]
    spread = 0.0
    for r in rows:
        spread = max(spread, float(np.max(np.abs(gw[r] / gb[r] - best))))
    return spread


def infer_label_from_bundle(target: GradientBundle) -> int:
    """Class index of the unique strictly negative entry of the final layer's
    bias gradient. The final layer is the one of the bundle's last '<name>.W'
    tensor; it must be a matrix with a 1-D '<name>.B' of one entry per row."""
    tensors = dict(target.tensors)
    weights = [name for name in tensors if name.endswith(".W")]
    if not weights:
        raise ContractError("bundle has no weight gradient to infer a label from")
    layer = weights[-1][:-2]
    gw, gb = tensors[weights[-1]], tensors.get(f"{layer}.B")
    if gb is None or gw.ndim != 2 or gb.shape != gw.shape[:1]:
        raise ContractError(f"final layer {layer!r} needs a 1-D bias gradient matching its "
                            f"weight matrix; cannot infer label")
    (neg,) = np.nonzero(gb.array < 0)
    if neg.size != 1:
        raise AmbiguityError(f"{neg.size} strictly negative bias-gradient entries; cannot infer label")
    return int(neg[0])


def label_from_gradient_sign(target: GradientBundle, spec: ModelSpec) -> int:
    """`infer_label_from_bundle` on a bundle checked against the spec's digest."""
    if target.digest != spec.digest:
        raise IncompatibilityError(
            f"label_from_gradient_sign: bundle digest {target.digest:#018x} does not "
            f"match spec digest {spec.digest:#018x}"
        )
    return infer_label_from_bundle(target)


def _check_compatible(spec: ModelSpec, params: ModelParams, target: GradientBundle) -> None:
    if params.spec.digest != spec.digest:
        raise IncompatibilityError("attack: params were built for a different model spec")
    if target.digest != spec.digest:
        raise IncompatibilityError(
            f"attack: bundle digest {target.digest:#018x} does not match model spec "
            f"digest {spec.digest:#018x}"
        )


@dataclass(frozen=True)
class _AttackGraph:
    graph: ExprGraph
    x: NodeId
    y: NodeId
    distance: NodeId
    virtual_nodes: tuple[tuple[str, NodeId], ...]  # bundle order


def _build_attack_graph(spec: ModelSpec, params: ModelParams, target: GradientBundle,
                        cfg: AttackConfig) -> _AttackGraph:
    g = ExprGraph()
    xv = g.variable("x", spec.input_shape)
    yv = g.variable("y", (spec.classes,))
    param_nodes = {name: g.variable(name, t.shape) for name, t in params.flat()}
    virtual_target = g.softmax(yv)
    logits = build_logits(g, spec, xv, param_nodes)
    loss = g.cross_entropy_logits(logits, virtual_target)
    g.set_output(loss)
    loss_grads = grad(g, wrt=param_nodes.values())
    virtual = {name: loss_grads[node] for name, node in param_nodes.items()}
    distance = gradient_distance(g, virtual, target)
    if cfg.variant == "improved" and cfg.lambda_mean > 0:
        # the objective that meta_grad differentiates
        g.set_output(g.add(distance, mean_anchor_penalty(g, xv, cfg.lambda_mean)))
    ordered = tuple((name, virtual[name]) for name in target.names())
    return _AttackGraph(g, xv, yv, distance, ordered)


# each stepper is built at the starting point and holds the current point
# (`x`, `y`) and its `distance`; `step()` moves it once and returns the
# distance at the point it left


class _GdStepper:
    """Fixed-step descent on the objective's gradient w.r.t. (x, y), with an
    optional halve-on-increase guard for stiff cases. One plan gives the
    distance and both meta-gradients at every point the stepper moves to,
    halving trials included."""

    def __init__(self, ag: _AttackGraph, cfg: AttackConfig, bindings, x, y):
        meta = meta_grad(ag.graph, wrt=(ag.x, ag.y))
        self._eval = ag.graph.evaluator([ag.distance, meta[ag.x], meta[ag.y]])
        self._bindings = bindings
        self._halve = cfg.halve_on_increase
        self._eta = cfg.eta
        self.step_events = 0
        self._move_to(x, y)

    def _move_to(self, x, y) -> None:
        self.x, self.y = x, y
        self._bindings["x"] = x
        self._bindings["y"] = y
        dist, self._gx, self._gy = self._eval(self._bindings)
        self.distance = float(dist)

    def step(self) -> float:
        left, x, y, gx, gy = self.distance, self.x, self.y, self._gx, self._gy
        self._move_to(x - self._eta * gx, y - self._eta * gy)
        tries = 0
        while (self._halve and (not np.isfinite(self.distance) or self.distance > left)
               and tries < _MAX_HALVINGS_PER_STEP):
            self._eta /= 2.0
            self.step_events += 1
            tries += 1
            self._move_to(x - self._eta * gx, y - self._eta * gy)
        return left


class _GaussNewtonStepper:
    """Damped least-squares steps on the stacked gradient residuals.

    The point is z = (pixels, logits). The residual vector is the flattened
    virtual-minus-true gradient (plus the mean-anchor rows for the improved
    variant); the stepper carries it from the accepted trial to the next
    iteration. Each iteration solves (J^T J + mu I) delta = -J^T r and scales
    the step by eta; mu shrinks on success and grows on rejection.

    The Jacobian is kept transposed (`jt`, one row per coordinate of z),
    together with its Gram matrix `gram` = jt jt^T. A full Jacobian comes
    from forward differences evaluated for a stack of perturbed points per
    call of the residual plan. Between those refreshes, each accepted step s
    with residual change dr applies Broyden's secant update
    jt += s u^T, u = (dr - jt^T s) / (s.s), and the matching rank-two
    correction to `gram`. The label-logit rows of `jt` are then recomputed
    by forward differences at the new point, with the rows and columns of
    `gram` they touch: the softmax saturates, so those rows shrink fast and
    a stale secant row would let the pixels absorb the label misfit. The
    full Jacobian is rebuilt after _GN_BROYDEN_REFRESH secant updates, and
    at the same point when a step computed from secant updates is rejected;
    that retry keeps mu and is no step event.

    The point is held, and nothing is evaluated again, once the distance
    falls to the freeze threshold or a step from a fresh Jacobian rejects
    every damping it tries.
    """

    def __init__(self, ag: _AttackGraph, cfg: AttackConfig, bindings,
                 target: GradientBundle, x, y):
        self._eval = ag.graph.evaluator([node for _, node in ag.virtual_nodes])
        self._targets = np.concatenate([t.array.ravel() for _, t in target.tensors])
        self._bindings = bindings
        self._eta = cfg.eta
        self._shape = ag.graph.shape_of(ag.x)
        self._pixels = int(np.prod(self._shape))
        self._anchor_weight = None
        if cfg.variant == "improved" and cfg.lambda_mean > 0:
            self._anchor_weight = np.sqrt(cfg.lambda_mean / self._pixels)
        self.step_events = 0
        self._mu: float | None = None  # seeded from the first Gram diagonal
        self._jt = self._gram = None  # built at the first active step
        self._secant_updates = 0
        z = np.concatenate([x.ravel(), y])
        self._move_to(z, self._rows(z[None])[0])

    def _move_to(self, z, r) -> None:
        self._z, self._r = z, r
        self.x = z[: self._pixels].reshape(self._shape)
        self.y = z[self._pixels:]
        # distance excludes the penalty rows: it is the pure gradient gap
        core = r[: len(self._targets)]
        self.distance = float(core @ core)
        self._held = self.distance <= _GN_FREEZE_DISTANCE

    def _rows(self, zs) -> np.ndarray:
        """Residual rows at each point of a (B, n) stack, one row per point."""
        flat_x = zs[:, : self._pixels]
        self._bindings["x"] = Stack(flat_x.reshape((-1,) + self._shape))
        self._bindings["y"] = Stack(zs[:, self._pixels:])
        grads = self._eval(self._bindings)
        r = np.concatenate([a.reshape(len(zs), -1) for a in grads], axis=1) - self._targets
        if self._anchor_weight is not None:
            centered = flat_x - flat_x.mean(axis=1, keepdims=True)
            r = np.concatenate([r, self._anchor_weight * centered], axis=1)
        return r

    def _jacobian_t(self, z, r, first: int = 0) -> np.ndarray:
        """Forward-difference Jacobian, transposed: row i is dr/dz_(first+i),
        for the coordinates from `first` on. The rows are filled
        _GN_JAC_BLOCK perturbed points at a time."""
        n = z.size - first
        jt = np.empty((n, r.size))
        for s in range(0, n, _GN_JAC_BLOCK):
            idx = np.arange(min(_GN_JAC_BLOCK, n - s))
            zp = np.repeat(z[None, :], idx.size, axis=0)
            zp[idx, first + s + idx] += _GN_FD_STEP
            jt[s : s + idx.size] = (self._rows(zp) - r) / _GN_FD_STEP
        return jt

    def _refresh(self) -> None:
        self._jt = self._gram = None  # free the old pair before allocating
        self._jt = self._jacobian_t(self._z, self._r)
        self._gram = self._jt @ self._jt.T
        self._secant_updates = 0

    def _secant_update(self, s, dr) -> None:
        """Broyden update of jt for the step just taken from the old point
        to the current one, then exact label rows at the current point."""
        jt, gram, p = self._jt, self._gram, self._pixels
        u = (dr - jt.T @ s) / (s @ s)
        w = jt @ u
        # gram += w s^T + s w^T + (u.u) s s^T, as two outer products with v
        v = w + (0.5 * (u @ u)) * s
        gram += np.outer(v, s)
        gram += np.outer(s, v)
        for b in range(0, s.size, _GN_JAC_BLOCK):
            jt[b : b + _GN_JAC_BLOCK] += np.outer(s[b : b + _GN_JAC_BLOCK], u)
        jt[p:] = self._jacobian_t(self._z, self._r, p)
        cross = jt @ jt[p:].T
        gram[:, p:] = cross
        gram[p:, :] = cross.T
        self._secant_updates += 1

    def step(self) -> float:
        left = self.distance
        if self._held:
            return left
        z, r = self._z, self._r
        if self._jt is None:
            self._refresh()
        rhs = -(self._jt @ r)
        if self._mu is None:
            self._mu = _GN_DAMPING_SEED * max(float(self._gram.diagonal().max()), 1e-30)
        sq = float(r @ r)
        eye = np.eye(z.size)
        rejects = 0
        while rejects < _GN_MAX_REJECTS_PER_STEP:
            step = self._eta * np.linalg.solve(self._gram + self._mu * eye, rhs)
            if np.isfinite(step).all() and np.abs(step).max() <= _GN_STEP_CAP:
                cand = z + step
                rc = self._rows(cand[None])[0]
                if np.isfinite(rc).all() and float(rc @ rc) < sq:
                    self._mu = max(self._mu / 3.0, _GN_DAMPING_MIN)
                    self._move_to(cand, rc)
                    if self._secant_updates == _GN_BROYDEN_REFRESH:
                        self._jt = self._gram = None  # rebuilt at the next step
                    elif not self._held:
                        self._secant_update(step, rc - r)
                    return left
            if self._secant_updates:
                self._refresh()  # retry from an exact Jacobian at the same mu
                rhs = -(self._jt @ r)
                continue
            self._mu *= 10.0
            self.step_events += 1
            rejects += 1
        self._held = True  # no damping moves the point
        return left


def _run_attack(spec: ModelSpec, params: ModelParams, target: GradientBundle,
                cfg: AttackConfig, truth: Tensor | None,
                init: VirtualSample | None) -> tuple[VirtualSample, AttackTrace]:
    _check_compatible(spec, params, target)
    if truth is not None and truth.shape != spec.input_shape:
        raise ShapeError(
            f"attack: ground truth of shape {truth.shape} does not match model "
            f"input {spec.input_shape}"
        )

    if init is None:
        rng = SeedRng(cfg.seed)
        x = rng.normal_array(spec.input_shape)
        y = rng.normal_array((spec.classes,))
    elif init.x_virtual.shape != spec.input_shape or init.y_virtual.shape != (spec.classes,):
        raise ShapeError("attack: init sample shapes do not match the model spec")
    else:
        x = init.x_virtual.array.copy()
        y = init.y_virtual.array.copy()

    ag = _build_attack_graph(spec, params, target, cfg)
    bindings = {name: t.array for name, t in params.flat()}
    if cfg.optimizer == "gd":
        stepper = _GdStepper(ag, cfg, bindings, x, y)
    else:
        stepper = _GaussNewtonStepper(ag, cfg, bindings, target, x, y)

    records: list[TraceRecord] = []
    checkpoints = set(cfg.checkpoints)
    limit = _DIVERGENCE_FACTOR * max(stepper.distance, _DIVERGENCE_FLOOR)

    for i in range(1, cfg.iterations + 1):
        dist = stepper.step()
        if not np.isfinite(dist) or dist > limit:
            raise DivergenceError(
                f"gradient distance {dist} exceeded {limit} at iteration {i}",
                trace=AttackTrace(tuple(records)),
            )

        if i in checkpoints:
            snapshot = Tensor(stepper.x)
            if truth is not None:
                pair = ImagePair(truth, snapshot)
                rec_mse = mse_255(pair)
                rec_raw = mse_unit(pair)
            else:
                rec_mse = rec_raw = None
            records.append(TraceRecord(i, stepper.distance, rec_mse, rec_raw, snapshot,
                                       stepper.step_events))

    # checkpoint snapshots keep the unclamped iterate
    sample = VirtualSample(Tensor(np.clip(stepper.x, 0.0, 1.0)), Tensor(stepper.y))
    return sample, AttackTrace(tuple(records))


def dlg_attack(spec: ModelSpec, params: ModelParams, target: GradientBundle,
               cfg: AttackConfig, *, truth: Tensor | None = None,
               init: VirtualSample | None = None) -> tuple[VirtualSample, AttackTrace]:
    """Run the gradient-matching attack.

    Per iteration: virtual target = softmax(y'), virtual gradient = gradient
    of the loss at (x', virtual target), distance = squared gradient gap, and
    both virtual tensors move to shrink the distance (fixed-step descent by
    default; see AttackConfig.optimizer). `truth`, when given, only feeds the
    MSE columns of the trace; `init` overrides the seeded N(0, 1) starting
    point (useful for fixed-point tests).
    """
    if cfg.variant != "baseline":
        raise ContractError("dlg_attack: cfg.variant must be 'baseline'; use improved_dlg")
    return _run_attack(spec, params, target, cfg, truth, init)


def improved_dlg(spec: ModelSpec, params: ModelParams, target: GradientBundle,
                 cfg: AttackConfig, *, truth: Tensor | None = None,
                 init: VirtualSample | None = None) -> tuple[VirtualSample, AttackTrace]:
    """Gradient matching plus the mean-anchoring penalty on the virtual image.

    With lambda_mean = 0 the penalty is skipped entirely, so the trajectory
    is bit-identical to `dlg_attack` under the same seed.
    """
    if cfg.variant != "improved":
        cfg = replace(cfg, variant="improved")
    return _run_attack(spec, params, target, cfg, truth, init)
