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
  (hence the second-order machinery in `graph`). Its graph depends on the
  model alone: the captured tensors are bound to variables "T:<name>" at
  evaluation, as the data the distance matches. Because the distance's
  curvature spans many orders of magnitude on CNNs, there is also a damped
  least-squares update (`optimizer="gauss_newton"`) that reaches pixel-exact
  reconstructions in tens of iterations where fixed-step descent stalls. It
  moves the image alone, with the label fixed by the sign rule below, and
  its residual is the victim's own gradient plan (`flsim.gradient_plan`) at
  the virtual image and that label's one-hot target, minus the capture.
* `improved_dlg`: the fixed-step descent loop with an extra mean-anchoring
  penalty that pulls pixels toward the image's running mean, damping
  leftover noise pixels in flat, light regions; gauss_newton rejects it.

`infer_label_from_bundle` reads the victim's label straight off the final
layer's bias gradient: under softmax cross-entropy with batch size 1 the
true class is the only strictly negative entry. `label_from_gradient_sign`
is the same rule after checking the bundle against the model spec: its
digest, and its tensor names and shapes in the spec's order.
"""

from __future__ import annotations

import math
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
from .flsim import GradientBundle, gradient_plan
from .metrics import ImagePair, mse_255, mse_unit
from .models import ModelParams, ModelSpec, build_logits, loss_bindings, one_hot
from .tensor import SeedRng, Shape, Tensor, as_array

VARIANTS = ("baseline", "improved")
OPTIMIZERS = ("gd", "gauss_newton")

# invented plumbing: fail fast instead of emitting NaN images
_DIVERGENCE_FACTOR = 1e6
_DIVERGENCE_FLOOR = 1e-12
_MAX_HALVINGS_PER_STEP = 60

# bias-gradient entries within this of zero carry no dense-layer input
_FC_BIAS_TOL = 1e-12

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
    """The attacker's stand-ins: image pixels and label logits (one-hot under
    gauss_newton, which fixes the label)."""

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
        if not 0 < self.eta < np.inf:
            raise ContractError(f"eta must be positive and finite, got {self.eta}")
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
        if self.variant == "improved" and self.optimizer == "gauss_newton":
            raise ContractError("the improved variant applies to the gd optimizer only; "
                                "gauss_newton fits the gradient alone")
        if not 0 <= self.lambda_mean < np.inf:
            raise ContractError(f"lambda_mean must be finite and >= 0, got {self.lambda_mean}")
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


def gradient_distance(g: ExprGraph, virtual_grads: Mapping[str, NodeId]) -> NodeId:
    """Append the sum of squared element-wise gradient differences to g.

    `virtual_grads` maps tensor names to gradient nodes already in the
    graph. Each is compared with a new variable "T:<name>" of its shape, to
    which the captured tensor is bound, so the graph serves any capture.
    Returns the scalar sum node, summed in `virtual_grads` order.
    """
    total: NodeId | None = None
    for name, vnode in virtual_grads.items():
        term = g.sq_diff_sum(vnode, g.variable(f"T:{name}", g.shape_of(vnode)))
        total = term if total is None else g.add(total, term)
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


def fc_analytic_reconstruct(grad_weight, grad_bias) -> Tensor:
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
    if abs(gb[row]) <= _FC_BIAS_TOL:
        raise BiasGradientVanishesError(
            f"all bias-gradient entries are within {_FC_BIAS_TOL} of zero"
        )
    return Tensor._adopt(gw[row] / gb[row])


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


def _check_bundle(who: str, target: GradientBundle, spec: ModelSpec,
                  wanted: list[tuple[str, Shape]]) -> None:
    """Raise IncompatibilityError unless the bundle has the spec's digest and
    its tensors are `wanted`'s (name, shape) pairs, in that order."""
    if target.digest != spec.digest:
        raise IncompatibilityError(
            f"{who}: bundle digest {target.digest:#018x} does not match model spec "
            f"digest {spec.digest:#018x}"
        )
    found = [(name, t.shape) for name, t in target.tensors]
    if found != wanted:
        raise IncompatibilityError(
            f"{who}: bundle tensors {found} do not match, by name, shape and order, "
            f"the model parameters {wanted}"
        )


def label_from_gradient_sign(target: GradientBundle, spec: ModelSpec) -> int:
    """`infer_label_from_bundle` on a bundle checked against the spec: its
    digest, and its parameter names and shapes in the spec's order."""
    _check_bundle("label_from_gradient_sign", target, spec, list(spec.param_shapes().items()))
    return infer_label_from_bundle(target)


def _check_compatible(spec: ModelSpec, params: ModelParams, target: GradientBundle) -> None:
    if params.spec.digest != spec.digest:
        raise IncompatibilityError("attack: params were built for a different model spec")
    _check_bundle("attack", target, spec, [(name, t.shape) for name, t in params.flat()])


@dataclass(frozen=True)
class _AttackGraph:
    graph: ExprGraph
    x: NodeId
    y: NodeId
    distance: NodeId
    objective: NodeId


def _build_attack_graph(params: ModelParams, cfg: AttackConfig) -> _AttackGraph:
    """The gd objective: the gradient distance at the virtual image and the
    softmax of the virtual logits, plus the mean anchor under `improved`.
    The capture is bound as "T:<name>", so the graph depends on the model
    alone."""
    spec = params.spec
    g = ExprGraph()
    xv = g.variable("x", spec.input_shape)
    yv = g.variable("y", (spec.classes,))
    param_nodes = {name: g.variable(name, t.shape) for name, t in params.flat()}
    virtual_target = g.softmax(yv)
    logits = build_logits(g, spec, xv, param_nodes)
    loss = g.cross_entropy_logits(logits, virtual_target)
    loss_grads = grad(g, wrt=param_nodes.values(), of=loss)
    virtual = {name: loss_grads[node] for name, node in param_nodes.items()}
    distance = gradient_distance(g, virtual)
    objective = distance
    if cfg.variant == "improved" and cfg.lambda_mean > 0:
        objective = g.add(distance, mean_anchor_penalty(g, xv, cfg.lambda_mean))
    return _AttackGraph(g, xv, yv, distance, objective)


# each stepper is built at the starting point and holds the current image
# `x`, label logits or target `y` and `distance`; `step()` moves it once,
# and once `held` is true no step moves it again


class _GdStepper:
    """Fixed-step descent on the objective's gradient w.r.t. (x, y), with an
    optional halve-on-increase guard for stiff cases. One plan gives the
    distance and both meta-gradients at every point the stepper moves to,
    halving trials included."""

    held = False

    def __init__(self, params: ModelParams, target: GradientBundle, cfg: AttackConfig, x, y):
        ag = _build_attack_graph(params, cfg)
        meta = meta_grad(ag.graph, wrt=(ag.x, ag.y), of=ag.objective)
        self._eval = ag.graph.evaluator([ag.distance, meta[ag.x], meta[ag.y]])
        self._bindings = {name: t.array for name, t in params.flat()}
        self._bindings.update((f"T:{name}", t.array) for name, t in target.tensors)
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

    def step(self) -> None:
        left, x, y, gx, gy = self.distance, self.x, self.y, self._gx, self._gy
        self._move_to(x - self._eta * gx, y - self._eta * gy)
        tries = 0
        while (self._halve and (not np.isfinite(self.distance) or self.distance > left)
               and tries < _MAX_HALVINGS_PER_STEP):
            self._eta /= 2.0
            self.step_events += 1
            tries += 1
            self._move_to(x - self._eta * gx, y - self._eta * gy)


class _GaussNewtonStepper:
    """Damped least-squares steps on the stacked gradient residuals.

    The point z is the flat image; the label is fixed, so the residual
    plan is the victim's gradient plan with "target" bound to its one-hot
    vector `y`. The residual vector is the flattened virtual-minus-true
    gradient, in `params.flat()` order, so its squared norm is the distance;
    the stepper carries it from the accepted trial to the next iteration. Each
    iteration solves (J^T J + mu I) delta = -J^T r and scales the step by
    eta; mu shrinks on success and grows on rejection.

    The Jacobian is kept transposed, one row per pixel, in factored form:
    jt = jt0 + sum_k s_k u_k^T, where `jt0` is a forward-difference Jacobian
    (a stack of perturbed points per call of the residual plan) that is never
    written after it is built, and each pair (s_k, u_k) is one of Broyden's
    secant updates. Beside it the stepper keeps the Gram matrix
    `gram` = jt jt^T and `jr` = jt r at the current point, so the right-hand
    side is -jr. An accepted step s with residual change dr appends the pair
    (s, u), u = (dr - jt^T s) / (s.s), corrects `gram` by rank two and moves
    `jr` to the new point; jt^T s and jt r_new are its only two passes over
    `jt0`, and jt u comes from them and `gram` without a third. The Jacobian
    is rebuilt after _GN_BROYDEN_REFRESH secant updates, and at the same point
    when a step computed from secant updates is rejected; that retry keeps mu
    and is no step event.

    The point is held, and nothing is evaluated again, once the distance
    falls to the freeze threshold or a step from a fresh Jacobian rejects
    every damping it tries.

    Every residual evaluation, the start, the forward-difference blocks and
    the trial points, goes through `_residual`. A single point is bound as
    itself rather than as a 1-point `Stack`, which the plan evaluates with
    less per-call work and the same bits, and each block's rows are written
    straight into the Jacobian.
    """

    def __init__(self, params: ModelParams, label: int, cfg: AttackConfig,
                 target: GradientBundle, x):
        probs = one_hot(label, params.spec.classes)
        self._eval = gradient_plan(params)
        self._bindings = loss_bindings(params, Tensor(x), probs)
        self._targets = np.concatenate([t.array.ravel() for _, t in target.tensors])
        self.y = probs.array
        self._eta = cfg.eta
        self._shape = x.shape
        self.step_events = 0
        self._mu: float | None = None  # seeded from the first Gram diagonal
        self._jt0 = self._gram = self._jr = None  # built at the first active step
        self._pairs: list[tuple[np.ndarray, np.ndarray]] = []  # secant (s_k, u_k)
        z = x.ravel()
        self._move_to(z, self._rows(z[None])[0])

    @property
    def held(self) -> bool:
        return self._held

    def _move_to(self, z, r) -> None:
        self._z, self._r = z, r
        self.x = z.reshape(self._shape)
        self.distance = float(r @ r)
        self._held = self.distance <= _GN_FREEZE_DISTANCE

    def _residual(self, zs) -> list[np.ndarray]:
        """The residual plan's outputs, the virtual gradients, at each point of
        a (B, pixels) stack; B = 1 binds the point itself, whose outputs
        then have no stack axis."""
        if len(zs) == 1:
            self._bindings["x"] = zs[0].reshape(self._shape)
        else:
            self._bindings["x"] = Stack(zs.reshape((-1,) + self._shape))
        return self._eval(self._bindings)

    def _rows(self, zs, out=None) -> np.ndarray:
        """Residual rows at each point of a (B, pixels) stack, one row per
        point, written into `out` when it is given."""
        rows = np.concatenate([g.reshape(len(zs), -1) for g in self._residual(zs)], axis=1,
                              out=out)
        rows -= self._targets
        return rows

    def _jacobian_t(self, z, r) -> np.ndarray:
        """Forward-difference Jacobian, transposed: row i is dr/dz_i. The rows
        are filled _GN_JAC_BLOCK perturbed points at a time."""
        n = z.size
        jt = np.empty((n, r.size))
        for s in range(0, n, _GN_JAC_BLOCK):
            idx = np.arange(min(_GN_JAC_BLOCK, n - s))
            zp = np.repeat(z[None, :], idx.size, axis=0)
            zp[idx, s + idx] += _GN_FD_STEP
            block = self._rows(zp, out=jt[s : s + idx.size])
            block -= r
            block /= _GN_FD_STEP
        return jt

    def _refresh(self) -> None:
        self._jt0 = self._gram = None  # free the old pair before allocating
        self._jt0 = self._jacobian_t(self._z, self._r)
        self._gram = self._jt0 @ self._jt0.T
        self._jr = self._jt0 @ self._r
        self._pairs = []

    def _secant_update(self, s, r, rc) -> None:
        """Broyden update for the step s just taken, from residual r to rc."""
        ss = s @ s
        js = self._jt0.T @ s  # jt^T s
        jrc = self._jt0 @ rc  # jt rc
        for sk, uk in self._pairs:
            js += uk * (sk @ s)
            jrc += sk * (uk @ rc)
        u = (rc - r - js) / ss
        # jt u = jt (rc - r - jt^T s) / (s.s), with jt jt^T = gram
        w = ((jrc - self._jr) - self._gram @ s) / ss
        # gram += w s^T + s w^T + (u.u) s s^T = v s^T + s v^T, one rank-two product
        vs = np.stack((w + (0.5 * (u @ u)) * s, s))
        self._gram += vs.T @ vs[::-1]
        self._jr = jrc + s * (u @ rc)  # (jt + s u^T) rc
        self._pairs.append((s, u))

    def step(self) -> None:
        if self._held:
            return
        left = self.distance
        z, r = self._z, self._r
        if self._jt0 is None:
            self._refresh()
        if self._mu is None:
            self._mu = _GN_DAMPING_SEED * max(float(self._gram.diagonal().max()), 1e-30)
        rejects = 0
        while rejects < _GN_MAX_REJECTS_PER_STEP:
            # gram + mu I without the identity: mu I adds +0.0 off the diagonal
            damped = self._gram + 0.0
            damped.flat[:: z.size + 1] += self._mu
            step = self._eta * np.linalg.solve(damped, -self._jr)
            if np.isfinite(step).all() and np.abs(step).max() <= _GN_STEP_CAP:
                cand = z + step
                rc = self._rows(cand[None])[0]
                if np.isfinite(rc).all() and float(rc @ rc) < left:
                    self._mu = max(self._mu / 3.0, _GN_DAMPING_MIN)
                    self._move_to(cand, rc)
                    if len(self._pairs) == _GN_BROYDEN_REFRESH:
                        self._jt0 = self._gram = self._jr = None  # rebuilt at the next step
                    elif not self._held:
                        self._secant_update(step, r, rc)
                    return
            if self._pairs:
                self._refresh()  # retry from an exact Jacobian at the same mu
                continue
            self._mu *= 10.0
            self.step_events += 1
            rejects += 1
        self._held = True  # no damping moves the point


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

    if cfg.optimizer == "gd":
        stepper = _GdStepper(params, target, cfg, x, y)
    else:
        # gauss_newton fixes the label; the y draw above stays, so x is the same stream
        label = infer_label_from_bundle(target)
        stepper = _GaussNewtonStepper(params, label, cfg, target, x)

    records: list[TraceRecord] = []
    checkpoints = set(cfg.checkpoints)
    limit = _DIVERGENCE_FACTOR * max(stepper.distance, _DIVERGENCE_FLOOR)

    for i in range(1, cfg.iterations + 1):
        # a held stepper's point, distance and events stay as the check left them
        if not stepper.held:
            stepper.step()
            dist = stepper.distance
            if not math.isfinite(dist) or dist > limit:
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
    default; see AttackConfig.optimizer). With optimizer="gauss_newton" only
    x' moves: the virtual target is one_hot of `infer_label_from_bundle`,
    whose ContractError or AmbiguityError propagates, and the returned
    y_virtual is that one-hot vector. `truth`, when given, only feeds the
    MSE columns of the trace; `init` overrides the seeded N(0, 1) starting
    point (useful for fixed-point tests; gauss_newton ignores its y_virtual).
    """
    if cfg.variant != "baseline":
        raise ContractError("dlg_attack: cfg.variant must be 'baseline'; use improved_dlg")
    return _run_attack(spec, params, target, cfg, truth, init)


def improved_dlg(spec: ModelSpec, params: ModelParams, target: GradientBundle,
                 cfg: AttackConfig, *, truth: Tensor | None = None,
                 init: VirtualSample | None = None) -> tuple[VirtualSample, AttackTrace]:
    """Gradient matching plus the mean-anchoring penalty on the virtual image.

    gd only: optimizer="gauss_newton" raises ContractError. With
    lambda_mean = 0 the penalty is skipped entirely, so the trajectory is
    bit-identical to `dlg_attack` under the same seed.
    """
    if cfg.variant != "improved":
        cfg = replace(cfg, variant="improved")
    return _run_attack(spec, params, target, cfg, truth, init)
