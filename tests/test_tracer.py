"""The benchmark's layer tracer (perfbench/tracer.py) against this package.

The tracer patches module attributes by name, so a refactor that renames or
drops one of them breaks `perfbench/run.py --trace 1` without any other test
noticing. These tests install it, run Gauss-Newton and gradient-descent
attacks through the wrapped entry points, and check what it records and
that everything is put back.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

import gradleak.attack
from gradleak import (
    AttackConfig,
    ExprGraph,
    SeedRng,
    build_model,
    default_attack_spec,
    dlg_attack,
    one_hot,
    synth_image,
    victim_gradient,
)

_TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_stacked_evaluations_and_restores(monkeypatch):
    tracer = _load_tracer().Tracer()
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(3))
    x = synth_image("blocks", 12, 12, 1, 3).to_tensor()
    bundle = victim_gradient(params, x, one_hot(1, 2))
    cfg = AttackConfig(iterations=2, seed=4, checkpoints=(2,), optimizer="gauss_newton")
    stepper = gradleak.attack._GaussNewtonStepper
    residual = stepper._residual
    row_calls = []

    def counted_residual(self, zs):
        row_calls.append(len(zs))
        return residual(self, zs)

    with monkeypatch.context() as m:
        m.setattr(stepper, "_residual", counted_residual)
        want, want_trace = dlg_attack(spec, params, bundle, cfg)
    before_solve = np.linalg.solve
    before_evaluator = ExprGraph.evaluator
    before_attack = gradleak.attack.dlg_attack

    tracer.begin_op(0)  # installs; raises AttributeError on a name that is gone
    try:
        patched = list(tracer._patches)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        assert np.linalg.solve is not before_solve
        got, got_trace = gradleak.attack.dlg_attack(spec, params, bundle, cfg)
    finally:
        tracer.end_op()

    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    assert np.linalg.solve is before_solve
    assert ExprGraph.evaluator is before_evaluator
    assert gradleak.attack.dlg_attack is before_attack

    assert np.array_equal(got.x_virtual.array, want.x_virtual.array)
    assert got_trace.distances() == want_trace.distances()
    names = [tracer.names[i] for i in tracer.span_name]
    # every residual-plan call is seen: the starting point, one stack per 16
    # pixels for the full Jacobian the first step builds, then per iteration
    # at least one trial point (secant updates replace the later Jacobians)
    blocks = math.ceil(math.prod(spec.input_shape) / 16)
    assert len(row_calls) >= 1 + blocks + cfg.iterations
    assert names.count("graph.eval.resid") == len(row_calls)
    assert tracer.counts[0]["attack.gn.trial_steps"] >= cfg.iterations


def test_tracer_records_the_gd_step_plans():
    # a 2-iteration dlg_attack and improved_dlg: both step plans are recorded
    # at their node counts, the distance is built and differentiated inside
    # the wrapped builders, and the samples are those of untraced runs
    tracer = _load_tracer().Tracer()
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(3))
    x = synth_image("blocks", 12, 12, 1, 3).to_tensor()
    bundle = victim_gradient(params, x, one_hot(1, 2))
    cfg = AttackConfig(iterations=2, seed=4, checkpoints=(2,))
    attacks = ("dlg_attack", "improved_dlg")
    want = [getattr(gradleak.attack, a)(spec, params, bundle, cfg)[0] for a in attacks]

    tracer.begin_op(0)
    try:
        got = [getattr(gradleak.attack, a)(spec, params, bundle, cfg)[0] for a in attacks]
    finally:
        tracer.end_op()

    for traced, untraced in zip(got, want):
        assert np.array_equal(traced.x_virtual.array, untraced.x_virtual.array)
        assert np.array_equal(traced.y_virtual.array, untraced.y_virtual.array)
    assert tracer.plans["gd_step_dlg"][0] == 128
    assert tracer.plans["gd_step_improved"][0] == 140
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"graph.grad", "graph.meta_grad", "graph.build.build_logits",
            "graph.build.gradient_distance", "graph.build.mean_anchor_penalty"} <= names
