from dataclasses import replace

import numpy as np
import pytest

from gradleak import (
    AmbiguityError,
    AttackConfig,
    BiasGradientVanishesError,
    ContractError,
    DivergenceError,
    ExprGraph,
    GradientBundle,
    IncompatibilityError,
    ModelSpec,
    SeedRng,
    Tensor,
    VirtualSample,
    aggregate,
    build_model,
    default_attack_spec,
    dlg_attack,
    fc_analytic_reconstruct,
    forward_loss,
    grad,
    gradient_distance,
    improved_dlg,
    infer_label_from_bundle,
    label_from_gradient_sign,
    loss_bindings,
    mean_anchor_penalty,
    meta_grad,
    one_hot,
    parse_model_text,
    synth_image,
    victim_gradient,
)
from gradleak.attack import (
    OPTIMIZERS,
    _GN_BROYDEN_REFRESH,
    _GN_FD_STEP,
    _GN_FREEZE_DISTANCE,
    _GN_JAC_BLOCK,
    _GaussNewtonStepper,
    _build_attack_graph,
)
import gradleak.attack
from gradleak import cli
from gradleak.cli import cli_main
from gradleak.models import Activation, Conv, Dense, Flatten, Pool
from oracles import explicit_broyden_update, fd_gradient, rel_err, softmax_hp


def _image(rng, h, w, c=1):
    return Tensor(np.array([rng.uniform() for _ in range(h * w * c)]).reshape(h, w, c))


def _toy_bundle(values, digest=0x77):
    return GradientBundle(digest, 0, 0, tuple((n, Tensor(v)) for n, v in values))


class TestGradientDistance:
    def _distance_value(self, a, b):
        # a's tensors as the virtual gradients, b's bound as the capture
        g = ExprGraph()
        out = gradient_distance(g, {name: g.constant(t) for name, t in a.tensors})
        return g.eval({f"T:{name}": t for name, t in b.tensors}, [out])[0].item()

    def test_identical_bundles_give_zero(self):
        b = _toy_bundle([("l.W", [[1.0, 2.0]]), ("l.B", [3.0])])
        assert self._distance_value(b, b) == 0.0

    def test_symmetry(self):
        a = _toy_bundle([("l.W", [[1.0, -2.0]])])
        b = _toy_bundle([("l.W", [[0.5, 4.0]])])
        assert self._distance_value(a, b) == self._distance_value(b, a)

    def test_matches_loop_oracle(self):
        rng = SeedRng(44)
        a = _toy_bundle([("l.W", [[rng.uniform() for _ in range(3)] for _ in range(2)]),
                         ("l.B", [rng.uniform() for _ in range(2)])])
        b = _toy_bundle([("l.W", [[rng.uniform() for _ in range(3)] for _ in range(2)]),
                         ("l.B", [rng.uniform() for _ in range(2)])])
        total = 0.0
        for (_, ta), (_, tb) in zip(a.tensors, b.tensors):
            for x, y in zip(ta.array.ravel(), tb.array.ravel()):
                total += (x - y) ** 2
        assert abs(self._distance_value(a, b) - total) < 1e-15


class TestAnalyticReconstruction:
    def test_unit_upstream_gradient_case(self):
        # loss = y0 for y = Wx + b gives grad_b = [1], grad_W = [x]
        g = ExprGraph()
        w = g.variable("w", (1, 2))
        b = g.variable("b", (1,))
        x = g.constant(np.array([3.0, 4.0]))
        gm = grad(g, [w, b], of=g.sum_all(g.affine(w, x, b)))
        bindings = {"w": np.array([[1.0, 1.0]]), "b": np.array([0.0])}
        gw, gb = (t.array for t in g.eval(bindings, [gm[w], gm[b]]))
        assert gb.tolist() == [1.0]
        assert gw.tolist() == [[3.0, 4.0]]
        assert fc_analytic_reconstruct(gw, gb).tolist() == [3.0, 4.0]

    def test_scaling_invariance(self):
        gw = np.array([[0.6, -1.2, 3.0], [0.2, -0.4, 1.0]])
        gb = np.array([0.3, 0.1])
        base = fc_analytic_reconstruct(gw, gb)
        for c in (-7.0, 0.5, 1e6):
            scaled = fc_analytic_reconstruct(c * gw, c * gb)
            assert np.allclose(scaled.array, base.array, rtol=1e-15, atol=0)

    def test_vanishing_bias_gradient(self):
        with pytest.raises(BiasGradientVanishesError):
            fc_analytic_reconstruct(np.ones((2, 3)), np.zeros(2))


# the default spec's conv1.W, conv2.W, fc1.W, fc1.B with one tensor altered,
# or all four in reverse order
ALTERED_TENSORS = {
    "renamed": lambda ts: (("conv1.K", ts[0][1]),) + ts[1:],
    "missing": lambda ts: ts[:1] + ts[2:],
    "reshaped": lambda ts: (ts[:1] + (("conv2.W", Tensor(ts[1][1].array.transpose(0, 1, 3, 2))),)
                            + ts[2:]),
    "reordered": lambda ts: ts[::-1],
}

GN_TWO_STEPS = AttackConfig(iterations=2, checkpoints=(2,), optimizer="gauss_newton")
HIDDEN_BIAS_SPEC = ("input h=4 w=4 c=1\nflatten\ndense out=5 bias=yes\n"
                    "act sigmoid\ndense out=3 bias=no\n")


class TestLabelInference:
    def _spec3(self):
        return ModelSpec((1, 2, 1), (Flatten(), Dense(out_dim=3, biased=True)))

    def _bundle_for(self, spec, bias_grad):
        m, n = 3, 2
        return GradientBundle(
            spec.digest, 0, 0,
            (("fc1.W", Tensor(np.zeros((m, n)))), ("fc1.B", Tensor(bias_grad))),
        )

    def test_unique_negative_entry(self):
        spec = self._spec3()
        bundle = self._bundle_for(spec, [-0.9, 0.4, 0.5])
        assert label_from_gradient_sign(bundle, spec) == 0
        assert infer_label_from_bundle(bundle) == 0

    def test_permutation_equivariance(self):
        spec = self._spec3()
        base = [-0.9, 0.4, 0.5]
        for perm in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = [base[list(perm).index(i)] for i in range(3)]
            got = label_from_gradient_sign(self._bundle_for(spec, permuted), spec)
            assert got == list(perm)[0]

    def test_no_negative_entry_is_ambiguous(self):
        spec = self._spec3()
        with pytest.raises(AmbiguityError):
            label_from_gradient_sign(self._bundle_for(spec, [0.1, 0.2, 0.3]), spec)

    def test_mean_of_two_labelled_clients_is_ambiguous(self):
        # bias gradients softmax - one_hot(0) and softmax - one_hot(1) average
        # to two strictly negative entries
        spec = default_attack_spec(12, 12, 1, 3)
        params = build_model(spec, SeedRng(5))
        x = _image(SeedRng(6), 12, 12)
        mean = aggregate([victim_gradient(params, x, one_hot(label, 3)) for label in (0, 1)])
        with pytest.raises(AmbiguityError, match="2 strictly negative"):
            label_from_gradient_sign(mean, spec)
        with pytest.raises(AmbiguityError, match="2 strictly negative"):
            infer_label_from_bundle(mean)
        # gauss_newton fixes the label by this rule; gd needs no label
        with pytest.raises(AmbiguityError, match="2 strictly negative"):
            dlg_attack(spec, params, mean, GN_TWO_STEPS)
        dlg_attack(spec, params, mean, replace(GN_TWO_STEPS, optimizer="gd"))

    def test_matches_ground_truth_on_real_gradients(self):
        spec = default_attack_spec(12, 12, 1, 2)
        for run in range(20):
            params = build_model(spec, SeedRng(run))
            x = _image(SeedRng(1000 + run), 12, 12)
            label = run % 2
            bundle = victim_gradient(params, x, one_hot(label, 2))
            assert label_from_gradient_sign(bundle, spec) == label

    def test_final_layer_without_bias_is_rejected(self):
        # the hidden layer fc1 has a bias gradient, the final layer fc2 has none
        spec = parse_model_text(HIDDEN_BIAS_SPEC)
        params = build_model(spec, SeedRng(3))
        x = synth_image("blocks", 4, 4, 1, 3).to_tensor()
        bundle = victim_gradient(params, x, one_hot(0, 3))
        with pytest.raises(ContractError, match="'fc2'"):
            infer_label_from_bundle(bundle)
        with pytest.raises(ContractError, match="'fc2'"):
            label_from_gradient_sign(bundle, spec)
        with pytest.raises(ContractError, match="'fc2'"):
            dlg_attack(spec, params, bundle, GN_TWO_STEPS)
        dlg_attack(spec, params, bundle, replace(GN_TWO_STEPS, optimizer="gd"))

    def test_bias_must_match_the_final_weight_rows(self):
        spec = self._spec3()
        short = GradientBundle(spec.digest, 0, 0, (("fc1.W", Tensor(np.zeros((3, 2)))),
                                                   ("fc1.B", Tensor([-1.0, 0.5]))))
        with pytest.raises(ContractError, match="'fc1'"):
            infer_label_from_bundle(short)
        bias_only = GradientBundle(spec.digest, 0, 0, (("fc1.B", Tensor([-1.0, 0.5, 0.5])),))
        with pytest.raises(ContractError):
            infer_label_from_bundle(bias_only)

    def test_digest_validated(self):
        spec = self._spec3()
        bad = GradientBundle(spec.digest ^ 1, 0, 0,
                             (("fc1.B", Tensor([-1.0, 0.5, 0.5])),))
        with pytest.raises(IncompatibilityError):
            label_from_gradient_sign(bad, spec)

    @pytest.mark.parametrize("alter", sorted(ALTERED_TENSORS))
    def test_bundle_tensors_must_match_the_spec(self, alter):
        # the digest fits, but the tensors are not the spec's parameters in
        # the spec's order; a reversed bundle would otherwise take 'conv1'
        # for the final layer
        spec, _, _, bundle = _victim_setup(5)
        altered = replace(bundle, tensors=ALTERED_TENSORS[alter](bundle.tensors))
        with pytest.raises(IncompatibilityError, match="bundle tensors .* order"):
            label_from_gradient_sign(altered, spec)


class TestAttackConfig:
    def test_checkpoints_validated(self):
        with pytest.raises(ContractError):
            AttackConfig(iterations=50, checkpoints=(20, 80))
        with pytest.raises(ContractError):
            AttackConfig(iterations=50, checkpoints=(30, 20))
        with pytest.raises(ContractError):
            AttackConfig(eta=0.0, iterations=10, checkpoints=(10,))
        with pytest.raises(ContractError):
            AttackConfig(optimizer="newton", iterations=10, checkpoints=(10,))

    def test_default_checkpoints_follow_the_iteration_budget(self):
        assert AttackConfig().checkpoints == (20, 40, 50, 80, 200)
        assert AttackConfig(iterations=50).checkpoints == (20, 40, 50)
        assert AttackConfig(iterations=30).checkpoints == (20, 30)
        assert AttackConfig(iterations=7).checkpoints == (7,)
        assert AttackConfig(iterations=300).checkpoints == (20, 40, 50, 80, 200, 300)

    def test_halve_on_increase_is_gd_only(self):
        # and so is the improved variant: gauss_newton rejects both settings
        for field, value in (("halve_on_increase", True), ("variant", "improved")):
            with pytest.raises(ContractError, match=field):
                AttackConfig(optimizer="gauss_newton", **{field: value})
            assert getattr(AttackConfig(optimizer="gd", **{field: value}), field) == value
        spec, params, _, bundle = _victim_setup(7)
        with pytest.raises(ContractError, match="improved"):
            improved_dlg(spec, params, bundle,
                         AttackConfig(iterations=2, optimizer="gauss_newton"))

    @pytest.mark.parametrize("field, value", [
        ("eta", float("nan")), ("eta", float("inf")), ("eta", float("-inf")),
        ("lambda_mean", float("nan")), ("lambda_mean", float("inf")),
    ])
    def test_non_finite_step_and_penalty_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            AttackConfig(**{field: value})


def _victim_setup(seed, h=12, w=12, m=2, label=0, kind="blocks"):
    from gradleak import synth_image

    spec = default_attack_spec(h, w, 1, m)
    params = build_model(spec, SeedRng(seed))
    x = synth_image(kind, w, h, 1, seed).to_tensor()
    bundle = victim_gradient(params, x, one_hot(label, m))
    return spec, params, x, bundle


class TestDlgAttack:
    def test_fixed_point_when_seeded_at_truth(self):
        spec, params, x, bundle = _victim_setup(1)
        sharp = np.array([12.0, -12.0])  # logits strongly matching label 0
        truth_bundle = victim_gradient(params, x, one_hot(0, 2))
        # victim target for the fixed point must equal softmax(sharp logits)
        matched = victim_gradient(params, x, Tensor(softmax_hp(sharp)))
        cfg = AttackConfig(eta=1.0, iterations=5, seed=0, checkpoints=(5,))
        init = VirtualSample(x, Tensor(sharp))
        sample, trace = dlg_attack(spec, params, matched, cfg, truth=x, init=init)
        assert trace.records[-1].distance <= 1e-20
        assert np.abs(sample.x_virtual.array - x.array).max() < 1e-8
        del truth_bundle

    def test_single_dense_layer_matches_analytic_answer(self):
        spec = ModelSpec((2, 2, 1), (Flatten(), Dense(out_dim=2, biased=True)))
        params = build_model(spec, SeedRng(21))
        x = _image(SeedRng(22), 2, 2)
        bundle = victim_gradient(params, x, one_hot(1, 2))
        analytic = fc_analytic_reconstruct(bundle.get("fc1.W"), bundle.get("fc1.B"))
        cfg = AttackConfig(eta=1.0, iterations=40, seed=5, checkpoints=(40,),
                           optimizer="gauss_newton")
        sample, _ = dlg_attack(spec, params, bundle, cfg)
        mse = float(np.mean((sample.x_virtual.array.ravel() - analytic.array) ** 2))
        assert mse < 1e-3
        assert sample.y_virtual == one_hot(1, 2)  # the sign-rule label
        assert np.allclose(analytic.array, x.array.ravel(), rtol=1e-10)

    def test_trajectory_is_deterministic(self):
        spec, params, x, bundle = _victim_setup(2)
        cfg = AttackConfig(eta=100.0, iterations=30, seed=9, checkpoints=(10, 20, 30))
        s1, t1 = dlg_attack(spec, params, bundle, cfg, truth=x)
        s2, t2 = dlg_attack(spec, params, bundle, cfg, truth=x)
        assert s1.x_virtual == s2.x_virtual
        assert s1.y_virtual == s2.y_virtual
        assert [r.distance for r in t1.records] == [r.distance for r in t2.records]
        assert [r.snapshot for r in t1.records] == [r.snapshot for r in t2.records]

    def test_distance_strictly_decreases_at_moderate_eta(self):
        spec, params, x, bundle = _victim_setup(3, h=16, w=16)
        cfg = AttackConfig(eta=1000.0, iterations=200, seed=1000003,
                           checkpoints=(20, 40, 50, 80, 200))
        _, trace = dlg_attack(spec, params, bundle, cfg, truth=x)
        ds = trace.distances()
        assert all(b < a for a, b in zip(ds, ds[1:]))
        assert all(d >= 0 for d in ds)

    def test_divergence_error_carries_trace(self):
        # start at a near-perfect match (tiny initial distance), then take a
        # huge step: the distance explodes past the guard on iteration 2
        spec, params, x, bundle = _victim_setup(4)
        sharp = np.array([15.0, -15.0])
        matched = victim_gradient(params, x, Tensor(softmax_hp(sharp)))
        noisy = Tensor(x.array + 0.01 * SeedRng(99).normal_array(x.shape))
        cfg = AttackConfig(eta=1e7, iterations=400, seed=3, checkpoints=(1, 2, 400))
        with pytest.raises(DivergenceError) as err:
            dlg_attack(spec, params, matched, cfg,
                       init=VirtualSample(noisy, Tensor(sharp)))
        assert err.value.trace is not None
        assert len(err.value.trace.records) >= 1

    def test_divergence_guard_checks_the_point_each_step_reaches(self):
        # one step at eta 1000 lands past the limit; the guard fires on that
        # step, also when it is the last one of the budget
        spec = parse_model_text("input h=4 w=4 c=1\nflatten\ndense out=2 bias=yes\n")
        params = build_model(spec, SeedRng(3))
        bundle = victim_gradient(params, synth_image("blocks", 4, 4, 1, 3).to_tensor(),
                                 one_hot(1, 2))
        for iterations in (1, 2):
            cfg = AttackConfig(eta=1000.0, iterations=iterations, seed=4)
            with pytest.raises(DivergenceError, match="at iteration 1$") as err:
                dlg_attack(spec, params, bundle, cfg)
            assert err.value.trace.records == ()

    def test_digest_mismatch_rejected(self):
        spec, params, x, bundle = _victim_setup(5)
        other_spec = default_attack_spec(12, 12, 1, 3)
        other_params = build_model(other_spec, SeedRng(5))
        cfg = AttackConfig(iterations=5, checkpoints=(5,))
        with pytest.raises(IncompatibilityError):
            dlg_attack(other_spec, other_params, bundle, cfg)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("alter", sorted(ALTERED_TENSORS))
    def test_bundle_tensors_must_match_the_parameters(self, optimizer, alter):
        # the digest fits, but one tensor is renamed, missing or reshaped, or
        # the tensors come in another order than the model's parameters
        spec, params, _, bundle = _victim_setup(5)
        altered = replace(bundle, tensors=ALTERED_TENSORS[alter](bundle.tensors))
        cfg = AttackConfig(iterations=2, checkpoints=(2,), optimizer=optimizer)
        with pytest.raises(IncompatibilityError, match="bundle tensors"):
            dlg_attack(spec, params, altered, cfg)

    def test_halve_on_increase_tames_a_hot_step_size(self):
        spec, params, x, bundle = _victim_setup(6)
        cfg = AttackConfig(eta=1e7, iterations=40, seed=3, checkpoints=(40,),
                           halve_on_increase=True)
        _, trace = dlg_attack(spec, params, bundle, cfg, truth=x)
        assert trace.records[-1].step_events > 0
        assert np.isfinite(trace.records[-1].distance)

    def test_returned_sample_is_clamped(self):
        spec, params, x, bundle = _victim_setup(7)
        cfg = AttackConfig(eta=1.0, iterations=3, seed=11, checkpoints=(3,))
        clamped, trace = dlg_attack(spec, params, bundle, cfg)
        arr = clamped.x_virtual.array
        assert arr.min() >= 0.0 and arr.max() <= 1.0
        raw = trace.records[-1].snapshot.array
        assert raw.min() < 0.0  # N(0,1) init barely moved
        assert np.array_equal(arr, np.clip(raw, 0.0, 1.0))

    def test_gauss_newton_reconstructs_to_pixel_accuracy(self):
        spec, params, x, bundle = _victim_setup(8)
        cfg = AttackConfig(eta=1.0, iterations=40, seed=1000003, checkpoints=(20, 40),
                           optimizer="gauss_newton")
        sample, trace = dlg_attack(spec, params, bundle, cfg, truth=x)
        assert trace.records[-1].mse_255 < 1.0
        assert int(np.argmax(sample.y_virtual.array)) == 0
        assert sample.y_virtual == one_hot(infer_label_from_bundle(bundle), 2)

    def test_gauss_newton_ignores_the_initial_logits(self):
        spec, params, x, bundle = _victim_setup(13)
        cfg = AttackConfig(iterations=20, checkpoints=(5, 10, 20), optimizer="gauss_newton")
        start = Tensor(SeedRng(14).normal_array(spec.input_shape))
        (s1, t1), (s2, t2) = [dlg_attack(spec, params, bundle, cfg, truth=x,
                                         init=VirtualSample(start, Tensor(logits)))
                              for logits in ([0.0, 0.0], [-30.0, 7.5])]
        assert s1 == s2
        assert t1.distances() == t2.distances()
        assert [r.snapshot for r in t1.records] == [r.snapshot for r in t2.records]


class _CountedOperand(np.ndarray):
    """An array view that counts the ufunc calls (matmul included) it enters."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        type(self).calls += 1
        inputs = tuple(np.asarray(a) if isinstance(a, _CountedOperand) else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def _gn_stepper(params, bundle, cfg, x):
    return _GaussNewtonStepper(params, infer_label_from_bundle(bundle), cfg, bundle, x)


def test_gauss_newton_rows_are_victim_gradients_minus_the_capture():
    # the demo spec, image and label; the residual plan is the victim's, so
    # its rows at [truth, seeded start] are bit for bit the victim gradients
    # there, at the sign-rule label, minus the captured bundle
    spec, params, x, bundle = _victim_setup(7, h=16, w=16, label=1)
    start = SeedRng(7 + 1000003).normal_array(spec.input_shape)
    stepper = _gn_stepper(params, bundle, AttackConfig(optimizer="gauss_newton"), start)
    rows = stepper._rows(np.stack([x.array.ravel(), start.ravel()]))
    target = one_hot(infer_label_from_bundle(bundle), spec.classes)
    capture = np.concatenate([t.array.ravel() for _, t in bundle.tensors])
    assert rows.shape == (2, capture.size)
    for row, point in zip(rows, (x, Tensor(start))):
        victim = victim_gradient(params, point, target)
        assert np.array_equal(row, np.concatenate([t.array.ravel() for _, t in victim.tensors])
                              - capture)
    assert not rows[0].any()


def test_one_gd_plan_serves_any_capture():
    # the gd graph is built and compiled once, from the model alone; each
    # capture bound as "T:<name>" gives its own distance at the same point
    spec, params, _, first = _victim_setup(5)
    second = victim_gradient(params, _image(SeedRng(6), 12, 12), one_hot(1, 2))
    ag = _build_attack_graph(params, AttackConfig())
    meta = meta_grad(ag.graph, wrt=(ag.x, ag.y), of=ag.objective)
    run = ag.graph.evaluator([ag.distance, meta[ag.x], meta[ag.y]])
    rng = SeedRng(7)
    x, y = rng.normal_array(spec.input_shape), rng.normal_array((spec.classes,))
    at_point = victim_gradient(params, Tensor(x), Tensor(softmax_hp(y)))
    bindings = {name: t.array for name, t in params.flat()}
    bindings.update(x=x, y=y)
    for capture in (first, second):
        bindings.update((f"T:{name}", t.array) for name, t in capture.tensors)
        got = float(run(bindings)[0])
        want = sum(float(((ta.array - tb.array) ** 2).sum())
                   for (_, ta), (_, tb) in zip(at_point.tensors, capture.tensors))
        assert abs(got - want) <= 1e-9 * want
    captured = {t.array.tobytes() for b in (first, second) for _, t in b.tensors}
    consts = [n for n in range(len(ag.graph)) if ag.graph.op_of(n) == "const"]
    assert not [n for n in consts if ag.graph.node(n).payload.tobytes() in captured]


class TestGaussNewtonJacobian:
    def test_blocked_jacobian_matches_column_loop(self):
        # the demo spec, image and label, at the demo's seeded starting image
        spec, params, _, bundle = _victim_setup(7, h=16, w=16, label=1)
        cfg = AttackConfig(optimizer="gauss_newton")
        x = SeedRng(7 + 1000003).normal_array(spec.input_shape)
        stepper = _gn_stepper(params, bundle, cfg, x)
        z = x.ravel()
        r = stepper._rows(z[None])[0]

        want = np.empty((r.size, z.size))
        for i in range(z.size):
            zp = z.copy()
            zp[i] += _GN_FD_STEP
            want[:, i] = (stepper._rows(zp[None])[0] - r) / _GN_FD_STEP

        got = stepper._jacobian_t(z, r)
        assert got.shape == want.T.shape
        # pixel columns only: the largest entry is about 1.3e-4, so the bound
        # below sits four orders under it
        assert np.abs(want).max() > 1e-4
        assert np.abs(got - want.T).max() <= 1e-8

        # the blocks are written in place with the bits of (rows - r) / step
        blocks = []
        for s in range(0, z.size, _GN_JAC_BLOCK):
            idx = np.arange(min(_GN_JAC_BLOCK, z.size - s))
            zp = np.repeat(z[None, :], idx.size, axis=0)
            zp[idx, s + idx] += _GN_FD_STEP
            blocks.append((stepper._rows(zp) - r) / _GN_FD_STEP)
        assert np.concatenate(blocks).tobytes() == got.tobytes()

    @staticmethod
    def _demo_stepper():
        # the demo spec, image and label, at the demo's seeded starting image
        spec, params, _, bundle = _victim_setup(7, h=16, w=16, label=1)
        cfg = AttackConfig(optimizer="gauss_newton")
        x = SeedRng(7 + 1000003).normal_array(spec.input_shape)
        return _gn_stepper(params, bundle, cfg, x)

    @staticmethod
    def _jacobian_in_use(stepper):
        # the stepper's factored Jacobian, transposed: jt0 + sum_k s_k u_k^T
        jt = stepper._jt0.copy()
        for s, u in stepper._pairs:
            jt += np.outer(s, u)
        return jt

    def test_rank_two_update_keeps_the_gram_matrix(self):
        stepper = self._demo_stepper()
        seen = set()
        for _ in range(_GN_BROYDEN_REFRESH):
            stepper.step()
            if stepper._pairs:
                seen.add(len(stepper._pairs))
                jt = self._jacobian_in_use(stepper)
                want = jt @ jt.T
                assert np.abs(stepper._gram - want).max() <= 1e-12 * np.abs(want).max()
        assert seen == set(range(1, _GN_BROYDEN_REFRESH + 1))

    def test_factored_update_matches_the_explicit_broyden_update(self):
        # every secant update of a demo-seed run against jt and gram updated
        # as whole matrices, starting from the stepper's own forward-difference
        # Jacobian; jr is jt r at the point the step reached
        stepper = self._demo_stepper()
        jt = gram = None
        for k in range(1, _GN_BROYDEN_REFRESH + 1):
            r = stepper._r
            stepper.step()
            assert len(stepper._pairs) == k
            if jt is None:
                jt0 = stepper._jt0.copy()
                jt, gram = jt0, jt0 @ jt0.T
            jt, gram = explicit_broyden_update(jt, gram, stepper._pairs[-1][0], stepper._r - r)
            for got, want in ((self._jacobian_in_use(stepper), jt), (stepper._gram, gram),
                              (stepper._jr, jt @ stepper._r)):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(stepper._jt0, jt0)

    def test_accepted_step_reads_the_stored_jacobian_twice_and_never_writes_it(self):
        stepper = self._demo_stepper()
        jacobian = stepper._jacobian_t

        def read_only_jacobian(z, r):
            jt = jacobian(z, r)
            jt.flags.writeable = False
            return jt.view(_CountedOperand)

        stepper._jacobian_t = read_only_jacobian
        reads = []
        for _ in range(_GN_BROYDEN_REFRESH + 2):
            _CountedOperand.calls = 0
            stepper.step()
            reads.append((_CountedOperand.calls, len(stepper._pairs), stepper._jt0 is None))
        # a refresh reads jt0 twice (gram and jr), each secant update twice; the
        # step after the 8th update uses the Jacobian, drops it and reads nothing
        assert reads == ([(4, 1, False)] + [(2, k, False) for k in range(2, 9)]
                         + [(0, 8, True), (4, 1, False)])

    def test_refresh_after_eight_updates_and_after_a_rejected_secant_step(self):
        stepper = self._demo_stepper()
        for _ in range(_GN_BROYDEN_REFRESH + 1):
            stepper.step()
        assert stepper._jt0 is None  # the 8-update Jacobian served its last step
        z, r = stepper._z, stepper._r
        stepper.step()
        assert np.array_equal(stepper._jt0, stepper._jacobian_t(z, r))
        assert len(stepper._pairs) == 1

        # a trial from the 3-update Jacobian is rejected (its residual is
        # pushed up); the retry is from a fresh jt0 at the same mu, no event
        stepper = self._demo_stepper()
        for _ in range(3):
            stepper.step()
        residual, trials = stepper._residual, []

        def pushed_first_trial(zs):
            grads = residual(zs)
            if len(zs) == 1:
                trials.append((stepper._mu, len(stepper._pairs), stepper._jt0))
                if len(trials) == 1:
                    grads = [g + 1.0 for g in grads]
            return grads

        stepper._residual = pushed_first_trial
        z, r, events = stepper._z, stepper._r, stepper.step_events
        stepper.step()
        (mu, pairs, _), (retry_mu, retry_pairs, retry_jt0) = trials
        assert (pairs, retry_pairs, retry_mu) == (3, 0, mu)
        assert np.array_equal(retry_jt0, stepper._jacobian_t(z, r))
        assert stepper.step_events == events
        assert len(stepper._pairs) == 1

    def test_demo_seed_plain_broyden_breaks_converges(self, tmp_path, capsys):
        # with free label logits, plain Broyden let the pixels absorb the
        # label misfit on this seed and its checkpoint MSE rose; with the
        # label fixed by the sign rule it must converge monotonically
        assert cli_main(["demo", "--seed", "7919004", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert "monotone_mse: true" in report
        assert "converged: true" in report

    def test_frozen_stepper_holds_its_point_without_evaluating(self):
        # the bundle is the gradient at the virtual image itself, under the
        # label the sign rule reads back from it, so the stepper starts at or
        # below the freeze threshold
        spec, params, _, _ = _victim_setup(7, h=16, w=16, label=1)
        x = SeedRng(11).normal_array(spec.input_shape)
        bundle = victim_gradient(params, Tensor(x), one_hot(1, spec.classes))
        cfg = AttackConfig(optimizer="gauss_newton")
        stepper = _gn_stepper(params, bundle, cfg, x)
        dist, hx = stepper.distance, stepper.x
        assert dist <= _GN_FREEZE_DISTANCE
        assert np.array_equal(hx, x)

        def no_eval(bindings):
            raise AssertionError("a frozen stepper evaluated the residual plan")

        stepper._eval = no_eval
        for _ in range(3):
            stepper.step()
            assert stepper.distance == dist and stepper.x is hx

    def test_point_no_damping_moves_is_held(self):
        # no image the stepper reaches gives the mean of two clients'
        # gradients (both labelled 1) to within the freeze threshold: the
        # distance stays at about 5.6e-11 and the step of iteration 43
        # rejects all its dampings, so from then on the point is held
        spec = default_attack_spec(12, 12, 1, 2)
        params = build_model(spec, SeedRng(13))
        bundle = aggregate([
            victim_gradient(params, synth_image("blocks", 12, 12, 1, s).to_tensor(),
                            one_hot(1, 2))
            for s in (23, 24)
        ])
        cfg = AttackConfig(iterations=60, seed=3, checkpoints=(1, 45, 50, 60),
                           optimizer="gauss_newton")
        _, trace = dlg_attack(spec, params, bundle, cfg)
        held = trace.records[1:]
        assert len({r.distance for r in held}) == 1
        assert held[0].distance > _GN_FREEZE_DISTANCE
        assert [r.step_events for r in held] == [held[0].step_events] * 3


class _SteppedWhileHeld(_GaussNewtonStepper):
    """Never reports itself held, so the attack loop steps it at every
    iteration, as the loop did before it stopped at a held point; each step
    of a held point still returns at once."""

    held = False


def _held_case(case):
    """(spec, params, bundle, cfg, truth) of criterion-6 run 0, which freezes,
    or of `test_point_no_damping_moves_is_held`, with its first client's image
    as the truth so that a report is written."""
    if case == "criterion_6_run_0":
        spec = default_attack_spec(16, 16, 1, 2)
        params = build_model(spec, SeedRng(0))
        truth = synth_image("blocks", 16, 16, 1, 0).to_tensor()
        bundle = victim_gradient(params, truth, one_hot(0, 2))
        cfg = AttackConfig(eta=1.0, iterations=200, seed=1000003,
                           checkpoints=(20, 40, 50, 80, 200), optimizer="gauss_newton")
        return spec, params, bundle, cfg, truth
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(13))
    images = [synth_image("blocks", 12, 12, 1, s).to_tensor() for s in (23, 24)]
    bundle = aggregate([victim_gradient(params, x, one_hot(1, 2)) for x in images])
    cfg = AttackConfig(iterations=60, seed=3, checkpoints=(1, 45, 50, 60),
                       optimizer="gauss_newton")
    return spec, params, bundle, cfg, images[0]


@pytest.mark.parametrize("case", ["criterion_6_run_0", "no_damping_moves"])
def test_held_runs_stop_stepping_and_write_the_files_of_every_step(case, tmp_path,
                                                                   monkeypatch):
    spec, params, bundle, cfg, truth = _held_case(case)
    steps = []
    step = _GaussNewtonStepper.step

    def counted_step(self):
        steps.append(self.held)
        step(self)

    monkeypatch.setattr(_GaussNewtonStepper, "step", counted_step)
    cli._run_attack_once(spec, params, bundle, cfg, truth, tmp_path / "held")
    held_steps = len(steps)
    monkeypatch.setattr(gradleak.attack, "_GaussNewtonStepper", _SteppedWhileHeld)
    cli._run_attack_once(spec, params, bundle, cfg, truth, tmp_path / "stepped")
    assert held_steps < cfg.iterations and not any(steps[:held_steps])
    assert len(steps) == held_steps + cfg.iterations
    names = sorted(p.name for p in (tmp_path / "held").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "stepped").iterdir())
    assert {"trace.tsv", "report.txt"} <= set(names)
    for name in names:
        assert (tmp_path / "held" / name).read_bytes() == (tmp_path / "stepped" / name).read_bytes()


class TestImprovedVariant:
    def test_lambda_zero_reduces_to_baseline_bit_for_bit(self):
        spec, params, x, bundle = _victim_setup(9)
        base_cfg = AttackConfig(eta=200.0, iterations=25, seed=4, checkpoints=(5, 15, 25))
        imp_cfg = AttackConfig(eta=200.0, iterations=25, seed=4, checkpoints=(5, 15, 25),
                               variant="improved", lambda_mean=0.0)
        s1, t1 = dlg_attack(spec, params, bundle, base_cfg, truth=x)
        s2, t2 = improved_dlg(spec, params, bundle, imp_cfg, truth=x)
        assert s1.x_virtual == s2.x_virtual
        assert s1.y_virtual == s2.y_virtual
        assert [r.distance for r in t1.records] == [r.distance for r in t2.records]
        assert [r.snapshot for r in t1.records] == [r.snapshot for r in t2.records]

    def test_constant_image_has_zero_penalty_and_gradient(self):
        g = ExprGraph()
        x = g.variable("x", (4, 4, 1))
        pen = mean_anchor_penalty(g, x, 0.05)
        gm = grad(g, [x], of=pen)
        val, gval = g.eval({"x": np.full((4, 4, 1), 0.73)}, [pen, gm[x]])
        assert val.item() == 0.0
        assert np.abs(gval.array).max() == 0.0

    def test_penalty_value_matches_direct_formula(self):
        rng = SeedRng(77)
        arr = np.array([rng.uniform() for _ in range(16)]).reshape(4, 4, 1)
        lam = 0.01
        g = ExprGraph()
        x = g.variable("x", (4, 4, 1))
        got = g.eval({"x": arr}, [mean_anchor_penalty(g, x, lam)])[0].item()
        want = lam * np.mean((arr - arr.mean()) ** 2)
        assert abs(got - want) < 1e-15

    def test_improved_beats_baseline_on_light_background(self):
        from gradleak import synth_image

        spec = default_attack_spec(16, 16, 1, 2)
        wins = 0
        for run in range(5):
            params = build_model(spec, SeedRng(400 + run))
            x = synth_image("light-background", 16, 16, 1, 500 + run).to_tensor()
            bundle = victim_gradient(params, x, one_hot(run % 2, 2))
            base = AttackConfig(eta=1000.0, iterations=150, seed=run, checkpoints=(150,))
            imp = AttackConfig(eta=1000.0, iterations=150, seed=run, checkpoints=(150,),
                               variant="improved", lambda_mean=0.01)
            _, tb = dlg_attack(spec, params, bundle, base, truth=x)
            _, ti = improved_dlg(spec, params, bundle, imp, truth=x)
            wins += ti.records[-1].mse_255 <= tb.records[-1].mse_255
        assert wins >= 4

    def test_variant_mismatch_rejected(self):
        spec, params, x, bundle = _victim_setup(10)
        cfg = AttackConfig(iterations=5, checkpoints=(5,), variant="improved")
        with pytest.raises(ContractError):
            dlg_attack(spec, params, bundle, cfg)


# Padding wider than kernel - 1 is the one geometry whose backward
# correlations crop (a negative margin): conv2's input gradient (k=1, pad=1)
# in the victim gradient, and conv1's (k=3, pad=3) as well once the attack
# differentiates w.r.t. the image.
WIDE_PAD_SPEC = ModelSpec((6, 6, 1), (
    Conv(kernel=3, out_channels=2, padding=3), Activation("sigmoid"),
    Conv(kernel=1, out_channels=2, padding=1), Activation("sigmoid"),
    Pool(window=2, stride=2), Flatten(), Dense(out_dim=2),
))


def _wide_pad_victim():
    params = build_model(WIDE_PAD_SPEC, SeedRng(11))
    x = _image(SeedRng(12), 6, 6)
    return params, x, victim_gradient(params, x, one_hot(1, 2))


def test_wide_padding_victim_gradient_matches_central_differences():
    params, x, bundle = _wide_pad_victim()
    lg = forward_loss(params)
    run = lg.graph.evaluator([lg.loss])
    for name, got in bundle.tensors:
        want = fd_gradient(run, loss_bindings(params, x, one_hot(1, 2)), name)
        worst = max(rel_err(a, b, 1e-6) for a, b in zip(got.array.ravel(), want.ravel()))
        assert worst < 1e-5, f"{name}: worst relative error {worst}"


def test_wide_padding_meta_gradient_matches_central_differences():
    params, _, bundle = _wide_pad_victim()
    ag = _build_attack_graph(params, AttackConfig())
    meta = meta_grad(ag.graph, wrt=(ag.x, ag.y), of=ag.objective)
    rng = SeedRng(13)
    bindings = {name: t.array for name, t in params.flat()}
    bindings.update((f"T:{name}", t.array) for name, t in bundle.tensors)
    bindings["x"] = rng.normal_array(WIDE_PAD_SPEC.input_shape)
    bindings["y"] = rng.normal_array((2,))
    got = ag.graph.evaluator([meta[ag.x], meta[ag.y]])(bindings)
    run = ag.graph.evaluator([ag.objective])
    for name, analytic in zip(("x", "y"), got):
        want = fd_gradient(run, dict(bindings), name)
        worst = max(rel_err(a, b, 1e-6) for a, b in zip(analytic.ravel(), want.ravel()))
        assert worst < 1e-4, f"{name}: worst relative error {worst}"  # criterion 3's bound


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_wide_padding_attack_runs_end_to_end(optimizer):
    params, x, bundle = _wide_pad_victim()
    cfg = AttackConfig(eta=0.5, iterations=20, checkpoints=(1, 20), seed=3, optimizer=optimizer)
    sample, trace = dlg_attack(WIDE_PAD_SPEC, params, bundle, cfg, truth=x)
    first, last = trace.distances()
    assert np.isfinite(sample.x_virtual.array).all()
    assert 0.0 <= last < first
