"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Scenario pins (chosen once, fixed here): the end-to-end reconstruction
criteria run the damped least-squares update (optimizer="gauss_newton"),
which reaches pixel-level reconstructions within the checkpoint grid; the
label-recovery and variant-comparison criteria run the plain fixed-step
loop, whose step size is pinned per scenario below.
"""

import time
import zlib

import numpy as np

from gradleak import (
    AttackConfig,
    ExprGraph,
    GradientBundle,
    ParseError,
    SeedRng,
    Tensor,
    build_model,
    conv2d,
    decode_image,
    default_attack_spec,
    deserialize_bundle,
    dlg_attack,
    encode_image,
    fc_analytic_reconstruct,
    forward_loss,
    grad,
    improved_dlg,
    label_from_gradient_sign,
    loss_bindings,
    meta_grad,
    one_hot,
    serialize_bundle,
    synth_image,
    victim_gradient,
)
from gradleak.attack import _build_attack_graph
from gradleak.cli import cli_main
from gradleak.models import Activation, Conv, Dense, Flatten, ModelSpec
from gradleak.netpbm import ImageBuffer
from oracles import rel_err

# pinned step sizes, one per scenario
ETA_LSQ = 1.0        # gauss_newton scenarios (criteria 6, 10)
ETA_LABEL = 1.0      # criterion 7, plain descent on 12x12
ETA_VARIANT = 1000.0  # criterion 8, plain descent on 16x16
LAMBDA_VARIANT = 0.01
CHECKPOINTS = (20, 40, 50, 80, 200)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{state}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _uniform(rng, shape, lo=-1.0, hi=1.0):
    span = hi - lo
    return np.array(
        [lo + span * rng.uniform() for _ in range(int(np.prod(shape)))]
    ).reshape(shape)


def test_criterion_01_analytic_reconstruction_exactness():
    start = time.perf_counter()
    worst = 0.0
    rng = SeedRng(101)
    for trial in range(100):
        m = 1 + int(rng.uniform() * 32)
        n = 1 + int(rng.uniform() * 32)
        g = ExprGraph()
        w = g.variable("w", (m, n))
        b = g.variable("b", (m,))
        x = _uniform(rng, (n,))
        mix = g.constant(_uniform(rng, (m,), 0.2, 1.0))
        loss = g.sum_all(g.mul(mix, g.sigmoid(g.affine(w, g.constant(x), b))))
        gm = grad(g, [w, b], of=loss)
        bindings = {"w": _uniform(rng, (m, n)), "b": _uniform(rng, (m,))}
        gw, gb = g.evaluator([gm[w], gm[b]])(bindings)
        recovered = fc_analytic_reconstruct(gw, gb).array
        err = np.abs(recovered - x).max() / max(np.abs(x).max(), 1e-12)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(1, "analytic dense-layer inversion, 100 instances",
            worst < 1e-10 and elapsed < 1.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def _primitive_scenarios():
    """name -> (variable specs, graph builder). Inputs are drawn away from
    the relu kink by construction."""
    return {
        "add": ({"a": (4,), "b": (4,)}, lambda g, v: g.add(v["a"], v["b"])),
        "sub": ({"a": (4,), "b": (4,)}, lambda g, v: g.sub(v["a"], v["b"])),
        "mul": ({"a": (4,), "b": (4,)}, lambda g, v: g.mul(v["a"], v["b"])),
        "neg": ({"a": (4,)}, lambda g, v: g.neg(v["a"])),
        "scale": ({"a": (4,)}, lambda g, v: g.scale(v["a"], -1.7)),
        "exp": ({"a": (4,)}, lambda g, v: g.exp(v["a"])),
        "sigmoid": ({"a": (4,)}, lambda g, v: g.sigmoid(v["a"])),
        "relu": ({"a": (4,)}, lambda g, v: g.relu(g.add(v["a"], g.constant(np.full(4, 3.0))))),
        "step": ({"a": (4,)},
                 lambda g, v: g.mul(v["a"], g.step(g.add(v["a"], g.constant(np.full(4, 3.0)))))),
        "sum_all": ({"a": (3, 2)}, lambda g, v: g.sum_all(v["a"])),
        "fill": ({"a": ()}, lambda g, v: g.fill(v["a"], (5,))),
        "reshape": ({"a": (2, 3)}, lambda g, v: g.reshape(v["a"], (6,))),
        "matvec": ({"w": (3, 4), "x": (4,)}, lambda g, v: g.matvec(v["w"], v["x"])),
        "matvec_t": ({"w": (3, 4), "y": (3,)}, lambda g, v: g.matvec_t(v["w"], v["y"])),
        "outer": ({"u": (3,), "v": (4,)}, lambda g, v: g.outer(v["u"], v["v"])),
        "corr2d": ({"x": (5, 5, 2), "k": (3, 3, 2, 2)},
                   lambda g, v: g.corr2d(v["x"], v["k"])),
        "corr2d margin 2": ({"x": (3, 3, 2), "k": (3, 3, 2, 2)},
                            lambda g, v: g.corr2d(v["x"], v["k"], 2)),
        "corr2d margin -1": ({"x": (7, 7, 2), "k": (3, 3, 2, 2)},
                             lambda g, v: g.corr2d(v["x"], v["k"], -1)),
        "kgrad_corr": ({"x": (5, 5, 2), "d": (3, 3, 3)},
                       lambda g, v: g.kgrad_corr(v["x"], v["d"])),
        "kgrad_corr margin 1": ({"x": (3, 3, 2), "d": (3, 3, 3)},
                                lambda g, v: g.kgrad_corr(v["x"], v["d"], 1)),
        "rotswap": ({"k": (3, 3, 2, 2)}, lambda g, v: g.rotswap(v["k"])),
        "sslice2d": ({"a": (5, 5, 2)}, lambda g, v: g.sslice2d(v["a"], 2)),
        "dilate2d": ({"a": (3, 3, 2)}, lambda g, v: g.dilate2d(v["a"], 2, 6, 6)),
        "avg_pool2d": ({"a": (6, 6, 2)}, lambda g, v: g.avg_pool2d(v["a"], 2, 2)),
        "avg_unpool2d": ({"a": (3, 3, 2)}, lambda g, v: g.avg_unpool2d(v["a"], 2, 2, 6, 6)),
        "log_softmax": ({"a": (5,)}, lambda g, v: g.log_softmax(v["a"])),
        "softmax": ({"a": (5,)}, lambda g, v: g.softmax(v["a"])),
        "cross_entropy_logits": ({"a": (4,), "b": (4,)},
                                 lambda g, v: g.cross_entropy_logits(v["a"], g.softmax(v["b"]))),
        "sq_diff_sum": ({"a": (4,), "b": (4,)}, lambda g, v: g.sq_diff_sum(v["a"], v["b"])),
    }


def test_criterion_02_first_order_gradients():
    start = time.perf_counter()
    h = 1e-5
    worst_overall = 0.0
    worst_name = ""
    for name, (var_shapes, build) in _primitive_scenarios().items():
        rng = SeedRng(0xF00D ^ zlib.crc32(name.encode()) & 0xFFFF)
        g = ExprGraph()
        nodes = {vn: g.variable(vn, shape) for vn, shape in var_shapes.items()}
        out = build(g, nodes)
        if g.shape_of(out) != ():
            proj = g.constant(_uniform(rng, g.shape_of(out)))
            out = g.sum_all(g.mul(out, proj))
        gm = grad(g, nodes.values(), of=out)
        run_out = g.evaluator([out])
        run_grads = g.evaluator([gm[nodes[vn]] for vn in var_shapes])
        var_names = list(var_shapes)
        for _ in range(100):
            bindings = {vn: _uniform(rng, shape) for vn, shape in var_shapes.items()}
            analytic = run_grads(bindings)
            vi = int(rng.uniform() * len(var_names))
            vn = var_names[vi]
            size = int(np.prod(var_shapes[vn])) or 1
            ci = int(rng.uniform() * size)
            base = bindings[vn]
            plus = base.copy()
            plus.ravel()[ci] += h
            minus = base.copy()
            minus.ravel()[ci] -= h
            bindings[vn] = plus
            fp = float(run_out(bindings)[0])
            bindings[vn] = minus
            fm = float(run_out(bindings)[0])
            bindings[vn] = base
            fd = (fp - fm) / (2 * h)
            err = rel_err(float(analytic[vi].ravel()[ci]), fd)
            if err > worst_overall:
                worst_overall, worst_name = err, f"{name}.{vn}[{ci}]"
        assert worst_overall < 1e-5, f"{worst_name}: {worst_overall}"

    # forward_loss on the default spec, probed across input and parameters
    spec = default_attack_spec(16, 16, 1, 2)
    params = build_model(spec, SeedRng(202))
    rng = SeedRng(203)
    x = Tensor(_uniform(rng, (16, 16, 1), 0.0, 1.0))
    lg = forward_loss(params)
    gm = grad(lg.graph, [lg.x, *lg.param_nodes.values()], of=lg.loss)
    names = ["x"] + list(lg.param_nodes)
    nodes = {"x": lg.x, **lg.param_nodes}
    run_loss = lg.graph.evaluator([lg.loss])
    run_grads = lg.graph.evaluator([gm[nodes[n]] for n in names])
    bindings = loss_bindings(params, x, one_hot(1, 2))
    analytic = run_grads(bindings)
    for _ in range(100):
        vi = int(rng.uniform() * len(names))
        vn = names[vi]
        base = bindings[vn]
        size = base.size
        ci = int(rng.uniform() * size)
        plus = base.copy()
        plus.ravel()[ci] += h
        minus = base.copy()
        minus.ravel()[ci] -= h
        bindings[vn] = plus
        fp = float(run_loss(bindings)[0])
        bindings[vn] = minus
        fm = float(run_loss(bindings)[0])
        bindings[vn] = base
        fd = (fp - fm) / (2 * h)
        err = rel_err(float(analytic[vi].ravel()[ci]), fd)
        if err > worst_overall:
            worst_overall, worst_name = err, f"forward_loss.{vn}[{ci}]"
    elapsed = time.perf_counter() - start
    _report(2, "reverse-mode gradients vs central differences",
            worst_overall < 1e-5 and elapsed < 30.0,
            f"worst rel err {worst_overall:.2e} at {worst_name}, {elapsed:.1f}s")


def _meta_grad_fd_check(spec, seed):
    params = build_model(spec, SeedRng(seed))
    rng = SeedRng(seed + 1)
    x = Tensor(_uniform(rng, spec.input_shape, 0.0, 1.0))
    bundle = victim_gradient(params, x, one_hot(0, spec.classes))
    cfg = AttackConfig(eta=1.0, iterations=1, checkpoints=(1,))
    ag = _build_attack_graph(params, cfg)
    meta = meta_grad(ag.graph, wrt=(ag.x, ag.y), of=ag.objective)
    bindings = {name: t.array for name, t in params.flat()}
    bindings.update((f"T:{name}", t.array) for name, t in bundle.tensors)
    bindings["x"] = SeedRng(seed + 2).normal_array(spec.input_shape)
    bindings["y"] = SeedRng(seed + 3).normal_array((spec.classes,))
    run_dist = ag.graph.evaluator([ag.objective])
    gx, gy = ag.graph.evaluator([meta[ag.x], meta[ag.y]])(bindings)

    worst = 0.0
    h = 1e-5
    for vn, analytic in (("x", gx), ("y", gy)):
        base = bindings[vn]
        for ci in range(base.size):
            plus = base.copy()
            plus.ravel()[ci] += h
            minus = base.copy()
            minus.ravel()[ci] -= h
            bindings[vn] = plus
            fp = float(run_dist(bindings)[0])
            bindings[vn] = minus
            fm = float(run_dist(bindings)[0])
            bindings[vn] = base
            fd = (fp - fm) / (2 * h)
            worst = max(worst, rel_err(float(analytic.ravel()[ci]), fd))
    return worst


def test_criterion_03_meta_gradient_correctness():
    start = time.perf_counter()
    mlp = ModelSpec(
        (1, 2, 1),
        (Flatten(), Dense(out_dim=3, biased=True), Activation("sigmoid"),
         Dense(out_dim=2, biased=True)),
    )
    worst_mlp = _meta_grad_fd_check(mlp, 301)
    cnn = default_attack_spec(12, 12, 1, 2)
    worst_cnn = _meta_grad_fd_check(cnn, 311)
    elapsed = time.perf_counter() - start
    ok = worst_mlp < 1e-4 and worst_cnn < 1e-4 and elapsed < 60.0
    _report(3, "meta-gradients vs central differences of the distance",
            ok, f"mlp {worst_mlp:.2e}, cnn {worst_cnn:.2e}, {elapsed:.1f}s")


def test_criterion_04_flip_convolution_grid():
    grid = Tensor(
        [[1, 1, 1, 1, 1], [-1, 0, -3, 0, 1], [2, 1, 1, -1, 0],
         [0, -1, 1, 2, 1], [1, 2, 1, 1, 1]],
        shape=(5, 5, 1),
    )
    kernel = Tensor([[1, 0, 0], [0, 0, 0], [0, 0, -1]], shape=(3, 3, 1, 1))
    got = conv2d(grid, kernel, stride=1, zero_padding=0, flip=True).array.reshape(3, 3)
    want = np.array([[0, -2, -1], [2, 2, 4], [-1, 0, 0]], dtype=float)
    _report(4, "flipped-kernel convolution reference grid",
            np.array_equal(got, want), f"got {got.tolist()}")


def test_criterion_05_shared_parameter_count():
    spec = ModelSpec(
        (8, 8, 3),
        (Conv(kernel=5, out_channels=10), Flatten(), Dense(out_dim=2, biased=False)),
    )
    params = build_model(spec, SeedRng(5))
    count = params.weights["conv1"]["W"].size
    _report(5, "10 shared 5x5x3 kernels hold exactly 750 weights",
            count == 750, f"got {count}")


def test_criterion_06_end_to_end_convergence():
    start = time.perf_counter()
    monotone_runs = 0
    converged_runs = 0
    finals = []
    for run in range(10):
        spec = default_attack_spec(16, 16, 1, 2)
        params = build_model(spec, SeedRng(run))
        truth = synth_image("blocks", 16, 16, 1, run).to_tensor()
        bundle = victim_gradient(params, truth, one_hot(run % 2, 2))
        cfg = AttackConfig(eta=ETA_LSQ, iterations=200, seed=1000003 + run,
                           checkpoints=CHECKPOINTS, optimizer="gauss_newton")
        _, trace = dlg_attack(spec, params, bundle, cfg, truth=truth)
        mses = [r.mse_255 for r in trace.records]
        monotone_runs += all(b <= a for a, b in zip(mses, mses[1:]))
        converged_runs += mses[-1] <= 5.0
        finals.append(mses[-1])
    elapsed = time.perf_counter() - start
    ok = monotone_runs >= 8 and converged_runs >= 8 and elapsed < 600.0
    _report(6, "checkpointed reconstruction MSE on 10 seeded 16x16 images",
            ok,
            f"monotone {monotone_runs}/10, final<=5 {converged_runs}/10, "
            f"median final {np.median(finals):.2e}, {elapsed:.0f}s")


def test_criterion_07_label_recovery():
    spec = default_attack_spec(12, 12, 1, 2)
    sign_hits = 0
    argmax_hits = 0
    for run in range(50):
        params = build_model(spec, SeedRng(200 + run))
        truth = synth_image("blocks", 12, 12, 1, 300 + run).to_tensor()
        label = run % 2
        bundle = victim_gradient(params, truth, one_hot(label, 2))
        sign_hits += label_from_gradient_sign(bundle, spec) == label
        cfg = AttackConfig(eta=ETA_LABEL, iterations=120, seed=run, checkpoints=(120,))
        sample, _ = dlg_attack(spec, params, bundle, cfg)
        argmax_hits += int(np.argmax(sample.y_virtual.array)) == label
    ok = sign_hits == 50 and argmax_hits >= 45
    _report(7, "label recovery from gradient sign and from the attack",
            ok, f"sign {sign_hits}/50, argmax {argmax_hits}/50")


def test_criterion_08_improved_variant_direction():
    spec = default_attack_spec(16, 16, 1, 2)
    wins = 0
    for run in range(20):
        params = build_model(spec, SeedRng(400 + run))
        truth = synth_image("light-background", 16, 16, 1, 500 + run).to_tensor()
        bundle = victim_gradient(params, truth, one_hot(run % 2, 2))
        base_cfg = AttackConfig(eta=ETA_VARIANT, iterations=150, seed=run,
                                checkpoints=(150,))
        imp_cfg = AttackConfig(eta=ETA_VARIANT, iterations=150, seed=run,
                               checkpoints=(150,), variant="improved",
                               lambda_mean=LAMBDA_VARIANT)
        _, tb = dlg_attack(spec, params, bundle, base_cfg, truth=truth)
        _, ti = improved_dlg(spec, params, bundle, imp_cfg, truth=truth)
        wins += ti.records[-1].mse_255 <= tb.records[-1].mse_255

    # lambda = 0 must reproduce the baseline trajectory bit for bit
    params = build_model(spec, SeedRng(450))
    truth = synth_image("light-background", 16, 16, 1, 550).to_tensor()
    bundle = victim_gradient(params, truth, one_hot(0, 2))
    base_cfg = AttackConfig(eta=ETA_VARIANT, iterations=60, seed=9,
                            checkpoints=(20, 40, 60))
    zero_cfg = AttackConfig(eta=ETA_VARIANT, iterations=60, seed=9,
                            checkpoints=(20, 40, 60), variant="improved",
                            lambda_mean=0.0)
    sb, tb = dlg_attack(spec, params, bundle, base_cfg, truth=truth)
    sz, tz = improved_dlg(spec, params, bundle, zero_cfg, truth=truth)
    bit_exact = (
        sb.x_virtual == sz.x_virtual
        and sb.y_virtual == sz.y_virtual
        and [r.distance for r in tb.records] == [r.distance for r in tz.records]
        and [r.snapshot for r in tb.records] == [r.snapshot for r in tz.records]
    )
    ok = wins >= 14 and bit_exact
    _report(8, "mean-anchored variant on light-background images",
            ok, f"improved wins {wins}/20, lambda=0 bit-exact {bit_exact}")


def test_criterion_09_format_round_trips():
    rng = SeedRng(909)
    # 500 gradient bundles
    for _ in range(500):
        tensors = []
        for t in range(1 + int(rng.uniform() * 3)):
            rank = 1 + int(rng.uniform() * 3)
            shape = tuple(1 + int(rng.uniform() * 4) for _ in range(rank))
            tensors.append((
                f"layer{t}.{'W' if rng.uniform() < 0.7 else 'B'}",
                Tensor(_uniform(rng, shape, -1e6, 1e6)),
            ))
        bundle = GradientBundle(
            digest=rng.next_u64(),
            client_id=int(rng.uniform() * 2**32),
            round_index=int(rng.uniform() * 2**32),
            tensors=tuple(tensors),
        )
        blob = serialize_bundle(bundle)
        back = deserialize_bundle(blob)
        assert back == bundle and serialize_bundle(back) == blob

    # 500 image buffers
    for _ in range(500):
        w = 1 + int(rng.uniform() * 12)
        h = 1 + int(rng.uniform() * 12)
        c = 1 if rng.uniform() < 0.5 else 3
        samples = bytes(int(rng.uniform() * 256) % 256 for _ in range(w * h * c))
        buf = ImageBuffer(w, h, c, samples)
        blob = encode_image(buf)
        back = decode_image(blob)
        assert back == buf and encode_image(back) == blob

    # malformed corpus: every strict prefix plus assorted corruptions parses
    # to an error, never a crash
    bundle_blob = serialize_bundle(GradientBundle(
        digest=1, client_id=2, round_index=3,
        tensors=(("a.W", Tensor([[1.0, 2.0]])), ("a.B", Tensor([3.0]))),
    ))
    image_blob = encode_image(synth_image("gradient", 5, 4, 1, 0))
    failures = 0
    cases = 0
    for blob, parse in ((bundle_blob, deserialize_bundle), (image_blob, decode_image)):
        for cut in range(len(blob)):
            cases += 1
            try:
                parse(blob[:cut])
                failures += 1  # parsing a strict prefix must not succeed
            except ParseError:
                pass
    for corrupt in (b"XXXX" + bundle_blob[4:], bundle_blob + b"!", b"",
                    b"P9" + image_blob[2:], image_blob + b"\x00", b"P5\n0 0\n255\n"):
        for parse in (deserialize_bundle, decode_image):
            cases += 1
            try:
                parse(corrupt)
                failures += 1
            except ParseError:
                pass
    _report(9, "1000 serialization round-trips and malformed-input handling",
            failures == 0, f"{cases} malformed cases, {failures} escaped")


def test_criterion_10_demo_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli_main(["demo", "--seed", "7", "--out", str(first)]) == 0
    assert cli_main(["demo", "--seed", "7", "--out", str(second)]) == 0

    def tree(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    a, b = tree(first), tree(second)
    _report(10, "demo --seed 7 produces byte-identical output trees",
            a == b and len(a) > 5, f"{len(a)} files compared")
