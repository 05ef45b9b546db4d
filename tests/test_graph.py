import re
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

from gradleak import (
    Activation,
    AttackConfig,
    ContractError,
    Conv,
    Dense,
    ExprGraph,
    Flatten,
    GeometryError,
    ModelSpec,
    Pool,
    SeedRng,
    ShapeError,
    Stack,
    Tensor,
    build_model,
    conv2d,
    default_attack_spec,
    forward_loss,
    grad,
    meta_grad,
)
from gradleak import _kernels as kern
from gradleak.attack import _build_attack_graph
from gradleak.flsim import gradient_plan
from gradleak.graph import _EVAL, _VJP
from oracles import fd_gradient, rel_err, softmax_hp
from test_acceptance import _primitive_scenarios


def _rand(rng, shape, scale=1.0):
    return np.array(
        [(rng.uniform() * 2 - 1) * scale for _ in range(int(np.prod(shape)))]
    ).reshape(shape)


def _check_fd(g, out, var_names, bindings, rtol=1e-5, h=1e-5, floor=1e-6):
    """Reverse-mode gradient vs central differences for every named variable."""
    ids = {name: g.variables()[name] for name in var_names}
    gm = grad(g, ids.values(), of=out)
    run_out = g.evaluator([out])
    run_grads = g.evaluator([gm[ids[name]] for name in var_names])
    analytic = run_grads(bindings)
    for name, got in zip(var_names, analytic):
        want = fd_gradient(run_out, dict(bindings), name, h=h)
        worst = max(
            rel_err(a, b, floor) for a, b in zip(got.ravel(), want.ravel())
        )
        assert worst < rtol, f"{name}: worst relative error {worst}"


def test_power_rule():
    g = ExprGraph()
    x = g.variable("x", ())
    gm = grad(g, [x], of=g.mul(x, x))
    val = g.eval({"x": np.asarray(3.0)}, [gm[x]])[0]
    assert val.item() == 6.0


def test_grad_requires_scalar_output():
    g = ExprGraph()
    x = g.variable("x", (2,))
    y = g.neg(x)
    with pytest.raises(ContractError):
        grad(g, [x], of=y)


def test_unreachable_variable_gets_zero_gradient():
    g = ExprGraph()
    x = g.variable("x", ())
    unused = g.variable("u", (3,))
    gm = grad(g, [x, unused], of=g.mul(x, x))
    val = g.eval({"x": np.asarray(2.0), "u": np.zeros(3)}, [gm[unused]])[0]
    assert val.tolist() == [0.0, 0.0, 0.0]


def test_affine_weight_gradient_is_bias_gradient_times_input():
    # for y = Wx + b and any scalar loss, dL/dW must equal outer(dL/db, x)
    rng = SeedRng(61)
    g = ExprGraph()
    w = g.variable("w", (3, 4))
    b = g.variable("b", (3,))
    x = g.constant(_rand(rng, (4,)))
    weights = g.constant(_rand(rng, (3,)))
    loss = g.sum_all(g.mul(weights, g.sigmoid(g.affine(w, x, b))))
    gm = grad(g, [w, b], of=loss)
    bindings = {"w": _rand(rng, (3, 4)), "b": _rand(rng, (3,))}
    gw, gb = (t.array for t in g.eval(bindings, [gm[w], gm[b]]))
    xval = g.node(x).payload
    assert np.allclose(gw, np.outer(gb, xval), rtol=1e-13, atol=0)


def test_gradient_of_gradient_scalar():
    # f = x^3: f' = 3x^2, f'' = 6x
    g = ExprGraph()
    x = g.variable("x", ())
    f = g.mul(g.mul(x, x), x)
    first = grad(g, [x], of=f)[x]
    second = grad(g, [x], of=first)[x]
    third = grad(g, [x], of=second)[x]
    vals = g.eval({"x": np.asarray(2.0)}, [f, first, second, third])
    assert [v.item() for v in vals] == [8.0, 12.0, 12.0, 6.0]


@pytest.mark.parametrize("case", [
    "sigmoid", "relu", "exp", "add", "sub", "mul", "neg",
    "scale", "sum_fill", "reshape", "matvec", "matvec_t", "outer",
    "pad_crop", "crop", "crop_corr", "crop_into_pad",
    "corr2d", "corr2d_pad", "corr2d_crop", "kgrad_corr", "kgrad_corr_pad", "kgrad_corr_crop",
    "rotswap", "sslice_dilate",
    "avg_pool", "avg_unpool", "softmax", "sq_diff_sum",
])
def test_primitive_gradients_match_finite_differences(case):
    rng = SeedRng(zlib.crc32(case.encode()) & 0xFFFF)
    g = ExprGraph()
    if case in ("sigmoid", "exp", "neg"):
        a = g.variable("a", (5,))
        node = getattr(g, case)(a)
        bindings = {"a": _rand(rng, (5,), 2.0)}
    elif case == "relu":
        a = g.variable("a", (5,))
        node = g.relu(a)
        vals = _rand(rng, (5,), 2.0)
        vals[np.abs(vals) < 0.1] = 0.5  # keep probes away from the kink
        bindings = {"a": vals}
    elif case in ("add", "sub", "mul"):
        a = g.variable("a", (4,))
        b = g.variable("b", (4,))
        node = getattr(g, case)(a, b)
        bindings = {"a": _rand(rng, (4,)), "b": _rand(rng, (4,))}
    elif case == "scale":
        a = g.variable("a", (4,))
        node = g.scale(a, -2.5)
        bindings = {"a": _rand(rng, (4,))}
    elif case == "sum_fill":
        a = g.variable("a", (3, 2))
        node = g.fill(g.scale(g.sum_all(a), 0.5), (4,))
        bindings = {"a": _rand(rng, (3, 2))}
    elif case == "reshape":
        a = g.variable("a", (2, 3))
        node = g.mul(g.reshape(a, (6,)), g.constant(_rand(rng, (6,))))
        bindings = {"a": _rand(rng, (2, 3))}
    elif case == "matvec":
        w = g.variable("w", (3, 4))
        x = g.variable("x", (4,))
        node = g.matvec(w, x)
        bindings = {"w": _rand(rng, (3, 4)), "x": _rand(rng, (4,))}
    elif case == "matvec_t":
        w = g.variable("w", (3, 4))
        y = g.variable("y", (3,))
        node = g.matvec_t(w, y)
        bindings = {"w": _rand(rng, (3, 4)), "y": _rand(rng, (3,))}
    elif case == "outer":
        u = g.variable("u", (3,))
        v = g.variable("v", (4,))
        node = g.outer(u, v)
        bindings = {"u": _rand(rng, (3,)), "v": _rand(rng, (4,))}
    elif case in ("pad_crop", "crop", "crop_into_pad"):
        # a pad of 2 then a crop of 1 is margin +1; a crop of 2, or a pad of 1
        # then a crop of 3, is margin -2; a 1x1 kernel keeps every pixel
        shape, margin, out = {
            "pad_crop": ((4, 5, 2), 1, (6, 7, 2)),
            "crop": ((6, 5, 2), -2, (2, 1, 2)),
            "crop_into_pad": ((7, 6, 2), -2, (3, 2, 2)),
        }[case]
        a = g.variable("a", shape)
        k = g.variable("k", (1, 1, 2, 2))
        node = g.corr2d(a, k, margin)
        assert g.shape_of(node) == out
        bindings = {"a": _rand(rng, shape), "k": _rand(rng, (1, 1, 2, 2))}
    elif case == "crop_corr":
        # the input gradient of a padding-1, 3x3 conv: margin 3-1-1 = 1
        x = g.variable("x", (4, 4, 2))
        k = g.variable("k", (3, 3, 2, 3))
        node = g.corr2d(x, k, 1)
        assert g.shape_of(node) == (4, 4, 3)
        bindings = {"x": _rand(rng, (4, 4, 2)), "k": _rand(rng, (3, 3, 2, 3))}
    elif case in ("corr2d", "corr2d_pad", "corr2d_crop"):
        # margins 0, +2 (zero-padded input) and -1 (cropped input)
        margin, side = {"corr2d": (0, 5), "corr2d_pad": (2, 3), "corr2d_crop": (-1, 7)}[case]
        x = g.variable("x", (side, side, 2))
        k = g.variable("k", (3, 3, 2, 2))
        node = g.corr2d(x, k, margin)
        bindings = {"x": _rand(rng, (side, side, 2)), "k": _rand(rng, (3, 3, 2, 2))}
    elif case in ("kgrad_corr", "kgrad_corr_pad", "kgrad_corr_crop"):
        margin, side = {"kgrad_corr": (0, 5), "kgrad_corr_pad": (2, 1),
                        "kgrad_corr_crop": (-1, 7)}[case]
        x = g.variable("x", (side, side, 2))
        d = g.variable("d", (3, 3, 4))
        node = g.kgrad_corr(x, d, margin)
        assert g.shape_of(node) == (3, 3, 2, 4)
        bindings = {"x": _rand(rng, (side, side, 2)), "d": _rand(rng, (3, 3, 4))}
    elif case == "rotswap":
        k = g.variable("k", (3, 3, 2, 4))
        node = g.rotswap(k)
        bindings = {"k": _rand(rng, (3, 3, 2, 4))}
    elif case == "sslice_dilate":
        a = g.variable("a", (5, 5, 2))
        node = g.dilate2d(g.sslice2d(a, 2), 2, 6, 6)
        bindings = {"a": _rand(rng, (5, 5, 2))}
    elif case == "avg_pool":
        a = g.variable("a", (6, 6, 2))
        node = g.avg_pool2d(a, 2, 2)
        bindings = {"a": _rand(rng, (6, 6, 2))}
    elif case == "avg_unpool":
        a = g.variable("a", (3, 3, 2))
        node = g.avg_unpool2d(a, 2, 2, 6, 6)
        bindings = {"a": _rand(rng, (3, 3, 2))}
    elif case == "softmax":
        a = g.variable("a", (5,))
        node = g.softmax(a)
        bindings = {"a": _rand(rng, (5,), 3.0)}
    else:  # sq_diff_sum
        a = g.variable("a", (4,))
        b = g.variable("b", (4,))
        node = g.sq_diff_sum(a, b)
        bindings = {"a": _rand(rng, (4,)), "b": _rand(rng, (4,))}

    # reduce to a scalar through a fixed random projection so every output
    # element influences the loss
    if g.shape_of(node) != ():
        proj = g.constant(_rand(rng, g.shape_of(node)))
        node = g.sum_all(g.mul(node, proj))
    _check_fd(g, node, list(bindings), bindings)


def test_second_derivative_matches_finite_differences_of_gradient():
    # d/dx of sum(sigmoid(Wx)) checked once more one level up
    rng = SeedRng(97)
    g = ExprGraph()
    x = g.variable("x", (3,))
    w = g.constant(_rand(rng, (3, 3)))
    loss = g.sum_all(g.sigmoid(g.matvec(w, x)))
    first = grad(g, [x], of=loss)[x]
    probe = g.constant(_rand(rng, (3,)))
    scalar_first = g.sum_all(g.mul(first, probe))
    second = grad(g, [x], of=scalar_first)[x]

    bindings = {"x": _rand(rng, (3,))}
    run_scalar = g.evaluator([scalar_first])
    want = fd_gradient(run_scalar, dict(bindings), "x")
    got = g.evaluator([second])(bindings)[0]
    assert np.allclose(got, want, rtol=1e-5, atol=1e-9)


def test_closure_under_double_differentiation_for_model_primitives():
    # one graph touching every primitive the default model uses, then grad(grad)
    rng = SeedRng(131)
    g = ExprGraph()
    x = g.variable("x", (6, 6, 1))
    k = g.variable("k", (3, 3, 1, 2))
    w = g.variable("w", (4, 8))
    b = g.variable("b", (4,))
    feat = g.avg_pool2d(g.sigmoid(g.conv2d(x, k, stride=1, zero_padding=1)), 3, 3)
    logits = g.affine(w, g.reshape(feat, (8,)), b)
    target = g.constant(np.array([0.5, 0.25, 0.2, 0.05]))
    loss = g.cross_entropy_logits(logits, target)
    first = grad(g, [x, k, w, b], of=loss)
    score = None
    for node in first.values():
        term = g.sum_all(g.mul(node, node))
        score = term if score is None else g.add(score, term)
    second = grad(g, [x], of=score)
    bindings = {
        "x": _rand(rng, (6, 6, 1)),
        "k": _rand(rng, (3, 3, 1, 2)),
        "w": _rand(rng, (4, 8)),
        "b": _rand(rng, (4,)),
    }
    run_score = g.evaluator([score])
    want = fd_gradient(run_score, dict(bindings), "x", h=1e-6)
    got = g.evaluator([second[x]])(bindings)[0]
    worst = max(rel_err(a, c, 1e-5) for a, c in zip(got.ravel(), want.ravel()))
    assert worst < 1e-3  # fd of a second derivative is noisy; closure is the point


def test_relu_second_derivative_is_zero():
    g = ExprGraph()
    x = g.variable("x", (4,))
    first = grad(g, [x], of=g.sum_all(g.relu(x)))[x]
    second = grad(g, [x], of=g.sum_all(first))[x]
    val = g.eval({"x": np.array([-2.0, -0.5, 0.5, 2.0])}, [second])[0]
    assert val.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_every_primitive_has_a_derivative_rule_and_a_criterion_2_scenario():
    # grad indexes the derivative rules by op, so an op evaluated without one
    # would fail there; criterion 2 checks each rule against central differences
    assert set(_EVAL) == set(_VJP)
    covered = set()
    for var_shapes, build in _primitive_scenarios().values():
        g = ExprGraph()
        out = build(g, {name: g.variable(name, shape) for name, shape in var_shapes.items()})
        covered |= {g.op_of(n) for n in g._ancestors([out])}
    assert sorted(set(_EVAL) - covered) == []


def test_meta_grad_zero_at_exact_match():
    # distance between a gradient and itself: minimum of a smooth non-negative
    # function, so the meta-gradient must vanish
    rng = SeedRng(151)
    g = ExprGraph()
    x = g.variable("x", (3,))
    w = g.variable("w", (2, 3))
    loss = g.sum_all(g.sigmoid(g.matvec(w, x)))
    gw = grad(g, [w], of=loss)[w]

    x0 = _rand(rng, (3,))
    w0 = _rand(rng, (2, 3))
    true_gw = g.evaluator([gw])({"x": x0, "w": w0})[0]
    dist = g.sq_diff_sum(gw, g.constant(true_gw))
    meta = meta_grad(g, [x], of=dist)
    dval, mval = g.eval({"x": x0, "w": w0}, [dist, meta[x]])
    assert dval.item() == 0.0
    assert np.abs(mval.array).max() == 0.0


def test_meta_grad_matches_hand_expansion_for_scalar_model():
    # model F(x, w) = w*x with squared loss (F - t)^2:
    #   dl/dw(x') = 2 (w x' - t) x'
    #   distance(x') = (dl/dw(x') - c)^2
    #   d distance/dx' = 2 (2 (w x' - t) x' - c) * 2 (2 w x' - t)
    w0, t0, c0 = 1.7, 0.6, 0.31
    g = ExprGraph()
    x = g.variable("x", ())
    w = g.variable("w", ())
    t = g.constant(np.asarray(t0))
    f = g.mul(w, x)
    resid = g.sub(f, t)
    loss = g.mul(resid, resid)
    dw = grad(g, [w], of=loss)[w]
    dist = g.sq_diff_sum(dw, g.constant(np.asarray(c0)))
    meta = meta_grad(g, [x], of=dist)

    for xv in (-1.2, 0.05, 0.8, 2.5):
        got = g.eval({"x": np.asarray(xv), "w": np.asarray(w0)}, [meta[x]])[0].item()
        want = 2.0 * (2.0 * (w0 * xv - t0) * xv - c0) * 2.0 * (2.0 * w0 * xv - t0)
        assert rel_err(got, want, 1e-12) < 1e-12


def test_meta_grad_matches_finite_differences_on_tiny_mlp():
    # 2 -> 3 -> 2 sigmoid MLP; distance graph differentiated w.r.t. x and y
    rng = SeedRng(163)
    g = ExprGraph()
    x = g.variable("x", (2,))
    y = g.variable("y", (2,))
    w1 = g.constant(_rand(rng, (3, 2)))
    b1 = g.constant(_rand(rng, (3,)))
    w2 = g.variable("w2", (2, 3))
    b2 = g.variable("b2", (2,))
    hidden = g.sigmoid(g.affine(w1, x, b1))
    logits = g.affine(w2, hidden, b2)
    loss = g.cross_entropy_logits(logits, g.softmax(y))
    first = grad(g, [w2, b2], of=loss)

    w2_0 = _rand(rng, (2, 3))
    b2_0 = _rand(rng, (2,))
    truth = g.evaluator([first[w2], first[b2]])(
        {"x": _rand(rng, (2,)), "y": _rand(rng, (2,)), "w2": w2_0, "b2": b2_0}
    )
    dist = g.add(
        g.sq_diff_sum(first[w2], g.constant(truth[0])),
        g.sq_diff_sum(first[b2], g.constant(truth[1])),
    )
    meta = meta_grad(g, [x, y], of=dist)

    bindings = {"x": _rand(rng, (2,)), "y": _rand(rng, (2,)), "w2": w2_0, "b2": b2_0}
    run_dist = g.evaluator([dist])
    got = g.evaluator([meta[x], meta[y]])(bindings)
    for name, analytic in zip(("x", "y"), got):
        want = fd_gradient(run_dist, dict(bindings), name)
        worst = max(rel_err(a, b, 1e-6) for a, b in zip(analytic.ravel(), want.ravel()))
        assert worst < 1e-4, f"{name}: worst relative error {worst}"


def test_eval_rejects_bad_bindings():
    # the messages are part of the contract, word for word
    g = ExprGraph()
    x = g.variable("x", (3, 2))
    y = g.variable("y", (2,))
    out = g.add(g.sum_all(x), g.sum_all(y))
    run = g.evaluator([out])
    rng = SeedRng(12)
    xs, ys = _rand(rng, (4, 3, 2)), _rand(rng, (4, 2))
    cases = [
        ({"x": xs[0]}, ContractError, "eval: no binding for variable 'y'"),
        ({"x": xs[0], "y": np.zeros(3)}, ShapeError,
         "eval: binding for 'y' has shape (3,), variable expects (2,)"),
        ({"x": Stack(xs[0]), "y": ys[0]}, ShapeError,
         "eval: stack for 'x' has shape (3, 2), expected (B,) + (3, 2)"),
        ({"x": Stack(xs), "y": Stack(ys[:3])}, ShapeError,
         "eval: stack for 'y' has shape (3, 2), expected (4,) + (2,)"),
    ]
    for bindings, error, message in cases:
        with pytest.raises(error) as caught:
            run(bindings)
        assert str(caught.value) == message
    with pytest.raises(ContractError) as caught:
        g.evaluator([out, len(g)])
    assert str(caught.value) == f"evaluator: unknown node id {len(g)}"


def _coerced(v):
    """The float64 array a plain binding evaluates as."""
    return v.array if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)


def test_plan_bindings_evaluate_as_their_float64_arrays():
    # any kind of binding evaluates exactly as the float64 array it is
    # coerced to; a float64 ndarray, of any layout, is bound as it is
    g = ExprGraph()
    x = g.variable("x", (3, 4))
    w = g.variable("w", (2, 12))
    outputs = [g.matvec(w, g.reshape(g.sigmoid(x), (12,))), g.sum_all(g.mul(x, x)), x]
    run = g.evaluator(outputs)
    rng = SeedRng(21)
    base, wide = _rand(rng, (3, 4), 3.0), _rand(rng, (3, 8), 3.0)
    w0, w_wide = _rand(rng, (2, 12)), _rand(rng, (12, 2))
    read_only = base.copy()
    read_only.flags.writeable = False
    kinds = {
        "float64": base,
        "float32": base.astype(np.float32),
        "int": np.arange(-6, 6).reshape(3, 4),
        "nested_list": base.tolist(),
        "tensor": Tensor(base),
        "strided_view": wide[:, ::2],
        "fortran_order": np.asfortranarray(base),
        "read_only": read_only,
        "broadcast_view": np.broadcast_to(base[0], (3, 4)),
        "masked_array": np.ma.masked_array(base),
    }
    for kind, value in kinds.items():
        for w_value in (w0, w_wide.T):
            got = run({"x": value, "w": w_value})
            want = _keep_every_node(g, outputs, {"x": _coerced(value), "w": w_value})
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], kind
            if type(value) is np.ndarray and value.dtype == np.float64:
                assert got[2] is value, kind

    wrong = {
        "float64": base.T,
        "float32": base.T.astype(np.float32),
        "nested_list": base.T.tolist(),
        "tensor": Tensor(base.T),
        "strided_view": wide[:, ::2].T,
        "stack_shaped": np.stack([base, base]),
        "scalar": np.float64(1.0),
    }
    for kind, value in wrong.items():
        shape = np.shape(value)
        with pytest.raises(ShapeError) as caught:
            run({"x": value, "w": w0})
        assert str(caught.value) == (f"eval: binding for 'x' has shape {shape}, "
                                     f"variable expects (3, 4)"), kind
    with pytest.raises(ContractError) as caught:
        run({"w": w0})
    assert str(caught.value) == "eval: no binding for variable 'x'"


def test_build_time_shape_errors():
    g = ExprGraph()
    a = g.variable("a", (2,))
    b = g.variable("b", (3,))
    with pytest.raises(ShapeError):
        g.add(a, b)
    with pytest.raises(ShapeError):
        g.matvec(a, b)
    c = g.variable("c", (4, 4, 1))
    k = g.variable("k", (3, 3, 2, 1))
    with pytest.raises(ShapeError, match="channels"):
        g.corr2d(c, k)


def test_kgrad_corr_rejects_a_non_square_kernel_grid():
    # grad through such a node would need corr2d on a non-square kernel
    g = ExprGraph()
    x = g.variable("x", (5, 6, 2))
    dy = g.variable("dy", (3, 3, 3))
    with pytest.raises(ShapeError, match="kgrad_corr"):
        g.kgrad_corr(x, dy)
    assert g.shape_of(g.kgrad_corr(x, g.variable("dy2", (3, 4, 3)))) == (3, 3, 2, 3)


# ------------------------------------------------------------ margined correlations


def _margin(a, m):
    return kern.pad2d(a, m) if m >= 0 else kern.crop2d(a, -m)


def _fold_cases():
    """(name, builder, oracle, input shapes): the builder is a correlation
    with its margin folded in, the oracle pads or crops with the _kernels
    first and then correlates."""
    def corr(m):
        return (lambda g, x, kr: g.corr2d(x, kr, m),
                lambda x, kr: kern.corr2d(kern.im2col(_margin(x, m), 3), kr))

    def kgrad(m):
        return (lambda g, x, d: g.kgrad_corr(x, d, m),
                lambda x, d: kern.kgrad_corr(kern.im2col(_margin(x, m), 3), d))

    def backward_corr(g, d, kr):
        # _vjp_corr2d's input gradient of a padding-1, 3x3 conv
        return g.corr2d(d, g.rotswap(kr), 1)

    def backward_corr_ref(d, kr):
        return kern.corr2d(kern.im2col(kern.pad2d(d, 1), 3), kern.rotswap(kr))

    def strided(g, d, kr):
        # stride-2 conv of a 9x9 input padded by 1: dilate, then the same backward correlation
        return backward_corr(g, g.dilate2d(d, 2, 9, 9), kr)

    def strided_ref(d, kr):
        return backward_corr_ref(kern.dilate2d(d, 2, 9, 9), kr)

    return [
        ("corr2d+2", *corr(2), [(3, 4, 2), (3, 3, 2, 3)]),
        ("corr2d0", *corr(0), [(5, 6, 2), (3, 3, 2, 3)]),
        ("corr2d-1", *corr(-1), [(7, 8, 2), (3, 3, 2, 3)]),
        ("kgrad_corr+2", *kgrad(2), [(4, 4, 2), (6, 6, 3)]),
        ("kgrad_corr0", *kgrad(0), [(6, 6, 2), (4, 4, 3)]),
        ("kgrad_corr-1", *kgrad(-1), [(8, 8, 2), (4, 4, 3)]),
        ("corr2d", backward_corr, backward_corr_ref, [(6, 6, 3), (3, 3, 2, 3)]),
        ("strided", strided, strided_ref, [(5, 5, 3), (3, 3, 2, 3)]),
    ]


@pytest.mark.parametrize("build, oracle, shapes",
                         [pytest.param(*rest, id=name) for name, *rest in _fold_cases()])
def test_folds_evaluate_to_the_unfolded_kernels_bit_for_bit(build, oracle, shapes):
    rng = SeedRng(211)
    g = ExprGraph()
    names = [f"v{i}" for i in range(len(shapes))]
    node = build(g, *(g.variable(n, s) for n, s in zip(names, shapes)))
    run = g.evaluator([node])
    # one point, then a Stack of 3 for the first input with the others shared
    point = {n: _rand(rng, s) for n, s in zip(names, shapes)}
    (got,) = run(point)
    want = oracle(*(point[n] for n in names))
    assert got.shape == g.shape_of(node)
    assert np.array_equal(got, want)
    stack = _rand(rng, (3,) + shapes[0])
    (got,) = run({**point, names[0]: Stack(stack)})
    want = oracle(stack, *(point[n] for n in names[1:]))
    assert got.shape == (3,) + g.shape_of(node)
    assert np.array_equal(got, want)


def test_fold_shortcuts_and_margin_check():
    g = ExprGraph()
    a = g.variable("a", (4, 5, 2))
    k = g.variable("k", (1, 1, 2, 5))
    d = g.variable("d", (2, 2, 3))
    assert g.rotswap(g.rotswap(k)) == k
    # the margin is part of the node, so equal inputs at other margins stay apart
    assert g.corr2d(a, k, 1) != g.corr2d(a, k, 0) == g.corr2d(a, k)
    assert g.shape_of(g.corr2d(a, k, -1)) == (2, 3, 5)
    # a crop must leave pixels, whether or not the kernel would then fit
    for margin in (-2, -3):
        with pytest.raises(GeometryError, match=f"corr2d: margin {margin} leaves no pixels"):
            g.corr2d(a, k, margin)
        with pytest.raises(GeometryError, match=f"kgrad_corr: margin {margin} leaves no pixels"):
            g.kgrad_corr(a, d, margin)
    with pytest.raises(GeometryError, match="does not fit"):
        g.corr2d(a, g.variable("k3", (3, 3, 2, 1)), -1)


def test_structurally_equal_nodes_are_one_node():
    g = ExprGraph()
    a = g.variable("a", (2, 3))
    b = g.variable("b", (2, 3))
    m = g.mul(a, b)
    size = len(g)
    assert g.mul(a, b) == m
    assert g.mul(b, a) != m  # inputs are ordered
    assert g.constant(np.ones((2, 3))) == g.constant(np.ones((2, 3)))
    assert g.constant(np.zeros((2, 3))) != g.constant(np.zeros((3, 2)))
    assert g.scale(a, 0.0) != g.scale(a, -0.0)
    assert g.scale(a, 2.0) == g.scale(a, 2.0)
    assert len(g) == size + 7
    with pytest.raises(ContractError, match="already exists"):
        g.variable("a", (2, 3))


def _gradient_plan_nodes(params):
    """The graph and outputs that `gradient_plan` compiles, caught at the
    `evaluator` call."""
    caught = []
    compile_plan = ExprGraph.evaluator

    def catch(graph, outputs):
        caught.append((graph, list(outputs)))
        return compile_plan(graph, outputs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ExprGraph, "evaluator", catch)
        gradient_plan(params)
    (plan,) = caught
    return plan


def test_grad_sums_a_nodes_contributions_pairwise():
    # x has four consumers: its adjoint is (p0 + p1) + (p2 + p3), not a running
    # sum; each p is a variable w, so no builder fold applies to the sums, and
    # the consumers are swept from the last, so p0 comes from w3
    g = ExprGraph()
    x = g.variable("x", (2,))
    w = [g.variable(f"w{i}", (2,)) for i in range(4)]
    terms = [g.sum_all(g.mul(x, wi)) for wi in w]
    gx = grad(g, [x], of=g.add(g.add(terms[0], terms[1]), g.add(terms[2], terms[3])))[x]
    assert g.node(gx).inputs == (g.add(w[3], w[2]), g.add(w[1], w[0]))
    bindings = {"x": np.zeros(2), **{f"w{i}": np.full(2, i + 1.0) for i in range(4)}}
    assert g.eval(bindings, [gx])[0].tolist() == [10.0, 10.0]


def test_grad_leaves_no_correlation_without_a_consumer():
    # the gradient of every padded conv, w.r.t. every variable of the demo
    # loss: each correlation it builds is either used or a returned gradient
    spec = default_attack_spec(16, 16, 1, 2)
    params = build_model(spec, SeedRng(5))
    lg = forward_loss(params)
    g = lg.graph
    returned = set(grad(g, wrt=g.variables().values(), of=lg.loss).values())
    consumed = {i for n in range(len(g)) for i in g.node(n).inputs}
    stray = [g.shape_of(n) for n in range(len(g)) if g.op_of(n) in ("corr2d", "kgrad_corr")
             and n not in consumed | returned]
    assert stray == []


def _gd_and_gn_plans():
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(5))
    plans = {}
    for variant in ("baseline", "improved"):
        ag = _build_attack_graph(params, AttackConfig(variant=variant))
        meta = meta_grad(ag.graph, wrt=(ag.x, ag.y), of=ag.objective)
        plans[variant] = (ag.graph, [ag.distance, meta[ag.x], meta[ag.y]])
    plans["gn_residual"] = _gradient_plan_nodes(params)
    return plans


@pytest.mark.parametrize("plan", ["baseline", "improved", "gn_residual"])
def test_default_spec_attack_plans_hold_no_crop(plan):
    # padding k//2 of the default spec puts every correlation, forward or
    # backward, at margin >= 0: no gradient is computed and then cropped
    g, outputs = _gd_and_gn_plans()[plan]
    corrs = [g.node(n) for n in g._ancestors(outputs) if g.op_of(n) in ("corr2d", "kgrad_corr")]
    assert {n.op for n in corrs} == {"corr2d", "kgrad_corr"}
    assert [n.params[0] for n in corrs if n.params[0] < 0] == []


RESIDUAL_SPECS = {
    "demo": default_attack_spec(16, 16, 1, 2),
    "strided_relu_mlp": ModelSpec(
        input_shape=(9, 9, 2),
        layers=(
            Conv(kernel=3, out_channels=3, stride=2, padding=1),
            Activation("relu"),
            Pool(window=3, stride=1),
            Flatten(),
            Dense(out_dim=4, biased=True),
            Activation("sigmoid"),
            Dense(out_dim=3, biased=True),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_SPECS))
def test_batched_residual_plan_is_stack_of_single_evaluations(name):
    # every node the GN residual plan (the victim gradient plan) evaluates,
    # each rule on (B, ...) inputs, with the target stacked too
    spec = RESIDUAL_SPECS[name]
    rng = SeedRng(17)
    params = build_model(spec, rng)
    g, outputs = _gradient_plan_nodes(params)
    nodes = sorted(g._ancestors(outputs))
    ops = {g.op_of(n) for n in nodes}
    assert {"sum_all", "log_softmax", "fill", "reshape", "matvec", "matvec_t", "outer"} <= ops

    xs = _rand(rng, (5,) + spec.input_shape)
    ys = _rand(rng, (5, spec.classes), scale=3.0)
    targets = np.stack([softmax_hp(y) for y in ys])
    bindings = {n: t.array for n, t in params.flat()}
    run = g.evaluator(nodes)
    batched = run({**bindings, "x": Stack(xs), "target": Stack(targets)})
    per_point = [run({**bindings, "x": x, "target": t}) for x, t in zip(xs, targets)]
    for j, nid in enumerate(nodes):
        want = np.stack([values[j] for values in per_point])
        assert np.array_equal(batched[j], want), f"node {nid} ({g.op_of(nid)})"


def test_stack_bindings_check_the_leading_axis():
    g = ExprGraph()
    x = g.variable("x", (3, 2))
    y = g.variable("y", (2,))
    w = g.variable("w", (2,))
    out = g.add(g.sum_all(x), g.sum_all(g.mul(y, w)))
    run = g.evaluator([out])
    rng = SeedRng(8)
    xs, ys, w0 = _rand(rng, (4, 3, 2)), _rand(rng, (4, 2)), _rand(rng, (2,))
    (got,) = run({"x": Stack(xs), "y": Stack(ys), "w": w0})
    assert got.shape == (4,)
    assert got.tolist() == [float(run({"x": a, "y": b, "w": w0})[0]) for a, b in zip(xs, ys)]
    # a plain binding is shared by every point of the stacks
    (got,) = run({"x": Stack(xs), "y": ys[1], "w": w0})
    assert got.tolist() == [float(run({"x": a, "y": ys[1], "w": w0})[0]) for a in xs]

    for bad in ({"x": Stack(xs[0]), "y": Stack(ys), "w": w0},      # no leading axis
                {"x": Stack(xs), "y": Stack(ys[:3]), "w": w0},     # mismatched B
                {"x": Stack(xs.reshape(4, 2, 3)), "y": Stack(ys), "w": w0},
                {"x": Stack(xs), "y": Stack(ys), "w": ys}):        # plain array of a stack's shape
        with pytest.raises(ShapeError):
            run(bad)


@pytest.mark.parametrize("plan", ["baseline", "improved", "gn_residual"])
def test_every_variable_stacked_gives_each_problem_as_if_alone(plan):
    # three problems that share no binding: parameters, capture "T:<name>",
    # image and label logits (or target) all differ, and every variable of
    # the plan is bound as a Stack of the three
    g, outputs = _gd_and_gn_plans()[plan]
    rng = SeedRng(43)
    problems = [{name: _rand(rng, g.shape_of(nid)) for name, nid in g.variables().items()}
                for _ in range(3)]
    assert any(name.startswith("T:") for name in problems[0]) == (plan != "gn_residual")
    run = g.evaluator(outputs)
    stacked = run({name: Stack([p[name] for p in problems]) for name in problems[0]})
    for b, problem in enumerate(problems):
        for got, want in zip(stacked, run(problem)):
            assert got[b].tobytes() == want.tobytes()


# ------------------------------------------------------------ evaluator contract


def test_drop_after_last_use_keeps_outputs_and_bound_arrays():
    # h is an output and also feeds a later node; it is listed twice, next
    # to a variable and a constant; the plan runs twice on the same bindings
    g = ExprGraph()
    x = g.variable("x", (3,))
    c = g.constant(np.array([0.5, -2.0, 3.0]))
    h = g.mul(g.exp(x), c)
    total = g.sum_all(g.mul(h, h))
    outputs = [h, total, x, c, h, g.fill(total, (2,))]
    run = g.evaluator(outputs)
    x0 = np.array([0.25, -1.0, 2.0])
    bound = x0.copy()
    first = run({"x": bound})
    second = run({"x": bound})
    assert np.array_equal(bound, x0)
    want_h = np.exp(x0) * np.array([0.5, -2.0, 3.0])
    want_total = np.sum(want_h * want_h)
    for got in (first, second):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in first]
        assert np.array_equal(got[0], want_h) and np.array_equal(got[4], want_h)
        assert got[1] == want_total and got[5].tolist() == [want_total] * 2
        assert np.array_equal(got[2], x0) and np.array_equal(got[3], [0.5, -2.0, 3.0])
    # the fill result is a fresh array, not a view of the scalar
    assert first[5].flags.writeable and first[5].base is None
    # with a Stack, each output still gets its leading axis
    stacked = run({"x": Stack(np.stack([x0, 2 * x0]))})
    assert [a.shape for a in stacked] == [(2, 3), (2,), (2, 3), (2, 3), (2, 3), (2, 2)]


def _keep_every_node(g, outputs, bindings):
    """Every node from id 0 up, each rule on a fresh list of its inputs and
    no value dropped; a stacked output is broadcast to the stack's length."""
    vals, size = [], None
    for nid in range(max(outputs) + 1):
        node = g.node(nid)
        if node.op == "const":
            vals.append(node.payload)
        elif node.op == "var":
            v = bindings[node.params[0]]
            if isinstance(v, Stack):
                v = v.points
                size = len(v)
            vals.append(v)
        else:
            vals.append(_EVAL[node.op](node, [vals[i] for i in node.inputs]))
    if size is None:
        return [vals[o] for o in outputs]
    return [np.broadcast_to(vals[o], (size,) + g.shape_of(o)) for o in outputs]


def test_compiled_plan_matches_an_evaluator_that_keeps_every_node():
    g = ExprGraph()
    x = g.variable("x", (5, 5, 1))
    kr = g.variable("k", (3, 3, 1, 2))
    t = g.variable("t", (3, 3, 2))
    u = g.variable("u", (3, 3, 2))
    s = g.sigmoid(g.corr2d(x, kr))
    e = g.exp(s)
    d = g.sub(e, t)
    loss = g.sq_diff_sum(e, t)
    assert g.node(g.node(loss).inputs[0]).inputs == (d, d)  # mul(d, d)
    # no gradient output reads q, so mul(q, q) is its last use in the plan
    q = g.exp(u)
    total = g.add(g.add(loss, g.sum_all(g.add(g.mul(s, s), g.scale(d, 0.5)))),
                  g.sum_all(g.mul(q, q)))
    outputs = [total, d, g.reshape(e, (18,))]
    outputs += list(grad(g, [x, kr, t], total).values())
    plan = sorted(g._ancestors(outputs))
    assert any(len(g.node(n).inputs) == 1 for n in plan)
    last = {i: n for n in plan for i in g.node(n).inputs}
    assert any(g.node(n).inputs == (v, v) for v, n in last.items() if v not in outputs)
    run = g.evaluator(outputs)

    rng = SeedRng(53)
    plain = {"x": _rand(rng, (5, 5, 1)), "k": _rand(rng, (3, 3, 1, 2)), "t": _rand(rng, (3, 3, 2)),
             "u": _rand(rng, (3, 3, 2))}
    stacked = {**plain, "x": Stack(_rand(rng, (3, 5, 5, 1))), "t": Stack(_rand(rng, (3, 3, 3, 2)))}
    for bindings in (plain, stacked):
        got, want = run(bindings), _keep_every_node(g, outputs, bindings)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("plan", ["baseline", "improved", "gn_residual"])
def test_attack_plans_give_each_output_as_if_alone(plan):
    # in the GN residual (victim gradient) plan the last bias gradient is an
    # output and also feeds that layer's weight gradient
    g, outputs = _gd_and_gn_plans()[plan]
    consumed = [o for o in outputs if any(o in g.node(n).inputs for n in g._ancestors(outputs))]
    assert len(consumed) == (plan == "gn_residual")
    rng = SeedRng(31)
    bindings = {name: _rand(rng, g.shape_of(nid)) for name, nid in g.variables().items()}
    before = {name: a.copy() for name, a in bindings.items()}
    run = g.evaluator(outputs)
    together, again = run(bindings), run(bindings)
    alone = [g.evaluator([o])(bindings)[0] for o in outputs]
    for a, b, c in zip(together, again, alone):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    assert all(np.array_equal(bindings[n], before[n]) for n in bindings)


def test_plans_call_kernels_through_the_module(monkeypatch):
    # a wrapper installed on `_kernels` after compiling still sees every call
    g = ExprGraph()
    x = g.variable("x", (4, 4, 1))
    kr = g.variable("k", (3, 3, 1, 2))
    run = g.evaluator([g.corr2d(x, kr, 1)])
    rng = SeedRng(41)
    bindings = {"x": _rand(rng, (4, 4, 1)), "k": _rand(rng, (3, 3, 1, 2))}
    (want,) = run(bindings)
    seen = []
    for name in ("im2col", "corr2d"):
        def wrapped(*args, name=name, kernel=getattr(kern, name)):
            seen.append((name,) + tuple(np.shape(a) for a in args))
            return kernel(*args)

        monkeypatch.setattr(kern, name, wrapped)
    (got,) = run(bindings)
    assert seen == [("im2col", (6, 6, 1), ()), ("corr2d", (6, 4, 3, 1), (3, 3, 1, 2))]
    assert np.array_equal(got, want)


def test_one_im2col_step_serves_every_correlation_of_an_input(monkeypatch):
    # two corr2d and a kgrad_corr on one (input, margin): one im2col call per
    # evaluation, the same bytes as each correlation on its own, and the rows
    # are dropped after their last reader, before the sigmoid runs
    g = ExprGraph()
    x = g.variable("x", (6, 6, 2))
    k1, k2 = g.variable("k1", (3, 3, 2, 3)), g.variable("k2", (3, 3, 2, 3))
    dy = g.variable("dy", (6, 6, 4))
    corrs = [g.corr2d(x, k1, 1), g.corr2d(x, k2, 1), g.kgrad_corr(x, dy, 1)]
    outputs = corrs + [g.sigmoid(g.add(corrs[0], corrs[1]))]
    run = g.evaluator(outputs)
    rng = SeedRng(43)
    point = {"x": _rand(rng, (6, 6, 2)), "k1": _rand(rng, (3, 3, 2, 3)),
             "k2": _rand(rng, (3, 3, 2, 3)), "dy": _rand(rng, (6, 6, 4))}
    rows, alive_at_sigmoid = [], []
    im2col, sigmoid = kern.im2col, kern.sigmoid

    def counted(*args):
        out = im2col(*args)
        rows.append(weakref.ref(out))
        return out

    def probe(v):
        alive_at_sigmoid.extend(r() is not None for r in rows)
        return sigmoid(v)

    monkeypatch.setattr(kern, "im2col", counted)
    monkeypatch.setattr(kern, "sigmoid", probe)
    for bindings in (point, {**point, "x": Stack(_rand(rng, (2, 6, 6, 2)))}):
        rows.clear()
        alive_at_sigmoid.clear()
        got = run(bindings)
        assert len(rows) == 1 and alive_at_sigmoid == [False]
        alone = [g.evaluator([c])(bindings)[0] for c in corrs]
        assert [a.tobytes() for a in got[:3]] == [a.tobytes() for a in alone]
        assert [a.tobytes() for a in got] == [
            a.tobytes() for a in _keep_every_node(g, outputs, bindings)]
    monkeypatch.undo()
    (got,) = g.evaluator([corrs[0]])(point)
    assert got.tobytes() == conv2d(point["x"], point["k1"], zero_padding=1).array.tobytes()


def test_a_gd_step_makes_one_im2col_call_per_correlation_input(monkeypatch):
    # the 12x12 dlg step plan: 12 correlations read 7 (input, margin) pairs
    g, outputs = _gd_and_gn_plans()["baseline"]
    plan = g._ancestors(outputs)
    corrs = [g.node(n) for n in plan if g.op_of(n) in ("corr2d", "kgrad_corr")]
    assert len(corrs) == 12 and len({(n.inputs[0], n.params[0]) for n in corrs}) == 7
    run = g.evaluator(outputs)
    rng = SeedRng(47)
    bindings = {name: _rand(rng, g.shape_of(nid)) for name, nid in g.variables().items()}
    calls = []
    im2col = kern.im2col
    monkeypatch.setattr(kern, "im2col", lambda *a: calls.append(a) or im2col(*a))
    run(bindings)
    assert len(calls) == 7


# ------------------------------------------------------------ builder folds


def _edge_values(seed, shape):
    """Random values with about half replaced by +-0.0, subnormals or the
    largest finite values."""
    rng = np.random.default_rng(seed)
    tiny, big = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
    special = rng.choice(np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, big, -big]), shape)
    return np.where(rng.uniform(size=shape) < 0.5, special, rng.uniform(-3.0, 3.0, shape))


_S = (3, 4)
_TINY, _BIG = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max


def _uniform_mul(c, left):
    def build(g, a, b):
        k = g.constant(np.full(_S, c))
        return g.mul(k, a) if left else g.mul(a, k)

    def unrewritten(g, a, b):
        k = g.constant(np.full(_S, c))
        return g._append("mul", (k, a) if left else (a, k), _S)

    return build, unrewritten


def _constant_mul(values):
    # a constant that is not uniform bit for bit: the builder must keep the mul
    return (lambda g, a, b: g.mul(a, g.constant(np.reshape(values, _S))),
            lambda g, a, b: g._append("mul", (a, g.constant(np.reshape(values, _S))), _S))


# name -> (builder call, the same value as the node sequence it replaces,
# the op the builder gives, or None for the operand a itself)
_REWRITES = {
    **{f"mul {side} by {c!r}": (*_uniform_mul(c, side == "left"), None if c == 1.0 else "scale")
       for c in (1.0, 2.0, -1.0, 0.5, 0.0, -0.0, _TINY, -_BIG) for side in ("left", "right")},
    "add a a": (lambda g, a, b: g.add(a, a), lambda g, a, b: g._append("add", (a, a), _S),
                "scale"),
    "add a -b": (lambda g, a, b: g.add(a, g.scale(b, -1.0)),
                 lambda g, a, b: g._append("add", (a, g.scale(b, -1.0)), _S), "sub"),
    "mul by ones but one": (*_constant_mul([1.0] * 11 + [3.0]), "mul"),
    "mul by -0.0 and 0.0": (*_constant_mul([-0.0, 0.0] * 6), "mul"),
    "mul by 2 and 2 + ulp": (*_constant_mul([2.0] * 11 + [np.nextafter(2.0, 3.0)]), "mul"),
}


@pytest.mark.parametrize("case", sorted(_REWRITES))
def test_builder_rewrites_keep_every_bit(case):
    build, unrewritten, op = _REWRITES[case]
    g = ExprGraph()
    a, b = g.variable("a", _S), g.variable("b", _S)
    node, reference = build(g, a, b), unrewritten(g, a, b)
    assert node == a if op is None else g.op_of(node) == op
    run = g.evaluator([node, reference])
    point = {"a": _edge_values(1, _S), "b": _edge_values(2, _S)}
    stack = {"a": Stack(_edge_values(3, (4,) + _S)), "b": Stack(_edge_values(4, (4,) + _S))}
    for bindings in (point, stack):
        with np.errstate(over="ignore"):
            got, want = run(bindings)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(_primitive_scenarios()))
def test_a_node_over_constants_is_the_constant_its_rule_gives(name):
    var_shapes, build = _primitive_scenarios()[name]
    values = {v: _edge_values(i, s) for i, (v, s) in enumerate(var_shapes.items())}
    g = ExprGraph()
    with np.errstate(over="ignore", invalid="ignore"):
        (want,) = g.evaluator([build(g, {v: g.variable(v, s) for v, s in var_shapes.items()})])(values)
        folded = build(g, {v: g.constant(a) for v, a in values.items()})
    assert g.op_of(folded) == "const"
    assert g.node(folded).payload.tobytes() == np.asarray(want).tobytes()


def test_readme_plan_sizes_are_the_compiled_plans():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    (gd, improved), = re.findall(r"the 12x12 `gd` plan has (\d+) nodes \((\d+) with `--improved`\)",
                                 text)
    (victim,) = re.findall(r"plan \((\d+) nodes at 16x16\)", text)
    plans = _gd_and_gn_plans()
    victim_graph, victim_outputs = _gradient_plan_nodes(
        build_model(default_attack_spec(16, 16, 1, 2), SeedRng(5)))
    assert [int(gd), int(improved), int(victim)] == [
        len(plans["baseline"][0]._ancestors(plans["baseline"][1])),
        len(plans["improved"][0]._ancestors(plans["improved"][1])),
        len(victim_graph._ancestors(victim_outputs))]
