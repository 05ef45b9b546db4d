import math

import numpy as np
import pytest

from gradleak import (
    Activation,
    Conv,
    Dense,
    Flatten,
    GeometryError,
    ModelParams,
    ModelSpec,
    ParseError,
    Pool,
    SeedRng,
    ShapeError,
    Tensor,
    build_model,
    default_attack_spec,
    forward_loss,
    grad,
    loss_bindings,
    one_hot,
    parse_model_text,
)
from oracles import fd_gradient, loop_build_model, rel_err


def small_spec():
    return ModelSpec(
        input_shape=(8, 8, 1),
        layers=(
            Conv(kernel=3, out_channels=2, stride=1, padding=1),
            Activation("sigmoid"),
            Pool(window=2, stride=2),
            Flatten(),
            Dense(out_dim=2, biased=True),
        ),
    )


def test_shared_kernel_parameter_count():
    # 10 kernels of 5x5 over 3 channels share exactly 750 weights
    spec = ModelSpec(
        input_shape=(8, 8, 3),
        layers=(Conv(kernel=5, out_channels=10), Flatten(), Dense(out_dim=2, biased=False)),
    )
    params = build_model(spec, SeedRng(1))
    assert params.weights["conv1"]["W"].size == 750


def test_dense_parameter_count():
    spec = ModelSpec(
        input_shape=(1, 7, 1),
        layers=(Flatten(), Dense(out_dim=3, biased=True)),
    )
    params = build_model(spec, SeedRng(1))
    assert params.weights["fc1"]["W"].size == 3 * 7
    assert params.weights["fc1"]["B"].size == 3
    assert params.param_count() == 3 * 7 + 3


def test_param_count_matches_per_layer_counting_oracle():
    spec = default_attack_spec(16, 16, 1, 2)
    params = build_model(spec, SeedRng(5))
    # independent count: walk the layer stack by hand
    expected = (5 * 5 * 1 * 6) + (5 * 5 * 6 * 12) + (2 * (4 * 4 * 12) + 2)
    assert params.param_count() == expected


def test_same_seed_bit_identical_params():
    spec = small_spec()
    a = build_model(spec, SeedRng(99))
    b = build_model(spec, SeedRng(99))
    for (na, ta), (nb, tb) in zip(a.flat(), b.flat()):
        assert na == nb and ta == tb


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_build_model_matches_scalar_loop_oracle(seed):
    spec = default_attack_spec(32, 32, 3, 10)
    layout = [
        ("conv1.W", (5, 5, 3, 6), 5 * 5 * 3),
        ("conv2.W", (5, 5, 6, 12), 5 * 5 * 6),
        ("fc1.W", (10, 768), 768),
        ("fc1.B", (10,), 768),
    ]
    expected = loop_build_model(seed, layout)
    got = dict(build_model(spec, SeedRng(seed)).flat())
    assert list(got) == [name for name, _, _ in layout]
    for name, arr in expected.items():
        assert got[name].array.tobytes() == arr.tobytes()


def test_build_model_without_final_bias_matches_scalar_loop_oracle():
    spec = ModelSpec(
        input_shape=(6, 6, 2),
        layers=(
            Conv(kernel=3, out_channels=3, stride=1, padding=0),
            Activation("sigmoid"),
            Flatten(),
            Dense(out_dim=5, biased=True),
            Activation("sigmoid"),
            Dense(out_dim=3, biased=False),
        ),
    )
    layout = [
        ("conv1.W", (3, 3, 2, 3), 3 * 3 * 2),
        ("fc1.W", (5, 48), 48),
        ("fc1.B", (5,), 48),
        ("fc2.W", (3, 5), 5),
    ]
    rng = SeedRng(11)
    got = dict(build_model(spec, rng).flat())
    assert list(got) == [name for name, _, _ in layout]
    expected = loop_build_model(11, layout)
    for name, arr in expected.items():
        assert got[name].array.tobytes() == arr.tobytes()
    # the model used exactly its parameter count of draws
    after = SeedRng(11)
    for _ in range(sum(a.size for a in expected.values())):
        after.uniform()
    assert rng.state == after.state


def test_init_respects_fan_in_scaling():
    spec = small_spec()
    params = build_model(spec, SeedRng(3))
    conv_w = params.weights["conv1"]["W"].array
    assert np.abs(conv_w).max() <= 0.5 / math.sqrt(3 * 3 * 1)
    fc_w = params.weights["fc1"]["W"].array
    assert np.abs(fc_w).max() <= 0.5 / math.sqrt(4 * 4 * 2)


def test_layer_shapes_follow_size_formula():
    spec = default_attack_spec(16, 16, 1, 2)
    shapes = dict(zip((name for name, _ in spec.named_layers()), spec.layer_shapes))
    assert spec.layer_shapes[0] == (16, 16, 6)     # conv1, pad 2 keeps extent
    assert spec.layer_shapes[2] == (8, 8, 6)       # first pool block
    assert spec.layer_shapes[5] == (4, 4, 12)      # second pool block
    assert spec.layer_shapes[-1] == (2,)
    assert shapes["fc1"] == (2,)


def test_default_spec_rejects_small_inputs():
    with pytest.raises(GeometryError):
        default_attack_spec(11, 16, 1, 2)


def test_inconsistent_stack_rejected_at_build_time():
    with pytest.raises(GeometryError, match="conv1"):
        ModelSpec((5, 5, 1),
                  (Conv(kernel=2, out_channels=2, stride=2), Flatten(), Dense(out_dim=2)))
    with pytest.raises(ShapeError, match="fc1"):
        ModelSpec((5, 5, 1), (Dense(out_dim=2),))


def test_canonical_text_round_trip_and_digest():
    spec = default_attack_spec(16, 16, 1, 2)
    text = spec.canonical_text()
    parsed = parse_model_text(text)
    assert parsed == spec
    assert parsed.digest == spec.digest
    assert parsed.canonical_text() == text

    other = default_attack_spec(16, 16, 1, 3)
    assert other.digest != spec.digest


def test_parse_accepts_comments_and_blank_lines():
    text = """
# comment line
input h=8 w=8 c=1   # trailing comment

conv k=3 out=2 stride=1 pad=1
act sigmoid
pool window=2 stride=2
flatten
dense out=2 bias=yes
"""
    assert parse_model_text(text) == small_spec()


@pytest.mark.parametrize("bad,fragment", [
    ("dense out=2 bias=yes", "input"),
    ("input h=8 w=8 c=1\nconv k=3 out=2 stride=1", "missing key"),
    ("input h=8 w=8 c=1\nwibble foo=1", "unknown layer kind"),
    ("input h=8 w=8 c=1\nflatten\ndense out=x bias=no", "not an integer"),
    # degenerate geometry is rejected while parsing, not by a later crash
    ("input h=8 w=8 c=1\nconv k=3 out=2 stride=0 pad=0\nflatten\ndense out=2 bias=yes",
     "conv1: window 3 and stride 0"),
    ("input h=8 w=8 c=1\npool window=0 stride=0\nflatten\ndense out=2 bias=yes",
     "layer1: window 0 and stride 0"),
    ("input h=8 w=8 c=1\nconv k=0 out=2 stride=1 pad=0\nflatten\ndense out=2 bias=yes",
     "conv1: window 0"),
    ("input h=8 w=8 c=1\nconv k=3 out=2 stride=1 pad=-1\nflatten\ndense out=2 bias=yes",
     "conv1: .*padding -1"),
    ("input h=8 w=8 c=1\nconv k=3 out=0 stride=1 pad=1\nflatten\ndense out=2 bias=yes",
     "conv1: out_channels 0"),
    ("input h=8 w=8 c=1\nflatten\ndense out=0 bias=yes", "fc1: out_dim 0"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_model_text(bad)


def test_forward_loss_confident_correct_prediction():
    # identity dense layer over a 2-pixel image: logits equal the pixels
    spec = ModelSpec((1, 2, 1), (Flatten(), Dense(out_dim=2, biased=False)))
    params = ModelParams(spec, {"fc1": {"W": Tensor(np.eye(2))}})
    lg = forward_loss(params)
    bindings = loss_bindings(params, Tensor([20.0, 0.0], shape=(1, 2, 1)), one_hot(0, 2))
    loss = lg.graph.eval(bindings, [lg.loss])[0].item()
    assert 0.0 < loss < 1e-3


def test_forward_loss_zero_model_is_uniform():
    spec = ModelSpec((1, 2, 1), (Flatten(), Dense(out_dim=2, biased=True)))
    params = ModelParams(
        spec, {"fc1": {"W": Tensor.zeros((2, 2)), "B": Tensor.zeros((2,))}}
    )
    lg = forward_loss(params)
    bindings = loss_bindings(params, Tensor.zeros((1, 2, 1)), one_hot(1, 2))
    loss = lg.graph.eval(bindings, [lg.loss])[0].item()
    assert abs(loss - math.log(2)) < 1e-15


def test_forward_loss_gradients_match_finite_differences():
    spec = small_spec()
    params = build_model(spec, SeedRng(17))
    rng = SeedRng(18)
    x = Tensor(np.array([rng.uniform() for _ in range(64)]).reshape(8, 8, 1))
    lg = forward_loss(params)
    bindings = loss_bindings(params, x, one_hot(1, 2))
    gm = grad(lg.graph, lg.param_nodes.values(), of=lg.loss)
    run_loss = lg.graph.evaluator([lg.loss])
    for name, node in lg.param_nodes.items():
        got = lg.graph.evaluator([gm[node]])(bindings)[0]
        want = fd_gradient(run_loss, dict(bindings), name)
        worst = max(rel_err(a, b, 1e-6) for a, b in zip(got.ravel(), want.ravel()))
        assert worst < 1e-5, f"{name}: worst {worst}"


def test_forward_loss_is_nonnegative():
    spec = small_spec()
    rng = SeedRng(23)
    for trial in range(5):
        params = build_model(spec, SeedRng(trial))
        x = Tensor(np.array([rng.uniform() for _ in range(64)]).reshape(8, 8, 1))
        lg = forward_loss(params)
        bindings = loss_bindings(params, x, one_hot(trial % 2, 2))
        assert lg.graph.eval(bindings, [lg.loss])[0].item() >= 0.0


def test_forward_loss_shape_validation():
    spec = small_spec()
    params = build_model(spec, SeedRng(1))
    with pytest.raises(ShapeError, match="forward_loss: input of shape"):
        loss_bindings(params, Tensor.zeros((4, 4, 1)), one_hot(0, 2))
    with pytest.raises(ShapeError, match="forward_loss: target of shape"):
        loss_bindings(params, Tensor.zeros((8, 8, 1)), one_hot(0, 3))
