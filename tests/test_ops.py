"""The graph's operations, each evaluated once over constant operands, and
the eager `conv2d`, checked against the loop and high-precision oracles."""

import numpy as np
import pytest

from gradleak import ExprGraph, GeometryError, SeedRng, ShapeError, Tensor, conv2d
from oracles import (
    cross_entropy_hp,
    log_softmax_hp,
    loop_affine,
    loop_avg_pool,
    loop_conv2d,
    softmax_hp,
)

# a hand-checkable 5x5 grid against a 3x3 kernel under flipped-kernel semantics
FLIP_GRID_INPUT = [
    [1, 1, 1, 1, 1],
    [-1, 0, -3, 0, 1],
    [2, 1, 1, -1, 0],
    [0, -1, 1, 2, 1],
    [1, 2, 1, 1, 1],
]
FLIP_GRID_KERNEL = [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
FLIP_GRID_EXPECTED = [[0, -2, -1], [2, 2, 4], [-1, 0, 0]]


def _rand(rng, shape):
    return np.array([rng.uniform() * 2 - 1 for _ in range(int(np.prod(shape)))]).reshape(shape)


def _op(name, *operands, **params):
    """ExprGraph.<name> over constant operands, evaluated."""
    g = ExprGraph()
    node = getattr(g, name)(*(g.constant(v) for v in operands), **params)
    return g.eval({}, [node])[0]


class TestAffine:
    def test_identity_weight_zero_bias(self):
        assert _op("affine", [[1, 0], [0, 1]], [3, 4], [0, 0]).tolist() == [3.0, 4.0]

    def test_forced_sum(self):
        assert _op("affine", [[1, 1]], [3, 4], [1]).tolist() == [8.0]

    def test_matches_loop_oracle_exactly(self):
        rng = SeedRng(11)
        w = _rand(rng, (4, 3))
        x = _rand(rng, (3,))
        b = _rand(rng, (4,))
        got = _op("affine", w, x, b).array
        want = loop_affine(w.tolist(), x.tolist(), b.tolist())
        assert np.array_equal(got, want) or np.allclose(got, want, rtol=0, atol=1e-15)


class TestConv2d:
    def test_flip_reference_grid(self):
        out = conv2d(
            Tensor(FLIP_GRID_INPUT, shape=(5, 5, 1)),
            Tensor(FLIP_GRID_KERNEL, shape=(3, 3, 1, 1)),
            stride=1,
            zero_padding=0,
            flip=True,
        )
        assert out.array.reshape(3, 3).tolist() == [[float(v) for v in row]
                                                    for row in FLIP_GRID_EXPECTED]

    def test_identity_kernel_preserves_input(self):
        rng = SeedRng(3)
        x = _rand(rng, (6, 7, 1))
        out = conv2d(x, np.ones((1, 1, 1, 1)))
        assert np.array_equal(out.array, x)

    def test_matches_loop_oracle(self):
        rng = SeedRng(17)
        x = _rand(rng, (8, 8, 3))
        k = _rand(rng, (3, 3, 3, 2))
        for pad in (0, 1, 2):
            got = conv2d(x, k, stride=1, zero_padding=pad).array
            want = loop_conv2d(x, k, stride=1, padding=pad)
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_loop_oracle_strided(self):
        rng = SeedRng(19)
        x = _rand(rng, (9, 9, 2))
        k = _rand(rng, (3, 3, 2, 4))
        got = conv2d(x, k, stride=2, zero_padding=0).array
        want = loop_conv2d(x, k, stride=2, padding=0)
        assert got.shape == (4, 4, 4)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_flip_equals_rotated_kernel(self):
        rng = SeedRng(23)
        for _ in range(5):
            x = _rand(rng, (6, 6, 2))
            k = _rand(rng, (3, 3, 2, 2))
            flipped = conv2d(x, k, flip=True).array
            rotated = conv2d(x, np.ascontiguousarray(k[::-1, ::-1]), flip=False).array
            assert np.array_equal(flipped, rotated)

    def test_non_integral_geometry_rejected(self):
        with pytest.raises(GeometryError):
            conv2d(np.zeros((5, 5, 1)), np.zeros((2, 2, 1, 1)), stride=2)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(np.zeros((5, 5, 2)), np.zeros((3, 3, 1, 1)))


class TestAvgPool:
    def test_constant_input(self):
        out = _op("avg_pool2d", np.full((4, 4, 2), 3.25), window=2, stride=2)
        assert np.array_equal(out.array, np.full((2, 2, 2), 3.25))

    def test_forced_mean(self):
        out = _op("avg_pool2d", Tensor([[1, 2], [3, 4]], shape=(2, 2, 1)), window=2, stride=2)
        assert out.tolist() == [[[2.5]]]

    def test_matches_loop_oracle(self):
        rng = SeedRng(31)
        x = _rand(rng, (6, 8, 3))
        got = _op("avg_pool2d", x, window=2, stride=2).array
        assert np.allclose(got, loop_avg_pool(x, 2, 2), rtol=0, atol=1e-15)
        x = _rand(rng, (7, 9, 3))  # overlapping windows
        got = _op("avg_pool2d", x, window=3, stride=2).array
        assert np.allclose(got, loop_avg_pool(x, 3, 2), rtol=0, atol=1e-15)

    def test_bad_geometry(self):
        with pytest.raises(GeometryError):
            _op("avg_pool2d", np.zeros((5, 5, 1)), window=2, stride=2)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert _op("sigmoid", np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_symmetry(self):
        rng = SeedRng(5)
        x = _rand(rng, (50,)) * 8
        total = _op("sigmoid", x).array + _op("sigmoid", -x).array
        assert np.allclose(total, 1.0, rtol=0, atol=1e-15)

    def test_saturation_stays_finite_and_open(self):
        out = _op("sigmoid", np.array([-800.0, 800.0])).array
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] < 1e-300
        assert out[1] < 1.0 or out[1] == 1.0  # saturates to 1.0 at double precision


class TestSoftmax:
    def test_uniform_logits(self):
        assert _op("softmax", [0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_shift_invariance(self):
        rng = SeedRng(13)
        v = _rand(rng, (6,)) * 10
        base = _op("softmax", v).array
        for c in (-100.0, 3.7, 250.0):
            shifted = _op("softmax", v + c).array
            assert np.abs(shifted - base).max() < 1e-12
            assert np.argmax(shifted) == np.argmax(base)

    def test_sums_to_one(self):
        rng = SeedRng(29)
        for _ in range(20):
            v = _rand(rng, (8,)) * 40
            assert abs(_op("softmax", v).array.sum() - 1.0) < 1e-12

    def test_matches_high_precision_oracle(self):
        rng = SeedRng(37)
        for _ in range(10):
            v = _rand(rng, (5,)) * 6
            got = _op("softmax", v).array
            want = softmax_hp(v)
            assert np.abs(got - want).max() < 1e-14


class TestLogSoftmax:
    def test_uniform_logits(self):
        assert _op("log_softmax", [0.0, 0.0]).tolist() == [-np.log(2.0)] * 2

    def test_shift_invariance(self):
        rng = SeedRng(13)
        v = _rand(rng, (6,)) * 10
        base = _op("log_softmax", v).array
        for c in (-100.0, 3.7, 250.0):
            assert np.abs(_op("log_softmax", v + c).array - base).max() < 1e-12

    def test_saturated_logits_stay_finite(self):
        # exp(-1600) underflows to 0, which log(softmax) would turn into -inf
        assert _op("log_softmax", [800.0, -800.0]).tolist() == [0.0, -1600.0]

    def test_matches_high_precision_oracle(self):
        rng = SeedRng(43)
        for _ in range(10):
            v = _rand(rng, (5,)) * 6
            got = _op("log_softmax", v).array
            want = log_softmax_hp(v)
            # |log p| < 13 here, where an ulp is at most 1.8e-15; the shift,
            # the log-sum and the subtraction each round once, so softmax's
            # absolute bound holds with room
            assert np.abs(got - want).max() < 1e-14


class TestCrossEntropy:
    # cross_entropy_logits(logits, target) is cross_entropy(softmax(logits), target)

    def test_one_hot_match_is_zero(self):
        # exp(-40) is below half an ulp of 1, so the probabilities are one-hot
        assert float(_op("cross_entropy_logits", [40.0, 0.0], [1.0, 0.0]).array) == 0.0

    def test_uniform_two_class(self):
        loss = float(_op("cross_entropy_logits", [0.0, 0.0], [1.0, 0.0]).array)
        assert abs(loss - np.log(2)) < 1e-15

    def test_matches_high_precision_oracle(self):
        rng = SeedRng(41)
        for _ in range(10):
            logits = _rand(rng, (4,)) * 5
            t = softmax_hp(_rand(rng, (4,)) * 2)
            got = float(_op("cross_entropy_logits", logits, t).array)
            assert abs(got - cross_entropy_hp(softmax_hp(logits), t)) < 1e-13
