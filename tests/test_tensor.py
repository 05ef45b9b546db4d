import math
import pickle

import numpy as np
import pytest

from gradleak import ContractError, SeedRng, ShapeError, Tensor
from oracles import splitmix64_ref

# first four outputs of the seed-42 stream, frozen for cross-platform checks
# (the generator also reproduces the published seed-0 and seed-1234567 vectors)
SEED42_U64 = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
)


def test_tensor_shapes_and_data():
    t = Tensor([1, 2, 3, 4, 5, 6], shape=(2, 3))
    assert t.shape == (2, 3)
    assert t.size == 6
    assert t.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_tensor_rejects_size_mismatch():
    with pytest.raises(ShapeError):
        Tensor([1, 2, 3], shape=(2, 2))


def test_tensor_rejects_non_finite():
    with pytest.raises(ContractError):
        Tensor([1.0, float("nan")])
    with pytest.raises(ContractError):
        Tensor([float("inf")])


def test_tensor_is_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.array[0] = 9.0


def test_tensor_stays_immutable_through_pickle():
    # whoever pickles a tensor, the copy that comes back is read-only too
    t = pickle.loads(pickle.dumps(Tensor([[1.0, 2.0]])))
    assert t == Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0


def test_tensor_does_not_alias_source_array():
    src = np.array([1.0, 2.0])
    t = Tensor(src)
    src[0] = 7.0
    assert t.tolist() == [1.0, 2.0]
    assert src.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adopt_rejects_non_finite_as_the_constructor_does(bad):
    with pytest.raises(ContractError) as public:
        Tensor([1.0, bad])
    with pytest.raises(ContractError) as adopted:
        Tensor._adopt(np.array([1.0, bad]))
    assert str(adopted.value) == str(public.value)


def test_adopt_wraps_a_fresh_array_read_only_without_a_copy():
    fresh = np.arange(6.0).reshape(2, 3)
    t = Tensor._adopt(fresh)
    assert t.array is fresh
    assert not t.array.flags.writeable
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0
    assert t == Tensor(np.arange(6.0).reshape(2, 3))


def test_tensor_exact_equality():
    assert Tensor([1.0, 2.0]) == Tensor([1.0, 2.0])
    assert Tensor([1.0, 2.0]) != Tensor([1.0, 2.0 + 1e-15])
    assert Tensor([[1.0]]) != Tensor([1.0])


def test_splitmix_stream_matches_reference_and_frozen_values():
    rng = SeedRng(42)
    got = tuple(rng.next_u64() for _ in range(4))
    assert got == SEED42_U64
    assert list(got) == splitmix64_ref(42, 4)


def test_same_seed_same_draws():
    a = SeedRng(1234)
    b = SeedRng(1234)
    assert [a.uniform() for _ in range(32)] == [b.uniform() for _ in range(32)]
    assert SeedRng(7).normal_array((3, 2)).tolist() == SeedRng(7).normal_array((3, 2)).tolist()


def test_uniform_range_and_normal_consumes_two_draws():
    rng = SeedRng(9)
    us = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= u < 1.0 for u in us)

    # normal() must advance the state by exactly two uniform draws
    a = SeedRng(5)
    a.normal()
    b = SeedRng(5)
    b.uniform()
    b.uniform()
    assert a.state == b.state


def test_box_muller_value():
    rng = SeedRng(123)
    u1 = 1.0 - rng.uniform()
    u2 = rng.uniform()
    expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert SeedRng(123).normal() == expected


def test_normal_moments_are_sane():
    rng = SeedRng(2024)
    xs = np.array([rng.normal() for _ in range(4000)])
    assert abs(xs.mean()) < 0.08
    assert abs(xs.std() - 1.0) < 0.08


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**64 - 1, 2**63 + 17])
@pytest.mark.parametrize("n", [1, 2, 7, 1001])
def test_uniform_array_equals_scalar_stream_and_state(seed, n):
    block = SeedRng(seed)
    got = block.uniform_array((n,))
    scalar = SeedRng(seed)
    expected = [scalar.uniform() for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == expected
    assert got.tolist() == [(z >> 11) * 2.0**-53 for z in splitmix64_ref(seed, n)]
    assert block.state == scalar.state


def test_block_and_scalar_draws_interleave_as_one_stream():
    seed = 2**64 - 3  # the stream wraps 2**64 within the first draws
    mixed = SeedRng(seed)
    got = [mixed.uniform()]
    got += mixed.uniform_array((5,)).tolist()
    got.append(mixed.uniform())
    got += mixed.uniform_array((2, 3)).ravel().tolist()
    got.append(mixed.uniform())
    scalar = SeedRng(seed)
    assert got == [scalar.uniform() for _ in range(len(got))]
    assert mixed.state == scalar.state


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 17])
def test_normal_array_equals_per_element_normal(seed):
    got = SeedRng(seed).normal_array((5, 3))
    scalar = SeedRng(seed)
    expected = [scalar.normal() for _ in range(15)]
    assert got.ravel().tolist() == expected
