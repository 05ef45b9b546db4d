import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradleak.flsim as flsim
from gradleak import (
    AGGREGATE_CLIENT,
    ContractError,
    ExprGraph,
    GradientBundle,
    IncompatibilityError,
    ModelParams,
    ModelSpec,
    ParseError,
    SeedRng,
    ShapeError,
    Tensor,
    aggregate,
    build_model,
    default_attack_spec,
    deserialize_bundle,
    fc_analytic_reconstruct,
    forward_loss,
    grad,
    loss_bindings,
    one_hot,
    serialize_bundle,
    synth_image,
    victim_gradient,
    write_bundle,
)
from gradleak.models import Dense, Flatten
from oracles import fd_gradient, loop_avg_pool, loop_conv2d, rel_err, softmax_hp


def _image(rng, h, w, c=1):
    return Tensor(np.array([rng.uniform() for _ in range(h * w * c)]).reshape(h, w, c))


def _loop_features(params, x):
    """The conv/pool stack of the default attack model, run by the loop oracles."""
    a = x.array
    for conv in ("conv1", "conv2"):
        a = loop_conv2d(a, params.weights[conv]["W"].array, stride=1, padding=2)
        a = loop_avg_pool(1.0 / (1.0 + np.exp(-a)), 2, 2)
    return a.reshape(-1)


def test_final_bias_gradient_is_softmax_minus_target():
    spec = default_attack_spec(12, 12, 1, 3)
    params = build_model(spec, SeedRng(2))
    x = _image(SeedRng(3), 12, 12)
    target = one_hot(2, 3)
    bundle = victim_gradient(params, x, target)

    # independent forward pass with the loop and high-precision oracles
    feats = _loop_features(params, x)
    logits = params.weights["fc1"]["W"].array @ feats + params.weights["fc1"]["B"].array
    probs = softmax_hp(logits)

    got = bundle.get("fc1.B").array
    assert np.allclose(got, probs - target.array, rtol=1e-12, atol=1e-15)
    # and the weight gradient is the bias gradient times the layer input
    assert np.allclose(
        bundle.get("fc1.W").array, np.outer(got, feats), rtol=1e-12, atol=1e-16
    )


def test_dense_layer_input_recovered_through_full_cnn():
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(4))
    x = _image(SeedRng(5), 12, 12)
    bundle = victim_gradient(params, x, one_hot(0, 2))
    feats = _loop_features(params, x)

    recovered = fc_analytic_reconstruct(bundle.get("fc1.W"), bundle.get("fc1.B")).array
    worst = max(rel_err(r, f, 1e-12) for r, f in zip(recovered, feats))
    assert worst < 1e-10


def test_gradient_under_zero_input_and_zero_params_matches_fd():
    spec = ModelSpec((1, 3, 1), (Flatten(), Dense(out_dim=2, biased=True)))
    params = ModelParams(
        spec, {"fc1": {"W": Tensor.zeros((2, 3)), "B": Tensor.zeros((2,))}}
    )
    x = Tensor.zeros((1, 3, 1))
    bundle = victim_gradient(params, x, one_hot(0, 2))
    # weight gradient vanishes with the input; bias gradient does not
    assert np.array_equal(bundle.get("fc1.W").array, np.zeros((2, 3)))
    assert np.allclose(bundle.get("fc1.B").array, [-0.5, 0.5], atol=1e-15)

    lg = forward_loss(params)
    bindings = loss_bindings(params, x, one_hot(0, 2))
    gm = grad(lg.graph, lg.param_nodes.values(), of=lg.loss)
    run = lg.graph.evaluator([lg.loss])
    for name, node in lg.param_nodes.items():
        got = lg.graph.evaluator([gm[node]])(bindings)[0]
        want = fd_gradient(run, dict(bindings), name)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9), name


def test_victim_gradient_is_deterministic():
    spec = default_attack_spec(12, 12, 1, 2)
    params = build_model(spec, SeedRng(6))
    x = _image(SeedRng(7), 12, 12)
    a = victim_gradient(params, x, one_hot(1, 2), client_id=3, round_index=9)
    b = victim_gradient(params, x, one_hot(1, 2), client_id=3, round_index=9)
    assert serialize_bundle(a) == serialize_bundle(b)


def _oracle_bundle(params, x, target, client_id=0, round_index=0):
    """victim_gradient as a fresh graph, gradient and plan for every call."""
    bindings = loss_bindings(params, x, target)
    lg = forward_loss(params)
    grad_nodes = grad(lg.graph, wrt=lg.param_nodes.values(), of=lg.loss)
    names = list(lg.param_nodes)
    values = lg.graph.evaluator([grad_nodes[lg.param_nodes[n]] for n in names])(bindings)
    return GradientBundle(params.spec.digest, client_id, round_index,
                          tuple((n, Tensor(v)) for n, v in zip(names, values)))


def _outcome(fn, *args):
    """The bytes of the bundle fn returns, or the type of what it raises."""
    try:
        return serialize_bundle(fn(*args))
    except Exception as e:  # noqa: BLE001 - the type is the outcome compared
        return type(e)


_PLAN_SPECS = (
    default_attack_spec(12, 12, 1, 2),
    default_attack_spec(32, 32, 3, 10),
    ModelSpec((12, 12, 1), default_attack_spec(12, 12, 1, 3).layers[:-1]
              + (Dense(out_dim=3, biased=False),)),
    ModelSpec((4, 5, 1), (Flatten(), Dense(out_dim=4))),
)


def _client(spec, seed):
    """Parameters, input and one-hot target of one client of `spec`."""
    h, w, c = spec.input_shape
    params = build_model(spec, SeedRng(seed))
    x = synth_image("blocks", w, h, c, seed).to_tensor()
    return params, x, one_hot(seed % spec.classes, spec.classes)


class TestVictimPlan:
    def test_cached_plan_matches_fresh_graph_as_specs_alternate(self):
        for seed in range(3):
            for spec in _PLAN_SPECS:  # each spec replaces the single plan entry
                params, x, target = _client(spec, seed)
                got = victim_gradient(params, x, target, client_id=seed, round_index=2)
                want = _oracle_bundle(params, x, target, client_id=seed, round_index=2)
                assert serialize_bundle(got) == serialize_bundle(want), (spec, seed)

    def test_warm_call_builds_and_compiles_nothing(self, monkeypatch):
        other, spec = _PLAN_SPECS[0], _PLAN_SPECS[2]
        victim_gradient(*_client(other, 0))
        warm = _client(spec, 5)
        want = serialize_bundle(_oracle_bundle(*warm))
        counts = {"evaluator": 0, "grad": 0}
        graphs = []
        evaluator, flsim_grad = ExprGraph.evaluator, flsim.grad
        flsim_forward_loss = flsim.forward_loss

        def counted_evaluator(graph, outputs):
            counts["evaluator"] += 1
            return evaluator(graph, outputs)

        def counted_grad(*args, **kwargs):
            counts["grad"] += 1
            return flsim_grad(*args, **kwargs)

        def recorded_forward_loss(params):
            lg = flsim_forward_loss(params)
            graphs.append(lg.graph)
            return lg

        monkeypatch.setattr(ExprGraph, "evaluator", counted_evaluator)
        monkeypatch.setattr(flsim, "grad", counted_grad)
        monkeypatch.setattr(flsim, "forward_loss", recorded_forward_loss)
        victim_gradient(*_client(spec, 4))  # cold: the last call was another spec
        assert counts == {"evaluator": 1, "grad": 1} and len(graphs) == 1
        nodes = len(graphs[0])
        got = victim_gradient(*warm)
        assert counts == {"evaluator": 1, "grad": 1} and len(graphs) == 1
        assert len(graphs[0]) == nodes
        assert serialize_bundle(got) == want

    @pytest.mark.parametrize("damage", ["missing bias", "wrong shape", "missing layer"])
    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_params_that_disagree_with_their_spec_get_their_own_plan(self, damage, cache):
        spec = _PLAN_SPECS[0]
        params, x, target = _client(spec, 7)
        weights = {layer: dict(entry) for layer, entry in params.weights.items()}
        if damage == "missing bias":
            del weights["fc1"]["B"]
        elif damage == "wrong shape":
            weights["conv2"]["W"] = Tensor.zeros((5, 5, 6, 11))
        else:
            del weights["conv2"]
        bad = ModelParams(spec, weights)
        victim_gradient(*_client(_PLAN_SPECS[1] if cache == "cold" else spec, 8))
        want = _outcome(_oracle_bundle, bad, x, target)
        assert _outcome(victim_gradient, bad, x, target) == want
        if damage == "missing bias":
            assert isinstance(want, bytes)  # the bias is left out of the bundle
        else:
            assert isinstance(want, type) and issubclass(want, Exception)
        assert _outcome(victim_gradient, params, x, target) == _outcome(
            _oracle_bundle, params, x, target)

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_input_shapes_checked_on_a_warm_plan(self, cache):
        params, x, target = _client(_PLAN_SPECS[0], 1)
        warm_up = (params, x, target) if cache == "warm" else _client(_PLAN_SPECS[1], 1)
        victim_gradient(*warm_up)
        with pytest.raises(ShapeError, match="forward_loss: input of shape"):
            victim_gradient(params, Tensor.zeros((12, 12, 3)), target)
        with pytest.raises(ShapeError, match="forward_loss: target of shape"):
            victim_gradient(params, x, one_hot(0, 3))

    def test_one_loss_graph_serves_any_input(self):
        # the loss graph and the gradient plan are built once, from the
        # model alone; each (input, target) pair is bound at evaluation
        params, x, target = _client(_PLAN_SPECS[0], 3)
        lg = forward_loss(params)
        grads = grad(lg.graph, wrt=lg.param_nodes.values(), of=lg.loss)
        run_graph = lg.graph.evaluator([grads[node] for node in lg.param_nodes.values()])
        run_plan = flsim.gradient_plan(params)
        other = (synth_image("light-background", 12, 12, 1, 4).to_tensor(),
                 Tensor(softmax_hp([0.3, -1.2])))
        for pair in ((x, target), other):
            bindings = loss_bindings(params, *pair)
            want = [t.array for _, t in victim_gradient(params, *pair).tensors]
            for got in (run_graph(bindings), run_plan(bindings)):
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        inputs = {t.array.tobytes() for t in (x, target) + other}
        consts = [n for n in range(len(lg.graph)) if lg.graph.op_of(n) == "const"]
        assert not [n for n in consts if lg.graph.node(n).payload.tobytes() in inputs]

    def test_spec_and_params_still_pickle(self):
        params, x, target = _client(_PLAN_SPECS[0], 2)
        victim_gradient(params, x, target)
        assert pickle.loads(pickle.dumps(params.spec)) == params.spec
        back = pickle.loads(pickle.dumps(params))
        assert serialize_bundle(victim_gradient(back, x, target)) == serialize_bundle(
            victim_gradient(params, x, target))


def _toy_bundle(values, digest=0xABCD, client=1):
    return GradientBundle(
        digest=digest,
        client_id=client,
        round_index=0,
        tensors=tuple((name, Tensor(v)) for name, v in values),
    )


class TestAggregate:
    def test_mean_of_identical_bundles_is_identity(self):
        b = _toy_bundle([("l.W", [[1.0, -2.0, -0.0]]), ("l.B", [0.5, -0.0])])
        for copies in (1, 2, 3):
            agg = aggregate([b] * copies)
            assert agg.client_id == AGGREGATE_CLIENT
            for (_, got), (_, want) in zip(agg.tensors, b.tensors):
                assert got == want, copies  # bit for bit, so -0.0 stays -0.0

    def test_opposite_bundles_cancel(self):
        b = _toy_bundle([("l.W", [[1.0, -2.0]])])
        neg = _toy_bundle([("l.W", [[-1.0, 2.0]])])
        agg = aggregate([b, neg])
        assert agg.get("l.W").tolist() == [[0.0, 0.0]]

    def test_mean_matches_loop_oracle(self):
        rng = SeedRng(8)
        bundles = [
            _toy_bundle([("l.W", [[rng.uniform() - 0.5 for _ in range(3)] for _ in range(2)])])
            for _ in range(4)
        ]
        mean = aggregate(bundles).get("l.W").array
        acc = bundles[0].get("l.W").array
        for b in bundles[1:]:
            acc = acc + b.get("l.W").array
        assert mean.tobytes() == (acc / 4).tobytes()  # ((b0 + b1) + ...) / n
        assert not mean.flags.writeable

    def test_permutation_invariance(self):
        rng = SeedRng(9)
        bundles = [_toy_bundle([("l.W", [rng.uniform() for _ in range(4)])]) for _ in range(3)]
        a = aggregate(bundles)
        b = aggregate(bundles[::-1])
        assert serialize_bundle(a) == serialize_bundle(b)

    def test_digest_mismatch_rejected(self):
        with pytest.raises(IncompatibilityError):
            aggregate([_toy_bundle([("l.W", [1.0])], digest=1),
                       _toy_bundle([("l.W", [1.0])], digest=2)])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            aggregate([])


def _parity_blob():
    """The two-tensor blob whose prefixes and corruptions the parity table covers.

    Layout: header 0-27; "x" name length 28, name 30, rank 31, dimension 32,
    payload 40-55; "y" name length 56, name 58, rank 59, dimensions 60 and 68,
    payload 76-83.
    """
    return serialize_bundle(_toy_bundle([("x", [1.0, 2.0]), ("y", [[3.0]])]))


def _patched(blob, at, raw):
    return blob[:at] + raw + blob[at + len(raw):]


def _corruptions():
    """Each malformed input the decoder tests make, by name."""
    blob = _parity_blob()
    one = (1).to_bytes(8, "little")
    cases = {
        "magic": b"NOPE" + blob[4:],
        "version": _patched(blob, 4, (2).to_bytes(4, "little")),
        "zero name length": _patched(blob, 28, bytes(2)),
        "non-UTF-8 name": _patched(blob, 30, b"\xff"),
        "repeated name": _patched(blob, 58, b"x"),
        "zero dimension": _patched(blob, 68, bytes(8)),
        "overflowing dimension": _patched(blob, 32, (1 << 40).to_bytes(8, "little")),
        "rank 65": blob[:31] + bytes([65]) + one * 65 + blob[40:48] + blob[56:],
        "trailing byte": blob + b"\x00",
        "tensor count 0": _patched(blob, 24, (0).to_bytes(4, "little")),
        "tensor count 3": _patched(blob, 24, (3).to_bytes(4, "little")),
    }
    for label, bad in (("NaN", np.nan), ("+inf", np.inf), ("-inf", -np.inf)):
        cases[f"{label} payload"] = _patched(blob, 48, np.float64(bad).tobytes())
        cases[f"{label} last payload"] = _patched(blob, 76, np.float64(bad).tobytes())
    return cases


def _decode_error(blob):
    with pytest.raises(ParseError) as err:
        deserialize_bundle(blob)
    return str(err.value), err.value.offset


# (first cut, last cut, str(error), offset) for every prefix blob[:cut] of
# _parity_blob(). Recorded from the slicing decoder this one replaced; the
# decoder must reproduce every entry.
_TRUNCATIONS = (
    (0, 3, 'truncated magic (at byte 0)', 0),
    (4, 7, 'truncated version (at byte 4)', 4),
    (8, 23, 'truncated header (at byte 8)', 8),
    (24, 27, 'truncated tensor count (at byte 24)', 24),
    (28, 29, 'truncated name length (at byte 28)', 28),
    (30, 30, 'truncated tensor name (at byte 30)', 30),
    (31, 31, 'truncated rank (at byte 31)', 31),
    (32, 39, 'truncated dimension (at byte 32)', 32),
    (40, 55, 'tensor shape (2,) overflows remaining payload (at byte 40)', 40),
    (56, 57, 'truncated name length (at byte 56)', 56),
    (58, 58, 'truncated tensor name (at byte 58)', 58),
    (59, 59, 'truncated rank (at byte 59)', 59),
    (60, 67, 'truncated dimension (at byte 60)', 60),
    (68, 75, 'truncated dimension (at byte 68)', 68),
    (76, 83, 'tensor shape (1, 1) overflows remaining payload (at byte 76)', 76),
)
# str(error) and offset for each input of _corruptions(), recorded alike.
_CORRUPTIONS = {
    'magic': ("bad magic, expected b'GLKB' (at byte 0)", 0),
    'version': ('unsupported format version 2 (at byte 4)', 4),
    'zero name length': ('empty tensor name (at byte 28)', 28),
    'non-UTF-8 name': ('tensor name is not valid UTF-8 (at byte 30)', 30),
    'repeated name': ("repeated tensor name 'x' (at byte 58)", 58),
    'zero dimension': ('zero tensor dimension (at byte 68)', 68),
    'overflowing dimension': (
        'tensor shape (1099511627776,) overflows remaining payload (at byte 40)', 40),
    'rank 65': ("rank 65 exceeds NumPy's maximum (at byte 31)", 31),
    'trailing byte': ('1 trailing bytes after last tensor (at byte 84)', 84),
    'tensor count 0': ('56 trailing bytes after last tensor (at byte 28)', 28),
    'tensor count 3': ('truncated name length (at byte 84)', 84),
    'NaN payload': ("tensor 'x' holds a non-finite value (at byte 48)", 48),
    'NaN last payload': ("tensor 'y' holds a non-finite value (at byte 76)", 76),
    '+inf payload': ("tensor 'x' holds a non-finite value (at byte 48)", 48),
    '+inf last payload': ("tensor 'y' holds a non-finite value (at byte 76)", 76),
    '-inf payload': ("tensor 'x' holds a non-finite value (at byte 48)", 48),
    '-inf last payload': ("tensor 'y' holds a non-finite value (at byte 76)", 76),
}


class TestBundleFormat:
    def test_round_trip_identity(self):
        spec = default_attack_spec(12, 12, 1, 2)
        params = build_model(spec, SeedRng(10))
        bundle = victim_gradient(params, _image(SeedRng(11), 12, 12), one_hot(0, 2),
                                 client_id=7, round_index=3)
        blob = serialize_bundle(bundle)
        back = deserialize_bundle(blob)
        assert back == bundle
        assert serialize_bundle(back) == blob

    def test_header_fields(self):
        b = _toy_bundle([("layer.W", [[1.5]])], digest=0x1122334455667788, client=9)
        blob = serialize_bundle(b)
        assert blob[:4] == b"GLKB"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:16], "little") == 0x1122334455667788
        assert int.from_bytes(blob[16:20], "little") == 9

    @pytest.mark.parametrize("field, value", [
        ("client_id", -1), ("client_id", 2**32), ("round_index", -1),
        ("round_index", 2**32), ("digest", -5), ("digest", 2**64),
    ])
    def test_header_field_out_of_range_rejected(self, field, value):
        fields = {"digest": 1, "client_id": 1, "round_index": 1, field: value}
        with pytest.raises(ContractError, match=f"{field} {value} outside"):
            GradientBundle(tensors=(("x", Tensor([1.0])),), **fields)

    @pytest.mark.parametrize("digest, client, round_index", [
        (2**64 - 1, 0, 0), (0, 2**32 - 1, 2**32 - 1), (2**64 - 1, 2**32 - 1, 7),
    ])
    def test_header_extremes_round_trip(self, digest, client, round_index):
        bundle = GradientBundle(digest, client, round_index, (("x", Tensor([1.0])),))
        blob = serialize_bundle(bundle)
        assert int.from_bytes(blob[8:16], "little") == digest
        back = deserialize_bundle(blob)
        assert (back.digest, back.client_id, back.round_index) == (digest, client, round_index)
        assert serialize_bundle(back) == blob

    def test_write_bundle_that_fails_to_encode_leaves_no_file(self, tmp_path):
        out = tmp_path / "bad.glkb"
        with pytest.raises(ContractError, match="empty tensor name"):
            write_bundle(out, _toy_bundle([("", [1.0])]))
        assert not out.exists()

    def test_empty_tensor_name_rejected_on_both_sides(self):
        bad = _toy_bundle([("", [1.0])])
        with pytest.raises(ContractError):
            serialize_bundle(bad)
        good = serialize_bundle(_toy_bundle([("x", [1.0])]))
        # patch the name length (after the 28-byte header) to zero
        hacked = _patched(good, 28, bytes(2))
        with pytest.raises(ParseError, match="empty tensor name") as err:
            deserialize_bundle(hacked)
        assert err.value.offset == 28

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_every_prefix_fails_as_recorded(self, wrap):
        blob = _parity_blob()
        cuts = [cut for lo, hi, _, _ in _TRUNCATIONS for cut in range(lo, hi + 1)]
        assert cuts == list(range(len(blob)))
        for lo, hi, message, offset in _TRUNCATIONS:
            for cut in range(lo, hi + 1):
                assert _decode_error(wrap(blob[:cut])) == (message, offset), cut

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_every_corruption_fails_as_recorded(self, wrap):
        cases = _corruptions()
        assert cases.keys() == _CORRUPTIONS.keys()
        for label, blob in cases.items():
            assert _decode_error(wrap(blob)) == _CORRUPTIONS[label], label

    def test_decoded_tensors_view_aligned_payloads_and_copy_the_rest(self):
        # conv1.W's payload starts 6 bytes off an 8-byte boundary, the others on one
        blob = serialize_bundle(victim_gradient(*_client(_PLAN_SPECS[1], 0)))
        raw = np.frombuffer(blob, np.uint8)
        for name, tensor in deserialize_bundle(blob).tensors:
            assert tensor.array.flags.aligned and not tensor.array.flags.writeable
            assert np.shares_memory(tensor.array, raw) == (name != "conv1.W"), name

    def test_decoded_tensors_do_not_alias_a_mutable_input(self):
        blob = _parity_blob()
        buffer = bytearray(blob)
        view = memoryview(bytearray(blob))
        from_buffer, from_view = deserialize_bundle(buffer), deserialize_bundle(view)
        buffer[40:] = bytes(len(buffer) - 40)
        view[40:] = bytes(len(view) - 40)
        for bundle in (from_buffer, from_view):
            assert serialize_bundle(bundle) == blob
            for _, tensor in bundle.tensors:
                assert not tensor.array.flags.writeable
                with pytest.raises(ValueError):
                    tensor.array[...] = 0.0

    def test_bad_magic_and_version(self):
        blob = serialize_bundle(_toy_bundle([("x", [1.0])]))
        with pytest.raises(ParseError, match="magic"):
            deserialize_bundle(b"NOPE" + blob[4:])
        with pytest.raises(ParseError, match="version"):
            deserialize_bundle(blob[:4] + (2).to_bytes(4, "little") + blob[8:])

    def test_truncations_raise_parse_errors(self):
        blob = serialize_bundle(_toy_bundle([("x", [1.0, 2.0]), ("y", [[3.0]])]))
        for cut in range(len(blob)):
            with pytest.raises(ParseError):
                deserialize_bundle(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = serialize_bundle(_toy_bundle([("x", [1.0])]))
        with pytest.raises(ParseError, match="trailing"):
            deserialize_bundle(blob + b"\x00")

    def test_shape_overflow_rejected(self):
        blob = bytearray(serialize_bundle(_toy_bundle([("x", [1.0])])))
        # rewrite the single dimension (8 bytes before the payload) to 2^40
        dim_at = len(blob) - 8 - 8
        blob[dim_at : dim_at + 8] = (1 << 40).to_bytes(8, "little")
        with pytest.raises(ParseError, match="overflow"):
            deserialize_bundle(bytes(blob))

    def test_non_finite_payload_names_its_byte_offset(self):
        blob = serialize_bundle(_toy_bundle([("x", [1.0]), ("y", [2.0, 3.25, 4.0])]))
        at = blob.index(np.float64(3.25).tobytes())
        for bad in (np.nan, np.inf, -np.inf):
            hacked = blob[:at] + np.float64(bad).tobytes() + blob[at + 8:]
            with pytest.raises(ParseError, match="non-finite") as err:
                deserialize_bundle(hacked)
            assert err.value.offset == at

    @staticmethod
    def _unit_tensor_blob(rank):
        # one tensor "x" of the given rank, every dimension 1, payload 1.0
        blob = serialize_bundle(_toy_bundle([("x", [1.0])]))
        rank_at = blob.index(b"x") + 1
        dims = (1).to_bytes(8, "little") * rank
        return blob[:rank_at] + bytes([rank]) + dims + blob[-8:], rank_at

    def test_rank_above_numpy_limit_names_its_byte_offset(self):
        blob, _ = self._unit_tensor_blob(64)
        assert deserialize_bundle(blob).tensors[0][1].shape == (1,) * 64
        blob, rank_at = self._unit_tensor_blob(65)
        with pytest.raises(ParseError, match="rank 65") as err:
            deserialize_bundle(blob)
        assert err.value.offset == rank_at

    def test_repeated_tensor_name_construction_rejected(self):
        with pytest.raises(ContractError, match="repeated tensor name 'x'"):
            _toy_bundle([("x", [1.0]), ("y", [3.0]), ("x", [2.0])])

    def test_repeated_tensor_name_rejected_at_its_offset(self):
        # a bundle cannot hold a repeated name, so rename "y" to "x" in the bytes
        good = serialize_bundle(_toy_bundle([("x", [1.0]), ("y", [2.0])]))
        second = good.index(b"y")
        blob = good[:second] + b"x" + good[second + 1:]
        with pytest.raises(ParseError, match="repeated tensor name 'x'") as err:
            deserialize_bundle(blob)
        assert err.value.offset == second

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_bundles_round_trip(self, data):
        names = data.draw(st.lists(
            st.text(alphabet="abcdefg.WBéλ中🙂", min_size=1, max_size=12),
            min_size=1, max_size=4, unique=True,
        ))
        edges = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.1e-308, -1.1e-308,
                                 np.finfo(np.float64).max, -np.finfo(np.float64).max])
        floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
        tensors = []
        for name in names:
            shape = data.draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
            size = int(np.prod(shape))
            values = data.draw(st.lists(st.one_of(edges, floats),
                                        min_size=size, max_size=size))
            tensors.append((name, Tensor(values, shape=shape)))
        bundle = GradientBundle(
            digest=data.draw(st.integers(0, 2**64 - 1)),
            client_id=data.draw(st.integers(0, 2**32 - 1)),
            round_index=data.draw(st.integers(0, 2**32 - 1)),
            tensors=tuple(tensors),
        )
        blob = serialize_bundle(bundle)
        for wrap in (bytes, bytearray, memoryview):
            back = deserialize_bundle(wrap(blob))
            assert back == bundle
            assert serialize_bundle(back) == blob
