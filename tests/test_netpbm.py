import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradleak import (
    ContractError,
    ImageBuffer,
    ParseError,
    SeedRng,
    Tensor,
    decode_image,
    encode_image,
    read_image,
    synth_image,
    write_image,
)
from oracles import loop_ramp_image


class TestImageBuffer:
    def test_sample_count_validated(self):
        with pytest.raises(ContractError):
            ImageBuffer(2, 2, 1, b"\x00" * 3)
        with pytest.raises(ContractError):
            ImageBuffer(2, 2, 2, b"\x00" * 8)

    def test_tensor_round_trip_is_exact(self):
        rng = SeedRng(1)
        samples = bytes(int(rng.uniform() * 256) % 256 for _ in range(4 * 5 * 3))
        buf = ImageBuffer(4, 5, 3, samples)
        back = ImageBuffer.from_tensor(buf.to_tensor())
        assert back == buf

    def test_quantization_rounds_half_up(self):
        # 0.5/255 boundary: values at exactly k + 0.5 (in 255 scale) round up
        t = Tensor([[[0.5 / 255.0], [1.49 / 255.0], [1.5 / 255.0]]])
        buf = ImageBuffer.from_tensor(t)
        assert list(buf.samples) == [1, 1, 2]

    def test_from_tensor_clamps(self):
        t = Tensor([[[-0.4], [1.7]]])
        assert list(ImageBuffer.from_tensor(t).samples) == [0, 255]


class TestCodec:
    def test_one_pixel_white_pgm(self):
        data = b"P5\n1 1\n255\n\xff"
        buf = decode_image(data)
        assert (buf.width, buf.height, buf.channels) == (1, 1, 1)
        assert buf.samples == b"\xff"
        assert encode_image(buf) == data

    def test_write_read_write_byte_identity(self, tmp_path):
        buf = synth_image("blocks", 8, 6, 3, 3)
        path = tmp_path / "img.ppm"
        write_image(path, buf)
        again = read_image(path)
        assert again == buf
        assert encode_image(again) == path.read_bytes()

    def test_comments_accepted_on_read(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02"
        buf = decode_image(data)
        assert list(buf.samples) == [1, 2]
        # canonical re-encoding drops the comments
        assert b"#" not in encode_image(buf)

    def test_bad_magic(self):
        with pytest.raises(ParseError, match="magic"):
            decode_image(b"P4\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(ParseError, match="maxval"):
            decode_image(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload_reports_offset(self):
        with pytest.raises(ParseError, match="truncated") as err:
            decode_image(b"P5\n2 2\n255\n\x00\x00")
        assert err.value.offset == 11  # payload starts right after the header

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            decode_image(b"P5\n1 1\n255\n\x00\x01")

    def test_every_truncation_is_a_parse_error(self):
        data = encode_image(synth_image("gradient", 4, 4, 1, 0))
        for cut in range(len(data)):
            with pytest.raises(ParseError):
                decode_image(data[:cut])

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_buffers_round_trip(self, data):
        w = data.draw(st.integers(1, 9))
        h = data.draw(st.integers(1, 9))
        c = data.draw(st.sampled_from([1, 3]))
        samples = bytes(data.draw(st.binary(min_size=w * h * c, max_size=w * h * c)))
        buf = ImageBuffer(w, h, c, samples)
        assert decode_image(encode_image(buf)) == buf


class TestSynth:
    def test_gradient_matches_documented_ramp(self):
        buf = synth_image("gradient", 7, 5, 3, 123)
        assert buf.samples == loop_ramp_image(7, 5, 3).tobytes()
        # seed does not affect the ramp
        assert synth_image("gradient", 7, 5, 3, 9) == buf

    @pytest.mark.parametrize("width,height,channels", [(4, 4, 1), (5, 7, 3), (64, 17, 1), (32, 32, 3)])
    def test_gradient_matches_pixel_loop_oracle(self, width, height, channels):
        buf = synth_image("gradient", width, height, channels, 0)
        assert buf.samples == loop_ramp_image(width, height, channels).tobytes()

    def test_blocks_deterministic_per_seed(self):
        assert synth_image("blocks", 16, 16, 1, 5) == synth_image("blocks", 16, 16, 1, 5)
        assert synth_image("blocks", 16, 16, 1, 5) != synth_image("blocks", 16, 16, 1, 6)

    def test_light_background_guarantee(self):
        for seed in range(20):
            buf = synth_image("light-background", 16, 16, 1, seed)
            arr = np.frombuffer(buf.samples, dtype=np.uint8)
            assert (arr >= 240).sum() >= 128
        buf = synth_image("light-background", 10, 8, 3, 3)
        arr = np.frombuffer(buf.samples, dtype=np.uint8).reshape(8, 10, 3)
        light_pixels = (arr >= 240).all(axis=2).sum()
        assert light_pixels >= 40

    def test_dims_validated(self):
        with pytest.raises(ContractError):
            synth_image("blocks", 3, 8, 1, 0)
        with pytest.raises(ContractError):
            synth_image("nope", 8, 8, 1, 0)
