"""8-bit image buffers, binary PGM/PPM codecs, and synthetic test images.

Only the binary netpbm formats are supported (P5 for grayscale, P6 for RGB,
maxval 255): they are simple enough to pin byte for byte, which keeps whole
experiment trees reproducible. Comments are accepted on read and never
written, so files written here are already in canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParseError, ShapeError
from .tensor import SeedRng, Tensor

SYNTH_KINDS = ("gradient", "blocks", "light-background")


@dataclass(frozen=True)
class ImageBuffer:
    """Row-major 8-bit samples, interleaved channels; 1 (gray) or 3 (RGB)."""

    width: int
    height: int
    channels: int
    samples: bytes

    def __post_init__(self):
        if self.channels not in (1, 3):
            raise ContractError(f"channels must be 1 or 3, got {self.channels}")
        if self.width < 1 or self.height < 1:
            raise ContractError(f"bad image dimensions {self.width}x{self.height}")
        expected = self.width * self.height * self.channels
        if len(self.samples) != expected:
            raise ContractError(
                f"expected {expected} samples for {self.width}x{self.height}x{self.channels}, "
                f"got {len(self.samples)}"
            )

    def to_tensor(self) -> Tensor:
        """HxWxC tensor with values sample/255 in [0, 1]."""
        arr = np.frombuffer(self.samples, dtype=np.uint8).astype(np.float64)
        return Tensor((arr / 255.0).reshape(self.height, self.width, self.channels))

    @classmethod
    def from_tensor(cls, tensor: Tensor) -> "ImageBuffer":
        """Quantize an HxWxC tensor by round-half-up after clamping to [0, 1]."""
        arr = tensor.array
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ShapeError(
                f"image tensor must be HxWx1 or HxWx3, got shape {arr.shape}"
            )
        q = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5)
        q = np.clip(q, 0, 255).astype(np.uint8)
        return cls(arr.shape[1], arr.shape[0], arr.shape[2], q.tobytes())


def encode_image(buf: ImageBuffer) -> bytes:
    magic = b"P5" if buf.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (buf.width, buf.height)
    return header + buf.samples


class _Scanner:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_space(self) -> None:
        """Skip whitespace and '#' comments (comment runs to end of line)."""
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b in b" \t\r\n":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.data) and self.data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def read_int(self, what: str) -> int:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected {what}", start)
        return int(self.data[start : self.pos])


def decode_image(data: bytes) -> ImageBuffer:
    """Parse a binary PGM/PPM byte string; raises ParseError with an offset."""
    sc = _Scanner(data)
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ParseError(f"bad magic {magic!r}, expected P5 or P6", 0)
    sc.pos = 2
    width = sc.read_int("width")
    height = sc.read_int("height")
    maxval = sc.read_int("maxval")
    if width < 1 or height < 1:
        raise ParseError(f"bad image dimensions {width}x{height}", sc.pos)
    if maxval != 255:
        raise ParseError(f"unsupported maxval {maxval}, only 255", sc.pos)
    if sc.pos >= len(data) or data[sc.pos] not in b" \t\r\n":
        raise ParseError("expected single whitespace before payload", sc.pos)
    sc.pos += 1
    payload_size = width * height * channels
    payload_at = sc.pos
    if len(data) - sc.pos < payload_size:
        raise ParseError(
            f"truncated payload: need {payload_size} bytes, have {len(data) - sc.pos}",
            payload_at,
        )
    if len(data) - sc.pos > payload_size:
        raise ParseError("trailing bytes after payload", payload_at + payload_size)
    return ImageBuffer(width, height, channels, data[payload_at : payload_at + payload_size])


def write_image(path, buf: ImageBuffer) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_image(buf))


def read_image(path) -> ImageBuffer:
    with open(path, "rb") as fh:
        return decode_image(fh.read())


def image_extension(channels: int) -> str:
    return "pgm" if channels == 1 else "ppm"


def synth_image(kind: str, width: int, height: int, channels: int, seed: int) -> ImageBuffer:
    """Deterministic test images.

    gradient: diagonal ramp, seed-independent.
    blocks: grid of flat cells with seeded random shades.
    light-background: near-white canvas with two seeded dark rectangles
    covering well under half the pixels, so at least 50% of pixels stay
    at or above 240.
    """
    if kind not in SYNTH_KINDS:
        raise ContractError(f"unknown synthetic image kind {kind!r}")
    if width < 4 or height < 4:
        raise ContractError(f"synthetic images need dimensions >= 4, got {width}x{height}")
    if channels not in (1, 3):
        raise ContractError(f"channels must be 1 or 3, got {channels}")

    rng = SeedRng(seed)
    img = np.zeros((height, width, channels), dtype=np.uint8)

    if kind == "gradient":
        # diagonal ramp covering the full 0..255 range, one step per channel
        y, x, ch = np.ogrid[:height, :width, :channels]
        img = (((x + y + ch) * 255) // (width + height + channels - 3)).astype(np.uint8)
    elif kind == "blocks":
        cell = max(2, min(width, height) // 4)
        for cy in range((height + cell - 1) // cell):
            for cx in range((width + cell - 1) // cell):
                shade = [min(255, int(rng.uniform() * 256)) for _ in range(channels)]
                img[cy * cell : (cy + 1) * cell, cx * cell : (cx + 1) * cell] = shade
    else:
        img[:, :] = 250
        for _ in range(2):
            # each rectangle spans at most half of each axis: <= 25% of pixels,
            # so two of them leave >= 50% of the canvas at 250
            rw = max(1, int(rng.uniform() * (width // 2)))
            rh = max(1, int(rng.uniform() * (height // 2)))
            rx = int(rng.uniform() * (width - rw))
            ry = int(rng.uniform() * (height - rh))
            shade = [20 + int(rng.uniform() * 101) for _ in range(channels)]
            img[ry : ry + rh, rx : rx + rw] = shade

    return ImageBuffer(width, height, channels, img.tobytes())
