"""Space-shift-keying transceiver over the beamformed reflected link.

The source conveys bits purely through the index of its single active
antenna; the destination runs scalar maximum-likelihood detection against
the cascaded gains.  A direct-link variant (no reflecting surface) serves
as the classic baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelRealization,
    NoiseModel,
    all_effective_gains,
    effective_gain,
    sample_awgn,
)


@dataclass(frozen=True)
class SskSymbol:
    """Active-antenna symbol: index ``l`` is 1 + the binary value of ``bits``."""

    l: int
    bits: tuple[int, ...]


def encode_ssk(bits) -> SskSymbol:
    """Map a bit tuple (MSB first) to the 1-based active antenna index."""
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    value = 0
    for b in bits:
        value = (value << 1) | b
    return SskSymbol(l=value + 1, bits=bits)


def decode_ssk(l: int, nt: int) -> tuple[int, ...]:
    """Recover the bit label (MSB first) of a detected antenna index."""
    b = int(np.log2(nt))
    if 2**b != nt:
        raise ValueError("antenna count must be a power of two")
    if not 1 <= l <= nt:
        raise IndexError(f"antenna index {l} out of range 1..{nt}")
    return tuple((l - 1) >> (b - 1 - i) & 1 for i in range(b))


def label_bit_errors(sent, detected) -> int:
    """Total Hamming distance between the natural binary labels of 0-based
    indices (scalars or equal-shape integer arrays): one popcount of their
    XOR."""
    diff = np.ascontiguousarray(np.bitwise_xor(sent, detected), dtype=np.uint64)
    return int(np.unpackbits(diff.view(np.uint8)).sum())


def index_bit_errors(l: int, lhat: int) -> int:
    """Hamming distance between the natural binary labels of two 1-based
    antenna indices."""
    return label_bit_errors(l - 1, lhat - 1)


def transmit_pb(
    ch: ChannelRealization,
    phi,
    sym: SskSymbol,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> complex:
    """Received sample for one transmission: cascaded gain plus AWGN."""
    return effective_gain(ch, phi, sym.l) + sample_awgn(noise, rng)


def detect_pb_ml(y: complex, ch: ChannelRealization, phi) -> int:
    """ML antenna decision: the index whose cascaded gain is closest to y.

    Ties resolve to the lowest index.
    """
    gains = all_effective_gains(ch, phi)
    return int((np.abs(y - gains) ** 2).argmin()) + 1


def transmit_detect_traditional_ssk(
    ch: ChannelRealization,
    sym: SskSymbol,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> int:
    """One shot of direct-link SSK: y = d_l + w, then scalar ML detection."""
    if ch.d is None:
        raise ValueError("channel realization carries no direct links")
    y = ch.d[sym.l - 1] + sample_awgn(noise, rng)
    return int(np.argmin(np.abs(y - ch.d) ** 2)) + 1
